import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from cfspaces import (
    Coordinate,
    Kernel,
    Margin,
    Measure,
    SchemaError,
    SpaceSchema,
    atoms_of,
    cylinder,
    independent_sigmas,
    is_measurable_wrt,
    synchronized,
)
from cfspaces.space import MAX_OUTCOMES, projector
from randspaces import random_schema


def three_bits():
    return SpaceSchema([Coordinate("W", f"c{i}", ("0", "1")) for i in (1, 2, 3)])


def two_by_two():
    return SpaceSchema([Coordinate("W", "a", ("0", "1")), Coordinate("W", "b", ("0", "1"))])


class TestSchema:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            Coordinate("W", "c", ("x", "x"))

    def test_empty_labels_rejected(self):
        with pytest.raises(SchemaError):
            Coordinate("W", "c", ())

    def test_duplicate_coordinate_rejected(self):
        with pytest.raises(SchemaError):
            SpaceSchema([Coordinate("W", "c", ("0", "1")), Coordinate("W", "c", ("0", "1"))])

    def test_size_guard(self):
        # 2^21 outcomes: the schema builds, but listing its outcomes is refused
        s = SpaceSchema([Coordinate("W", f"c{i}", ("0", "1")) for i in range(21)])
        assert s.n_outcomes == 2 ** 21
        for listing in (s.outcomes, s.outcome_set, lambda: s.rows(s.all_on)):
            with pytest.raises(SchemaError,
                               match="^2097152 rows to list, beyond the budget of 1048576$"):
                listing()

    def test_worlds_in_declaration_order(self, exam):
        assert exam.schema.worlds == ("F", "CF")

    def test_position_lookup(self, exam):
        s = exam.schema
        assert s.position("F.class") == 0
        assert s.position(("CF", "exam")) == 3
        with pytest.raises(SchemaError):
            s.position("F.nope")
        assert s.positions(frozenset({0, 3})) == {0, 3}
        for bad in (frozenset({4}), frozenset({1.0}), frozenset({0, "F.nope"})):
            with pytest.raises(SchemaError):
                s.positions(bad)

    def test_references_are_quoted_with_a_cap(self, exam):
        s = exam.schema
        long = "x" * 5000
        for call, quote in [(lambda: s.position("CF." + long), repr("CF." + "x" * 37 + "…")),
                            (lambda: s.position(long), repr("x" * 40 + "…")),
                            (lambda: s.position(("CF", long)), repr(("CF", long))[:40] + "…"),
                            (lambda: s.world_positions(long), repr("x" * 40 + "…")),
                            (lambda: s.label_index(3, long), repr("x" * 40 + "…")),
                            (lambda: s.label_index(3, [long]), repr([long])[:40] + "…"),
                            (lambda: s.position(("CF", "zz")), "('CF', 'zz')")]:
            with pytest.raises(SchemaError) as err:
                call()
            assert quote in str(err.value) and len(str(err.value)) <= 100

    def test_outcomes_canonical_order(self):
        s = two_by_two()
        assert s.outcomes() == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestProject:
    def test_dormant_example(self):
        # the joint-intervention kernel domain: (0,0,0) restricted to the
        # first two components
        assert projector((0, 1, 2), (0, 1))((0, 0, 0)) == (0, 0)

    def test_full_projection_is_identity(self):
        s = three_bits()
        key = projector(s.all_on, s.all_on)
        for outcome in s.outcomes():
            assert key(outcome) == outcome

    def test_empty_projection(self):
        assert projector((0, 1, 2), ())((1, 0, 1)) == ()

    def test_composition(self):
        rng = random.Random(7)
        s = three_bits()
        for _ in range(50):
            big = sorted(p for p in range(3) if rng.random() < 0.7)
            small = [p for p in big if rng.random() < 0.5]
            outcome = rng.choice(s.outcomes())
            via = projector(s.all_on, big)(outcome)
            direct = tuple(outcome[p] for p in small)
            assert projector(big, small)(via) == direct
            assert projector(s.all_on, small)(outcome) == direct


class TestCylinder:
    def test_exam_skip_fail_row(self, exam):
        s = exam.schema
        event = cylinder(s, {"F.class": "N", "F.exam": "F"})
        assert len(event) == 4
        for outcome in event:
            assert tuple(s.coords[p].labels[outcome[p]] for p in (0, 1)) == ("N", "F")

    def test_empty_assignment_is_everything(self, exam):
        assert cylinder(exam.schema, {}) == exam.schema.outcome_set()
        assert len(cylinder(exam.schema, {})) == 16

    def test_total_assignment_is_singleton(self, exam):
        event = cylinder(exam.schema, {
            "F.class": "Y", "F.exam": "P", "CF.class": "Y", "CF.exam": "P"})
        assert event == frozenset({(0, 0, 0, 0)})

    def test_unknown_coordinate_and_label(self, exam):
        with pytest.raises(SchemaError):
            cylinder(exam.schema, {"F.grade": "A"})
        with pytest.raises(SchemaError):
            cylinder(exam.schema, {"F.class": "Q"})

    def test_intersection_rule(self, exam):
        s = exam.schema
        a = cylinder(s, {"F.class": "Y"})
        b = cylinder(s, {"F.exam": "P", "CF.class": "N"})
        assert a & b == cylinder(s, {"F.class": "Y", "F.exam": "P", "CF.class": "N"})
        # conflicting assignments on a shared key intersect to nothing
        c = cylinder(s, {"F.class": "N"})
        assert a & c == frozenset()


class TestAtoms:
    def test_exam_factual_rows(self, exam):
        blocks = atoms_of(exam.schema, exam.schema.world_positions("F"))
        assert len(blocks) == 4
        assert all(len(b) == 4 for b in blocks)

    def test_empty_set_single_block(self, exam):
        assert atoms_of(exam.schema, frozenset()) == (exam.schema.outcome_set(),)

    def test_full_set_singletons(self, exam):
        blocks = atoms_of(exam.schema, exam.schema.all_positions)
        assert len(blocks) == 16
        assert all(len(b) == 1 for b in blocks)

    def test_blocks_partition(self):
        s = three_bits()
        for size in range(4):
            for combo in itertools.combinations(range(3), size):
                blocks = atoms_of(s, frozenset(combo))
                union = frozenset().union(*blocks)
                assert union == s.outcome_set()
                assert sum(len(b) for b in blocks) == s.n_outcomes


# Labels beyond the generators' digits: non-ASCII, several digits, a leading zero.
LABEL_POOL = ("0", "1", "10", "07", "é", "ß", "λ0", "a_b", "Ω")


def relabelled(rng, schema):
    """`schema` with each coordinate's labels drawn from LABEL_POOL and a
    non-ASCII world name."""
    return SpaceSchema(Coordinate(c.world + "é", c.name, tuple(rng.sample(LABEL_POOL, len(c.labels))))
                       for c in schema.coords)


@pytest.mark.parametrize("seed", range(12))
def test_the_name_tables_agree_with_the_formulas_they_replace(seed):
    rng = random.Random(seed)
    base = random_schema(rng, n_worlds=rng.choice((1, 2, 3)), mirrored=rng.random() < 0.5)
    for s in (base, relabelled(rng, base)):
        for p, c in enumerate(s.coords):
            assert s.label_maps[p] == {lab: i for i, lab in enumerate(c.labels)}
            assert s.label_texts[p] == tuple(f"{c.key}={lab}" for lab in c.labels)
            for i, lab in enumerate(c.labels):
                assert s.label_index(p, lab) == c.labels.index(lab) == i
                assert s.label_index(p, i) == i
            for bad in ("zz", c.labels[0] + "x", None, []):
                with pytest.raises(SchemaError, match=f"^unknown label {re.escape(repr(bad))} "
                                                      f"for coordinate {re.escape(c.key)}$"):
                    s.label_index(p, bad)
        for size in range(len(s.coords) + 1):
            for S in map(frozenset, itertools.combinations(range(len(s.coords)), size)):
                assert s.describe_set(S) == "{" + ", ".join(s.coords[p].key for p in sorted(S)) + "}"
                for row in s.rows(S):
                    assert s.describe_row(S, row) == "(" + ", ".join(
                        f"{s.coords[p].key}={s.coords[p].labels[v]}"
                        for p, v in zip(sorted(S), row)) + ")"


class TestRequireEvent:
    def test_first_bad_member_is_named(self):
        s = two_by_two()
        s.require_event(frozenset(s.outcomes()))
        with pytest.raises(SchemaError) as err:
            s.require_event([(0, 1), (0, 2), (1, 1), (5,)])
        assert str(err.value) == "event member (0, 2) does not conform to the schema"


class TestMeasurability:
    def test_cylinder_on_own_base(self, exam):
        s = exam.schema
        a = cylinder(s, {"F.class": "Y"})
        assert is_measurable_wrt(s, a, {s.position("F.class")})

    def test_singleton_not_trivially_measurable(self):
        s = two_by_two()
        assert not is_measurable_wrt(s, frozenset({(0, 0)}), frozenset())

    def test_trivial_sigma_algebra_members(self):
        # the empty coordinate set measures exactly the two trivial events
        s = two_by_two()
        members = [
            frozenset(event)
            for r in range(s.n_outcomes + 1)
            for event in itertools.combinations(s.outcomes(), r)
            if is_measurable_wrt(s, frozenset(event), frozenset())
        ]
        assert members == [frozenset(), s.outcome_set()]

    def test_against_pair_closure_oracle(self):
        # brute force: A is measurable iff membership only depends on the
        # projection, quantified over all outcome pairs
        rng = random.Random(21)
        s = two_by_two()
        for _ in range(60):
            A = frozenset(o for o in s.outcomes() if rng.random() < 0.5)
            S = frozenset(p for p in range(2) if rng.random() < 0.5)
            brute = all(
                (o2 in A) == (o1 in A)
                for o1 in A
                for o2 in s.outcomes()
                if all(o1[p] == o2[p] for p in S)
            )
            assert is_measurable_wrt(s, A, S) == brute

    def test_union_of_atoms_characterisation(self):
        # every subset of a 2x2x2 space: measurable iff a union of atoms
        s = three_bits()
        for combo_size in range(4):
            for combo in itertools.combinations(range(3), combo_size):
                S = frozenset(combo)
                blocks = atoms_of(s, S)
                unions = set()
                for r in range(len(blocks) + 1):
                    for chosen in itertools.combinations(blocks, r):
                        unions.add(frozenset().union(*chosen) if chosen else frozenset())
                for r in range(s.n_outcomes + 1):
                    for event in itertools.combinations(s.outcomes(), r):
                        A = frozenset(event)
                        assert is_measurable_wrt(s, A, S) == (A in unions)


# -- the size budget ------------------------------------------------------------


def wide():
    """12 binary components in each of two worlds: 2^24 outcomes."""
    return SpaceSchema([Coordinate(w, f"c{i}", ("a", "b")) for w in ("F", "CF") for i in range(12)])


A, B = (0,) * 24, (1,) * 24  # all-a and all-b


def named(s, m, world="F"):
    """The event that the first m components, from `world` on, are all a."""
    order = [f"{w}.c{i}" for w in (world, "CF" if world == "F" else "F") for i in range(12)]
    return cylinder(s, dict.fromkeys(order[:m], "a"))


def foreign():
    """Half the outcomes of a schema of the same shape as `wide` but other
    labels: to another schema it is a plain set, listed member by member."""
    other = SpaceSchema([Coordinate(w, f"c{i}", ("x", "y")) for w in ("F", "CF") for i in range(12)])
    return cylinder(other, {"F.c0": "x"})


# (id, a call that lists rows of the wide schema, how many)
LISTINGS = [
    ("outcomes", lambda s: s.outcomes(), 2 ** 24),
    ("outcome_set", lambda s: s.outcome_set(), 2 ** 24),
    ("rows", lambda s: s.rows(range(21)), 2 ** 21),
    ("margin-uniform", lambda s: Margin.uniform(s, range(22)), 2 ** 22),
    ("measure-uniform", lambda s: Measure.uniform(s), 2 ** 24),
    ("atoms_of", lambda s: atoms_of(s, {0}), 2 ** 24),
    ("cylinder", lambda s: frozenset(cylinder(s, {"F.c0": "a", "CF.c0": "b"})), 2 ** 22),
    ("require_event", lambda s: s.require_event(foreign()), 2 ** 23),
    ("is_measurable_wrt", lambda s: is_measurable_wrt(s, foreign(), {0}), 2 ** 23),
    ("prob", lambda s: Measure(s, {A: 1}).prob(foreign()), 2 ** 23),
    ("event-hash", lambda s: hash(cylinder(s, {"F.c0": "a"})), 2 ** 23),
    ("complement", lambda s: named(s, 21).complement(), 2 ** 21),
    ("union", lambda s: named(s, 21) | cylinder(s, {"CF.c11": "a"}), 2 ** 21),
    ("join", lambda s: named(s, 11).complement() & named(s, 11, "CF").complement(),
     (2 ** 11 - 1) ** 2),
    ("missing_rows", lambda s: Kernel(s, range(21), {A[:21]: Measure(s, {A: 1})}).missing_rows(),
     2 ** 21),
]


@pytest.mark.parametrize("listing, count", [c[1:] for c in LISTINGS], ids=[c[0] for c in LISTINGS])
def test_a_listing_over_the_budget_is_refused_before_it_starts(listing, count):
    s = wide()
    start = time.process_time()
    with pytest.raises(SchemaError) as refused:
        listing(s)
    assert str(refused.value) == f"{count} rows to list, beyond the budget of {MAX_OUTCOMES}"
    assert time.process_time() - start < 1


def test_events_on_a_space_over_the_budget_are_read_off_their_rows():
    s = wide()
    start = time.process_time()
    P = Measure(s, {A: Fraction(1, 2), B: Fraction(1, 2)})
    a = cylinder(s, {"F.c0": "a"})
    assert s.require_event({A}).rows == {A} and s.require_event(a) is a
    assert len(a) == 2 ** 23 and A in a and B not in a and (0,) * 23 not in a
    assert Measure(s, {A: 1}).prob({A}) == 1 and P.prob(a) == P.prob({A}) == Fraction(1, 2)
    assert P.condition(a) == Measure(s, {A: 1}) and P.prob(a.complement() | a) == 1
    assert not is_measurable_wrt(s, {A}, {0}) and is_measurable_wrt(s, a, {0, 1})
    assert not is_measurable_wrt(s, a, {1})
    # a join over all 24 coordinates lists one row
    assert P.prob(named(s, 21) & a & named(s, 24, "CF")) == Fraction(1, 2)
    assert time.process_time() - start < 1


def test_a_space_over_the_budget_is_built_and_read_off_its_support():
    s = wide()
    assert s.n_outcomes == 2 ** 24
    P = Measure(s, {A: Fraction(1, 2), B: Fraction(1, 2)})
    F, CF = s.world_positions("F"), s.world_positions("CF")
    assert synchronized(P, F, CF) and not independent_sigmas(P, {0}, {12})
    k = Kernel(s, range(21), {A[:21]: P})
    assert not k.is_total() and k.has_row(A[:21])
    assert cylinder(s, {f"F.c{i}": "a" for i in range(3)} | {f"CF.c{i}": "b" for i in range(12)}) \
        == frozenset(itertools.product(*([(0,)] * 3 + [(0, 1)] * 9 + [(1,)] * 12)))
