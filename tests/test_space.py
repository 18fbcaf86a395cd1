import itertools
import random

import pytest

from cfspaces import (
    Coordinate,
    SchemaError,
    SpaceSchema,
    atoms_of,
    cylinder,
    is_measurable_wrt,
    project,
)


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
        coords = [Coordinate("W", f"c{i}", ("0", "1")) for i in range(21)]
        with pytest.raises(SchemaError):
            SpaceSchema(coords)

    def test_worlds_in_declaration_order(self, exam):
        assert exam.schema.worlds == ("F", "CF")

    def test_position_lookup(self, exam):
        s = exam.schema
        assert s.position("F.class") == 0
        assert s.position(("CF", "exam")) == 3
        with pytest.raises(SchemaError):
            s.position("F.nope")

    def test_outcomes_canonical_order(self):
        s = two_by_two()
        assert s.outcomes() == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestProject:
    def test_dormant_example(self):
        # the joint-intervention kernel domain: (0,0,0) restricted to the
        # first two components
        assert project((0, 0, 0), {0, 1}) == (0, 0)

    def test_full_projection_is_identity(self):
        s = three_bits()
        for outcome in s.outcomes():
            assert project(outcome, s.all_positions) == outcome

    def test_empty_projection(self):
        assert project((1, 0, 1), frozenset()) == ()

    def test_composition(self):
        rng = random.Random(7)
        s = three_bits()
        for _ in range(50):
            big = frozenset(p for p in range(3) if rng.random() < 0.7)
            small = frozenset(p for p in big if rng.random() < 0.5)
            outcome = rng.choice(s.outcomes())
            via = project(outcome, big)
            pos = sorted(big)
            direct = tuple(via[pos.index(p)] for p in sorted(small))
            assert project(outcome, small) == direct


class TestCylinder:
    def test_exam_skip_fail_row(self, exam):
        s = exam.schema
        event = cylinder(s, {"F.class": "N", "F.exam": "F"})
        assert len(event) == 4
        for outcome in event:
            assert s.labels_of(outcome)[:2] == ("N", "F")

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
                if project(o1, S) == project(o2, S)
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
