"""Integer-numerator tables against plain Fraction arithmetic.

A Margin keeps integer numerators over one canonical denominator and
answers in Fractions.  These tests hold every public reading of it to a
reference that sums Fractions directly, check that one law reached by
different routes is one table, and count the Fraction operations of the
whole-family checks and of the .cfs text path, whose documents hold the
same integer tables.
"""

import math
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import cfspaces.measure
from cfspaces import (
    Coordinate,
    Margin,
    Measure,
    SpaceSchema,
    check_cross_world,
    compile_scm,
    doc_from_space,
    is_symmetric,
    parse_scm,
    parse_space,
)
from cfspaces.parser import Table, TokenStream, _rational_value, fraction_text
from cfspaces.query import _build_margin, parse_query
from conftest import chain_scm


def written(q: Fraction, form: str, scale: int):
    """The weight q as a caller may write it."""
    if form == "unreduced":  # "2/4" for 1/2
        return f"{q.numerator * scale * 2}/{q.denominator * scale * 2}"
    if form == "decimal" and 10 ** 6 % q.denominator == 0:
        return Decimal(q.numerator * (10 ** 6 // q.denominator)) / 10 ** 6
    if form == "int" and q.denominator == 1:
        return int(q)
    return q


@st.composite
def schemas(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return SpaceSchema([Coordinate("W", f"c{i}", tuple(str(j) for j in range(k)))
                        for i, k in enumerate(sizes)])


@st.composite
def laws(draw, schema):
    """(weights as written, the same law as nonzero Fractions)."""
    outcomes = schema.outcomes()
    ws = draw(st.lists(st.integers(0, 12), min_size=len(outcomes), max_size=len(outcomes))
              .filter(any))
    scale = draw(st.integers(1, 3))
    written_weights, reference = {}, {}
    for outcome, w in zip(outcomes, ws):
        q = Fraction(w, sum(ws))
        form = draw(st.sampled_from(("fraction", "unreduced", "decimal", "int")))
        written_weights[outcome] = written(q, form, scale)
        if q:
            reference[outcome] = q
    return written_weights, reference


@st.composite
def cases(draw):
    schema = draw(schemas())
    first, second = draw(laws(schema)), draw(laws(schema))
    S = frozenset(draw(st.sets(st.sampled_from(schema.all_on))))
    A = frozenset(draw(st.sets(st.sampled_from(schema.outcomes()))))
    t = Fraction(draw(st.integers(0, 6)), 6)
    return schema, first, second, S, A, t


def reference_marginal(reference: dict, S) -> dict:
    out: dict = {}
    for outcome, q in reference.items():
        row = tuple(outcome[p] for p in sorted(S))
        out[row] = out.get(row, Fraction(0)) + q
    return {row: q for row, q in out.items() if q}


def mixture(schema, parts) -> Measure:
    """sum_i q_i * P_i over (q_i, P_i) pairs whose q_i form a law, mixed by
    `Measure._mix` in proportion to integer weights."""
    den = math.lcm(*(q.denominator for q, _ in parts))
    return Measure._mix(schema, [(q.numerator * (den // q.denominator), m) for q, m in parts if q])


def reference_mixture(t: Fraction, a: dict, b: dict) -> dict:
    out = {o: t * q for o, q in a.items()}
    for o, q in b.items():
        out[o] = out.get(o, Fraction(0)) + (1 - t) * q
    return {o: q for o, q in out.items() if q}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cases())
def test_int_tables_match_fraction_reference(case):
    schema, (written_p, ref_p), (written_r, ref_r), S, A, t = case
    P, R = Measure(schema, written_p), Measure(schema, written_r)
    assert P.as_dict() == ref_p
    assert P.rows() == P.items() == sorted(ref_p.items())
    assert P.values() == [q for _, q in sorted(ref_p.items())] and len(P) == len(ref_p)
    for outcome in schema.outcomes():
        assert P.weight(outcome) == ref_p.get(outcome, 0)
    assert all(type(q) is Fraction for q in P.as_dict().values())
    assert all(type(q) is Fraction for _, q in P.rows())
    assert type(P.weight(schema.outcomes()[0])) is Fraction
    assert P.support() == frozenset(ref_p)
    assert P.marginal(S).as_dict() == reference_marginal(ref_p, S)
    mix = mixture(schema, [(t, P), (1 - t, R)])
    assert mix.as_dict() == reference_mixture(t, ref_p, ref_r)
    p_a = P.prob(A)
    assert type(p_a) is Fraction and p_a == sum((ref_p.get(o, 0) for o in A), Fraction(0))
    if p_a:
        assert P.condition(A).as_dict() == {o: q / p_a for o, q in ref_p.items() if o in A}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cases())
def test_one_law_by_several_routes_is_one_table(case):
    schema, (_, ref_p), (_, ref_r), S, A, t = case
    P = Measure(schema, ref_p)
    routes = [
        Measure(schema, {o: f"{2 * q.numerator}/{2 * q.denominator}" for o, q in ref_p.items()}),
        mixture(schema, [(t, P), (1 - t, P)]),
        Measure(schema, ref_p).marginal(schema.all_on),
        mixture(schema, [(Fraction(1, 2), P), (Fraction(1, 2), P)]).condition(
            schema.outcome_set()),
    ]
    # Conditioning a mixture with a law off supp(P) on supp(P) gives P back.
    off = {o: q for o, q in ref_r.items() if o not in ref_p}
    if off:
        rest = Measure(schema, {o: q / sum(off.values()) for o, q in off.items()})
        routes.append(mixture(schema, [(Fraction(1, 3), P), (Fraction(2, 3), rest)])
                      .condition(P.support()))
    for other in routes:
        assert other == P and hash(other) == hash(P)
    direct = Margin(schema, S, reference_marginal(ref_p, S))
    for other in (P.marginal(S), mixture(schema, [(t, P), (1 - t, P)]).marginal(S)):
        assert other == direct and hash(other) == hash(direct)


def test_whole_family_checks_do_no_fraction_arithmetic(monkeypatch):
    """Forcing the compiled 3-variable chain's kernels, the cross-world check
    and the symmetry check add and multiply integers only."""
    model, _, _ = parse_scm(chain_scm(3))
    space = compile_scm(model)
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        def counted(self, other, _name=name, _orig=getattr(Fraction, name)):
            calls.append(_name)
            return _orig(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 3) + Fraction(1, 3) == Fraction(2, 3) and calls == ["__add__"]
    calls.clear()
    assert len(space.mech.kernels()) == 64
    assert check_cross_world(space).ok
    assert is_symmetric(space).ok
    assert calls == []


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cases(), st.data())
def test_mismatches_match_the_loop_over_every_row(case, data):
    schema, (written_p, ref_p), (written_r, ref_r), S, _, _ = case
    P, R = Measure(schema, written_p), Measure(schema, written_r)
    # an involution on outcomes: swap two coordinates with one label set, or none
    pairs = [(a, b) for a in schema.all_on for b in schema.all_on
             if a < b and schema.coords[a].labels == schema.coords[b].labels]
    perm = list(schema.all_on)
    if pairs:
        a, b = data.draw(st.sampled_from(pairs))
        perm[a], perm[b] = b, a

    def swap(o):
        return tuple(o[p] for p in perm)

    def loop(here, there, rows, f=lambda r: r):
        return [(r, here.get(r, 0), there.get(f(r), 0))
                for r in rows if here.get(r, 0) != there.get(f(r), 0)]

    for other, ref in ((R, ref_r), (P, ref_p)):
        assert list(P.mismatches(other)) == loop(ref_p, ref, schema.outcomes())
        assert list(P.mismatches(other, swap)) == loop(ref_p, ref, schema.outcomes(), swap)
    assert list(P.mismatches(Measure(schema, written_p))) == []
    assert list(P.marginal(S).mismatches(R.marginal(S))) == loop(
        reference_marginal(ref_p, S), reference_marginal(ref_r, S), schema.rows(S))


# -- the .cfs text path ----------------------------------------------------------

# Integers of up to 4,000 digits, under the interpreter's int <-> str limit.
big = st.integers(0, 10 ** 4000)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(big, big, st.integers(1, 10 ** 40))
def test_the_entry_writer_prints_the_reduced_fraction(a, b, factor):
    n, d = sorted((a, b))
    if d == 0:
        n, d = 0, 1
    for n, d in ((n, d), (n * factor, d * factor)):  # a common factor too
        if len(str(d)) <= 4000:
            assert fraction_text(n, d) == str(Fraction(n, d))


def fractions_made(monkeypatch, call):
    """call() and the number of Fractions that it constructs."""
    made = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        result = call()
    return result, made


def test_the_text_path_builds_no_fraction_tables(compiled_chains, monkeypatch):
    """Reading the compiled 3-variable chain constructs no Fraction, building
    its space from the document checks no law in Fractions and calls no
    checked Measure constructor, and writing its document back reads no
    table as Fractions."""
    _rational_value.cache_clear()  # each weight is read, not recalled
    doc, made = fractions_made(monkeypatch, lambda: parse_space(compiled_chains[3]))
    assert made == 0
    _, made = fractions_made(monkeypatch, lambda: Fraction(1, 3))
    assert made == 1  # the counter counts
    calls = []

    def counted(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(cfspaces.measure, "_law")
    counted(Measure, "__init__")
    counted(Margin, "as_dict")
    space = doc.to_space()
    assert len(space.mech.kernels()) == 64
    again = doc_from_space(space, doc.name)
    assert calls == []
    assert again.measure == doc.measure
    assert [dict(k.rows) for k in again.kernels] == [dict(k.rows) for k in doc.kernels]
    Measure(space.schema, space.P.as_dict())  # the counters count
    assert calls == ["as_dict", "__init__", "_law"]


def test_weights_are_reduced_integer_pairs(exam, monkeypatch):
    """A decimal reads as its reduced pair on the whole-table path and on
    the token path, a .cfq weight table becomes its Margin without a
    Fraction, and a 'default = 0', although a truthy pair, is not spread
    over the outcomes it covers."""
    text = ("space s\nworld F { component c { a b } }\n"
            "measure { (F.c=a) = 0.32 (F.c=b) = 0.68 }\n")
    whole = parse_space(text).measure
    with monkeypatch.context() as patch:
        patch.setattr(TokenStream, "match", lambda self, regex, resolve: None)
        assert parse_space(text).measure == whole
    assert (whole._n, whole._d) == ({(0,): 8, (1,): 17}, 25)
    assert _rational_value("0.32") == TokenStream("0.32").rational.read() == (8, 25)

    script = "INTERVENE {CF.class} WITH { (CF.class=Y) = 0.32 (CF.class=N) = 17/25 }\n"
    U = exam.schema.positions(["CF.class"])
    _rational_value.cache_clear()
    margin, made = fractions_made(monkeypatch, lambda: _build_margin(
        exam.schema, U, parse_query(script).statements[0].dist))
    assert made == 0
    assert {exam.schema.describe_row(U, row): q for row, q in margin.rows()} \
        == {"(CF.class=Y)": Fraction(8, 25), "(CF.class=N)": Fraction(17, 25)}

    def unlisted():  # 2^40 outcomes, beyond every budget
        raise AssertionError("a zero default is spread")

    table = Table({(0,): (1, 1)}, (0, 1), 1, 1)
    assert table.law(2 ** 40, unlisted, "measure", "outcomes") == {(0,): 1}
