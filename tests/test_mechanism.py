import itertools
import random
import re
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import cfspaces.mechanism
from cfspaces import (
    AxiomViolation,
    CfSpace,
    Coordinate,
    DerivationNote,
    DerivationReport,
    EffectVerdict,
    Kernel,
    Margin,
    Measure,
    Mechanism,
    MissingKernelError,
    SCMModel,
    SchemaError,
    SpaceSchema,
    StructuralEq,
    as_equal,
    as_equal_given,
    causal_independent,
    causal_sync,
    causally_equal,
    check_axioms,
    classify_effect,
    classify_event,
    compile_scm,
    conditional_active_effect,
    cylinder,
    global_source,
    independent,
    independent_given_sigma,
    intervene,
    is_measurable_wrt,
    is_source,
    parse_scm,
    synchronized,
    verify_fundamental,
)
from cfspaces.measure import ConditioningUndefinedError

from conftest import chain_scm
from randspaces import random_cf_space, random_margin


def copies_model(n):
    """Vi = Ui for i < n, over n independent fair binary noise variables."""
    ident = {(u,): u for u in "01"}
    return SCMModel(
        [(f"U{i}", ("0", "1")) for i in range(n)],
        {u: Fraction(1, 2 ** n) for u in itertools.product("01", repeat=n)},
        [(f"V{i}", ("0", "1")) for i in range(n)],
        {f"V{i}": StructuralEq(f"V{i}", (), (f"U{i}",), ident) for i in range(n)})


def tampered_empty_kernel(space):
    """A mechanism whose trivial kernel disagrees with P at one outcome."""
    outcomes = sorted(space.P.support())
    a, b = outcomes[0], outcomes[1]
    w = space.P.as_dict()
    shift = w[a] / 2
    w[a] -= shift
    w[b] = w.get(b, Fraction(0)) + shift
    fake = Measure(space.schema, w)
    mech = Mechanism(space.schema, fake)  # empty kernel now maps to `fake`
    return CfSpace(space.schema, space.P, mech)


def kernel_on_a(n_labels, rows):
    """A uniform law on W.a (n_labels labels) x W.b (two labels) with a
    kernel on {W.a} holding only `rows`, a map from a's label index to a
    row measure (a function of the schema and P)."""
    schema = SpaceSchema([Coordinate("W", "a", tuple(str(i) for i in range(n_labels))),
                          Coordinate("W", "b", ("0", "1"))])
    P = Measure.uniform(schema)
    kernel = Kernel(schema, {0}, {(i,): m(schema, P) for i, m in rows.items()})
    return CfSpace(schema, P, Mechanism(schema, P, [kernel]))


def conditioned(schema, P, i):
    return P.condition(cylinder(schema, {"W.a": i}))


def conditioned_on(i):
    return lambda schema, P: conditioned(schema, P, i)


def spread(schema, P):
    """A row that ignores its own value: interventional determinism fails."""
    return P


class TestCheckAxioms:
    def test_dormant_fixture_clean(self, dormant):
        assert check_axioms(dormant).ok

    def test_exam_fixture_clean(self, exam, exam_cycle):
        assert check_axioms(exam).ok
        assert check_axioms(exam_cycle).ok

    def test_tampered_trivial_kernel(self, dormant):
        report = check_axioms(tampered_empty_kernel(dormant))
        assert [v.axiom for v in report.violations] == ["trivial-intervention"]

    def test_trivial_intervention_walks_the_supports_only(self, monkeypatch):
        schema = SpaceSchema([Coordinate("W", c, ("0", "1", "2")) for c in "ab"])
        half = Fraction(1, 2)
        P = Measure(schema, {(0, 1): half, (2, 2): half})
        fake = Measure(schema, {(0, 1): half, (1, 0): Fraction(1, 4), (2, 2): Fraction(1, 4)})
        space = CfSpace(schema, P, Mechanism(schema, fake))

        def outcomes(self):
            raise AssertionError("check_axioms enumerated the outcome space")

        monkeypatch.setattr(SpaceSchema, "outcomes", outcomes)
        report = check_axioms(space)
        assert report.violations == (AxiomViolation(
            "trivial-intervention", frozenset(), (), (1, 0),
            "K_empty((1, 0)) = 1/4 != P((1, 0)) = 0"),)

    def test_tampered_support(self, exam):
        # move mass onto an outcome that contradicts the intervened value
        s = exam.schema
        k = exam.mech.get(s.positions(["CF.class"]))
        w = k.rows[(0,)].as_dict()
        giver = next(o for o, q in sorted(w.items()) if q >= Fraction(1, 100))
        bad = (0, 0, 1, 0)  # CF.class = N under the CF.class = Y row
        w[giver] -= Fraction(1, 100)
        w[bad] = w.get(bad, Fraction(0)) + Fraction(1, 100)
        tampered = Kernel(s, k.on, {(0,): Measure(s, w), (1,): k.rows[(1,)]})
        space = CfSpace(s, exam.P, Mechanism(s, exam.P, [tampered]))
        report = check_axioms(space)
        assert any(
            v.axiom == "interventional-determinism" and v.outcome == bad
            for v in report.violations)

    def test_probability_space_has_nothing_to_check(self, star):
        assert check_axioms(star).ok


class TestIntervene:
    def test_exam_forced_attendance(self, exam):
        s = exam.schema
        u = s.positions(["CF.class"])
        do_y = intervene(exam, u, Margin.point(s, {"CF.class": "Y"}))
        assert do_y.P.prob(cylinder(s, {"CF.exam": "P"})) == Fraction(16, 25)
        # a point-mass intervention measure reproduces the kernel row
        assert do_y.P == exam.mech.get(u).rows[(0,)]
        assert check_axioms(do_y).ok

    def test_exam_forced_absence(self, exam):
        s = exam.schema
        do_n = intervene(exam, s.positions(["CF.class"]),
                         Margin.point(s, {"CF.class": "N"}))
        assert do_n.P.prob(cylinder(s, {"CF.exam": "P"})) == Fraction(3, 5)

    def test_trivial_intervention_is_identity(self, dormant):
        new = intervene(dormant, frozenset(), Margin(dormant.schema, (), {(): 1}))
        assert new.P == dormant.P
        for S in dormant.mech.keys():
            assert new.mech.get(S).rows == dormant.mech.get(S).rows

    def test_missing_kernel(self, exam, star):
        with pytest.raises(MissingKernelError):
            intervene(exam, exam.schema.positions(["F.class"]),
                      Margin.point(exam.schema, {"F.class": "Y"}))
        with pytest.raises(MissingKernelError):
            intervene(star, star.schema.positions(["CF.sky"]),
                      Margin.point(star.schema, {"CF.sky": "C"}))

    def test_missing_row_blocks_positive_mass(self, exam_cycle):
        # the pass-forcing kernel has no fail row, so only point masses on
        # pass are derivable
        s = exam_cycle.schema
        u = s.positions(["CF.exam"])
        intervene(exam_cycle, u, Margin.point(s, {"CF.exam": "P"}))
        with pytest.raises(MissingKernelError):
            intervene(exam_cycle, u, Margin.uniform(s, u))

    def test_derivation_report(self, exam, exam_cycle):
        s = exam.schema
        new = intervene(exam, s.positions(["CF.class"]),
                        Margin.point(s, {"CF.class": "Y"}))
        assert new.derivation.derived == (frozenset(), s.positions(["CF.class"]))
        assert new.derivation.dropped == ()
        # forcing the exam result cannot re-derive the class kernel: that
        # would need the absent joint kernel on class and exam
        u = s.positions(["CF.exam"])
        new2 = intervene(exam_cycle, u, Margin.point(s, {"CF.exam": "P"}))
        dropped = {note.S: note.needs for note in new2.derivation.dropped}
        assert dropped[s.positions(["CF.class"])] == s.positions(["CF.class", "CF.exam"])
        assert s.positions(["CF.class"]) not in new2.mech

    def test_interventions_compose(self, exam):
        s = exam.schema
        u = s.positions(["CF.class"])
        once = intervene(exam, u, Margin.point(s, {"CF.class": "Y"}))
        twice = intervene(once, u, Margin.point(s, {"CF.class": "N"}))
        # the re-derived kernel equals the original, so the second
        # intervention reproduces the direct one
        direct = intervene(exam, u, Margin.point(s, {"CF.class": "N"}))
        assert twice.P == direct.P


class TestLazyIntervention:
    @pytest.fixture
    def work(self, monkeypatch):
        """Counts of kernels built (checked or not), mixtures and model
        solves (one per noise row)."""
        counts = {"kernels": 0, "mixtures": 0, "solves": 0}
        init, of = Kernel.__init__, Kernel._of.__func__
        mix, evaluate = Measure._mix.__func__, SCMModel._evaluate

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(Kernel, "__init__", counting("kernels", init))
        monkeypatch.setattr(Kernel, "_of", classmethod(counting("kernels", of)))
        monkeypatch.setattr(Measure, "_mix", classmethod(counting("mixtures", mix)))
        monkeypatch.setattr(SCMModel, "_evaluate", counting("solves", evaluate))
        return counts

    def test_kernels_are_built_when_read(self, work):
        space = compile_scm(copies_model(3))
        assert work["kernels"] == 1  # the empty kernel only
        assert len(space.mech.keys()) == 64 and space.mech.is_total()
        assert space.derivation is None and repr(space)
        assert work["kernels"] == 1  # nothing scans a compiled mechanism's kernels
        assert {1, 4} in space.mech and work["kernels"] == 2
        k14 = space.mech.get({1, 4})
        assert space.mech.get({1, 4}) is k14 and work["kernels"] == 2
        assert space.mech.get({0}).on == {0} and work["kernels"] == 3
        u = frozenset({4})
        new = intervene(space, u, Margin.uniform(space.schema, u))
        assert work["mixtures"] == 1  # the new measure only
        assert work["kernels"] == 5  # the kernel on U, and the derived one on () holding P
        assert len(new.derivation.derived) == 64 and new.mech.is_total() and repr(new)
        assert work["mixtures"] == 1 and work["kernels"] == 5  # the scan builds nothing
        assert new.mech.get(()).rows[()] is new.P
        assert work["mixtures"] == 1 and work["kernels"] == 5  # nothing is mixed twice
        assert new.mech.get({1, 4}) is k14  # carried over
        assert {1} in new.mech
        k = new.mech.get({1})
        assert work["mixtures"] == 1 + len(k.rows)  # one mixture per row
        assert new.mech.get({1}) is k
        assert work["mixtures"] == 1 + len(k.rows)
        assert check_axioms(new).ok
        # one mixture per row of the 32 keys that miss U, P the row on ():
        # 3**5 rows; kernels: the parent's on (), on {0} and on the 32 keys
        # that hold U, and the 32 derived ones
        assert work["mixtures"] == 3 ** 5 and work["kernels"] == 2 + 32 + 32

    def test_a_chain_builds_only_the_kernels_its_read_needs(self, work):
        space = compile_scm(copies_model(3))
        s = space.schema
        once = intervene(space, {4}, Margin.uniform(s, {4}))
        twice = intervene(once, {5}, Margin.uniform(s, {5}))
        kernels, mixtures = work["kernels"], work["mixtures"]
        k = twice.mech.get({1})
        # the compiled kernel on {1, 4, 5}, the one on {1, 5} derived from it, and k
        assert work["kernels"] == kernels + 3
        assert work["mixtures"] == mixtures + len(once.mech.get({1, 5}).rows) + len(k.rows)
        assert work["kernels"] == kernels + 3  # the kernel on {1, 5} was read from the cache

    def test_each_intervention_mixes_its_measure_once(self, work, exam):
        # the new measure is the derived kernel on (): reading that kernel,
        # as check_axioms does, mixes nothing more, and neither does the
        # next intervention, which reads the kernel on U
        u = exam.schema.positions(["CF.class"])
        space = exam
        for i in (1, 2):
            space = intervene(space, u, Margin.uniform(exam.schema, u))
            assert check_axioms(space).ok and work["mixtures"] == i
            assert space.mech.get(()).rows[()] is space.P

    def test_an_eight_variable_chain_builds_what_it_reads(self, work):
        # X_i = X_{i-1} xor U_i over 8 fair coins: 65,536 outcomes, 4^8 kernels
        n = 8
        xor = {(a, b): str(int(a) ^ int(b)) for a in "01" for b in "01"}
        eqs = {"X0": StructuralEq("X0", (), ("U0",), {(u,): u for u in "01"})}
        eqs.update({f"X{i}": StructuralEq(f"X{i}", (f"X{i - 1}",), (f"U{i}",), xor)
                    for i in range(1, n)})
        model = SCMModel(
            [(f"U{i}", ("0", "1")) for i in range(n)],
            {u: Fraction(1, 2 ** n) for u in itertools.product("01", repeat=n)},
            [(f"X{i}", ("0", "1")) for i in range(n)], eqs)
        space = compile_scm(model)
        assert work == {"kernels": 1, "mixtures": 0, "solves": 2 ** n}
        s = space.schema
        U = s.positions(["CF.X4"])
        new = intervene(space, U, Margin.uniform(s, U))
        # the last variables agree in both worlds only as often as the
        # re-drawn CF.X4 agrees with F.X4
        assert new.P.prob(cylinder(s, {"F.X7": "1", "CF.X7": "1"})) == Fraction(1, 4)
        assert space.P.prob(cylinder(s, {"F.X7": "1", "CF.X7": "1"})) == Fraction(1, 2)
        # the kernel on U: one sub-model per forced label, solved per noise row
        # and the derived kernel on (), whose row is the new measure
        assert work == {"kernels": 3, "mixtures": 1, "solves": 3 * 2 ** n}
        k = new.mech.get(s.positions(["F.X0"]))
        assert k.measure((1,)).prob(cylinder(s, {"F.X7": "1"})) == Fraction(1, 2)
        # the parent's kernel on {F.X0, CF.X4} and the derived one
        assert work == {"kernels": 5, "mixtures": 1 + 2, "solves": 5 * 2 ** n}
        assert repr(new) and work["kernels"] == 5

    def test_a_twelve_variable_chain_is_read_off_its_support(self):
        # X_i = X_{i-1} xor U_i over 12 fair coins: 2^24 outcomes, over the
        # budget.  It compiles and intervenes, the procedures that read the
        # support answer, events are read off their rows, and every listing
        # is refused before it starts.
        n = 12
        xor = {(a, b): str(int(a) ^ int(b)) for a in "01" for b in "01"}
        eqs = {"X0": StructuralEq("X0", (), ("U0",), {(u,): u for u in "01"})}
        eqs.update({f"X{i}": StructuralEq(f"X{i}", (f"X{i - 1}",), (f"U{i}",), xor)
                    for i in range(1, n)})
        space = compile_scm(SCMModel(
            [(f"U{i}", ("0", "1")) for i in range(n)],
            {u: Fraction(1, 2 ** n) for u in itertools.product("01", repeat=n)},
            [(f"X{i}", ("0", "1")) for i in range(n)], eqs))
        s = space.schema
        F, CF, U = s.world_positions("F"), s.world_positions("CF"), s.positions(["CF.X6"])
        new = intervene(space, U, Margin.uniform(s, U))
        assert s.n_outcomes == 2 ** 24 and synchronized(space.P, F, CF)
        assert not synchronized(new.P, F, CF)
        assert global_source(new, U) and not global_source(space, U)
        # all zeros: every U_i = 0 and the re-drawn CF.X6 = 0
        assert new.P.prob({(0,) * 24}) == Fraction(1, 2 ** 13)
        assert new.P.prob(cylinder(s, {"F.X0": "1", "CF.X11": "1"})) == Fraction(1, 4)
        refusals = [(s.outcomes, 2 ** 24), (lambda: check_axioms(space), 3 ** 24),
                    (new.mech.keys, 3 ** 24)]
        for call, count in refusals:
            start = time.process_time()
            with pytest.raises(SchemaError,
                               match=f"^{count} rows to list, beyond the budget of 1048576$"):
                call()
            assert time.process_time() - start < 1

    def test_totality_is_counted_not_listed(self, monkeypatch):
        space = compile_scm(parse_scm(chain_scm(3))[0])
        kernels = space.mech.kernels()  # keys() has listed the layout
        calls = self.calls_to(monkeypatch, "rows")
        assert all(k.is_total() for k in kernels) and space.mech.is_total()
        assert calls == []

    @staticmethod
    def calls_to(monkeypatch, name) -> list:
        """The argument tuples of every later call to SpaceSchema.<name>."""
        calls, fn = [], getattr(SpaceSchema, name)
        monkeypatch.setattr(SpaceSchema, name, lambda *args: calls.append(args) or fn(*args))
        return calls

    def test_forcing_a_compiled_family_checks_no_row_again(self, work, monkeypatch):
        space = compile_scm(parse_scm(chain_scm(3))[0])
        calls = self.calls_to(monkeypatch, "require_rows")
        assert len(space.mech.kernels()) == 64 and work["kernels"] == 64
        assert calls == []  # the builder's rows are the schema's by construction

    def test_a_compiled_layout_is_listed_once(self, monkeypatch):
        space = compile_scm(parse_scm(chain_scm(3))[0])
        calls = self.calls_to(monkeypatch, "rows")
        for _ in range(3):
            assert len(space.mech.keys()) == 64
        assert len(calls) == 64  # one per key, not 3 * 64

    def test_long_chains_need_no_deep_recursion(self):
        space = compile_scm(copies_model(2))
        s = space.schema
        for i in range(1200):
            U = frozenset({2 + i % 2})
            space = intervene(space, U, Margin.uniform(s, U))
        # the kernels on the factual coordinates were never built on the way
        assert space.derivation.dropped == () and check_axioms(space).ok


class TestDerivationWork:
    """An intervened family costs only its rows: a total source kernel's
    derived rows are read off the schema without a mixing plan, and a
    derived row that mixes one parent row is that row, shared."""

    @staticmethod
    def laws(s, U):
        return {"point": Margin.point(s, {"F.X0": "1", "CF.X2": "0"}),
                "uniform": Margin.uniform(s, U),
                "table": Margin(s, U, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3),
                                       (1, 1): Fraction(1, 6)})}

    @pytest.mark.parametrize("law", ["point", "uniform", "table"])
    def test_a_total_source_is_scanned_without_a_plan(self, monkeypatch, law):
        space = compile_scm(parse_scm(chain_scm(3))[0])
        s = space.schema
        U = s.positions(["F.X0", "CF.X2"])
        new = intervene(space, U, self.laws(s, U)[law])
        plans, plan = [], cfspaces.mechanism._mixing_plan
        monkeypatch.setattr(cfspaces.mechanism, "_mixing_plan",
                            lambda *args: plans.append(args) or plan(*args))
        keys = new.mech.keys()
        assert new.derivation == DerivationReport(keys, ())
        assert len(keys) == 4 ** 3 and new.mech.is_total()
        assert plans == []

    def test_a_point_law_derives_the_parents_rows(self, monkeypatch):
        space = compile_scm(parse_scm(chain_scm(3))[0])
        s = space.schema
        U = s.positions(["F.X0", "CF.X2"])
        point = {s.position("F.X0"): 1, s.position("CF.X2"): 0}
        mixes, mix = [], Measure._mix.__func__
        monkeypatch.setattr(Measure, "_mix",
                            classmethod(lambda cls, *args: mixes.append(args) or mix(cls, *args)))
        kernels = intervene(space, U, self.laws(s, U)["point"]).mech.kernels()
        assert len(kernels) == 4 ** 3 and mixes == []
        shared = 0
        for k in kernels:
            if U <= k.on:
                assert k is space.mech.get(k.on)  # carried over
                continue
            W = sorted(k.on | U)
            parent = space.mech.get(W)
            for row, m in k.rows.items():
                merged = {**point, **dict(zip(sorted(k.on), row))}
                assert m is parent.rows[tuple(merged[p] for p in W)]
                shared += 1
        assert shared == 3 ** 6 - 2 ** 2 * 3 ** 4  # every row but those of the 16 keys holding U

    @pytest.mark.parametrize("label, layout, dropped", [
        ("0", {(): [()], (0,): [(0,), (1,)], (1,): [(0,)], (0, 1): [(0, 0)]}, ()),
        ("1", {(): [()], (0,): [(0,), (1,)], (0, 1): [(0, 0)]},
         (DerivationNote(frozenset({1}), (0,), frozenset({0, 1})),
          DerivationNote(frozenset({1}), None, frozenset({0, 1})))),
        ("uniform", {(): [()], (0,): [(0,), (1,)], (0, 1): [(0, 0)]},
         (DerivationNote(frozenset({1}), (0,), frozenset({0, 1})),
          DerivationNote(frozenset({1}), None, frozenset({0, 1})))),
    ])
    def test_a_row_partial_source_still_plans_and_drops(self, dormant, label, layout, dropped):
        # the kernel on {W.c1, W.c2} has one of its four rows
        s = dormant.schema
        U = s.positions(["W.c1"])
        Q = Margin.uniform(s, U) if label == "uniform" else Margin.point(s, {"W.c1": label})
        new = intervene(dormant, U, Q)
        got = {tuple(sorted(S)): sorted(rows) for S, rows in new.mech._layout().items()}
        assert got == layout and not new.mech.is_total()
        assert new.derivation == DerivationReport(
            tuple(sorted(map(frozenset, layout), key=lambda S: (len(S), sorted(S)))), dropped)
        assert {tuple(sorted(k.on)): sorted(k.rows) for k in new.mech.kernels()} == layout


S2 = SpaceSchema([Coordinate("W", "a", ("0", "1")), Coordinate("W", "b", ("0", "1"))])
OTHER = SpaceSchema([Coordinate("V", "a", ("0", "1")), Coordinate("V", "b", ("0", "1"))])
P2 = Measure.uniform(S2)


class TestClassifyEffect:
    def test_active_on_second_component(self, dormant):
        s = dormant.schema
        a = cylinder(s, {"W.c3": "0"})
        verdict = classify_effect(dormant, s.positions(["W.c2"]), a)
        assert verdict.tag == "active"
        assert verdict.witness.value == Fraction(1, 4)
        assert verdict.witness.reference == Fraction(1, 2)

    def test_dormant_on_first_component(self, dormant):
        s = dormant.schema
        a = cylinder(s, {"W.c3": "0"})
        verdict = classify_effect(dormant, s.positions(["W.c1"]), a)
        assert verdict.tag == "dormant"
        assert verdict.witness.value == Fraction(1, 8)
        assert verdict.witness.reference == Fraction(1, 4)
        assert verdict.witness.against == s.positions(["W.c2"])

    def test_empty_set_has_no_effect(self, dormant):
        a = cylinder(dormant.schema, {"W.c3": "0"})
        verdict = classify_effect(dormant, frozenset(), a)
        assert verdict.tag == "no_effect"

    def test_absent_kernel_is_undetermined(self, exam):
        s = exam.schema
        a = cylinder(s, {"CF.exam": "P"})
        verdict = classify_effect(exam, s.positions(["F.class"]), a)
        assert verdict.tag == "undetermined"
        assert s.positions(["F.class"]) in verdict.missing

    def test_row_partial_kernel_without_a_witness_is_undetermined(self, dormant):
        # the one row of the kernel on {W.c2} keeps P(W.c1=0) at 1/2
        s = dormant.schema
        u = s.positions(["W.c2"])
        verdict = classify_effect(dormant, u, cylinder(s, {"W.c1": "0"}))
        assert verdict == EffectVerdict("undetermined", missing=(u,))

    def test_no_effect_needs_total_mechanism(self):
        # a total mechanism where one coordinate provably does nothing
        space = random_cf_space(424242, mode="product")
        s = space.schema
        u = s.world_positions(s.worlds[0])
        b = sorted(s.world_positions(s.worlds[1]))[0]
        other_event = cylinder(s, {b: s.coords[b].labels[0]})
        verdict = classify_effect(space, u, other_event)
        # worlds are causally independent, so the other world's marginal
        # never moves: either certified no-effect or a definite dormant
        # witness is impossible
        assert verdict.tag == "no_effect"

    def test_the_event_is_checked_once(self, monkeypatch):
        space = compile_scm(parse_scm(chain_scm(3))[0])
        a = cylinder(space.schema, {"CF.X2": "1"})
        checked = []
        require = SpaceSchema.require_event
        monkeypatch.setattr(SpaceSchema, "require_event",
                            lambda self, A: checked.append(A) or require(self, A))
        # the other world's kernels never move CF.X2: every pair is compared
        assert classify_effect(space, space.schema.positions(["F.X1"]), a).tag == "no_effect"
        assert checked == [a]

    def test_active_and_no_effect_mutually_exclusive(self):
        rng = random.Random(5)
        for i in range(20):
            space = random_cf_space(900 + i)
            s = space.schema
            u = frozenset(p for p in range(len(s.coords)) if rng.random() < 0.5)
            a = frozenset(o for o in s.outcomes() if rng.random() < 0.5)
            verdict = classify_effect(space, u, a)
            if verdict.tag == "no_effect":
                k = space.mech.get(u)
                assert all(m.prob(a) == space.P.prob(a) for m in k.rows.values())


    def test_blocking_keys_come_back_smallest_first_at_most_eight(self):
        # a 3-variable SCM (six coordinates) keeping every kernel off the
        # last coordinate and the kernel on it alone: every S that meets
        # U = {5} is absent, so the scan lists them by size, cut at 8
        u = frozenset({5})
        kept = [frozenset(c) for r in range(6) for c in itertools.combinations(range(5), r)]
        full = compile_scm(copies_model(3))
        space = CfSpace(full.schema, full.P,
                        Mechanism(full.schema, full.P, [full.mech.get(S) for S in kept + [u]]))
        a = cylinder(space.schema, {"F.V0": "1"})
        verdict = classify_effect(space, u, a)
        assert verdict.tag == "undetermined"
        assert verdict.missing == tuple(frozenset(s) for s in [
            {0, 5}, {1, 5}, {2, 5}, {3, 5}, {4, 5}, {0, 1, 5}, {0, 2, 5}, {0, 3, 5}])
        assert classify_effect(full, u, a).tag == "no_effect"

    @staticmethod
    def ab_space(kernels) -> CfSpace:
        """W.a, W.b binary and uniform, with the kernel on {W.a} that spreads
        W.b uniformly and the given kernels as {S: {row: outcomes}}, each
        row uniform on its outcomes."""
        kernels = {frozenset({0}): {(i,): [(i, 0), (i, 1)] for i in (0, 1)}} | kernels
        mech = Mechanism(S2, P2, [
            Kernel(S2, S, {row: Measure(S2, dict.fromkeys(outs, Fraction(1, len(outs))))
                           for row, outs in rows.items()})
            for S, rows in kernels.items()])
        return CfSpace(S2, P2, mech)

    def test_an_absent_partner_kernel_is_passed_over(self):
        # no kernel on {W.b}, the partner of {W.a, W.b} against U = {W.a}
        ab = {(i, j): [(i, j)] for i in (0, 1) for j in (0, 1)}
        space = self.ab_space({frozenset({0, 1}): ab})
        same = frozenset({(0, 0), (1, 1)})  # W.a = W.b
        assert classify_effect(space, {0}, same) == EffectVerdict(
            "undetermined", missing=(frozenset({1}),))

    def test_an_absent_partner_row_is_passed_over(self):
        # the kernel on {W.b} lacks row (0,): the pair's rows (i, 0) are
        # passed over, and row (0, 1) disagrees with the partner's row (1,)
        ab = {(i, j): [(i, j)] for i in (0, 1) for j in (0, 1)}
        space = self.ab_space({frozenset({0, 1}): ab, frozenset({1}): {(1,): [(0, 1), (1, 1)]}})
        verdict = classify_effect(space, {0}, frozenset({(0, 0), (1, 1)}))
        assert verdict.tag == "dormant"
        w = verdict.witness
        assert (w.S, w.row, w.value, w.reference, w.against) == (
            frozenset({0, 1}), (0, 1), 0, Fraction(1, 2), frozenset({1}))


class TestConstructors:
    """The checked constructors refuse what does not fit their schema."""

    @pytest.mark.parametrize("rows, error, message", [
        ({(0,): Measure.uniform(OTHER)}, ValueError,
         "kernel rows must map to measures on the same schema"),
        ({(0,): Margin.uniform(S2, {0})}, ValueError,
         "kernel rows must map to measures on the same schema"),
        ({(0,): P2.as_dict()}, ValueError, "kernel rows must map to measures on the same schema"),
        ({}, ValueError, "kernel has no rows"),
        ({(2,): P2}, SchemaError, "label index 2 out of range for coordinate W.a"),
        ({(0, 0): P2}, SchemaError, "row (0, 0) does not match the coordinates (0,)"),
    ], ids=["another-schema", "a-margin", "a-dict", "no-rows", "index", "size"])
    def test_kernel(self, rows, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Kernel(S2, {0}, rows)

    @pytest.mark.parametrize("P, kernels, message", [
        (P2, [Kernel(OTHER, {0}, {(0,): Measure.uniform(OTHER)})],
         "kernel schema does not match the mechanism schema"),
        (P2, [Kernel(S2, {0}, {(0,): P2}), Kernel(S2, {0}, {(1,): P2})],
         "duplicate kernel for coordinate set [0]"),
        (Measure.uniform(OTHER), [], "kernel rows must map to measures on the same schema"),
        (None, [], "a mechanism needs the observational measure or a kernel on the empty set"),
    ], ids=["another-schema", "duplicate", "measure-on-another-schema", "no-measure"])
    def test_mechanism(self, P, kernels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Mechanism(S2, P, kernels)

    @pytest.mark.parametrize("P, mech, message", [
        (Measure.uniform(OTHER), None, "measure schema does not match the space schema"),
        (P2, Mechanism(OTHER, Measure.uniform(OTHER)),
         "mechanism schema does not match the space schema"),
    ], ids=["measure", "mechanism"])
    def test_space(self, P, mech, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CfSpace(S2, P, mech)

    def test_a_space_without_a_mechanism_has_no_kernel(self):
        with pytest.raises(MissingKernelError, match="^space has no causal mechanism$"):
            CfSpace(S2, P2).kernel({0})

    @pytest.mark.parametrize("Q", [Margin.uniform(S2, {1}), Margin.uniform(OTHER, {0}), P2],
                             ids=["another-set", "another-schema", "every-coordinate"])
    def test_intervene_needs_a_measure_on_the_intervened_coordinates(self, Q):
        space = CfSpace(S2, P2, Mechanism(S2, P2, [Kernel(S2, {0}, {(0,): P2, (1,): P2})]))
        with pytest.raises(ValueError, match="^intervention measure is not a measure "
                                             "on the intervened coordinates$"):
            intervene(space, {0}, Q)


class TestConditionalEffect:
    def test_forced_attendance_after_failure(self, exam):
        s = exam.schema
        a = cylinder(s, {"CF.exam": "P"})
        g = cylinder(s, {"F.class": "N", "F.exam": "F"})
        verdict = conditional_active_effect(exam, s.positions(["CF.class"]), a, g)
        assert verdict.tag == "active"
        assert verdict.baseline == Fraction(3, 17)
        assert verdict.value((0,)) == Fraction(4, 17)

    def test_forced_absence_matches_observation(self, exam):
        s = exam.schema
        a = cylinder(s, {"CF.exam": "P"})
        g = cylinder(s, {"F.class": "N", "F.exam": "F"})
        verdict = conditional_active_effect(exam, s.positions(["CF.class"]), a, g)
        assert verdict.value((1,)) == Fraction(3, 17) == verdict.baseline

    def test_conditioned_on_passing(self, exam):
        s = exam.schema
        a = cylinder(s, {"CF.exam": "P"})
        g = cylinder(s, {"F.exam": "P"})
        verdict = conditional_active_effect(exam, s.positions(["CF.class"]), a, g)
        assert verdict.value((1,)) == Fraction(26, 31)
        assert verdict.value((0,)) == Fraction(55, 62)
        assert verdict.baseline == Fraction(27, 31)

    def test_null_condition_raises(self, exam):
        s = exam.schema
        with pytest.raises(ConditioningUndefinedError):
            conditional_active_effect(
                exam, s.positions(["CF.class"]),
                cylinder(s, {"CF.exam": "P"}), frozenset())


@pytest.fixture(scope="module")
def chain2():
    """The compiled 2-variable chain (16 outcomes, a total mechanism), U =
    {F.X0, CF.X0}, the space with U intervened uniformly, and two events."""
    space = compile_scm(parse_scm(chain_scm(2))[0])
    s = space.schema
    U = s.positions(["F.X0", "CF.X0"])
    return SimpleNamespace(space=space, U=U, done=intervene(space, U, Margin.uniform(s, U)),
                           omega=s.outcome_set(), a=cylinder(s, {"CF.X1": "1"}))


# Every event lift holds at every row and atom here, so no all() stops early.
EVENT_CALLS = [
    ("independent", lambda c: independent(c.space.P, c.omega, c.a), 2),
    ("as_equal", lambda c: as_equal(c.space.P, c.a, c.a), 2),
    ("classify_event", lambda c: classify_event(c.space, c.a).worlds == ("CF",), 1),
    ("conditional_active_effect",  # CF.X1 = CF.X0 xor U1 with fair U1: no row moves it
     lambda c: conditional_active_effect(c.space, c.U, c.a, c.omega).tag == "inactive", 2),
    ("causal_independent", lambda c: causal_independent(c.space, c.U, c.omega, c.a), 2),
    ("causally_equal", lambda c: causally_equal(c.space, c.U, c.a, c.a), 2),
    ("is_source", lambda c: is_source(c.done, c.U, c.a), 1),
    ("independent_given_sigma", lambda c: independent_given_sigma(c.space.P, c.U, c.omega, c.a), 2),
]


class TestOneCheckPerEvent:
    """Each event argument passes `SpaceSchema.require_event` once per call,
    however many kernel rows, atoms or worlds the call reads."""

    @pytest.mark.parametrize("call, count", [c[1:] for c in EVENT_CALLS],
                             ids=[c[0] for c in EVENT_CALLS])
    def test_each_event_is_checked_once_per_call(self, chain2, monkeypatch, call, count):
        assert len(chain2.space.kernel(chain2.U).rows) == 4
        checked = []
        require = SpaceSchema.require_event
        monkeypatch.setattr(SpaceSchema, "require_event",
                            lambda self, A: checked.append(A) or require(self, A))
        assert call(chain2) is True
        assert len(checked) == count

    def test_a_non_outcome_member_is_rejected(self, star, chain2):
        E = {(9, 9, 9, 9)}
        for call in (lambda: as_equal(star.P, E, E),
                     lambda: as_equal_given(star.P, star.schema.outcome_set(), E, E),
                     lambda: causally_equal(chain2.space, chain2.U, E, E)):
            with pytest.raises(SchemaError, match=r"^event member \(9, 9, 9, 9\) does not conform"):
                call()

    def test_an_event_may_be_any_iterable_of_outcomes(self, exam):
        P, s = exam.P, exam.schema
        a = cylinder(s, {"CF.exam": "P"})
        assert P.condition(o for o in a) == P.condition(a)
        assert P.prob(o for o in a) == P.prob(a)
        assert independent(P, (o for o in a), (o for o in a)) == independent(P, a, a)
        assert is_measurable_wrt(s, (o for o in a), s.world_positions("CF"))


class TestCausalRelations:
    def test_cross_world_atoms_always_causally_independent(self):
        # interventional determinism forces independence of events living
        # on the intervened coordinates of different worlds
        space = random_cf_space(777)
        s = space.schema
        f = sorted(s.world_positions("F"))[0]
        c = sorted(s.world_positions("CF"))[0]
        u = frozenset({f, c})
        a = cylinder(s, {f: s.coords[f].labels[0]})
        b = cylinder(s, {c: s.coords[c].labels[0]})
        assert causal_independent(space, u, a, b)

    def test_full_space_always_independent(self, dormant):
        s = dormant.schema
        b = cylinder(s, {"W.c3": "0"})
        assert causal_independent(dormant, s.positions(["W.c1"]), s.outcome_set(), b)

    def test_product_worlds_causally_independent(self):
        space = random_cf_space(31415, mode="product")
        s = space.schema
        rng = random.Random(1)
        u = frozenset(p for p in range(len(s.coords)) if rng.random() < 0.5)
        fa = sorted(s.world_positions("F"))[0]
        cb = sorted(s.world_positions("CF"))[0]
        a = cylinder(s, {fa: s.coords[fa].labels[-1]})
        b = cylinder(s, {cb: s.coords[cb].labels[-1]})
        assert causal_independent(space, u, a, b)

    def test_causally_equal_via_kernel_null_outcomes(self, exam):
        s = exam.schema
        u = s.positions(["CF.class"])
        k = exam.mech.get(u)
        covered = frozenset().union(*(m.support() for m in k.rows.values()))
        null = s.outcome_set() - covered
        a = cylinder(s, {"F.class": "Y"})
        assert causally_equal(exam, u, a, a | null)
        assert not causally_equal(exam, u, a, a ^ covered)

    def test_causal_sync_same_sets(self, exam):
        s = exam.schema
        u = s.positions(["CF.class"])
        assert causal_sync(exam, u, s.positions(["F.exam"]), s.positions(["F.exam"]))

    def test_row_partial_kernel_rejected(self, dormant):
        s = dormant.schema
        a = cylinder(s, {"W.c3": "0"})
        with pytest.raises(MissingKernelError):
            causal_independent(dormant, s.positions(["W.c2"]), a, a)


class TestSources:
    def test_empty_set_is_global_source(self, exam, dormant):
        assert global_source(exam, frozenset())
        assert global_source(dormant, frozenset())

    def test_dormant_second_component_not_a_source(self, dormant):
        s = dormant.schema
        a = cylinder(s, {"W.c3": "0"})
        # the kernel gives 1/4 but conditioning the uniform law gives 1/2
        assert not is_source(dormant, s.positions(["W.c2"]), a)

    def test_intervened_set_becomes_global_source(self, exam):
        s = exam.schema
        u = s.positions(["CF.class"])
        q = Margin(s, u, {(0,): Fraction(2, 3), (1,): Fraction(1, 3)})
        assert global_source(intervene(exam, u, q), u)

    def test_sigma_algebra_target(self, exam):
        s = exam.schema
        u = s.positions(["CF.class"])
        new = intervene(exam, u, Margin.uniform(s, u))
        assert is_source(new, u, s.world_positions("CF"))

    def test_global_source_answers_false(self, exam):
        assert not global_source(exam, exam.schema.positions(["CF.class"]))

    def test_a_failing_scan_conditions_only_the_atoms_it_reaches(self, exam, monkeypatch):
        # the row (CF.class=Y) already differs from P given CF.class=Y
        calls = []
        of = Measure._of

        def counted(cls, schema, on, nums):
            calls.append(nums)
            return of.__func__(cls, schema, on, nums)

        monkeypatch.setattr(Measure, "_of", classmethod(counted))
        assert not global_source(exam, exam.schema.positions(["CF.class"]))
        assert len(calls) == 1

    def test_a_target_of_outcomes_is_an_event_and_any_other_names_coordinates(
            self, exam, monkeypatch):
        s = exam.schema
        u = s.positions(["CF.class"])
        A = cylinder(s, {"CF.exam": "P"})
        T = s.positions(["CF.exam"])
        as_event, as_coords = is_source(exam, u, A), is_source(exam, u, T)
        checked = []
        require = SpaceSchema.require_event
        monkeypatch.setattr(SpaceSchema, "require_event",
                            lambda self, A: checked.append(A) or require(self, A))
        for target in (sorted(A), list(A), (o for o in A), set(A), frozenset(A)):
            assert is_source(exam, u, target) == as_event
        assert len(checked) == 5  # once per call
        for target in ({("CF", "exam")}, [("CF", "exam")], ["CF.exam"], {"CF.exam"},
                       (p for p in T), "CF.exam", sorted(T)[0]):
            assert is_source(exam, u, target) == as_coords
        assert len(checked) == 5  # coordinates are no event
        for target in ([], set(), frozenset(), (o for o in ())):
            assert is_source(exam, u, target) is True

    def test_absent_row_without_a_mismatch_raises(self):
        space = kernel_on_a(2, {1: conditioned_on(1)})
        b = cylinder(space.schema, {"W.b": "1"})
        with pytest.raises(MissingKernelError, match=r"^kernel on \{W\.a\} lacks rows \(W\.a=0\) at P-pos"):
            is_source(space, {0}, b)
        with pytest.raises(MissingKernelError, match=r"^kernel on \{W\.a\} lacks rows \(W\.a=0\) at P-pos"):
            global_source(space, {0})

    def test_a_mismatch_beats_an_absent_row(self, dormant):
        def pin(schema, P):
            return Measure.dirac(schema, (1, 1))

        for space in (kernel_on_a(2, {1: pin}), kernel_on_a(2, {0: pin})):
            b = cylinder(space.schema, {"W.b": "1"})
            assert not is_source(space, {0}, b)
            assert not global_source(space, {0})
        # the mismatching row (W.c2=0) comes before the absent (W.c2=1)
        s = dormant.schema
        assert not global_source(dormant, s.positions(["W.c2"]))


class TestFundamental:
    def test_exam_intervention(self, exam):
        s = exam.schema
        u = s.positions(["CF.class"])
        report = verify_fundamental(exam, u, Margin.point(s, {"CF.class": "Y"}))
        assert report.ok

    def test_trivial_intervention(self, dormant):
        report = verify_fundamental(dormant, frozenset(),
                                    Margin(dormant.schema, (), {(): 1}))
        assert report.ok

    def test_tampered_kernel_lists_absent_and_mismatched_rows_in_order(self):
        # rows 0 and 3 absent, row 1 spreads its mass over every atom, row 2
        # is the conditional; intervening with row 1 makes every atom positive
        space = kernel_on_a(4, {1: spread, 2: conditioned_on(2)})
        report = verify_fundamental(space, {0}, Margin.point(space.schema, {"W.a": "1"}))
        assert not report.ok
        assert report.kernel_mismatches == ()
        assert report.source_mismatches == ((0,), (1,), (3,))

    def test_randomized_suite(self):
        rng = random.Random(2024)
        for i in range(200):
            space = random_cf_space(3000 + i)
            s = space.schema
            u = frozenset(p for p in range(len(s.coords)) if rng.random() < 0.5)
            q = random_margin(rng, s, u, dirac=bool(i % 2))
            assert verify_fundamental(space, u, q).ok
