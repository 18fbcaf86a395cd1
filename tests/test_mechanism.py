import itertools
import random
from fractions import Fraction

import pytest

from cfspaces import (
    CfSpace,
    Kernel,
    Margin,
    Measure,
    Mechanism,
    MissingKernelError,
    SCMModel,
    StructuralEq,
    causal_independent,
    causal_sync,
    causally_equal,
    check_axioms,
    classify_effect,
    compile_scm,
    conditional_active_effect,
    cylinder,
    global_source,
    intervene,
    is_source,
    verify_fundamental,
)
from cfspaces.measure import ConditioningUndefinedError

from randspaces import random_cf_space, random_margin


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


class TestCheckAxioms:
    def test_dormant_fixture_clean(self, dormant):
        assert check_axioms(dormant).ok

    def test_exam_fixture_clean(self, exam, exam_cycle):
        assert check_axioms(exam).ok
        assert check_axioms(exam_cycle).ok

    def test_tampered_trivial_kernel(self, dormant):
        report = check_axioms(tampered_empty_kernel(dormant))
        assert [v.axiom for v in report.violations] == ["trivial-intervention"]

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
    def test_kernels_are_built_when_read(self, monkeypatch):
        ident = {(u,): u for u in "01"}
        model = SCMModel(
            [(f"U{i}", ("0", "1")) for i in range(3)],
            {u: Fraction(1, 8) for u in itertools.product("01", repeat=3)},
            [(f"V{i}", ("0", "1")) for i in range(3)],
            {f"V{i}": StructuralEq(f"V{i}", (), (f"U{i}",), ident) for i in range(3)})
        space = compile_scm(model)
        calls = []
        mixture = Measure.mixture.__func__

        def counting(cls, schema, parts):
            calls.append(schema)
            return mixture(cls, schema, parts)

        monkeypatch.setattr(Measure, "mixture", classmethod(counting))
        u = frozenset({4})
        new = intervene(space, u, Margin.uniform(space.schema, u))
        assert len(calls) == 1  # the new measure only
        assert len(new.derivation.derived) == 64 and new.mech.is_total()
        assert len(calls) == 1  # the scan builds nothing
        assert new.mech.get(()).rows[()] == new.P
        assert len(calls) == 2
        assert new.mech.get({1, 4}) is space.mech.get({1, 4})  # carried over
        assert {1} in new.mech
        k = new.mech.get({1})
        assert len(calls) == 2 + len(k.rows)  # one mixture per row
        assert new.mech.get({1}) is k
        assert len(calls) == 2 + len(k.rows)
        assert check_axioms(new).ok
        # P, then one mixture per row of the 32 keys that miss U: 3**5 rows
        assert len(calls) == 1 + 3 ** 5

    def test_long_chains_need_no_deep_recursion(self):
        ident = {(u,): u for u in "01"}
        model = SCMModel(
            [(f"U{i}", ("0", "1")) for i in range(2)],
            {u: Fraction(1, 4) for u in itertools.product("01", repeat=2)},
            [(f"V{i}", ("0", "1")) for i in range(2)],
            {f"V{i}": StructuralEq(f"V{i}", (), (f"U{i}",), ident) for i in range(2)})
        space = compile_scm(model)
        s = space.schema
        for i in range(1200):
            U = frozenset({2 + i % 2})
            space = intervene(space, U, Margin.uniform(s, U))
        # the kernels on the factual coordinates were never built on the way
        assert space.derivation.dropped == () and check_axioms(space).ok


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
        ident = {(u,): u for u in "01"}
        model = SCMModel(
            [(f"U{i}", ("0", "1")) for i in range(3)],
            {u: Fraction(1, 8) for u in itertools.product("01", repeat=3)},
            [(f"V{i}", ("0", "1")) for i in range(3)],
            {f"V{i}": StructuralEq(f"V{i}", (), (f"U{i}",), ident) for i in range(3)})
        u = frozenset({5})
        kept = [frozenset(c) for r in range(6) for c in itertools.combinations(range(5), r)]
        space = compile_scm(model, kernel_sets=kept + [u])
        a = cylinder(space.schema, {"F.V0": "1"})
        verdict = classify_effect(space, u, a)
        assert verdict.tag == "undetermined"
        assert verdict.missing == tuple(frozenset(s) for s in [
            {0, 5}, {1, 5}, {2, 5}, {3, 5}, {4, 5}, {0, 1, 5}, {0, 2, 5}, {0, 3, 5}])
        assert classify_effect(compile_scm(model), u, a).tag == "no_effect"


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

    def test_randomized_suite(self):
        rng = random.Random(2024)
        for i in range(200):
            space = random_cf_space(3000 + i)
            s = space.schema
            u = frozenset(p for p in range(len(s.coords)) if rng.random() < 0.5)
            q = random_margin(rng, s, u, dirac=bool(i % 2))
            assert verify_fundamental(space, u, q).ok
