import itertools
import random
from fractions import Fraction

import pytest

from cfspaces import (
    ConditioningUndefinedError,
    Coordinate,
    Margin,
    Measure,
    MissingKernelError,
    SchemaError,
    SpaceSchema,
    as_equal,
    as_equal_given,
    condition_event,
    condition_sigma,
    cylinder,
    dirac,
    independent,
    independent_given,
    independent_given_sigma,
    independent_sigmas,
    prob,
    synchronized,
)

from randspaces import rand_weights


def two_by_two():
    return SpaceSchema([Coordinate("W", "a", ("0", "1")), Coordinate("W", "b", ("0", "1"))])


class TestMeasureBasics:
    def test_weights_must_sum_to_one(self):
        s = two_by_two()
        with pytest.raises(ValueError, match="sum"):
            Measure(s, {(0, 0): Fraction(1, 2)})

    def test_negative_weight_rejected(self):
        s = two_by_two()
        with pytest.raises(ValueError):
            Measure(s, {(0, 0): Fraction(3, 2), (0, 1): Fraction(-1, 2)})

    def test_zero_weight_rows_are_checked(self):
        s = two_by_two()
        with pytest.raises(SchemaError, match="^label index 7 out of range for coordinate W.a$"):
            Margin(s, [0], {(7,): 0, (0,): 1})
        with pytest.raises(SchemaError, match=r"^row \(0, 0, 0, 0\) does not match"):
            Measure(s, {(0, 0, 0, 0): 0, (0, 1): 1})
        # a duplicate entry is named first, then a bad law, then a bad row
        with pytest.raises(ValueError, match=r"^duplicate weight entry for \(0,\)$"):
            Margin(s, [0], {(7,): 0, (0,): 2, range(1): -1})
        with pytest.raises(ValueError, match=r"^negative weight -1 at \(1,\)$"):
            Margin(s, [0], {(7,): 0, (0,): 2, (1,): -1})
        with pytest.raises(ValueError, match="^weights sum to 1/2, not 1$"):
            Margin(s, [0], {(7,): 0, (0,): Fraction(1, 2)})

    def test_mixture_weights_must_form_a_law(self):
        s = two_by_two()
        a, b = Measure.dirac(s, (0, 0)), Measure.dirac(s, (1, 1))
        mix = Measure.mixture(s, [(Fraction(1, 4), a), (0, b), (Fraction(3, 4), b)])
        assert mix.as_dict() == {(0, 0): Fraction(1, 4), (1, 1): Fraction(3, 4)}
        with pytest.raises(ValueError, match="^mixture weights sum to 1/2, not 1$"):
            Measure.mixture(s, [(Fraction(1, 4), a), (Fraction(1, 4), b)])
        with pytest.raises(ValueError, match="^negative mixture weight -1/2 at 1$"):
            Measure.mixture(s, [(Fraction(3, 2), a), (Fraction(-1, 2), b)])

    def test_exam_row_mass(self, exam):
        a = cylinder(exam.schema, {"F.class": "Y", "F.exam": "P"})
        assert prob(exam.P, a) == Fraction(43, 100)

    def test_full_space_mass(self, exam):
        assert prob(exam.P, exam.schema.outcome_set()) == 1

    def test_star_cross_world_cell(self, star):
        a = cylinder(star.schema, {"F.star": "Y", "CF.star": "N"})
        assert prob(star.P, a) == Fraction(19, 100)

    def test_exact_additivity_over_partitions(self):
        rng = random.Random(3)
        s = two_by_two()
        P = Measure(s, rand_weights(rng, s.outcomes()))
        outcomes = list(s.outcomes())
        rng.shuffle(outcomes)
        blocks = [frozenset(outcomes[:1]), frozenset(outcomes[1:3]), frozenset(outcomes[3:])]
        assert sum(P.prob(b) for b in blocks) == 1

    def test_dirac(self):
        s = two_by_two()
        d = dirac(s, (0, 1))
        assert d.prob(frozenset({(0, 1), (1, 1)})) == 1
        assert d.prob(frozenset({(1, 0)})) == 0

    def test_dirac_on_a_projection(self, exam):
        q = dirac(exam.schema, {"CF.class": "Y"})
        assert isinstance(q, Margin)
        assert q.weight((0,)) == 1


class TestConditioning:
    def test_exam_backtracking_values(self, exam):
        s = exam.schema
        cf_pass = cylinder(s, {"CF.exam": "P"})
        g1 = cylinder(s, {"F.class": "Y", "F.exam": "P"})
        assert condition_event(exam.P, g1).prob(cf_pass) == Fraction(38, 43)
        g2 = cylinder(s, {"F.class": "Y"})
        cf_attend = cylinder(s, {"CF.class": "Y"})
        assert condition_event(exam.P, g2).prob(cf_attend) == Fraction(13, 16)
        g3 = cylinder(s, {"F.class": "N", "F.exam": "F"})
        assert condition_event(exam.P, g3).prob(cf_pass) == Fraction(3, 17)

    def test_conditioning_on_everything_is_identity(self, exam):
        assert condition_event(exam.P, exam.schema.outcome_set()) == exam.P

    def test_null_event_raises(self, star):
        null = cylinder(star.schema, {"F.sky": "C", "F.star": "N", "CF.sky": "C",
                                      "CF.star": "Y"})
        assert star.P.prob(null) == 0
        with pytest.raises(ConditioningUndefinedError):
            condition_event(star.P, null)

    def test_iterated_conditioning(self, exam):
        s = exam.schema
        g1 = cylinder(s, {"F.class": "Y"})
        g2 = cylinder(s, {"F.exam": "P"})
        once = condition_event(condition_event(exam.P, g1), g2)
        joint = condition_event(exam.P, g1 & g2)
        assert once == joint


class TestConditionSigma:
    def test_trivial_partition(self, exam):
        cond = condition_sigma(exam.P, frozenset())
        assert cond.on == frozenset() and cond.rows == {(): exam.P}

    def test_full_partition_gives_diracs(self):
        rng = random.Random(11)
        s = two_by_two()
        P = Measure(s, rand_weights(rng, s.outcomes(), allow_zero=False))
        cond = condition_sigma(P, s.all_positions)
        assert cond.is_total()
        for outcome in s.outcomes():
            assert cond.measure(outcome) == dirac(s, outcome)

    def test_reconstruction_identity_exhaustive(self):
        # sum over the rows of P_S(row) * K(row)(A) recovers P(A), checked
        # on every event of a four-outcome space
        rng = random.Random(13)
        s = two_by_two()
        for _ in range(10):
            P = Measure(s, rand_weights(rng, s.outcomes()))
            for S in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
                cond = condition_sigma(P, S)
                law = P.marginal(S)
                for r in range(5):
                    for event in itertools.combinations(s.outcomes(), r):
                        A = frozenset(event)
                        total = sum((law.weight(row) * m.prob(A) for row, m in cond.rows.items()),
                                    Fraction(0))
                        assert total == P.prob(A)

    def test_null_atoms_are_missing_rows(self):
        s = two_by_two()
        P = Measure(s, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
        cond = condition_sigma(P, frozenset({0}))
        assert cond.rows == {(0,): P} and cond.missing_rows() == ((1,),)
        with pytest.raises(MissingKernelError):
            cond.measure((1,))


class TestIndependence:
    def test_coin_worlds_independent(self, coin_indep):
        s = coin_indep.schema
        assert independent_sigmas(coin_indep.P, s.world_positions("F"),
                                  s.world_positions("CF"))

    def test_trivial_events_always_independent(self, exam):
        s = exam.schema
        any_event = cylinder(s, {"CF.exam": "P"})
        assert independent(exam.P, s.outcome_set(), any_event)
        assert independent(exam.P, frozenset(), any_event)

    def test_exam_worlds_dependent(self, exam):
        s = exam.schema
        assert not independent_sigmas(exam.P, s.world_positions("F"),
                                      s.world_positions("CF"))
        # the witnessing rectangle: both worlds at (attend, pass)
        a = cylinder(s, {"F.class": "Y", "F.exam": "P"})
        b = cylinder(s, {"CF.class": "Y", "CF.exam": "P"})
        assert exam.P.prob(a & b) == Fraction(8, 25)
        assert exam.P.prob(a) * exam.P.prob(b) == Fraction(43, 100) ** 2

    def test_conditional_independence_given_sigma(self, coin_indep):
        s = coin_indep.schema
        a = cylinder(s, {"F.c": "H"})
        b = cylinder(s, {"CF.c": "H"})
        assert independent_given_sigma(coin_indep.P, frozenset(), a, b)
        # one shared flip: dependent given nothing, independent given both
        # coins, where only the null atoms (H, T) and (T, H) would disagree
        shared = Measure(s, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
        assert not independent_given_sigma(shared, frozenset(), a, b)
        assert independent_given_sigma(shared, s.all_positions, a, b)

    def test_conditional_independence_given_event(self, star):
        # given clear skies everywhere, the star sightings are maximally
        # dependent: the shared telescope decides both
        s = star.schema
        a = cylinder(s, {"F.star": "Y"})
        b = cylinder(s, {"CF.star": "Y"})
        g = cylinder(s, {"F.sky": "C", "CF.sky": "C"})
        assert not independent_given(star.P, g, a, b)
        assert independent_given(star.P, g, s.outcome_set(), b)


class TestAlmostSureEquality:
    def test_identical_events(self, exam):
        a = cylinder(exam.schema, {"CF.exam": "P"})
        assert as_equal(exam.P, a, a)

    def test_star_events_differ(self, star):
        s = star.schema
        a = cylinder(s, {"F.star": "Y"})
        b = cylinder(s, {"CF.star": "Y"})
        assert not as_equal(star.P, a, b)
        assert star.P.prob(a ^ b) == Fraction(19, 50)

    def test_star_events_equal_given_clear_skies(self, star):
        s = star.schema
        a = cylinder(s, {"F.star": "Y"})
        b = cylinder(s, {"CF.star": "Y"})
        g = cylinder(s, {"F.sky": "C", "CF.sky": "C"})
        assert as_equal_given(star.P, g, a, b)


class TestSynchronized:
    def test_same_set_trivially_synchronized(self, exam):
        s = exam.schema
        f = s.world_positions("F")
        assert synchronized(exam.P, f, f)

    def test_shared_coin_synchronized(self, coin_sync):
        s = coin_sync.schema
        assert synchronized(coin_sync.P, s.world_positions("F"), s.world_positions("CF"))

    def test_independent_coin_not_synchronized(self, coin_indep):
        s = coin_indep.schema
        assert not synchronized(coin_indep.P, s.world_positions("F"),
                                s.world_positions("CF"))

    def test_star_synchronized_given_clear(self, star):
        s = star.schema
        g = cylinder(s, {"F.sky": "C", "CF.sky": "C"})
        cond = condition_event(star.P, g)
        assert synchronized(cond, s.positions(["F.star"]), s.positions(["CF.star"]))
        assert not synchronized(star.P, s.positions(["F.star"]), s.positions(["CF.star"]))


class TestMargin:
    def test_point_margin(self, exam):
        q = Margin.point(exam.schema, {"CF.class": "Y"})
        assert q.on == (2,)
        assert q.weight((0,)) == 1

    def test_point_resolves_references_as_cylinder_does(self, exam):
        s = exam.schema
        clash = {"CF.class": "Y", ("CF", "class"): "N"}
        for build in (Margin.point, cylinder):
            with pytest.raises(SchemaError, match="conflicting assignment for coordinate CF.class"):
                build(s, clash)
        same = {"CF.class": "Y", 2: 0}
        assert Margin.point(s, same) == Margin.point(s, {"CF.class": "Y"})
        assert cylinder(s, same) == cylinder(s, {"CF.class": "Y"})

    def test_marginal_of_measure(self, exam):
        marg = exam.P.marginal(exam.schema.world_positions("CF"))
        assert marg.weight((0, 0)) == Fraction(43, 100)
        assert marg.weight((1, 1)) == Fraction(17, 100)

    def test_uniform(self, exam):
        q = Margin.uniform(exam.schema, ["CF.class"])
        assert q.weight((0,)) == Fraction(1, 2)

    def test_margin_on_every_position_is_the_measure(self, exam):
        s = exam.schema
        full = Margin(s, s.all_positions, exam.P.as_dict())
        assert full == exam.P and exam.P == full
        assert hash(full) == hash(exam.P)
        assert full != exam.P.marginal(s.world_positions("F"))
