"""Fast-path implementations against exhaustive brute-force quantification."""

import random
from fractions import Fraction

from cfspaces import (
    Coordinate,
    Kernel,
    Margin,
    Measure,
    SpaceSchema,
    WorldMirror,
    causal_sync,
    independent_sigmas,
    intervene,
    is_symmetric,
    synchronized,
)
from oracle_util import (
    brute_causal_sync,
    brute_independent_sigmas,
    brute_support_condition,
    brute_symmetric_measure,
    brute_symmetry_failures,
    brute_synchronized,
    fast_support_condition,
)
from randspaces import rand_weights, random_cf_space, random_margin, random_subset


def small_schema(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    return SpaceSchema([Coordinate("W", f"c{i}", ("0", "1")) for i in range(n)]), rng


def tamper_across_fiber(schema, kernel):
    """Move a sliver of mass onto an outcome outside the row's fiber."""
    row = sorted(kernel.rows)[0]
    m = kernel.rows[row]
    w = m.as_dict()
    donor = sorted(w)[0]
    target = next(
        o for o in schema.outcomes()
        if tuple(o[p] for p in sorted(kernel.on)) != row)
    shift = w[donor] / 2
    w[donor] -= shift
    w[target] = w.get(target, Fraction(0)) + shift
    rows = dict(kernel.rows)
    rows[row] = Measure(schema, w)
    return Kernel(schema, kernel.on, rows)


class TestSupportConditionOracle:
    def test_valid_kernels_agree(self):
        for seed in range(8):
            space = random_cf_space(seed)
            if space.schema.n_outcomes > 16:
                continue
            for S in space.mech.keys():
                kernel = space.mech.get(S)
                assert brute_support_condition(space.schema, kernel)
                assert fast_support_condition(space.schema, space.P, kernel)

    def test_tampered_kernels_agree(self):
        for seed in range(8):
            space = random_cf_space(seed)
            if space.schema.n_outcomes > 16:
                continue
            S = next(k for k in space.mech.keys() if k)
            bad = tamper_across_fiber(space.schema, space.mech.get(S))
            assert not brute_support_condition(space.schema, bad)
            assert not fast_support_condition(space.schema, space.P, bad)

    def test_sixteen_outcome_space(self, exam):
        s = exam.schema
        kernel = exam.mech.get(s.positions(["CF.class"]))
        assert brute_support_condition(s, kernel)
        assert fast_support_condition(s, exam.P, kernel)
        assert not brute_support_condition(s, tamper_across_fiber(s, kernel))


class TestIndependenceOracle:
    def test_random_measures(self):
        for seed in range(30):
            schema, rng = small_schema(seed)
            P = Measure(schema, rand_weights(rng, schema.outcomes()))
            n = len(schema.coords)
            s1 = frozenset(p for p in range(n) if rng.random() < 0.5)
            s2 = frozenset(p for p in range(n) if rng.random() < 0.5) - s1
            assert independent_sigmas(P, s1, s2) == brute_independent_sigmas(P, s1, s2)

    def test_known_cases(self, coin_indep, coin_sync, exam):
        for space, expect in ((coin_indep, True), (coin_sync, False), (exam, False)):
            s = space.schema
            f, cf = s.world_positions("F"), s.world_positions("CF")
            assert independent_sigmas(space.P, f, cf) == expect
            assert brute_independent_sigmas(space.P, f, cf) == expect


class TestSynchronizationOracle:
    def test_random_measures(self):
        hits = 0
        for seed in range(40):
            schema, rng = small_schema(seed)
            P = Measure(schema, rand_weights(rng, schema.outcomes()))
            n = len(schema.coords)
            s1 = frozenset(p for p in range(n) if rng.random() < 0.5)
            s2 = frozenset(p for p in range(n) if rng.random() < 0.5)
            fast = synchronized(P, s1, s2)
            assert fast == brute_synchronized(P, s1, s2)
            hits += fast
        assert hits  # the sweep exercised both verdicts

    def test_known_cases(self, coin_indep, coin_sync):
        for space, expect in ((coin_indep, False), (coin_sync, True)):
            s = space.schema
            f, cf = s.world_positions("F"), s.world_positions("CF")
            assert synchronized(space.P, f, cf) == expect
            assert brute_synchronized(space.P, f, cf) == expect


class TestCausalSyncOracle:
    def test_random_mechanisms(self):
        rng = random.Random(17)
        checked = 0
        for seed in range(25):
            space = random_cf_space(seed)
            if space.schema.n_outcomes > 16:
                continue
            n = len(space.schema.coords)
            u = random_subset(rng, range(n))
            s1 = random_subset(rng, range(n))
            s2 = random_subset(rng, range(n))
            fast = causal_sync(space, u, s1, s2)
            assert fast == brute_causal_sync(space, u, s1, s2)
            checked += 1
        assert checked >= 15

    def test_union_support_matters(self):
        # two rows with disjoint supports: neither row alone distinguishes
        # the algebras, but no single partner event works for both rows
        schema = SpaceSchema([Coordinate("W", "a", ("0", "1")),
                              Coordinate("W", "b", ("0", "1"))])
        P = Measure.uniform(schema)
        rows = {
            (0,): Measure(schema, {(0, 0): Fraction(1)}),
            (1,): Measure(schema, {(1, 1): Fraction(1)}),
        }
        from cfspaces import CfSpace, Mechanism

        space = CfSpace(schema, P, Mechanism(schema, P, [Kernel(schema, {0}, rows)]))
        s1 = frozenset({0, 1})   # full algebra
        s2 = frozenset()         # trivial algebra
        assert not causal_sync(space, frozenset({0}), s1, s2)
        assert not brute_causal_sync(space, frozenset({0}), s1, s2)


class TestSymmetryOracle:
    def test_atom_rectangles_suffice(self, disease, disease_asym, coin_indep, exam):
        for space, expect in ((disease, True), (disease_asym, False),
                              (coin_indep, True), (exam, True)):
            mirror = WorldMirror.derive(space.schema, "F", "CF")
            assert is_symmetric(space, mirror).ok == expect
            assert brute_symmetric_measure(space, mirror) == expect

    def test_random_product_measures(self):
        rng = random.Random(31)
        for seed in range(12):
            schema = SpaceSchema([Coordinate("F", "c", ("0", "1")),
                                  Coordinate("CF", "c", ("0", "1"))])
            base = rand_weights(rng, [(0,), (1,)])
            weights = {
                (a, b): base.get((a,), Fraction(0)) * base.get((b,), Fraction(0))
                for a in (0, 1) for b in (0, 1)
            }
            weights = {k: v for k, v in weights.items() if v}
            from cfspaces import CfSpace

            space = CfSpace(schema, Measure(schema, weights))
            mirror = WorldMirror.derive(schema, "F", "CF")
            assert is_symmetric(space, mirror).ok
            assert brute_symmetric_measure(space, mirror)

    def test_failures_match_the_all_outcomes_loop(self):
        rng = random.Random(47)
        asymmetric = 0
        for seed in range(40):
            space = random_cf_space(8000 + seed, mirrored=True)
            mirror = WorldMirror.derive(space.schema, "F", "CF")
            # a one-world intervention breaks symmetry on some seeds
            U = frozenset([rng.choice(sorted(space.schema.world_positions("CF")))])
            for s in (space, intervene(space, U, random_margin(rng, space.schema, U))):
                failures = is_symmetric(s, mirror).failures
                assert failures == brute_symmetry_failures(s, mirror)
                asymmetric += bool(failures)
        assert asymmetric >= 10
