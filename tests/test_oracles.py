"""Fast-path implementations against exhaustive brute-force quantification."""

import itertools
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import cfspaces.compilers
import cfspaces.measure
import cfspaces.space
import cfspaces.worlds
from cfspaces import (
    CfSpace,
    Coordinate,
    DerivationReport,
    Kernel,
    Margin,
    Measure,
    Mechanism,
    MissingKernelError,
    SpaceSchema,
    as_equal,
    WorldMirror,
    atoms_of,
    causal_sync,
    check_axioms,
    check_cross_world,
    compile_scm,
    condition_event,
    condition_sigma,
    cylinder,
    global_source,
    independent,
    independent_given_sigma,
    independent_sigmas,
    intervene,
    is_measurable_wrt,
    is_source,
    is_symmetric,
    parse_query,
    parse_scm,
    synchronized,
    verify_fundamental,
)
from cfspaces.measure import ConditioningUndefinedError
from cfspaces.query import LetStmt, eval_expr
from cfspaces.space import Event
from conftest import chain_scm
from oracle_util import (
    brute_causal_sync,
    brute_compile_scm,
    brute_cross_world,
    brute_event,
    brute_independent_sigmas,
    brute_intervene,
    brute_support_condition,
    brute_symmetric_measure,
    brute_symmetry_failures,
    brute_synchronized,
    event_mask,
    fast_support_condition,
    mask_tables,
)
from randspaces import (
    rand_weights,
    random_cf_space,
    random_dag_model,
    random_margin,
    random_schema,
    random_subset,
)


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

    def test_overlapping_sets(self):
        # Sets that share a coordinate are independent only where it is
        # almost surely constant; product laws with fixed coordinates give
        # such cases, random laws the rest.
        verdicts = []
        for seed in range(60):
            schema, rng = small_schema(seed)
            n = len(schema.coords)
            if seed % 2:
                laws = [{rng.randrange(2): Fraction(1)} if rng.random() < 0.5
                        else rand_weights(rng, (0, 1), allow_zero=False) for _ in range(n)]
                P = Measure(schema, {o: math.prod(laws[p].get(v, 0) for p, v in enumerate(o))
                                     for o in schema.outcomes()})
            else:
                P = Measure(schema, rand_weights(rng, schema.outcomes()))
            s1 = frozenset(p for p in range(n) if rng.random() < 0.5) | {rng.randrange(n)}
            s2 = frozenset(p for p in range(n) if rng.random() < 0.5) | {rng.choice(sorted(s1))}
            verdict = independent_sigmas(P, s1, s2)
            assert verdict == brute_independent_sigmas(P, s1, s2)
            verdicts.append(verdict)
        assert set(verdicts) == {True, False}

    def test_known_cases(self, coin_indep, coin_sync, exam):
        for space, expect in ((coin_indep, True), (coin_sync, False), (exam, False)):
            s = space.schema
            f, cf = s.world_positions("F"), s.world_positions("CF")
            assert independent_sigmas(space.P, f, cf) == expect
            assert brute_independent_sigmas(space.P, f, cf) == expect


def random_expression(rng, schema, names, depth=0) -> str:
    """A random `.cfq` event expression of atoms, `!`, `&`, `|`, `()` and `names`."""
    r = rng.random()
    if depth == 3 or r < 0.4:
        if names and r < 0.12:
            return rng.choice(names)
        if r < 0.16:
            return "()"
        c = rng.choice(schema.coords)
        return f"{c.key}={rng.choice(c.labels)}"
    if r < 0.55:
        return f"!({random_expression(rng, schema, names, depth + 1)})"
    items = [random_expression(rng, schema, names, depth + 1) for _ in range(rng.randint(2, 3))]
    return "(" + (" & " if r < 0.8 else " | ").join(items) + ")"


class TestEventOracle:
    """`.cfq` events against `brute_event`, which walks every outcome, on
    random schemas of at most 16 outcomes: members, `==` and `hash`, the
    set algebra, and every procedure that reads an event against
    subset sums of a random measure."""

    @pytest.mark.parametrize("seed", range(12))
    def test_events_agree_with_the_outcome_walk(self, seed):
        rng = random.Random(seed)
        schema = random_schema(rng, n_worlds=rng.choice((1, 2, 3)))
        while schema.n_outcomes > 16:
            schema = random_schema(rng, n_worlds=rng.choice((1, 2, 3)))
        outcomes, n = schema.outcomes(), len(schema.coords)
        P = Measure(schema, rand_weights(rng, outcomes))
        dp, index, den = mask_tables(schema, P)
        names = [f"e{i}" for i in range(4)]
        script = parse_query("\n".join(
            [f"LET {name} = EVENT({random_expression(rng, schema, names[:i])})"
             for i, name in enumerate(names)]
            + [f"PROB {random_expression(rng, schema, names)}" for _ in range(8)]))
        bindings, brute_bindings, pairs = {}, {}, []
        for stmt in script.statements:
            E, O = eval_expr(stmt.expr, schema, bindings), brute_event(stmt.expr, schema, brute_bindings)
            if isinstance(stmt, LetStmt):
                bindings[stmt.name], brute_bindings[stmt.name] = E, O
            pairs.append((E, O, event_mask(index, O)))
        subsets = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]
        for E, O, m in pairs:
            assert isinstance(E, Event) and frozenset(E) == O and len(E) == len(O)
            assert [o in E for o in outcomes] == [o in O for o in outcomes]
            assert (9,) * n not in E and outcomes[0][:-1] not in E
            assert E == O and O == E and hash(E) == hash(O)
            assert P.prob(E) == Fraction(dp[m], den)
            if dp[m]:
                assert P.condition(E) == Measure(
                    schema, {o: Fraction(dp[1 << index[o]], dp[m]) for o in O if dp[1 << index[o]]})
            else:
                with pytest.raises(ConditioningUndefinedError):
                    P.condition(E)
            for S in subsets:
                brute = all((o1 in O) == (o2 in O) for o1 in outcomes for o2 in outcomes
                            if all(o1[p] == o2[p] for p in S))
                assert is_measurable_wrt(schema, E, S) == brute
        for (E1, O1, m1), (E2, O2, m2) in itertools.combinations(pairs, 2):
            assert independent(P, E1, E2) == (dp[m1 & m2] * den == dp[m1] * dp[m2])
            assert as_equal(P, E1, E2) == (dp[m1 ^ m2] == 0)
            assert (E1 == E2) == (O1 == O2)
            for got, want in ((E1 & E2, O1 & O2), (E1 | E2, O1 | O2), (E1 ^ E2, O1 ^ O2),
                              (E1 - E2, O1 - O2), (E1 & O2, O1 & O2), (O1 - E2, O1 - O2)):
                assert frozenset(got) == want


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
                failures = is_symmetric(s, mirror).violations
                assert failures == brute_symmetry_failures(s, mirror)
                asymmetric += bool(failures)
        assert asymmetric >= 10


def move_within_fiber(rng, schema, S, row, m):
    """Move half of one outcome's mass to another outcome agreeing with the
    row: determinism still holds, the world marginals need not."""
    fiber = [o for o in schema.outcomes() if tuple(o[p] for p in sorted(S)) == row]
    if len(fiber) < 2:
        return m
    w = m.as_dict()
    donor = rng.choice(sorted(w))
    target = rng.choice([o for o in fiber if o != donor])
    shift = w[donor] / 2
    w[donor] -= shift
    w[target] = w.get(target, Fraction(0)) + shift
    return Measure(schema, w)


def tampered_copy(rng, space):
    """A copy with rows perturbed within their fibers, and with some kernels
    and some rows dropped."""
    schema = space.schema
    kernels = []
    for S in space.mech.keys():
        if S and rng.random() < 0.15:
            continue
        rows = {}
        for row, m in sorted(space.mech.get(S).rows.items()):
            if S and rng.random() < 0.1:
                continue
            rows[row] = move_within_fiber(rng, schema, S, row, m) if rng.random() < 0.3 else m
        if rows:
            kernels.append(Kernel(schema, S, rows))
    return CfSpace(schema, space.P, Mechanism(schema, space.P, kernels))


class TestCrossWorldOracle:
    def test_reports_match_the_per_atom_loop(self):
        rng = random.Random(53)
        violations = uncheckable = 0
        for n_worlds in (1, 2, 3):
            for seed in range(30):
                space = random_cf_space(9000 + seed, n_worlds=n_worlds)
                for s in (space, tampered_copy(rng, space)):
                    report = check_cross_world(s)
                    expected = brute_cross_world(s)
                    assert (report.violations, report.uncheckable) == expected
                    assert all(type(v.value) is type(v.reference) is Fraction
                               for v in report.violations)
                    violations += len(report.violations)
                    uncheckable += len(report.uncheckable)
        assert violations >= 100 and uncheckable >= 100

    def test_scaled_reference_tables(self):
        # F.x against CF.x, CF.y; P has F-marginal 1/2, 1/2 over denominator 2
        s = SpaceSchema([Coordinate("F", "x", ("0", "1")),
                         Coordinate("CF", "x", ("0", "1")),
                         Coordinate("CF", "y", ("0", "1"))])
        half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
        P = Measure(s, {(0, 0, 0): half, (1, 1, 1): half})
        kernels = [
            Kernel(s, s.positions(["CF.x"]), {
                # the same F-marginal over 4: 1/4 + 1/4 split across CF.y
                (0,): Measure(s, {(0, 0, 0): quarter, (0, 0, 1): quarter, (1, 0, 0): half}),
                # a different one over 4, a multiple of 2
                (1,): Measure(s, {(0, 1, 0): quarter, (1, 1, 0): 3 * quarter})}),
            Kernel(s, s.positions(["CF.y"]), {
                # a different one over 3, no multiple of 2
                (0,): Measure(s, {(0, 1, 0): third, (1, 0, 0): 2 * third}),
                (1,): Measure(s, {(0, 0, 1): half, (1, 1, 1): half})}),
            Kernel(s, s.positions(["F.x"]), {(0,): Measure(s, {(0, 0, 0): half, (0, 1, 1): half})}),
            # the row (1, 1) restricts to the row (1,) that F.x lacks
            Kernel(s, s.positions(["F.x", "CF.x"]), {
                (0, 0): Measure(s, {(0, 0, 0): 1}), (1, 1): Measure(s, {(1, 1, 1): 1})}),
        ]
        space = CfSpace(s, P, Mechanism(s, P, kernels))
        report = check_cross_world(space)
        assert (report.violations, report.uncheckable) == brute_cross_world(space)
        assert all(type(v.value) is type(v.reference) is Fraction for v in report.violations)
        bad = {(v.world, tuple(sorted(v.S)), v.row) for v in report.violations}
        assert ("F", (1,), (0,)) not in bad
        assert {("F", (1,), (1,)), ("F", (2,), (0,))} <= bad
        assert [(u.world, u.needs, u.row) for u in report.uncheckable] == [
            ("F", s.positions(["F.x"]), (1, 1))]


class TestConditionSigmaOracle:
    def test_rows_are_p_given_each_positive_atom(self):
        null_rows = 0
        for seed in range(60):
            rng = random.Random(seed)
            s = random_schema(rng)
            outcomes = s.outcomes()
            support = rng.sample(outcomes, rng.randrange(1, len(outcomes) + 1))
            P = Measure(s, rand_weights(rng, support))
            for r in range(len(s.coords) + 1):
                for S in map(frozenset, itertools.combinations(range(len(s.coords)), r)):
                    k = condition_sigma(P, S)
                    null = []
                    for atom in atoms_of(s, S):
                        row = tuple(min(atom)[p] for p in sorted(S))
                        if P.prob(atom) > 0:
                            assert k.rows[row] == condition_event(P, atom), (seed, S)
                        else:
                            null.append(row)
                    assert sorted(null) == sorted(k.missing_rows()), (seed, S)
                    null_rows += len(null)
        assert null_rows >= 100


class TestSigmaAlgebraWork:
    """The coordinate sigma-algebras are read off the support: no decision
    procedure below enumerates the outcome space into atoms."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"outcomes": 0, "atoms_of": 0}
        outcomes, atoms_of = SpaceSchema.outcomes, cfspaces.space.atoms_of

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(SpaceSchema, "outcomes", counting("outcomes", outcomes))
        for module in list(sys.modules.values()):
            if module.__name__.startswith("cfspaces") and getattr(module, "atoms_of", None) is atoms_of:
                monkeypatch.setattr(module, "atoms_of", counting("atoms_of", atoms_of))
        return counts

    def test_conditioning_on_sigma_reads_the_support(self, calls):
        space = compile_scm(parse_scm(chain_scm(8))[0])  # 65,536 outcomes
        s = space.schema
        x7, u = s.positions(["F.X7", "CF.X7"]), s.positions(["CF.X4"])
        k = condition_sigma(space.P, x7)
        # the worlds agree wherever they share all noise: the mixed rows are null
        assert list(k.rows) == [(0, 0), (1, 1)] and k.missing_rows() == ((0, 1), (1, 0))
        assert not global_source(space, x7)
        assert not is_source(space, x7, s.positions(["CF.X6"]))
        assert verify_fundamental(space, u, Margin.uniform(s, u)).ok
        assert calls == {"outcomes": 0, "atoms_of": 0}
        x3, x5, x6 = (cylinder(s, {f"F.X{i}": "1"}) for i in (3, 5, 6))
        assert independent_given_sigma(space.P, s.positions(["F.X5"]), x3, x6)  # a Markov chain
        assert not independent_given_sigma(space.P, x7, x5, x6)
        assert calls["atoms_of"] == 0

    def test_the_eight_variable_chain(self, calls):
        space = compile_scm(parse_scm(chain_scm(8))[0])  # 65,536 outcomes
        s = space.schema
        f, cf = s.world_positions("F"), s.world_positions("CF")
        assert synchronized(space.P, f, cf)
        assert not independent_sigmas(space.P, f, cf)
        assert not independent_sigmas(space.P, f | {s.position("CF.X0")}, cf)
        assert not causal_sync(space, s.positions(["CF.X4"]), f, cf)
        assert calls == {"outcomes": 0, "atoms_of": 0}
        assert is_measurable_wrt(s, cylinder(s, {"F.X7": "1"}), f)
        assert calls["atoms_of"] == 0

    def test_cross_world_reports(self, calls):
        rng = random.Random(7)
        violations = 0
        for seed in range(10):
            report = check_cross_world(tampered_copy(rng, random_cf_space(9000 + seed)))
            violations += len(report.violations)
        assert violations and calls["atoms_of"] == 0


class TestWholeFamilyWork:
    """A clean whole-family check compares integer tables: it builds no
    marginal and no Margin, walks no support, and makes one projector per
    world and one per (world, key)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(("marginal", "_of", "support", "projector"), 0)

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(Margin, "marginal", counting("marginal", Margin.marginal))
        monkeypatch.setattr(Margin, "_of", classmethod(counting("_of", Margin._of.__func__)))
        monkeypatch.setattr(Margin, "support", counting("support", Margin.support))
        monkeypatch.setattr(cfspaces.worlds, "projector",
                            counting("projector", cfspaces.worlds.projector))
        return counts

    def test_forced_chain_and_its_intervention(self, calls):
        space = compile_scm(parse_scm(chain_scm(3))[0])
        s = space.schema
        u = s.positions(["CF.X1"])
        for sp in (space, intervene(space, u, Margin.uniform(s, u))):
            keys = sp.mech.keys()
            sp.mech.kernels()  # forcing builds Margins; the checks must not
            calls.update(dict.fromkeys(calls, 0))
            assert check_cross_world(sp).ok and check_axioms(sp).ok
            assert calls["marginal"] == calls["_of"] == calls["support"] == 0
            assert 0 < calls["projector"] <= len(s.worlds) * (len(keys) + 1)


class TestCompiledFamilyWork:
    """Forcing a compiled structural space sums the noise law once per pair
    of (F, CF) partitions of the noise rows, and builds each kernel row
    from its support alone, out of one shared tuple per outcome."""

    def test_one_plan_per_partition_pair(self, monkeypatch):
        counts = dict.fromkeys(("plans", "pushforward", "divided"), 0)

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        def of(cls, schema, on, nums):
            counts["divided"] += math.gcd(*nums.values()) > 1
            return of_.__func__(cls, schema, on, nums)

        of_ = Margin._of
        monkeypatch.setattr(cfspaces.compilers, "_plan", counting("plans", cfspaces.compilers._plan))
        for module in (cfspaces.measure, cfspaces.compilers):
            monkeypatch.setattr(module, "pushforward", counting("pushforward", module.pushforward))
        monkeypatch.setattr(Margin, "_of", classmethod(of))
        model = parse_scm(chain_scm(3))[0]
        space = compile_scm(model)
        kernels = space.mech.kernels()
        rows = [(k, row, m) for k in kernels for row, m in k.rows.items()]
        assert len(rows) == 3 ** 6
        assert counts == {"plans": 64, "pushforward": 0, "divided": 0}

        # The distinct partition pairs, by solving each row's sub-models.
        def partition(do):
            blocks: dict = {}
            return tuple(blocks.setdefault(tuple(sorted(model.evaluate(u, do).items())),
                                           len(blocks)) for u in model.noise_dist)

        pairs = set()
        for k, row, _ in rows:
            do = {"F": {}, "CF": {}}
            for p, v in zip(sorted(k.on), row):
                c = space.schema.coords[p]
                do[c.world][c.name] = c.labels[v]
            pairs.add((partition(do["F"]), partition(do["CF"])))
        assert len(pairs) == 64
        outcomes = [o for _, _, m in rows for o in m._n] + list(space.P._n)
        assert len(set(map(id, outcomes))) == len(set(outcomes))


def random_intervention(rng, space):
    """A coordinate set, mostly a present key, and a law on it."""
    keys = space.mech.keys()
    if rng.random() < 0.7:
        U = rng.choice(keys)
    else:
        U = random_subset(rng, space.schema.all_positions)
    return U, random_margin(rng, space.schema, U, dirac=rng.random() < 0.4)


def assert_same_intervention(rng, got, expected):
    """The lazy result against the eager oracle's, read in a random order:
    presence, every row of every kernel, absences, the keys, the report."""
    space, derived, dropped = expected
    report = DerivationReport(derived, dropped)
    scan_first = rng.random() < 0.5
    if scan_first:
        assert got.derivation == report
    n = len(space.schema.coords)
    every = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    rng.shuffle(every)
    for S in every:
        present = S in space.mech
        assert (S in got.mech) == present
        if present:
            assert got.mech.get(S).rows == space.mech.get(S).rows
        else:
            with pytest.raises(MissingKernelError):
                got.mech.get(S)
    assert got.P == space.P
    assert got.mech.keys() == space.mech.keys() == derived
    assert got.mech.is_total() == space.mech.is_total()
    if not scan_first:
        assert got.derivation == report


class TestInterveneOracle:
    def test_lazy_interventions_match_the_eager_definition(self):
        rng = random.Random(67)
        runs = chained = refused = notes = row_notes = 0
        for n_worlds in (1, 2, 3):
            for seed in range(24):
                space = random_cf_space(9500 + seed, n_worlds=n_worlds)
                if seed % 3:
                    space = tampered_copy(rng, space)
                U, Q = random_intervention(rng, space)
                try:
                    expected = brute_intervene(space, U, Q)
                except MissingKernelError:
                    with pytest.raises(MissingKernelError):
                        intervene(space, U, Q)
                    refused += 1
                    continue
                assert_same_intervention(rng, intervene(space, U, Q), expected)
                runs += 1
                notes += len(expected[2])
                row_notes += sum(note.row is not None for note in expected[2])
                # A chain derives from a parent that has built nothing yet.
                U2, Q2 = random_intervention(rng, expected[0])
                try:
                    expected2 = brute_intervene(expected[0], U2, Q2)
                except MissingKernelError:
                    with pytest.raises(MissingKernelError):
                        intervene(intervene(space, U, Q), U2, Q2)
                    refused += 1
                    continue
                assert_same_intervention(
                    rng, intervene(intervene(space, U, Q), U2, Q2), expected2)
                chained += 1
        assert runs >= 50 and chained >= 40 and refused >= 10
        assert notes >= 40 and row_notes >= 25

    def test_racing_threads_read_the_same_kernels(self):
        def tables(kernel):
            return {row: m.as_dict() for row, m in kernel.rows.items()}

        rng = random.Random(71)
        cases = []  # (space the threads read, {S: {row: weights}}, derivation report)
        for seed in range(12):
            space = random_cf_space(9600 + seed, n_worlds=2, mode="coupled")
            U, Q = random_intervention(rng, space)
            U2, Q2 = random_intervention(rng, space)
            once, _, _ = brute_intervene(space, U, Q)
            expected, derived, dropped = brute_intervene(once, U2, Q2)
            want = {S: tables(expected.mech.get(S)) for S in expected.mech.keys()}
            cases.append((intervene(intervene(space, U, Q), U2, Q2), want,
                          DerivationReport(derived, dropped)))
        for seed in range(4):
            # Fresh compiled spaces: the threads race to build every kernel
            # and share the compiler's memo of sub-model solutions.
            model = random_dag_model(random.Random(9700 + seed), 2 + seed % 2)
            fresh = compile_scm(model)
            P, want = brute_compile_scm(model, fresh)
            assert fresh.P.as_dict() == P
            cases.append((fresh, want, None))
        for lazy, want, report in cases:
            n = len(lazy.schema.coords)
            every = [frozenset(c) for r in range(n + 1)
                     for c in itertools.combinations(range(n), r)]
            seen = {}

            def read(i):
                rows = {}
                for S in random.Random(i).sample(every, len(every)):
                    if S in lazy.mech:
                        rows[S] = tables(lazy.mech.get(S))
                    repr(lazy)  # reads the cache while other threads fill it
                seen[i] = (rows, lazy.derivation)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads) and len(seen) == 6
            for rows, got in seen.values():
                assert rows == want and got == report

    def test_two_threads_force_a_compiled_family(self):
        # The threads build kernels in opposite orders, racing on the
        # compiler's memo of solutions, partitions and plans.
        model = parse_scm(chain_scm(4))[0]
        want = {frozenset(k.on): k.rows for k in compile_scm(model).mech.kernels()}
        space = compile_scm(model)
        keys = sorted(want, key=sorted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(lambda order: [space.mech.get(S) for S in order], order)
                           for order in (keys, keys[::-1])]
                built = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for kernels in built:
            assert {frozenset(k.on): k.rows for k in kernels} == want
