"""Acceptance suite: every reference number and theorem-level guarantee.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s) and asserts exact rational equality throughout.  The theorem
suites run over a fixed-seed pool of more than five hundred randomly
generated spaces with at most 2^8 outcomes.
"""

import io
import random
from fractions import Fraction
from importlib import resources

import pytest

from cfspaces import (
    CfSpace,
    Kernel,
    Margin,
    Mechanism,
    atoms_of,
    causal_independent,
    causally_equal,
    check_axioms,
    check_cross_world,
    classify_effect,
    compile_backtracking,
    compile_po,
    compile_scm,
    condition_event,
    condition_sigma,
    conditional_active_effect,
    cylinder,
    independent,
    independent_sigmas,
    intervene,
    is_symmetric,
    synchronized,
    verify_fundamental,
)
from cfspaces.cli import main as cli_main
from cfspaces.compilers import CyclicModelError

import test_compilers as models
from oracle_util import (
    brute_causal_sync,
    brute_independent_sigmas,
    brute_support_condition,
    brute_symmetric_measure,
    brute_synchronized,
    fast_support_condition,
    restrict_row,
)
from randspaces import random_cf_space, random_event, random_margin
from cfspaces import WorldMirror, causal_sync


def _report(number, description, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: {description} FAIL")
        raise
    print(f"ACCEPTANCE {number}: {description} PASS")


def test_criterion_1_exam_observational(exam):
    def body():
        s = exam.schema
        cf_pass = cylinder(s, {"CF.exam": "P"})
        assert condition_event(exam.P, cylinder(s, {"F.class": "Y", "F.exam": "P"})) \
            .prob(cf_pass) == Fraction(38, 43)
        assert condition_event(exam.P, cylinder(s, {"F.class": "Y"})) \
            .prob(cylinder(s, {"CF.class": "Y"})) == Fraction(13, 16)
        g = cylinder(s, {"F.class": "N", "F.exam": "F"})
        assert condition_event(exam.P, g & cylinder(s, {"CF.class": "Y"})) \
            .prob(cf_pass) == Fraction(1, 5)
        assert condition_event(exam.P, g).prob(cf_pass) == Fraction(3, 17)

    _report(1, "exam observational counterfactuals", body)


def test_criterion_2_exam_interventional(exam):
    def body():
        s = exam.schema
        u = s.positions(["CF.class"])
        cf_pass = cylinder(s, {"CF.exam": "P"})
        f_pass = cylinder(s, {"F.exam": "P"})
        g = cylinder(s, {"F.class": "N", "F.exam": "F"})
        yp = cylinder(s, {"F.class": "Y", "F.exam": "P"})
        do_y = intervene(exam, u, Margin.point(s, {"CF.class": "Y"}))
        do_n = intervene(exam, u, Margin.point(s, {"CF.class": "N"}))
        assert do_y.P.prob(cf_pass) == Fraction(16, 25)
        assert do_n.P.prob(cf_pass) == Fraction(3, 5)
        assert condition_event(do_y.P, g).prob(cf_pass) == Fraction(4, 17)
        assert condition_event(do_n.P, f_pass).prob(cf_pass) == Fraction(26, 31)
        assert condition_event(exam.P, f_pass).prob(cf_pass) == Fraction(27, 31)
        assert condition_event(do_y.P, f_pass).prob(cf_pass) == Fraction(55, 62)
        assert condition_event(do_y.P, yp).prob(cf_pass) == Fraction(39, 43)
        verdict = conditional_active_effect(exam, u, cf_pass, g)
        assert verdict.value((1,)) == Fraction(3, 17) == verdict.baseline

    _report(2, "exam interventional counterfactuals", body)


def test_criterion_3_effect_taxonomy(dormant):
    def body():
        s = dormant.schema
        a = cylinder(s, {"W.c3": "0"})
        active = classify_effect(dormant, s.positions(["W.c2"]), a)
        assert active.tag == "active"
        assert (active.witness.value, active.witness.reference) == \
            (Fraction(1, 4), Fraction(1, 2))
        dormant_v = classify_effect(dormant, s.positions(["W.c1"]), a)
        assert dormant_v.tag == "dormant"
        assert (dormant_v.witness.value, dormant_v.witness.reference) == \
            (Fraction(1, 8), Fraction(1, 4))

    _report(3, "dormant and active effect taxonomy", body)


def test_criterion_4_star_synchronisation(star):
    def body():
        s = star.schema
        a = cylinder(s, {"F.star": "Y"})
        b = cylinder(s, {"CF.star": "Y"})
        assert star.P.prob(a ^ b) == Fraction(19, 50)
        g = cylinder(s, {"F.sky": "C", "CF.sky": "C"})
        cond = condition_event(star.P, g)
        assert cond.prob(a ^ b) == 0
        assert synchronized(cond, s.positions(["F.star"]), s.positions(["CF.star"]))
        assert not synchronized(star.P, s.positions(["F.star"]), s.positions(["CF.star"]))

    _report(4, "star conditional synchronisation", body)


def test_criterion_5_disease(disease, disease_asym):
    def body():
        s = disease.schema
        assert condition_event(disease.P, cylinder(s, {"F.state": "S"})) \
            .prob(cylinder(s, {"CF.state": "S"})) == Fraction(89, 90)
        assert condition_event(disease.P, cylinder(s, {"F.state": "D"})) \
            .prob(cylinder(s, {"CF.state": "D"})) == Fraction(9, 10)
        assert is_symmetric(disease).ok
        sa = disease_asym.schema
        assert condition_event(disease_asym.P, cylinder(sa, {"F.state": "S"})) \
            .prob(cylinder(sa, {"CF.state": "S"})) == Fraction(2, 3)
        assert disease_asym.P.prob(cylinder(sa, {"CF.state": "S"})) == Fraction(601, 1000)
        assert not is_symmetric(disease_asym).ok

    _report(5, "disease conditionals and symmetry", body)


# -- criterion 6: theorem suites ---------------------------------------------

POOL_SIZE = 520
_pool = None


def theorem_pool():
    global _pool
    if _pool is None:
        spaces = []
        for i in range(POOL_SIZE):
            if i % 20 == 18:
                n_worlds = 1
            elif i % 20 == 19:
                n_worlds = 3
            else:
                n_worlds = 2
            mode = "product" if i % 3 == 0 else None
            spaces.append((i, random_cf_space(800000 + i, n_worlds=n_worlds, mode=mode)))
        _pool = spaces
    return _pool


def _choose_u(rng, schema):
    return frozenset(p for p in range(len(schema.coords)) if rng.random() < 0.5)


def _drop_kernels(rng, space):
    """A row- and key-partial variant of a total mechanism."""
    kept = []
    for S in space.mech.keys():
        if S and rng.random() < 0.3:
            continue
        k = space.mech.get(S)
        rows = {r: m for r, m in k.rows.items() if not S or rng.random() < 0.8}
        if rows:
            kept.append(Kernel(space.schema, S, rows))
    return CfSpace(space.schema, space.P,
                   Mechanism(space.schema, space.P, kept))


def test_criterion_6a_interventions_preserve_axioms():
    def body():
        count = 0
        for i, space in theorem_pool():
            rng = random.Random(900000 + i)
            assert check_axioms(space).ok
            assert check_cross_world(space).ok
            u = _choose_u(rng, space.schema)
            q = random_margin(rng, space.schema, u, dirac=bool(i % 2))
            new = intervene(space, u, q)
            assert check_axioms(new).ok, (i, u)
            assert check_cross_world(new).ok, (i, u)
            count += 1
            if i % 4 == 0:
                # partial mechanisms: whatever remains derivable must still
                # satisfy every axiom (uncheckable pairs are fine)
                partial = _drop_kernels(rng, space)
                assert check_axioms(partial).ok
                if u in partial.mech:
                    try:
                        new_p = intervene(partial, u, q)
                    except Exception:
                        continue  # the variant lost a row the measure needs
                    assert check_axioms(new_p).ok, (i, u)
                    assert check_cross_world(new_p).ok, (i, u)
        assert count >= 500

    _report(6, "theorem suite (a): interventions preserve the axioms", body)


def test_criterion_6b_fundamental_property():
    def body():
        count = 0
        for i, space in theorem_pool():
            rng = random.Random(910000 + i)
            u = _choose_u(rng, space.schema)
            q = random_margin(rng, space.schema, u, dirac=bool(i % 3 == 0))
            report = verify_fundamental(space, u, q)
            assert report.ok, (i, u, report)
            count += 1
        assert count >= 500

    _report(6, "theorem suite (b): intervened coordinates become sources", body)


def _kernel_null_outcomes(space, u):
    k = space.mech.get(u)
    covered = set()
    for m in k.rows.values():
        covered |= m.support()
    return frozenset(space.schema.outcome_set() - covered)


def _worlds_causally_independent(space, u):
    s = space.schema
    k = space.mech.get(u)
    first = atoms_of(s, s.world_positions(s.worlds[0]))
    second = atoms_of(s, s.world_positions(s.worlds[1]))
    for m in k.rows.values():
        for a in first:
            pa = m.prob(a)
            for b in second:
                if m.prob(a & b) != pa * m.prob(b):
                    return False
    return True


def test_criterion_6c_preservation_propositions():
    def body():
        indep_hits = equal_hits = world_hits = conditional_checks = 0
        for i, space in theorem_pool():
            rng = random.Random(920000 + i)
            s = space.schema
            u = _choose_u(rng, s)
            q = random_margin(rng, s, u)
            new = intervene(space, u, q)

            # causal independence survives as conditional independence
            pairs = [(random_event(rng, s), random_event(rng, s)),
                     (s.outcome_set(), random_event(rng, s))]
            if len(s.worlds) >= 2:
                fa = sorted(s.world_positions(s.worlds[0]))[0]
                cb = sorted(s.world_positions(s.worlds[1]))[0]
                pairs.append((cylinder(s, {fa: 0}), cylinder(s, {cb: 0})))
            null = _kernel_null_outcomes(space, u)
            base = random_event(rng, s)
            pairs.append((base, base ^ frozenset(o for o in null if rng.random() < 0.7)))
            cond = condition_sigma(new.P, u)
            positive = [b for b in cond.atoms if new.P.prob(b) > 0]
            for a, b in pairs:
                if causal_independent(space, u, a, b):
                    indep_hits += 1
                    for block in positive:
                        assert independent(cond.table[block], a, b), (i, u)
                if causally_equal(space, u, a, b):
                    equal_hits += 1
                    assert new.P.prob(frozenset(a) ^ frozenset(b)) == 0, (i, u)

            # independent worlds with a factorizing intervention measure
            if len(s.worlds) == 2 and _worlds_causally_independent(space, u):
                tf = s.world_positions(s.worlds[0])
                tcf = s.world_positions(s.worlds[1])
                qf = random_margin(rng, s, u, product_split=(u & tf, u & tcf))
                new2 = intervene(space, u, qf)
                assert independent_sigmas(new2.P, tf, tcf), (i, u)
                world_hits += 1

            # one-world interventions cannot move the other world's
            # conditionals
            if len(s.worlds) >= 2:
                tf = s.world_positions(s.worlds[0])
                tcf = s.world_positions(s.worlds[1])
                uf = frozenset(p for p in tf if rng.random() < 0.6)
                cf_atoms = atoms_of(s, tcf)
                a = frozenset().union(*(b for b in cf_atoms if rng.random() < 0.5)) \
                    or cf_atoms[0]
                g = frozenset().union(*(b for b in cf_atoms if rng.random() < 0.6)) \
                    or cf_atoms[-1]
                for S in space.mech.keys():
                    reduced = S - uf
                    if reduced == S:
                        continue
                    k1, k2 = space.mech.get(S), space.mech.get(reduced)
                    for row in sorted(k1.rows):
                        m1 = k1.rows[row]
                        m2 = k2.rows[restrict_row(S, row, reduced)]
                        g1, g2 = m1.prob(g), m2.prob(g)
                        if g1 > 0 and g2 > 0:
                            assert m1.prob(g & a) / g1 == m2.prob(g & a) / g2, (i, S)
                            conditional_checks += 1
        # the suite must actually have exercised the hypotheses
        assert indep_hits >= 500, indep_hits
        assert equal_hits >= 500, equal_hits
        assert world_hits >= 100, world_hits
        assert conditional_checks >= 500, conditional_checks

    _report(6, "theorem suite (c): preservation propositions", body)


def test_criterion_7_compilers():
    def body():
        # hand-enumerated chain: X = ux, Y = ux xor uy over uniform noise
        chain = models.chain_model()
        space = compile_scm(chain)
        s = space.schema
        assert synchronized(space.P, s.world_positions("F"), s.world_positions("CF"))
        expected_p = {}
        for ux in "01":
            for uy in "01":
                x = ux
                y = str(int(ux != uy))
                key = s.outcome_of((x, y, x, y))
                expected_p[key] = expected_p.get(key, Fraction(0)) + Fraction(1, 4)
        assert space.P.as_dict() == expected_p
        k = space.mech.get(s.positions(["CF.X"]))
        expected_row = {}
        for ux in "01":
            for uy in "01":
                x, y = ux, str(int(ux != uy))
                y_star = str(int("1" != uy))
                key = s.outcome_of((x, y, "1", y_star))
                expected_row[key] = expected_row.get(key, Fraction(0)) + Fraction(1, 4)
        assert k.rows[(1,)].as_dict() == expected_row
        for seed in range(20):
            model = models.random_model(7000 + seed)
            out = compile_scm(model)
            assert check_axioms(out).ok and check_cross_world(out).ok
            assert synchronized(out.P, out.schema.world_positions("F"),
                                out.schema.world_positions("CF"))
        diag = {(r, r): q for r, q in chain.noise_dist.items()}
        assert compile_backtracking(chain, diag).P == space.P
        po_space = compile_po(models.toy_po_model())
        model = models.toy_po_model()
        for x in ("0", "1"):
            for y in ("P", "F"):
                want = sum(
                    (model.unit_dist[unit] for unit in model.units
                     if model.observed["X"][unit] == x
                     and model.observed["Y"][unit] == y),
                    Fraction(0))
                got = po_space.P.prob(cylinder(po_space.schema,
                                               {"OBS.X": x, "OBS.Y": y}))
                assert got == want

    _report(7, "compiler correctness", body)


def test_criterion_8_cyclic_fixture():
    def body():
        path = str(resources.files("cfspaces").joinpath("fixtures", "exam-cycle.cfs"))
        out, err = io.StringIO(), io.StringIO()
        assert cli_main(["check", path], out, err) == 0
        with pytest.raises(CyclicModelError):
            from cfspaces.repro import _cyclic_model

            compile_scm(_cyclic_model())

    _report(8, "cyclic kernels are valid where no structural model exists", body)


def test_criterion_9_oracle_equivalence(exam, exam_cycle, star, dormant, disease,
                                        disease_asym, coin_indep, coin_sync):
    def body():
        fixtures = [exam, exam_cycle, star, dormant, disease, disease_asym,
                    coin_indep, coin_sync]
        randoms = []
        for seed in range(40):
            space = random_cf_space(660000 + seed)
            if space.schema.n_outcomes <= 8:
                randoms.append(space)
            if len(randoms) == 6:
                break
        support_checked = indep_checked = sync_checked = causal_checked = 0
        for space in fixtures + randoms:
            s = space.schema
            n = s.n_outcomes
            assert n <= 16
            if space.mech is not None:
                for S in space.mech.keys():
                    if n == 16 and len(atoms_of(s, S)) > 4:
                        continue
                    kernel = space.mech.get(S)
                    assert brute_support_condition(s, kernel) == \
                        fast_support_condition(s, space.P, kernel)
                    support_checked += 1
            subsets = [S for S in _all_subsets(len(s.coords))
                       if len(atoms_of(s, S)) <= 8]
            for s1 in subsets:
                for s2 in subsets:
                    assert independent_sigmas(space.P, s1, s2) == \
                        brute_independent_sigmas(space.P, s1, s2)
                    assert synchronized(space.P, s1, s2) == \
                        brute_synchronized(space.P, s1, s2)
                    indep_checked += 1
                    sync_checked += 1
            if space.mech is not None and space.mech.is_total():
                rng = random.Random(n)
                for _ in range(3):
                    u = frozenset(p for p in range(len(s.coords))
                                  if rng.random() < 0.5)
                    s1 = rng.choice(subsets)
                    s2 = rng.choice(subsets)
                    assert causal_sync(space, u, s1, s2) == \
                        brute_causal_sync(space, u, s1, s2)
                    causal_checked += 1
        for space in (disease, disease_asym, coin_indep, coin_sync, exam):
            mirror = WorldMirror.derive(space.schema, "F", "CF")
            assert is_symmetric(space, mirror).ok == \
                brute_symmetric_measure(space, mirror)
        assert support_checked >= 10
        assert indep_checked >= 100 and sync_checked >= 100
        assert causal_checked >= 15

    _report(9, "fast paths agree with exhaustive brute force", body)


def _all_subsets(n):
    import itertools

    return [frozenset(c) for r in range(n + 1)
            for c in itertools.combinations(range(n), r)]
