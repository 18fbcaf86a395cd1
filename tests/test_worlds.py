import random
from fractions import Fraction

import pytest

from cfspaces import (
    CfSpace,
    CheckReport,
    Coordinate,
    Kernel,
    Margin,
    Measure,
    Mechanism,
    SchemaError,
    SpaceSchema,
    WorldMirror,
    atoms_of,
    build_nway,
    check_axioms,
    check_cross_world,
    classify_effect,
    classify_event,
    cylinder,
    intervene,
    is_symmetric,
    marginalize,
    synchronized,
)

from oracle_util import brute_cross_world
from randspaces import random_cf_space


class TestCrossWorld:
    def test_exam_marginals_preserved(self, exam):
        s = exam.schema
        report = check_cross_world(exam)
        assert report.ok
        assert not report.uncheckable
        # the factual row masses of the attendance kernel match the
        # observational row masses exactly
        k = exam.mech.get(s.positions(["CF.class"]))
        expected = [Fraction(43, 100), Fraction(21, 100), Fraction(19, 100), Fraction(17, 100)]
        for block, want in zip(atoms_of(s, s.world_positions("F")), expected):
            assert k.rows[(0,)].prob(block) == want
            assert k.rows[(1,)].prob(block) == want

    def test_probability_space_vacuous(self, star):
        report = check_cross_world(star)
        assert report.ok and not report.uncheckable

    def test_tampered_factual_marginal(self, exam):
        s = exam.schema
        k = exam.mech.get(s.positions(["CF.class"]))
        w = k.rows[(0,)].as_dict()
        # move mass from the (Y,F) factual row to the (Y,P) one
        src = s.outcome_of(("Y", "F", "Y", "P"))
        dst = s.outcome_of(("Y", "P", "Y", "P"))
        w[src] -= Fraction(1, 100)
        w[dst] += Fraction(1, 100)
        tampered = Kernel(s, k.on, {(0,): Measure(s, w), (1,): k.rows[(1,)]})
        space = CfSpace(s, exam.P, Mechanism(s, exam.P, [tampered]))
        report = check_cross_world(space)
        assert not report.ok
        witness_atoms = {v.atom for v in report.violations}
        assert cylinder(s, {"F.class": "Y", "F.exam": "F"}) in witness_atoms

    # One factual coordinate and two counterfactual ones; every test below
    # puts a kernel on CF.x, whose factual marginals must equal P's.
    EDGE = SpaceSchema([
        Coordinate("F", "x", ("0", "1")),
        Coordinate("CF", "x", ("0", "1")),
        Coordinate("CF", "y", ("0", "1")),
    ])

    def edge_report(self, P, row0, row1):
        s = self.EDGE
        P = Measure(s, P)
        kernel = Kernel(s, s.positions(["CF.x"]), {(0,): Measure(s, row0), (1,): Measure(s, row1)})
        space = CfSpace(s, P, Mechanism(s, P, [kernel]))
        report = check_cross_world(space)
        assert (report.violations, report.uncheckable) == brute_cross_world(space)
        assert not report.uncheckable
        return [(v.row, v.atom, v.value, v.reference) for v in report.violations]

    def factual(self, label):
        return cylinder(self.EDGE, {"F.x": label})

    def test_denominators_scale_without_a_violation(self):
        # row (0,) has factual marginal 2/6, 4/6 over denominator 6 and P
        # has 1/3, 2/3 over 3: the same law
        P = {(0, 0, 0): Fraction(1, 3), (1, 1, 1): Fraction(2, 3)}
        row0 = {(0, 0, 0): Fraction(1, 6), (0, 0, 1): Fraction(1, 6),
                (1, 0, 0): Fraction(1, 2), (1, 0, 1): Fraction(1, 6)}
        row1 = {(0, 1, 0): Fraction(1, 3), (1, 1, 1): Fraction(2, 3)}
        assert self.edge_report(P, row0, row1) == []

    def test_mass_on_one_side_only(self):
        # row (1,) puts no factual mass on F.x=0, where P has 1/3
        P = {(0, 0, 0): Fraction(1, 3), (1, 1, 1): Fraction(2, 3)}
        row0 = {(0, 0, 1): Fraction(1, 3), (1, 0, 1): Fraction(2, 3)}
        row1 = {(1, 1, 0): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)}
        assert self.edge_report(P, row0, row1) == [
            ((1,), self.factual("0"), Fraction(0), Fraction(1, 3)),
            ((1,), self.factual("1"), Fraction(1), Fraction(2, 3)),
        ]

    def test_dirac_rows(self):
        P = {(0, 0, 0): 1}
        assert self.edge_report(P, {(0, 0, 1): 1}, {(0, 1, 0): 1}) == []
        assert self.edge_report(P, {(0, 0, 1): 1}, {(1, 1, 0): 1}) == [
            ((1,), self.factual("0"), Fraction(0), Fraction(1)),
            ((1,), self.factual("1"), Fraction(1), Fraction(0)),
        ]

    def test_uncheckable_pairs_reported(self, exam):
        # drop the trivial kernel's partner by building a mechanism whose
        # only kernel mixes worlds with an absent restriction
        s = exam.schema
        u = s.positions(["CF.class"])
        joint_on = s.positions(["F.class", "CF.class"])
        src = exam.mech.get(u)
        rows = {}
        for fc in (0, 1):
            for row, m in src.rows.items():
                cond = m.condition(cylinder(s, {"F.class": s.coords[0].labels[fc]})) \
                    if m.prob(cylinder(s, {"F.class": s.coords[0].labels[fc]})) else None
                if cond:
                    rows[(fc,) + row] = cond
        kernel = Kernel(s, joint_on, rows)
        space = CfSpace(s, exam.P, Mechanism(s, exam.P, [kernel]))
        report = check_cross_world(space)
        assert any(u.needs == s.positions(["F.class"]) for u in report.uncheckable) or \
            any(u.needs == s.positions(["CF.class"]) for u in report.uncheckable)


class TestClassifyEvent:
    def test_factual_cylinder(self, exam):
        got = classify_event(exam, cylinder(exam.schema, {"F.exam": "P"}))
        assert got.worlds == ("F",)
        assert not got.is_cross_world

    def test_counterfactual_cylinder(self, exam):
        got = classify_event(exam, cylinder(exam.schema, {"CF.class": "N"}))
        assert got.worlds == ("CF",)

    def test_coin_diagonal_is_cross_world(self, coin_indep):
        diag = frozenset({(0, 0), (1, 1)})
        got = classify_event(coin_indep, diag)
        assert got.is_cross_world

    def test_trivial_events_belong_everywhere(self, exam):
        assert classify_event(exam, exam.schema.outcome_set()).worlds == ("F", "CF")
        assert classify_event(exam, frozenset()).worlds == ("F", "CF")


def test_the_whole_family_checks_share_one_report_type(exam, disease_asym):
    reports = [check_axioms(exam), check_cross_world(exam), is_symmetric(exam),
               is_symmetric(disease_asym)]
    assert [type(r) for r in reports] == [CheckReport] * 4
    assert reports[0].uncheckable == ()
    assert [r.ok for r in reports] == [True, True, True, False]
    # the one-sided kernel of exam has no mirrored partner
    n = len(reports[2].uncheckable)
    assert n and repr(reports[2]) == f"CheckReport(ok=True, violations=0, uncheckable={n})"


class TestSymmetry:
    def test_exam_measure_symmetric(self, exam):
        report = is_symmetric(exam)
        assert report.ok
        # the one-sided kernel has no mirrored partner, which is reported
        assert report.uncheckable

    def test_disease_symmetric(self, disease):
        assert is_symmetric(disease).ok

    def test_disease_asym_fails_with_witness(self, disease_asym):
        report = is_symmetric(disease_asym)
        assert not report.ok
        values = {(f.value, f.mirrored) for f in report.violations}
        assert (Fraction(3, 10), Fraction(1, 1000)) in values

    def test_product_measure_symmetric(self, coin_indep):
        assert is_symmetric(coin_indep).ok

    def test_mirror_requires_matching_labels(self):
        schema = SpaceSchema([
            Coordinate("F", "c", ("a", "b")),
            Coordinate("CF", "c", ("a", "z")),
        ])
        with pytest.raises(SchemaError):
            WorldMirror.derive(schema, "F", "CF")

    def test_mirrored_kernels_checked(self):
        # a symmetric generated space stays symmetric; per-world tampering
        # is caught through the swapped-row comparison
        space = random_cf_space(606, mirrored=True, mode="product")
        mirror = WorldMirror.derive(space.schema, "F", "CF")
        # product couplings of mirrored families need not be symmetric, so
        # only assert the checker runs and reports deterministically
        report = is_symmetric(space, mirror)
        assert report.violations == is_symmetric(space, mirror).violations

    def test_a_clean_pass_settles_the_mirror_only_with_as_many_rows(self, coin_sync):
        # every row on F.c has its mirror on CF.c, but CF.c's row (1,) has
        # none on F.c, so the kernel on CF.c still gets its own pass
        s, P = coin_sync.schema, coin_sync.P
        kernels = [Kernel(s, {0}, {(0,): Measure(s, {(0, 0): 1})}),
                   Kernel(s, {1}, {(0,): Measure(s, {(0, 0): 1}), (1,): Measure(s, {(1, 1): 1})})]
        report = is_symmetric(CfSpace(s, P, Mechanism(s, P, kernels)))
        assert report.ok and report.uncheckable == ((frozenset({1}), frozenset({0}), (1,)),)


class TestMarginalize:
    def test_keep_everything_is_identity(self, exam):
        same = marginalize(exam, exam.schema.all_positions)
        assert same.P.as_dict() == exam.P.as_dict()
        assert set(same.mech.keys()) == set(exam.mech.keys())

    def test_exam_exam_coordinates(self, exam):
        s = exam.schema
        kept = marginalize(exam, s.positions(["F.exam", "CF.exam"]))
        cf_pass = cylinder(kept.schema, {"CF.exam": "P"})
        assert kept.P.prob(cf_pass) == Fraction(31, 50)

    def test_world_drop_needs_flag(self, exam):
        s = exam.schema
        with pytest.raises(SchemaError):
            marginalize(exam, s.world_positions("F"))
        only_f = marginalize(exam, s.world_positions("F"), allow_world_drop=True)
        assert only_f.schema.worlds == ("F",)
        assert only_f.P.prob(cylinder(only_f.schema, {"F.class": "Y"})) == Fraction(16, 25)

    def test_dormant_marginalisation_strengthens_verdict(self, dormant):
        s = dormant.schema
        kept = marginalize(dormant, s.positions(["W.c1", "W.c3"]))
        ks = kept.schema
        # the first component's kernel now spreads the third uniformly
        k1 = kept.mech.get(ks.positions(["W.c1"]))
        a = cylinder(ks, {"W.c3": "0"})
        assert k1.rows[(0,)].prob(a) == Fraction(1, 2)
        assert k1.rows[(1,)].prob(a) == Fraction(1, 2)
        verdict = classify_effect(kept, ks.positions(["W.c1"]), a)
        # no dormant witness survives; certification is blocked only by the
        # kernels that were marginalised away
        assert verdict.tag == "undetermined"
        assert verdict.witness is None
        assert verdict.missing

    def test_axioms_survive(self, exam, dormant):
        for space, keep in ((exam, ["F.class", "CF.class"]),
                            (dormant, ["W.c1", "W.c3"])):
            kept = marginalize(space, space.schema.positions(keep))
            assert check_axioms(kept).ok
            assert check_cross_world(kept).ok

    def test_random_spaces_survive(self):
        rng = random.Random(99)
        for i in range(25):
            space = random_cf_space(7000 + i)
            n = len(space.schema.coords)
            keep = frozenset(p for p in range(n) if rng.random() < 0.7)
            worlds = {space.schema.coords[p].world for p in keep}
            if not keep or worlds != set(space.schema.worlds):
                continue
            kept = marginalize(space, keep)
            assert check_axioms(kept).ok
            assert check_cross_world(kept).ok


class TestBuildNway:
    def test_single_world_reduces_to_causal_space(self):
        space = build_nway(
            {"W": [("x", ("0", "1"))]},
            {("0",): Fraction(1, 3), ("1",): Fraction(2, 3)},
            kernels={("W.x",): {("0",): {("0",): 1}, ("1",): {("1",): 1}}},
        )
        assert space.schema.worlds == ("W",)
        assert check_cross_world(space).ok
        assert not check_cross_world(space).uncheckable
        assert check_axioms(space).ok

    def test_two_way_matches_fixture_numbers(self, coin_sync):
        s = coin_sync.schema
        assert synchronized(coin_sync.P, s.world_positions("F"), s.world_positions("CF"))

    def test_three_way_assembly(self):
        space = build_nway(
            {"A": [("x", ("0", "1"))], "B": [("x", ("0", "1"))], "C": [("x", ("0", "1"))]},
            {o: Fraction(1, 8) for o in
             [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]},
        )
        assert space.schema.worlds == ("A", "B", "C")
        assert check_cross_world(space).ok

    def test_labels_and_label_indices_name_the_same_space(self):
        worlds = {"F": [("c", ("H", "T"))], "CF": [("c", ("H", "T"))]}
        half = Fraction(1, 2)
        by_label = build_nway(
            worlds, {("H", "T"): half, ("T", "H"): half},
            kernels={("CF.c",): {("H",): {("H", "H"): 1}, ("T",): {("T", "T"): 1}}})
        mixed = build_nway(worlds, {(0, "T"): half, (1, 0): half},
                           kernels={("CF.c",): {(0,): {("H", 0): 1}, ("T",): {(1, 1): 1}}})
        assert mixed.P == by_label.P and mixed.P.support() == {(0, 1), (1, 0)}
        assert mixed.mech.get({1}).rows == by_label.mech.get({1}).rows
        with pytest.raises(SchemaError, match="unknown label 'X' for coordinate CF.c"):
            build_nway(worlds, {("H", "X"): 1})
        with pytest.raises(SchemaError, match="label index 2 out of range for coordinate F.c"):
            build_nway(worlds, {(2, 0): 1})

    @pytest.mark.parametrize("row", [("H", "T"), (0, 1), ()])
    def test_a_kernel_row_of_the_wrong_length_is_an_error(self, row):
        # a row naming more labels than the kernel has coordinates is not cut short
        with pytest.raises(SchemaError, match=r"does not match the coordinates \(0,\)"):
            build_nway({"F": [("c", ("H", "T"))]}, {("H",): Fraction(1, 2), ("T",): Fraction(1, 2)},
                       kernels={("F.c",): {row: {("H",): 1}, ("T",): {("T",): 1}}})


class TestInterventionSymmetry:
    def test_symmetric_intervention_preserves_symmetry(self):
        from cfspaces import SCMModel, StructuralEq, compile_scm

        xor = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
        ident = {("0",): "0", ("1",): "1"}
        chain = SCMModel(
            noise=[("Ux", ("0", "1")), ("Uy", ("0", "1"))],
            noise_dist={(a, b): Fraction(1, 4) for a in "01" for b in "01"},
            endo=[("X", ("0", "1")), ("Y", ("0", "1"))],
            eqs={"X": StructuralEq("X", (), ("Ux",), ident),
                 "Y": StructuralEq("Y", ("X",), ("Uy",), xor)},
        )
        space = compile_scm(chain)
        assert is_symmetric(space).ok
        s = space.schema
        u = s.positions(["F.X", "CF.X"])
        q = Margin(s, u, {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 6),
                          (1, 0): Fraction(1, 6), (1, 1): Fraction(1, 3)})
        assert is_symmetric(intervene(space, u, q)).ok

    def test_one_world_intervention_breaks_symmetry(self):
        from cfspaces import SCMModel, StructuralEq, compile_scm

        ident = {("0",): "0", ("1",): "1"}
        model = SCMModel(
            noise=[("U", ("0", "1"))],
            noise_dist={("0",): Fraction(1, 2), ("1",): Fraction(1, 2)},
            endo=[("V", ("0", "1"))],
            eqs={"V": StructuralEq("V", (), ("U",), ident)},
        )
        space = compile_scm(model)
        assert is_symmetric(space).ok
        u = space.schema.positions(["CF.V"])
        done = intervene(space, u, Margin.point(space.schema, {"CF.V": "1"}))
        assert not is_symmetric(done).ok
