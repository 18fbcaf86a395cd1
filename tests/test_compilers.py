import itertools
import random
from fractions import Fraction

import pytest

from cfspaces import (
    CyclicModelError,
    DerivationReport,
    Margin,
    POModel,
    SCMModel,
    SchemaError,
    StructuralEq,
    check_axioms,
    check_cross_world,
    compile_backtracking,
    compile_po,
    compile_scm,
    condition_event,
    cylinder,
    independent_sigmas,
    intervene,
    marginalize,
    synchronized,
)
from cfspaces.measure import ints, law

from oracle_util import (
    brute_compile_backtracking,
    brute_compile_po,
    brute_compile_scm,
    brute_intervene,
)
from randspaces import rand_law, random_dag_model, random_margin, random_subset

XOR = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
IDENT = {("0",): "0", ("1",): "1"}


def one_var_model():
    return SCMModel(
        noise=[("U", ("0", "1"))],
        noise_dist={("0",): Fraction(1, 2), ("1",): Fraction(1, 2)},
        endo=[("V", ("0", "1"))],
        eqs={"V": StructuralEq("V", (), ("U",), IDENT)},
    )


def chain_model():
    return SCMModel(
        noise=[("Ux", ("0", "1")), ("Uy", ("0", "1"))],
        noise_dist={(a, b): Fraction(1, 4) for a in "01" for b in "01"},
        endo=[("X", ("0", "1")), ("Y", ("0", "1"))],
        eqs={"X": StructuralEq("X", (), ("Ux",), IDENT),
             "Y": StructuralEq("Y", ("X",), ("Uy",), XOR)},
    )


def random_model(seed):
    """A random acyclic model: V1 <- noise, V2 <- (V1, noise), binary."""
    rng = random.Random(seed)

    def table(arity):
        keys = list(itertools.product("01", repeat=arity))
        return {k: rng.choice("01") for k in keys}

    return SCMModel(
        noise=[("U1", ("0", "1")), ("U2", ("0", "1"))],
        noise_dist=rand_dist(rng),
        endo=[("V1", ("0", "1")), ("V2", ("0", "1"))],
        eqs={"V1": StructuralEq("V1", (), ("U1",), table(1)),
             "V2": StructuralEq("V2", ("V1",), ("U2",), table(2))},
    )


def rand_dist(rng):
    cells = list(itertools.product("01", repeat=2))
    while True:
        ws = [rng.randrange(0, 5) for _ in cells]
        if sum(ws):
            break
    total = sum(ws)
    return {c: Fraction(w, total) for c, w in zip(cells, ws)}


def random_po_model(rng):
    units = tuple(f"u{i}" for i in range(rng.randint(2, 5)))
    endo = [("X", ("0", "1")), ("Y", ("p", "q", "r"))]
    domains = dict(endo)

    def fn(var):
        return {u: rng.choice(domains[var]) for u in units}

    potentials = {}
    for x in ("0", "1"):
        if rng.random() < 0.7:
            potentials[("Y", (("X", x),))] = fn("Y")
    if rng.random() < 0.5:
        potentials[("X", (("Y", "p"),))] = fn("X")
    return POModel(units, rand_law(rng, units), endo, {"X": fn("X"), "Y": fn("Y")}, potentials)


def noise_law(weights):
    model = SCMModel([("U", ("0", "1"))], weights, [("V", ("0", "1"))],
                     {"V": StructuralEq("V", (), ("U",), IDENT)})
    return model.noise_dist


def coupling_law(weights):
    # V copies U, so the outcome (i, j) is the noise pair (i, j)
    space = compile_backtracking(one_var_model(), weights)
    return {((str(i),), (str(j),)): q for (i, j), q in space.P.as_dict().items()}


def unit_law(weights):
    model = POModel(("0", "1"), weights, [("X", ("0", "1"))], {"X": {"0": "0", "1": "1"}}, {})
    return model.unit_dist


@pytest.mark.parametrize("what, build, keys, outside, outside_error", [
    ("noise", noise_law, [("0",), ("1",)], ("2",), "does not match the noise variables"),
    ("coupling", coupling_law, [(("0",), ("0",)), (("0",), ("1",))], (("0",), ("2",)),
     "does not match the noise domain"),
    ("unit", unit_law, ["0", "1"], "2", "unknown unit"),
])
def test_law_checks(what, build, keys, outside, outside_error):
    a, b = keys
    with pytest.raises(ValueError, match=f"^negative {what} weight -1/2"):
        build({a: Fraction(3, 2), b: Fraction(-1, 2)})
    with pytest.raises(ValueError, match=f"^{what} weights sum to 1/2, not 1$"):
        build({a: Fraction(1, 2)})
    with pytest.raises(ValueError, match=outside_error):
        build({a: 1, outside: 0})
    dropped = build({a: 1, b: 0})
    assert dropped == {a: 1} and all(type(q) is Fraction for q in dropped.values())
    coerced = build({a: "1/3", b: "2/3"})
    assert coerced == {a: Fraction(1, 3), b: Fraction(2, 3)}
    assert all(type(q) is Fraction for q in coerced.values())


class TestAgainstEnumeration:
    """The compilers against brute enumeration of the noise rows, the
    coupling or the units (tests/oracle_util.py)."""

    def test_scm_measure_and_every_kernel_row(self):
        # Random tables merge noise rows differently per forced label, so
        # rows of one kernel pair up different partitions of the noise rows;
        # the later models have three binary or ternary noise variables.
        reduced = 0
        for seed in range(20):
            rng = random.Random(7000 + seed)
            if seed < 12:
                model = random_dag_model(rng, 2 + seed % 2)
            else:
                noise_labels = ("a", "b", "c") if seed % 4 >= 2 else ("a", "b")
                model = random_dag_model(rng, 2 + seed % 2, (3, 3), noise_labels)
            space = compile_scm(model)
            noise_den = ints(model.noise_dist)[1]
            names = [name for name, _ in model.endo]
            assert [c.key for c in space.schema.coords] == (
                [f"F.{v}" for v in names] + [f"CF.{v}" for v in names])
            P, kernels = brute_compile_scm(model, space)
            assert space.P.as_dict() == P
            assert len(kernels) == 1 << len(space.schema.coords)
            for S in rng.sample(sorted(kernels, key=sorted), len(kernels)):
                k = space.mech.get(S)
                assert {r: m.as_dict() for r, m in k.rows.items()} == kernels[S]
                # rows whose block weights share a factor the noise law's lack
                reduced += sum(m._d < noise_den for m in k.rows.values())
            # Intervening on a compiled space none of whose kernels was read
            # matches the eager definition on the space read in full.
            U = random_subset(rng, space.schema.all_positions)
            Q = random_margin(rng, space.schema, U, dirac=seed % 3 == 0)
            got = intervene(compile_scm(model), U, Q)
            want, derived, dropped = brute_intervene(space, U, Q)
            assert got.P == want.P
            for S in rng.sample(derived, len(derived)):
                assert got.mech.get(S).rows == want.mech.get(S).rows
            assert got.derivation == DerivationReport(derived, dropped)
        assert reduced > 1000

    def test_backtracking_coupling(self):
        for seed in range(8):
            rng = random.Random(7100 + seed)
            model = random_dag_model(rng, 1 + seed % 3)
            noise_rows = list(itertools.product(*(ls for _, ls in model.noise)))
            coupling = rand_law(rng, list(itertools.product(noise_rows, noise_rows)))
            space = compile_backtracking(model, coupling)
            assert space.P.as_dict() == brute_compile_backtracking(model, coupling, space.schema)

    def test_po_unit_law(self):
        for seed in range(8):
            model = random_po_model(random.Random(7200 + seed))
            space = compile_po(model)
            assert space.schema.worlds[-1] == "OBS"
            assert space.P.as_dict() == brute_compile_po(model, space.schema)


def test_trusted_measures_are_already_laws():
    """Measures built on the trusted path skip `law`; each must already be
    what `law` returns: nonzero Fractions summing to one."""
    rng = random.Random(8800)
    checked = 0
    for seed in range(8):
        space = compile_scm(random_dag_model(rng, 2 + seed % 2))
        schema = space.schema
        U = frozenset(rng.sample(sorted(schema.all_positions), rng.randint(1, 2)))
        after = intervene(space, U, Margin(schema, U, rand_law(rng, list(schema.rows(U)))))
        twice = intervene(after, U, Margin.uniform(schema, U))
        margins = [Margin.uniform(schema, U)]
        for s in (space, after, twice):
            margins.append(s.P)
            margins += [m for k in s.mech.kernels() for m in k.rows.values()]
            event = cylinder(schema, {0: schema.outcomes()[0][0]})
            if s.P.prob(event):
                margins.append(condition_event(s.P, event))
            margins += [s.P.marginal(schema.world_positions(w)) for w in schema.worlds]
            margins.append(marginalize(s, schema.world_positions("CF"), allow_world_drop=True).P)
        for m in margins:
            w = m.as_dict()
            assert all(type(q) is Fraction for q in w.values())
            assert law(w) == w
            checked += 1
    assert checked > 2000


class TestCompileSCM:
    def test_shared_noise_forces_the_synchronised_coin(self):
        space = compile_scm(one_var_model())
        assert sorted(space.P.items()) == [
            ((0, 0), Fraction(1, 2)), ((1, 1), Fraction(1, 2))]

    def test_chain_intervention_marginals(self):
        # noise pairs (ux, uy) each 1/4: X = ux, Y = ux xor uy; forcing
        # X* = 1 gives Y* = 1 xor uy, so Y* = 1 exactly when uy = 0
        space = compile_scm(chain_model())
        s = space.schema
        k = space.mech.get(s.positions(["CF.X"]))
        m = k.rows[(1,)]
        assert m.prob(cylinder(s, {"CF.Y": "1"})) == Fraction(1, 2)
        # the factual marginal is untouched by the counterfactual forcing
        for fx in ("0", "1"):
            want = space.P.prob(cylinder(s, {"F.X": fx}))
            assert m.prob(cylinder(s, {"F.X": fx})) == want

    def test_output_is_a_valid_counterfactual_causal_space(self):
        for seed in range(12):
            space = compile_scm(random_model(seed))
            assert check_axioms(space).ok
            assert check_cross_world(space).ok
            assert not check_cross_world(space).uncheckable

    def test_pre_intervention_worlds_synchronized(self):
        for seed in range(12):
            space = compile_scm(random_model(100 + seed))
            s = space.schema
            assert synchronized(space.P, s.world_positions("F"), s.world_positions("CF"))

    def test_abduction_action_prediction(self):
        # conditioning on a factual observation, then intervening in the
        # other world, reproduces the noise-posterior calculation
        model = chain_model()
        space = compile_scm(model)
        s = space.schema
        u = s.positions(["CF.X"])
        for z in itertools.product("01", repeat=2):
            g = cylinder(s, {"F.X": z[0], "F.Y": z[1]})
            pz = space.P.prob(g)
            if pz == 0:
                continue
            for x_star in "01":
                done = intervene(space, u, Margin.point(s, {"CF.X": x_star}))
                got = condition_event(done.P, g).prob(cylinder(s, {"CF.Y": "1"}))
                # oracle: enumerate the noise posterior by hand
                num = den = Fraction(0)
                for ux in "01":
                    for uy in "01":
                        q = model.noise_dist[(ux, uy)]
                        vals = model.evaluate((ux, uy))
                        if (vals["X"], vals["Y"]) != z:
                            continue
                        den += q
                        star = model.evaluate((ux, uy), {"X": x_star})
                        if star["Y"] == "1":
                            num += q
                assert got == num / den

    def test_cyclic_model_rejected(self):
        flip = {("0",): "1", ("1",): "0"}
        with pytest.raises(CyclicModelError):
            SCMModel(
                noise=[("U", ("0",))],
                noise_dist={("0",): Fraction(1)},
                endo=[("A", ("0", "1")), ("B", ("0", "1"))],
                eqs={"A": StructuralEq("A", ("B",), (), flip),
                     "B": StructuralEq("B", ("A",), (), flip)},
            ).topo_order()

    def test_seven_variables_build_only_the_kernels_read(self):
        # 2^14 kernels: compiling builds the empty one, and intervening on
        # {0} then reading the kernel on {1} builds two more; the intervened
        # mechanism holds its empty kernel, the new measure, and the one on {1}
        n = 7
        model = SCMModel(
            noise=[(f"U{i}", ("0", "1")) for i in range(n)],
            noise_dist={k: Fraction(1, 2 ** n)
                        for k in itertools.product("01", repeat=n)},
            endo=[(f"V{i}", ("0", "1")) for i in range(n)],
            eqs={f"V{i}": StructuralEq(f"V{i}", (), (f"U{i}",), IDENT)
                 for i in range(n)},
        )
        space = compile_scm(model)
        s = space.schema
        assert repr(space.mech) == "Mechanism(kernels built: 1)"
        done = intervene(space, {0}, Margin.point(s, {"F.V0": "1"}))
        assert done.P.prob(cylinder(s, {"F.V0": "1", "CF.V0": "0"})) == Fraction(1, 2)
        assert done.mech.get({1}).measure((1,)).prob(cylinder(s, {"F.V0": "1"})) == 1
        assert repr(space.mech) == "Mechanism(kernels built: 3)"
        assert repr(done.mech) == "Mechanism(kernels built: 2)"


def test_model_domains_over_the_budget_are_refused():
    # 21 binary noise variables under a point law: 2^21 noise rows, none listed
    # to compile, but listed to check a function table or a coupling
    noise = [(f"U{i}", ("0", "1")) for i in range(21)]
    zero = ("0",) * 21
    refused = "^2097152 rows to list, beyond the budget of 1048576$"
    wide = StructuralEq("V", (), tuple(name for name, _ in noise), {})
    with pytest.raises(SchemaError, match=refused):
        SCMModel(noise, {zero: 1}, [("V", ("0", "1"))], {"V": wide})
    model = SCMModel(noise, {zero: 1}, [("V", ("0", "1"))],
                     {"V": StructuralEq("V", (), ("U0",), IDENT)})
    assert compile_scm(model).P.as_dict() == {(0, 0): 1}
    with pytest.raises(SchemaError, match=refused):
        compile_backtracking(model, {(zero, zero): 1})


class TestBacktracking:
    def test_diagonal_coupling_equals_standard_compilation(self):
        for model in (one_var_model(), chain_model()):
            rows = list(model.noise_dist)
            diag = {(u, u): model.noise_dist[u] for u in rows}
            assert compile_backtracking(model, diag).P == compile_scm(model).P

    def test_product_coupling_makes_worlds_independent(self):
        model = chain_model()
        prod = {
            (u, v): model.noise_dist[u] * model.noise_dist[v]
            for u in model.noise_dist for v in model.noise_dist
        }
        space = compile_backtracking(model, prod)
        s = space.schema
        assert independent_sigmas(space.P, s.world_positions("F"),
                                  s.world_positions("CF"))

    def test_no_mechanism_emitted(self):
        model = one_var_model()
        diag = {(u, u): q for u, q in model.noise_dist.items()}
        assert compile_backtracking(model, diag).mech is None

    def test_hand_enumerated_coupling(self):
        # one binary variable copied from its noise; the coupling puts 1/2
        # on (0,0), 1/4 on (0,1) and 1/4 on (1,1)
        model = one_var_model()
        pb = {(("0",), ("0",)): Fraction(1, 2),
              (("0",), ("1",)): Fraction(1, 4),
              (("1",), ("1",)): Fraction(1, 4)}
        space = compile_backtracking(model, pb)
        assert space.P.as_dict() == {
            (0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 1): Fraction(1, 4)}


def toy_po_model():
    units = ("always", "never", "complier", "defier")
    return POModel(
        units=units,
        unit_dist={u: Fraction(1, 4) for u in units},
        endo=[("X", ("0", "1")), ("Y", ("P", "F"))],
        observed={"X": {"always": "1", "never": "0", "complier": "1", "defier": "0"},
                  "Y": {"always": "P", "never": "F", "complier": "P", "defier": "P"}},
        potentials={
            ("Y", (("X", "1"),)): {"always": "P", "never": "F",
                                   "complier": "P", "defier": "F"},
            ("Y", (("X", "0"),)): {"always": "P", "never": "F",
                                   "complier": "F", "defier": "P"},
        },
    )


class TestCompilePO:
    def test_three_way_layout(self):
        space = compile_po(toy_po_model())
        assert space.schema.worlds == ("W1", "W2", "OBS")
        assert [c.key for c in space.schema.coords] == [
            "W1.Y", "W2.Y", "OBS.X", "OBS.Y"]
        assert space.mech is None
        assert check_cross_world(space).ok

    def test_complier_probability(self):
        # exactly the complier unit passes under treatment and fails
        # without it, so the cross-world rectangle has one quarter mass
        space = compile_po(toy_po_model())
        s = space.schema
        q = space.P.prob(cylinder(s, {"W1.Y": "P", "W2.Y": "F"}))
        assert q == Fraction(1, 4)

    def test_observed_world_marginal_is_the_pushforward(self):
        model = toy_po_model()
        space = compile_po(model)
        s = space.schema
        for x in ("0", "1"):
            for y in ("P", "F"):
                want = sum(
                    (model.unit_dist[u] for u in model.units
                     if model.observed["X"][u] == x and model.observed["Y"][u] == y),
                    Fraction(0))
                assert space.P.prob(cylinder(s, {"OBS.X": x, "OBS.Y": y})) == want

    def test_single_assignment_two_worlds(self):
        model = toy_po_model()
        single = POModel(
            units=model.units,
            unit_dist=model.unit_dist,
            endo=model.endo,
            observed=model.observed,
            potentials={("Y", (("X", "1"),)): model.potentials[("Y", (("X", "1"),))]},
        )
        space = compile_po(single)
        assert space.schema.worlds == ("W1", "OBS")

    def test_empty_assignment_one_world(self):
        model = toy_po_model()
        bare = POModel(model.units, model.unit_dist, model.endo, model.observed, {})
        space = compile_po(bare)
        assert space.schema.worlds == ("OBS",)
        assert check_cross_world(space).ok

    def test_missing_function_rejected(self):
        model = toy_po_model()
        broken = dict(model.potentials)
        broken[("Y", (("X", "1"),))] = {"always": "P"}
        with pytest.raises(ValueError, match="total"):
            POModel(model.units, model.unit_dist, model.endo, model.observed, broken)
