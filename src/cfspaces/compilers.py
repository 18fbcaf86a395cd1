"""Compile structural and potential-outcome models into explicit spaces.

Structural equations are finite function tables keyed by parent and noise
label tuples, never code, so compilation is purely enumerative and
acyclicity is a static digraph check.  Every compiled measure is the image
of one finite law: a standard model pushes its noise law through the twin
network, worlds F and CF sharing the noise, and each kernel row does the
same with the intervened variables fixed in their world's sub-model; a
backtracking coupling pushes a joint law over two noise copies through one
model (and carries no kernels); a potential-outcome model pushes its unit
law into an (N+1)-way probability space, worlds W1..WN, one per treatment
assignment, plus the observed world OBS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .measure import Measure, ints, law, pushforward
from .mechanism import CfSpace, Kernel, Mechanism
from .space import Coordinate, SpaceSchema, budget

# World names of the compiled spaces: factual and counterfactual copies of
# a structural model, and the observed world of a potential-outcome model.
F, CF, OBS = "F", "CF", "OBS"


class CyclicModelError(ValueError):
    """The parent digraph has a cycle, so potential responses are undefined."""


@dataclass(frozen=True)
class StructuralEq:
    """One endogenous variable's function table over its parents and noises."""

    target: str
    parents: tuple[str, ...]
    noises: tuple[str, ...]
    table: Mapping  # (parent labels..., noise labels...) -> output label


class SCMModel:
    """Exogenous noise with a joint law plus deterministic function tables."""

    def __init__(self, noise, noise_dist, endo, eqs):
        self.noise = tuple((name, tuple(labels)) for name, labels in noise)
        self.endo = tuple((name, tuple(labels)) for name, labels in endo)
        self.noise_names = tuple(n for n, _ in self.noise)
        self.endo_names = tuple(n for n, _ in self.endo)
        if len(set(self.noise_names + self.endo_names)) != len(self.noise_names) + len(self.endo_names):
            raise ValueError("noise and endogenous variable names must be distinct")
        noise_domains = dict(self.noise)
        endo_domains = dict(self.endo)
        noise_dist = {tuple(u): q for u, q in noise_dist.items()}
        for u in noise_dist:
            if len(u) != len(self.noise) or any(
                    lab not in noise_domains[n] for (n, _), lab in zip(self.noise, u)):
                raise ValueError(f"noise assignment {u!r} does not match the noise variables")
        self.noise_dist = law(noise_dist, "noise")
        self.eqs = {}
        for name in self.endo_names:
            if name not in eqs:
                raise ValueError(f"no structural equation for {name}")
        for name, eq in eqs.items():
            if name not in endo_domains:
                raise ValueError(f"equation target {name!r} is not an endogenous variable")
            if eq.target != name:
                raise ValueError(f"equation registered under {name!r} targets {eq.target!r}")
            for p in eq.parents:
                if p not in endo_domains:
                    raise ValueError(f"invalid parent {p!r} for {name}")
            for u in eq.noises:
                if u not in noise_domains:
                    raise ValueError(f"invalid noise input {u!r} for {name}")
            domain = [endo_domains[p] for p in eq.parents] + [noise_domains[u] for u in eq.noises]
            budget(math.prod(map(len, domain)))
            rows = set(itertools.product(*domain))
            given = {tuple(k) for k in eq.table}
            if given != rows:
                raise ValueError(f"function table for {name} does not cover its input domain")
            for k, out in eq.table.items():
                if out not in endo_domains[name]:
                    raise ValueError(f"function table for {name} outputs unknown label {out!r}")
            self.eqs[name] = eq

    def topo_order(self, fixed=frozenset()) -> tuple[str, ...]:
        """Evaluation order of the endogenous variables; rejects cycles.

        Variables in `fixed` are treated as constants (their incoming edges
        are cut), matching sub-model evaluation.
        """
        remaining = {
            n: set(self.eqs[n].parents) - set(fixed)
            for n in self.endo_names if n not in fixed
        }
        order = list(fixed)
        while remaining:
            ready = sorted(n for n, deps in remaining.items() if not deps - set(order))
            if not ready:
                raise CyclicModelError(
                    f"structural equations are cyclic among {sorted(remaining)}")
            for n in ready:
                order.append(n)
                del remaining[n]
        return tuple(n for n in order if n not in fixed)

    def evaluate(self, u, interventions: Mapping | None = None) -> dict:
        """Solve the (sub-)model for one noise assignment.

        `interventions` maps variable names to forced labels; the remaining
        equations are evaluated in topological order.
        """
        values = dict(interventions or {})
        return self._evaluate(u, values, self.topo_order(frozenset(values)))

    def _evaluate(self, u, values: dict, order: tuple) -> dict:
        """`evaluate` along an order already computed, filling in `values`."""
        noise_values = dict(zip(self.noise_names, u))
        for name in order:
            eq = self.eqs[name]
            key = tuple(values[p] for p in eq.parents) + tuple(noise_values[un] for un in eq.noises)
            values[name] = eq.table[key]
        return values


def _two_world_schema(model: SCMModel):
    """The F/CF schema, and the map from a solution of the model to its half
    outcome: one label index per endogenous variable, in declaration order."""
    schema = SpaceSchema([Coordinate(w, name, labels) for w in (F, CF) for name, labels in model.endo])
    index = list(zip(model.endo_names, schema.label_maps))  # world F's coordinates
    return schema, lambda values: tuple(ix[values[name]] for name, ix in index)


def _plan(pf: tuple, pc: tuple, weights: tuple) -> tuple:
    """The noise law on the joint blocks of two partitions of its rows: the
    blocks in order of first occurrence, and weights with no common factor."""
    blocks: dict = {}
    for key, w in zip(zip(pf, pc), weights):
        blocks[key] = blocks.get(key, 0) + w
    g = math.gcd(*blocks.values())
    return tuple(blocks), tuple(w // g for w in blocks.values())


def compile_scm(model: SCMModel) -> CfSpace:
    """Compile a structural model into a two-world causal space.

    Both worlds share the exogenous noise: the measure and every kernel row
    are the image of the noise law under the twin network, the pair of
    sub-model solutions for one noise row.  A row fixes the intervened
    variables in its world's sub-model; the measure fixes none, so the
    pre-intervention worlds are synchronised.  A row reads its sub-models
    through the partitions of the noise rows they solve alike, and each
    pair of partitions is summed once.  Only the measure is built here,
    which rejects a cyclic model; each kernel is built when first read.
    """
    schema, half = _two_world_schema(model)
    n = len(model.endo_names)
    weights = tuple(ints(model.noise_dist)[0].values())
    halves: dict = {}
    partitions: dict = {}  # one tuple per partition, so plan keys compare by identity
    plans: dict = {}  # (F partition, CF partition) -> _plan of the pair
    shared: dict = {}  # one tuple per outcome, however many rows hold it

    def solve(interventions: tuple) -> tuple:
        """The sub-model's distinct half outcomes and their blocks of noise rows, solved once."""
        if interventions not in halves:
            order = model.topo_order(frozenset(dict(interventions)))  # rejects a cyclic model
            blocks: dict = {}
            part = tuple(blocks.setdefault(half(model._evaluate(u, dict(interventions), order)),
                                           len(blocks)) for u in model.noise_dist)
            halves[interventions] = tuple(blocks), partitions.setdefault(part, part)
        return halves[interventions]

    def twin(f: tuple, cf: tuple) -> Measure:
        (hf, pf), (hc, pc) = f, cf
        if (pf, pc) not in plans:
            plans[pf, pc] = _plan(pf, pc, weights)
        blocks, nums = plans[pf, pc]
        outcomes = [hf[a] + hc[b] for a, b in blocks]
        return Measure._of(schema, schema.all_on,
                           dict(zip(map(shared.setdefault, outcomes, outcomes), nums)))

    def side(positions: list) -> list:
        """Each row over positions of one world, with its sub-model solved."""
        coords = [schema.coords[p] for p in positions]
        return [(row, solve(tuple((c.name, c.labels[v]) for c, v in zip(coords, row))))
                for row in schema.rows(positions)]

    def kernel(S: frozenset) -> Kernel:
        factual, counterfactual = sorted(p for p in S if p < n), sorted(p for p in S if p >= n)
        rows = itertools.product(side(factual), side(counterfactual))
        return Kernel._of(schema, S, {rf + rc: twin(f, cf) for (rf, f), (rc, cf) in rows})

    P = twin(solve(()), solve(()))
    return CfSpace(schema, P, Mechanism(schema, P, _build=kernel))


def compile_backtracking(model: SCMModel, coupling) -> CfSpace:
    """Compile a backtracking coupling of two noise copies of one model.

    The joint law over the noise copies (u, u*) replaces forced noise
    sharing: the measure is its image under (solution at u, solution at u*).
    No intervention takes place in either world, so the result carries no
    mechanism.  A diagonal coupling reproduces the standard compilation's
    measure.
    """
    schema, half = _two_world_schema(model)
    budget(math.prod(len(labels) for _, labels in model.noise))
    noise_rows = set(itertools.product(*(labels for _, labels in model.noise)))
    coupling = {(tuple(u), tuple(u_star)): q for (u, u_star), q in coupling.items()}
    for u, u_star in coupling:
        if u not in noise_rows or u_star not in noise_rows:
            raise ValueError(f"coupling entry ({u!r}, {u_star!r}) does not match the noise domain")
    coupling, _ = ints(law(coupling, "coupling"))
    halves = {u: half(model.evaluate(u)) for u in set(itertools.chain.from_iterable(coupling))}
    P = Measure._of(schema, schema.all_on, pushforward(
        (halves[u] + halves[u_star], n) for (u, u_star), n in coupling.items()))
    return CfSpace(schema, P, None)


class POModel:
    """Unit-level potential outcomes over finite endogenous variables."""

    def __init__(self, units, unit_dist, endo, observed, potentials):
        self.units = tuple(units)
        if len(set(self.units)) != len(self.units):
            raise ValueError("duplicate units")
        self.endo = tuple((name, tuple(labels)) for name, labels in endo)
        domains = dict(self.endo)
        for unit in unit_dist:
            if unit not in self.units:
                raise ValueError(f"unknown unit {unit!r}")
        self.unit_dist = law(unit_dist, "unit")

        def check_fn(fn, var, what):
            if set(fn) != set(self.units):
                raise ValueError(f"{what} for {var} is not total over the units")
            for unit, lab in fn.items():
                if lab not in domains[var]:
                    raise ValueError(f"{what} for {var} outputs unknown label {lab!r}")

        self.observed = {}
        for name, _ in self.endo:
            if name not in observed:
                raise ValueError(f"no observed function for {name}")
        for var, fn in observed.items():
            if var not in domains:
                raise ValueError(f"unknown observed variable {var!r}")
            check_fn(fn, var, "observed function")
            self.observed[var] = dict(fn)
        self.potentials = {}
        for (var, assignment), fn in potentials.items():
            assignment = tuple(sorted(dict(assignment).items()))
            if var not in domains:
                raise ValueError(f"unknown potential-outcome variable {var!r}")
            for x_var, x_lab in assignment:
                if x_var not in domains or x_lab not in domains[x_var]:
                    raise ValueError(f"invalid treatment assignment {assignment!r}")
            check_fn(fn, var, "potential-outcome function")
            self.potentials[(var, assignment)] = dict(fn)

    def assignments(self) -> tuple[tuple, ...]:
        """Distinct treatment assignments, in first-appearance order."""
        seen = []
        for _, assignment in self.potentials:
            if assignment not in seen:
                seen.append(assignment)
        return tuple(seen)


def compile_po(model: POModel) -> CfSpace:
    """Compile a potential-outcome model into an (N+1)-way probability space.

    One world W1..WN per distinct treatment assignment, carrying the
    variables that have a potential-outcome function under it, plus the
    observed world OBS carrying every endogenous variable.  The measure is
    the pushforward of the unit law through all the functions jointly; no
    mechanism is emitted.
    """
    assignments = model.assignments()
    endo_order = tuple(name for name, _ in model.endo)
    domains = dict(model.endo)
    coords = []
    columns = []  # the function table of each coordinate
    for j, assignment in enumerate(assignments, start=1):
        world = f"W{j}"
        for name in endo_order:
            if (name, assignment) in model.potentials:
                coords.append(Coordinate(world, name, domains[name]))
                columns.append(model.potentials[(name, assignment)])
    for name in endo_order:
        coords.append(Coordinate(OBS, name, domains[name]))
        columns.append(model.observed[name])
    schema = SpaceSchema(coords)
    P = Measure._of(schema, schema.all_on, pushforward(
        (tuple(ix[fn[unit]] for fn, ix in zip(columns, schema.label_maps)), n)
        for unit, n in ints(model.unit_dist)[0].items()))
    return CfSpace(schema, P, None)
