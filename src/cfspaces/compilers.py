"""Compile structural and potential-outcome models into explicit spaces.

Structural equations are finite function tables keyed by parent and noise
label tuples, never code, so compilation is purely enumerative and
acyclicity is a static digraph check.  A standard model compiles to a
two-world causal space whose worlds share the exogenous noise; a
backtracking coupling replaces forced noise sharing with an arbitrary joint
law over two noise copies (and carries no kernels); a potential-outcome
model compiles to an (N+1)-way probability space, one world per treatment
value plus the observed world.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .measure import Measure
from .mechanism import CfSpace, Kernel, Mechanism
from .space import Coordinate, SpaceSchema

# Materialising a full mechanism is exponential in the coordinate count;
# beyond this budget the caller must list the kernel sets it wants.
KERNEL_BUDGET = 4096


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
        total = Fraction(0)
        self.noise_dist = {}
        for u, q in noise_dist.items():
            u = tuple(u)
            if len(u) != len(self.noise) or any(
                    lab not in noise_domains[n] for (n, _), lab in zip(self.noise, u)):
                raise ValueError(f"noise assignment {u!r} does not match the noise variables")
            q = Fraction(q)
            if q < 0:
                raise ValueError("negative noise weight")
            total += q
            if q:
                self.noise_dist[u] = q
        if total != 1:
            raise ValueError(f"noise weights sum to {total}, not 1")
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
                if p not in endo_domains or p == name:
                    raise ValueError(f"invalid parent {p!r} for {name}")
            for u in eq.noises:
                if u not in noise_domains:
                    raise ValueError(f"invalid noise input {u!r} for {name}")
            domain = [endo_domains[p] for p in eq.parents] + [noise_domains[u] for u in eq.noises]
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
        interventions = dict(interventions or {})
        values = dict(interventions)
        noise_values = dict(zip(self.noise_names, u))
        for name in self.topo_order(frozenset(interventions)):
            eq = self.eqs[name]
            key = tuple(values[p] for p in eq.parents) + tuple(noise_values[un] for un in eq.noises)
            values[name] = eq.table[tuple(key)]
        return values

    def same_structure(self, other: "SCMModel") -> bool:
        return (
            self.noise == other.noise
            and self.endo == other.endo
            and {n: (e.parents, e.noises, dict(e.table)) for n, e in self.eqs.items()}
            == {n: (e.parents, e.noises, dict(e.table)) for n, e in other.eqs.items()}
        )


def _two_world_schema(model: SCMModel, worlds=("F", "CF")) -> SpaceSchema:
    coords = [Coordinate(w, name, labels) for w in worlds for name, labels in model.endo]
    return SpaceSchema(coords)


def compile_scm(model: SCMModel, worlds=("F", "CF"), kernel_sets=None) -> CfSpace:
    """Compile a structural model into a two-world causal space.

    Both worlds share the exogenous noise, so the pre-intervention worlds
    are synchronised.  Each kernel row fixes the intervened variables in
    its world's sub-model and pushes the noise law through both solutions.
    The full mechanism is emitted when it fits the kernel budget; otherwise
    `kernel_sets` must list the wanted coordinate sets.
    """
    model.topo_order()  # rejects cyclic models up front
    schema = _two_world_schema(model, worlds)
    n = len(model.endo_names)
    label_index = {
        name: {lab: i for i, lab in enumerate(labels)} for name, labels in model.endo
    }

    def outcome_of(values_f: Mapping, values_cf: Mapping) -> tuple:
        return tuple(
            [label_index[name][values_f[name]] for name in model.endo_names]
            + [label_index[name][values_cf[name]] for name in model.endo_names]
        )

    solutions = {u: model.evaluate(u) for u in model.noise_dist}
    weights: dict = {}
    for u, q in model.noise_dist.items():
        key = outcome_of(solutions[u], solutions[u])
        weights[key] = weights.get(key, Fraction(0)) + q
    P = Measure(schema, weights, _trusted=True)

    if kernel_sets is None:
        if (1 << (2 * n)) > KERNEL_BUDGET:
            raise ValueError(
                "full mechanism exceeds the kernel budget; pass kernel_sets explicitly")
        kernel_sets = [
            frozenset(c) for r in range(2 * n + 1)
            for c in itertools.combinations(range(2 * n), r)
        ]
    kernels = []
    sub_cache: dict = {}

    def solve(interventions: tuple) -> dict:
        if interventions not in sub_cache:
            sub_cache[interventions] = {
                u: model.evaluate(u, dict(interventions)) for u in model.noise_dist
            }
        return sub_cache[interventions]

    for S in kernel_sets:
        S = schema.positions(S)
        pos = sorted(S)
        rows = {}
        for row in schema.rows(S):
            do_f, do_cf = [], []
            for p, v in zip(pos, row):
                coord = schema.coords[p]
                (do_f if p < n else do_cf).append((coord.name, coord.labels[v]))
            sol_f = solve(tuple(sorted(do_f)))
            sol_cf = solve(tuple(sorted(do_cf)))
            w: dict = {}
            for u, q in model.noise_dist.items():
                key = outcome_of(sol_f[u], sol_cf[u])
                w[key] = w.get(key, Fraction(0)) + q
            rows[row] = Measure(schema, w, _trusted=True)
        kernels.append(Kernel(schema, S, rows))
    return CfSpace(schema, P, Mechanism(schema, P, kernels))


def compile_backtracking(model: SCMModel, coupling, model_star: SCMModel | None = None,
                         worlds=("F", "CF")) -> CfSpace:
    """Compile a backtracking coupling of two identical models.

    The joint law over the two noise copies replaces forced noise sharing;
    no intervention takes place in either world, so the result carries no
    mechanism.  A diagonal coupling reproduces the standard compilation's
    measure.
    """
    if model_star is None:
        model_star = model
    elif not model.same_structure(model_star):
        raise ValueError("backtracking requires structurally identical models")
    model.topo_order()
    schema = _two_world_schema(model, worlds)
    label_index = {
        name: {lab: i for i, lab in enumerate(labels)} for name, labels in model.endo
    }
    noise_rows = set(itertools.product(*(labels for _, labels in model.noise)))
    total = Fraction(0)
    resolved = {}
    for (u, u_star), q in coupling.items():
        u, u_star = tuple(u), tuple(u_star)
        if u not in noise_rows or u_star not in noise_rows:
            raise ValueError(f"coupling entry ({u!r}, {u_star!r}) does not match the noise domain")
        q = Fraction(q)
        if q < 0:
            raise ValueError("negative coupling weight")
        total += q
        if q:
            resolved[(u, u_star)] = q
    if total != 1:
        raise ValueError(f"coupling weights sum to {total}, not 1")
    sols = {u: model.evaluate(u) for u in {p[0] for p in resolved}}
    sols_star = {u: model_star.evaluate(u) for u in {p[1] for p in resolved}}
    weights: dict = {}
    for (u, u_star), q in resolved.items():
        vf, vcf = sols[u], sols_star[u_star]
        key = tuple(
            [label_index[nm][vf[nm]] for nm in model.endo_names]
            + [label_index[nm][vcf[nm]] for nm in model.endo_names]
        )
        weights[key] = weights.get(key, Fraction(0)) + q
    P = Measure(schema, weights, _trusted=True)
    return CfSpace(schema, P, None)


class POModel:
    """Unit-level potential outcomes over finite endogenous variables."""

    def __init__(self, units, unit_dist, endo, observed, potentials):
        self.units = tuple(units)
        if len(set(self.units)) != len(self.units):
            raise ValueError("duplicate units")
        self.endo = tuple((name, tuple(labels)) for name, labels in endo)
        domains = dict(self.endo)
        total = Fraction(0)
        self.unit_dist = {}
        for unit, q in unit_dist.items():
            if unit not in self.units:
                raise ValueError(f"unknown unit {unit!r}")
            q = Fraction(q)
            if q < 0:
                raise ValueError("negative unit weight")
            total += q
            if q:
                self.unit_dist[unit] = q
        if total != 1:
            raise ValueError(f"unit weights sum to {total}, not 1")

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


def compile_po(model: POModel, observed_world: str = "OBS") -> CfSpace:
    """Compile a potential-outcome model into an (N+1)-way probability space.

    One world per distinct treatment assignment, carrying the variables
    that have a potential-outcome function under it, plus the observed
    world carrying every endogenous variable.  The measure is the
    pushforward of the unit law through all the functions jointly; no
    mechanism is emitted.
    """
    assignments = model.assignments()
    endo_order = tuple(name for name, _ in model.endo)
    domains = dict(model.endo)
    coords = []
    columns = []  # (function table, label list) per coordinate
    for j, assignment in enumerate(assignments, start=1):
        world = f"W{j}"
        for name in endo_order:
            if (name, assignment) in model.potentials:
                coords.append(Coordinate(world, name, domains[name]))
                columns.append((model.potentials[(name, assignment)], domains[name]))
    for name in endo_order:
        coords.append(Coordinate(observed_world, name, domains[name]))
        columns.append((model.observed[name], domains[name]))
    schema = SpaceSchema(coords)
    weights: dict = {}
    for unit, q in model.unit_dist.items():
        key = tuple(labels.index(fn[unit]) for fn, labels in columns)
        weights[key] = weights.get(key, Fraction(0)) + q
    P = Measure(schema, weights, _trusted=True)
    return CfSpace(schema, P, None)
