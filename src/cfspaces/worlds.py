"""World structure on top of probability and causal spaces.

Worlds are labels on coordinates, not separate space objects: the world
sigma-algebras are coordinate-generated sub-sigma-algebras of one joint
space, and all cross-world information lives in the joint measure and the
kernels.  This module checks the no-cross-world-effect axiom, classifies
events by world, tests symmetry of two-world spaces, marginalises, and
assembles N-way spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .measure import Measure, pushforward
from .mechanism import CfSpace, Kernel, Mechanism
from .space import (
    Coordinate,
    SchemaError,
    SpaceSchema,
    atoms_of,
    is_measurable_wrt,
    projector,
)


@dataclass(frozen=True)
class WorldMirror:
    """A component-wise identification of two worlds with equal label sets."""

    world_a: str
    world_b: str
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def derive(cls, schema: SpaceSchema, world_a: str, world_b: str) -> "WorldMirror":
        """Match the two worlds' coordinates by component name.

        Requires the same component names and identical label tuples, the
        finite version of the two measurable spaces being the same.
        """
        a = {schema.coords[p].name: p for p in schema.world_positions(world_a)}
        b = {schema.coords[p].name: p for p in schema.world_positions(world_b)}
        if set(a) != set(b):
            raise SchemaError(
                f"worlds {world_a!r} and {world_b!r} have different components")
        pairs = []
        for name in sorted(a):
            pa, pb = a[name], b[name]
            if schema.coords[pa].labels != schema.coords[pb].labels:
                raise SchemaError(
                    f"component {name!r} has different labels in {world_a!r} and {world_b!r}")
            pairs.append((pa, pb))
        return cls(world_a, world_b, tuple(sorted(pairs)))

    def counterpart(self, pos: int) -> int:
        for a, b in self.pairs:
            if pos == a:
                return b
            if pos == b:
                return a
        raise SchemaError(f"position {pos} is not covered by the mirror")

    def swap_outcome(self, outcome) -> tuple:
        out = list(outcome)
        for a, b in self.pairs:
            out[a], out[b] = outcome[b], outcome[a]
        return tuple(out)

    def swap_positions(self, S) -> frozenset:
        return frozenset(self.counterpart(p) for p in S)

    def swap_row(self, S, row) -> tuple:
        """Map a row on sorted(S) to the corresponding row on the mirrored set."""
        values = {self.counterpart(p): v for p, v in zip(sorted(S), row)}
        return tuple(values[p] for p in sorted(values))


# -- the cross-world axiom ----------------------------------------------------


@dataclass(frozen=True)
class CrossWorldViolation:
    world: str
    S: frozenset
    row: tuple
    atom: frozenset
    value: Fraction
    reference: Fraction


@dataclass(frozen=True)
class CrossWorldUncheckable:
    world: str
    S: frozenset
    needs: frozenset
    row: tuple | None


class CrossWorldReport:
    def __init__(self, violations, uncheckable):
        self.violations = tuple(violations)
        self.uncheckable = tuple(uncheckable)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        return (f"CrossWorldReport(ok={self.ok}, violations={len(self.violations)}, "
                f"uncheckable={len(self.uncheckable)})")


def check_cross_world(space: CfSpace) -> CrossWorldReport:
    """Verify that no kernel moves another world's marginal law.

    For every world j and every present kernel on S, each row must agree on
    the events of world j with the kernel on S & T_j at the restricted row.
    World j's atoms are the fibres of the projection onto sorted(T_j), so
    comparing the two rows' marginals on T_j compares every atom, and by
    additivity every event of the world.  A marginal is integer numerators
    over its row's common denominator, built in one pass over the support;
    only a row that differs walks the atoms, reporting each differing one
    in atom order.  Pairs whose restricted kernel (or row) is absent are
    reported as uncheckable, not as violations.
    """
    if space.mech is None:
        return CrossWorldReport((), ())
    schema = space.schema
    violations = []
    uncheckable = []
    for world in schema.worlds:
        t_world = schema.world_positions(world)
        key = projector(sorted(t_world))
        references: dict = {}
        for S in space.mech.keys():
            inner = S & t_world
            if inner == S:
                continue
            if inner not in space.mech:
                uncheckable.append(CrossWorldUncheckable(world, S, inner, None))
                continue
            k_s = space.mech.get(S)
            k_inner = space.mech.get(inner)
            on = sorted(S)
            restrict = projector([on.index(p) for p in sorted(inner)])
            for row in sorted(k_s.rows):
                sub = restrict(row)
                if not k_inner.has_row(sub):
                    uncheckable.append(CrossWorldUncheckable(world, S, inner, row))
                    continue
                ref = references.get((inner, sub))
                if ref is None:
                    ref = references[inner, sub] = _int_marginal(k_inner.rows[sub], key)
                ref_nums, ref_den = ref
                nums, den = _int_marginal(k_s.rows[row], key)
                if nums.keys() == ref_nums.keys() and all(
                        n * ref_den == ref_nums[r] * den for r, n in nums.items()):
                    continue
                for atom in atoms_of(schema, t_world):
                    r = key(next(iter(atom)))
                    n, n_ref = nums.get(r, 0), ref_nums.get(r, 0)
                    if n * ref_den != n_ref * den:
                        violations.append(CrossWorldViolation(
                            world, S, row, atom, Fraction(n, den), Fraction(n_ref, ref_den)))
    return CrossWorldReport(violations, uncheckable)


def _int_marginal(m: Measure, key) -> tuple[dict, int]:
    """The pushforward of m under `key`, as integer numerators over the
    lcm of m's weight denominators: (numerators by key, denominator)."""
    weights = m.as_dict()
    den = math.lcm(*(q.denominator for q in weights.values()))
    return pushforward(
        (key(outcome), q.numerator * (den // q.denominator)) for outcome, q in weights.items()), den


# -- event classification -----------------------------------------------------


@dataclass(frozen=True)
class EventClass:
    """The worlds an event belongs to; none means it is a cross-world event."""

    worlds: tuple[str, ...]

    @property
    def is_cross_world(self) -> bool:
        return not self.worlds


def classify_event(space, A) -> EventClass:
    """Classify an event as belonging to single worlds or as cross-world.

    The trivial events belong to every world; a nontrivial event belongs to
    world j when it is measurable with respect to that world's coordinates.
    """
    schema = getattr(space, "schema", space)
    A = frozenset(A)
    schema.require_event(A)
    if not A or A == schema.outcome_set():
        return EventClass(tuple(schema.worlds))
    worlds = tuple(
        w for w in schema.worlds
        if is_measurable_wrt(schema, A, schema.world_positions(w))
    )
    return EventClass(worlds)


# -- symmetry -----------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryFailure:
    kind: str  # "measure" or "kernel"
    S: frozenset | None
    row: tuple | None
    outcome: tuple
    value: Fraction
    mirrored: Fraction


class SymmetryReport:
    def __init__(self, failures, uncheckable):
        self.failures = tuple(failures)
        self.uncheckable = tuple(uncheckable)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self):
        return (f"SymmetryReport(ok={self.ok}, failures={len(self.failures)}, "
                f"uncheckable={len(self.uncheckable)})")


def is_symmetric(space: CfSpace, mirror: WorldMirror | None = None) -> SymmetryReport:
    """Check symmetry of a two-world space under a world mirror.

    Probability symmetry compares the weights of every outcome and its
    world swap, which is the atom-rectangle form of swapping rectangle
    factors; kernel symmetry additionally compares each present kernel row
    against the mirrored kernel's swapped row under the outcome swap.
    Mirrored kernels or rows that are absent are reported uncheckable.
    """
    schema = space.schema
    if mirror is None:
        if len(schema.worlds) != 2:
            raise SchemaError("symmetry needs a two-world space or an explicit mirror")
        mirror = WorldMirror.derive(schema, schema.worlds[0], schema.worlds[1])
    if schema.world_positions(mirror.world_a) | schema.world_positions(mirror.world_b) \
            != schema.all_positions:
        raise SchemaError("the mirror must cover every coordinate of the space")
    failures = [
        SymmetryFailure("measure", None, None, outcome, v, w)
        for outcome, v, w in _swap_mismatches(space.P, space.P, mirror)]
    uncheckable = []
    if space.mech is not None:
        for S in space.mech.keys():
            k = space.mech.get(S)
            S_star = mirror.swap_positions(S)
            if S_star not in space.mech:
                uncheckable.append((S, S_star, None))
                continue
            k_star = space.mech.get(S_star)
            for row in sorted(k.rows):
                row_star = mirror.swap_row(S, row)
                if not k_star.has_row(row_star):
                    uncheckable.append((S, S_star, row))
                    continue
                for outcome, v, w in _swap_mismatches(k.rows[row], k_star.rows[row_star], mirror):
                    failures.append(SymmetryFailure("kernel", S, row, outcome, v, w))
    return SymmetryReport(failures, uncheckable)


def _swap_mismatches(m: Measure, m_star: Measure, mirror: WorldMirror):
    """(outcome, m(outcome), m_star(swap(outcome))) wherever the two differ.

    Both weights vanish off supp(m) | swap(supp(m_star)), so only that set
    is visited, in canonical outcome order.
    """
    swap = mirror.swap_outcome
    for outcome in sorted(m.support() | {swap(o) for o in m_star.support()}):
        v, w = m.weight(outcome), m_star.weight(swap(outcome))
        if v != w:
            yield outcome, v, w


# -- marginalisation ----------------------------------------------------------


def marginalize(space: CfSpace, keep, *, allow_world_drop: bool = False) -> CfSpace:
    """Project a space onto a subset of its coordinates.

    The new measure is the pushforward of P; each kernel whose coordinate
    set survives is pushed forward row by row (events of the smaller space
    are read as cylinders of the larger one), and the rest are dropped.
    Dropping an entire world must be acknowledged explicitly.
    """
    schema = space.schema
    keep = schema.positions(keep)
    if not keep:
        raise SchemaError("cannot marginalise away every coordinate")
    kept_worlds = {schema.coords[p].world for p in keep}
    if not allow_world_drop:
        lost = [w for w in schema.worlds if w not in kept_worlds]
        if lost:
            raise SchemaError(
                f"marginalisation would drop worlds {lost}; "
                "pass allow_world_drop=True to acknowledge")
    order = sorted(keep)
    new_schema = SpaceSchema([schema.coords[p] for p in order])
    position_map = {p: i for i, p in enumerate(order)}

    def push(measure: Measure) -> Measure:
        return Measure(new_schema, measure.marginal(keep).as_dict(), _trusted=True)

    new_p = push(space.P)
    mech = None
    if space.mech is not None:
        kernels = []
        for S in space.mech.keys():
            if not S <= keep:
                continue
            k = space.mech.get(S)
            new_on = frozenset(position_map[p] for p in S)
            kernels.append(Kernel(
                new_schema, new_on,
                {row: push(m) for row, m in k.rows.items()}))
        mech = Mechanism(new_schema, new_p, kernels)
    return CfSpace(new_schema, new_p, mech)


# -- N-way assembly -----------------------------------------------------------


def build_nway(worlds, weights, kernels=None) -> CfSpace:
    """Assemble an N-way space from per-world component lists.

    `worlds` maps world labels to (component, labels) sequences in order;
    `weights` maps full outcomes (label tuples or index tuples) to rational
    weights; `kernels`, when given, maps coordinate-reference tuples to
    {row labels: {outcome labels: weight}} tables.  A single world yields a
    plain probability or causal space; two worlds yield the two-world
    construction.
    """
    coords = []
    for world, comps in worlds.items():
        for name, labels in comps:
            coords.append(Coordinate(world, name, tuple(labels)))
    schema = SpaceSchema(coords)
    resolved = {}
    for outcome, q in weights.items():
        key = outcome if all(isinstance(v, int) for v in outcome) \
            else schema.outcome_of(outcome)
        resolved[key] = q
    P = Measure(schema, resolved)
    mech = None
    if kernels is not None:
        built = []
        for refs, rows in kernels.items():
            on = schema.positions(refs)
            pos = sorted(on)
            table = {}
            for row, body in rows.items():
                row_idx = tuple(
                    v if isinstance(v, int) else schema.label_index(p, v)
                    for p, v in zip(pos, row))
                body_resolved = {}
                for outcome, q in body.items():
                    key = outcome if all(isinstance(v, int) for v in outcome) \
                        else schema.outcome_of(outcome)
                    body_resolved[key] = q
                table[row_idx] = Measure(schema, body_resolved)
            built.append(Kernel(schema, on, table))
        mech = Mechanism(schema, P, built)
    return CfSpace(schema, P, mech)
