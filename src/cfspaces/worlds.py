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
from operator import itemgetter

from .measure import Measure, pushforward
from .mechanism import CfSpace, CheckReport, Kernel, Mechanism
from .space import Coordinate, Event, SchemaError, SpaceSchema, _measurable, cylinder, projector


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

    def swap_positions(self, S) -> frozenset:
        return frozenset(self.counterpart(p) for p in S)

    def _row_swap(self, S):
        """The map from rows on sorted(S) to rows on the mirrored set."""
        on = sorted(S)
        return projector([self.counterpart(p) for p in on], sorted(self.swap_positions(on)))


# -- the cross-world axiom ----------------------------------------------------


@dataclass(frozen=True)
class CrossWorldViolation:
    world: str
    S: frozenset
    row: tuple
    atom: Event
    value: Fraction
    reference: Fraction


@dataclass(frozen=True)
class CrossWorldUncheckable:
    world: str
    S: frozenset
    needs: frozenset
    row: tuple | None


def check_cross_world(space: CfSpace) -> CheckReport:
    """Verify that no kernel moves another world's marginal law.

    For every world j and every present kernel on S, each row must agree on
    the events of world j with the kernel on S & T_j at the restricted row.
    World j's atoms are the fibres of the projection onto sorted(T_j), so
    comparing the two rows' laws on T_j compares every atom, and by
    additivity every event of the world.  One projector per world pushes a
    row's numerators into a table on T_j summing to its denominator d.  If
    the laws agree, that table is t = d / d_ref times the reference's
    gcd-reduced table (sum d_ref), and t is an integer, that table having
    no common factor.  So a row is in violation iff its table differs from
    the reference's scaled by d // d_ref, as it must when d_ref does not
    divide d; only such a row builds the two marginals and walks their
    supports in atom order, reporting each differing atom (the cylinder of
    its row).  Scaled tables live per (inner, sub, d) for the call.  Pairs
    whose restricted kernel (or row) is absent are uncheckable.
    """
    if space.mech is None:
        return CheckReport(())
    schema = space.schema
    violations = []
    uncheckable = []
    for world in schema.worlds:
        t_world = schema.world_positions(world)
        key = projector(schema.all_on, sorted(t_world))
        scaled: dict = {}
        for S in space.mech.keys():
            inner = S & t_world
            if inner == S:
                continue
            if inner not in space.mech:
                uncheckable.append(CrossWorldUncheckable(world, S, inner, None))
                continue
            k_s = space.mech.get(S)
            k_inner = space.mech.get(inner)
            restrict = projector(sorted(S), sorted(inner))
            for row in sorted(k_s.rows):
                sub = restrict(row)
                m, m_ref = k_s.rows[row], k_inner.rows.get(sub)
                if m_ref is None:
                    uncheckable.append(CrossWorldUncheckable(world, S, inner, row))
                    continue
                ck = inner, sub, m._d
                if ck not in scaled:
                    ref = pushforward(zip(map(key, m_ref._n), m_ref._n.values()))
                    g = math.gcd(*ref.values())
                    t = m._d * g // m_ref._d
                    scaled[ck] = {r: n // g * t for r, n in ref.items()}
                if pushforward(zip(map(key, m._n), m._n.values())) == scaled[ck]:
                    continue
                mine = m.marginal(t_world)
                for r, v, w in mine.mismatches(m_ref.marginal(t_world)):
                    violations.append(CrossWorldViolation(
                        world, S, row, cylinder(schema, dict(zip(mine.on, r))), v, w))
    return CheckReport(violations, uncheckable)


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

    An event belongs to world j when it is measurable with respect to that
    world's coordinates; the trivial events belong to every world.
    """
    schema = getattr(space, "schema", space)
    A = schema.require_event(A)
    worlds = tuple(w for w in schema.worlds if _measurable(schema, A, schema.world_positions(w)))
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


def is_symmetric(space: CfSpace, mirror: WorldMirror | None = None) -> CheckReport:
    """Check symmetry of a two-world space under a world mirror.

    Probability symmetry compares the weights of every outcome and its
    world swap, which is the atom-rectangle form of swapping rectangle
    factors; kernel symmetry additionally compares each present kernel row
    against the mirrored kernel's swapped row under the outcome swap.
    Mirrored kernels or rows that are absent are reported uncheckable, as
    (S, S*, row) with row None for a whole kernel.
    """
    schema = space.schema
    if mirror is None:
        if len(schema.worlds) != 2:
            raise SchemaError("symmetry needs a two-world space or an explicit mirror")
        mirror = WorldMirror.derive(schema, schema.worlds[0], schema.worlds[1])
    if schema.world_positions(mirror.world_a) | schema.world_positions(mirror.world_b) \
            != schema.all_positions:
        raise SchemaError("the mirror must cover every coordinate of the space")
    perm = list(schema.all_on)
    for a, b in mirror.pairs:
        perm[a], perm[b] = b, a
    swap_outcome = itemgetter(*perm)
    violations = [SymmetryFailure("measure", None, None, outcome, v, w)
                  for outcome, v, w in space.P.mismatches(space.P, swap_outcome)]
    uncheckable = []
    if space.mech is not None:
        implied = set()  # the swaps are involutions: a clean pass, as many rows on S*, settles S*
        for S in space.mech.keys():
            if S in implied:
                continue
            k = space.mech.get(S)
            S_star = mirror.swap_positions(S)
            if S_star not in space.mech:
                uncheckable.append((S, S_star, None))
                continue
            k_star = space.mech.get(S_star)
            swap = mirror._row_swap(S)
            found = len(violations) + len(uncheckable)
            for row in sorted(k.rows):
                row_star = swap(row)
                if not k_star.has_row(row_star):
                    uncheckable.append((S, S_star, row))
                    continue
                for outcome, v, w in k.rows[row].mismatches(k_star.rows[row_star], swap_outcome):
                    violations.append(SymmetryFailure("kernel", S, row, outcome, v, w))
            if len(violations) + len(uncheckable) == found and len(k.rows) == len(k_star.rows):
                implied.add(S_star)
    return CheckReport(violations, uncheckable)


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
        return Measure._of(new_schema, new_schema.all_on, measure.marginal(keep)._n)

    new_p = push(space.P)
    mech = None
    if space.mech is not None:
        kernels = [Kernel._of(new_schema, frozenset(position_map[p] for p in S),
                              {row: push(m) for row, m in space.mech.get(S).rows.items()})
                   for S in space.mech.keys() if S <= keep]
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
    P = Measure(schema, {schema.outcome_of(outcome): q for outcome, q in weights.items()})
    mech = None
    if kernels is not None:
        built = []
        for refs, rows in kernels.items():
            on = schema.positions(refs)
            pos = sorted(on)
            table = {}
            for row, body in rows.items():
                if len(row) != len(pos):
                    raise SchemaError(f"row {row!r} does not match the coordinates {tuple(pos)}")
                table[tuple(map(schema.label_index, pos, row))] = Measure(
                    schema, {schema.outcome_of(outcome): q for outcome, q in body.items()})
            built.append(Kernel(schema, on, table))
        mech = Mechanism(schema, P, built)
    return CfSpace(schema, P, mech)
