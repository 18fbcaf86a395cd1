"""Finite product outcome spaces.

A coordinate is one measurable component of one world and carries a finite
ordered label set.  An outcome is a plain tuple of label indices, one per
coordinate, in schema order.  Events are frozensets of outcomes and
coordinate subsets are frozensets of schema positions, so the usual set
algebra is available for free.  All values are immutable after construction
and every function here is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

# Every algorithm in this package enumerates the outcome space, so schemas
# beyond this size are rejected up front rather than hanging.
MAX_OUTCOMES = 1 << 20


class SchemaError(ValueError):
    """Malformed schema, or a reference to an unknown coordinate or label."""


@dataclass(frozen=True)
class Coordinate:
    world: str
    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise SchemaError(f"coordinate {self.world}.{self.name} has no labels")
        if len(set(self.labels)) != len(self.labels):
            raise SchemaError(f"coordinate {self.world}.{self.name} has duplicate labels")

    @property
    def key(self) -> str:
        return f"{self.world}.{self.name}"


class SpaceSchema:
    """An ordered tuple of coordinates; the outcome space is their product.

    Coordinate order is canonical and fixed at construction; serialization
    and every deterministic iteration in the package follow it.
    """

    def __init__(self, coords: Iterable[Coordinate]):
        self.coords: tuple[Coordinate, ...] = tuple(coords)
        if not self.coords:
            raise SchemaError("schema needs at least one coordinate")
        seen = set()
        for c in self.coords:
            if (c.world, c.name) in seen:
                raise SchemaError(f"duplicate coordinate {c.key}")
            seen.add((c.world, c.name))
        worlds: list[str] = []
        for c in self.coords:
            if c.world not in worlds:
                worlds.append(c.world)
        self.worlds: tuple[str, ...] = tuple(worlds)
        n = 1
        for c in self.coords:
            n *= len(c.labels)
            if n > MAX_OUTCOMES:
                raise SchemaError(
                    f"schema exceeds {MAX_OUTCOMES} outcomes; refusing to enumerate"
                )
        self.n_outcomes = n
        # The `on` of every full-outcome Measure on this schema.
        self.all_on: tuple[int, ...] = tuple(range(len(self.coords)))
        self._ranges = tuple(range(len(c.labels)) for c in self.coords)
        self._index = {(c.world, c.name): i for i, c in enumerate(self.coords)}
        self._outcomes: tuple[tuple[int, ...], ...] | None = None
        self._outcome_set: frozenset | None = None
        self._atom_cache: dict[frozenset, tuple[frozenset, ...]] = {}

    def __eq__(self, other):
        return isinstance(other, SpaceSchema) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"SpaceSchema({', '.join(c.key for c in self.coords)})"

    # -- coordinate lookup ------------------------------------------------

    def position(self, ref) -> int:
        """Resolve a coordinate reference to its schema position.

        Accepts a position, a "world.name" string, a (world, name) pair or a
        Coordinate.
        """
        if isinstance(ref, int):
            if not 0 <= ref < len(self.coords):
                raise SchemaError(f"coordinate position {ref} out of range")
            return ref
        if isinstance(ref, Coordinate):
            ref = (ref.world, ref.name)
        if isinstance(ref, str):
            world, dot, name = ref.partition(".")
            if not dot:
                raise SchemaError(f"coordinate reference {ref!r} is not of the form world.name")
            ref = (world, name)
        try:
            return self._index[tuple(ref)]
        except (KeyError, TypeError):
            raise SchemaError(f"unknown coordinate {ref!r}") from None

    def positions(self, refs) -> frozenset:
        """Resolve an iterable of coordinate references to a position set."""
        if isinstance(refs, (int, str, Coordinate)):
            refs = [refs]
        return frozenset(self.position(r) for r in refs)

    def world_positions(self, world: str) -> frozenset:
        if world not in self.worlds:
            raise SchemaError(f"unknown world {world!r}")
        return frozenset(i for i, c in enumerate(self.coords) if c.world == world)

    @property
    def all_positions(self) -> frozenset:
        return frozenset(range(len(self.coords)))

    def label_index(self, pos: int, label) -> int:
        coord = self.coords[pos]
        if isinstance(label, int):
            if not 0 <= label < len(coord.labels):
                raise SchemaError(f"label index {label} out of range for {coord.key}")
            return label
        try:
            return coord.labels.index(label)
        except ValueError:
            raise SchemaError(f"unknown label {label!r} for coordinate {coord.key}") from None

    # -- outcomes ---------------------------------------------------------

    def rows(self, S) -> Iterator[tuple[int, ...]]:
        """All rows over the positions in S, in canonical order (last position fastest)."""
        return itertools.product(*(self._ranges[p] for p in sorted(S)))

    def outcomes(self) -> tuple[tuple[int, ...], ...]:
        """All outcomes in canonical order (last coordinate fastest)."""
        if self._outcomes is None:
            self._outcomes = tuple(self.rows(self.all_on))
        return self._outcomes

    def outcome_set(self) -> frozenset:
        if self._outcome_set is None:
            self._outcome_set = frozenset(self.outcomes())
        return self._outcome_set

    def require_rows(self, on, rows):
        """Reject rows that are not one label index per position in `on` (ascending).

        `rows` is a collection of tuples.  The range check runs once per
        coordinate, over the column of that coordinate's values.
        """
        for row in rows:
            if len(row) != len(on):
                raise SchemaError(f"row {row!r} does not match the coordinates {tuple(on)}")
        for p, column in zip(on, zip(*rows)):
            if not set(column).issubset(self._ranges[p]):
                bad = next(v for v in column if v not in self._ranges[p])
                raise SchemaError(
                    f"label index {bad!r} out of range for coordinate {self.coords[p].key}")

    def require_outcome(self, outcome):
        self.require_rows(self.all_on, [outcome])

    def require_event(self, A):
        """Reject an event with a non-outcome member, naming the first one."""
        outcomes = self.outcome_set()
        if not outcomes.issuperset(A):
            bad = next(member for member in A if member not in outcomes)
            raise SchemaError(f"event member {bad!r} does not conform to the schema")

    def outcome_of(self, labels) -> tuple[int, ...]:
        """Build an outcome from one label (or index) per coordinate."""
        if len(labels) != len(self.coords):
            raise SchemaError("outcome must assign every coordinate")
        return tuple(self.label_index(i, lab) for i, lab in enumerate(labels))

    def labels_of(self, outcome) -> tuple[str, ...]:
        self.require_outcome(outcome)
        return tuple(self.coords[i].labels[v] for i, v in enumerate(outcome))

    def describe_row(self, S, row) -> str:
        """Render a partial outcome on S as "(W.c=l, ...)" for reports."""
        pos = sorted(self.positions(S))
        parts = [f"{self.coords[p].key}={self.coords[p].labels[v]}" for p, v in zip(pos, row)]
        return "(" + ", ".join(parts) + ")"


def project(outcome, S) -> tuple:
    """Restrict an outcome (or row on a superset) to the positions in S.

    S is an iterable of schema positions; the result follows ascending
    position order.  Projecting onto the full position set is the identity
    and projecting onto the empty set yields ().
    """
    return tuple(outcome[i] for i in sorted(S))


def restrict_row(positions, row, sub) -> tuple:
    """Restrict a row keyed by sorted(positions) to sorted(sub) positions."""
    pos = sorted(positions)
    index = {p: i for i, p in enumerate(pos)}
    return tuple(row[index[p]] for p in sorted(sub))


def projector(indices):
    """Tuple -> the tuple of its entries at `indices`."""
    if len(indices) == 1:
        i, = indices
        return lambda t: (t[i],)
    return itemgetter(*indices) if indices else lambda t: ()


def cylinder(schema: SpaceSchema, assignment: Mapping) -> frozenset:
    """The event of all outcomes agreeing with a partial assignment.

    Keys are coordinate references, values labels (or label indices).  The
    empty assignment yields the full outcome space; a total assignment
    yields a singleton.
    """
    fixed: dict[int, int] = {}
    for ref, label in assignment.items():
        pos = schema.position(ref)
        idx = schema.label_index(pos, label)
        if pos in fixed and fixed[pos] != idx:
            raise SchemaError(f"conflicting assignment for coordinate {schema.coords[pos].key}")
        fixed[pos] = idx
    ranges = [
        (fixed[i],) if i in fixed else range(len(c.labels))
        for i, c in enumerate(schema.coords)
    ]
    return frozenset(itertools.product(*ranges))


def atoms_of(schema: SpaceSchema, S) -> tuple[frozenset, ...]:
    """The partition of the outcome space into fibers of project(., S).

    Blocks are ordered by first appearance in canonical outcome order.
    S = empty set gives the single block Omega; S = all positions gives
    singleton blocks.
    """
    S = schema.positions(S)
    cached = schema._atom_cache.get(S)
    if cached is not None:
        return cached
    groups: dict[tuple, list] = {}
    for outcome in schema.outcomes():
        groups.setdefault(project(outcome, S), []).append(outcome)
    blocks = tuple(frozenset(g) for g in groups.values())
    schema._atom_cache[S] = blocks
    return blocks


def is_measurable_wrt(schema: SpaceSchema, A, S) -> bool:
    """Whether A is a union of fibers of project(., S).

    This is the finite criterion for membership in the sub-sigma-algebra
    generated by the coordinates in S.
    """
    schema.require_event(A)
    for block in atoms_of(schema, S):
        hit = block & A
        if hit and hit != block:
            return False
    return True
