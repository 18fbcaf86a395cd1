"""Finite product outcome spaces.

A coordinate is one measurable component of one world and carries a finite
ordered label set.  An outcome is a plain tuple of label indices, one per
coordinate, in schema order; coordinate subsets are frozensets of schema
positions.  An event is an `Event`, a read-only set of outcomes held as its
rows on the coordinates it names, so it costs what those rows cost.  All
values are immutable after construction and every function here is pure.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Set
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

# The one size budget: no call lists more rows than this (outcomes, rows of
# kernels or tables, events).  Measures hold only their supports, so a larger
# space is built and read off its support; only a listing is refused.
MAX_OUTCOMES = 1 << 20


class SchemaError(ValueError):
    """Malformed schema, or a reference to an unknown coordinate or label."""


def quoted(text) -> str:
    """repr(text), as a diagnostic quotes it: cut after 40 characters of a string or a repr."""
    if isinstance(text, str):
        return repr(text if len(text) <= 40 else text[:40] + "…")
    text = repr(text)
    return text if len(text) <= 40 else text[:40] + "…"


def budget(count: int):
    """Refuse, before it starts, a listing of `count` rows over MAX_OUTCOMES."""
    if count > MAX_OUTCOMES:
        raise SchemaError(f"{count} rows to list, beyond the budget of {MAX_OUTCOMES}")


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
        # The `on` of every full-outcome Measure on this schema.
        self.all_on: tuple[int, ...] = tuple(range(len(self.coords)))
        self.all_positions = frozenset(self.all_on)
        self._ranges = tuple(range(len(c.labels)) for c in self.coords)
        self.n_outcomes = self.size(self.all_on)
        self._index = {(c.world, c.name): i for i, c in enumerate(self.coords)}
        # The one name table: per coordinate, label -> index and index -> "W.c=l".
        self.label_maps = tuple({lab: i for i, lab in enumerate(c.labels)} for c in self.coords)
        self.label_texts = tuple(tuple(f"{c.key}={lab}" for lab in c.labels) for c in self.coords)
        self._outcomes: tuple[tuple[int, ...], ...] | None = None

    def __eq__(self, other):
        return self is other or isinstance(other, SpaceSchema) and self.coords == other.coords

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
        key = ref  # errors name the reference as written
        if isinstance(ref, str):
            world, dot, name = ref.partition(".")
            if not dot:
                raise SchemaError(f"coordinate reference {quoted(ref)} is not of the form world.name")
            key = (world, name)
        try:
            return self._index[tuple(key)]
        except (KeyError, TypeError):
            raise SchemaError(f"unknown coordinate {quoted(ref)}") from None

    def positions(self, refs) -> frozenset:
        """Resolve an iterable of coordinate references to a position set."""
        if isinstance(refs, (int, str, Coordinate)):
            refs = [refs]
        elif type(refs) is frozenset and refs <= self.all_positions \
                and {int}.issuperset(map(type, refs)):
            return refs  # a position set already
        return frozenset(self.position(r) for r in refs)

    def world_positions(self, world: str) -> frozenset:
        if world not in self.worlds:
            raise SchemaError(f"unknown world {quoted(world)}")
        return frozenset(i for i, c in enumerate(self.coords) if c.world == world)

    def label_index(self, pos: int, label) -> int:
        coord = self.coords[pos]
        if isinstance(label, int):
            if not 0 <= label < len(coord.labels):
                raise SchemaError(f"label index {label} out of range for coordinate {coord.key}")
            return label
        try:
            return self.label_maps[pos][label]
        except (KeyError, TypeError):
            raise SchemaError(f"unknown label {quoted(label)} for coordinate {coord.key}") from None

    def assignment(self, assignment: Mapping) -> dict[int, int]:
        """{position: label index} of a mapping of coordinate references to
        labels (or label indices); references to one coordinate must agree."""
        fixed: dict[int, int] = {}
        for ref, label in assignment.items():
            pos = self.position(ref)
            idx = self.label_index(pos, label)
            if fixed.setdefault(pos, idx) != idx:
                raise SchemaError(f"conflicting assignment for coordinate {self.coords[pos].key}")
        return fixed

    # -- outcomes ---------------------------------------------------------

    def size(self, S) -> int:
        """The number of rows over the positions in S."""
        return math.prod(len(self._ranges[p]) for p in S)

    def rows(self, S) -> Iterator[tuple[int, ...]]:
        """All rows over the positions in S, in canonical order (last position fastest)."""
        budget(self.size(S))
        return itertools.product(*(self._ranges[p] for p in sorted(S)))

    def outcomes(self) -> tuple[tuple[int, ...], ...]:
        """All outcomes in canonical order (last coordinate fastest)."""
        if self._outcomes is None:
            self._outcomes = tuple(self.rows(self.all_on))
        return self._outcomes

    def outcome_set(self) -> frozenset:
        return frozenset(self.outcomes())

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

    def conforms(self, outcome) -> bool:
        """Whether `outcome` is an outcome: one label index per coordinate."""
        return isinstance(outcome, tuple) and len(outcome) == len(self._ranges) \
            and all(map(range.__contains__, self._ranges, outcome))

    def require_event(self, A) -> "Event":
        """The event A, an Event of this schema or any iterable of outcomes, whose
        members are checked column by column; the first non-outcome is named."""
        if isinstance(A, Event) and A.schema == self:
            return A
        A = A if isinstance(A, (set, frozenset)) else tuple(A)  # in its own order
        if not (set(map(type, A)) <= {tuple} and set(map(len, A)) <= {len(self._ranges)}
                and all(set(column).issubset(r) for r, column in zip(self._ranges, zip(*A)))):
            for member in A:
                if not self.conforms(member):
                    raise SchemaError(f"event member {member!r} does not conform to the schema")
        return Event(self, self.all_on, frozenset(A))

    def outcome_of(self, labels) -> tuple[int, ...]:
        """Build an outcome from one label (or index) per coordinate."""
        if len(labels) != len(self.coords):
            raise SchemaError("outcome must assign every coordinate")
        return tuple(self.label_index(i, lab) for i, lab in enumerate(labels))

    def describe_row(self, S, row) -> str:
        """Render a partial outcome on S as "(W.c=l, ...)" for reports."""
        texts = [self.label_texts[p] for p in sorted(self.positions(S))]
        return "(" + ", ".join([t[v] for t, v in zip(texts, row)]) + ")"

    def describe_set(self, S) -> str:
        """Render a coordinate set as "{W.c, ...}" for reports."""
        return "{" + ", ".join(self.coords[p].key for p in sorted(self.positions(S))) + "}"


def projector(src, dst):
    """The map from a row over the positions `src`, in that order, to its
    row over the positions `dst`, each of which is in `src`."""
    indices = [src.index(p) for p in dst]
    if len(indices) == 1:
        i, = indices
        return lambda t: (t[i],)
    return operator.itemgetter(*indices) if indices else lambda t: ()


class Event(Set):
    """The outcomes whose projection on the sorted positions `on` is in
    `rows`, a trusted frozenset (`require_event` is the checked door).  `&`
    joins two Events' rows on their shared coordinates; `|`, `^`, `-`, `==`
    and `complement` lift rows to the coordinates of both (of this one).
    Iteration, `hash` and the algebra with other sets list the members."""

    __slots__ = ("schema", "on", "rows")

    def __init__(self, schema: SpaceSchema, on: tuple, rows: frozenset):
        self.schema, self.on, self.rows = schema, on, rows

    _from_iterable = staticmethod(frozenset)  # what the Set mixin's algebra returns

    def mask(self, outcomes):
        """Whether each of `outcomes`, full outcomes, is a member, lazily."""
        if not self.on:
            return itertools.repeat(bool(self.rows))
        keys = self.rows if len(self.on) > 1 else {row[0] for row in self.rows}
        return map(keys.__contains__, map(operator.itemgetter(*self.on), outcomes))

    def __contains__(self, outcome) -> bool:
        return self.schema.conforms(outcome) and next(self.mask((outcome,)))

    def __len__(self) -> int:
        return len(self.rows) * (self.schema.n_outcomes // self.schema.size(self.on))

    def __iter__(self):
        return iter(self._lift(self.schema.all_on))

    __hash__ = Set._hash  # the hash of the frozenset of the members

    def __repr__(self):
        return f"Event(on={self.on}, {len(self.rows)} rows)"

    def _lift(self, on: tuple) -> frozenset:
        """The rows over `on`, which holds every position of `self.on`."""
        free = tuple(p for p in on if p not in self.on)
        if not free:
            return self.rows
        budget(len(self.rows) * self.schema.size(free))
        merge, fill = projector(self.on + free, on), tuple(self.schema.rows(free)) if self.rows else ()
        return frozenset(merge(row + f) for row in self.rows for f in fill)

    def _same(self, other) -> bool:
        return isinstance(other, Event) and other.schema == self.schema

    def __and__(self, other):
        if not self._same(other):
            return Set.__and__(self, other)
        shared = [p for p in other.on if p in self.on]
        mine, theirs = projector(self.on, shared), projector(other.on, shared)
        groups = {key: list(g) for key, g in itertools.groupby(sorted(other.rows, key=theirs), theirs)}
        pairs = [(row, groups.get(mine(row), ())) for row in self.rows]
        budget(sum(len(group) for _, group in pairs))
        on = tuple(sorted({*self.on, *other.on}))
        merge = projector(self.on + other.on, on)
        return Event(self.schema, on, frozenset(merge(row + t) for row, group in pairs for t in group))

    def _algebra(combine, plain):
        """`combine` of two Events' rows lifted to the union of their
        coordinates, or the Set mixin's `plain` with any other set."""
        def op(self, other):
            if not self._same(other):
                return plain(self, other)
            on = tuple(sorted({*self.on, *other.on}))
            return Event(self.schema, on, combine(self._lift(on), other._lift(on)))
        return op

    __or__ = _algebra(operator.or_, Set.__or__)
    __xor__ = _algebra(operator.xor, Set.__xor__)
    __sub__ = _algebra(operator.sub, Set.__sub__)
    del _algebra

    def __eq__(self, other):
        if not self._same(other):
            return Set.__eq__(self, other)
        on = tuple(sorted({*self.on, *other.on}))
        return self._lift(on) == other._lift(on)

    def complement(self) -> "Event":
        return Event(self.schema, self.on, frozenset(self.schema.rows(self.on)) - self.rows)


def cylinder(schema: SpaceSchema, assignment: Mapping) -> Event:
    """The event of all outcomes agreeing with a partial assignment.

    Keys are coordinate references, values labels (or label indices).  The
    empty assignment yields the full outcome space; a total assignment
    yields a singleton.
    """
    fixed = schema.assignment(assignment)
    on = tuple(sorted(fixed))
    return Event(schema, on, frozenset({tuple(fixed[p] for p in on)}))


def atoms_of(schema: SpaceSchema, S) -> tuple[frozenset, ...]:
    """The partition of the outcome space into fibers of the projection onto S.

    Blocks are ordered by first appearance in canonical outcome order.
    S = empty set gives the single block Omega; S = all positions gives
    singleton blocks.
    """
    groups: dict[tuple, list] = {}
    key = projector(schema.all_on, sorted(schema.positions(S)))
    for outcome in schema.outcomes():
        groups.setdefault(key(outcome), []).append(outcome)
    return tuple(frozenset(g) for g in groups.values())


def is_measurable_wrt(schema: SpaceSchema, A, S) -> bool:
    """Whether A is a union of fibers of the projection onto S.

    This is the finite criterion for membership in the sub-sigma-algebra
    generated by the coordinates in S.
    """
    return _measurable(schema, schema.require_event(A), S)


def _measurable(schema: SpaceSchema, A: Event, S) -> bool:
    """`is_measurable_wrt` of an event that has passed `require_event`: A
    depends on `on` alone, so iff its rows are a union of fibers of the
    projection onto `on` & S, which all have one size."""
    S = schema.positions(S)
    inner = [p for p in A.on if p in S]
    fiber = schema.size(p for p in A.on if p not in S)
    return len(A.rows) == fiber * len(set(map(projector(A.on, inner), A.rows)))
