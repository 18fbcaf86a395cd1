"""Probability measures with exact rational arithmetic.

All probabilities are fractions.Fraction values, so every identity checked
by this package (additivity, independence products, almost-sure equality)
is an exact equation rather than a floating-point approximation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .space import SpaceSchema, atoms_of, projector

ZERO = Fraction(0)
ONE = Fraction(1)


class ConditioningUndefinedError(ValueError):
    """Conditioning on an event of probability zero is undefined."""


def law(weights: Mapping, what: str = "") -> dict:
    """The nonzero part of a finite law, checked in one pass.

    Weights become Fractions; they must be nonnegative and sum to exactly
    one.  `what` names the law in messages ("noise" gives "negative noise
    weight ...").
    """
    what = f"{what} weight" if what else "weight"
    w: dict = {}
    total = ZERO
    for key, q in weights.items():
        if not isinstance(q, Fraction):
            q = Fraction(q)
        if q < 0:
            raise ValueError(f"negative {what} {q} at {key!r}")
        if q:
            w[key] = q
            total += q
    if total != 1:
        raise ValueError(f"{what}s sum to {total}, not 1")
    return w


def pushforward(pairs: Iterable) -> dict:
    """Total weight per key over (key, weight) pairs: the image of a law
    under the map that produced the keys."""
    w: dict = {}
    for key, q in pairs:
        w[key] = w[key] + q if key in w else q
    return w


class Margin:
    """A probability measure on the coordinates in `on`.

    Rows are tuples of label indices over the ascending positions in `on`;
    they are stored sparsely, and rows absent from the table have weight
    zero.  The weights must be nonnegative and sum to exactly one.  The
    empty projection carries the single row () with weight one; on every
    position the rows are full outcomes, which is what a Measure is.
    Intervention measures and marginals are Margins.
    """

    __slots__ = ("schema", "on", "_w")

    def __init__(self, schema: SpaceSchema, on, weights: Mapping, *, _trusted: bool = False):
        self._fill(schema, tuple(sorted(schema.positions(on))), weights, _trusted)

    def _fill(self, schema: SpaceSchema, on: tuple, weights: Mapping, trusted: bool):
        self.schema = schema
        self.on = on
        if not trusted:
            rows: dict = {}
            for row, q in weights.items():
                row = tuple(row)
                if row in rows:
                    raise ValueError(f"duplicate weight entry for {row!r}")
                rows[row] = q
            weights = rows
        if trusted:
            # Every trusted constructor passes nonzero Fractions summing to one.
            self._w = weights
        else:
            self._w = law(weights)
            schema.require_rows(on, self._w)

    @staticmethod
    def point(schema: SpaceSchema, assignment: Mapping) -> "Margin":
        """Dirac measure on the projection named by the assignment keys."""
        fixed = {schema.position(ref): lab for ref, lab in assignment.items()}
        on = tuple(sorted(fixed))
        row = tuple(schema.label_index(p, fixed[p]) for p in on)
        return Margin(schema, on, {row: ONE})

    @staticmethod
    def uniform(schema: SpaceSchema, S) -> "Margin":
        on = schema.positions(S)
        rows = list(schema.rows(on))
        return Margin(schema, on, dict.fromkeys(rows, Fraction(1, len(rows))), _trusted=True)

    def weight(self, row) -> Fraction:
        return self._w.get(tuple(row), ZERO)

    def rows(self):
        """Nonzero (row, weight) pairs in ascending row order."""
        return sorted(self._w.items())

    items = rows

    def as_dict(self) -> dict:
        return dict(self._w)

    def support(self) -> frozenset:
        return frozenset(self._w)

    def marginal(self, S) -> "Margin":
        """Pushforward onto the coordinates in S, which must lie within `on`."""
        sub = tuple(sorted(self.schema.positions(S)))
        if not set(sub) <= set(self.on):
            raise ValueError(f"positions {sub} are not within the projection {self.on}")
        key = projector([self.on.index(p) for p in sub])
        return Margin(self.schema, sub, pushforward(zip(map(key, self._w), self._w.values())),
                      _trusted=True)

    def __eq__(self, other):
        return (
            isinstance(other, Margin)
            and self.schema == other.schema
            and self.on == other.on
            and self._w == other._w
        )

    def __hash__(self):
        return hash((self.schema, self.on, frozenset(self._w.items())))

    def __repr__(self):
        return f"{type(self).__name__}(on={self.on}, {len(self._w)} rows)"


class Measure(Margin):
    """A probability measure on the full outcome space: a Margin on every position.

    Rows are full outcomes.  Only what needs whole outcomes lives here:
    event probabilities, conditioning, mixtures and the full-space
    constructors.
    """

    __slots__ = ()

    def __init__(self, schema: SpaceSchema, weights: Mapping, *, _trusted: bool = False):
        self._fill(schema, schema.all_on, weights, _trusted)

    @classmethod
    def uniform(cls, schema: SpaceSchema) -> "Measure":
        q = Fraction(1, schema.n_outcomes)
        return cls(schema, dict.fromkeys(schema.outcomes(), q), _trusted=True)

    @classmethod
    def dirac(cls, schema: SpaceSchema, outcome) -> "Measure":
        return cls(schema, {tuple(outcome): ONE})

    @classmethod
    def mixture(cls, schema: SpaceSchema, parts: Iterable[tuple[Fraction, "Measure"]]) -> "Measure":
        """The convex combination sum_i q_i * P_i; the q_i must form a law."""
        parts = list(parts)
        w: dict = {}
        for i, q in law(dict(enumerate(q for q, _ in parts)), "mixture").items():
            for outcome, p in parts[i][1]._w.items():
                w[outcome] = w.get(outcome, ZERO) + q * p
        return cls(schema, w, _trusted=True)

    def prob(self, A) -> Fraction:
        """Total weight of an event (exact, finitely additive)."""
        self.schema.require_event(A)
        if len(self._w) <= len(A):
            return sum((q for o, q in self._w.items() if o in A), ZERO)
        return sum((self._w[o] for o in A if o in self._w), ZERO)

    def condition(self, G) -> "Measure":
        """The conditional measure given G; undefined when G is null."""
        pg = self.prob(G)
        if pg == 0:
            raise ConditioningUndefinedError("conditioning event has probability zero")
        w = {o: q / pg for o, q in self._w.items() if o in G}
        return Measure(self.schema, w, _trusted=True)


def dirac(schema: SpaceSchema, outcome):
    """Point mass at an outcome, or at a partial outcome given as a mapping.

    A full outcome yields a Measure on the whole space; a mapping of
    coordinate references to labels yields the point Margin on those
    coordinates (the usual way to build an intervention measure).
    """
    if isinstance(outcome, Mapping):
        return Margin.point(schema, outcome)
    return Measure.dirac(schema, outcome)


def prob(P: Measure, A) -> Fraction:
    return P.prob(A)


def condition_event(P: Measure, G) -> Measure:
    return P.condition(G)


def resolve_partition(schema: SpaceSchema, sigma) -> tuple[frozenset, ...]:
    """Normalize a sub-sigma-algebra spec to its generating partition.

    Accepts a coordinate set (positions or references) or an explicit
    iterable of events; explicit partitions must be disjoint and cover the
    outcome space.  Finite sigma-algebras are atomic, so a partition is a
    complete representation.
    """
    if isinstance(sigma, (frozenset, set, tuple, list)) and sigma and all(
        isinstance(b, (frozenset, set)) for b in sigma
    ):
        blocks = tuple(frozenset(b) for b in sigma)
        seen: set = set()
        for b in blocks:
            if not b:
                raise ValueError("partition blocks must be nonempty")
            if b & seen:
                raise ValueError("partition blocks overlap")
            seen |= b
        if seen != schema.outcome_set():
            raise ValueError("partition does not cover the outcome space")
        return blocks
    return atoms_of(schema, sigma)


class AtomConditional:
    """Conditional probability given a sigma-algebra, tabulated per atom.

    Atoms of positive measure map to the event-conditional measure; null
    atoms keep the unconditioned base measure (any version agrees with it up
    to null events) and are flagged in `null_atoms`.
    """

    def __init__(self, base: Measure, atoms, table, null_atoms):
        self.base = base
        self.atoms = tuple(atoms)
        self.table = dict(table)
        self.null_atoms = tuple(null_atoms)

    def at(self, outcome) -> Measure:
        """The conditional measure for the atom containing an outcome."""
        self.base.schema.require_outcome(outcome)
        for block in self.atoms:
            if tuple(outcome) in block:
                return self.table[block]
        raise AssertionError("atoms do not cover the outcome space")

    def value(self, outcome, A) -> Fraction:
        return self.at(outcome).prob(A)


def condition_sigma(P: Measure, sigma) -> AtomConditional:
    blocks = resolve_partition(P.schema, sigma)
    table = {}
    null_atoms = []
    for block in blocks:
        if P.prob(block) > 0:
            table[block] = P.condition(block)
        else:
            table[block] = P
            null_atoms.append(block)
    return AtomConditional(P, blocks, table, null_atoms)


# -- independence and almost-sure equality ---------------------------------


def independent(P: Measure, A, B) -> bool:
    return P.prob(frozenset(A) & frozenset(B)) == P.prob(A) * P.prob(B)


def independent_given(P: Measure, G, A, B) -> bool:
    return independent(P.condition(G), A, B)


def independent_given_sigma(P: Measure, sigma, A, B) -> bool:
    """Conditional independence given a sigma-algebra (positive atoms only)."""
    cond = condition_sigma(P, sigma)
    for block in cond.atoms:
        if block in set(cond.null_atoms):
            continue
        if not independent(cond.table[block], A, B):
            return False
    return True


def independent_sigmas(P: Measure, S1, S2) -> bool:
    """Independence of two coordinate sigma-algebras.

    Checking all pairs of generator atoms suffices: both sides of the
    product identity are additive in each argument, so it extends to
    arbitrary unions of atoms.
    """
    for a in atoms_of(P.schema, S1):
        pa = P.prob(a)
        for b in atoms_of(P.schema, S2):
            if P.prob(a & b) != pa * P.prob(b):
                return False
    return True


def as_equal(P: Measure, A, B) -> bool:
    """Almost-sure equality: the symmetric difference is null."""
    A, B = frozenset(A), frozenset(B)
    return P.prob(A ^ B) == 0


def as_equal_given(P: Measure, G, A, B) -> bool:
    return as_equal(P.condition(G), A, B)


def support_trace(P: Measure, S) -> frozenset:
    """The partition of the support induced by the atoms of sigma(S)."""
    supp = P.support()
    return frozenset(block & supp for block in atoms_of(P.schema, S) if block & supp)


def synchronized(P: Measure, S1, S2) -> bool:
    """Maximal information share between two coordinate sigma-algebras.

    True iff the atom partitions of S1 and S2, restricted to the support of
    P with null blocks dropped, induce the same partition of the support.
    For finite atomic sigma-algebras this is equivalent to the definitional
    check that every event of one algebra is almost surely equal to some
    event of the other, and vice versa.
    """
    return support_trace(P, S1) == support_trace(P, S2)
