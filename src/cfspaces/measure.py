"""Probability measures with exact rational arithmetic.

A measure holds integer numerators over one common denominator, and every
probability it reports is a fractions.Fraction, so every identity checked
by this package (additivity, independence products, almost-sure equality)
is an exact equation rather than a floating-point approximation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping

from .space import Event, SpaceSchema, projector


class ConditioningUndefinedError(ValueError):
    """Conditioning on an event of probability zero is undefined."""


def law(weights: Mapping, what: str = "") -> dict:
    """The nonzero part of a finite law, checked.

    Weights become Fractions; they must be nonnegative and sum to exactly
    one, which is summed on their integer numerators.  `what` names the law
    in messages ("noise" gives "negative noise weight ...").
    """
    return _law(weights, what)[0]


def _law(weights: Mapping, what: str = "") -> tuple[dict, dict, int]:
    """`law`, and its integer numerators over their common denominator."""
    what = f"{what} weight" if what else "weight"
    w: dict = {}
    for key, q in weights.items():
        if not isinstance(q, Fraction):
            q = Fraction(q)
        if q.numerator < 0:
            raise ValueError(f"negative {what} {q} at {key!r}")
        if q:
            w[key] = q
    nums, den = ints(w)
    total = sum(nums.values())
    if total != den:
        raise ValueError(f"{what}s sum to {Fraction(total, den)}, not 1")
    return w, nums, den


def ints(weights: Mapping) -> tuple[dict, int]:
    """Fraction weights as (integer numerators, common denominator).

    The denominator is the lcm of the weights' own, which for Fractions in
    lowest terms is canonical: no prime divides it and every numerator.
    """
    den = math.lcm(*(q.denominator for q in weights.values()))
    return {key: q.numerator * (den // q.denominator) for key, q in weights.items()}, den


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

    Inside, the weights are positive integer numerators with no common
    factor over one denominator, their sum, so equal laws have equal
    tables; `weight`, `rows` and `as_dict` give Fractions.
    """

    __slots__ = ("schema", "on", "_n", "_d")

    def __init__(self, schema: SpaceSchema, on, weights: Mapping):
        on = tuple(sorted(schema.positions(on)))
        rows: dict = {}
        for row, q in weights.items():
            row = tuple(row)
            if row in rows:
                raise ValueError(f"duplicate weight entry for {row!r}")
            rows[row] = q
        _, self._n, self._d = _law(rows)
        schema.require_rows(on, rows)
        self.schema, self.on = schema, on

    @classmethod
    def _of(cls, schema: SpaceSchema, on: tuple, nums: dict):
        """The law proportional to positive integer weights on rows over
        the sorted positions `on`, unchecked."""
        self = object.__new__(cls)
        self.schema, self.on = schema, on
        g = math.gcd(*nums.values())
        if g > 1:
            nums = {row: n // g for row, n in nums.items()}
        self._n, self._d = nums, sum(nums.values())
        return self

    @staticmethod
    def point(schema: SpaceSchema, assignment: Mapping) -> "Margin":
        """Dirac measure on the projection named by the assignment keys."""
        fixed = schema.assignment(assignment)
        return Margin(schema, fixed, {tuple(fixed[p] for p in sorted(fixed)): 1})

    @staticmethod
    def uniform(schema: SpaceSchema, S) -> "Margin":
        on = tuple(sorted(schema.positions(S)))
        return Margin._of(schema, on, dict.fromkeys(schema.rows(on), 1))

    def weight(self, row) -> Fraction:
        return Fraction(self._n.get(tuple(row), 0), self._d)

    def rows(self):
        """Nonzero (row, weight) pairs in ascending row order."""
        d = self._d
        return [(row, Fraction(n, d)) for row, n in sorted(self._n.items())]

    items = rows

    def values(self) -> list:
        """Nonzero weights in ascending row order."""
        return [q for _, q in self.rows()]

    def __len__(self) -> int:
        """The number of rows with nonzero weight."""
        return len(self._n)

    def as_dict(self) -> dict:
        d = self._d
        return {row: Fraction(n, d) for row, n in self._n.items()}

    def support(self) -> frozenset:
        return frozenset(self._n)

    def mismatches(self, other: "Margin", swap=None):
        """(row, weight here, weight of `other` at swap(row)) wherever the
        two differ, in ascending row order; `swap` is an involution on rows
        (the identity when None).

        Equal canonical tables have no mismatch; otherwise both weights
        vanish off supp(self) | swap(supp(other)), so only that set is visited.
        """
        theirs = other._n if swap is None else dict(zip(map(swap, other._n), other._n.values()))
        if theirs == self._n:
            return
        for row in sorted(self._n.keys() | theirs.keys()):
            v, w = Fraction(self._n.get(row, 0), self._d), Fraction(theirs.get(row, 0), other._d)
            if v != w:
                yield row, v, w

    def marginal(self, S) -> "Margin":
        """Pushforward onto the coordinates in S, which must lie within `on`."""
        S = self.schema.positions(S)
        sub = tuple(sorted(S))
        if not S.issubset(self.on):
            raise ValueError(f"positions {sub} are not within the projection {self.on}")
        key = projector(self.on, sub)
        return Margin._of(self.schema, sub, pushforward(zip(map(key, self._n), self._n.values())))

    def __eq__(self, other):
        return (
            isinstance(other, Margin)
            and self.schema == other.schema
            and self.on == other.on
            and self._n == other._n
        )

    def __hash__(self):
        return hash((self.schema, self.on, frozenset(self._n.items())))

    def __repr__(self):
        return f"{type(self).__name__}(on={self.on}, {len(self._n)} rows)"


class Measure(Margin):
    """A probability measure on the full outcome space: a Margin on every position.

    Rows are full outcomes.  Only what needs whole outcomes lives here:
    event probabilities, conditioning, mixtures and the full-space
    constructors.
    """

    __slots__ = ()

    def __init__(self, schema: SpaceSchema, weights: Mapping):
        super().__init__(schema, schema.all_on, weights)

    @classmethod
    def uniform(cls, schema: SpaceSchema) -> "Measure":
        return cls._of(schema, schema.all_on, dict.fromkeys(schema.outcomes(), 1))

    @classmethod
    def dirac(cls, schema: SpaceSchema, outcome) -> "Measure":
        return cls(schema, {tuple(outcome): 1})

    @classmethod
    def _mix(cls, schema: SpaceSchema, parts: list) -> "Measure":
        """Mix (positive int weight, measure) pairs in proportion to the weights, unchecked."""
        den = math.lcm(*(m._d for _, m in parts))
        w: dict = {}
        for a, m in parts:
            f = a * (den // m._d)
            for outcome, n in m._n.items():
                w[outcome] = w[outcome] + f * n if outcome in w else f * n
        return cls._of(schema, schema.all_on, w)

    def prob(self, A) -> Fraction:
        """Total weight of an event (exact, finitely additive)."""
        return self._prob(self.schema.require_event(A))

    def _prob(self, A: Event) -> Fraction:
        """`prob` of an event that has passed `require_event`."""
        w = self._n
        if len(A.on) == len(self.on) and len(A.rows) <= len(w):  # few members: look them up
            return Fraction(sum(w[o] for o in A.rows if o in w), self._d)
        return Fraction(sum(compress(w.values(), A.mask(w))), self._d)

    def condition(self, G) -> "Measure":
        """The conditional measure given G; undefined when G is null."""
        return self._condition(self.schema.require_event(G))

    def _condition(self, G: Event) -> "Measure":
        """`condition` on an event that has passed `require_event`."""
        w = dict(compress(self._n.items(), G.mask(self._n)))
        if not w:
            raise ConditioningUndefinedError("conditioning event has probability zero")
        return Measure._of(self.schema, self.on, w)


def dirac(schema: SpaceSchema, outcome):
    """Point mass at an outcome, or at a partial outcome given as a mapping.

    A full outcome yields a Measure on the whole space; a mapping of
    coordinate references to labels yields the point Margin on those
    coordinates (the usual way to build an intervention measure).
    """
    if isinstance(outcome, Mapping):
        return Margin.point(schema, outcome)
    return Measure.dirac(schema, outcome)


def condition_event(P: Measure, G) -> Measure:
    return P.condition(G)


# -- independence and almost-sure equality ---------------------------------
# Each is written once, over a family of measures (one measure, or the rows
# of a kernel); its events pass `require_event` once per call.


def _independent(schema: SpaceSchema, family, A, B) -> bool:
    """P(A & B) = P(A) P(B) under every measure P of the family."""
    A, B = schema.require_event(A), schema.require_event(B)
    both = A & B
    return all(m._prob(both) == m._prob(A) * m._prob(B) for m in family)


def _as_equal(schema: SpaceSchema, family, A, B) -> bool:
    """A and B differ by a null set under every measure of the family."""
    delta = schema.require_event(A) ^ schema.require_event(B)
    return all(m._prob(delta) == 0 for m in family)


def independent(P: Measure, A, B) -> bool:
    return _independent(P.schema, (P,), A, B)


def independent_given(P: Measure, G, A, B) -> bool:
    return independent(P.condition(G), A, B)


def independent_sigmas(P: Measure, S1, S2) -> bool:
    """Independence of two coordinate sigma-algebras.

    Checking all pairs of generator atoms suffices: both sides of the
    product identity are additive in each argument, so it extends to
    arbitrary unions of atoms.  Null atoms satisfy it; positive ones are
    rows of the marginals on S1 and S2, meeting in their join on S1 | S2
    (in nothing when they disagree on S1 & S2).
    """
    m1, m2 = P.marginal(S1), P.marginal(S2)
    m12 = P.marginal(m1.on + m2.on)
    join, back = projector(m1.on + m2.on, m12.on), projector(m12.on, m2.on)
    return all(back(row := join(r1 + r2)) == r2
               and m12._n.get(row, 0) * m1._d * m2._d == n1 * n2 * m12._d
               for r1, n1 in m1._n.items() for r2, n2 in m2._n.items())


def as_equal(P: Measure, A, B) -> bool:
    """Almost-sure equality: the symmetric difference is null."""
    return _as_equal(P.schema, (P,), A, B)


def as_equal_given(P: Measure, G, A, B) -> bool:
    return as_equal(P.condition(G), A, B)


def same_trace(schema: SpaceSchema, supp, S1, S2) -> bool:
    """Whether sigma(S1) and sigma(S2) cut the outcomes in `supp` into the
    same blocks: iff sigma(S1 | S2), which cuts their common refinement,
    makes as many blocks as each, i.e. `supp` has as many rows on each."""
    S1, S2 = schema.positions(S1), schema.positions(S2)
    return len({len(set(map(projector(schema.all_on, sorted(S)), supp)))
                for S in (S1, S2, S1 | S2)}) == 1


def synchronized(P: Measure, S1, S2) -> bool:
    """Maximal information share between two coordinate sigma-algebras.

    True iff the atom partitions of S1 and S2, restricted to the support of
    P with null blocks dropped, induce the same partition of the support.
    For finite atomic sigma-algebras this is equivalent to the definitional
    check that every event of one algebra is almost surely equal to some
    event of the other, and vice versa.
    """
    return same_trace(P.schema, P._n, S1, S2)
