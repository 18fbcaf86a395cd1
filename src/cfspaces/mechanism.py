"""Causal kernels, mechanisms, axiom checks, interventions, effects, sources.

A causal kernel on a coordinate set S maps each partial outcome on S to a
full-space measure describing the post-intervention state; it must
concentrate on outcomes agreeing with its argument (interventional
determinism).  A mechanism is a family of kernels keyed by coordinate sets
and always contains the empty key, whose single row is the observational
measure.

Mechanisms may be partial, both in which coordinate sets carry a kernel and
in which rows of a kernel are specified; the worked fixtures bundled with
this package specify only a handful of kernels each.  Operations that need
absent data either raise MissingKernelError or return an undetermined
verdict carrying the blocking keys, rather than inventing a completion.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .measure import Margin, Measure, _as_equal, _independent, same_trace
from .space import Coordinate, Event, SpaceSchema, budget, projector


class MissingKernelError(LookupError):
    """An operation required a causal kernel, or a kernel row, that is absent."""


def _lacking(schema: SpaceSchema, S, rows, why: str) -> MissingKernelError:
    """The error of a kernel on S without `rows`, naming eight of them at most."""
    named = ", ".join(schema.describe_row(S, row) for row in rows[:8])
    more = f" and {len(rows) - 8} more" if len(rows) > 8 else ""
    return MissingKernelError(f"kernel on {schema.describe_set(S)} lacks rows {named}{more}{why}")


class Kernel:
    """A (possibly row-partial) causal kernel on the coordinates in `on`."""

    __slots__ = ("schema", "on", "rows")

    def __init__(self, schema: SpaceSchema, on, rows: Mapping):
        self.schema = schema
        self.on = schema.positions(on)
        table: dict = {}
        for row, measure in rows.items():
            row = tuple(row)
            if not isinstance(measure, Measure) or measure.schema != schema:
                raise ValueError("kernel rows must map to measures on the same schema")
            table[row] = measure
        if not table:
            raise ValueError("kernel has no rows")
        schema.require_rows(sorted(self.on), table)
        self.rows = table

    @classmethod
    def _of(cls, schema: SpaceSchema, on: frozenset, rows: dict):
        """The kernel on the positions `on` with `rows`, a nonempty dict of
        rows over sorted(on) to Measures on `schema`, unchecked."""
        self = object.__new__(cls)
        self.schema, self.on, self.rows = schema, on, rows
        return self

    def has_row(self, row) -> bool:
        return tuple(row) in self.rows

    def measure(self, row) -> Measure:
        try:
            return self.rows[tuple(row)]
        except KeyError:
            raise MissingKernelError(  # the row as written: it may be no row at all
                f"kernel on {self.schema.describe_set(self.on)} has no row {tuple(row)!r}"
            ) from None

    def is_total(self) -> bool:
        return len(self.rows) == self.schema.size(self.on)

    def missing_rows(self) -> tuple[tuple, ...]:
        return tuple(r for r in self.schema.rows(self.on) if r not in self.rows)

    def __repr__(self):
        return f"Kernel(on={sorted(self.on)}, rows={len(self.rows)})"


class Mechanism:
    """A partial family of causal kernels; always contains the empty key.

    A lazy mechanism builds the kernel on S when `get(S)` or `S in mech`
    first asks: a compiled one with its builder, the one `intervene`
    returns from the parent's kernel on S | U (a kernel on S ⊇ U is the
    parent's).  Kernels and absent keys are cached (racing threads build
    equal kernels).  `keys()`, `is_total()` and `derivation()` scan which
    rows are present; `kernels()` builds them all.  `P` makes the empty
    kernel unless one is given; the one `intervene` returns derives it.
    """

    def __init__(self, schema: SpaceSchema, P: Measure | None, kernels: Iterable[Kernel] = (), *,
                 _do: tuple | None = None, _build=None):
        self.schema = schema
        self._source = _do  # (parent, U, Q) of a derived mechanism
        self._build = _build  # S -> the kernel on S, of a compiled mechanism
        self._scanned = None  # (drop notes, layout), once listed
        table: dict = {}
        for k in kernels:
            if k.schema != schema:
                raise ValueError("kernel schema does not match the mechanism schema")
            if k.on in table:
                raise ValueError(f"duplicate kernel for coordinate set {sorted(k.on)}")
            table[k.on] = k
        if _do is None and frozenset() not in table:
            if P is None:
                raise ValueError("a mechanism needs the observational measure or a kernel on the empty set")
            table[frozenset()] = Kernel(schema, (), {(): P})
        self._k = table

    def _lookup(self, S: frozenset) -> Kernel | None:
        # Ancestors derive first, oldest first: a long chain needs no recursion.
        chain, mech, key = [], self, S
        while key not in mech._k and mech._source is not None:
            chain.append((mech, key))
            mech, key = mech._source[0], key | mech._source[1]
        if key not in mech._k and mech._build is not None:
            mech._k[key] = mech._build(key)
        for mech, key in reversed(chain):
            mech._k[key] = mech._derive(key)
        return self._k.get(S)

    def _derive(self, S: frozenset) -> Kernel | None:
        parent, U, Q = self._source
        k_w = parent._lookup(S | U)
        if k_w is None or U <= S:
            return k_w
        rows = {row: k_w.rows[parts[0][1]] if len(parts) == 1  # Q is a point on U - S: shared
                else Measure._mix(self.schema, [(a, k_w.rows[full]) for a, full in parts])
                for row, parts in _mixing_plan(S, U, Q, k_w.rows) if parts is not None}
        return Kernel._of(self.schema, S, rows) if rows else None

    def _layout(self) -> dict:
        """S -> the rows of the kernel on S, for every present key."""
        if self._build is not None:  # every row of every key, listed once
            if self._scanned is None:
                budget(math.prod(len(c.labels) + 1 for c in self.schema.coords))  # rows of all keys
                m = len(self.schema.coords)
                self._scanned = (), {frozenset(S): set(self.schema.rows(S))
                                     for r in range(m + 1)
                                     for S in itertools.combinations(range(m), r)}
            return self._scanned[1]
        if self._source is None:
            return {S: k.rows for S, k in self._k.items()}
        chain, mech = [], self  # unscanned ancestors are scanned first
        while mech._source is not None and mech._scanned is None:
            chain.append(mech)
            mech = mech._source[0]
        for mech in reversed(chain):
            mech._scanned = mech._scan()
        return self._scanned[1]

    def _scan(self) -> tuple:
        """(drop notes, layout) of a derived mechanism, read off the
        parent's layout: no kernel is built, and a total source plans nothing."""
        parent, U, Q = self._source
        present = parent._layout()
        layout: dict = {}
        dropped = []
        for W in parent.keys():
            if not U <= W:
                if W | U not in present:
                    dropped.append(DerivationNote(W, None, W | U))
                continue
            # Every S with S | U == W, i.e. S = (W \ U) | X for X within W & U.
            overlap = sorted(W & U)
            total = len(present[W]) == self.schema.size(W)
            for r in range(len(overlap) + 1):
                for extra in itertools.combinations(overlap, r):
                    S = (W - U) | frozenset(extra)
                    if total:  # every row over W is there, so every row over S derives
                        layout[S] = set(self.schema.rows(S))
                        continue
                    plan = list(_mixing_plan(S, U, Q, present[W]))
                    dropped += [DerivationNote(S, row, W) for row, parts in plan if parts is None]
                    rows = {row for row, parts in plan if parts is not None}
                    if rows:
                        layout[S] = rows
                    else:
                        dropped.append(DerivationNote(S, None, W))
        return tuple(dropped), layout

    def __contains__(self, S) -> bool:
        return self._lookup(self.schema.positions(S)) is not None

    def get(self, S) -> Kernel:
        S = self.schema.positions(S)
        k = self._lookup(S)
        if k is None:
            raise MissingKernelError(f"no kernel on {self.schema.describe_set(S)}")
        return k

    def keys(self) -> tuple[frozenset, ...]:
        return tuple(sorted(self._layout(), key=lambda s: (len(s), sorted(s))))

    def kernels(self) -> tuple[Kernel, ...]:
        return tuple(self._lookup(S) for S in self.keys())

    def derivation(self) -> DerivationReport | None:
        """What the intervention that made this mechanism derived and
        dropped; None for a mechanism given kernel by kernel."""
        # keys() scans before the notes are read
        return None if self._source is None else DerivationReport(self.keys(), self._scanned[0])

    def is_total(self) -> bool:
        layout = self._layout()
        return len(layout) == 1 << len(self.schema.coords) and all(
            len(rows) == self.schema.size(S) for S, rows in layout.items())

    def __repr__(self):
        built = tuple(self._k.values())  # one copy, while other threads may build
        return f"Mechanism(kernels built: {len(built) - built.count(None)})"


@dataclass(frozen=True)
class DerivationNote:
    """One kernel (or kernel row) that an intervention could not derive."""

    S: frozenset
    row: tuple | None
    needs: frozenset


@dataclass(frozen=True)
class DerivationReport:
    derived: tuple[frozenset, ...]
    dropped: tuple[DerivationNote, ...]


class CfSpace:
    """A finite probability space, optionally equipped with a causal mechanism.

    Coordinates carry world labels, so the same object models plain causal
    spaces (one world), two-world counterfactual spaces and N-way spaces.
    Instances are immutable; interventions and marginalisation return new
    spaces.
    """

    def __init__(self, schema: SpaceSchema, P: Measure, mech: Mechanism | None = None):
        if P.schema != schema:
            raise ValueError("measure schema does not match the space schema")
        if mech is not None and mech.schema != schema:
            raise ValueError("mechanism schema does not match the space schema")
        self.schema = schema
        self.P = P
        self.mech = mech

    @property
    def derivation(self) -> DerivationReport | None:
        """The derivation report of an intervened space, None otherwise."""
        return None if self.mech is None else self.mech.derivation()

    def kernel(self, S) -> Kernel:
        if self.mech is None:
            raise MissingKernelError("space has no causal mechanism")
        return self.mech.get(S)

    def __repr__(self):
        mech = "no mechanism" if self.mech is None else repr(self.mech)
        return f"CfSpace({self.schema!r}, {mech})"


# -- axiom checking ---------------------------------------------------------


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str  # "trivial-intervention" or "interventional-determinism"
    S: frozenset
    row: tuple
    outcome: tuple
    detail: str


class CheckReport:
    """What a whole-family check found: its violations, and the pairs it
    could not check because a kernel or a row they need is absent."""

    def __init__(self, violations, uncheckable=()):
        self.violations = tuple(violations)
        self.uncheckable = tuple(uncheckable)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        return (f"CheckReport(ok={self.ok}, violations={len(self.violations)}, "
                f"uncheckable={len(self.uncheckable)})")


def check_axioms(space: CfSpace) -> CheckReport:
    """Verify the causal-space axioms on every kernel present.

    Axiom "trivial-intervention": the empty kernel equals the observational
    measure.  Axiom "interventional-determinism": each row's measure
    assigns zero mass to outcomes whose projection disagrees with the row
    (the finite equivalent of the quantified product axiom; the equivalence
    is exercised by the brute-force oracle tests).  Violations are data,
    not errors.
    """
    if space.mech is None:
        return CheckReport(())
    violations = []
    base = space.mech.get(()).rows[()]  # a kernel has rows; () is the only one on ∅
    for outcome, v, w in itertools.islice(base.mismatches(space.P), 1):  # the first only
        violations.append(AxiomViolation(
            "trivial-intervention", frozenset(), (), outcome,
            f"K_empty({outcome}) = {v} != P({outcome}) = {w}"))
    for S in space.mech.keys():
        kernel = space.mech.get(S)
        row_of = projector(space.schema.all_on, sorted(S))
        for row in sorted(kernel.rows):
            measure = kernel.rows[row]
            if all(map(row.__eq__, map(row_of, measure._n))):
                continue
            for outcome in sorted(measure.support()):
                if row_of(outcome) != row:
                    violations.append(AxiomViolation(
                        "interventional-determinism", S, row, outcome,
                        f"mass {measure.weight(outcome)} on outcome disagreeing with the row"))
    return CheckReport(violations)


# -- interventions ----------------------------------------------------------


def _mixing_plan(S: frozenset, U: frozenset, Q: Margin, rows_w):
    """For each row on S that a row in `rows_w` (of the kernel on W = S | U)
    restricts to: the (int weight, row on W) pairs whose mixture integrates
    the Q-marginal on U \\ S out, or None when `rows_w` lacks one of them."""
    on_w, on_s, rest = sorted(S | U), sorted(S), sorted(U - S)
    q_rest = sorted(Q.marginal(rest)._n.items())
    restrict, merge = projector(on_w, on_s), projector(on_s + rest, on_w)
    for row_s in sorted({restrict(row) for row in rows_w}):
        parts = [(a, merge(row_s + row_rest)) for row_rest, a in q_rest]
        yield row_s, parts if all(full in rows_w for _, full in parts) else None


def intervene(space: CfSpace, U, Q: Margin) -> CfSpace:
    """Intervene on the coordinates in U with the measure Q.

    Each new kernel on S is derived from the present kernel on S | U by
    integrating the Q-marginal over U \\ S, the first time it is read (a
    kernel on S ⊇ U is carried over unchanged).  The new measure is the
    derived kernel on ∅, the rows of the kernel on U mixed by Q; it is
    built at once.  Kernels whose prerequisite is absent are omitted and
    recorded in the derivation report of the result.  Interventions
    compose by repeated application.
    """
    schema = space.schema
    U = schema.positions(U)
    if space.mech is None:
        raise MissingKernelError("space has no causal mechanism")
    if Q.schema != schema or set(Q.on) != set(U):
        raise ValueError("intervention measure is not a measure on the intervened coordinates")
    k_u = space.mech.get(U)
    missing = [row for row in sorted(Q._n) if row not in k_u.rows]
    if missing:
        raise _lacking(schema, U, missing, " needed by the intervention measure")
    mech = Mechanism(schema, None, _do=(space.mech, U, Q))
    return CfSpace(schema, mech._lookup(frozenset()).rows[()], mech)


# -- causal effect taxonomy ---------------------------------------------------


@dataclass(frozen=True)
class EffectWitness:
    S: frozenset
    row: tuple
    value: Fraction
    reference: Fraction
    against: frozenset | None = None  # the S \ U side of a dormant witness


@dataclass(frozen=True)
class EffectVerdict:
    tag: str  # "no_effect" | "active" | "dormant" | "undetermined"
    witness: EffectWitness | None = None
    missing: tuple = ()


def _missing_required_keys(space: CfSpace, U) -> list[frozenset]:
    """The kernel keys blocking a no-effect certificate, eight at most: each
    S meeting U, or S - U, that is absent or row-partial, in size order.
    Every S the scan passes without a find is a present kernel, so the scan
    is bounded by the mechanism's size."""
    mech = space.mech
    found = []
    if not U:
        return found
    positions = sorted(space.schema.all_positions)
    for size in range(1, len(positions) + 1):
        for combo in itertools.combinations(positions, size):
            S = frozenset(combo)
            if not S & U:
                continue
            for side in (S, S - U):
                if side not in found and (side not in mech or not mech.get(side).is_total()):
                    found.append(side)
            if len(found) >= 8:
                return found
    return found


def classify_effect(space: CfSpace, U, A) -> EffectVerdict:
    """Classify the causal effect of the coordinates in U on the event A.

    Active: some kernel row on U moves the probability of A away from the
    observational value.  No effect: intervening jointly with U never
    differs from intervening without it, certified over every pair of
    kernels, which needs a total mechanism (the empty U is vacuously
    certified).  Dormant: not active, but some present pair disagrees.
    Verdicts that absent kernels or rows block are undetermined and carry
    the blocking keys.
    """
    schema = space.schema
    U = schema.positions(U)
    A = schema.require_event(A)
    if space.mech is None or U not in space.mech:
        return EffectVerdict("undetermined", missing=(U,))
    mech = space.mech
    k_u = mech.get(U)
    p_a = space.P._prob(A)
    for row in sorted(k_u.rows):
        v = k_u.rows[row]._prob(A)
        if v != p_a:
            return EffectVerdict("active", EffectWitness(U, row, v, p_a))
    if not k_u.is_total():
        # Activity cannot be ruled out, so neither dormant nor no-effect
        # can be certified.
        return EffectVerdict("undetermined", missing=(U,))

    dormant_witness = None
    partner_p: dict = {}  # (partner, row) -> that row's P(A), computed once
    for S in mech.keys():
        if not S & U:
            continue
        partner = S - U
        if partner not in mech:
            continue
        k_s, k_p = mech.get(S), mech.get(partner)
        restrict = projector(sorted(S), sorted(partner))
        for row in sorted(k_s.rows):
            sub = restrict(row)
            if not k_p.has_row(sub):
                continue
            w = partner_p.get((partner, sub))
            if w is None:
                w = partner_p[partner, sub] = k_p.rows[sub]._prob(A)
            v = k_s.rows[row]._prob(A)
            if v != w:
                dormant_witness = EffectWitness(S, row, v, w, against=partner)
                break
        if dormant_witness:
            break
    if dormant_witness is not None:
        return EffectVerdict("dormant", dormant_witness)
    missing = _missing_required_keys(space, U)
    if missing:
        return EffectVerdict("undetermined", missing=tuple(missing))
    return EffectVerdict("no_effect")


@dataclass(frozen=True)
class ConditionalEffectVerdict:
    """Outcome of a conditional causal-effect query.

    `values` maps each available kernel row to the post-intervention
    conditional probability of the event (None where the row gives the
    conditioning event mass zero); `baseline` is the observational
    conditional probability.
    """

    tag: str  # "active" | "inactive" | "undetermined"
    baseline: Fraction
    values: tuple
    witness: tuple | None = None
    missing_rows: tuple = ()

    def value(self, row) -> Fraction | None:
        for r, v in self.values:
            if r == tuple(row):
                return v
        raise MissingKernelError(f"no kernel row {tuple(row)!r} in the verdict")


def conditional_active_effect(space: CfSpace, U, A, G) -> ConditionalEffectVerdict:
    """Does intervening on U change the conditional probability of A given G?

    A row is a witness when it gives G positive mass and its conditional
    value differs from the observational conditional.  With row-partial
    kernels and no witness among present rows, the verdict is undetermined.
    """
    schema = space.schema
    k_u = space.kernel(schema.positions(U))
    G, A = schema.require_event(G), schema.require_event(A)
    baseline = space.P._condition(G)._prob(A)
    both = G & A
    values = []
    for row in sorted(k_u.rows):
        m = k_u.rows[row]
        mass = m._prob(G)
        values.append((row, m._prob(both) / mass if mass else None))
    witness = next(((row, v) for row, v in values if v is not None and v != baseline), None)
    if witness is not None:
        return ConditionalEffectVerdict("active", baseline, tuple(values), witness)
    missing = k_u.missing_rows()
    if missing:
        return ConditionalEffectVerdict(
            "undetermined", baseline, tuple(values), missing_rows=missing)
    return ConditionalEffectVerdict("inactive", baseline, tuple(values))


# -- conditioning on a coordinate sigma-algebra -------------------------------


def _conditionals(P: Measure, U: frozenset):
    """(row, P given the atom) at each P-positive atom of sigma(U), in
    ascending row order: the rows of supp(P) on U.  The scan builds an
    atom's conditional when it gets there."""
    row_of = projector(P.schema.all_on, sorted(U))
    n = P._n
    for row, atom in itertools.groupby(sorted(n, key=row_of), row_of):
        yield row, Measure._of(P.schema, P.on, {o: n[o] for o in atom})


def condition_sigma(P: Measure, S) -> Kernel:
    """P given sigma(S), the coordinate sigma-algebra of S, as a kernel on S.

    Its row at each P-positive atom is P given that atom; the null atoms
    are its missing rows, where any measure makes a version.
    """
    S = P.schema.positions(S)
    return Kernel._of(P.schema, S, dict(_conditionals(P, S)))


def independent_given_sigma(P: Measure, S, A, B) -> bool:
    """Conditional independence given sigma(S), at every P-positive atom."""
    return _independent(P.schema, condition_sigma(P, S).rows.values(), A, B)


# -- causal independence, equality, synchronisation --------------------------


def _total_kernel(space: CfSpace, U) -> Kernel:
    k = space.kernel(U)
    missing = k.missing_rows()
    if missing:
        raise _lacking(k.schema, k.on, missing, "; the query quantifies over all rows")
    return k


def causal_independent(space: CfSpace, U, A, B) -> bool:
    """Causal independence of two events on the kernel for U.

    The product identity must hold at every row, not just P-positive ones:
    an intervention may give mass to previously null rows.
    """
    k = _total_kernel(space, space.schema.positions(U))
    return _independent(space.schema, k.rows.values(), A, B)


def causally_equal(space: CfSpace, U, A, B) -> bool:
    """Whether every row of the kernel on U nullifies the symmetric difference."""
    k = _total_kernel(space, space.schema.positions(U))
    return _as_equal(space.schema, k.rows.values(), A, B)


def causal_sync(space: CfSpace, U, S1, S2) -> bool:
    """Causal synchronisation of two coordinate sigma-algebras on U.

    The definition requires, for each event of one algebra, a single
    partner event of the other whose symmetric difference every kernel row
    nullifies.  That holds iff the two atom partitions induce the same
    trace on the union of the row supports.
    """
    k = _total_kernel(space, space.schema.positions(U))
    supp = frozenset().union(*(m.support() for m in k.rows.values()))
    return same_trace(space.schema, supp, S1, S2)


# -- sources ------------------------------------------------------------------


def _is_version(space: CfSpace, U: frozenset, agrees) -> bool:
    """Whether agrees(kernel row, P given the atom) at every P-positive
    atom of sigma(U); see `is_source` for absent rows."""
    k = space.kernel(U)
    blocked = []
    for row, given in _conditionals(space.P, U):
        m = k.rows.get(row)
        if m is None:
            blocked.append(row)
        elif not agrees(m, given):
            return False
    if blocked:
        raise _lacking(space.schema, U, blocked, " at P-positive atoms")
    return True


def is_source(space: CfSpace, U, target) -> bool:
    """Whether the kernel on U is a version of conditioning on sigma(U).

    `target` is an event, any iterable of outcomes (tuples of label
    indices), or else coordinate references, checked on their marginal: a
    canonical table of the atoms of their sigma-algebra.  Only P-positive
    atoms are quantified; null atoms are exempt.  A definite mismatch
    answers False even if other rows are absent; an absence that blocks
    certification raises MissingKernelError.
    """
    U = space.schema.positions(U)
    members = target if isinstance(target, Event) else \
        () if isinstance(target, (int, str, Coordinate)) else tuple(target)
    if isinstance(members, Event) or members and all(
            isinstance(x, tuple) and {int}.issuperset(map(type, x)) for x in members):
        A = space.schema.require_event(members)
        return _is_version(space, U, lambda m, given: m._prob(A) == given._prob(A))
    T = space.schema.positions(members or target)
    return _is_version(space, U, lambda m, given: m.marginal(T) == given.marginal(T))


def global_source(space: CfSpace, U) -> bool:
    """Whether the kernel on U matches conditioning on sigma(U) everywhere."""
    return _is_version(space, space.schema.positions(U), operator.eq)


@dataclass(frozen=True)
class FundamentalReport:
    """Outcome of checking the fundamental source property of an intervention."""

    ok: bool
    kernel_mismatches: tuple
    source_mismatches: tuple


def verify_fundamental(space: CfSpace, U, Q: Margin) -> FundamentalReport:
    """Check that intervening on U leaves its kernel fixed and makes it a source.

    (i) the derived kernel on U equals the original kernel as a table, and
    (ii) in the intervened space that kernel is a version of conditioning
    on sigma(U) at every positive atom.
    """
    U = space.schema.positions(U)
    old = space.kernel(U)
    new_space = intervene(space, U, Q)
    new = new_space.kernel(U)
    kernel_mismatches = tuple(
        row for row in sorted(set(old.rows) | set(new.rows))
        if old.rows.get(row) != new.rows.get(row))
    source_mismatches = tuple(
        row for row, given in _conditionals(new_space.P, U) if new.rows.get(row) != given)
    ok = not kernel_mismatches and not source_mismatches
    return FundamentalReport(ok, kernel_mismatches, source_mismatches)
