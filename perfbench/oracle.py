"""Reference results computed without the program under test.

Compiled structural spaces are evaluated on the twin-network layout straight
from the generated function tables: a kernel row fixes the intervened
variables in each world's sub-model and pushes the noise law through both
solutions.  Interventions compose by mixing the intervention laws over the
coordinates a later kernel does not fix.  Query statements are then decided
by enumerating supports, and transcript lines are rendered from those
decisions.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from gen import LABELS, And, Atom, Name, Not, Or


class OracleError(AssertionError):
    """A generated input broke an assumption the generators promise."""


# -- rendering --------------------------------------------------------------


def fmt_decimal(q: Fraction, places: int = 6) -> str:
    """Round-half-even decimal with a fixed number of places."""
    scale = 10 ** places
    n, r = divmod(q.numerator * scale, q.denominator)
    if 2 * r > q.denominator or (2 * r == q.denominator and n % 2):
        n += 1
    return f"{n // scale}.{n % scale:0{places}d}"


def fmt_value(q: Fraction) -> str:
    return f"{q} ~ {fmt_decimal(q)}"


def _bool(b: bool) -> str:
    return "true" if b else "false"


# -- events and measures ----------------------------------------------------------


def holds(e, o: tuple, index: dict, bindings: dict) -> bool:
    if isinstance(e, Atom):
        return o[index[e.key]] == e.label
    if isinstance(e, Name):
        return holds(bindings[e.name], o, index, bindings)
    if isinstance(e, Not):
        return not holds(e.inner, o, index, bindings)
    if isinstance(e, And):
        return all(holds(i, o, index, bindings) for i in e.items)
    if isinstance(e, Or):
        return any(holds(i, o, index, bindings) for i in e.items)
    raise TypeError(e)


def prob(P: dict, pred) -> Fraction:
    return sum((q for o, q in P.items() if pred(o)), Fraction(0))


def conditioned(P: dict, pred) -> dict:
    mass = prob(P, pred)
    if mass == 0:
        raise OracleError("generated conditioning event is null")
    return {o: q / mass for o, q in P.items() if pred(o)}


def add_into(out: dict, o, q):
    out[o] = out.get(o, Fraction(0)) + q


# -- space models -----------------------------------------------------------------


class ScmSpace:
    """The compiled two-world space of a generated structural model."""

    def __init__(self, m):
        self.m = m
        self.keys = m.keys
        self.index = {k: i for i, k in enumerate(self.keys)}
        self._noise = list(m.noise_assignments())
        self._base: dict = {}

    def _solve(self, u, do: dict) -> list:
        vals = []
        for i in range(self.m.n):  # parents always precede children
            vals.append(do[i] if i in do else
                        self.m.f(i, tuple(vals[p] for p in self.m.parents[i]), u[i]))
        return vals

    def base(self, assign: dict) -> dict:
        """Kernel row of the compiled mechanism for {key: label} on its keys."""
        memo_key = frozenset(assign.items())
        hit = self._base.get(memo_key)
        if hit is None:
            do_f, do_cf = {}, {}
            for key, lab in assign.items():
                world, var = key.split(".")
                (do_f if world == "F" else do_cf)[int(var[1:])] = int(lab)
            hit = {}
            for u, q in self._noise:
                o = tuple(LABELS[v] for v in self._solve(u, do_f) + self._solve(u, do_cf))
                add_into(hit, o, q)
            self._base[memo_key] = hit
        return hit

    def kernel(self, interventions, assign: dict) -> dict:
        """Kernel row on assign's keys after a sequence of interventions.

        Working back from the latest intervention, each law is marginalised
        onto the coordinates neither the row nor a later intervention fixes.
        """
        terms = [(dict(assign), Fraction(1))]
        covered = set(assign)
        for keys, dist in reversed(interventions):
            free = [i for i, k in enumerate(keys) if k not in covered]
            if not free:
                continue
            marg: dict = {}
            for row, q in dist.items():
                add_into(marg, tuple(row[i] for i in free), q)
            names = [keys[i] for i in free]
            terms = [({**a, **dict(zip(names, r))}, w * q)
                     for a, w in terms for r, q in marg.items() if q]
            covered.update(names)
        out: dict = {}
        for a, w in terms:
            for o, q in self.base(a).items():
                add_into(out, o, w * q)
        return out

    def measure(self, interventions) -> dict:
        return self.kernel(interventions, {})

    def rows(self, U) -> list:
        return list(itertools.product(LABELS, repeat=len(U)))

    def is_total(self, U) -> bool:
        return True


class TableSpace:
    """A space given by explicit sparse tables (the wide files)."""

    def __init__(self, keys, measure: dict, kernels):
        self.keys = tuple(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self._P = measure
        self._k = {tuple(on): dict(rows) for on, rows in kernels}

    def measure(self, interventions) -> dict:
        if interventions:
            raise OracleError("table spaces take no interventions")
        return self._P

    def kernel(self, interventions, assign: dict) -> dict:
        on = tuple(sorted(assign, key=self.index.get))
        return self._k[on][tuple(assign[k] for k in on)]

    def rows(self, U) -> list:
        return sorted(self._k.get(tuple(U), {}))

    def is_total(self, U) -> bool:
        return len(self.rows(U)) == 2 ** len(U)


# -- query scripts ------------------------------------------------------------------


def _ordered(space, keys) -> tuple:
    return tuple(sorted(keys, key=space.index.get))


def _coords_str(keys) -> str:
    return "{" + ", ".join(keys) + "}"


def _describe(keys, row) -> str:
    return "(" + ", ".join(f"{k}={lab}" for k, lab in zip(keys, row)) + ")"


def _match(space, keys, row):
    idx = [space.index[k] for k in keys]
    return lambda o: all(o[i] == lab for i, lab in zip(idx, row))


def _effect_line(space, iv, U, A, src) -> str:
    P = space.measure(iv)
    p_a = prob(P, A)
    rows = space.rows(U)
    for row in rows:
        v = prob(space.kernel(iv, dict(zip(U, row))), A)
        if v != p_a:
            return f"{src} = active witness {_describe(U, row)} value {fmt_value(v)} " \
                   f"baseline {fmt_value(p_a)}"
    if not rows or not space.is_total(U):
        return f"{src} = undetermined missing {_coords_str(U)}"
    # Total mechanism: look for a dormant pair in the program's kernel order.
    n = len(space.keys)
    subsets = sorted((frozenset(c) for r in range(n + 1)
                      for c in itertools.combinations(range(n), r)),
                     key=lambda s: (len(s), sorted(s)))
    u_pos = {space.index[k] for k in U}
    for S in subsets:
        if not S & u_pos:
            continue
        s_keys = [space.keys[p] for p in sorted(S)]
        partner = [space.keys[p] for p in sorted(S - u_pos)]
        for row in itertools.product(LABELS, repeat=len(s_keys)):
            assign = dict(zip(s_keys, row))
            v = prob(space.kernel(iv, assign), A)
            w = prob(space.kernel(iv, {k: assign[k] for k in partner}), A)
            if v != w:
                return (f"{src} = dormant witness {_coords_str(s_keys)}{_describe(s_keys, row)} "
                        f"value {fmt_value(v)} against {_coords_str(partner)} value {fmt_value(w)}")
    return f"{src} = no-effect"


def _conditional_effect_line(space, iv, U, A, G, src) -> str:
    P = space.measure(iv)
    baseline = prob(conditioned(P, G), A)
    for row in space.rows(U):
        K = space.kernel(iv, dict(zip(U, row)))
        mass = prob(K, G)
        if mass == 0:
            continue
        v = prob(K, lambda o: G(o) and A(o)) / mass
        if v != baseline:
            return (f"{src} = active witness {_describe(U, row)} value {fmt_value(v)} "
                    f"baseline {fmt_value(baseline)}")
    if not space.is_total(U):
        raise OracleError("conditional effects are generated on total mechanisms only")
    return f"{src} = inactive baseline {fmt_value(baseline)}"


def _source(space, iv, U) -> bool:
    P = space.measure(iv)
    for row in space.rows(U):
        in_block = _match(space, U, row)
        pb = prob(P, in_block)
        if pb == 0:
            continue
        want = {o: q / pb for o, q in P.items() if in_block(o)}
        got = {o: q for o, q in space.kernel(iv, dict(zip(U, row))).items() if q}
        if got != want:
            return False
    return True


def _indep_sets(space, P, S1, S2) -> bool:
    for r1 in itertools.product(LABELS, repeat=len(S1)):
        a = _match(space, S1, r1)
        pa = prob(P, a)
        for r2 in itertools.product(LABELS, repeat=len(S2)):
            b = _match(space, S2, r2)
            if prob(P, lambda o: a(o) and b(o)) != pa * prob(P, b):
                return False
    return True


def _trace(space, P, S) -> frozenset:
    idx = [space.index[k] for k in S]
    blocks: dict = {}
    for o in P:
        blocks.setdefault(tuple(o[i] for i in idx), set()).add(o)
    return frozenset(frozenset(b) for b in blocks.values())


def transcript(space, stmts) -> list:
    """Expected transcript lines of a generated script run on `space`."""
    iv: list = []
    bindings: dict = {}
    conds: list = []
    lines = []

    def pred(e):
        return lambda o: holds(e, o, space.index, bindings)

    def current():
        P = space.measure(iv)
        for e in conds:
            P = conditioned(P, pred(e))
        return P

    for s in stmts:
        k, a = s.kind, s.args
        if k == "LET":
            bindings[a[0]] = a[1]
        elif k == "CONDITION":
            conds.append(a[0])
            current()
        elif k == "INTERVENE":
            iv.append((a[0], a[1]))
        elif k == "PROB":
            lines.append(f"{s.text} = {fmt_value(prob(current(), pred(a[0])))}")
        elif k in ("INDEP", "INDEP_SETS"):
            P = current()
            if a[2] is not None:
                P = conditioned(P, pred(a[2]))
            if k == "INDEP":
                A, B = pred(a[0]), pred(a[1])
                verdict = prob(P, lambda o: A(o) and B(o)) == prob(P, A) * prob(P, B)
            else:
                verdict = _indep_sets(space, P, _ordered(space, a[0]), _ordered(space, a[1]))
            lines.append(f"{s.text} = {_bool(verdict)}")
        elif k == "SYNC":
            P = current()
            lines.append(f"{s.text} = {_bool(_trace(space, P, a[0]) == _trace(space, P, a[1]))}")
        elif k == "EFFECT":
            U = _ordered(space, a[0])
            if a[2] is None:
                lines.append(_effect_line(space, iv, U, pred(a[1]), s.text))
            else:
                lines.append(_conditional_effect_line(
                    space, iv, U, pred(a[1]), pred(a[2]), s.text))
        elif k == "SOURCE":
            lines.append(f"{s.text} = {_bool(_source(space, iv, _ordered(space, a[0])))}")
        else:
            raise OracleError(f"unknown statement kind {k}")
    return lines


# -- compiled files and spaces -------------------------------------------------


def scm_twin_measure(m) -> dict:
    """Observational measure of the compiled space, keyed by {key: label} sets."""
    space = ScmSpace(m)
    return keyed(space.keys, space.measure([]))


def backtracking_measure(m, coupling: dict) -> dict:
    space = ScmSpace(m)
    out: dict = {}
    for (u, v), q in coupling.items():
        f = space._solve(u, {})
        cf = space._solve(v, {})
        add_into(out, tuple(LABELS[x] for x in f + cf), q)
    return keyed(space.keys, out)


def po_measure(m) -> dict:
    """Pushforward of the unit law: one world per treatment plus OBS."""
    out: dict = {}
    for unit, q in zip(m.units, m.weights):
        o = [(f"W{j}.{var}", fn[unit]) for j, ((var, _x), fn) in enumerate(m.potentials, start=1)]
        o += [(f"OBS.{var}", fn[unit]) for var, fn in m.observed.items()]
        add_into(out, frozenset(o), q)
    return out


def keyed(keys, table: dict) -> dict:
    return {frozenset(zip(keys, o)): q for o, q in table.items() if q}


_ENTRY = re.compile(r"^\s*\((.*)\) = (\S+)$")


def read_cfs(text: str):
    """Read a canonical .cfs file: (measure, {kernel keys: {row: body}}),
    tables keyed by frozensets of (key, label) pairs, zeros left out."""
    measure: dict = {}
    kernels: dict = {}
    table = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped == "measure {":
            table = measure
        elif stripped.startswith("kernel on {"):
            on = tuple(k.strip() for k in stripped[len("kernel on {"):-3].split(","))
            kernels[on] = {}
            current_kernel = kernels[on]
        elif stripped.startswith("given ("):
            row = frozenset(_pairs(stripped[len("given ("):-3]))
            table = current_kernel[row] = {}
        elif table is not None and (hit := _ENTRY.match(line)):
            table[frozenset(_pairs(hit.group(1)))] = Fraction(hit.group(2))
    return measure, kernels


def _pairs(body: str):
    for part in body.split(", "):
        key, _, lab = part.partition("=")
        yield key, lab
