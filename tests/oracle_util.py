"""Brute-force oracles for the fast-path implementations.

Each oracle quantifies the defining property over whole event algebras
with no shortcuts, so agreement with the library's linear-time checks is
meaningful.  Probabilities of arbitrary events are integer subset-sum
lookups over a common denominator, which keeps exhaustive sweeps over the
full power set of a 16-outcome space fast.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from cfspaces import (
    CfSpace,
    DerivationNote,
    Kernel,
    Measure,
    Mechanism,
    MissingKernelError,
    atoms_of,
    check_axioms,
)
from cfspaces.parser import ParseError, Token
from cfspaces.worlds import CrossWorldUncheckable, CrossWorldViolation, SymmetryFailure


def restrict_row(positions, row, sub):
    """Restrict a row keyed by sorted(positions) to the sorted positions in sub."""
    values = dict(zip(sorted(positions), row))
    return tuple(values[p] for p in sorted(sub))


def sigma_events(schema, S):
    """Every event of the sigma-algebra generated by the coordinates in S."""
    blocks = atoms_of(schema, S)
    events = []
    for r in range(len(blocks) + 1):
        for chosen in itertools.combinations(blocks, r):
            events.append(frozenset().union(*chosen) if chosen else frozenset())
    return events


def mask_tables(schema, measure):
    """Subset-sum table of integer numerators over a common denominator."""
    outcomes = schema.outcomes()
    n = len(outcomes)
    den = 1
    for _, q in measure.items():
        den = den * q.denominator // gcd(den, q.denominator)
    nums = [int(measure.weight(o) * den) for o in outcomes]
    dp = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        dp[mask] = dp[mask ^ low] + nums[low.bit_length() - 1]
    index = {o: i for i, o in enumerate(outcomes)}
    return dp, index, den


def event_mask(index, event):
    mask = 0
    for outcome in event:
        mask |= 1 << index[outcome]
    return mask


def brute_event(expr, schema, bindings) -> frozenset:
    """The members of a `.cfq` event expression, found by walking every
    outcome of the schema; `bindings` maps LET names to such sets.  It
    reads only the expression's node types and the schema's labels, and
    knows nothing of how the library holds an event."""
    outcomes = schema.outcomes()
    kind = type(expr).__name__
    if kind == "FullExpr":
        return frozenset(outcomes)
    if kind == "AtomExpr":
        p = [c.key for c in schema.coords].index(expr.coord)
        label = schema.coords[p].labels.index(expr.label)
        return frozenset(o for o in outcomes if o[p] == label)
    if kind == "NameExpr":
        return bindings[expr.name]
    if kind == "NotExpr":
        inner = brute_event(expr.inner, schema, bindings)
        return frozenset(o for o in outcomes if o not in inner)
    parts = [brute_event(item, schema, bindings) for item in expr.items]
    quantifier = all if kind == "AndExpr" else any
    return frozenset(o for o in outcomes if quantifier(o in part for part in parts))


def brute_support_condition(schema, kernel) -> bool:
    """The quantified determinism axiom, over every A in sigma(S) and every
    event B of the full algebra, for every present row."""
    n = schema.n_outcomes
    sigma = sigma_events(schema, kernel.on)
    for row in sorted(kernel.rows):
        dp, index, _ = mask_tables(schema, kernel.rows[row])
        row_fiber = frozenset(
            o for o in schema.outcomes()
            if tuple(o[p] for p in sorted(kernel.on)) == row)
        for A in sigma:
            a_mask = event_mask(index, A)
            ind = 1 if row_fiber <= A else 0
            for b_mask in range(1 << n):
                if dp[a_mask & b_mask] != ind * dp[b_mask]:
                    return False
    return True


def fast_support_condition(schema, P, kernel) -> bool:
    """The library's check, via check_axioms on a one-kernel mechanism."""
    space = CfSpace(schema, P, Mechanism(schema, P, [kernel]))
    report = check_axioms(space)
    return not any(
        v.axiom == "interventional-determinism" and v.S == kernel.on
        for v in report.violations)


def brute_independent_sigmas(P, S1, S2) -> bool:
    """Def-level sigma-independence: the product identity over all pairs."""
    schema = P.schema
    dp, index, den = mask_tables(schema, P)
    ev1 = [event_mask(index, A) for A in sigma_events(schema, S1)]
    ev2 = [event_mask(index, B) for B in sigma_events(schema, S2)]
    return all(dp[a & b] * den == dp[a] * dp[b] for a in ev1 for b in ev2)


def brute_synchronized(P, S1, S2) -> bool:
    """Mutual almost-sure matching of whole sigma-algebras."""
    schema = P.schema
    dp, index, _ = mask_tables(schema, P)
    ev1 = [event_mask(index, A) for A in sigma_events(schema, S1)]
    ev2 = [event_mask(index, B) for B in sigma_events(schema, S2)]

    def covered(source, target):
        return all(any(dp[a ^ b] == 0 for b in target) for a in source)

    return covered(ev1, ev2) and covered(ev2, ev1)


def brute_causal_sync(space, U, S1, S2) -> bool:
    """Causal synchronisation by definition: one partner event must work
    for every kernel row simultaneously."""
    schema = space.schema
    k = space.mech.get(U)
    tables = [mask_tables(schema, k.rows[row]) for row in sorted(k.rows)]
    index = tables[0][1]
    ev1 = [event_mask(index, A) for A in sigma_events(schema, S1)]
    ev2 = [event_mask(index, B) for B in sigma_events(schema, S2)]

    def equal_everywhere(a, b):
        return all(dp[a ^ b] == 0 for dp, _, _ in tables)

    def covered(source, target):
        return all(any(equal_everywhere(a, b) for b in target) for a in source)

    return covered(ev1, ev2) and covered(ev2, ev1)


def mirror_positions(schema, mirror) -> dict:
    """Position -> the position of the same component in the other world
    of the mirror, found through coordinate keys and world names alone."""
    other = {mirror.world_a: mirror.world_b, mirror.world_b: mirror.world_a}
    return {p: schema.position(f"{other[c.world]}.{c.name}")
            for p, c in enumerate(schema.coords) if c.world in other}


def mirrored_row(schema, mirror, S, row) -> tuple:
    """A row on sorted(S) as a row on the mirror image of S: each value
    moves to its coordinate's counterpart, then the values are re-sorted by
    position."""
    to = mirror_positions(schema, mirror)
    image = {to[p]: v for p, v in zip(sorted(S), row)}
    return tuple(image[p] for p in sorted(image))


def brute_symmetric_measure(space, mirror) -> bool:
    """P(A x B) == P(B x A) quantified over all per-world event pairs."""
    schema = space.schema
    pos_a = sorted(schema.world_positions(mirror.world_a))
    pos_b = sorted(schema.world_positions(mirror.world_b))
    rows_a = sorted({tuple(o[p] for p in pos_a) for o in schema.outcomes()})
    rows_b = sorted({tuple(o[p] for p in pos_b) for o in schema.outcomes()})

    def rect(rows_f, rows_c):
        return frozenset(
            o for o in schema.outcomes()
            if tuple(o[p] for p in pos_a) in rows_f
            and tuple(o[p] for p in pos_b) in rows_c)

    for r in range(len(rows_a) + 1):
        for A in itertools.combinations(rows_a, r):
            for r2 in range(len(rows_b) + 1):
                for B in itertools.combinations(rows_b, r2):
                    a_set, b_set = set(A), set(B)
                    # mirrored rows keep their values: components match by
                    # name with identical label tuples
                    swapped = rect(
                        {mirrored_row(schema, mirror, pos_b, b) for b in b_set},
                        {mirrored_row(schema, mirror, pos_a, a) for a in a_set})
                    if space.P.prob(rect(a_set, b_set)) != space.P.prob(swapped):
                        return False
    return True


def brute_symmetry_failures(space, mirror) -> tuple:
    """is_symmetric's failures, comparing weights on every outcome of the space."""
    schema = space.schema
    to = mirror_positions(schema, mirror)
    swapped = {o: mirrored_row(schema, mirror, schema.all_on, o) for o in schema.outcomes()}
    failures = []
    for outcome in schema.outcomes():
        v, w = space.P.weight(outcome), space.P.weight(swapped[outcome])
        if v != w:
            failures.append(SymmetryFailure("measure", None, None, outcome, v, w))
    for S in space.mech.keys():
        S_star = frozenset(to[p] for p in S)
        if S_star not in space.mech:
            continue
        k, k_star = space.mech.get(S), space.mech.get(S_star)
        for row in sorted(k.rows):
            row_star = mirrored_row(schema, mirror, S, row)
            if not k_star.has_row(row_star):
                continue
            for outcome in schema.outcomes():
                v = k.rows[row].weight(outcome)
                w = k_star.rows[row_star].weight(swapped[outcome])
                if v != w:
                    failures.append(SymmetryFailure("kernel", S, row, outcome, v, w))
    return tuple(failures)


def brute_cross_world(space) -> tuple:
    """check_cross_world's (violations, uncheckable), summing every world
    atom's probability under each kernel row and its restricted row."""
    schema = space.schema
    violations = []
    uncheckable = []
    for world in schema.worlds:
        t_world = schema.world_positions(world)
        world_atoms = atoms_of(schema, t_world)
        for S in space.mech.keys():
            inner = S & t_world
            if inner == S:
                continue
            if inner not in space.mech:
                uncheckable.append(CrossWorldUncheckable(world, S, inner, None))
                continue
            k_s, k_inner = space.mech.get(S), space.mech.get(inner)
            for row in sorted(k_s.rows):
                sub = restrict_row(S, row, inner)
                if not k_inner.has_row(sub):
                    uncheckable.append(CrossWorldUncheckable(world, S, inner, row))
                    continue
                for atom in world_atoms:
                    v = k_s.rows[row].prob(atom)
                    ref = k_inner.rows[sub].prob(atom)
                    if v != ref:
                        violations.append(CrossWorldViolation(world, S, row, atom, v, ref))
    return tuple(violations), tuple(uncheckable)


def brute_intervene(space, U, Q) -> tuple:
    """do(U, Q) from the definition, every kernel built at once: (the
    intervened space with a plain mechanism, derived keys, drop notes).

    The new measure is sum_r Q(r) K_U(r).  The kernel on S comes from the
    kernel on W = S | U alone: its row s is sum_t Q'(t) K_W(s, t), where Q'
    is the marginal of Q on U - S and (s, t) the row on W agreeing with s
    on S and with t on U - S.  A kernel on S that contains U is the same sum
    with the one-row marginal on the empty set, so it is recomputed here,
    never taken from the parent.  The rows s are those that some row of
    K_W restricts to.  A row whose sum needs a row K_W lacks is dropped
    with the note (S, s, W), and a kernel left without rows with (S, None,
    W); a kernel of the space on some W that misses part of U while W | U
    is absent gets (W, None, W | U).  Notes follow the keys W in size
    order, then the S of each W by the size of their part inside U.
    """
    schema = space.schema
    U = schema.positions(U)
    mech = space.mech
    k_u = mech.get(U)
    needed = [row for row, _ in Q.rows() if not k_u.has_row(row)]
    if needed:
        raise MissingKernelError(f"kernel on {sorted(U)} lacks rows {needed}")

    def mix(terms) -> Measure:
        total: dict = {}
        for q, m in terms:
            for outcome, p in m.as_dict().items():
                total[outcome] = total.get(outcome, Fraction(0)) + q * p
        return Measure(schema, total)  # the untrusted path checks the law

    P = mix((q, k_u.measure(row)) for row, q in Q.rows())
    u_pos = sorted(U)
    keys = mech.keys()
    kernels, dropped = [], []
    for W in keys:
        if not U <= W:
            if W | U not in keys:
                dropped.append(DerivationNote(W, None, W | U))
            continue
        k_w = mech.get(W)
        w_pos = sorted(W)
        inside = sorted(W & U)
        for size in range(len(inside) + 1):
            for extra in itertools.combinations(inside, size):
                S = (W - U) | frozenset(extra)
                s_pos, rest = sorted(S), sorted(U - S)
                q_rest: dict = {}
                for row, q in Q.rows():
                    values = dict(zip(u_pos, row))
                    t = tuple(values[p] for p in rest)
                    q_rest[t] = q_rest.get(t, Fraction(0)) + q
                rows = {}
                seen = {tuple(dict(zip(w_pos, row))[p] for p in s_pos) for row in k_w.rows}
                for s in sorted(seen):
                    terms = []
                    for t, q in q_rest.items():
                        values = dict(zip(s_pos, s))
                        values.update(zip(rest, t))
                        full = tuple(values[p] for p in w_pos)
                        if not k_w.has_row(full):
                            terms = None
                            break
                        terms.append((q, k_w.measure(full)))
                    if terms is None:
                        dropped.append(DerivationNote(S, s, W))
                    else:
                        rows[s] = mix(terms)
                if rows:
                    kernels.append(Kernel(schema, S, rows))
                else:
                    dropped.append(DerivationNote(S, None, W))
    derived = tuple(sorted((k.on for k in kernels), key=lambda s: (len(s), sorted(s))))
    return CfSpace(schema, P, Mechanism(schema, P, kernels)), derived, tuple(dropped)


def _summed(pairs) -> dict:
    """Fraction total per outcome, zero totals dropped."""
    out: dict = {}
    for outcome, q in pairs:
        out[outcome] = out.get(outcome, Fraction(0)) + Fraction(q)
    return {o: q for o, q in out.items() if q}


def _noise_rows(model):
    return itertools.product(*(labels for _, labels in model.noise))


def brute_compile_scm(model, space) -> tuple:
    """The twin-network compilation by enumeration: (P, {S: {row: weights}})
    for every kernel key of `space`.  Each noise row's factual and
    counterfactual solutions, read through schema.outcome_of, carry the
    row's noise weight."""
    schema = space.schema

    def weights(do_f: dict, do_cf: dict) -> dict:
        def outcome(u):
            sol = {"F": model.evaluate(u, do_f), "CF": model.evaluate(u, do_cf)}
            return schema.outcome_of([sol[c.world][c.name] for c in schema.coords])

        return _summed((outcome(u), model.noise_dist.get(u, 0)) for u in _noise_rows(model))

    kernels = {}
    for S in space.mech.keys():
        coords = [schema.coords[p] for p in sorted(S)]
        kernels[S] = {}
        for labels in itertools.product(*(c.labels for c in coords)):
            do = {"F": {}, "CF": {}}
            for c, lab in zip(coords, labels):
                do[c.world][c.name] = lab
            row = tuple(c.labels.index(lab) for c, lab in zip(coords, labels))
            kernels[S][row] = weights(do["F"], do["CF"])
    return weights({}, {}), kernels


def brute_compile_backtracking(model, coupling, schema) -> dict:
    """The backtracking measure by enumeration over every pair of noise rows."""
    def outcome(u, u_star):
        sol = {"F": model.evaluate(u), "CF": model.evaluate(u_star)}
        return schema.outcome_of([sol[c.world][c.name] for c in schema.coords])

    return _summed(
        (outcome(u, u_star), coupling.get((u, u_star), 0))
        for u in _noise_rows(model) for u_star in _noise_rows(model))


def brute_compile_po(model, schema) -> dict:
    """The potential-outcome measure by enumeration over the units: world Wj
    reads the functions under the j-th treatment assignment, OBS the
    observed functions."""
    assignments = model.assignments()

    def label(c, unit):
        if c.world == "OBS":
            return model.observed[c.name][unit]
        return model.potentials[(c.name, assignments[int(c.world[1:]) - 1])][unit]

    return _summed(
        (schema.outcome_of([label(c, unit) for c in schema.coords]), model.unit_dist.get(unit, 0))
        for unit in model.units)


def reference_tokenize(text: str) -> list[Token]:
    """The character-by-character lexer that the regex lexer replaced."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col, start = line, col, i
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(Token("number", text[i:j], start_line, start_col, start))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("word", text[i:j], start_line, start_col, start))
            col += j - i
            i = j
            continue
        if ch in "{}()=,./&|!;":
            tokens.append(Token("sym", ch, start_line, start_col, start))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col, n))
    return tokens
