"""Seeded generators for random valid counterfactual causal spaces, and for
random acyclic structural models to compile into them.

A mechanism is valid iff every kernel row is a coupling of per-world
marginal measures drawn from families that agree on restrictions (the
empty-set member of each family being the observational marginal) and
concentrate on their row's fiber.  The generators below build such
families and couple them either as products (worlds causally independent)
or as randomly perturbed couplings (mass moved along marginal-preserving
swaps), so every generated space satisfies the axioms by construction and
the axiom checkers must agree.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from cfspaces import (
    CfSpace,
    Coordinate,
    Kernel,
    Margin,
    Measure,
    Mechanism,
    SCMModel,
    SpaceSchema,
    StructuralEq,
)


def rand_weights(rng, cells, allow_zero=True, max_w=6):
    """Random exact rational weights over the given cells, summing to one."""
    while True:
        ws = [rng.randrange(0 if allow_zero else 1, max_w + 1) for _ in cells]
        total = sum(ws)
        if total:
            break
    return {c: Fraction(w, total) for c, w in zip(cells, ws) if w}


def random_schema(rng, n_worlds=2, mirrored=False):
    worlds = ("F", "CF", "W3")[:n_worlds]
    coords = []
    if mirrored:
        comps = []
        for i in range(rng.choice((1, 1, 2))):
            n_lab = rng.choice((2, 2, 3))
            comps.append((f"c{i + 1}", tuple(str(j) for j in range(n_lab))))
        for w in worlds:
            for name, labels in comps:
                coords.append(Coordinate(w, name, labels))
    else:
        for w in worlds:
            n_comp = 1 if n_worlds > 2 else rng.choice((1, 1, 2))
            for i in range(n_comp):
                n_lab = rng.choice((2, 2, 3))
                coords.append(Coordinate(w, f"c{i + 1}", tuple(str(j) for j in range(n_lab))))
    return SpaceSchema(coords)


def _world_outcomes(schema, positions):
    ranges = [range(len(schema.coords[p].labels)) for p in positions]
    return list(itertools.product(*ranges))


def _merge(world_pos, parts):
    """Merge per-world outcome tuples into a full outcome."""
    values = {}
    for positions, part in zip(world_pos, parts):
        values.update(zip(positions, part))
    return tuple(values[p] for p in sorted(values))


def _marginal_family(rng, schema, positions, base):
    """Per-world kernel marginals: for each subset of the world's positions
    and each row, a measure on the world's outcomes concentrated on the
    row's fiber.  The empty subset maps to the world marginal of P."""
    outcomes = _world_outcomes(schema, positions)
    family = {frozenset(): {(): base}}
    for r in range(1, len(positions) + 1):
        for sub in itertools.combinations(positions, r):
            sub_set = frozenset(sub)
            idx = [positions.index(p) for p in sorted(sub)]
            rows = {}
            for row in itertools.product(*(range(len(schema.coords[p].labels))
                                           for p in sorted(sub))):
                fiber = [o for o in outcomes if tuple(o[i] for i in idx) == row]
                rows[row] = rand_weights(rng, fiber)
            family[sub_set] = rows
    return family


def _couple(rng, schema, world_pos, margins, mode):
    """A joint measure on full outcomes with the given per-world marginals."""
    weights = {}
    for parts in itertools.product(*(sorted(m) for m in margins)):
        q = Fraction(1)
        for m, part in zip(margins, parts):
            q *= m[part]
        if q:
            weights[_merge(world_pos, parts)] = q
    if mode == "coupled" and len(margins) > 1:
        cells = sorted(weights)
        for _ in range(rng.randrange(0, 5)):
            if len(cells) < 2:
                break
            a, b = rng.sample(cells, 2)
            w = rng.randrange(len(world_pos))
            positions = world_pos[w]
            if tuple(a[p] for p in positions) == tuple(b[p] for p in positions):
                continue
            c = list(a)
            d = list(b)
            for p in positions:
                c[p], d[p] = b[p], a[p]
            c, d = tuple(c), tuple(d)
            delta = min(weights[a], weights[b]) * Fraction(rng.randrange(1, 4), 4)
            if delta == 0:
                continue
            weights[a] -= delta
            weights[b] -= delta
            weights[c] = weights.get(c, Fraction(0)) + delta
            weights[d] = weights.get(d, Fraction(0)) + delta
            weights = {k: v for k, v in weights.items() if v}
            cells = sorted(weights)
    return Measure(schema, weights)


def random_cf_space(seed, n_worlds=2, mode=None, mirrored=False) -> CfSpace:
    """A random counterfactual causal space with a total mechanism.

    mode "product" gives causally independent worlds and a product P;
    "coupled" (default mix) perturbs couplings while preserving the world
    marginals, so the axioms hold by construction either way.
    """
    rng = random.Random(seed)
    if mode is None:
        mode = rng.choice(("product", "coupled", "coupled"))
    schema = random_schema(rng, n_worlds, mirrored)
    worlds = schema.worlds
    world_pos = [sorted(schema.world_positions(w)) for w in worlds]

    if mode == "product":
        bases = [rand_weights(rng, _world_outcomes(schema, pos)) for pos in world_pos]
        weights = {}
        for parts in itertools.product(*(sorted(b) for b in bases)):
            q = Fraction(1)
            for b, part in zip(bases, parts):
                q *= b[part]
            weights[_merge(world_pos, parts)] = q
        P = Measure(schema, weights)
    else:
        P = Measure(schema, rand_weights(rng, schema.outcomes()))
        bases = [
            {row: q for row, q in P.marginal(pos).rows()}
            for pos in world_pos
        ]

    families = [
        _marginal_family(rng, schema, pos, base)
        for pos, base in zip(world_pos, bases)
    ]

    kernels = []
    n = len(schema.coords)
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            S = frozenset(combo)
            per_world_subs = [S & frozenset(pos) for pos in world_pos]
            rows = {}
            row_parts = []
            for w, sub in enumerate(per_world_subs):
                row_parts.append(sorted(families[w][sub]))
            for parts in itertools.product(*row_parts):
                row = _merge([sorted(sub) for sub in per_world_subs], parts) if S else ()
                margins = [families[w][sub][part]
                           for w, (sub, part) in enumerate(zip(per_world_subs, parts))]
                rows[row] = _couple(rng, schema, world_pos, margins, mode)
            if not S:
                rows = {(): P}  # the trivial kernel is the observational law
            kernels.append(Kernel(schema, S, rows))
    return CfSpace(schema, P, Mechanism(schema, P, kernels))


def random_margin(rng, schema, U, dirac=False, product_split=None) -> Margin:
    """A random intervention measure on the coordinates in U."""
    pos = sorted(U)
    rows = list(itertools.product(*(range(len(schema.coords[p].labels)) for p in pos)))
    if dirac:
        row = rng.choice(rows)
        return Margin(schema, U, {row: Fraction(1)})
    if product_split is not None:
        s1, s2 = product_split
        if not s1 and not s2:
            return Margin(schema, (), {(): Fraction(1)})
        if not s1:
            return random_margin(rng, schema, s2)
        if not s2:
            return random_margin(rng, schema, s1)
        m1 = random_margin(rng, schema, s1)
        m2 = random_margin(rng, schema, s2)
        weights = {}
        for r1, q1 in m1.rows():
            for r2, q2 in m2.rows():
                values = dict(zip(sorted(s1), r1))
                values.update(zip(sorted(s2), r2))
                weights[tuple(values[p] for p in pos)] = q1 * q2
        return Margin(schema, U, weights)
    return Margin(schema, U, rand_weights(rng, rows))


def random_event(rng, schema) -> frozenset:
    outcomes = schema.outcomes()
    return frozenset(o for o in outcomes if rng.random() < 0.5)


def random_subset(rng, items) -> frozenset:
    return frozenset(x for x in items if rng.random() < 0.5)


def rand_law(rng, keys):
    """Random weights over `keys`, some of them zero, summing to one."""
    while True:
        ws = [rng.choice((0, 0, 1, 2, 3)) for _ in keys]
        if sum(ws):
            return {k: Fraction(w, sum(ws)) for k, w in zip(keys, ws) if w}


def random_dag_model(rng, n_vars, n_noise=(1, 2), noise_labels=("a", "b")):
    """A random acyclic model: n_vars endogenous variables declared out of
    evaluation order, n_noise[0] to n_noise[1] noise variables over
    noise_labels, random function tables."""
    labels = ("0", "1") if n_vars == 3 else ("0", "1", "2")
    noise = [(f"U{i}", noise_labels) for i in range(rng.randint(*n_noise))]
    names = [f"V{i}" for i in range(n_vars)]
    order = rng.sample(names, n_vars)
    eqs = {}
    for i, name in enumerate(order):
        parents = tuple(p for p in order[:i] if rng.random() < 0.6)
        noises = tuple(u for u, _ in noise if rng.random() < 0.7)
        domain = [labels] * len(parents) + [noise_labels] * len(noises)
        table = {k: rng.choice(labels) for k in itertools.product(*domain)}
        eqs[name] = StructuralEq(name, parents, noises, table)
    noise_rows = list(itertools.product(*(ls for _, ls in noise)))
    return SCMModel(noise, rand_law(rng, noise_rows), [(n, labels) for n in names], eqs)
