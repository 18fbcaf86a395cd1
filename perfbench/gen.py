"""Seeded input generators: structural models, potential-outcome models,
query scripts, wide sparse space files and malformed inputs.

Every generator takes a `random.Random` built from the benchmark seed, so the
same seed always yields the same inputs.  Generators produce plain
descriptions and text; nothing here imports the program under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

LABELS = ("0", "1")
# Noise biases P(U = 1).  One denominator keeps the size of the rationals,
# and so the cost of the arithmetic, the same for every seed; 1/2 cannot
# occur, so every parent visibly moves its child.
BIASES = tuple(Fraction(k, 7) for k in range(1, 7))
SHAPES = ("chain", "fork", "collider")


def rng_for(*parts) -> random.Random:
    """A generator seeded from a tuple of parts (string seeds hash stably)."""
    return random.Random("/".join(str(p) for p in parts))


# -- structural models ----------------------------------------------------------


@dataclass(frozen=True)
class Scm:
    """A DAG over binary X0..X{n-1}; Xi = xor(parents) xor flip xor Ui.

    Each equation is a bijection in its noise, so support sizes, and with
    them the work per op, depend on the shape alone and not on the seed."""

    name: str
    n: int
    parents: tuple  # parents[i] = tuple of parent indices
    flips: tuple  # flips[i] in (0, 1)
    bias: tuple  # bias[i] = P(Ui = 1)

    @property
    def var_names(self) -> tuple:
        return tuple(f"X{i}" for i in range(self.n))

    @property
    def keys(self) -> tuple:
        """Coordinate keys of the compiled two-world space, in schema order."""
        return tuple(f"F.X{i}" for i in range(self.n)) + tuple(f"CF.X{i}" for i in range(self.n))

    def noise_assignments(self):
        """(noise tuple of ints, probability) for every noise assignment."""
        for u in itertools.product((0, 1), repeat=self.n):
            q = Fraction(1)
            for b, p in zip(u, self.bias):
                q *= p if b else 1 - p
            yield u, q

    def f(self, i: int, parent_values, u_i: int) -> int:
        return sum(parent_values) % 2 ^ self.flips[i] ^ u_i

    def table(self, i: int) -> dict:
        """Function table keyed by (parent labels..., noise label)."""
        k = len(self.parents[i])
        return {
            tuple(LABELS[v] for v in pv) + (LABELS[u],): LABELS[self.f(i, pv, u)]
            for pv in itertools.product((0, 1), repeat=k)
            for u in (0, 1)
        }


def gen_scm(rng: random.Random, n: int, shape: str, name: str) -> Scm:
    parents = []
    for i in range(n):
        if shape == "chain":
            parents.append((i - 1,) if i else ())
        elif shape == "fork":
            parents.append((0,) if i else ())
        else:  # collider: every other variable feeds the last one
            parents.append(tuple(range(n - 1)) if i == n - 1 else ())
    return Scm(
        name=name, n=n, parents=tuple(parents),
        flips=tuple(rng.randint(0, 1) for _ in range(n)),
        bias=tuple(rng.choice(BIASES) for _ in range(n)),
    )


def coupling_of(m: Scm, weight: Fraction) -> dict:
    """A backtracking coupling of two noise copies: the diagonal with
    `weight`, independent copies with the rest; {(u, u_star): weight}."""
    out = {}
    for (u, q), (v, r) in itertools.product(list(m.noise_assignments()), repeat=2):
        w = (1 - weight) * q * r + (weight * q if u == v else 0)
        if w:
            out[(u, v)] = w
    return out


def scm_text(m: Scm, coupling: dict | None = None) -> str:
    """The model as an .scm file, with a coupling block when one is given."""
    lines = [f"scm {m.name}"]
    lines += [f"noise U{i} {{ 0 1 }}" for i in range(m.n)]
    lines.append("dist {")
    for u, q in m.noise_assignments():
        lines.append(f"  ({_noise_row(u)}) = {q}")
    lines.append("}")
    lines += [f"var X{i} {{ 0 1 }}" for i in range(m.n)]
    for i in range(m.n):
        inputs = [f"X{p}" for p in m.parents[i]] + [f"U{i}"]
        lines.append(f"fn X{i} ({', '.join(inputs)}) {{")
        for key, out in m.table(i).items():
            body = ", ".join(f"{name}={lab}" for name, lab in zip(inputs, key))
            lines.append(f"  ({body}) = {out}")
        lines.append("}")
    if coupling is not None:
        lines.append("coupling {")
        for (u, v), w in coupling.items():
            lines.append(f"  (({_noise_row(u)}), ({_noise_row(v)})) = {w}")
        lines += ["  default = 0", "}"]
    return "\n".join(lines) + "\n"


def _noise_row(u) -> str:
    return ", ".join(f"U{i}={b}" for i, b in enumerate(u))


# -- potential-outcome models ---------------------------------------------------


@dataclass(frozen=True)
class Po:
    name: str
    units: tuple
    weights: tuple  # Fraction per unit
    observed: dict  # var -> {unit: label}
    potentials: tuple  # ((var, treatment label of X), {unit: label}), ...


def gen_po(rng: random.Random, name: str) -> Po:
    units = tuple(f"u{i}" for i in range(rng.randint(3, 6)))
    raw = [rng.randint(1, 6) for _ in units]
    weights = tuple(Fraction(r, sum(raw)) for r in raw)
    observed = {v: {u: rng.choice(LABELS) for u in units} for v in ("X", "Y")}
    potentials = tuple(
        (("Y", x), {u: rng.choice(LABELS) for u in units}) for x in LABELS)
    return Po(name, units, weights, observed, potentials)


def po_text(m: Po) -> str:
    lines = [f"po {m.name}", f"units {{ {' '.join(m.units)} }}", "dist {"]
    lines += [f"  {u} = {q}" for u, q in zip(m.units, m.weights)]
    lines += ["}", "var X { 0 1 }", "var Y { 0 1 }"]
    for var, fn in m.observed.items():
        lines.append(f"observe {var} {{ {'  '.join(f'{u} = {fn[u]}' for u in m.units)} }}")
    for (var, x), fn in m.potentials:
        lines.append(
            f"potential {var} given (X={x}) {{ {'  '.join(f'{u} = {fn[u]}' for u in m.units)} }}")
    return "\n".join(lines) + "\n"


# -- query scripts over compiled structural spaces ---------------------------


@dataclass(frozen=True)
class Atom:
    key: str
    label: str


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


def render(e) -> str:
    if isinstance(e, Atom):
        return f"{e.key}={e.label}"
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Not):
        inner = render(e.inner)
        return "!" + (f"({inner})" if isinstance(e.inner, (And, Or)) else inner)
    sep = " & " if isinstance(e, And) else " | "
    return sep.join(f"({render(i)})" if isinstance(i, (And, Or)) else render(i) for i in e.items)


def _random_expr(rng, keys, names):
    """Two leaves joined by & or |, one of them perhaps negated; a leaf is an
    atom or, sometimes, a bound name.  A fixed size keeps the cost of
    evaluating it the same for every seed."""
    leaves = [Name(rng.choice(names)) if names and rng.random() < 0.25
              else Atom(rng.choice(keys), rng.choice(LABELS)) for _ in range(2)]
    if rng.random() < 0.3:
        leaves[0] = Not(leaves[0])
    return (And if rng.random() < 0.6 else Or)(tuple(leaves))


def _consistent_expr(rng, m: Scm, witness: dict):
    """A two-atom F-world event that holds at the witness values, so it has
    positive probability before and after any intervention on the CF world."""
    i, j = rng.sample(range(m.n), 2)
    held = Atom(f"F.X{i}", LABELS[witness[i]])
    r = rng.random()
    if r < 0.2:
        return And((held, Not(Atom(f"F.X{j}", LABELS[1 - witness[j]]))))
    if r < 0.4:
        return Or((held, Atom(f"F.X{j}", rng.choice(LABELS))))
    return And((held, Atom(f"F.X{j}", LABELS[witness[j]])))


def _coordset(keys) -> str:
    return "{" + ", ".join(keys) + "}"


@dataclass(frozen=True)
class Stmt:
    """One script statement: its kind, its operands and its source text."""

    kind: str
    args: tuple
    text: str


def gen_law(rng: random.Random, keys, kind: str) -> tuple:
    """An intervention law on `keys`: (rows -> weight, WITH clause).

    `kind` is "point", "uniform" or "table" (every row weighted)."""
    rows = list(itertools.product(LABELS, repeat=len(keys)))
    if kind == "point":
        row = rows[rng.randrange(len(rows))]
        return {row: Fraction(1)}, "point(" + ", ".join(
            f"{k}={lab}" for k, lab in zip(keys, row)) + ")"
    if kind == "uniform":
        return {row: Fraction(1, len(rows)) for row in rows}, "uniform"
    raw = [rng.randint(1, 4) for _ in rows]
    dist = {row: Fraction(r, sum(raw)) for row, r in zip(rows, raw)}
    body = " ".join(
        "(" + ", ".join(f"{k}={lab}" for k, lab in zip(keys, row)) + f") = {q}"
        for row, q in dist.items())
    return dist, "{ " + body + " }"


def _intervention(rng, m: Scm, law: str, size: int, avoid=()) -> Stmt:
    """An INTERVENE on `size` CF coordinates, outside `avoid` where there are
    enough; `law` is "point", or "mixed" for a uniform or weighted law over
    every row."""
    free = [i for i in range(m.n) if i not in avoid]
    keys = tuple(f"CF.X{i}" for i in sorted(rng.sample(free if len(free) >= size
                                                       else range(m.n), size)))
    kind = law if law == "point" else rng.choice(("uniform", "table"))
    dist, text = gen_law(rng, keys, kind)
    return Stmt("INTERVENE", (keys, dist), f"INTERVENE {_coordset(keys)} WITH {text}")


def gen_script(rng: random.Random, m: Scm, interventions=()) -> list:
    """A query script over a compiled space of `m`, as a list of Stmt: LET,
    CONDITION, PROB, INDEP (events and coordinate sets), SYNC, EFFECT (with
    and without GIVEN) and SOURCE, with one INTERVENE on the CF world per
    (law, size) entry of `interventions` spread through it."""
    witness_u = rng.choice([u for u, _ in m.noise_assignments()])
    witness = {}
    for i in range(m.n):
        witness[i] = m.f(i, tuple(witness[p] for p in m.parents[i]), witness_u[i])
    keys = list(m.keys)
    e = _random_expr(rng, keys, [])
    out = [Stmt("LET", ("e1", e), f"LET e1 = EVENT({render(e)})")]
    names = ["e1"]
    e = _consistent_expr(rng, m, witness)
    out.append(Stmt("CONDITION", (e,), f"CONDITION {render(e)}"))
    reads = []
    for _ in range(2):
        e = _random_expr(rng, keys, names)
        reads.append(Stmt("PROB", (e,), f"PROB ({render(e)})"))
    a, b = _random_expr(rng, keys, names), _random_expr(rng, keys, names)
    reads.append(Stmt("INDEP", (a, b, None), f"INDEP ({render(a)}) ({render(b)})"))
    s1, s2 = rng.sample(keys, 2)
    g = _consistent_expr(rng, m, witness)
    reads.append(Stmt("INDEP_SETS", ((s1,), (s2,), g),
                      f"INDEP {_coordset([s1])} {_coordset([s2])} GIVEN {render(g)}"))
    i = rng.randrange(m.n)
    reads.append(Stmt("SYNC", ((f"F.X{i}",), (f"CF.X{i}",)),
                      f"SYNC {_coordset([f'F.X{i}'])} {_coordset([f'CF.X{i}'])}"))
    # EFFECT asks about a child of the cause (or the cause itself when it
    # has none); interventions keep off the targets where they can, since an
    # intervened target makes the effect vanish and the verdict needs a scan
    # of the whole kernel family.
    cause = rng.randrange(m.n)
    effects = [j for j in range(m.n) if cause in m.parents[j]] or [cause]
    u = (f"CF.X{cause}",)
    targets = set()
    for g in (None, _consistent_expr(rng, m, witness)):
        j = rng.choice(effects)
        targets.add(j)
        t = Atom(f"CF.X{j}", rng.choice(LABELS))
        given = "" if g is None else f" GIVEN {render(g)}"
        reads.append(Stmt("EFFECT", (u, t, g), f"EFFECT {_coordset(u)} ON ({render(t)}){given}"))
    u = (f"CF.X{rng.randrange(m.n)}",)
    reads.append(Stmt("SOURCE", (u,), f"SOURCE {_coordset(u)}"))
    rng.shuffle(reads)
    slots = sorted((rng.randint(0, len(reads) - 1), iv) for iv in interventions)
    for k, stmt in enumerate(reads):
        while slots and slots[0][0] == k:
            out.append(_intervention(rng, m, *slots.pop(0)[1], avoid=targets))
        out.append(stmt)
    return out


def script_text(stmts) -> str:
    return "".join(s.text + "\n" for s in stmts)


# -- wide sparse space files ----------------------------------------------------


@dataclass(frozen=True)
class Wide:
    """A mirrored two-world space of k binary components per world with a
    handful of nonzero entries and row-partial kernels on CF coordinates."""

    name: str
    k: int
    measure: dict  # full label tuple -> Fraction
    kernels: tuple  # ((on keys, ((row labels, {label tuple: Fraction}), ...)), ...)

    @property
    def keys(self) -> tuple:
        return tuple(f"F.c{i}" for i in range(self.k)) + tuple(f"CF.c{i}" for i in range(self.k))


def gen_wide(rng: random.Random, k: int, n_kernels: int, name: str) -> Wide:
    n = 2 * k
    outcomes = set()
    while len(outcomes) < rng.randint(4, 7):
        outcomes.add(tuple(rng.choice(LABELS) for _ in range(n)))
    outcomes = sorted(outcomes)
    raw = [rng.randint(1, 9) for _ in outcomes]
    measure = {o: Fraction(r, sum(raw)) for o, r in zip(outcomes, raw)}
    kernels = []
    # Kernels on CF.c0 and on {CF.c1, CF.c2}, each with one row only, so the
    # mechanism is partial and effects on other coordinates are undetermined.
    for on in ((k,), (k + 1, k + 2))[:n_kernels]:
        row = tuple(rng.choice(LABELS) for _ in on)
        body: dict = {}
        for o, q in measure.items():
            moved = list(o)
            for p, lab in zip(on, row):
                moved[p] = lab
            moved = tuple(moved)
            body[moved] = body.get(moved, Fraction(0)) + q
        on_keys = tuple(f"CF.c{p - k}" for p in on)
        kernels.append((on_keys, ((row, body),)))
    return Wide(name, k, measure, tuple(kernels))


def wide_text(w: Wide) -> str:
    keys = w.keys
    comps = "\n".join(f"  component c{i} {{ 0 1 }}" for i in range(w.k))
    lines = [f"space {w.name}", "world F {", comps, "}", "world CF mirror F", "measure {"]

    def entries(table, indent):
        for o, q in sorted(table.items()):
            yield f"{indent}({', '.join(f'{c}={lab}' for c, lab in zip(keys, o))}) = {q}"
        yield f"{indent}default = 0"

    lines += entries(w.measure, "  ")
    lines.append("}")
    for on_keys, rows in w.kernels:
        lines.append(f"kernel on {_coordset(on_keys)} {{")
        for row, body in rows:
            given = ", ".join(f"{c}={lab}" for c, lab in zip(on_keys, row))
            lines.append(f"  given ({given}) {{")
            lines += entries(body, "    ")
            lines.append("  }")
        lines.append("}")
    lines.append("mirror F CF")
    return "\n".join(lines) + "\n"


def wide_script(rng: random.Random, w: Wide) -> list:
    """PROB, CONDITION and an EFFECT that the partial kernel leaves undetermined."""
    on_keys = w.kernels[0][0]
    target = f"CF.c{rng.randrange(3, w.k)}"
    f_index = rng.randrange(w.k)
    f_label = sorted(w.measure)[0][f_index]
    first = Or((Atom(target, "1"), Atom(f"F.c{f_index}", "0")))
    cond = Atom(f"F.c{f_index}", f_label)
    return [
        Stmt("PROB", (first,), f"PROB ({render(first)})"),
        Stmt("EFFECT", (on_keys, Atom(target, "1"), None),
             f"EFFECT {_coordset(on_keys)} ON ({target}=1)"),
        Stmt("CONDITION", (cond,), f"CONDITION {render(cond)}"),
        Stmt("PROB", (Atom(target, "0"),), f"PROB ({target}=0)"),
    ]


# -- malformed inputs -----------------------------------------------------------

# Each kind yields (command template, {role: file content}); a "{role}" in
# the command stands for that role's file in the work directory, and
# "{out}" for a file that is not written.  The known defects escape the
# command line as a traceback, at the commit that added the benchmark,
# instead of exiting 2 with a one-line diagnostic.
KNOWN_DEFECTS = ("intervene-weights", "deep-parens", "not-utf8")
HANDLED_MALFORMED = ("short-measure", "cyclic-scm")


def gen_malformed(rng: random.Random, kind: str, exam_text: str):
    if kind == "intervene-weights":
        p, q = rng.choice(((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 2)),
                           (Fraction(2, 3), Fraction(1, 2))))
        script = (f"INTERVENE {{CF.class}} WITH {{ (CF.class=Y) = {p} (CF.class=N) = {q} }}\n"
                  "PROB (CF.exam=P)\n")
        return ["run", "{exam}", "{q}"], {"exam": exam_text, "q": script}
    if kind == "deep-parens":
        depth = 3000 + rng.randint(0, 50)
        return ["run", "{exam}", "{q}"], {
            "exam": exam_text, "q": "PROB " + "(" * depth + "CF.exam=P" + ")" * depth + "\n"}
    if kind == "not-utf8":
        pos = rng.randint(0, 40)
        raw = exam_text.encode()
        return ["check", "{bad}"], {"bad": raw[:pos] + b"# \xff\xfe\x80\n" + raw[pos:]}
    if kind == "short-measure":
        return ["check", "{bad}"], {"bad": exam_text.replace("= 0.32", "= 0.31", 1)}
    if kind == "cyclic-scm":
        text = ("scm loop\nnoise U { 0 1 }\ndist { default = 1/2 }\nvar A { 0 1 }\nvar B { 0 1 }\n"
                "fn A (B, U) { (B=0, U=0) = 0 (B=0, U=1) = 1 (B=1, U=0) = 1 (B=1, U=1) = 0 }\n"
                "fn B (A) { (A=0) = 0 (A=1) = 1 }\n")
        return ["compile", "scm", "{m}", "-o", "{out}"], {"m": text}
    raise ValueError(kind)
