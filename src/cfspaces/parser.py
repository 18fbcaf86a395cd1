"""Text format for spaces (.cfs) and its canonical serializer.

A document declares worlds and components, an observational measure,
causal kernels and an optional world mirror:

    space exam
    world F {
      component class { Y N }
      component exam { P F }
    }
    world CF mirror F
    measure {
      (F.class=Y, F.exam=P, CF.class=Y, CF.exam=P) = 0.32
      ...
      default = 0
    }
    kernel on {CF.class} {
      given (CF.class=Y) { ... }
    }
    mirror F CF

Rationals are written p/q or as decimal literals, which are parsed exactly
(0.32 means 32/100).  Measure entries must assign every coordinate;
unlisted outcomes take the block default, and omitting both is a coverage
error.  Comments run from '#' to end of line.  Errors carry line and
column.

A parsed document keeps only the nonzero entries of each table, so a
sparse table with 'default = 0' parses and serializes in time proportional
to its entries, whatever the size of the outcome space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .measure import Measure
from .mechanism import CfSpace, Kernel, Mechanism
from .space import Coordinate, SchemaError, SpaceSchema


class ParseError(ValueError):
    """Lexical, grammatical or semantic error in an input file."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


# -- lexer ----------------------------------------------------------------

_SYMBOLS = "{}()=,./&|!;"


@dataclass(frozen=True)
class Token:
    kind: str  # "word", "number", "sym", "eof"
    value: str
    line: int
    col: int
    pos: int


def tokenize(text: str) -> list[Token]:
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
        if ch in _SYMBOLS:
            tokens.append(Token("sym", ch, start_line, start_col, start))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col, n))
    return tokens


class TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.value != sym:
            self.error(f"expected {sym!r}, found {tok.value!r}")
        return self.next()

    def expect_word(self, word: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != "word" or (word is not None and tok.value != word):
            wanted = "identifier" if word is None else repr(word)
            self.error(f"expected {wanted}, found {tok.value!r}")
        return self.next()

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.value == word

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.value == sym

    def label(self) -> str:
        tok = self.peek()
        if tok.kind not in ("word", "number") or (tok.kind == "number" and "." in tok.value):
            self.error(f"expected a label, found {tok.value!r}")
        return self.next().value

    def rational(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "number":
            self.error(f"expected a number, found {tok.value!r}")
        self.next()
        if "." in tok.value:
            return Fraction(tok.value)
        value = Fraction(int(tok.value))
        if self.at_sym("/"):
            self.next()
            den = self.peek()
            if den.kind != "number" or "." in den.value:
                self.error("expected an integer denominator")
            self.next()
            if int(den.value) == 0:
                self.error("zero denominator", den)
            value = Fraction(int(tok.value), int(den.value))
        return value

    def coord_ref(self) -> str:
        world = self.expect_word().value
        self.expect_sym(".")
        name = self.expect_word().value
        return f"{world}.{name}"


def parse_outcome_tuple(ts: TokenStream) -> dict:
    """Parse '(C=l, C=l, ...)' into {coord key: label}; '()' is empty."""
    ts.expect_sym("(")
    assignment: dict[str, str] = {}
    while not ts.at_sym(")"):
        tok = ts.peek()
        coord = ts.coord_ref()
        ts.expect_sym("=")
        label = ts.label()
        if coord in assignment:
            raise ParseError(f"coordinate {coord} assigned twice", tok.line, tok.col)
        assignment[coord] = label
        if ts.at_sym(","):
            ts.next()
    ts.expect_sym(")")
    return assignment


def parse_coordset(ts: TokenStream) -> tuple[str, ...]:
    ts.expect_sym("{")
    refs = []
    while not ts.at_sym("}"):
        refs.append(ts.coord_ref())
        if ts.at_sym(","):
            ts.next()
    ts.expect_sym("}")
    return tuple(refs)


# -- space documents --------------------------------------------------------


@dataclass
class WorldDecl:
    name: str
    components: tuple[tuple[str, tuple[str, ...]], ...] | None = None
    mirror_of: str | None = None


@dataclass
class KernelDecl:
    on: tuple[str, ...]  # coordinate keys in ascending schema order
    rows: tuple  # ((row labels aligned to `on`, nonzero label table), ...)


@dataclass
class SpaceDocument:
    """Parsed form of a .cfs file.

    The measure and every kernel-row body map full-outcome label tuples to
    their nonzero weights; outcomes absent from a table weigh zero.
    """

    name: str
    worlds: tuple[WorldDecl, ...]
    measure: dict | None  # full-outcome label tuple -> nonzero Fraction
    kernels: tuple[KernelDecl, ...] = ()
    mirror: tuple[str, str] | None = None

    def schema(self) -> SpaceSchema:
        components: dict[str, tuple] = {}
        coords = []
        for decl in self.worlds:
            if decl.mirror_of is not None:
                comps = components[decl.mirror_of]
            else:
                comps = decl.components or ()
            components[decl.name] = comps
            for name, labels in comps:
                coords.append(Coordinate(decl.name, name, labels))
        return SpaceSchema(coords)

    def to_space(self) -> CfSpace:
        schema = self.schema()
        if self.measure is None:
            raise ParseError("document has no measure block; cannot build a space")
        P = _to_measure(schema, self.measure)
        kernels = []
        for decl in self.kernels:
            on = schema.positions(decl.on)
            pos = sorted(on)
            rows = {}
            for row_labels, body in decl.rows:
                row = tuple(schema.label_index(p, lab) for p, lab in zip(pos, row_labels))
                rows[row] = _to_measure(schema, body)
            kernels.append(Kernel(schema, on, rows))
        mech = Mechanism(schema, P, kernels) if self.kernels else None
        return CfSpace(schema, P, mech)


def _to_measure(schema: SpaceSchema, table: dict) -> Measure:
    weights = {schema.outcome_of(labels): q for labels, q in table.items()}
    try:
        return Measure(schema, weights)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_table(ts: TokenStream, schema: SpaceSchema) -> dict:
    """Parse a measure body into its nonzero entries, keyed by label tuple.

    Coverage and the unit sum are checked by counting the outcomes left to
    the default, so only a nonzero default, which puts mass on every
    unlisted outcome, enumerates the outcome space.
    """
    open_tok = ts.peek()
    ts.expect_sym("{")
    coord_keys = [c.key for c in schema.coords]
    entries: dict[tuple, Fraction] = {}
    default = None
    while not ts.at_sym("}"):
        if ts.at_word("default"):
            tok = ts.next()
            ts.expect_sym("=")
            if default is not None:
                raise ParseError("duplicate default", tok.line, tok.col)
            default = ts.rational()
            continue
        tok = ts.peek()
        assignment = parse_outcome_tuple(ts)
        unknown = sorted(set(assignment) - set(coord_keys))
        if unknown:
            raise ParseError(f"unknown coordinate {unknown[0]}", tok.line, tok.col)
        if set(assignment) != set(coord_keys):
            missing = sorted(set(coord_keys) - set(assignment))
            raise ParseError(
                f"measure entry must assign every coordinate; missing {missing}",
                tok.line, tok.col)
        try:
            key = tuple(
                schema.coords[i].labels[schema.label_index(i, assignment[c])]
                for i, c in enumerate(coord_keys))
        except SchemaError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
        if key in entries:
            raise ParseError("duplicate measure entry", tok.line, tok.col)
        ts.expect_sym("=")
        q = ts.rational()
        if q < 0:
            raise ParseError("negative weight", tok.line, tok.col)
        entries[key] = q
    ts.expect_sym("}")

    unlisted = schema.n_outcomes - len(entries)
    if unlisted and default is None:
        raise ParseError(
            f"measure covers {len(entries)} of {schema.n_outcomes} outcomes "
            "and declares no default", open_tok.line, open_tok.col)
    total = sum(entries.values(), Fraction(0)) + (default or 0) * unlisted
    if total != 1:
        gap = 1 - total
        direction = "short by" if gap > 0 else "in excess by"
        raise ParseError(
            f"measure sums to {total}, {direction} {abs(gap)}",
            open_tok.line, open_tok.col)
    if default:
        every = itertools.product(*(c.labels for c in schema.coords))
        return {key: q for key in every if (q := entries.get(key, default))}
    return {key: q for key, q in entries.items() if q}


def parse_space(text: str) -> SpaceDocument:
    ts = TokenStream(text)
    ts.expect_word("space")
    name = ts.expect_word().value
    worlds: list[WorldDecl] = []
    while ts.at_word("world"):
        ts.next()
        wname = ts.expect_word().value
        if any(w.name == wname for w in worlds):
            ts.error(f"world {wname!r} declared twice")
        if ts.at_word("mirror"):
            ts.next()
            target = ts.expect_word().value
            if not any(w.name == target for w in worlds):
                ts.error(f"world {wname!r} mirrors undeclared world {target!r}")
            worlds.append(WorldDecl(wname, None, target))
            continue
        ts.expect_sym("{")
        comps = []
        while ts.at_word("component"):
            ts.next()
            ctok = ts.peek()
            cname = ts.expect_word().value
            if any(c == cname for c, _ in comps):
                ts.error(f"component {cname!r} declared twice in world {wname!r}", ctok)
            ts.expect_sym("{")
            labels = []
            while not ts.at_sym("}"):
                labels.append(ts.label())
            ts.expect_sym("}")
            if not labels:
                ts.error(f"component {cname!r} has no labels", ctok)
            if len(set(labels)) != len(labels):
                ts.error(f"component {cname!r} repeats a label", ctok)
            comps.append((cname, tuple(labels)))
        if not comps:
            ts.error(f"world {wname!r} declares no components")
        ts.expect_sym("}")
        worlds.append(WorldDecl(wname, tuple(comps), None))
    if not worlds:
        ts.error("document declares no worlds")

    doc = SpaceDocument(name, tuple(worlds), None)
    try:
        schema = doc.schema()
    except SchemaError as exc:
        raise ParseError(str(exc)) from None

    measure = None
    if ts.at_word("measure"):
        ts.next()
        measure = _parse_table(ts, schema)

    kernels = []
    seen_sets = set()
    while ts.at_word("kernel"):
        ts.next()
        ts.expect_word("on")
        tok = ts.peek()
        refs = parse_coordset(ts)
        try:
            on = schema.positions(refs)
        except SchemaError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
        if len(refs) != len(on):
            raise ParseError("duplicate coordinate in kernel set", tok.line, tok.col)
        if on in seen_sets:
            raise ParseError("duplicate kernel for this coordinate set", tok.line, tok.col)
        seen_sets.add(on)
        pos = sorted(on)
        on_keys = tuple(schema.coords[p].key for p in pos)
        ts.expect_sym("{")
        rows = []
        seen_rows = set()
        while ts.at_word("given"):
            ts.next()
            tok = ts.peek()
            assignment = parse_outcome_tuple(ts)
            if set(assignment) != set(on_keys):
                raise ParseError(
                    f"'given' must assign exactly the kernel coordinates {list(on_keys)}",
                    tok.line, tok.col)
            row_labels = tuple(assignment[k] for k in on_keys)
            try:
                for p, lab in zip(pos, row_labels):
                    schema.label_index(p, lab)
            except SchemaError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
            if row_labels in seen_rows:
                raise ParseError("duplicate 'given' row", tok.line, tok.col)
            seen_rows.add(row_labels)
            body = _parse_table(ts, schema)
            rows.append((row_labels, body))
        if not rows:
            ts.error("kernel declares no 'given' rows")
        ts.expect_sym("}")
        kernels.append(KernelDecl(on_keys, tuple(rows)))

    mirror = None
    if ts.at_word("mirror"):
        ts.next()
        a = ts.expect_word().value
        b = ts.expect_word().value
        for w in (a, b):
            if not any(d.name == w for d in worlds):
                ts.error(f"mirror references undeclared world {w!r}")
        mirror = (a, b)

    tok = ts.peek()
    if tok.kind != "eof":
        ts.error(f"unexpected {tok.value!r} after the document")

    doc.measure = measure
    doc.kernels = tuple(kernels)
    doc.mirror = mirror
    return doc


# -- serialization ------------------------------------------------------------


def serialize_space(doc: SpaceDocument) -> str:
    """Render a document canonically; parse_space(serialize_space(doc)) == doc.

    Nonzero entries appear in canonical outcome order as reduced fractions;
    a table with fewer nonzero entries than outcomes ends in 'default = 0'.
    """
    schema = doc.schema()
    coord_keys = [c.key for c in schema.coords]
    out = [f"space {doc.name}"]
    for decl in doc.worlds:
        if decl.mirror_of is not None:
            out.append(f"world {decl.name} mirror {decl.mirror_of}")
            continue
        out.append(f"world {decl.name} {{")
        for cname, labels in decl.components:
            out.append(f"  component {cname} {{ {' '.join(labels)} }}")
        out.append("}")

    sort_key = _label_sort_key(schema)

    def emit_table(table: dict, indent: str):
        lines = []
        nonzero = sorted((labels for labels, q in table.items() if q), key=sort_key)
        for labels in nonzero:
            body = ", ".join(f"{c}={lab}" for c, lab in zip(coord_keys, labels))
            lines.append(f"{indent}({body}) = {table[labels]}")
        if len(nonzero) < schema.n_outcomes:
            lines.append(f"{indent}default = 0")
        return lines

    if doc.measure is not None:
        out.append("measure {")
        out.extend(emit_table(doc.measure, "  "))
        out.append("}")
    for kernel in doc.kernels:
        out.append(f"kernel on {{{', '.join(kernel.on)}}} {{")
        for row_labels, body in kernel.rows:
            given = ", ".join(f"{c}={lab}" for c, lab in zip(kernel.on, row_labels))
            out.append(f"  given ({given}) {{")
            out.extend(emit_table(body, "    "))
            out.append("  }")
        out.append("}")
    if doc.mirror is not None:
        out.append(f"mirror {doc.mirror[0]} {doc.mirror[1]}")
    return "\n".join(out) + "\n"


def _label_sort_key(schema: SpaceSchema):
    index = [{lab: i for i, lab in enumerate(c.labels)} for c in schema.coords]

    def key(labels):
        return tuple(index[i][lab] for i, lab in enumerate(labels))

    return key


def doc_from_space(space: CfSpace, name: str) -> SpaceDocument:
    """Build the canonical document for a space (used by the compilers)."""
    schema = space.schema
    worlds = []
    for world in schema.worlds:
        comps = tuple(
            (schema.coords[p].name, schema.coords[p].labels)
            for p in sorted(schema.world_positions(world))
        )
        worlds.append(WorldDecl(world, comps, None))
    labels = [c.labels for c in schema.coords]

    def labels_of(outcome):  # the rows of a Measure are valid outcomes
        return tuple(lab[v] for lab, v in zip(labels, outcome))

    measure = {labels_of(o): q for o, q in space.P.items()}
    kernels = []
    if space.mech is not None:
        for S in space.mech.keys():
            if not S:
                continue  # the empty kernel is implied by the measure
            k = space.mech.get(S)
            pos = sorted(S)
            on_keys = tuple(schema.coords[p].key for p in pos)
            rows = []
            for row in sorted(k.rows):
                row_labels = tuple(schema.coords[p].labels[v] for p, v in zip(pos, row))
                body = {labels_of(o): q for o, q in k.rows[row].items()}
                rows.append((row_labels, body))
            kernels.append(KernelDecl(on_keys, tuple(rows)))
    return SpaceDocument(name, tuple(worlds), measure, tuple(kernels), None)
