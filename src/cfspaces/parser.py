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

Every table of every input format (.cfs, .scm, .po and the .cfq weight
table) is read by `parse_table` and completed by `Table.law` or
`Table.fill`.  A parsed document keeps only the nonzero entries of each
table, so a sparse table with 'default = 0' parses and serializes in time
proportional to its entries, whatever the size of the outcome space.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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


class Token(NamedTuple):
    kind: str  # "word", "number", "sym", "eof"
    value: str
    line: int
    col: int
    pos: int


def _token_pattern(digit: str, word_start: str, word_char: str) -> re.Pattern:
    # Group numbers index _KINDS.  Blanks and comments match without a group.
    return re.compile(
        rf"[ \t\r]*(?:(\n)|#[^\n]*|({digit}+(?:\.{digit}+)?)|({word_start}{word_char}*)"
        rf"|([{re.escape(_SYMBOLS)}])|(.)|\Z)")


_KINDS = (None, "nl", "number", "word", "sym", "other")

# A number is a run of str.isdigit characters, with an optional fraction
# part; a word starts with str.isalpha or '_' and continues with
# str.isalnum or '_'.  On ASCII these are plain ranges.  Beyond ASCII, re's
# \w is exactly isalnum or '_', but \d (isdecimal) is narrower than isdigit
# and [^\W\d] wider than isalpha, by numeric characters that are built into
# the classes on first use (a scan of every code point).
_ASCII_TOKENS = _token_pattern("[0-9]", "[A-Za-z_]", "[A-Za-z0-9_]")


@functools.cache
def _unicode_tokens() -> re.Pattern:
    numeric = "".join(c for c in map(chr, range(sys.maxunicode + 1))
                      if c.isnumeric() and not c.isdecimal() and not c.isalpha())
    digits = "".join(c for c in numeric if c.isdigit())
    return _token_pattern(rf"[\d{digits}]", rf"(?![{numeric}])[^\W\d]", r"\w")


def tokenize(text: str) -> list[Token]:
    tokens = _scan(text, _ASCII_TOKENS)
    return tokens if tokens is not None else _scan(text, _unicode_tokens())


def _scan(text: str, pattern: re.Pattern) -> list[Token] | None:
    """Tokens of `text`, or None when the ASCII pattern meets a non-ASCII
    character outside a comment."""
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    for m in pattern.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        if group == 1:
            line += 1
            line_start = m.end()
            continue
        start = m.start(group)
        value = m.group(group)
        if group == 5:
            if pattern is _ASCII_TOKENS and not value.isascii():
                return None
            raise ParseError(f"unexpected character {value!r}", line, start - line_start + 1)
        append(Token(_KINDS[group], value, line, start - line_start + 1, start))
    # End of input takes the column after the last token or blank; a
    # comment on the last line does not advance it.
    comment = text.find("#", line_start)
    end = len(text) if comment < 0 else comment
    append(Token("eof", "", line, end - line_start + 1, len(text)))
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

    def name(self) -> str:
        return self.expect_word().value

    def label(self, labels=None, what: str = "label") -> str:
        """A label; when `labels` is given it must be one of them."""
        tok = self.peek()
        if tok.kind not in ("word", "number") or (tok.kind == "number" and "." in tok.value):
            self.error(f"expected a label, found {tok.value!r}")
        if labels is not None and tok.value not in labels:
            self.error(f"unknown {what} {tok.value!r}")
        return self.next().value

    def label_set(self) -> tuple[str, ...]:
        """Parse '{ l1 l2 ... }': at least one label, none repeated."""
        open_tok = self.expect_sym("{")
        labels: dict[str, None] = {}
        while not self.at_sym("}"):
            tok = self.peek()
            label = self.label()
            if label in labels:
                self.error(f"label {label!r} listed twice", tok)
            labels[label] = None
        self.expect_sym("}")
        if not labels:
            self.error("empty label set", open_tok)
        return tuple(labels)

    def rational(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "number":
            self.error(f"expected a number, found {tok.value!r}")
        self.next()
        if "." in tok.value:
            return self._numeral(tok, Fraction)
        num = self._numeral(tok, int)
        if not self.at_sym("/"):
            return Fraction(num)
        self.next()
        den_tok = self.peek()
        if den_tok.kind != "number" or "." in den_tok.value:
            self.error("expected an integer denominator")
        self.next()
        den = self._numeral(den_tok, int)
        if den == 0:
            self.error("zero denominator", den_tok)
        return Fraction(num, den)

    def _numeral(self, tok: Token, convert):
        """convert(tok.value); digits that int() rejects, such as '²', are an error at tok."""
        try:
            return convert(tok.value)
        except ValueError:
            self.error(f"invalid number {tok.value!r}", tok)

    def coord_ref(self) -> str:
        world = self.expect_word().value
        self.expect_sym(".")
        name = self.expect_word().value
        return f"{world}.{name}"


def parse_outcome_tuple(ts: TokenStream, ref, domains=None, what: str = "variable") -> dict:
    """Parse '(name=label, ...)' into {name: label}; '()' is empty.

    `ref` reads one name: `ts.coord_ref` for 'W.c', `ts.name` for a plain
    identifier.  With `domains`, {name: labels}, an unknown `what` or
    label is an error at its token.
    """
    ts.expect_sym("(")
    assignment: dict[str, str] = {}
    while not ts.at_sym(")"):
        tok = ts.peek()
        name = ref()
        if domains is not None and name not in domains:
            raise ParseError(f"unknown {what} {name!r}", tok.line, tok.col)
        ts.expect_sym("=")
        label = ts.label(None if domains is None else domains[name], f"label of {name}")
        if name in assignment:
            raise ParseError(f"{name} assigned twice", tok.line, tok.col)
        assignment[name] = label
        if ts.at_sym(","):
            ts.next()
    ts.expect_sym(")")
    return assignment


def assignment_key(ts: TokenStream, ref, variables, what: str):
    """A reader of '(name=label, ...)' keys over `variables`, ((name,
    labels), ...): each name assigned once to one of its labels, read as the
    label tuple in the order of `variables`."""
    domains = dict(variables)

    def key() -> tuple:
        tok = ts.peek()
        assignment = parse_outcome_tuple(ts, ref, domains, what)
        if len(assignment) != len(domains):
            missing = next(name for name in domains if name not in assignment)
            raise ParseError(f"{what} {missing} is not assigned", tok.line, tok.col)
        return tuple(assignment[name] for name in domains)

    return key


# -- tables -------------------------------------------------------------------


@dataclass(frozen=True)
class Table:
    """A '{ key = value ... default = value }' block as written.

    Keys are distinct and the default is None when the block declares
    none.  Completing the table against its domain checks coverage by
    count, so the key reader must accept only keys of that domain.
    """

    entries: dict
    default: object
    line: int
    col: int

    def _unlisted(self, size: int, what: str, unit: str) -> int:
        unlisted = size - len(self.entries)
        if unlisted and self.default is None:
            raise ParseError(
                f"{what} covers {len(self.entries)} of {size} {unit} and declares no default",
                self.line, self.col)
        return unlisted

    def fill(self, size: int, domain, what: str, unit: str) -> dict:
        """The table over a domain of `size` keys, which `domain()`
        enumerates; the domain is enumerated only to spread a nonzero
        default over the unlisted keys."""
        self._unlisted(size, what, unit)
        if self.default:
            return {key: self.entries.get(key, self.default) for key in domain()}
        return self.entries

    def law(self, size: int, domain, what: str, unit: str) -> dict:
        """The nonzero weights of a probability table, which must sum to
        exactly one; see `fill`."""
        unlisted = self._unlisted(size, what, unit)
        total = sum(self.entries.values(), Fraction(0)) + (self.default or 0) * unlisted
        if total != 1:
            gap = 1 - total
            direction = "short by" if gap > 0 else "in excess by"
            raise ParseError(f"{what} sums to {total}, {direction} {abs(gap)}",
                             self.line, self.col)
        return {key: q for key, q in self.fill(size, domain, what, unit).items() if q}


def parse_table(ts: TokenStream, key, value) -> Table:
    """Parse '{ key = value ... default = value }' with the readers `key`
    and `value`.

    A key listed twice and a second default are errors at their line:col.
    Numbers are unsigned in the grammar, so a negative weight stops at the
    lexer, also with its line:col.
    """
    open_tok = ts.expect_sym("{")
    entries: dict = {}
    default = None
    while not ts.at_sym("}"):
        tok = ts.peek()
        if ts.at_word("default"):
            ts.next()
            ts.expect_sym("=")
            if default is not None:
                raise ParseError("duplicate default", tok.line, tok.col)
            default = value()
            continue
        k = key()
        if k in entries:
            raise ParseError("duplicate entry", tok.line, tok.col)
        ts.expect_sym("=")
        entries[k] = value()
    ts.expect_sym("}")
    return Table(entries, default, open_tok.line, open_tok.col)


def product_domain(axes) -> tuple:
    """(size, enumerator) of the label tuples over a sequence of axes."""
    return math.prod(map(len, axes)), lambda: itertools.product(*axes)


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
            comps.append((cname, ts.label_set()))
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

    # Every table of the document is a measure over the whole outcome
    # space, keyed by the label tuple of an outcome.
    outcome = assignment_key(ts, ts.coord_ref, [(c.key, c.labels) for c in schema.coords],
                             "coordinate")
    outcomes = product_domain([c.labels for c in schema.coords])

    def parse_measure() -> dict:
        return parse_table(ts, outcome, ts.rational).law(*outcomes, "measure", "outcomes")

    measure = None
    if ts.at_word("measure"):
        ts.next()
        measure = parse_measure()

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
        on_coords = [schema.coords[p] for p in sorted(on)]
        on_keys = tuple(c.key for c in on_coords)
        given = assignment_key(ts, ts.coord_ref, [(c.key, c.labels) for c in on_coords],
                               "kernel coordinate")
        ts.expect_sym("{")
        rows = []
        seen_rows = set()
        while ts.at_word("given"):
            ts.next()
            tok = ts.peek()
            row_labels = given()
            if row_labels in seen_rows:
                raise ParseError("duplicate 'given' row", tok.line, tok.col)
            seen_rows.add(row_labels)
            rows.append((row_labels, parse_measure()))
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
