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

Reading costs one regex match per entry, not one token per character
run: `TokenStream` lexes a token only when the grammar looks at it, and
`parse_table` reads each 'key = value' entry in its usual one-line
spelling with one anchored match, resolving names and labels through the
readers' dicts.  Any entry that the match does not read is read again
from the same place token by token, and only that path reports errors.
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

from .measure import Measure, ints
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
    tokens = list(_lex(text, _ASCII_TOKENS))
    return tokens if tokens[-1] is not None else list(_lex(text, _unicode_tokens()))


def _lex(text: str, pattern: re.Pattern, pos: int = 0, line: int = 1, line_start: int = 0):
    """The tokens of `text` from `pos` (on `line`, which starts at
    `line_start`), ending with an "eof" token.  A character that no token
    takes is an error at its line:col, except that the ASCII pattern meets
    a non-ASCII character outside a comment by yielding None and stopping."""
    for m in pattern.finditer(text, pos):
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
                yield None
                return
            raise ParseError(f"unexpected character {value!r}", line, start - line_start + 1)
        yield Token(_KINDS[group], value, line, start - line_start + 1, start)
    # End of input takes the column after the last token or blank; a
    # comment on the last line does not advance it.
    comment = text.find("#", line_start)
    end = len(text) if comment < 0 else comment
    yield Token("eof", "", line, end - line_start + 1, len(text))


# Text in which every character outside comments is one that the ASCII
# pattern lexes into a token, a blank or a newline: a text that this
# matches to its end has no lexical error.
_ASCII_CLEAN = re.compile(rf"(?:[\w \t\r\n{re.escape(_SYMBOLS)}]+|#[^\n]*)*", re.ASCII)


class TokenStream:
    """A cursor over `text` that lexes each token when the grammar first
    looks at it.

    Lexical errors still come before grammar errors.  One regex pass at
    construction finds whether the ASCII pattern lexes the whole text;
    only a text where it does not is scanned whole by `tokenize`, which
    raises the first lexical error, and is then lexed with the Unicode
    pattern.  In an ASCII text, `match` reads a whole element, such as a
    table entry, with one anchored regex match at the cursor.
    """

    def __init__(self, text: str):
        self.text = text
        self._ascii = _ASCII_CLEAN.match(text).end() == len(text)
        if not self._ascii:
            tokenize(text)
        self._pattern = _ASCII_TOKENS if self._ascii else _unicode_tokens()
        self._tok = None  # the next token, once lexed
        # The token before the cursor, or an empty one at it, and the
        # tokens after it, made when first needed.
        self._last = Token("mark", "", 1, 1, 0)
        self._tokens = None

    def peek(self) -> Token:
        tok = self._tok
        if tok is None:
            if self._tokens is None:
                last = self._last
                self._tokens = _lex(self.text, self._pattern, last.pos + len(last.value),
                                    last.line, last.pos - last.col + 1)
            tok = self._tok = next(self._tokens)
        return tok

    def next(self) -> Token:
        tok = self._tok or self.peek()
        if tok.kind != "eof":
            self._tok = None
            self._last = tok
        return tok

    def match(self, regex: re.Pattern, resolve):
        """resolve(*groups) of a match of `regex` at the cursor, which then
        moves past the match; None, with the cursor left where it was,
        when the text is not ASCII, `regex` does not match or `resolve`
        gives None.  After its first group a match spans no newline."""
        if not self._ascii:
            return None
        tok = self._tok
        if tok is None:
            tok = self._last
            pos = tok.pos + len(tok.value)
        else:
            pos = tok.pos
        m = regex.match(self.text, pos)
        if m is None:
            return None
        value = resolve(*m.groups())
        if value is not None:
            line, line_start = tok.line, tok.pos - tok.col + 1
            start = m.start(1)
            newlines = self.text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = self.text.rfind("\n", pos, start) + 1
            end = m.end()
            self._tok = self._tokens = None
            self._last = Token("mark", "", line, end - line_start + 1, end)
        return value

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

    @property
    def rational(self) -> Reader:
        """The reader of a weight: p/q or an exact decimal literal."""
        return Reader(self, self._rational, _RATIONAL, _rational_value)

    def _rational(self) -> Fraction:
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

    def coord_ref(self, world: str | None = None) -> str:
        """'W.c' as "W.c"; with `world`, the rest after that word."""
        if world is None:
            world = self.expect_word().value
        self.expect_sym(".")
        name = self.expect_word().value
        return f"{world}.{name}"


# -- readers ----------------------------------------------------------------
#
# The patterns below are the usual spellings of keys, labels and weights,
# in ASCII text and within one line.  Each matches only text that the
# token path reads to the same value and the same end: a word or number
# is never followed by a character that would lengthen its token, and an
# integer weight is never followed by '/' or a comment, which could hide
# a '/' token.

_BLANK = r"[ \t\r]*"
_WORD = r"[A-Za-z_]\w*"
_NAME = rf"{_WORD}(?:\.{_WORD})?"  # a plain name or W.c
_LABEL = r"(?:[A-Za-z_]\w*|[0-9]+)(?!\w|\.[0-9])"
_PAIR = rf"{_NAME}{_BLANK}={_BLANK}{_LABEL}"
_KEY = rf"\({_BLANK}({_PAIR}(?:{_BLANK},{_BLANK}{_PAIR})*){_BLANK}\)"
_PAIRS = re.compile(rf"({_NAME}){_BLANK}={_BLANK}({_LABEL})", re.ASCII).findall
_RATIONAL = r"([0-9]+(?:/[0-9]+|\.[0-9]+|(?![ \t\r\n]*[/#])))(?![0-9]|\.[0-9])"


@functools.cache
def _anchored(*patterns: str) -> re.Pattern:
    """One regex for elements joined by '=' on one line, after any blanks
    and newlines."""
    return re.compile(r"[ \t\r\n]*" + f"{_BLANK}={_BLANK}".join(patterns), re.ASCII)


class Reader:
    """Reads one element of the grammar: with one anchored match where
    that gives its value, token by token otherwise.

    `pattern` has one group, the element's text, and `resolve` maps that
    text to the value `read` returns for it, or to None when `read` must
    read it: a name or label that is not in the reader's dicts, a name
    assigned twice, a zero denominator.  `read` alone reports errors, so
    every diagnostic keeps its text and its line:col.
    """

    def __init__(self, ts: TokenStream, read, pattern: str, resolve):
        self.ts, self.read, self.pattern, self.resolve = ts, read, pattern, resolve
        self._regex = _anchored(pattern)

    def __call__(self):
        value = self.ts.match(self._regex, self.resolve)
        return self.read() if value is None else value


@functools.lru_cache(maxsize=4096)
def _rational_value(text: str) -> Fraction | None:
    num, slash, den = text.partition("/")
    try:
        if slash:
            den = int(den)
            return Fraction(int(num), den) if den else None
        return Fraction(text) if "." in text else Fraction(int(text))
    except ValueError:  # more digits than int() converts
        return None


def label_reader(ts: TokenStream, labels, what: str) -> Reader:
    """The reader of one of `labels`, as `ts.label(labels, what)`."""
    return Reader(ts, lambda: ts.label(labels, what), f"({_LABEL})",
                  lambda text: text if text in labels else None)


def key_reader(ts: TokenStream, read, resolve) -> Reader:
    """A reader of '(name=label, ...)' keys: `read` reads one from the
    tokens, and `resolve` maps its ((name, label), ...) pairs, as written,
    to the same key or to None."""
    return Reader(ts, read, _KEY, functools.cache(lambda text: resolve(_PAIRS(text))))


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


def assignment_key(ts: TokenStream, ref, variables, what: str) -> Reader:
    """A reader of '(name=label, ...)' keys over `variables`, ((name,
    {label: value}), ...): each name assigned once to one of its labels,
    read as the tuple of their values in the order of `variables`."""
    domains = dict(variables)

    def read() -> tuple:
        tok = ts.peek()
        assignment = parse_outcome_tuple(ts, ref, domains, what)
        if len(assignment) != len(domains):
            missing = next(name for name in domains if name not in assignment)
            raise ParseError(f"{what} {missing} is not assigned", tok.line, tok.col)
        return tuple(values[assignment[name]] for name, values in domains.items())

    def resolve(pairs) -> tuple | None:
        # A name written twice leaves another one unassigned.
        if len(pairs) != len(domains):
            return None
        assignment = dict(pairs)
        key = tuple([values.get(assignment.get(name)) for name, values in domains.items()])
        return None if None in key else key

    return key_reader(ts, read, resolve)


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
        nums, den = ints(self.entries)
        total = Fraction(sum(nums.values()), den) + (self.default or 0) * unlisted
        if total != 1:
            gap = 1 - total
            direction = "short by" if gap > 0 else "in excess by"
            raise ParseError(f"{what} sums to {total}, {direction} {abs(gap)}",
                             self.line, self.col)
        return {key: q for key, q in self.fill(size, domain, what, unit).items() if q}


def parse_table(ts: TokenStream, key, value) -> Table:
    """Parse '{ key = value ... default = value }' with the readers `key`
    and `value`.

    When both readers are `Reader`s, each entry is read with one anchored
    match of their joined patterns, and only an entry that this does not
    read goes through the tokens.  A key listed twice and a second default
    are errors at their line:col.  Numbers are unsigned in the grammar, so
    a negative weight stops at the lexer, also with its line:col.
    """
    open_tok = ts.expect_sym("{")
    entries: dict = {}
    default = None
    fast = isinstance(key, Reader) and isinstance(value, Reader)
    if fast:
        regex = _anchored(key.pattern, value.pattern)

        def entry(key_text, value_text):
            k, v = key.resolve(key_text), value.resolve(value_text)
            return None if k is None or v is None or k in entries else (k, v)

    while True:
        kv = fast and ts.match(regex, entry)
        if kv:
            entries[kv[0]] = kv[1]
            continue
        if ts.at_sym("}"):
            break
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
    """Parse '{W.c, ...}': coordinate references, none repeated."""
    ts.expect_sym("{")
    refs: dict[str, None] = {}
    while not ts.at_sym("}"):
        tok = ts.peek()
        ref = ts.coord_ref()
        if ref in refs:
            ts.error(f"coordinate {ref!r} listed twice", tok)
        refs[ref] = None
        if ts.at_sym(","):
            ts.next()
    ts.expect_sym("}")
    return tuple(refs)


def parse_declarations(ts: TokenStream, keyword: str, what: str, taken=frozenset(),
                       where: str = "") -> tuple[list, list]:
    """Parse 'keyword name { labels }' declarations while `keyword` comes
    next: ([(name, labels), ...], [keyword token, ...]).  A name declared
    before, or in `taken`, is an error at the name:
    "<what> 'name' declared twice<where>"."""
    decls, tokens = [], []
    names = set(taken)
    while ts.at_word(keyword):
        tokens.append(ts.next())
        tok = ts.expect_word()
        if tok.value in names:
            ts.error(f"{what} {tok.value!r} declared twice{where}", tok)
        names.add(tok.value)
        decls.append((tok.value, ts.label_set()))
    return decls, tokens


# -- space documents --------------------------------------------------------


@dataclass
class WorldDecl:
    name: str
    components: tuple[tuple[str, tuple[str, ...]], ...] | None = None
    mirror_of: str | None = None


@dataclass
class KernelDecl:
    """A kernel block: `on` is its set of schema positions, and each row,
    an index tuple over the ascending positions of `on`, has a table keyed
    as the document's measure."""

    on: frozenset
    rows: tuple  # ((row, {outcome: nonzero Fraction}), ...)


@dataclass
class SpaceDocument:
    """Parsed form of a .cfs file.

    Tables are keyed as in `Measure`: the measure and every kernel-row body
    map outcomes, label-index tuples in schema order, to their nonzero
    weights, and outcomes absent from a table weigh zero.  Labels appear
    only in the text that `parse_space` reads and `serialize_space` writes.
    """

    name: str
    worlds: tuple[WorldDecl, ...]
    measure: dict | None  # outcome -> nonzero Fraction
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
        # The constructors check every table again: a document can be built
        # by hand.
        try:
            P = Measure(schema, self.measure)
            kernels = [Kernel(schema, decl.on, {row: Measure(schema, body)
                                                for row, body in decl.rows})
                       for decl in self.kernels]
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        mech = Mechanism(schema, P, kernels) if self.kernels else None
        return CfSpace(schema, P, mech)


def parse_space(text: str) -> SpaceDocument:
    ts = TokenStream(text)
    ts.expect_word("space")
    name = ts.expect_word().value
    worlds: list[WorldDecl] = []
    while ts.at_word("world"):
        ts.next()
        wtok = ts.expect_word()
        wname = wtok.value
        if any(w.name == wname for w in worlds):
            ts.error(f"world {wname!r} declared twice", wtok)
        if ts.at_word("mirror"):
            ts.next()
            ttok = ts.expect_word()
            target = ttok.value
            if not any(w.name == target for w in worlds):
                ts.error(f"world {wname!r} mirrors undeclared world {target!r}", ttok)
            worlds.append(WorldDecl(wname, None, target))
            continue
        ts.expect_sym("{")
        comps, _ = parse_declarations(ts, "component", "component", where=f" in world {wname!r}")
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
    # space, keyed by outcome.
    index = [(c.key, {lab: i for i, lab in enumerate(c.labels)}) for c in schema.coords]
    outcome = assignment_key(ts, ts.coord_ref, index, "coordinate")
    outcomes = schema.n_outcomes, lambda: schema.rows(schema.all_on)

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
        try:
            on = schema.positions(parse_coordset(ts))
        except SchemaError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
        if on in seen_sets:
            raise ParseError("duplicate kernel for this coordinate set", tok.line, tok.col)
        seen_sets.add(on)
        given = assignment_key(ts, ts.coord_ref, [index[p] for p in sorted(on)],
                               "kernel coordinate")
        ts.expect_sym("{")
        rows = {}
        while ts.at_word("given"):
            ts.next()
            tok = ts.peek()
            row = given()
            if row in rows:
                raise ParseError("duplicate 'given' row", tok.line, tok.col)
            rows[row] = parse_measure()
        if not rows:
            ts.error("kernel declares no 'given' rows")
        ts.expect_sym("}")
        kernels.append(KernelDecl(on, tuple(rows.items())))

    mirror = None
    if ts.at_word("mirror"):
        ts.next()
        a, b = ts.expect_word(), ts.expect_word()
        for tok in (a, b):
            if not any(d.name == tok.value for d in worlds):
                ts.error(f"mirror references undeclared world {tok.value!r}", tok)
        mirror = (a.value, b.value)

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
    # "W.c=l" per coordinate, indexed by label index.
    pairs = [[f"{c.key}={lab}" for lab in c.labels] for c in schema.coords]
    out = [f"space {doc.name}"]
    for decl in doc.worlds:
        if decl.mirror_of is not None:
            out.append(f"world {decl.name} mirror {decl.mirror_of}")
            continue
        out.append(f"world {decl.name} {{")
        for cname, labels in decl.components:
            out.append(f"  component {cname} {{ {' '.join(labels)} }}")
        out.append("}")

    def assignment(positions, row) -> str:
        return ", ".join([pairs[p][v] for p, v in zip(positions, row)])

    def emit_table(table: dict, indent: str):
        lines = []
        nonzero = sorted(outcome for outcome, q in table.items() if q)
        for outcome in nonzero:
            lines.append(f"{indent}({assignment(schema.all_on, outcome)}) = {table[outcome]}")
        if len(nonzero) < schema.n_outcomes:
            lines.append(f"{indent}default = 0")
        return lines

    if doc.measure is not None:
        out.append("measure {")
        out.extend(emit_table(doc.measure, "  "))
        out.append("}")
    for kernel in doc.kernels:
        on = sorted(kernel.on)
        out.append(f"kernel on {{{', '.join(schema.coords[p].key for p in on)}}} {{")
        for row, body in kernel.rows:
            out.append(f"  given ({assignment(on, row)}) {{")
            out.extend(emit_table(body, "    "))
            out.append("  }")
        out.append("}")
    if doc.mirror is not None:
        out.append(f"mirror {doc.mirror[0]} {doc.mirror[1]}")
    return "\n".join(out) + "\n"


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
    kernels = []
    if space.mech is not None:
        for S in space.mech.keys():
            if not S:
                continue  # the empty kernel is implied by the measure
            k = space.mech.get(S)
            rows = tuple((row, k.rows[row].as_dict()) for row in sorted(k.rows))
            kernels.append(KernelDecl(k.on, rows))
    return SpaceDocument(name, tuple(worlds), space.P.as_dict(), tuple(kernels), None)
