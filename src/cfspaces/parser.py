"""Text format for spaces (.cfs) and its canonical serializer.

A document declares worlds and their components, an observational
measure, causal kernels ('kernel on {CF.c} { given (CF.c=a) { ... } }')
and an optional world mirror; README.md gives the grammar with an example.
Rationals are p/q or decimal literals, parsed exactly (0.32 is 8/25).
Measure entries assign every coordinate; unlisted outcomes take the block
default, and omitting both is a coverage error.  Comments run from '#' to
end of line.  Errors carry line and column.

Every table of every input format (.cfs, .scm, .po and the .cfq weight
table) is read by `parse_table` and completed by `Table.law` or
`Table.fill`, which keep only its nonzero entries: a sparse table with
'default = 0' costs time in proportion to its entries; weights are read
as reduced integer pairs (n, d).  A table, and a .cfs kernel with all its
rows, is read whole with one regex match when in its usual spelling, or
else by tokens from its first character, the only path that reports
errors.  A .cfs probability table is read into the `Measure` it denotes,
and a document holds those Measures from text to space and back.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .measure import Measure
from .mechanism import CfSpace, Kernel, Mechanism
from .space import Coordinate, SchemaError, SpaceSchema, budget, quoted


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
            raise ParseError(f"unexpected character {quoted(value)}", line, start - line_start + 1)
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
    looks at it.  Lexical errors still come before grammar errors: one
    regex pass at construction finds whether the ASCII pattern lexes the
    whole text, and only a text where it does not is lexed whole, once, by
    `tokenize`, which raises the first lexical error.  In an ASCII text,
    `match` reads a whole table or kernel with one regex match.
    """

    def __init__(self, text: str):
        self.text = text
        self._ascii = _ASCII_CLEAN.match(text).end() == len(text)
        self._tok = None  # the next token, once lexed
        # The token before the cursor, or an empty one at it, and the
        # tokens after it: an ASCII text's are lexed when first needed.
        self._last = Token("mark", "", 1, 1, 0)
        self._tokens = None if self._ascii else iter(tokenize(text))

    def peek(self) -> Token:
        tok = self._tok
        if tok is None:
            if self._tokens is None:
                last = self._last
                self._tokens = _lex(self.text, _ASCII_TOKENS, last.pos + len(last.value),
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
        gives None."""
        if not self._ascii:
            return None
        tok = self._tok
        if tok is None:
            tok = self._last
            pos = tok.pos + len(tok.value)
        else:
            pos = tok.pos
        m = regex.match(self.text, pos)
        value = None if m is None else resolve(*m.groups())
        if value is not None:
            line, line_start = tok.line, tok.pos - tok.col + 1
            end = m.end()
            newlines = self.text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = self.text.rfind("\n", pos, end) + 1
            self._tok = self._tokens = None
            self._last = Token("mark", "", line, end - line_start + 1, end)
        return value

    def error(self, message, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.value != sym:
            self.error(f"expected {sym!r}, found {quoted(tok.value)}")
        return self.next()

    def expect_word(self, word: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != "word" or (word is not None and tok.value != word):
            wanted = "identifier" if word is None else repr(word)
            self.error(f"expected {wanted}, found {quoted(tok.value)}")
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
            self.error(f"expected a label, found {quoted(tok.value)}")
        if labels is not None and tok.value not in labels:
            self.error(f"unknown {what} {quoted(tok.value)}")
        return self.next().value

    def label_set(self) -> tuple[str, ...]:
        """Parse '{ l1 l2 ... }': at least one label, none repeated."""
        open_tok = self.expect_sym("{")
        labels: dict[str, None] = {}
        while not self.at_sym("}"):
            tok = self.peek()
            label = self.label()
            if label in labels:
                self.error(f"label {quoted(label)} listed twice", tok)
            labels[label] = None
        self.expect_sym("}")
        if not labels:
            self.error("empty label set", open_tok)
        return tuple(labels)

    @property
    def rational(self) -> Reader:
        """The reader of a weight: p/q or an exact decimal literal."""
        return Reader(self._rational, _RATIONAL, _rational_value)

    def _rational(self) -> tuple[int, int]:
        tok = self.peek()
        if tok.kind != "number":
            self.error(f"expected a number, found {quoted(tok.value)}")
        self.next()
        value = self._numeral(tok)
        if "." in tok.value or not self.at_sym("/"):
            return value
        self.next()
        den_tok = self.peek()
        if den_tok.kind != "number" or "." in den_tok.value:
            self.error("expected an integer denominator")
        if self._numeral(self.next()) == (0, 1):
            self.error("zero denominator", den_tok)
        return _rational_value(f"{tok.value}/{den_tok.value}")

    def _numeral(self, tok: Token) -> tuple[int, int]:
        """The weight of a number token; digits that int() rejects, such as '²', are an error at tok."""
        value = _rational_value(tok.value)
        if value is None:
            self.error(f"invalid number {quoted(tok.value)}", tok)
        return value

    def coord_ref(self, world: str | None = None) -> str:
        """'W.c' as "W.c"; with `world`, the rest after that word."""
        if world is None:
            world = self.name()
        self.expect_sym(".")
        return f"{world}.{self.name()}"


# -- readers ----------------------------------------------------------------
#
# The patterns below are the usual spellings of tables, keys, labels and
# weights, in ASCII text.  Each matches only text that the token path reads
# to the same value and the same end: no word or number is followed by a
# character that would lengthen its token, no integer weight by '/' or a
# comment, which could hide a '/' token, and a key, any text from '(' to the
# next ')', is checked against _KEY by its reader's cached resolve.

_BLANK = r"[ \t\r]*"
_SPACE = r"[ \t\r\n]*"  # between elements, which may stand on lines of their own
_WORD = r"[A-Za-z_]\w*"
_NAME = rf"{_WORD}(?:\.{_WORD})?"  # a plain name or W.c
_LABEL = r"(?:[A-Za-z_]\w*|[0-9]+)(?!\w|\.[0-9])"
_PAIR = rf"{_NAME}{_BLANK}={_BLANK}{_LABEL}"
_KEY = re.compile(rf"\({_BLANK}{_PAIR}(?:{_BLANK},{_BLANK}{_PAIR})*{_BLANK}\)", re.ASCII).fullmatch
_PARENS = r"\([^)]*\)"
_PAIRS = re.compile(rf"({_NAME}){_BLANK}={_BLANK}({_LABEL})", re.ASCII).findall
_RATIONAL = r"[0-9]+(?:/[0-9]+|\.[0-9]+|(?![ \t\r\n]*[/#]))(?![0-9]|\.[0-9])"


@functools.cache
def _table_regex(key: str, value: str) -> tuple:
    """The regex of a whole table '{ key = value ... default = value }', whose groups
    are the texts of its entries and default, and the findall of the entries' texts."""
    def entry(group):  # 'key = value' on one line, each in a group opened by `group`
        return rf"{_SPACE}{group}(?!default\b){key}){_BLANK}={_BLANK}{group}{value})"

    return (re.compile(rf"{_SPACE}\{{((?:{entry('(?:')})*)"
                       rf"(?:{_SPACE}default{_BLANK}={_BLANK}({value}))?{_SPACE}\}}", re.ASCII),
            re.compile(entry("("), re.ASCII).findall)


# 'kernel on {W.c, ...} { ... { ... } ... }': the text of the set, and the text
# between the block's braces, parts '... { ... }', which its rows must fill back to back.
_REF = rf"{_SPACE}{_WORD}\.{_WORD}{_SPACE}"
_KERNEL = re.compile(rf"kernel{_SPACE}on{_SPACE}\{{({_REF}(?:,{_REF})*)\}}"
                     rf"{_SPACE}\{{((?:[^{{}}]*\{{[^}}]*\}})*){_SPACE}\}}", re.ASCII)


class Reader(NamedTuple):
    """A key or value of a table, read as the table is: `read` reads it
    from the tokens at the cursor and alone reports errors; `pattern`
    matches its usual spelling in a table read whole, and `resolve` maps
    that text to the value `read` gives, or to None where only `read` may
    (a name or label not in the reader's dicts, a name assigned twice, p/0)."""

    read: object
    pattern: str
    resolve: object


@functools.lru_cache(maxsize=4096)
def _rational_value(text: str) -> tuple[int, int] | None:
    """The reduced (n, d) of a weight as written, p/q or a decimal, each part one int()
    as in Fraction(text): None where int() rejects a part (too long, or '²') and for p/0."""
    num, _, den = text.partition("/")
    whole, _, frac = num.partition(".")
    try:
        n, d = int(whole) * 10 ** len(frac) + int(frac or 0), int(den or 1) * 10 ** len(frac)
    except ValueError:
        return None
    g = math.gcd(n, d)
    return (n // g, d // g) if d else None


def label_reader(ts: TokenStream, labels, what: str) -> Reader:
    """The reader of one of `labels`, as `ts.label(labels, what)`."""
    return Reader(lambda: ts.label(labels, what), _LABEL,
                  lambda text: text if text in labels else None)


def key_reader(read, resolve) -> Reader:
    """A reader of '(name=label, ...)' keys: `read` reads one from the
    tokens, and `resolve` maps its ((name, label), ...) pairs, as written,
    to the same key or to None."""
    return Reader(read, _PARENS,
                  functools.cache(lambda text: resolve(_PAIRS(text)) if _KEY(text) else None))


def pair_reader(read, key: Reader) -> Reader:
    """A reader of '(k, k*)' pairs of the keys that the key reader `key`
    reads: `read` reads one from the tokens, and the pair's two '(...)' as
    written resolve through `key`."""
    def resolve(text) -> tuple | None:
        pair = tuple(map(key.resolve, re.findall(_PARENS, text[1:])))
        return None if None in pair else pair

    return Reader(read, rf"\({_BLANK}{_PARENS}{_BLANK},{_BLANK}{_PARENS}{_BLANK}\)",
                  functools.cache(resolve))


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
            raise ParseError(f"unknown {what} {quoted(name)}", tok.line, tok.col)
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
    names, label_maps = tuple(domains), tuple(domains.values())

    def read() -> tuple:
        tok = ts.peek()
        assignment = parse_outcome_tuple(ts, ref, domains, what)
        if len(assignment) != len(domains):
            missing = next(name for name in domains if name not in assignment)
            raise ParseError(f"{what} {missing} is not assigned", tok.line, tok.col)
        return tuple(values[assignment[name]] for name, values in domains.items())

    def resolve(pairs) -> tuple | None:
        if len(pairs) != len(domains):  # a name written twice leaves another unassigned
            return None
        key = tuple(map(dict.get, label_maps, map(dict(pairs).get, names)))
        return None if None in key else key

    return key_reader(read, resolve)


# -- tables -------------------------------------------------------------------


@dataclass
class Table:
    """A '{ key = value ... default = value }' block as written.

    Keys are distinct and the default is None when the block declares
    none.  Completing the table against its domain checks coverage by
    count, so the key reader must accept only keys of that domain.
    """

    entries: dict
    default: object
    line: int | None
    col: int | None

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
        default over the unlisted keys, and within the size budget."""
        self._unlisted(size, what, unit)
        if self.default:
            try:
                budget(size)
            except SchemaError as exc:
                raise ParseError(str(exc), self.line, self.col) from None
            return {key: self.entries.get(key, self.default) for key in domain()}
        return self.entries

    def law(self, size: int, domain, what: str, unit: str) -> dict:
        """A table of (n, d) weights as the integer table of a `Margin`: its
        nonzero weights as numerators over the lcm of their denominators,
        which must be their sum, so they have no common factor; see `fill`."""
        unlisted = self._unlisted(size, what, unit)
        fill, fill_den = self.default if unlisted else (0, 1)
        dens = set(map(itemgetter(1), self.entries.values()))
        if fill:
            dens.add(fill_den)
        den = math.lcm(*dens)
        nums = {key: n * (den // d) for key, (n, d) in self.entries.items()}
        fill *= den // fill_den
        total = sum(nums.values()) + fill * unlisted
        if total != den:
            gap = 1 - Fraction(total, den)
            raise ParseError(f"{what} sums to {1 - gap}, {'short' if gap > 0 else 'in excess'} "
                             f"by {abs(gap)}", self.line, self.col)
        if fill:
            nums = replace(self, entries=nums, default=fill).fill(size, domain, what, unit)
        return {key: n for key, n in nums.items() if n} if 0 in nums.values() else nums


def parse_table(ts: TokenStream, key, value) -> Table:
    """Parse '{ key = value ... default = value }' with the `Reader`s `key`
    and `value`: whole, with one match and its entries with one findall,
    when the table is in their usual spelling, and by tokens from its '{'
    otherwise.  A key listed twice and a second default are errors at
    their line:col.  Numbers are unsigned in the grammar, so a negative
    weight stops at the lexer, also with its line:col.
    """
    open_tok = ts.peek()
    regex, findall = _table_regex(key.pattern, value.pattern)
    table = ts.match(regex, lambda *texts: _read_body(
        key, value, findall, *texts, open_tok.line, open_tok.col))
    if table is not None:
        return table
    ts.expect_sym("{")
    entries: dict = {}
    default = None
    while not ts.at_sym("}"):
        tok = ts.peek()
        if ts.at_word("default"):
            ts.next()
            ts.expect_sym("=")
            if default is not None:
                raise ParseError("duplicate default", tok.line, tok.col)
            default = value.read()
            continue
        k = key.read()
        if k in entries:
            raise ParseError("duplicate entry", tok.line, tok.col)
        ts.expect_sym("=")
        entries[k] = value.read()
    ts.expect_sym("}")
    return Table(entries, default, open_tok.line, open_tok.col)


def _read_body(key: Reader, value: Reader, findall, entries, default, line=None, col=None):
    """The table of the texts of its entries and default, read whole; None
    when a text does not resolve or a key is listed twice."""
    pairs = findall(entries)
    keys, values = zip(*pairs) if pairs else ((), ())
    table = dict(zip(map(key.resolve, keys), map(value.resolve, values)))
    if len(table) < len(pairs) or None in table or None in table.values():
        return None
    if default is not None and (default := value.resolve(default)) is None:
        return None
    return Table(table, default, line, col)


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
            ts.error(f"coordinate {quoted(ref)} listed twice", tok)
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
            ts.error(f"{what} {quoted(tok.value)} declared twice{where}", tok)
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
    an index tuple over the ascending positions of `on`, has a `Measure`
    on the document's schema."""

    on: frozenset
    rows: tuple  # ((row, Measure), ...)


@dataclass
class SpaceDocument:
    """Parsed form of a .cfs file.

    The measure and every kernel-row body are `Measure`s on the document's
    schema, shared with the space that `to_space` builds or `doc_from_space`
    reads; their rows are outcomes, label-index tuples in schema order.
    Labels appear only in the text that `parse_space` reads and
    `serialize_space` writes.
    """

    name: str
    worlds: tuple[WorldDecl, ...]
    measure: Measure | None
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
        """The space of the document.  Its measure must be a `Measure` on
        its schema; the checked `Kernel` and `Mechanism` constructors check
        the kernels, as for any caller, so a document built by hand is
        checked as every measure and kernel is."""
        P = self.measure
        if P is None:
            raise ParseError("document has no measure block; cannot build a space")
        if not isinstance(P, Measure) or P.schema != self.schema():
            raise ParseError("document measure is not a Measure on its schema")
        schema = P.schema  # a parsed document's rows share it: each check is by identity
        try:
            kernels = [Kernel(schema, decl.on, dict(decl.rows)) for decl in self.kernels]
            mech = Mechanism(schema, P, kernels) if kernels else None
        except ValueError as exc:
            raise ParseError(str(exc)) from None
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
            ts.error(f"world {quoted(wname)} declared twice", wtok)
        if ts.at_word("mirror"):
            ts.next()
            ttok = ts.expect_word()
            target = ttok.value
            if not any(w.name == target for w in worlds):
                ts.error(f"world {quoted(wname)} mirrors undeclared world {quoted(target)}", ttok)
            worlds.append(WorldDecl(wname, None, target))
            continue
        ts.expect_sym("{")
        comps, _ = parse_declarations(ts, "component", "component",
                                      where=f" in world {quoted(wname)}")
        if not comps:
            ts.error(f"world {quoted(wname)} declares no components")
        ts.expect_sym("}")
        worlds.append(WorldDecl(wname, tuple(comps), None))
    if not worlds:
        ts.error("document declares no worlds")

    schema = SpaceDocument(name, tuple(worlds), None).schema()

    # Every table of the document is a measure over the whole outcome
    # space, keyed by outcome.
    index = [(c.key, m) for c, m in zip(schema.coords, schema.label_maps)]
    outcome, rational = assignment_key(ts, ts.coord_ref, index, "coordinate"), ts.rational
    outcomes = schema.n_outcomes, lambda: schema.rows(schema.all_on)

    regex, entries = _table_regex(outcome.pattern, rational.pattern)
    rows_of = re.compile(rf"({_SPACE}given{_SPACE}({_PARENS}){regex.pattern})", re.ASCII).findall

    def measure_of(table: Table) -> Measure:
        return Measure._of(schema, schema.all_on, table.law(*outcomes, "measure", "outcomes"))

    measure = None
    if ts.at_word("measure"):
        ts.next()
        measure = measure_of(parse_table(ts, outcome, rational))

    blocks: dict = {}  # {on: {row: Measure}}

    def given_of(on) -> Reader:
        return assignment_key(ts, ts.coord_ref, [index[p] for p in sorted(on)], "kernel coordinate")

    def read_kernel(coords, block):  # None leaves every error to the token loop below
        refs, texts, rows = coords.replace(",", " ").split(), rows_of(block), {}
        if sum(map(len, map(itemgetter(0), texts))) != len(block):  # rows back to back
            return None
        try:
            given = given_of(on := schema.positions(refs))
            for _, row, body, default in texts:  # findall gives '' for a row with no default
                row, table = given.resolve(row), _read_body(outcome, rational, entries, body,
                                                            default or None)
                if row is None or table is None or row in rows:
                    return None
                rows[row] = measure_of(table)
        except (SchemaError, ParseError):
            return None
        if rows and on not in blocks and len(set(refs)) == len(refs):
            blocks[on] = rows
            return True

    while ts.at_word("kernel"):
        if ts.match(_KERNEL, read_kernel):
            continue
        ts.next()
        ts.expect_word("on")
        tok = ts.peek()
        try:
            on = schema.positions(parse_coordset(ts))
        except SchemaError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
        if on in blocks:
            raise ParseError("duplicate kernel for this coordinate set", tok.line, tok.col)
        given, rows = given_of(on), blocks.setdefault(on, {})
        ts.expect_sym("{")
        while ts.at_word("given"):
            ts.next()
            tok = ts.peek()
            row = given.read()
            if row in rows:
                raise ParseError("duplicate 'given' row", tok.line, tok.col)
            rows[row] = measure_of(parse_table(ts, outcome, rational))
        if not rows:
            ts.error("kernel declares no 'given' rows")
        ts.expect_sym("}")

    mirror = None
    if ts.at_word("mirror"):
        ts.next()
        a, b = ts.expect_word(), ts.expect_word()
        for tok in (a, b):
            if not any(d.name == tok.value for d in worlds):
                ts.error(f"mirror references undeclared world {quoted(tok.value)}", tok)
        mirror = (a.value, b.value)

    tok = ts.peek()
    if tok.kind != "eof":
        ts.error(f"unexpected {quoted(tok.value)} after the document")

    kernels = tuple(KernelDecl(on, tuple(rows.items())) for on, rows in blocks.items())
    return SpaceDocument(name, tuple(worlds), measure, kernels, mirror)


# -- serialization ------------------------------------------------------------


def serialize_space(doc: SpaceDocument) -> str:
    """Render a document canonically; parse_space(serialize_space(doc)) == doc.

    Entries appear in canonical outcome order as reduced fractions; a table
    with fewer entries than outcomes ends in 'default = 0'.
    """
    schema = doc.schema()
    texts = schema.label_texts
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
        return ", ".join([texts[p][v] for p, v in zip(positions, row)])

    # '(W.c=l, ...) = ' of an outcome and the text of a weight, each made once
    spell = functools.cache(lambda outcome: f"({assignment(schema.all_on, outcome)}) = ")
    weight = functools.cache(fraction_text)  # a compiled file repeats few weights

    def emit_table(table: Measure, indent: str):
        d = table._d
        lines = [f"{indent}{spell(outcome)}{weight(n, d)}"
                 for outcome, n in sorted(table._n.items())]
        if len(table) < schema.n_outcomes:
            lines.append(f"{indent}default = 0")
        return lines

    if doc.measure is not None:
        out.append("measure {")
        out.extend(emit_table(doc.measure, "  "))
        out.append("}")
    for kernel in doc.kernels:
        on = sorted(kernel.on)
        out.append(f"kernel on {schema.describe_set(on)} {{")
        for row, body in kernel.rows:
            out.append(f"  given ({assignment(on, row)}) {{")
            out.extend(emit_table(body, "    "))
            out.append("  }")
        out.append("}")
    if doc.mirror is not None:
        out.append(f"mirror {doc.mirror[0]} {doc.mirror[1]}")
    return "\n".join(out) + "\n"


def fraction_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) of ints n >= 0, d > 0 with one gcd: a weight as written."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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
            kernels.append(KernelDecl(k.on, tuple(sorted(k.rows.items()))))
    return SpaceDocument(name, tuple(worlds), space.P, tuple(kernels), None)
