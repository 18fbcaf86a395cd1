"""Query scripts: parsing and sequential execution.

A script is a statement list.  CONDITION accumulates a conditioning event
and INTERVENE replaces the ambient space, so later statements see both;
PROB, INDEP and SYNC evaluate under the accumulated conditioning, while
EFFECT, SOURCE and CHECK are mechanism-level statements that consult the
ambient space directly (EFFECT takes its conditioning from its own GIVEN
clause).  Each result statement emits one deterministic transcript line
with the reduced fraction and, for probabilities, a six-place decimal.
Events (expressions, LET bindings, the held CONDITION) are `space.Event`s
on the coordinates they name, so no statement lists the outcome space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from .measure import (
    Margin,
    condition_event,
    independent,
    independent_sigmas,
    synchronized,
)
from .mechanism import (
    CfSpace,
    check_axioms,
    classify_effect,
    conditional_active_effect,
    global_source,
    intervene,
)
from .parser import (
    ParseError,
    Reader,
    Table,
    TokenStream,
    key_reader,
    parse_coordset,
    parse_outcome_tuple,
    parse_table,
    product_domain,
)
from .space import Event, SchemaError, cylinder, quoted
from .worlds import check_cross_world


# -- expression AST -----------------------------------------------------------


@dataclass(frozen=True)
class AtomExpr:
    coord: str
    label: str


@dataclass(frozen=True)
class NameExpr:
    name: str


@dataclass(frozen=True)
class NotExpr:
    inner: object


@dataclass(frozen=True)
class AndExpr:
    items: tuple  # two or more


@dataclass(frozen=True)
class OrExpr:
    items: tuple  # two or more


@dataclass(frozen=True)
class FullExpr:
    """The full outcome space, written ()."""


def eval_expr(expr, schema, bindings) -> Event:
    if isinstance(expr, FullExpr):
        return cylinder(schema, {})
    if isinstance(expr, AtomExpr):
        return cylinder(schema, {expr.coord: expr.label})
    if isinstance(expr, NameExpr):
        try:
            return bindings[expr.name]
        except KeyError:
            raise ParseError(f"unbound event name {quoted(expr.name)}") from None
    if isinstance(expr, NotExpr):
        return eval_expr(expr.inner, schema, bindings).complement()
    if isinstance(expr, (AndExpr, OrExpr)):
        fold = Event.__and__ if isinstance(expr, AndExpr) else Event.__or__
        return functools.reduce(fold, (eval_expr(item, schema, bindings) for item in expr.items))
    raise AssertionError(f"unknown expression node {expr!r}")


# -- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class LetStmt:
    name: str
    expr: object
    src: str


@dataclass(frozen=True)
class ConditionStmt:
    expr: object
    src: str


@dataclass(frozen=True)
class InterveneStmt:
    coords: tuple[str, ...]
    dist: object
    src: str


@dataclass(frozen=True)
class ProbStmt:
    expr: object
    src: str


@dataclass(frozen=True)
class EffectStmt:
    coords: tuple[str, ...]
    expr: object
    given: object | None
    src: str


@dataclass(frozen=True)
class IndepStmt:
    a: object  # expression or coordinate tuple
    b: object
    given: object | None
    src: str


@dataclass(frozen=True)
class SyncStmt:
    s1: tuple[str, ...]
    s2: tuple[str, ...]
    src: str


@dataclass(frozen=True)
class SourceStmt:
    coords: tuple[str, ...]
    src: str


@dataclass(frozen=True)
class CheckStmt:
    src: str


@dataclass(frozen=True)
class PointDist:
    assignment: tuple  # ((coord key, label), ...)


@dataclass(frozen=True)
class UniformDist:
    pass


@dataclass(frozen=True)
class QueryScript:
    statements: tuple
    at: tuple = ()  # (line, col) of each statement's first token


_STATEMENT_WORDS = {
    "LET", "CONDITION", "INTERVENE", "PROB", "EFFECT", "INDEP",
    "SYNC", "SOURCE", "CHECK",
}

# Deepest nesting of '(' and '!' an event expression may use.  The parser
# and eval_expr recurse once per level, so this keeps both far from the
# interpreter's recursion limit.
MAX_NESTING = 100


def _parse_primary(ts: TokenStream, depth: int, bound):
    if (ts.at_sym("(") or ts.at_sym("!")) and depth == MAX_NESTING:
        ts.error(f"event expression nests deeper than {MAX_NESTING} levels")
    if ts.at_sym("("):
        ts.next()
        if ts.at_sym(")"):
            ts.next()
            return FullExpr()
        inner = _parse_or(ts, depth + 1, bound)
        if not ts.at_sym(")"):
            ts.error("expected ')'")
        ts.next()
        return inner
    if ts.at_sym("!"):
        ts.next()
        return NotExpr(_parse_primary(ts, depth + 1, bound))
    tok = ts.peek()
    if tok.kind == "word":
        # Either a coordinate atom W.c=l or a name bound by an earlier LET.
        ts.next()
        if not ts.at_sym("."):
            if tok.value not in bound:
                ts.error(f"unbound event name {quoted(tok.value)}", tok)
            return NameExpr(tok.value)
        coord = ts.coord_ref(tok.value)
        ts.expect_sym("=")
        label = ts.label()
        return AtomExpr(coord, label)
    ts.error(f"expected an event expression, found {quoted(tok.value)}")


def _parse_and(ts: TokenStream, depth: int, bound):
    items = [_parse_primary(ts, depth, bound)]
    while ts.at_sym("&"):
        ts.next()
        items.append(_parse_primary(ts, depth, bound))
    return items[0] if len(items) == 1 else AndExpr(tuple(items))


def _parse_or(ts: TokenStream, depth: int, bound):
    items = [_parse_and(ts, depth, bound)]
    while ts.at_sym("|"):
        ts.next()
        items.append(_parse_and(ts, depth, bound))
    return items[0] if len(items) == 1 else OrExpr(tuple(items))


def _parse_expr(ts: TokenStream, bound):
    return _parse_or(ts, 0, bound)


def _assignment(ts: TokenStream) -> Reader:
    """The reader of a '(W.c=l, ...)' assignment, as its sorted pairs."""

    def resolve(pairs) -> tuple | None:
        assignment = dict(pairs)
        if len(assignment) == len(pairs) and all("." in name for name in assignment):
            return tuple(sorted(assignment.items()))
        return None

    return key_reader(lambda: tuple(sorted(parse_outcome_tuple(ts, ts.coord_ref).items())), resolve)


def _parse_dist(ts: TokenStream):
    if ts.at_word("point"):
        tok = ts.next()
        assignment = _assignment(ts).read()
        if not assignment:
            ts.error("point() needs at least one coordinate assignment", tok)
        return PointDist(assignment)
    if ts.at_word("uniform"):
        ts.next()
        return UniformDist()
    if ts.at_sym("{"):
        # Keyed by the sorted assignment; resolved against the space's
        # schema when the statement runs.
        return parse_table(ts, _assignment(ts), ts.rational)
    ts.error("expected point(...), uniform, or a weight table")


def parse_query(text: str) -> QueryScript:
    ts = TokenStream(text)
    statements, at = [], []
    bound = set()  # names of the LETs so far: statements run in order
    while True:
        while ts.at_sym(";"):
            ts.next()
        tok = ts.peek()
        if tok.kind == "eof":
            break
        if tok.kind != "word" or tok.value not in _STATEMENT_WORDS:
            ts.error(f"expected a statement keyword, found {quoted(tok.value)}")
        start = tok.pos
        at.append((tok.line, tok.col))
        ts.next()
        if tok.value == "LET":
            name_tok = ts.expect_word()
            ts.expect_sym("=")
            ts.expect_word("EVENT")
            ts.expect_sym("(")
            if ts.at_sym(")"):
                expr = FullExpr()
            else:
                expr = _parse_expr(ts, bound)
            ts.expect_sym(")")
            stmt = LetStmt(name_tok.value, expr, _src(ts, start))
            bound.add(name_tok.value)
        elif tok.value == "CONDITION":
            stmt = ConditionStmt(_parse_expr(ts, bound), _src(ts, start))
        elif tok.value == "INTERVENE":
            coords = parse_coordset(ts)
            ts.expect_word("WITH")
            dist = _parse_dist(ts)
            stmt = InterveneStmt(coords, dist, _src(ts, start))
        elif tok.value == "PROB":
            stmt = ProbStmt(_parse_expr(ts, bound), _src(ts, start))
        elif tok.value == "EFFECT":
            coords = parse_coordset(ts)
            ts.expect_word("ON")
            expr = _parse_expr(ts, bound)
            given = None
            if ts.at_word("GIVEN"):
                ts.next()
                given = _parse_expr(ts, bound)
            stmt = EffectStmt(coords, expr, given, _src(ts, start))
        elif tok.value == "INDEP":
            a = parse_coordset(ts) if ts.at_sym("{") else _parse_expr(ts, bound)
            b_tok = ts.peek()
            b = parse_coordset(ts) if ts.at_sym("{") else _parse_expr(ts, bound)
            if isinstance(a, tuple) != isinstance(b, tuple):
                ts.error("INDEP operands must both be events or both coordinate sets", b_tok)
            given = None
            if ts.at_word("GIVEN"):
                ts.next()
                given = _parse_expr(ts, bound)
            stmt = IndepStmt(a, b, given, _src(ts, start))
        elif tok.value == "SYNC":
            s1 = parse_coordset(ts)
            s2 = parse_coordset(ts)
            stmt = SyncStmt(s1, s2, _src(ts, start))
        elif tok.value == "SOURCE":
            stmt = SourceStmt(parse_coordset(ts), _src(ts, start))
        else:  # CHECK
            stmt = CheckStmt(_src(ts, start))
        statements.append(stmt)
    return QueryScript(tuple(statements), tuple(at))


def _src(ts: TokenStream, start: int) -> str:
    end = ts.peek().pos
    raw = ts.text[start:end]
    raw = "\n".join(line.split("#", 1)[0] for line in raw.split("\n"))
    return " ".join(raw.split())


# -- rendering ----------------------------------------------------------------


def fmt_fraction(q: Fraction) -> str:
    return str(q)


def fmt_decimal(q: Fraction) -> str:
    """Round-half-even rendering to six decimals, deterministic across platforms."""
    n, r = divmod(q.numerator * 10 ** 6, q.denominator)
    if 2 * r > q.denominator or (2 * r == q.denominator and n % 2):
        n += 1
    return f"{n // 10 ** 6}.{n % 10 ** 6:06d}"


def fmt_value(q: Fraction) -> str:
    return f"{fmt_fraction(q)} ~ {fmt_decimal(q)}"


# -- execution ----------------------------------------------------------------


class QueryRun:
    def __init__(self, lines, exit_code):
        self.lines = list(lines)
        self.exit_code = exit_code

    @property
    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def run_script(space: CfSpace, script: QueryScript) -> QueryRun:
    """Execute a script against a space; raises on undefined conditioning
    or missing kernels so the CLI can map them to exit codes, and a schema
    error (an unknown coordinate, say) as a ParseError at its statement."""
    schema = space.schema
    bindings: dict[str, Event] = {}
    cond: Event | None = None  # no CONDITION yet
    current = space
    held = space.P  # current.P | cond, or None once an INTERVENE makes it stale
    lines: list[str] = []
    exit_code = 0

    def conditioned():
        nonlocal held
        if held is None:
            held = current.P if cond is None else condition_event(current.P, cond)
        return held

    try:
        for stmt in script.statements:
            if isinstance(stmt, LetStmt):
                bindings[stmt.name] = eval_expr(stmt.expr, schema, bindings)
            elif isinstance(stmt, ConditionStmt):
                event = eval_expr(stmt.expr, schema, bindings)
                held = condition_event(conditioned(), event)  # raises on a null event
                cond = event if cond is None else cond & event
            elif isinstance(stmt, InterveneStmt):
                U = schema.positions(stmt.coords)
                current = intervene(current, U, _build_margin(schema, U, stmt.dist))
                held = None
            elif isinstance(stmt, ProbStmt):
                value = conditioned().prob(eval_expr(stmt.expr, schema, bindings))
                lines.append(f"{stmt.src} = {fmt_value(value)}")
            elif isinstance(stmt, EffectStmt):
                lines.append(_run_effect(current, schema, bindings, stmt))
            elif isinstance(stmt, IndepStmt):
                base = conditioned()
                if stmt.given is not None:
                    base = condition_event(base, eval_expr(stmt.given, schema, bindings))
                if isinstance(stmt.a, tuple):
                    verdict = independent_sigmas(
                        base, schema.positions(stmt.a), schema.positions(stmt.b))
                else:
                    verdict = independent(
                        base,
                        eval_expr(stmt.a, schema, bindings),
                        eval_expr(stmt.b, schema, bindings))
                lines.append(f"{stmt.src} = {str(verdict).lower()}")
            elif isinstance(stmt, SyncStmt):
                verdict = synchronized(
                    conditioned(), schema.positions(stmt.s1), schema.positions(stmt.s2))
                lines.append(f"{stmt.src} = {str(verdict).lower()}")
            elif isinstance(stmt, SourceStmt):
                verdict = global_source(current, schema.positions(stmt.coords))
                lines.append(f"{stmt.src} = {str(verdict).lower()}")
            elif isinstance(stmt, CheckStmt):
                report_lines, bad = render_check(current)
                lines.extend(report_lines)
                if bad:
                    exit_code = 1
            else:
                raise AssertionError(f"unknown statement {stmt!r}")
    except SchemaError as exc:  # a coordinate or label the statement names
        if not script.at:
            raise
        line, col = script.at[next(i for i, s in enumerate(script.statements) if s is stmt)]
        raise ParseError(str(exc), line, col) from None
    return QueryRun(lines, exit_code)


def _build_margin(schema, U, dist) -> Margin:
    if isinstance(dist, PointDist):
        assignment = dict(dist.assignment)
        margin = Margin.point(schema, assignment)
        if set(margin.on) != set(U):
            raise SchemaError(
                "point() must assign exactly the intervened coordinates")
        return margin
    if isinstance(dist, UniformDist):
        return Margin.uniform(schema, U)
    assert isinstance(dist, Table)
    pos = sorted(U)
    rows = {}
    for assignment, q in dist.entries.items():
        assignment = dict(assignment)
        if schema.positions(assignment) != U:
            raise SchemaError(
                "weight table rows must assign exactly the intervened coordinates")
        fixed = schema.assignment(assignment)
        rows[tuple(fixed[p] for p in pos)] = q
    nums = replace(dist, entries=rows).law(
        *product_domain([range(len(schema.coords[p].labels)) for p in pos]),
        "weight table", "rows")
    return Margin._of(schema, tuple(pos), nums)


def _run_effect(current, schema, bindings, stmt) -> str:
    U = schema.positions(stmt.coords)
    A = eval_expr(stmt.expr, schema, bindings)
    if stmt.given is not None:
        G = eval_expr(stmt.given, schema, bindings)
        verdict = conditional_active_effect(current, U, A, G)
        if verdict.tag == "active":
            row, value = verdict.witness
            return (f"{stmt.src} = active witness {schema.describe_row(U, row)} "
                    f"value {fmt_value(value)} baseline {fmt_value(verdict.baseline)}")
        if verdict.tag == "inactive":
            return f"{stmt.src} = inactive baseline {fmt_value(verdict.baseline)}"
        return (f"{stmt.src} = undetermined missing rows "
                f"{', '.join(schema.describe_row(U, r) for r in verdict.missing_rows)}")
    verdict = classify_effect(current, U, A)
    if verdict.tag == "active":
        w = verdict.witness
        return (f"{stmt.src} = active witness {schema.describe_row(w.S, w.row)} "
                f"value {fmt_value(w.value)} baseline {fmt_value(w.reference)}")
    if verdict.tag == "dormant":
        w = verdict.witness
        return (f"{stmt.src} = dormant witness {schema.describe_set(w.S)}"
                f"{schema.describe_row(w.S, w.row)} value {fmt_value(w.value)} "
                f"against {schema.describe_set(w.against)} value {fmt_value(w.reference)}")
    if verdict.tag == "no_effect":
        return f"{stmt.src} = no-effect"
    return (f"{stmt.src} = undetermined missing "
            f"{'; '.join(schema.describe_set(S) for S in verdict.missing)}")


def render_check(space: CfSpace):
    """Transcript lines for an axiom and cross-world report; True if violated."""
    axioms = check_axioms(space)
    cross = check_cross_world(space)
    bad = not axioms.ok or not cross.ok
    lines = []
    if bad:
        lines.append(f"CHECK = {len(axioms.violations) + len(cross.violations)} violation(s)")
    else:
        lines.append("CHECK = ok")
    schema = space.schema
    for v in axioms.violations:
        lines.append(
            f"  violation {v.axiom} on {schema.describe_set(v.S)} "
            f"given {schema.describe_row(v.S, v.row)}: {v.detail}")
    for v in cross.violations:
        lines.append(
            f"  violation no-cross-world-effect world {v.world} "
            f"kernel {schema.describe_set(v.S)} given {schema.describe_row(v.S, v.row)}: "
            f"{fmt_fraction(v.value)} != {fmt_fraction(v.reference)}")
    for u in cross.uncheckable:
        where = "" if u.row is None else f" given {schema.describe_row(u.S, u.row)}"
        lines.append(
            f"  uncheckable world {u.world} kernel {schema.describe_set(u.S)}{where} "
            f"needs {schema.describe_set(u.needs)}")
    return lines, bad
