"""Model file formats for the compilers.

Structural models (.scm) declare noise variables with a joint law,
endogenous variables, and one function table per endogenous variable:

    scm chain
    noise Ux { 0 1 }
    noise Uy { 0 1 }
    dist { default = 1/4 }
    var X { 0 1 }
    var Y { 0 1 }
    fn X (Ux) {
      (Ux=0) = 0
      (Ux=1) = 1
    }
    fn Y (X, Uy) {
      (X=0, Uy=0) = 0
      (X=0, Uy=1) = 1
      (X=1, Uy=0) = 1
      (X=1, Uy=1) = 0
    }
    coupling {                      # optional; needed for backtracking
      ((Ux=0, Uy=0), (Ux=0, Uy=0)) = 1/4
      default = 0
    }

Potential-outcome models (.po) declare units with a law, variables, the
observed functions and the potential-outcome functions:

    po toy
    units { always never complier defier }
    dist { default = 1/4 }
    var X { 0 1 }
    var Y { P F }
    observe X { always = 1  never = 0  complier = 1  defier = 0 }
    observe Y { ... }
    potential Y given (X=1) { always = P ... }

Every '{ key = value ... }' block, the coupling too, is a table that
`parser.parse_table` reads whole or by tokens: laws hold weights, function
tables hold labels, and any table may close with a default for the rest.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .compilers import POModel, SCMModel, StructuralEq
from .parser import (
    ParseError,
    TokenStream,
    assignment_key,
    label_reader,
    pair_reader,
    parse_declarations,
    parse_outcome_tuple,
    parse_table,
    product_domain,
)
from .space import quoted


def _weights(nums: dict) -> dict:
    """An integer table, as `Table.law` gives, in the Fractions that models take."""
    d = sum(nums.values())
    return {key: Fraction(n, d) for key, n in nums.items()}


def parse_scm(text: str):
    """Parse an .scm file; returns (model, coupling or None, name)."""
    ts = TokenStream(text)
    ts.expect_word("scm")
    name = ts.name()
    noise, _ = parse_declarations(ts, "noise", "noise variable")
    if not noise:
        ts.error("model declares no noise variables")
    if not ts.at_word("dist"):
        ts.error("expected the noise 'dist' block")
    ts.next()
    # A key of a model table is the tuple of its labels.
    noise_row = assignment_key(ts, ts.name, [(n, dict(zip(labels, labels))) for n, labels in noise],
                               "noise variable")
    n_rows, noise_rows = product_domain([labels for _, labels in noise])
    noise_dist = _weights(parse_table(ts, noise_row, ts.rational).law(
        n_rows, noise_rows, "noise law", "noise rows"))

    noise_names = {n for n, _ in noise}
    endo, declared = parse_declarations(ts, "var", "variable", noise_names)
    if not endo:
        ts.error("model declares no endogenous variables")

    endo_names = {v for v, _ in endo}
    domains = {v: dict(zip(labels, labels)) for v, labels in noise + endo}
    eqs = {}
    while ts.at_word("fn"):
        ts.next()
        tok = ts.peek()
        target = ts.name()
        if target not in endo_names:
            raise ParseError(f"fn target {quoted(target)} is not a variable", tok.line, tok.col)
        if target in eqs:
            raise ParseError(f"duplicate fn for {quoted(target)}", tok.line, tok.col)
        ts.expect_sym("(")
        inputs = []
        while not ts.at_sym(")"):
            inputs.append(ts.name())
            if ts.at_sym(","):
                ts.next()
        ts.expect_sym(")")
        parents = tuple(i for i in inputs if i in endo_names)
        noises = tuple(i for i in inputs if i in noise_names)
        if len(parents) + len(noises) != len(inputs):
            unknown = [i for i in inputs if i not in endo_names | noise_names]
            raise ParseError(f"unknown fn inputs {unknown}", tok.line, tok.col)
        if len(set(inputs)) != len(inputs):
            raise ParseError("repeated fn input", tok.line, tok.col)
        args = [(i, domains[i]) for i in parents + noises]
        table = parse_table(
            ts, assignment_key(ts, ts.name, args, "fn input"),
            label_reader(ts, domains[target], f"label of {target}"),
        ).fill(*product_domain([labels for _, labels in args]),
               f"fn table for {target}", "input rows")
        eqs[target] = StructuralEq(target, parents, noises, table)

    coupling = None
    if ts.at_word("coupling"):
        ts.next()

        def noise_pair():
            ts.expect_sym("(")
            u = noise_row.read()
            ts.expect_sym(",")
            u_star = noise_row.read()
            ts.expect_sym(")")
            return u, u_star

        coupling = _weights(parse_table(ts, pair_reader(noise_pair, noise_row), ts.rational).law(
            n_rows ** 2, lambda: itertools.product(noise_rows(), repeat=2), "coupling",
            "noise row pairs"))

    tok = ts.peek()
    if tok.kind != "eof":
        ts.error(f"unexpected {quoted(tok.value)} after the model")
    for tok, (vname, _) in zip(declared, endo):
        if vname not in eqs:
            ts.error(f"no structural equation for {vname}", tok)
    try:
        model = SCMModel(noise, noise_dist, endo, eqs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return model, coupling, name


def parse_po(text: str):
    """Parse a .po file; returns (model, name)."""
    ts = TokenStream(text)
    ts.expect_word("po")
    name = ts.name()
    ts.expect_word("units")
    units = ts.label_set()
    ts.expect_word("dist")
    unit = label_reader(ts, units, "unit")
    unit_dist = _weights(parse_table(ts, unit, ts.rational).law(
        len(units), lambda: units, "unit law", "units"))

    endo, declared = parse_declarations(ts, "var", "variable")
    if not endo:
        ts.error("model declares no variables")
    domains = dict(endo)

    def unit_fn(what, var):
        return parse_table(ts, unit, label_reader(ts, domains[var], f"label of {var}")).fill(
            len(units), lambda: units, f"{what} {var}", "units")

    observed = {}
    potentials = {}
    while ts.at_word("observe") or ts.at_word("potential"):
        kind = ts.next().value
        tok = ts.peek()
        var = ts.name()
        if var not in domains:
            raise ParseError(f"unknown variable {quoted(var)}", tok.line, tok.col)
        if kind == "observe":
            if var in observed:
                raise ParseError(f"duplicate observe block for {quoted(var)}", tok.line, tok.col)
            observed[var] = unit_fn(kind, var)
        else:
            ts.expect_word("given")
            assignment = parse_outcome_tuple(ts, ts.name, domains)
            if not assignment:
                raise ParseError("potential outcome needs a treatment assignment",
                                 tok.line, tok.col)
            key = (var, tuple(sorted(assignment.items())))
            if key in potentials:
                raise ParseError("duplicate potential-outcome block", tok.line, tok.col)
            potentials[key] = unit_fn(kind, var)

    tok = ts.peek()
    if tok.kind != "eof":
        ts.error(f"unexpected {quoted(tok.value)} after the model")
    for tok, (vname, _) in zip(declared, endo):
        if vname not in observed:
            ts.error(f"no observed function for {vname}", tok)
    try:
        model = POModel(units, unit_dist, endo, observed, potentials)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return model, name
