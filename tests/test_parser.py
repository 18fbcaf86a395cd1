import dataclasses
import hashlib
import io
import re
from fractions import Fraction

import pytest

from cfspaces import (
    Coordinate,
    Measure,
    ParseError,
    SpaceSchema,
    doc_from_space,
    parse_po,
    parse_scm,
    parse_space,
    serialize_space,
)
from cfspaces import parser
from cfspaces.cli import main
from cfspaces.parser import KernelDecl
from cfspaces.repro import FIXTURES, fixture_text

from conftest import PARENTS, chain_scm, shaped_scm
from randspaces import random_cf_space

MINI = """\
space mini
world F {
  component c { a b }
}
world CF mirror F
measure {
  (F.c=a, CF.c=a) = 0.32
  (F.c=a, CF.c=b) = 0.18
  (F.c=b, CF.c=a) = 1/4
  default = 1/4
}
"""

# 2^16 outcomes, three of them with mass, in canonical serialized form.
WIDE = "".join(
    ["space wide\nworld W {\n"]
    + [f"  component c{i} {{ 0 1 }}\n" for i in range(16)]
    + ["}\nmeasure {\n"]
    + ["  (" + ", ".join(f"W.c{i}={lab}" for i, lab in enumerate(labels)) + f") = {q}\n"
       for labels, q in (("0" * 16, "1/2"), ("0" * 15 + "1", "1/4"), ("1" * 16, "1/4"))]
    + ["  default = 0\n}\n"])


class TestParseSpace:
    def test_mini_document(self):
        doc = parse_space(MINI)
        assert doc.name == "mini"
        assert doc.worlds[1].mirror_of == "F"
        assert type(doc.measure) is Measure and doc.measure.schema == doc.schema()
        assert doc.measure.as_dict() == {(0, 0): Fraction(8, 25), (0, 1): Fraction(9, 50),
                                         (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 4)}
        # 0.32, 0.18, 1/4 and the default 1/4 over their lcm, 100
        assert doc.measure._n == {(0, 0): 32, (0, 1): 18, (1, 0): 25, (1, 1): 25}

    def test_decimals_parse_exactly(self):
        doc = parse_space(MINI)
        assert doc.measure.weight((0, 1)) == Fraction(9, 50)

    def test_uniform_via_default_only(self):
        text = MINI.replace(
            "  (F.c=a, CF.c=a) = 0.32\n  (F.c=a, CF.c=b) = 0.18\n"
            "  (F.c=b, CF.c=a) = 1/4\n  default = 1/4\n",
            "  default = 1/4\n")
        space = parse_space(text).to_space()
        assert all(q == Fraction(1, 4) for _, q in space.P.items())

    def test_fixtures_parse_and_sum(self):
        for name in FIXTURES:
            space = parse_space(fixture_text(name)).to_space()
            assert space.P.prob(space.schema.outcome_set()) == 1

    def test_bad_sum_reports_shortfall(self):
        text = MINI.replace("default = 1/4", "default = 6/25")
        with pytest.raises(ParseError, match=r"short by 1/100"):
            parse_space(text)

    def test_unknown_coordinate(self):
        text = MINI.replace("(F.c=a, CF.c=a)", "(F.z=a, CF.c=a)")
        with pytest.raises(ParseError, match="unknown coordinate"):
            parse_space(text)

    def test_unknown_label(self):
        text = MINI.replace("(F.c=a, CF.c=a) = 0.32", "(F.c=q, CF.c=a) = 0.32")
        with pytest.raises(ParseError, match="unknown label"):
            parse_space(text)

    def test_incomplete_coverage_without_default(self):
        text = MINI.replace("  default = 1/4\n", "")
        with pytest.raises(ParseError, match="covers 3 of 4"):
            parse_space(text)

    def test_duplicate_entry(self):
        text = MINI.replace("(F.c=a, CF.c=b) = 0.18",
                            "(F.c=a, CF.c=a) = 0.18")
        with pytest.raises(ParseError, match="duplicate"):
            parse_space(text)

    def test_errors_carry_position(self):
        try:
            parse_space("space x\nworld W {\n  component c { a a }\n}\n")
        except ParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected a parse error")

    def test_lexical_error(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_space("space x $")

    def test_sparse_table_keeps_nonzero_entries_only(self):
        doc = parse_space(WIDE)
        assert doc.measure.as_dict() == {
            (0,) * 16: Fraction(1, 2), (0,) * 15 + (1,): Fraction(1, 4), (1,) * 16: Fraction(1, 4)}
        assert len(doc.measure) == 3

    def test_kernel_rows_resolve(self):
        space = parse_space(fixture_text("exam")).to_space()
        s = space.schema
        k = space.mech.get(s.positions(["CF.class"]))
        assert k.rows[(0,)].weight(s.outcome_of(("Y", "P", "Y", "P"))) == Fraction(39, 100)


class TestRoundTrip:
    def test_fixtures(self):
        for name in FIXTURES:
            doc = parse_space(fixture_text(name))
            assert parse_space(serialize_space(doc)) == doc

    def test_random_documents(self):
        for seed in range(15):
            space = random_cf_space(seed, n_worlds=2)
            doc = doc_from_space(space, f"rand{seed}")
            text = serialize_space(doc)
            again = parse_space(text)
            assert again == doc
            assert serialize_space(again) == text

    def test_wide_sparse_document_is_byte_identical(self):
        doc = parse_space(WIDE)
        assert serialize_space(doc) == WIDE
        assert parse_space(WIDE) == doc

    def test_explicit_zero_entries_fold_into_default(self):
        text = MINI.replace("(F.c=b, CF.c=a) = 1/4\n  default = 1/4\n",
                            "(F.c=b, CF.c=a) = 1/2\n  (F.c=b, CF.c=b) = 0\n")
        doc = parse_space(text)
        assert len(doc.measure) == 3
        out = serialize_space(doc)
        assert out.endswith("  (F.c=b, CF.c=a) = 1/2\n  default = 0\n}\n")
        assert parse_space(out) == doc

    def test_mirror_world_round_trip(self):
        doc = parse_space(MINI)
        assert parse_space(serialize_space(doc)) == doc

    def test_document_to_space_to_document(self):
        doc = parse_space(fixture_text("dormant"))
        space = doc.to_space()
        rebuilt = doc_from_space(space, "dormant")
        # mirrors and declaration sugar aside, the resolved content agrees
        assert rebuilt.measure is space.P and rebuilt.measure == doc.measure
        assert rebuilt.kernels == doc.kernels


# sha256 of `cfspaces compile scm` of shaped_scm(n, shape), recorded when
# the writer formatted every entry as a Fraction: the integer writer must
# write the same bytes.
COMPILED_SHA256 = {
    ("chain", 2): "e66ab68662ef1018005f66ab89a1718494827290fbe07862ad9e25ab173b71aa",
    ("chain", 3): "62771736cdd9d0f91106bbb3c892f1f28b6535abc8c15fcfd92833953ca38a4f",
    ("chain", 4): "d68e5d75bf3198bf9a0d1fa6c299b9e278fd84fa5faa5ebe49ff1af79103d45a",
    ("fork", 2): "23bda8c28d9deb81613d7c7548d1a25a66feb97ed0ca0f855f4154de43fc937b",
    ("fork", 3): "503904405a8dfebaea046827837048cad6c1e42ce6d69b1a4bfa880bd28acdf1",
    ("fork", 4): "ee8018639c2b1f7d0878fb7825e491d2f113fe90f8997ad0b43049da475fc8ae",
    ("collider", 2): "14ae157593a6d043d44f9dbb650e6aa711efea4b5223dad37a35389f63370c91",
    ("collider", 3): "a837bb6f93d8390d9d67d82c0b3a9267e1ece477340a6ed6895b4adb8ef4e27b",
    ("collider", 4): "c64a1c4de0261db7fddf05a0b16c61a1a067eb07fa38c6221dd833dd90d79e59",
}


@pytest.mark.parametrize("shape, n", list(COMPILED_SHA256), ids=[f"{s}{n}" for s, n in COMPILED_SHA256])
def test_compiled_files_are_byte_pinned(shape, n, tmp_path):
    model, out = tmp_path / "model.scm", tmp_path / "out.cfs"
    model.write_text(shaped_scm(n, shape))
    assert main(["compile", "scm", str(model), "-o", str(out)], io.StringIO(), io.StringIO()) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPILED_SHA256[shape, n]


class TestOutcomeKeys:
    """Document tables are the outcome-keyed Measures of the space they build."""

    def test_tables_are_the_built_measures_and_rows(self, compiled_chains):
        texts = [fixture_text(name) for name in FIXTURES] + [compiled_chains[n] for n in (2, 3)]
        for text in texts:
            doc = parse_space(text)
            space = doc.to_space()
            assert space.P is doc.measure
            for decl in doc.kernels:
                kernel = space.mech.get(decl.on)
                assert decl.on == kernel.on
                assert [row for row, _ in decl.rows] == list(kernel.rows)
                for row, body in decl.rows:
                    assert kernel.rows[row] is body and body.schema is doc.measure.schema

    def test_doc_from_space_holds_the_measure(self, compiled_chains):
        spaces = [random_cf_space(seed, n_worlds=2) for seed in range(5)]
        spaces += [parse_space(compiled_chains[n]).to_space() for n in (2, 3)]
        for space in spaces:
            doc = doc_from_space(space, "s")
            assert doc.measure is space.P
            for decl in doc.kernels:
                assert dict(decl.rows) == space.mech.get(decl.on).rows

    @pytest.mark.parametrize("table, message", [
        ({(0, 0): 2, (1, 1): -1}, "negative weight -1 at (1, 1)"),
        ({}, "weights sum to 0, not 1"),
        ({(0, 2): 1}, "label index 2 out of range for coordinate CF.c"),
        ({(0, 0): Fraction(1, 2), (1,): Fraction(1, 2)},
         "row (1,) does not match the coordinates (0, 1)"),
    ], ids=["negative", "empty", "index", "size"])
    def test_hand_built_tables_are_checked(self, table, message):
        """A hand-built table is a Measure, checked when it is built; a
        bare table in its place is refused by `to_space`."""
        doc = parse_space(MINI)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Measure(doc.schema(), table)
        self.assert_refused(doc, table)

    @staticmethod
    def assert_refused(doc, table):
        """`to_space` refuses `table` as the measure and as a kernel row."""
        with pytest.raises(ParseError, match="^document measure is not a Measure on its schema$"):
            dataclasses.replace(doc, measure=table).to_space()
        kernel = KernelDecl(frozenset({1}), (((0,), table), ((1,), doc.measure)))
        with pytest.raises(ParseError,
                           match="^kernel rows must map to measures on the same schema$"):
            dataclasses.replace(doc, kernels=(kernel,)).to_space()

    @pytest.mark.parametrize("build", [
        lambda schema, P: P.as_dict(),
        lambda schema, P: P.marginal({0}),
        lambda schema, P: Measure(SpaceSchema([Coordinate(c.world, c.name, c.labels[::-1])
                                               for c in schema.coords]), P.as_dict()),
    ], ids=["dict", "margin", "other-schema"])
    def test_only_measures_on_the_schema_are_taken(self, build):
        doc = parse_space(MINI)
        self.assert_refused(doc, build(doc.schema(), doc.measure))

    @pytest.mark.parametrize("rows, message", [
        ((), "kernel has no rows"),
        (((2,),), "label index 2 out of range for coordinate CF.c"),
        (((0, 0),), "row (0, 0) does not match the coordinates (1,)"),
    ], ids=["empty", "index", "size"])
    def test_hand_built_kernel_rows_are_checked(self, rows, message):
        doc = parse_space(MINI)
        rows = tuple((row, Measure.dirac(doc.schema(), (0, 0))) for row in rows)
        doc = dataclasses.replace(doc, kernels=(KernelDecl(frozenset({1}), rows),))
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            doc.to_space()

    def test_a_hand_built_document_builds_its_space(self):
        doc = parse_space(MINI)
        schema = doc.schema()  # equal to the measure's schema, not the same object
        row = Measure(schema, {(0, 0): Fraction(1, 3), (1, 0): Fraction(2, 3)})
        hand = dataclasses.replace(doc, kernels=(KernelDecl(frozenset({1}), (((0,), row),)),))
        space = hand.to_space()
        assert space.P is doc.measure and space.mech.get({1}).rows == {(0,): row}
        assert parse_space(serialize_space(hand)) == hand


SCM_TEXT = """\
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
"""

PO_TEXT = """\
po toy
units { always never complier defier }
dist { default = 1/4 }
var X { 0 1 }
var Y { P F }
observe X { always = 1  never = 0  complier = 1  defier = 0 }
observe Y { always = P  never = F  complier = P  defier = P }
potential Y given (X=1) { always = P  never = F  complier = P  defier = F }
potential Y given (X=0) { always = P  never = F  complier = F  defier = P }
"""


class TestModelFiles:
    def test_scm_parses(self):
        model, coupling, name = parse_scm(SCM_TEXT)
        assert name == "chain"
        assert coupling is None
        assert model.evaluate(("1", "1")) == {"X": "1", "Y": "0"}

    def test_scm_coupling_block(self):
        text = SCM_TEXT + (
            "coupling {\n"
            "  ((Ux=0, Uy=0), (Ux=0, Uy=0)) = 1/4\n"
            "  ((Ux=0, Uy=1), (Ux=0, Uy=1)) = 1/4\n"
            "  ((Ux=1, Uy=0), (Ux=1, Uy=0)) = 1/4\n"
            "  ((Ux=1, Uy=1), (Ux=1, Uy=1)) = 1/4\n"
            "  default = 0\n"
            "}\n")
        model, coupling, _ = parse_scm(text)
        assert coupling[(("0", "0"), ("0", "0"))] == Fraction(1, 4)
        assert coupling.get((("0", "0"), ("1", "1")), 0) == 0
        assert len(coupling) == 4
        assert sum(coupling.values()) == 1

    def test_scm_incomplete_fn_table(self):
        text = SCM_TEXT.replace("  (X=1, Uy=1) = 0\n", "")
        with pytest.raises(ParseError, match="cover"):
            parse_scm(text)

    def test_po_parses(self):
        model, name = parse_po(PO_TEXT)
        assert name == "toy"
        assert model.assignments() == ((("X", "1"),), (("X", "0"),))

    def test_po_unknown_unit(self):
        with pytest.raises(ParseError, match="unknown unit"):
            parse_po(PO_TEXT.replace("observe X { always = 1",
                                     "observe X { sometimes = 1"))


# -- the entry path and the token path ------------------------------------------

KEY = re.compile(r"\(([^()]*=[^()]*)\)")
WEIGHT = re.compile(r"= ([0-9./]+)$", re.M)


def token_path_text(text: str) -> str:
    """`text` with every key and weight respelled so that no anchored match
    reads them: coordinates in reverse order after a comment and a newline
    inside the parentheses, and weights as 'p / q'."""
    def key(m):
        return "( # c\n" + ", ".join(reversed(m.group(1).split(", "))) + ")"

    def weight(m):
        q = Fraction(m.group(1))
        return f"= {q.numerator} / {q.denominator}"

    return KEY.sub(key, WEIGHT.sub(weight, text))


def lexed(monkeypatch, parse, text) -> int:
    """How many tokens parse(text) lexes."""
    count = 0
    lex = parser._lex

    def counting(*args):
        nonlocal count
        for tok in lex(*args):
            count += 1
            yield tok

    with monkeypatch.context() as patch:
        patch.setattr(parser, "_lex", counting)
        parse(text)
    return count


class TestEntryPath:
    def test_token_path_reads_the_same_documents(self, compiled_chains):
        docs = [parse_space(compiled_chains[n]) for n in (2, 3)]
        docs += [doc_from_space(random_cf_space(seed, n_worlds=2), f"r{seed}") for seed in range(8)]
        docs += [parse_space(fixture_text(name)) for name in FIXTURES]
        for doc in docs:
            text = serialize_space(doc)
            respelled = token_path_text(text)
            assert respelled.count("# c") == text.count("(")
            assert parse_space(respelled) == parse_space(text) == doc

    def test_token_path_reads_the_same_model(self):
        text = chain_scm(3)
        respelled = token_path_text(text)
        assert respelled.count("# c") == text.count("(") - 3  # fn input lists stay
        models = [parse_scm(t)[0] for t in (text, respelled)]
        assert models[0].noise_dist == models[1].noise_dist
        assert [dict(eq.table) for eq in models[0].eqs.values()] == [
            dict(eq.table) for eq in models[1].eqs.values()]

    def test_tokens_lexed_do_not_grow_with_entries(self, compiled_chains, monkeypatch):
        doc = parse_space(compiled_chains[3])
        P = doc.measure

        def mixed(body):  # the row half and half with P: more entries, the law of both
            return Measure._mix(P.schema, [(1, body), (1, P)])

        denser = dataclasses.replace(doc, kernels=tuple(
            KernelDecl(k.on, tuple((row, mixed(body)) for row, body in k.rows))
            for k in doc.kernels))

        def entries(d):
            return sum(len(body) for k in d.kernels for _, body in k.rows)

        assert entries(denser) > 1.5 * entries(doc)
        text, denser_text = serialize_space(doc), serialize_space(denser)
        assert parse_space(denser_text) == denser
        tokens = lexed(monkeypatch, parse_space, text)
        assert lexed(monkeypatch, parse_space, denser_text) <= tokens
        assert lexed(monkeypatch, parse_space, token_path_text(text)) > 20 * tokens

    def test_a_compiled_file_is_read_with_one_match_per_table(self, compiled_chains,
                                                             monkeypatch):
        text = compiled_chains[3]
        doc = parse_space(text)
        rows = sum(len(k.rows) for k in doc.kernels)
        assert (len(doc.kernels), rows) == (63, 728)
        matches = 0
        match = parser.TokenStream.match

        def counting(*args):
            nonlocal matches
            matches += 1
            return match(*args)

        monkeypatch.setattr(parser.TokenStream, "match", counting)
        assert lexed(monkeypatch, parse_space, text) <= 1300
        # each row, the measure, and the '}' that ends each kernel's rows
        assert matches == rows + len(doc.kernels) + 1

    @pytest.mark.parametrize("shape", PARENTS)
    def test_a_coupled_model_is_read_with_one_match_per_table(self, shape, monkeypatch):
        text = shaped_scm(3, shape, coupled=True)
        model, coupling, _ = parse_scm(text)
        assert (len(model.eqs), len(coupling)) == (3, 64)
        matches = 0
        match = parser.TokenStream.match

        def counting(*args):
            nonlocal matches
            matches += 1
            return match(*args)

        monkeypatch.setattr(parser.TokenStream, "match", counting)
        assert parse_scm(text)[1] == coupling
        assert matches == 5  # the noise law, the three fn tables and the coupling
        # the word 'coupling' and the end of the text: no entry of the coupling is lexed
        assert lexed(monkeypatch, parse_scm, text) == lexed(
            monkeypatch, parse_scm, shaped_scm(3, shape)) + 2


EXAM_ROW = "(F.class=N, F.exam=P, CF.class=Y, CF.exam=P) = 0.16"


@pytest.mark.parametrize("row, message", [
    ("(F.class=N, F.grade=P, CF.class=Y, CF.exam=P) = 0.16",
     "36:17: unknown coordinate 'F.grade'"),
    ("(F.class=N, F.exam=Q, CF.class=Y, CF.exam=P) = 0.16",
     "36:24: unknown label of F.exam 'Q'"),
    ("(F.class=N, F.exam=P, CF.class=Y, F.exam=P) = 0.16", "36:39: F.exam assigned twice"),
    ("(F.class=N, F.exam=P, CF.class=Y) = 0.16", "36:5: coordinate CF.exam is not assigned"),
    (EXAM_ROW + "\n    " + EXAM_ROW, "37:5: duplicate entry"),
    ("(F.class=N, F.exam=P, CF.class=Y, CF.exam=P) = 16/0", "36:55: zero denominator"),
    ("(F.class=N, F.exam=P, CF.class=Y, CF.exam=P) = 1.²", "36:52: invalid number '1.²'"),
    ("(F.class=N, F.exam=P, CF.class=Y, CF.exam=P) = 1/1.5",
     "36:54: expected an integer denominator"),
    ("(F.class=N, F.exam=P, CF.class=Y, CF.exam=P) = -0.16", "36:52: unexpected character '-'"),
], ids=["unknown coordinate", "unknown label", "assigned twice", "missing coordinate",
        "duplicate entry", "zero denominator", "1.2", "p/1.5", "negative weight"])
def test_malformed_entry_diagnostics(row, message):
    text = fixture_text("exam")
    assert text.count(EXAM_ROW) == 1
    with pytest.raises(ParseError) as exc:
        parse_space(text.replace(EXAM_ROW, row))
    assert str(exc.value) == message


@pytest.mark.parametrize("coords, message", [
    ("{CF.zzz}", "30:11: unknown coordinate 'CF.zzz'"),
    ("{CF.class, CF.class}", "30:22: coordinate 'CF.class' listed twice"),
    ("{CF.class,\n  CF.class}", "31:3: coordinate 'CF.class' listed twice"),
])
def test_kernel_set_diagnostics(coords, message):
    text = fixture_text("exam")
    assert text.count("kernel on {CF.class}") == 1
    with pytest.raises(ParseError) as exc:
        parse_space(text.replace("kernel on {CF.class}", f"kernel on {coords}"))
    assert str(exc.value) == message


@pytest.mark.parametrize("char, message", [
    ("$", "40:17: unexpected character '$'"),
    ("€", "40:17: unexpected character '€'"),
    ("é", "3:12: document declares no worlds"),  # a word of the Unicode lexer
])
def test_lexical_errors_come_before_grammar_errors(char, message):
    lines = fixture_text("exam").split("\n")
    lines[2] += " exam"
    lines[39] += " " + char
    with pytest.raises(ParseError) as exc:
        parse_space("\n".join(lines))
    assert str(exc.value) == message


def test_a_non_ascii_text_is_lexed_once(monkeypatch):
    text = ("space s\nworld F { component été { a b } }\n"
            "measure { (F.été=a) = 1/2 (F.été=b) = 1/2 }\n")
    patterns = []
    lex = parser._lex
    monkeypatch.setattr(parser, "_lex",
                        lambda text, pattern, *at: patterns.append(pattern) or lex(text, pattern, *at))
    assert parse_space(text).worlds[0].components == (("été", ("a", "b")),)
    # the ASCII pattern stops at 'é'; the Unicode pattern then starts once
    assert patterns == [parser._ASCII_TOKENS, parser._unicode_tokens()]
    monkeypatch.undo()
    assert len(parser.tokenize(text)) == 38
    assert lexed(monkeypatch, parse_space, text) == 7 + 38
