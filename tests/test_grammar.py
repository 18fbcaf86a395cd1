"""The shared text layer: lexer, label blocks, the one table grammar, and
fuzzing of the four front ends through the command line."""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfspaces import ParseError, parse_po, parse_query, parse_scm, run_script
from cfspaces.cli import main
from cfspaces.parser import tokenize
from cfspaces.repro import fixture_text

from oracle_util import reference_tokenize


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = main(args, out, err)
    return code, out.getvalue(), err.getvalue()


def lex(lexer, text):
    try:
        return lexer(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


# Characters of the grammar, blanks, and characters on which str.isdigit,
# str.isalpha and str.isalnum disagree with re's \d and \w.
LEXER_CHARS = st.one_of(
    st.sampled_from(list("{}()=,./&|!;#\n \t\rab_Z09-$") + ["\x0b", " "]),
    st.sampled_from(list("²½é一٣Ⅷ\U0001d7d9")),
    st.characters(),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.text(LEXER_CHARS, max_size=40))
def test_lexer_matches_reference(text):
    assert lex(tokenize, text) == lex(reference_tokenize, text)


def test_lexer_matches_reference_on_fixtures():
    for name in ("exam", "star", "dormant"):
        text = fixture_text(name)
        assert tokenize(text) == reference_tokenize(text)
        assert tokenize(text + "  # trailing") == reference_tokenize(text + "  # trailing")


# -- the table grammar ------------------------------------------------------------

SPACE = """\
space s
world W {
  component c { a b }
}
measure { @M }
kernel on {W.c} {
  given (W.c=a) { @K }
  given (W.c=b) { (W.c=b) = 1 default = 0 }
}
"""

SCM = """\
scm m
noise U { 0 1 }
dist { @D }
var V { 0 1 }
fn V (U) { @F }
coupling { @C }
"""

PO = """\
po m
units { a b }
dist { @D }
var X { 0 1 }
var Y { 0 1 }
observe X { @O }
observe Y { a = 0 b = 1 }
potential Y given (X=1) { @P }
"""

QUERY = "PROB ()\nINTERVENE {CF.class} WITH { @Q }\nPROB (CF.exam=P)\n"

VALID = {
    "M": ("(W.c=a) = 1/2", "(W.c=b) = 1/2"),
    "K": ("(W.c=a) = 1", "(W.c=b) = 0"),
    "D": ("(U=0) = 1/2", "(U=1) = 1/2"),
    "F": ("(U=0) = 0", "(U=1) = 1"),
    "C": ("((U=0), (U=0)) = 1/2", "((U=1), (U=1)) = 1/2", "default = 0"),
    "O": ("a = 1", "b = 0"),
    "P": ("a = 1", "b = 1"),
    "Q": ("(CF.class=Y) = 1/2", "(CF.class=N) = 1/2"),
}
PO_VALID = {"D": ("a = 1/4", "b = 3/4")}

# table -> (command, the file the table sits in, its marker)
TABLES = {
    ".cfs measure": ("check", SPACE, "M"),
    ".cfs kernel row": ("check", SPACE, "K"),
    ".scm dist": ("compile scm", SCM, "D"),
    ".scm fn": ("compile scm", SCM, "F"),
    ".scm coupling": ("compile bscm", SCM, "C"),
    ".po dist": ("compile po", PO, "D"),
    ".po observe": ("compile po", PO, "O"),
    ".po potential": ("compile po", PO, "P"),
    ".cfq weights": ("run", QUERY, "Q"),
}


def fill(template, bodies):
    for marker, entries in bodies.items():
        template = template.replace(f"@{marker}", " ".join(entries))
    return template


def run_text(command, text, tmp_path):
    """Run a command on `text` as its input (the .cfq of `run` against exam)."""
    target = tmp_path / "input"
    target.write_text(text)
    if command == "check":
        return run_cli(["check", str(target)])
    if command == "run":
        exam = tmp_path / "exam.cfs"
        exam.write_text(fixture_text("exam"))
        return run_cli(["run", str(exam), str(target)])
    kind = command.split()[1]
    return run_cli(["compile", kind, str(target), "-o", str(tmp_path / "out.cfs")])


def valid_bodies(template):
    bodies = dict(VALID)
    if template is PO:
        bodies.update(PO_VALID)
    return bodies


@pytest.mark.parametrize("table", TABLES)
def test_valid_tables_run(table, tmp_path):
    command, template, _ = TABLES[table]
    code, _, err = run_text(command, fill(template, valid_bodies(template)), tmp_path)
    assert code == 0, err


@pytest.mark.parametrize("defect", ["duplicate row", "duplicate default", "negative weight"])
@pytest.mark.parametrize("table", TABLES)
def test_malformed_table_is_one_error_line_at_its_position(table, defect, tmp_path):
    command, template, marker = TABLES[table]
    entries = list(valid_bodies(template)[marker])
    rows = [e for e in entries if not e.startswith("default")]
    if defect == "duplicate row":
        body, culprit = " ".join(entries + [rows[0]]), len(" ".join(entries)) + 1
    elif defect == "duplicate default":
        body = " ".join(rows + ["default = 0"] * 2)
        culprit = body.rindex("default")
    else:
        key, value = rows[0].split(" = ")
        body = " ".join([f"{key} = -{value}"] + entries[1:])
        culprit = body.index("-")
    others = fill(template, {m: e for m, e in valid_bodies(template).items() if m != marker})
    offset = others.index(f"@{marker}") + culprit
    text = others.replace(f"@{marker}", body)
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    code, out, err = run_text(command, text, tmp_path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {line}:{col}: "), err


@pytest.mark.parametrize("label_block", [
    (SPACE, "component c { a b }", "check"),
    (SCM, "noise U { 0 1 }", "compile scm"),
    (SCM, "var V { 0 1 }", "compile scm"),
    (PO, "units { a b }", "compile po"),
    (PO, "var X { 0 1 }", "compile po"),
])
@pytest.mark.parametrize("defect", ["repeated", "empty"])
def test_label_blocks_reject_repeated_and_empty_labels(label_block, defect, tmp_path):
    template, block, command = label_block
    head, labels = block.split("{")
    first = labels.split()[0]
    bad = f"{head}{{ {first} {labels.strip()}" if defect == "repeated" else f"{head}{{ }}"
    text = fill(template, valid_bodies(template)).replace(block, bad)
    code, _, err = run_text(command, text, tmp_path)
    assert code == 2
    assert len(err.splitlines()) == 1
    message = f"label {first!r} listed twice" if defect == "repeated" else "empty label set"
    assert err.endswith(message + "\n"), err


def test_repeated_noise_label_is_named_not_blamed_on_a_fn_table():
    text = fill(SCM, VALID).replace("noise U { 0 1 }", "noise U { 0 0 1 }")
    with pytest.raises(ParseError, match=r"^2:13: label '0' listed twice"):
        parse_scm(text)


class TestCoverageAndStorage:
    def test_model_laws_keep_nonzero_entries_only(self):
        text = fill(SCM, VALID).replace("(U=0) = 1/2 (U=1) = 1/2", "(U=1) = 1 default = 0")
        model, coupling, _ = parse_scm(text)
        assert model.noise_dist == {("1",): 1}
        assert coupling == {(("0",), ("0",)): Fraction(1, 2), (("1",), ("1",)): Fraction(1, 2)}
        po, _ = parse_po(fill(PO, {**VALID, "D": ("a = 1", "default = 0")}))
        assert po.unit_dist == {"a": 1}

    def test_uncovered_table_names_its_count(self):
        with pytest.raises(ParseError, match=r"^3:6: noise law covers 1 of 2 noise rows"):
            parse_scm(fill(SCM, {**VALID, "D": ("(U=0) = 1",)}))
        with pytest.raises(ParseError, match=r"^5:10: fn table for V covers 1 of 2 input rows"):
            parse_scm(fill(SCM, {**VALID, "F": ("(U=0) = 0",)}))

    def test_function_tables_take_a_default_label(self):
        model, _, _ = parse_scm(fill(SCM, {**VALID, "F": ("(U=1) = 1", "default = 0")}))
        assert dict(model.eqs["V"].table) == {("0",): "0", ("1",): "1"}
        po, _ = parse_po(fill(PO, {**VALID, **PO_VALID, "O": ("default = 1",)}))
        assert po.observed["X"] == {"a": "1", "b": "1"}

    def test_unknown_labels_are_reported_where_they_are_written(self):
        with pytest.raises(ParseError, match=r"^5:30: unknown label of V '2'"):
            parse_scm(fill(SCM, {**VALID, "F": ("(U=0) = 0", "(U=1) = 2")}))
        with pytest.raises(ParseError, match=r"^5:15: unknown label of U '2'"):
            parse_scm(fill(SCM, {**VALID, "F": ("(U=2) = 0", "(U=1) = 1")}))

    def test_weight_table_default(self, exam):
        text = "INTERVENE {CF.class} WITH @ PROB (CF.exam=P)"
        table = "{ (CF.class=Y) = 1/2 default = 1/2 }"
        with_default = run_script(exam, parse_query(text.replace("@", table)))
        uniform = run_script(exam, parse_query(text.replace("@", "uniform")))
        assert with_default.lines == uniform.lines

    def test_weight_table_must_cover_its_rows(self, exam):
        script = parse_query("INTERVENE {CF.class} WITH { (CF.class=Y) = 1 }")
        with pytest.raises(ParseError, match=r"^1:27: weight table covers 1 of 2 rows"):
            run_script(exam, script)
        script = parse_query("INTERVENE {CF.class} WITH { (CF.class=Y) = 1 default = 0 }")
        assert run_script(exam, script).exit_code == 0


def error_at(command, text, offset, tmp_path):
    """The one error line of `command` on `text`, which must point at the
    character at `offset`."""
    line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    code, out, err = run_text(command, text, tmp_path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {line}:{col}: "), err
    return err


@pytest.mark.parametrize("weight", ["²", "1/²", "²/2", "1.²"])
def test_digits_that_int_rejects_are_an_error_at_their_token(weight, tmp_path):
    row = "(F.class=Y, F.exam=P, CF.class=Y, CF.exam=P) = "
    text = fixture_text("exam").replace(row + "0.32", row + weight, 1)
    numeral = "1.²" if "." in weight else "²"
    offset = text.index(row + weight) + len(row) + weight.index(numeral)
    err = error_at("check", text, offset, tmp_path)
    assert err.endswith(f"invalid number {numeral!r}\n"), err


def test_digits_that_int_accepts_still_read(tmp_path):
    text = fill(SPACE, {**VALID, "M": ("(W.c=a) = ١/٢", "(W.c=b) = 1/2")})
    assert run_text("check", text, tmp_path)[0] == 0


@pytest.mark.parametrize("assignment, culprit, message", [
    ("(Z=1)", "Z=1", "unknown variable 'Z'"),
    ("(X=7)", "7)", "unknown label of X '7'"),
])
def test_treatment_assignment_is_checked_where_it_is_written(
        assignment, culprit, message, tmp_path):
    text = fill(PO, valid_bodies(PO)).replace("given (X=1)", f"given {assignment}")
    err = error_at("compile po", text, text.index(culprit), tmp_path)
    assert err.endswith(message + "\n"), err


# -- fuzzing the front ends --------------------------------------------------------

SCM_SEED = fill(SCM, VALID)
PO_SEED = fill(PO, {**VALID, **PO_VALID})
CFQ_SEED = (
    "LET e = EVENT(F.class=N & !(F.exam=P | CF.exam=F))\nCONDITION (e);\n"
    "INTERVENE {CF.class} WITH { (CF.class=Y) = 1/3 default = 2/3 }\n"
    "PROB (CF.exam=P)\nEFFECT {CF.class} ON (CF.exam=P) GIVEN (F.class=N)\n"
    "INDEP {F.class} {CF.class}\nSYNC {F.exam} {CF.exam}\nSOURCE {CF.class}\nCHECK\n")

# command -> (seed input, extra tokens of its grammar)
FRONT_ENDS = {
    "check": (fill(SPACE, VALID), "space world component mirror measure kernel on given "
              "default W V c d a b 0 1 1/2 0.5 W.c=a W.c=b"),
    "run": (CFQ_SEED, "LET EVENT CONDITION INTERVENE WITH PROB EFFECT ON GIVEN INDEP SYNC "
            "SOURCE CHECK point uniform default F.class CF.class CF.exam Y N P 0 1/2 e"),
    "compile scm": (SCM_SEED, "scm noise dist var fn coupling default U V W 0 1 2 1/2"),
    "compile bscm": (SCM_SEED, "scm noise dist var fn coupling default U V W 0 1 2 1/2"),
    "compile po": (PO_SEED, "po units dist var observe potential given default "
                   "a b c X Y 0 1 1/4"),
}
SYMBOLS = list("{}()=,./&|!;") + ["\n", "-", "#"]


@st.composite
def token_soup(draw, command):
    seed, extra = FRONT_ENDS[command]
    vocabulary = st.sampled_from(extra.split() + SYMBOLS)
    if draw(st.booleans()):
        return " ".join(draw(st.lists(vocabulary, max_size=30)))
    tokens = [t.value for t in tokenize(seed)[:-1]]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("insert", "delete", "replace", "duplicate")))
        if edit == "insert":
            tokens.insert(i, draw(vocabulary))
        elif edit == "delete":
            del tokens[i]
        elif edit == "replace":
            tokens[i] = draw(vocabulary)
        else:
            tokens[i:i] = tokens[i:i + draw(st.integers(1, 8))]
    return " ".join(tokens)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", FRONT_ENDS)
def test_front_ends_never_raise(command, fuzz_dir):
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(token_soup(command))
    def check(text):
        code, _, err = run_text(command, text, fuzz_dir)
        assert 0 <= code <= 5
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    check()
