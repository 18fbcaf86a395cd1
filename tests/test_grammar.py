"""The shared text layer: lexer, label blocks, the one table grammar, and
fuzzing of the four front ends through the command line."""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfspaces import ParseError, parse_po, parse_query, parse_scm, parse_space, run_script
from cfspaces.cli import main
from cfspaces.compilers import POModel, SCMModel
from cfspaces.parser import TokenStream, tokenize
from cfspaces.repro import FIXTURES, fixture_text

from conftest import PARENTS, chain_scm, edit_block_row, shaped_scm
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


def stream_tokens(text):
    """Every token of a TokenStream over `text`, lexed one at a time."""
    ts = TokenStream(text)
    tokens = [ts.next()]
    while tokens[-1].kind != "eof":
        tokens.append(ts.next())
    return tokens


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.text(LEXER_CHARS, max_size=40))
def test_lazy_stream_matches_reference(text):
    assert lex(stream_tokens, text) == lex(reference_tokenize, text)


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


@pytest.mark.parametrize("template, command, declaration, message", [
    (SCM, "compile scm", "var W { 0 1 }", "no structural equation for W"),
    (PO, "compile po", "var Z { 0 1 }", "no observed function for Z"),
])
def test_variable_without_its_function_is_reported_at_its_declaration(
        template, command, declaration, message, tmp_path):
    text = fill(template, valid_bodies(template)).replace("var ", f"{declaration}\nvar ", 1)
    err = error_at(command, text, text.index(declaration), tmp_path)
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


# Characters and tokens that break an entry of a compiled file in every way
# the grammar can notice: comments, newlines, signs, decimals, non-ASCII
# digits and letters, and every symbol.
ENTRY_CHARS = list("{}()=,./#\n \t-$_a01") + ["²", "é", "€"]
ENTRY_TOKENS = ENTRY_CHARS + ["F.X0", "CF.X2", "F.X9", "1/2", "0.5", "1/0", "1.²", "default",
                              "given", "F.X0=1", "CF.X1=0"]
# and those of an .scm coupling entry '((U0=0, ...), (U0=0, ...)) = 1/2'
COUPLING_TOKENS = ENTRY_CHARS + ["U0", "U2=1", "U9=0", "X0=1", "(U1=0)", "((U0=0, U1=0, U2=0),",
                                 "1/2", "0.5", "1/0", "default"]


@st.composite
def mutated_entries(draw, text, vocabulary=ENTRY_TOKENS):
    """`text` with one to three of its table lines (entries, 'given' rows,
    defaults and closing braces) edited, character by character or token
    by token, drawing the tokens it inserts from `vocabulary`."""
    lines = text.split("\n")
    entries = [i for i, line in enumerate(lines)
               if line.lstrip().startswith(("(", "given", "default", "}"))]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(entries))
        line = lines[i]
        if draw(st.booleans()):
            j = draw(st.integers(0, len(line)))
            cut = draw(st.integers(0, 2))
            lines[i] = line[:j] + draw(st.sampled_from(ENTRY_CHARS + [""])) + line[j + cut:]
        else:
            try:
                tokens = [t.value for t in tokenize(line)[:-1]]
            except ParseError:  # an earlier edit left a character that no token takes
                tokens = line.split()
            j = draw(st.integers(0, len(tokens)))
            edit = draw(st.sampled_from(("insert", "delete", "replace", "duplicate")))
            if edit == "insert" or j == len(tokens):
                tokens.insert(j, draw(st.sampled_from(vocabulary)))
            elif edit == "delete":
                del tokens[j]
            elif edit == "replace":
                tokens[j] = draw(st.sampled_from(vocabulary))
            else:
                tokens[j:j] = tokens[j:j + draw(st.integers(1, 6))]
            lines[i] = "    " + " ".join(tokens)
    return "\n".join(lines)


def test_check_never_raises_on_edited_compiled_entries(compiled_chains, fuzz_dir):
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(mutated_entries(compiled_chains[3]))
    def check(text):
        code, _, err = run_text("check", text, fuzz_dir)
        assert 0 <= code <= 5
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    check()


# -- the table reader against the token path ------------------------------------


def reading(parse, text):
    """What parse(text) reads, with models as their attribute dicts, or the
    text of its error."""
    try:
        result = parse(text)
    except ParseError as exc:
        return str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return [vars(p) if isinstance(p, (SCMModel, POModel)) else p for p in parts]


def assert_read_alike(monkeypatch, parse, text):
    """parse(text) reads the same as the token path alone, which is what is
    left with every anchored match refused: the same result or the same
    error at the same line:col."""
    with monkeypatch.context() as patch:
        patch.setattr(TokenStream, "match", lambda self, regex, resolve: None)
        tokens_only = reading(parse, text)
    assert reading(parse, text) == tokens_only


PARSERS = {"check": parse_space, "run": parse_query, "compile scm": parse_scm,
           "compile po": parse_po}
WEIGHT_TABLES = ["{ (CF.class=Y) = 1/3 (CF.class=N) = 2/3 }",
                 "{\n  (CF.class=Y)=1\n  default = 0\n}",
                 "{ (CF.class=Y) = 1 (CF.class=Y) = 0 }",
                 "{ (CF.class=Y) = 1/0 default = 0 }",
                 "{ (CF.class=Y, CF.exam=P) = 1 }",
                 "{ ( CF.class = N ) = 0.5 default = 1 / 2 }"]


# One mid-block row of a compiled file spelled in a way that only the token
# path reads: the block holding it is read by tokens from its 'kernel' word.
ROW_SPELLINGS = {
    "a comment inside the row": (1, lambda line: line + "  # the row's only entry"),
    "a key over two lines": (1, lambda line: line.replace(", ", ",\n      ", 1)),
    "a p / q weight": (1, lambda line: line.replace(" = 1", " = 2 / 2")),
}


def test_table_reader_reads_as_the_token_path(monkeypatch, compiled_chains):
    compiled = parse_space(compiled_chains[3])
    for offset, edit in ROW_SPELLINGS.values():
        text = edit_block_row(compiled_chains[3], edit, offset)
        assert text != compiled_chains[3] and parse_space(text) == compiled
        assert_read_alike(monkeypatch, parse_space, text)
    # a word between two rows, which the rows read back to back do not cover
    stray = edit_block_row(compiled_chains[3], lambda line: "  stray\n" + line)
    assert reading(parse_space, stray) == "4968:3: expected '}', found 'stray'"
    assert_read_alike(monkeypatch, parse_space, stray)
    texts = [(parse_space, fixture_text(name)) for name in FIXTURES]
    texts += [(parse_space, fill(SPACE, VALID)), (parse_space, compiled_chains[2]),
              (parse_scm, chain_scm(3)), (parse_scm, SCM_SEED), (parse_po, PO_SEED)]
    # 'default' opens a table's default even where it is also a unit
    texts.append((parse_po, fill(PO, {**VALID, "D": ("a = 1/2", "default = 1/2")})
                  .replace("units { a b }", "units { a b default }")))
    texts += [(parse_query, f"INTERVENE {{CF.class}} WITH {table}\nPROB (CF.exam=P)\n")
              for table in WEIGHT_TABLES]
    texts += [(parse_scm, shaped_scm(n, shape, coupled=True)) for shape in PARENTS for n in (2, 3)]
    for parse, text in texts:
        assert_read_alike(monkeypatch, parse, text)


@pytest.mark.parametrize("command", PARSERS)
def test_table_reader_reads_edited_inputs_as_the_token_path(command, monkeypatch):
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(token_soup(command))
    def check(text):
        assert_read_alike(monkeypatch, PARSERS[command], text)

    check()


def test_table_reader_reads_edited_compiled_files_as_the_token_path(
        compiled_chains, monkeypatch):
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(mutated_entries(compiled_chains[3]))
    def check(text):
        assert_read_alike(monkeypatch, parse_space, text)

    check()


@pytest.mark.parametrize("shape", PARENTS)
def test_table_reader_reads_edited_couplings_as_the_token_path(shape, monkeypatch):
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(mutated_entries(shaped_scm(3, shape, coupled=True), COUPLING_TOKENS))
    def check(text):
        assert_read_alike(monkeypatch, parse_scm, text)

    check()
