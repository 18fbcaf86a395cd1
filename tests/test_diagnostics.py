"""One pinned transcript per front-end diagnostic of the command line.

Each case writes its input files, runs `cfspaces` in-process and compares
the exit code, stdout and the whole of stderr: one `error: line:col:
message` line for bad input, the usage text for a bad command line.
"""

import io
from importlib import resources

import pytest

from cfspaces.cli import USAGE, main
from cfspaces.repro import fixture_text

CFS = "space x\nworld W { component c { a b } }\n"
MEASURE = "measure { (W.c=a) = 1/2 (W.c=b) = 1/2 }\n"
KERNEL = ("kernel on {W.c} {\n"
          "  given (W.c=a) { (W.c=a) = 1 default = 0 }\n"
          "  given (W.c=b) { (W.c=b) = 1 default = 0 }\n}\n")
SCM = ("scm m\nnoise U { 0 1 }\ndist { default = 1/2 }\n"
       "var V { 0 1 }\nfn V (U) { (U=0) = 0  (U=1) = 1 }\n")
PO = ("po toy\nunits { a b }\ndist { default = 1/2 }\n"
      "var X { 0 1 }\nvar Y { 0 1 }\n"
      "observe X { a = 1  b = 0 }\nobserve Y { a = 1  b = 1 }\n"
      "potential Y given (X=0) { a = 0  b = 1 }\n")
WIDE = ("space x\nworld F {\n" + "".join(f"  component c{i} {{ a b }}\n" for i in range(12))
        + "}\nworld CF mirror F\n")
# 21 binary noise variables (2^21 noise rows) under a point law
WIDE_NOISE = ("scm m\n" + "".join(f"noise U{i} {{ 0 1 }}\n" for i in range(21))
              + "dist { (" + ", ".join(f"U{i}=0" for i in range(21)) + ") = 1 default = 0 }\n"
              + "var V { 0 1 }\n")
CHECK = ["check", "{cfs}"]
RUN = ["run", "{exam}", "{cfq}"]
COMPILE_SCM = ["compile", "scm", "{scm}", "-o", "{out}"]
COMPILE_BSCM = ["compile", "bscm", "{scm}", "-o", "{out}"]
COMPILE_PO = ["compile", "po", "{po}", "-o", "{out}"]
USAGE_ERROR = (5, USAGE + "\n")

# (id, argv, {file role: text}, (exit code, stderr)); a role names the
# file's extension, and {tmp} in stderr is the directory of the files.
CASES = [
    # .cfs
    ("cfs-world-twice", CHECK, {"cfs": CFS + "world W { component d { a b } }\n"},
     (2, "error: 3:7: world 'W' declared twice\n")),
    ("cfs-mirror-of-undeclared-world", CHECK, {"cfs": "space x\nworld V mirror W\n"},
     (2, "error: 2:16: world 'V' mirrors undeclared world 'W'\n")),
    ("cfs-component-twice", CHECK,
     {"cfs": "space x\nworld W {\n  component c { a b }\n  component c { a b }\n}\n"},
     (2, "error: 4:13: component 'c' declared twice in world 'W'\n")),
    ("cfs-world-without-components", CHECK, {"cfs": "space x\nworld W { }\n"},
     (2, "error: 2:11: world 'W' declares no components\n")),
    ("cfs-duplicate-kernel", CHECK, {"cfs": CFS + MEASURE + KERNEL + KERNEL},
     (2, "error: 8:11: duplicate kernel for this coordinate set\n")),
    ("cfs-duplicate-given-row", CHECK,
     {"cfs": CFS + MEASURE + KERNEL.replace("given (W.c=b) { (W.c=b)", "given (W.c=a) { (W.c=a)")},
     (2, "error: 6:9: duplicate 'given' row\n")),
    ("cfs-kernel-without-given-rows", CHECK, {"cfs": CFS + MEASURE + "kernel on {W.c} { }\n"},
     (2, "error: 4:19: kernel declares no 'given' rows\n")),
    ("cfs-mirror-names-undeclared-world", CHECK, {"cfs": CFS + MEASURE + "mirror W V\n"},
     (2, "error: 4:10: mirror references undeclared world 'V'\n")),
    ("cfs-no-measure", CHECK, {"cfs": CFS},
     (2, "error: document has no measure block; cannot build a space\n")),
    ("cfs-kernel-row-short", CHECK,
     {"cfs": CFS + MEASURE + KERNEL.replace("(W.c=b) = 1 default", "(W.c=b) = 1/2 default")},
     (2, "error: 6:17: measure sums to 1/2, short by 1/2\n")),
    # a quoted token is cut after 40 characters
    ("cfs-invalid-number-of-5001-digits", CHECK,
     {"cfs": fixture_text("exam").replace("= 0.16", "= 1" + "0" * 5000, 1)},
     (2, "error: 35:52: invalid number '1" + "0" * 39 + "…'\n")),
    ("cfs-unknown-coordinate-of-5003-characters", CHECK,
     {"cfs": fixture_text("exam").replace("{CF.class} {", "{CF." + "x" * 5000 + "} {", 1)},
     (2, "error: 30:11: unknown coordinate 'CF." + "x" * 37 + "…'\n")),
    # 12 binary components in each of two worlds: 2^24 outcomes, over space.MAX_OUTCOMES,
    # which a nonzero default would list
    ("cfs-too-many-outcomes", CHECK,
     {"cfs": WIDE + "measure { default = 1/16777216 }\n"},
     (2, "error: 17:9: 16777216 rows to list, beyond the budget of 1048576\n")),
    # .scm
    # a table whose nonzero default would list more rows than the budget
    ("scm-noise-law-over-the-budget", COMPILE_SCM,
     {"scm": "scm m\n" + "".join(f"noise U{i} {{ 0 1 }}\n" for i in range(21))
             + "dist { default = 1/2097152 }\nvar V { 0 1 }\nfn V (U0) { (U0=0) = 0  (U0=1) = 1 }\n"},
     (2, "error: 23:6: 2097152 rows to list, beyond the budget of 1048576\n")),
    ("scm-fn-table-over-the-budget", COMPILE_SCM,
     {"scm": WIDE_NOISE + f"fn V ({', '.join(f'U{i}' for i in range(21))}) {{ default = 0 }}\n"},
     (2, "error: 25:102: 2097152 rows to list, beyond the budget of 1048576\n")),
    ("scm-coupling-over-the-budget", COMPILE_BSCM,
     {"scm": "scm m\n" + "".join(f"noise U{i} {{ 0 1 }}\n" for i in range(11))
             + "dist { default = 1/2048 }\nvar V { 0 1 }\nfn V (U0) { (U0=0) = 0  (U0=1) = 1 }\n"
             + "coupling { default = 1/4194304 }\n"},
     (2, "error: 16:10: 4194304 rows to list, beyond the budget of 1048576\n")),
    ("scm-noise-twice", COMPILE_SCM, {"scm": SCM.replace("dist", "noise U { 0 1 }\ndist")},
     (2, "error: 3:7: noise variable 'U' declared twice\n")),
    ("scm-variable-twice", COMPILE_SCM, {"scm": SCM.replace("fn", "var V { 0 1 }\nfn")},
     (2, "error: 5:5: variable 'V' declared twice\n")),
    ("scm-variable-named-as-noise", COMPILE_SCM, {"scm": SCM.replace("fn", "var U { 0 1 }\nfn")},
     (2, "error: 5:5: variable 'U' declared twice\n")),
    ("scm-no-variables", COMPILE_SCM, {"scm": "scm m\nnoise U { 0 1 }\ndist { default = 1/2 }\n"},
     (2, "error: 4:1: model declares no endogenous variables\n")),
    ("scm-fn-target-not-a-variable", COMPILE_SCM,
     {"scm": SCM + "fn U (U) { (U=0) = 0  (U=1) = 1 }\n"},
     (2, "error: 6:4: fn target 'U' is not a variable\n")),
    ("scm-duplicate-fn", COMPILE_SCM, {"scm": SCM + "fn V (U) { (U=0) = 1  (U=1) = 0 }\n"},
     (2, "error: 6:4: duplicate fn for 'V'\n")),
    ("scm-unknown-fn-input", COMPILE_SCM, {"scm": SCM.replace("fn V (U)", "fn V (U, Z)")},
     (2, "error: 5:4: unknown fn inputs ['Z']\n")),
    ("scm-repeated-fn-input", COMPILE_SCM, {"scm": SCM.replace("fn V (U)", "fn V (U, U)")},
     (2, "error: 5:4: repeated fn input\n")),
    ("scm-text-after-the-model", COMPILE_SCM, {"scm": SCM + "junk\n"},
     (2, "error: 6:1: unexpected 'junk' after the model\n")),
    ("scm-self-loop", COMPILE_SCM,
     {"scm": SCM.replace("var V { 0 1 }\nfn V (U)", "var X { 0 1 }\nfn X (X, U)")
      .replace("(U=0) = 0  (U=1) = 1", "default = 0")},
     (2, "error: structural equations are cyclic among ['X']\n")),
    # .po
    ("po-variable-twice", COMPILE_PO, {"po": PO.replace("var Y", "var X { 0 1 }\nvar Y")},
     (2, "error: 5:5: variable 'X' declared twice\n")),
    ("po-no-variables", COMPILE_PO, {"po": "po toy\nunits { a b }\ndist { default = 1/2 }\n"},
     (2, "error: 4:1: model declares no variables\n")),
    ("po-duplicate-observe", COMPILE_PO, {"po": PO + "observe X { a = 0  b = 0 }\n"},
     (2, "error: 9:9: duplicate observe block for 'X'\n")),
    ("po-potential-given-nothing", COMPILE_PO,
     {"po": PO + "potential Y given () { a = 0  b = 0 }\n"},
     (2, "error: 9:11: potential outcome needs a treatment assignment\n")),
    ("po-duplicate-potential", COMPILE_PO,
     {"po": PO + "potential Y given (X=0) { a = 1  b = 1 }\n"},
     (2, "error: 9:11: duplicate potential-outcome block\n")),
    # .cfq, against the exam fixture
    ("cfq-missing-paren", RUN, {"cfq": "PROB (CF.exam=P & (F.exam=P)\nPROB ()\n"},
     (2, "error: 2:1: expected ')'\n")),
    ("cfq-with-a-number", RUN, {"cfq": "INTERVENE {CF.class} WITH 7\n"},
     (2, "error: 1:27: expected point(...), uniform, or a weight table\n")),
    ("cfq-point-off-the-intervened-set", RUN,
     {"cfq": "INTERVENE {CF.class} WITH point(CF.exam=P)\nPROB ()\n"},
     (2, "error: 1:1: point() must assign exactly the intervened coordinates\n")),
    ("cfq-table-row-off-the-intervened-set", RUN,
     {"cfq": "INTERVENE {CF.class} WITH { (CF.exam=P) = 1 }\nPROB ()\n"},
     (2, "error: 1:1: weight table rows must assign exactly the intervened coordinates\n")),
    # at the second operand and at `point`, wherever the statement ends
    ("cfq-indep-mixed-operands", RUN, {"cfq": "INDEP {F.class} (CF.exam=P)\nPROB ()\n"},
     (2, "error: 1:17: INDEP operands must both be events or both coordinate sets\n")),
    ("cfq-indep-mixed-operands-at-the-end", RUN, {"cfq": "INDEP {F.class} (CF.exam=P)"},
     (2, "error: 1:17: INDEP operands must both be events or both coordinate sets\n")),
    ("cfq-empty-point", RUN, {"cfq": "INTERVENE {CF.class} WITH point()\nPROB ()\n"},
     (2, "error: 1:27: point() needs at least one coordinate assignment\n")),
    ("cfq-empty-point-at-the-end", RUN, {"cfq": "INTERVENE {CF.class} WITH point()"},
     (2, "error: 1:27: point() needs at least one coordinate assignment\n")),
    # a coordinate or label the script names is an error at its statement's first token
    ("cfq-unknown-coordinate", RUN, {"cfq": "PROB (CF.zzz=P)\n"},
     (2, "error: 1:1: unknown coordinate 'CF.zzz'\n")),
    ("cfq-unknown-label", RUN, {"cfq": "PROB (CF.exam=Q)\n"},
     (2, "error: 1:1: unknown label 'Q' for coordinate CF.exam\n")),
    ("cfq-intervened-unknown-coordinate", RUN,
     {"cfq": "PROB ()\n  INTERVENE {CF.zzz} WITH uniform\nPROB ()\n"},
     (2, "error: 2:3: unknown coordinate 'CF.zzz'\n")),
    # and is quoted as the input is, cut after 40 characters
    ("cfq-unknown-coordinate-of-5003-characters", RUN, {"cfq": "PROB (CF." + "x" * 5000 + "=P)\n"},
     (2, "error: 1:1: unknown coordinate 'CF." + "x" * 37 + "…'\n")),
    ("cfq-unknown-label-of-5000-characters", RUN, {"cfq": "PROB (CF.exam=" + "x" * 5000 + ")\n"},
     (2, "error: 1:1: unknown label '" + "x" * 40 + "…' for coordinate CF.exam\n")),
    ("cfq-intervened-coordinate-of-5003-characters", RUN,
     {"cfq": "INTERVENE {CF." + "x" * 5000 + "} WITH uniform\n"},
     (2, "error: 1:1: unknown coordinate 'CF." + "x" * 37 + "…'\n")),
    # a name is bound by an earlier LET
    ("cfq-unbound-name", RUN, {"cfq": "PROB ()\nPROB (nope)\n"},
     (2, "error: 2:7: unbound event name 'nope'\n")),
    ("cfq-name-used-before-its-let", RUN, {"cfq": "PROB (a)\nLET a = EVENT (F.class=Y)\n"},
     (2, "error: 1:7: unbound event name 'a'\n")),
    ("cfq-weight-table-over-the-budget", ["run", "{cfs}", "{cfq}"],
     {"cfs": WIDE + "measure { (" + ", ".join(f"{w}.c{i}=a" for w in ("F", "CF") for i in range(12))
             + ") = 1 default = 0 }\n",
      "cfq": "INTERVENE {" + ", ".join(f"F.c{i}" for i in range(12))
             + ", " + ", ".join(f"CF.c{i}" for i in range(9)) + "} WITH { default = 1/2097152 }\n"},
     (2, "error: 1:154: 2097152 rows to list, beyond the budget of 1048576\n")),
    # exit 4: a missing kernel is named by its coordinate set and rows, eight rows at most
    ("cfq-no-kernel-on-the-set", RUN, {"cfq": "INTERVENE {CF.class, CF.exam} WITH uniform\n"},
     (4, "error: no kernel on {CF.class, CF.exam}\n")),
    ("cfq-weight-table-over-a-row-partial-kernel", ["run", "{cfs}", "{cfq}"],
     {"cfs": CFS + MEASURE + KERNEL.split("  given (W.c=b)")[0] + "}\n",
      "cfq": "INTERVENE {W.c} WITH { (W.c=a) = 1/3 (W.c=b) = 2/3 }\nPROB ()\n"},
     (4, "error: kernel on {W.c} lacks rows (W.c=b) needed by the intervention measure\n")),
    ("cfq-source-over-a-kernel-missing-eleven-rows", ["run", "{cfs}", "{cfq}"],
     {"cfs": "space x\nworld W { component c { " + " ".join(map(str, range(12))) + " } }\n"
             "measure { default = 1/12 }\n"
             "kernel on {W.c} { given (W.c=0) { (W.c=0) = 1 default = 0 } }\n",
      "cfq": "SOURCE {W.c}\n"},
     (4, "error: kernel on {W.c} lacks rows " + ", ".join(f"(W.c={i})" for i in range(1, 9))
         + " and 3 more at P-positive atoms\n")),
    # the command line
    ("usage-check", ["check"], {}, USAGE_ERROR),
    ("usage-check-two-files", ["check", "a.cfs", "b.cfs"], {}, USAGE_ERROR),
    ("usage-compile", ["compile", "scm", "{scm}"], {"scm": SCM}, USAGE_ERROR),
    ("usage-compile-kind", ["compile", "dag", "{scm}", "-o", "{out}"], {"scm": SCM}, USAGE_ERROR),
    ("usage-repro", ["repro"], {}, USAGE_ERROR),
    ("unwritable-output", ["compile", "scm", "{scm}", "-o", "{tmp}/missing/out.cfs"], {"scm": SCM},
     (2, "error: cannot write {tmp}/missing/out.cfs: "
         "[Errno 2] No such file or directory: '{tmp}/missing/out.cfs'\n")),
]


@pytest.mark.parametrize("argv, files, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_diagnostic(argv, files, expected, tmp_path):
    names = {"tmp": str(tmp_path), "out": str(tmp_path / "out.cfs"),
             "exam": str(resources.files("cfspaces").joinpath("fixtures", "exam.cfs"))}
    for role, text in files.items():
        path = tmp_path / f"input.{role}"
        path.write_text(text)
        names[role] = str(path)
    out, err = io.StringIO(), io.StringIO()
    code = main([arg.format(**names) for arg in argv], out, err)
    assert (code, out.getvalue(), err.getvalue().replace(str(tmp_path), "{tmp}")) \
        == (expected[0], "", expected[1])
