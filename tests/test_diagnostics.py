"""One pinned transcript per front-end diagnostic of the command line.

Each case writes its input files, runs `cfspaces` in-process and compares
the exit code, stdout and the whole of stderr: one `error: line:col:
message` line for bad input, the usage text for a bad command line.
"""

import io
from importlib import resources

import pytest

from cfspaces.cli import USAGE, main

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
CHECK = ["check", "{cfs}"]
RUN = ["run", "{exam}", "{cfq}"]
COMPILE_SCM = ["compile", "scm", "{scm}", "-o", "{out}"]
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
    # 12 binary components in each of two worlds: 2^24 outcomes, over space.MAX_OUTCOMES
    ("cfs-too-many-outcomes", CHECK,
     {"cfs": "space x\nworld F {\n"
             + "".join(f"  component c{i} {{ a b }}\n" for i in range(12))
             + "}\nworld CF mirror F\n"},
     (2, "error: schema exceeds 1048576 outcomes; refusing to enumerate\n")),
    # .scm
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
     (2, "error: point() must assign exactly the intervened coordinates\n")),
    ("cfq-table-row-off-the-intervened-set", RUN,
     {"cfq": "INTERVENE {CF.class} WITH { (CF.exam=P) = 1 }\nPROB ()\n"},
     (2, "error: weight table rows must assign exactly the intervened coordinates\n")),
    # at the second operand and at `point`, wherever the statement ends
    ("cfq-indep-mixed-operands", RUN, {"cfq": "INDEP {F.class} (CF.exam=P)\nPROB ()\n"},
     (2, "error: 1:17: INDEP operands must both be events or both coordinate sets\n")),
    ("cfq-indep-mixed-operands-at-the-end", RUN, {"cfq": "INDEP {F.class} (CF.exam=P)"},
     (2, "error: 1:17: INDEP operands must both be events or both coordinate sets\n")),
    ("cfq-empty-point", RUN, {"cfq": "INTERVENE {CF.class} WITH point()\nPROB ()\n"},
     (2, "error: 1:27: point() needs at least one coordinate assignment\n")),
    ("cfq-empty-point-at-the-end", RUN, {"cfq": "INTERVENE {CF.class} WITH point()"},
     (2, "error: 1:27: point() needs at least one coordinate assignment\n")),
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
