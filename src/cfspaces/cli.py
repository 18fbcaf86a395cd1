"""Command-line surface.

Subcommands:
  check <file.cfs>                 axiom and cross-world report
  run <file.cfs> <file.cfq>        execute a query script, transcript on stdout
  compile scm|bscm|po <model> -o <out.cfs>
  repro <set|all>                  recompute the bundled reference numbers

Exit codes: 0 ok, 1 axiom violation or failed reproduction, 2 parse or
model error, 3 undefined conditioning, 4 missing kernel, 5 usage.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import sys

from .compilers import compile_backtracking, compile_po, compile_scm
from .measure import ConditioningUndefinedError
from .mechanism import MissingKernelError
from .modelio import parse_po, parse_scm
from .parser import ParseError, doc_from_space, parse_space, serialize_space
from .query import parse_query, render_check, run_script
from .repro import FIXTURES, run_repro

USAGE = """\
usage: cfspaces <command> [arguments]

commands:
  check <file.cfs>
  run <file.cfs> <file.cfq>
  compile scm|bscm|po <model-file> -o <out.cfs>
  repro <exam|star|disease|disease-asym|dormant|exam-cycle|all>
"""

# Exit code per error type, first match wins: parse, schema, model and
# decoding errors are all ValueErrors, and so is undefined conditioning.
EXIT_CODES = (
    (ConditioningUndefinedError, 3),
    (MissingKernelError, 4),
    (ValueError, 2),
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _cmd_check(args, out, err) -> int:
    if len(args) != 1:
        print(USAGE, file=err)
        return 5
    space = parse_space(_read(args[0])).to_space()
    lines, bad = render_check(space)
    for line in lines:
        print(line, file=out)
    return 1 if bad else 0


def _cmd_run(args, out, err) -> int:
    if len(args) != 2:
        print(USAGE, file=err)
        return 5
    space = parse_space(_read(args[0])).to_space()
    script = parse_query(_read(args[1]))
    result = run_script(space, script)
    for line in result.lines:
        print(line, file=out)
    return result.exit_code


def _cmd_compile(args, out, err) -> int:
    if len(args) != 4 or args[0] not in ("scm", "bscm", "po") or args[2] != "-o":
        print(USAGE, file=err)
        return 5
    kind, model_path, _, out_path = args
    text = _read(model_path)
    if kind == "po":
        model, name = parse_po(text)
        space = compile_po(model)
    else:
        model, coupling, name = parse_scm(text)
        if kind == "scm":
            space = compile_scm(model)
        else:
            if coupling is None:
                raise ParseError("backtracking compilation needs a 'coupling' block")
            space = compile_backtracking(model, coupling)
    doc = doc_from_space(space, name)
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(serialize_space(doc))
    except OSError as exc:
        raise ParseError(f"cannot write {out_path}: {exc}") from None
    print(f"wrote {out_path}", file=out)
    return 0


def _cmd_repro(args, out, err) -> int:
    if len(args) != 1:
        print(USAGE, file=err)
        return 5
    names = FIXTURES if args[0] == "all" else (args[0],)
    if any(n not in FIXTURES for n in names):
        print(USAGE, file=err)
        return 5
    lines, ok = run_repro(names)
    for line in lines:
        print(line, file=out)
    return 0 if ok else 1


def main(argv=None, out=None, err=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = out or sys.stdout
    err = err or sys.stderr
    commands = {
        "check": _cmd_check,
        "run": _cmd_run,
        "compile": _cmd_compile,
        "repro": _cmd_repro,
    }
    if not argv or argv[0] not in commands:
        print(USAGE, file=err)
        return 5
    try:
        return commands[argv[0]](argv[1:], out, err)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=err)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
