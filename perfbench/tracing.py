"""Tracing from outside the program: wrappers, spans and per-layer metrics.

`Tracer.install` replaces the public functions and methods one module of
the package calls in another (and the entry points the benchmark calls)
with wrappers that record a span each: name, start, end, parent span and
op id.  Spans live in flat arrays in memory and are written out once, at
the end.  Span times are CPU time of the thread.  A layer's self time is
the summed duration of its spans minus the time covered by their child
spans.  Work counters are read off the objects
the wrapped calls take and return.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import weakref
from array import array
from collections import Counter
from time import thread_time_ns

# (module, attribute, span name): module-level functions.  Every binding of
# the same function object in any module of the package is replaced, so
# calls through `from .x import f` are traced too.
FUNCTIONS = (
    ("parser", "tokenize", "parser.tokenize"),
    ("parser", "parse_space", "parser.parse_space"),
    ("parser", "doc_from_space", "parser.doc_from_space"),
    ("parser", "serialize_space", "parser.serialize_space"),
    ("modelio", "parse_scm", "modelio.parse_scm"),
    ("modelio", "parse_po", "modelio.parse_po"),
    ("compilers", "compile_scm", "compilers.compile_scm"),
    ("compilers", "compile_backtracking", "compilers.compile_backtracking"),
    ("compilers", "compile_po", "compilers.compile_po"),
    ("space", "cylinder", "space.cylinder"),
    ("space", "atoms_of", "space.atoms_of"),
    ("measure", "condition_event", "measure.condition_event"),
    ("measure", "independent", "measure.independent"),
    ("measure", "independent_sigmas", "measure.independent"),
    ("measure", "synchronized", "measure.synchronized"),
    ("mechanism", "check_axioms", "mechanism.check_axioms"),
    ("mechanism", "intervene", "mechanism.intervene"),
    ("mechanism", "classify_effect", "mechanism.classify_effect"),
    ("mechanism", "conditional_active_effect", "mechanism.conditional_active_effect"),
    ("mechanism", "global_source", "mechanism.global_source"),
    ("worlds", "check_cross_world", "worlds.check_cross_world"),
    ("worlds", "is_symmetric", "worlds.is_symmetric"),
    ("query", "parse_query", "query.parse_query"),
    ("query", "eval_expr", "query.eval_expr"),
    ("query", "run_script", "query.run_script"),
    ("cli", "main", "cli.main"),
    ("repro", "run_repro", "repro.run_repro"),
)
# (module, class, method, span name)
METHODS = (
    ("parser", "SpaceDocument", "to_space", "parser.to_space"),
    ("measure", "Measure", "prob", "measure.prob"),
    ("mechanism", "Mechanism", "get", "mechanism.get"),
)
CLI_COMMANDS = ("check", "run", "compile", "repro")

# Per-layer metrics in report order: (name, unit).
PER_LAYER = (
    ("parser.tokenize.ms", "ms"), ("parser.tokens", "count"),
    ("parser.parse_space.ms", "ms"), ("parser.to_space.ms", "ms"),
    ("parser.doc_from_space.ms", "ms"), ("parser.serialize_space.ms", "ms"),
    ("parser.bytes_out", "count"), ("parser.table_entries", "count"),
    ("parser.nonzero_ratio", "ratio"),
    ("modelio.parse_scm.ms", "ms"), ("modelio.parse_po.ms", "ms"),
    ("compilers.compile_scm.ms", "ms"), ("compilers.compile_backtracking.ms", "ms"),
    ("compilers.compile_po.ms", "ms"), ("compilers.kernels", "count"),
    ("compilers.kernel_rows", "count"), ("compilers.support_total", "count"),
    ("space.outcomes", "count"), ("space.cylinder.calls", "count"),
    ("space.cylinder.ms", "ms"), ("space.atoms_of.calls", "count"),
    ("space.atoms_of.ms", "ms"),
    ("measure.prob.calls", "count"), ("measure.prob.ms", "ms"),
    ("measure.condition_event.ms", "ms"), ("measure.independent.ms", "ms"),
    ("measure.synchronized.ms", "ms"),
    ("mechanism.check_axioms.ms", "ms"), ("mechanism.intervene.calls", "count"),
    ("mechanism.intervene.ms", "ms"), ("mechanism.kernels_derived", "count"),
    ("mechanism.kernels_dropped", "count"), ("mechanism.kernels_read_ratio", "ratio"),
    ("mechanism.get.calls", "count"),
    ("mechanism.classify_effect.ms", "ms"), ("mechanism.conditional_active_effect.ms", "ms"),
    ("mechanism.global_source.ms", "ms"),
    ("worlds.check_cross_world.ms", "ms"), ("worlds.is_symmetric.ms", "ms"),
    ("worlds.symmetry_useful_ratio", "ratio"),
    ("query.parse_query.ms", "ms"), ("query.eval_expr.ms", "ms"),
    ("query.run_script.ms", "ms"),
    ("cli.main.check.ms", "ms"), ("cli.main.run.ms", "ms"),
    ("cli.main.compile.ms", "ms"), ("cli.main.repro.ms", "ms"),
    ("repro.run_repro.ms", "ms"),
    ("trace.overhead_ms", "ms"), ("trace.spans", "count"),
)
# Counters that must repeat exactly for the same seed.
WORK_COUNTERS = (
    "parser.tokens", "parser.bytes_out", "parser.table_entries", "compilers.kernels",
    "compilers.kernel_rows", "compilers.support_total", "space.outcomes",
    "space.cylinder.calls", "space.atoms_of.calls", "measure.prob.calls",
    "mechanism.intervene.calls", "mechanism.kernels_derived", "mechanism.kernels_dropped",
    "mechanism.get.calls", "trace.spans",
)


def _table_sizes(doc):
    tables = [doc.measure or {}]
    tables += [body for kernel in doc.kernels for _row, body in kernel.rows]
    entries = sum(len(t) for t in tables)
    nonzero = sum(1 for t in tables for q in t.values() if q)
    return entries, nonzero


def _space_work(space):
    """(kernels, rows, support sizes summed over the measure and every row)."""
    kernels = rows = 0
    support = len(space.P.support())
    if space.mech is not None:
        for kernel in space.mech.kernels():
            kernels += 1
            rows += len(kernel.rows)
            support += sum(len(m.support()) for m in kernel.rows.values())
    return kernels, rows, support


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = 0
        self.counters: Counter = Counter()
        self._undo: list = []
        self._read_sets: dict = {}
        self._folded_reads = 0
        self._sym_id = self._id("worlds.is_symmetric")
        self._book_id = self._id("trace.bookkeeping")

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ----------------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.stack.append(i)
        return i

    def _wrap(self, fn, span_name: str, after=None):
        tracer = self
        if span_name == "cli.main":
            ids = {c: self._id(f"cli.main.{c}") for c in CLI_COMMANDS}
            other = self._id("cli.main.other")

            def name_of(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                return ids.get(argv[0] if argv else None, other)
        else:
            nid = self._id(span_name)

            def name_of(args, kwargs):
                return nid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(name_of(args, kwargs))
            t0 = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = thread_time_ns()
                tracer.stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
            if after is not None:
                # Counter bookkeeping gets a span of its own so that it is
                # not charged to the caller's self time.
                j = tracer._open(tracer._book_id)
                b0 = thread_time_ns()
                after(args, result)
                tracer.stack.pop()
                tracer.start[j] = b0
                tracer.end[j] = thread_time_ns()
            return result

        return wrapper

    # -- counters read off public objects ---------------------------------------

    def _after_tokenize(self, args, tokens):
        self.counters["parser.tokens"] += len(tokens)

    def _after_doc(self, args, doc):
        entries, nonzero = _table_sizes(doc)
        self.counters["parser.table_entries"] += entries
        self.counters["parser.nonzero_entries"] += nonzero

    def _after_serialize(self, args, text):
        self.counters["parser.bytes_out"] += len(text.encode("utf-8"))

    def _after_compile(self, args, space):
        kernels, rows, support = _space_work(space)
        self.counters["compilers.kernels"] += kernels
        self.counters["compilers.kernel_rows"] += rows
        self.counters["compilers.support_total"] += support

    def _after_intervene(self, args, space):
        report = space.derivation
        self.counters["mechanism.kernels_derived"] += len(report.derived)
        self.counters["mechanism.kernels_dropped"] += len(report.dropped)
        reads: set = set()
        self._read_sets[id(space.mech)] = reads
        weakref.finalize(space.mech, self._fold_reads, id(space.mech))

    def _fold_reads(self, key):
        self._folded_reads += len(self._read_sets.pop(key, ()))

    def _after_get(self, args, kernel):
        reads = self._read_sets.get(id(args[0]))
        if reads is not None:
            reads.add(kernel.on)

    def _after_symmetric(self, args, report):
        _k, _r, support = _space_work(args[0])
        self.counters["worlds.symmetry_useful"] += support

    def _counting_outcomes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def outcomes(schema):
            result = fn(schema)
            tracer.counters["space.outcomes"] += len(result)
            if tracer.stack and tracer.name[tracer.stack[-1]] == tracer._sym_id:
                tracer.counters["worlds.symmetry_visited"] += len(result)
            return result

        return outcomes

    # -- installation ------------------------------------------------------------

    def install(self):
        afters = {
            "parser.tokenize": self._after_tokenize,
            "parser.parse_space": self._after_doc,
            "parser.doc_from_space": self._after_doc,
            "parser.serialize_space": self._after_serialize,
            "compilers.compile_scm": self._after_compile,
            "compilers.compile_backtracking": self._after_compile,
            "compilers.compile_po": self._after_compile,
            "mechanism.intervene": self._after_intervene,
            "mechanism.get": self._after_get,
            "worlds.is_symmetric": self._after_symmetric,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cfspaces" or name.startswith("cfspaces.")]
        for mod_name, attr, span_name in FUNCTIONS:
            orig = getattr(sys.modules[f"cfspaces.{mod_name}"], attr)
            wrapper = self._wrap(orig, span_name, afters.get(span_name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"cfspaces.{mod_name}"], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(orig, span_name, afters.get(span_name)))
            self._undo.append((cls, meth, orig))
        schema_cls = sys.modules["cfspaces.space"].SpaceSchema
        orig = schema_cls.__dict__["outcomes"]
        setattr(schema_cls, "outcomes", self._counting_outcomes(orig))
        self._undo.append((schema_cls, "outcomes", orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------------------

    def self_times(self):
        """(self ns, calls) per span name."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        name = self.name
        for i in range(n):
            k = name[i]
            self_ns[k] += end[i] - start[i] - child[i]
            calls[k] += 1
        return ({self.names[k]: self_ns[k] for k in range(len(self.names))},
                {self.names[k]: calls[k] for k in range(len(self.names))})

    def metrics(self, overhead_ms: float, speed_factor: float) -> dict:
        """Per-layer metrics; self times are rescaled by `speed_factor`."""
        self_ns, calls = self.self_times()
        c = self.counters
        reads = self._folded_reads + sum(len(s) for s in self._read_sets.values())
        derived = c["mechanism.kernels_derived"]
        values = {
            "parser.nonzero_ratio": c["parser.nonzero_entries"] / c["parser.table_entries"]
            if c["parser.table_entries"] else 0.0,
            "mechanism.kernels_read_ratio": reads / derived if derived else 0.0,
            "worlds.symmetry_useful_ratio":
                c["worlds.symmetry_useful"] / c["worlds.symmetry_visited"]
                if c["worlds.symmetry_visited"] else 1.0,
            "trace.overhead_ms": overhead_ms,
            "trace.spans": len(self.start),
        }
        for name, unit in PER_LAYER:
            if name in values:
                continue
            if name.endswith(".ms"):
                values[name] = self_ns.get(name[:-3], 0) * speed_factor / 1e6
            elif name.endswith(".calls"):
                values[name] = calls.get(name[: -len(".calls")], 0)
            else:
                values[name] = c[name]
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path):
        """Write every span: a JSON header line, then the raw column arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "columns": ["start_ns:q", "end_ns:q", "parent:q", "name:l", "op:l"]}
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for col in (self.start, self.end, self.parent, self.name, self.op):
                handle.write(col.tobytes())
