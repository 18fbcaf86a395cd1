"""The three workloads: set-up, op decks, op execution and output checks.

Every workload is a closed loop with one client: each op is issued after the
previous one returns.  Ops come in decks (cycles) of fixed composition;
the seed picks the values inside each op, never the mix, so every run
measures the same shape of work.  The timed phase runs whole decks.

Ops hold only program-independent descriptions (generated models, scripts,
file names); `execute` resolves them against the context a set-up returned,
so the untraced and traced passes of a traced run share identical inputs.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import gen
import oracle

FIXTURES = ("exam", "star", "disease", "disease-asym", "dormant", "exam-cycle")
# Fixed scripts on the bundled fixtures; their transcripts are pinned by
# digest in reference.json.
FIXTURE_SCRIPTS = (
    ("exam", "CONDITION (F.class=N & F.exam=F)\nINTERVENE {CF.class} WITH point(CF.class=Y)\n"
             "PROB (CF.exam=P)\nSOURCE {CF.class}\n"),
    ("exam", "LET passed = EVENT(F.exam=P | CF.exam=P)\nPROB (!passed & F.class=Y)\n"
             "EFFECT {CF.class} ON (CF.exam=P) GIVEN (F.class=N & F.exam=F)\n"
             "INDEP (F.class=Y & F.exam=P) (CF.class=Y & CF.exam=P)\n"),
    ("exam", "CONDITION (F.exam=P)\n"
             "INTERVENE {CF.class} WITH { (CF.class=Y) = 2/3 (CF.class=N) = 1/3 }\n"
             "PROB (CF.exam=P)\nEFFECT {CF.class} ON (CF.exam=P)\n"),
    ("star", "CONDITION (F.sky=C & CF.sky=C)\nSYNC {F.star} {CF.star}\n"
             "PROB (F.star=Y & CF.star=Y)\nINDEP {F.sky} {CF.sky}\n"),
    ("disease", "PROB (F.state=S & CF.state=S)\nCONDITION (F.state=D)\nPROB (CF.state=D)\n"
                "SYNC {F.state} {CF.state}\n"),
    ("disease-asym", "PROB (CF.state=S)\nCONDITION F.state=S\nPROB (CF.state=S)\n"
                     "INDEP {F.state} {CF.state}\n"),
    ("dormant", "EFFECT {W.c2} ON (W.c3=0)\nEFFECT {W.c1} ON (W.c3=0)\n"
                "INTERVENE {W.c1} WITH uniform\nSOURCE {W.c1}\nPROB (W.c3=1)\n"),
    ("exam-cycle", "EFFECT {CF.class} ON (CF.exam=P) GIVEN F.exam=F\n"
                   "EFFECT {CF.exam} ON (CF.class=Y)\n"
                   "INTERVENE {CF.exam} WITH point(CF.exam=P)\nPROB (CF.class=Y)\n"),
)
REPRO_ARGS = (("all",), ("exam",))


@dataclass(frozen=True)
class Op:
    kind: str
    data: object


@dataclass
class Outcome:
    """A checked op: its latency and whether its output was right."""

    kind: str
    ms: float  # CPU time, not rescaled
    factor: float  # host speed factor that rescales `ms`
    ok: bool
    known_defect: bool = False
    detail: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "cfspaces" or n.startswith("cfspaces.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("cfspaces"), importlib.import_module("cfspaces.cli")


def to_model(cf, m: gen.Scm):
    noise = [(f"U{i}", gen.LABELS) for i in range(m.n)]
    dist = {tuple(gen.LABELS[b] for b in u): q for u, q in m.noise_assignments()}
    endo = [(name, gen.LABELS) for name in m.var_names]
    eqs = {
        f"X{i}": cf.StructuralEq(f"X{i}", tuple(f"X{p}" for p in m.parents[i]),
                                 (f"U{i}",), m.table(i))
        for i in range(m.n)
    }
    return cf.SCMModel(noise, dist, endo, eqs)


def keyed_measure(schema, measure) -> dict:
    """A program measure keyed by frozensets of (coordinate key, label)."""
    coords = schema.coords
    return {frozenset((coords[i].key, coords[i].labels[v]) for i, v in enumerate(o)): q
            for o, q in measure.items()}


def load_reference(bench_dir: Path) -> dict:
    return json.loads((bench_dir / "reference.json").read_text())


# -- family-verify ------------------------------------------------------------


class FamilyVerify:
    """Compile, check, intervene and re-check whole kernel families."""

    name = "family-verify"
    LIGHT_PER_HEAVY = 4

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed

    def setup(self):
        cf, _cli = fresh_import()
        return SimpleNamespace(cf=cf)

    def _op(self, rng, n: int, shape: str, j: int) -> Op:
        m = gen.gen_scm(rng, n, shape, f"{shape}{n}")
        keys = tuple(sorted(rng.sample(m.keys, 1 + j % 2), key=m.keys.index))
        dist, _text = gen.gen_law(rng, keys, ("point", "uniform", "table")[j % 3])
        spot = tuple(tuple(sorted(rng.sample(m.keys, rng.randint(1, 3)), key=m.keys.index))
                     for _ in range(2))
        return Op(f"verify-{n}", (m, keys, dist, spot))

    def cycle(self, ctx, c: int) -> list:
        """A 4-variable model of each shape, each followed by four 3-variable
        ones.  Shapes, the size of the intervened set and the kind of law
        turn with the position, so every deck does the same work."""
        rng = gen.rng_for(self.name, self.seed, c)
        ops = []
        for b, shape in enumerate(gen.SHAPES):
            ops.append(self._op(rng, 4, shape, b))
            ops += [self._op(rng, 3, gen.SHAPES[(b + j) % 3], j)
                    for j in range(1, 1 + self.LIGHT_PER_HEAVY)]
        return ops

    def traced_ops(self, ctx) -> list:
        """The first 4-variable model and its four 3-variable ones."""
        return self.cycle(ctx, 0)[: 1 + self.LIGHT_PER_HEAVY]

    def execute(self, ctx, op: Op):
        cf = ctx.cf
        m, keys, dist, _spot = op.data
        space = cf.compile_scm(to_model(cf, m))
        reports = [cf.check_axioms(space), cf.check_cross_world(space), cf.is_symmetric(space)]
        U = space.schema.positions(keys)
        Q = cf.Margin(space.schema, U, {tuple(int(lab) for lab in row): q
                                        for row, q in dist.items()})
        after = cf.intervene(space, U, Q)
        reports += [cf.check_axioms(after), cf.check_cross_world(after)]
        return space, after, reports

    def verify(self, ctx, op: Op, out) -> tuple:
        m, keys, dist, spot = op.data
        space, after, reports = out
        if not all(r.ok for r in reports):
            return False, "a check reported a violation"
        if reports[1].uncheckable or reports[2].uncheckable or reports[4].uncheckable:
            return False, "a check reported uncheckable kernels"
        ref = oracle.ScmSpace(m)
        iv = [(keys, dist)]
        if keyed_measure(space.schema, space.P) != oracle.keyed(m.keys, ref.measure([])):
            return False, "compiled measure differs from the twin-network reference"
        if keyed_measure(after.schema, after.P) != oracle.keyed(m.keys, ref.measure(iv)):
            return False, "intervened measure differs from the reference"
        report = after.derivation
        if len(report.derived) != 4 ** m.n or report.dropped:
            return False, "intervention did not derive the full kernel family"
        for S in spot:
            pos = space.schema.positions(S)
            for row in itertools.product(gen.LABELS, repeat=len(S)):
                idx = tuple(int(lab) for lab in row)
                assign = dict(zip(S, row))
                got = keyed_measure(space.schema, space.mech.get(pos).rows[idx])
                if got != oracle.keyed(m.keys, ref.base(assign)):
                    return False, f"compiled kernel on {S} differs from the reference"
                got = keyed_measure(after.schema, after.mech.get(pos).rows[idx])
                if got != oracle.keyed(m.keys, ref.kernel(iv, assign)):
                    return False, f"derived kernel on {S} differs from the reference"
        return True, ""


# -- query-session ----------------------------------------------------------------


class QuerySession:
    """Seeded query scripts against spaces loaded once and reused."""

    name = "query-session"
    # (space size, ((law, coordinates), ...) per INTERVENE) per op of a
    # deck; None = a fixture script.  Three fifths of the ops only read, so
    # the median is a read; interventions on 4-variable spaces are the
    # slowest fifth, so the 90th percentile is one of them.
    DECK = ((None, ()),) * 4 + ((3, ()),) * 4 + ((4, ()),) * 4 \
        + ((3, (("point", 1),)), (3, (("mixed", 2),)), (3, (("point", 2), ("mixed", 1)))) \
        + ((4, (("point", 1),)), (4, (("point", 2),)), (4, (("mixed", 1),)),
           (4, (("mixed", 2),)), (4, (("point", 1), ("mixed", 1))))

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.reference = load_reference(Path(__file__).resolve().parent)

    def setup(self):
        cf, _cli = fresh_import()
        rng = gen.rng_for(self.name, self.seed, "spaces")
        models = {
            3: [gen.gen_scm(rng, 3, gen.SHAPES[i % 3], f"q3_{i}") for i in range(6)],
            4: [gen.gen_scm(rng, 4, shape, f"q4_{shape}") for shape in ("chain", "collider")],
        }
        fixture_dir = self.root / "src" / "cfspaces" / "fixtures"
        fixtures = {name: cf.parse_space((fixture_dir / f"{name}.cfs").read_text()).to_space()
                    for name in FIXTURES}
        spaces = {n: [cf.compile_scm(to_model(cf, m)) for m in ms] for n, ms in models.items()}
        refs = {n: [oracle.ScmSpace(m) for m in ms] for n, ms in models.items()}
        return SimpleNamespace(cf=cf, models=models, fixtures=fixtures, spaces=spaces, refs=refs)

    def cycle(self, ctx, c: int) -> list:
        rng = gen.rng_for(self.name, self.seed, c)
        ops = []
        for j, (size, interventions) in enumerate(self.DECK):
            if size is None:
                k = (c * 4 + j) % len(FIXTURE_SCRIPTS)
                ops.append(Op("fixture", ("fixture", k)))
                continue
            idx = (c + j) % len(ctx.models[size])
            stmts = gen.gen_script(rng, ctx.models[size][idx], interventions)
            kind = "-".join(f"{law}{n}" for law, n in interventions) or "read"
            ops.append(Op(f"scm{size}-{kind}", ("scm", size, idx, stmts)))
        rng.shuffle(ops)
        return ops

    def traced_ops(self, ctx) -> list:
        return self.cycle(ctx, 0)

    def execute(self, ctx, op: Op):
        cf = ctx.cf
        if op.data[0] == "fixture":
            name, text = FIXTURE_SCRIPTS[op.data[1]]
            space = ctx.fixtures[name]
        else:
            _, size, idx, stmts = op.data
            text = gen.script_text(stmts)
            space = ctx.spaces[size][idx]
        run = cf.run_script(space, cf.parse_query(text))
        return run.lines, run.exit_code

    def verify(self, ctx, op: Op, out) -> tuple:
        lines, code = out
        if code != 0:
            return False, f"exit code {code}"
        if op.data[0] == "fixture":
            want = self.reference[f"query:{op.data[1]}"]
            return digest("\n".join(lines)) == want, "fixture transcript digest differs"
        _, size, idx, stmts = op.data
        expected = oracle.transcript(ctx.refs[size][idx], stmts)
        for got, exp in zip(lines, expected):
            if got != exp:
                return False, f"got {got!r}, expected {exp!r}"
        return len(lines) == len(expected), "transcript length differs"


# -- cli-files ----------------------------------------------------------------------


class CliFiles:
    """In-process CLI commands over seeded files, each parsed afresh."""

    name = "cli-files"

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.reference = load_reference(Path(__file__).resolve().parent)

    def setup(self):
        cf, cli = fresh_import()
        wd = self.workdir
        if wd.exists():
            shutil.rmtree(wd)
        wd.mkdir(parents=True)
        rng = gen.rng_for(self.name, self.seed, "files")
        fixture_dir = self.root / "src" / "cfspaces" / "fixtures"
        exam_text = (fixture_dir / "exam.cfs").read_text()
        ctx = SimpleNamespace(cf=cf, cli=cli, files={}, models={})

        def write(name, content):
            path = wd / name
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
            ctx.files[name] = str(path)

        for name in FIXTURES:
            ctx.files[f"{name}.cfs"] = str(fixture_dir / f"{name}.cfs")
        for k, (_fixture, text) in enumerate(FIXTURE_SCRIPTS):
            write(f"fixture{k}.cfq", text)
        # Small models for the compile commands.
        m3 = gen.gen_scm(rng, 3, "chain", "small3")
        m2 = gen.gen_scm(rng, 2, "fork", "small2")
        mb = gen.gen_scm(rng, 2, "collider", "back2")
        weight = Fraction(rng.randint(1, 3), 4)
        po = gen.gen_po(rng, "po")
        ctx.models.update(small3=m3, small2=m2, back2=(mb, weight), po=po)
        write("small3.scm", gen.scm_text(m3))
        write("small2.scm", gen.scm_text(m2))
        write("back2.scm", gen.scm_text(mb, gen.coupling_of(mb, weight)))
        write("po.po", gen.po_text(po))
        # Compiled 64-outcome spaces for `check`, written by the program.
        for shape in ("chain", "collider"):
            m = gen.gen_scm(rng, 3, shape, f"full_{shape}")
            doc = cf.doc_from_space(cf.compile_scm(to_model(cf, m)), m.name)
            write(f"full_{shape}.cfs", cf.serialize_space(doc))
        # Wide sparse spaces: 2^14 outcomes with two partial kernels and
        # 2^16 outcomes with one.
        for k, n_kernels in ((7, 2), (8, 1)):
            w = gen.gen_wide(rng, k, n_kernels, f"wide{k}")
            write(f"wide{k}.cfs", gen.wide_text(w))
            stmts = gen.wide_script(rng, w)
            write(f"wide{k}.cfq", gen.script_text(stmts))
            ctx.models[f"wide{k}"] = (w, stmts)
        ctx.malformed = {}
        for kind in gen.KNOWN_DEFECTS + gen.HANDLED_MALFORMED:
            argv, files = gen.gen_malformed(rng, kind, exam_text)
            names = {}
            for role, content in files.items():
                names[role] = f"bad_{kind}_{role}"
                write(names[role], content)
            names["out"] = f"bad_{kind}.out.cfs"
            ctx.malformed[kind] = [a.format(**{r: str(wd / n) for r, n in names.items()})
                                   for a in argv]
        return ctx

    def cycle(self, ctx, c: int) -> list:
        """The same commands in every deck, in a seeded order."""
        deck = [
            Op("compile", ("scm", "small3")), Op("compile", ("scm", "small2")),
            Op("compile", ("bscm", "back2")), Op("compile", ("po", "po")),
            Op("check", ("full_chain",)), Op("check", ("full_collider",)),
            Op("check", ("wide7",)), Op("check", ("wide8",)),
            Op("run", ("wide7",)),
        ]
        deck += [Op("run", ("fixture", k)) for k in range(len(FIXTURE_SCRIPTS))]
        deck += [Op("repro", args) for args in REPRO_ARGS]
        deck += [Op("malformed", (kind,)) for kind in gen.KNOWN_DEFECTS + gen.HANDLED_MALFORMED]
        gen.rng_for(self.name, self.seed, c).shuffle(deck)
        return deck

    def traced_ops(self, ctx) -> list:
        return self.cycle(ctx, 0)

    def argv(self, ctx, op: Op) -> list:
        f = ctx.files
        if op.kind == "compile":
            kind, model = op.data
            ext = "po" if kind == "po" else "scm"
            return ["compile", kind, f[f"{model}.{ext}"], "-o",
                    str(self.workdir / f"out_{model}.cfs")]
        if op.kind == "check":
            return ["check", f[f"{op.data[0]}.cfs"]]
        if op.kind == "run":
            if op.data[0] == "fixture":
                name = FIXTURE_SCRIPTS[op.data[1]][0]
                return ["run", f[f"{name}.cfs"], f[f"fixture{op.data[1]}.cfq"]]
            return ["run", f[f"{op.data[0]}.cfs"], f[f"{op.data[0]}.cfq"]]
        if op.kind == "repro":
            return ["repro", op.data[0]]
        return list(ctx.malformed[op.data[0]])

    def execute(self, ctx, op: Op):
        out, err = io.StringIO(), io.StringIO()
        try:
            code = ctx.cli.main(self.argv(ctx, op), out, err)
        except Exception as exc:  # an escaped exception is the op's result
            return None, out.getvalue(), err.getvalue(), type(exc).__name__
        return code, out.getvalue(), err.getvalue(), None

    def verify(self, ctx, op: Op, out) -> tuple:
        code, stdout, stderr, exc = out
        if op.kind == "malformed":
            if exc is not None:
                return False, f"{op.data[0]}: {exc} escaped the command line"
            lines = stderr.splitlines()
            ok = (code == 2 and not stdout and len(lines) == 1
                  and lines[0].startswith("error: "))
            return ok, f"{op.data[0]}: exit {code}, stderr {stderr[:200]!r}"
        if exc is not None:
            return False, f"{exc} escaped the command line"
        if code != 0:
            return False, f"exit code {code}: {stderr[:200]!r}"
        if op.kind == "check":
            return stdout == "CHECK = ok\n", f"check printed {stdout[:200]!r}"
        if op.kind == "repro":
            return digest(stdout) == self.reference[f"repro:{op.data[0]}"], "repro digest differs"
        if op.kind == "run":
            if op.data[0] == "fixture":
                want = self.reference[f"query:{op.data[1]}"]
                return digest(stdout.rstrip("\n")) == want, "fixture transcript digest differs"
            w, stmts = ctx.models[op.data[0]]
            space = oracle.TableSpace(w.keys, w.measure, w.kernels)
            expected = "".join(line + "\n" for line in oracle.transcript(space, stmts))
            return stdout == expected, f"got {stdout!r}, expected {expected!r}"
        return self._verify_compile(ctx, op, stdout)

    def _verify_compile(self, ctx, op: Op, stdout: str) -> tuple:
        kind, model = op.data
        path = self.workdir / f"out_{model}.cfs"
        if stdout != f"wrote {path}\n":
            return False, f"compile printed {stdout!r}"
        measure, kernels = oracle.read_cfs(path.read_text())
        if kind == "scm":
            m = ctx.models[model]
            if measure != oracle.scm_twin_measure(m):
                return False, "compiled measure differs from the twin-network reference"
            if len(kernels) != 4 ** m.n - 1:
                return False, f"{len(kernels)} kernels written"
            ref = oracle.ScmSpace(m)
            for on, rows in kernels.items():
                for row, body in rows.items():
                    if body != oracle.keyed(m.keys, ref.base(dict(row))):
                        return False, f"kernel on {on} differs from the reference"
            return True, ""
        if kernels:
            return False, "a probability-space compiler wrote kernels"
        if kind == "bscm":
            m, weight = ctx.models[model]
            want = oracle.backtracking_measure(m, gen.coupling_of(m, weight))
        else:
            want = oracle.po_measure(ctx.models[model])
        return measure == want, "compiled measure differs from the reference"


WORKLOADS = {w.name: w for w in (FamilyVerify, QuerySession, CliFiles)}
