import io
import re
from fractions import Fraction
from importlib import resources

import pytest

from cfspaces import ParseError, parse_query, run_script
from cfspaces import ConditioningUndefinedError, Margin, build_nway, compile_scm, intervene, parse_scm
from cfspaces import independent, synchronized
from cfspaces.cli import main
from cfspaces.query import eval_expr, fmt_decimal, fmt_value
from cfspaces.repro import FIXTURES, fixture_text
from cfspaces.space import SpaceSchema, cylinder
from conftest import chain_scm
from oracle_util import brute_independent_sigmas


def fixture_path(name: str) -> str:
    return str(resources.files("cfspaces").joinpath("fixtures", f"{name}.cfs"))


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = main(args, out, err)
    return code, out.getvalue(), err.getvalue()


class TestQueryScripts:
    def test_condition_intervene_prob(self, exam):
        script = parse_query(
            "CONDITION (F.class=N & F.exam=F);\n"
            "INTERVENE {CF.class} WITH point(CF.class=Y);\n"
            "PROB (CF.exam=P)\n")
        run = run_script(exam, script)
        assert run.lines == ["PROB (CF.exam=P) = 4/17 ~ 0.235294"]
        assert run.exit_code == 0

    def test_prob_of_everything(self, exam):
        run = run_script(exam, parse_query("PROB ()"))
        assert run.lines == ["PROB () = 1 ~ 1.000000"]

    def test_star_conditional_sync(self, star):
        script = parse_query(
            "CONDITION (F.sky=C & CF.sky=C); SYNC {F.star} {CF.star}")
        run = run_script(star, script)
        assert run.lines == ["SYNC {F.star} {CF.star} = true"]

    def test_let_binding_and_operators(self, exam):
        script = parse_query(
            "LET passed = EVENT(F.exam=P | CF.exam=P)\n"
            "PROB (!passed & F.class=Y)\n")
        run = run_script(exam, script)
        # attend & both-fail mass: 0.12 + 0.04 = 4/25
        assert run.lines == ["PROB (!passed & F.class=Y) = 4/25 ~ 0.160000"]

    def test_unbound_name(self, exam):
        from cfspaces import ParseError
        with pytest.raises(ParseError, match="unbound"):
            run_script(exam, parse_query("PROB (nothing)"))

    def test_effect_statements(self, dormant):
        run = run_script(dormant, parse_query(
            "EFFECT {W.c2} ON (W.c3=0); EFFECT {W.c1} ON (W.c3=0)"))
        assert run.lines[0] == (
            "EFFECT {W.c2} ON (W.c3=0) = active witness (W.c2=0) "
            "value 1/4 ~ 0.250000 baseline 1/2 ~ 0.500000")
        assert run.lines[1].startswith(
            "EFFECT {W.c1} ON (W.c3=0) = dormant witness {W.c1, W.c2}(W.c1=0, W.c2=0)")
        run = run_script(dormant, parse_query(
            "EFFECT {W.c1} ON (W.c3=0) GIVEN (W.c2=0); "
            "EFFECT {W.c2} ON (W.c1=0) GIVEN (W.c3=1); EFFECT {W.c3} ON (W.c3=0)"))
        assert run.lines == [
            "EFFECT {W.c1} ON (W.c3=0) GIVEN (W.c2=0) = inactive baseline 1/2 ~ 0.500000",
            "EFFECT {W.c2} ON (W.c1=0) GIVEN (W.c3=1) = undetermined missing rows (W.c2=1)",
            "EFFECT {W.c3} ON (W.c3=0) = undetermined missing {W.c3}"]
        # a compiled model has every kernel, and Y does not listen to X
        model, _, _ = parse_scm(
            "scm m noise U { 0 1 } noise V { 0 1 } dist { default = 1/4 } "
            "var X { 0 1 } var Y { 0 1 } "
            "fn X (U) { (U=0) = 0 (U=1) = 1 } fn Y (V) { (V=0) = 0 (V=1) = 1 }")
        run = run_script(compile_scm(model), parse_query("EFFECT {CF.X} ON (CF.Y=1)"))
        assert run.lines == ["EFFECT {CF.X} ON (CF.Y=1) = no-effect"]

    def test_effect_given(self, exam):
        run = run_script(exam, parse_query(
            "EFFECT {CF.class} ON (CF.exam=P) GIVEN (F.class=N & F.exam=F)"))
        assert run.lines == [
            "EFFECT {CF.class} ON (CF.exam=P) GIVEN (F.class=N & F.exam=F) = "
            "active witness (CF.class=Y) value 4/17 ~ 0.235294 "
            "baseline 3/17 ~ 0.176471"]

    def test_indep_both_forms(self, coin_indep, exam):
        run = run_script(coin_indep, parse_query("INDEP {F.c} {CF.c}"))
        assert run.lines == ["INDEP {F.c} {CF.c} = true"]
        run2 = run_script(exam, parse_query(
            "INDEP (F.class=Y & F.exam=P) (CF.class=Y & CF.exam=P)"))
        assert run2.lines == [
            "INDEP (F.class=Y & F.exam=P) (CF.class=Y & CF.exam=P) = false"]

    @pytest.mark.parametrize("statement, verdict", [
        # given F.class=Y & F.exam=P the CF weights are 32, 4, 6 and 1 (of 43):
        # P(CF.class=Y & CF.exam=P) = 32/43, but 36/43 * 38/43 = 1368/1849
        ("INDEP {CF.class} {CF.exam} GIVEN (F.class=Y & F.exam=P)", "false"),
        ("INDEP (CF.class=Y) (CF.exam=P) GIVEN (F.class=Y & F.exam=P)", "false"),
        # given F.class=Y, F.class is almost surely constant
        ("INDEP {F.class} {CF.exam} GIVEN (F.class=Y)", "true"),
        ("INDEP (F.class=Y) (CF.exam=P) GIVEN (F.class=Y)", "true"),
    ], ids=["sets", "events", "sets-constant", "events-constant"])
    def test_indep_given(self, exam, statement, verdict):
        script = parse_query(statement)
        assert run_script(exam, script).lines == [f"{statement} = {verdict}"]
        stmt, s = script.statements[0], exam.schema
        given = exam.P.condition(eval_expr(stmt.given, s, {}))
        if isinstance(stmt.a, tuple):
            oracle = brute_independent_sigmas(given, s.positions(stmt.a), s.positions(stmt.b))
        else:
            w = given.as_dict()
            A, B = (eval_expr(e, s, {}) for e in (stmt.a, stmt.b))
            p = [sum((w.get(o, 0) for o in E), Fraction(0)) for E in (A & B, A, B)]
            oracle = p[0] == p[1] * p[2]
        assert oracle == (verdict == "true")

    def test_an_empty_event_is_everything(self, exam):
        run = run_script(exam, parse_query("LET all = EVENT()\nPROB (all)\nPROB (!all)"))
        assert run.lines == ["PROB (all) = 1 ~ 1.000000", "PROB (!all) = 0 ~ 0.000000"]

    @pytest.mark.parametrize("key, message", [
        ("(CF.class=Y, CF.class=N)", "1:42: CF.class assigned twice"),
        ("(class=Y)", "1:35: expected '.', found '='"),
    ], ids=["assigned-twice", "plain-name"])
    def test_a_weight_table_key_the_reader_cannot_resolve_is_read_by_tokens(self, key, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_query(f"INTERVENE {{CF.class}} WITH {{ {key} = 1 }}")

    def test_source_statement(self, dormant):
        run = run_script(dormant, parse_query(
            "INTERVENE {W.c1} WITH uniform; SOURCE {W.c1}"))
        assert run.lines == ["SOURCE {W.c1} = true"]

    def test_check_statement(self, exam):
        run = run_script(exam, parse_query("CHECK"))
        assert run.lines == ["CHECK = ok"]
        assert run.exit_code == 0
        # the kernel on {CF.c} moves world F's coin; {F.c} lacks the row T
        half = Fraction(1, 2)
        coins = build_nway(
            {"F": [("c", ("H", "T"))], "CF": [("c", ("H", "T"))]},
            {(a, b): half / 2 for a in (0, 1) for b in (0, 1)},
            {("CF.c",): {("H",): {("H", "H"): 1}, ("T",): {("H", "T"): half, ("T", "T"): half}},
             ("F.c",): {("H",): {("H", "H"): half, ("H", "T"): half}},
             ("F.c", "CF.c"): {(a, b): {(a, b): 1} for a in "HT" for b in "HT"}})
        run = run_script(coins, parse_query("CHECK"))
        assert run.lines == [
            "CHECK = 2 violation(s)",
            "  violation no-cross-world-effect world F kernel {CF.c} given (CF.c=H): 1 != 1/2",
            "  violation no-cross-world-effect world F kernel {CF.c} given (CF.c=H): 0 != 1/2",
            "  uncheckable world F kernel {F.c, CF.c} given (F.c=T, CF.c=H) needs {F.c}",
            "  uncheckable world F kernel {F.c, CF.c} given (F.c=T, CF.c=T) needs {F.c}"]
        assert run.exit_code == 1

    def test_transcripts_are_deterministic(self, exam):
        text = ("CONDITION (F.exam=P); INTERVENE {CF.class} WITH "
                "{ (CF.class=Y) = 2/3 (CF.class=N) = 1/3 }; PROB (CF.exam=P); CHECK")
        first = run_script(exam, parse_query(text))
        second = run_script(exam, parse_query(text))
        assert first.text == second.text

    def test_and_or_of_atoms_never_list_the_outcome_space(self, monkeypatch):
        space = compile_scm(parse_scm(chain_scm(8))[0])  # 65,536 outcomes
        s = space.schema
        expr = parse_query("PROB (F.X7=1 & CF.X7=0 & F.X0=1) | CF.X3=1 | F.X1=0").statements[0].expr
        calls, outcome_set = [], SpaceSchema.outcome_set
        monkeypatch.setattr(SpaceSchema, "outcome_set",
                            lambda self: calls.append(self) or outcome_set(self))
        event = eval_expr(expr, s, {})
        assert calls == []
        both = cylinder(s, {"F.X7": "1", "CF.X7": "0", "F.X0": "1"})
        assert event == both | cylinder(s, {"CF.X3": "1"}) | cylinder(s, {"F.X1": "0"})

    def test_event_queries_never_list_the_outcome_space(self, monkeypatch):
        # the lazy 8-variable chain (65,536 outcomes) and its intervention:
        # events are rows on the coordinates they name, and measures read
        # their supports, as a script and as library calls
        space = compile_scm(parse_scm(chain_scm(8))[0])
        s = space.schema
        U = s.positions(["CF.X4"])
        spaces = (space, intervene(space, U, Margin.uniform(s, U)))
        listed = []

        def counted(name):
            fn = getattr(SpaceSchema, name)

            def listing(self, *S):  # `rows` counts only when it lists every position
                if not S or set(S[0]) == self.all_positions:
                    listed.append(name)
                return fn(self, *S)
            return listing

        for name in ("outcomes", "outcome_set", "rows"):
            monkeypatch.setattr(SpaceSchema, name, counted(name))
        text = ("LET a = EVENT(F.X0=1 & CF.X7=1)\nPROB (a)\nPROB (a | !F.X1=0)\n"
                "INDEP (a) (F.X1=0)\nSYNC {F.X0} {CF.X0}\nCONDITION (F.X1=0 | CF.X3=1)\n"
                "PROB (a)\nINDEP (a) (!CF.X3=1)\nSYNC {F.X7} {CF.X7}\n"
                "INTERVENE {CF.X2} WITH uniform\nPROB (a)\n")
        runs = [run_script(sp, parse_query(text)).lines for sp in spaces]
        assert listed == []
        a, b = cylinder(s, {"F.X0": "1", "CF.X7": "1"}), cylinder(s, {"F.X1": "0"})
        values = [(sp.P.prob(a), sp.P.prob(a | b.complement()), sp.P.condition(b).prob(a),
                   independent(sp.P, a, b), synchronized(sp.P, *map(s.world_positions, s.worlds)))
                  for sp in spaces]
        assert listed == []
        common = ["PROB (a) = 1/20 ~ 0.050000", "PROB (a | !F.X1=0) = 27/100 ~ 0.270000",
                  "INDEP (a) (F.X1=0) = false", "SYNC {F.X0} {CF.X0} = true",
                  "PROB (a) = 79/2201 ~ 0.035893", "INDEP (a) (!CF.X3=1) = false"]
        assert runs == [common + [f"SYNC {{F.X7}} {{CF.X7}} = {verdict}", "PROB (a) = 1/29 ~ 0.034483"]
                        for verdict in ("true", "false")]
        assert values == [(Fraction(1, 20), Fraction(27, 100), Fraction(1, 74), False, sync)
                          for sync in (True, False)]

    @pytest.mark.parametrize("lines, last, answer", [
        # LET e(i) = EVENT(e(i-1) & CF.exam=P), then | CF.exam=P, alternating
        (["LET e0 = EVENT(F.exam=P)"] + [f"LET e{i} = EVENT(e{i - 1} {'&|'[i % 2 == 0]} CF.exam=P)"
                                         for i in range(1, 1500)], "PROB (e1499)", "31/50"),
        (["CONDITION (F.exam=P | CF.class=Y)"] * 1500, "PROB (F.exam=P)", "62/83"),
    ], ids=["let-chain", "conditions"])
    def test_fifteen_hundred_lines_answer_as_one(self, exam, lines, last, answer):
        run = run_script(exam, parse_query("\n".join(lines + [last]) + "\n"))
        assert run.lines == [f"{last} = {answer} ~ {fmt_decimal(Fraction(answer))}"]

    def test_a_condition_is_applied_once_and_held(self, exam, monkeypatch):
        checked = []
        require = SpaceSchema.require_event
        monkeypatch.setattr(SpaceSchema, "require_event",
                            lambda self, A: checked.append(A) or require(self, A))
        run = run_script(exam, parse_query("CONDITION (F.exam=P)\n" + "PROB (CF.exam=P)\n" * 5))
        assert run.lines == ["PROB (CF.exam=P) = 27/31 ~ 0.870968"] * 5
        assert len(checked) == 6  # the CONDITION once, then one per PROB

    def test_the_held_condition_follows_interventions(self, exam):
        s = exam.schema
        X = cylinder(s, {"CF.exam": "P"})
        A = cylinder(s, {"F.class": "N"}) & cylinder(s, {"F.exam": "F"})
        after = intervene(exam, s.positions(["CF.class"]), Margin.point(s, {"CF.class": "Y"}))
        expected = [exam.P.condition(A).prob(X), after.P.condition(A).prob(X),
                    after.P.condition(A & cylinder(s, {"CF.class": "Y"})).prob(X)]
        run = run_script(exam, parse_query(
            "CONDITION (F.class=N)\nCONDITION (F.exam=F)\nPROB (CF.exam=P)\n"
            "INTERVENE {CF.class} WITH point(CF.class=Y)\nPROB (CF.exam=P)\n"
            "CONDITION (CF.class=Y)\nPROB (CF.exam=P)\n"))
        assert run.lines == [f"PROB (CF.exam=P) = {fmt_value(v)}" for v in expected]
        assert expected[1] == Fraction(4, 17)
        # a condition that the intervention makes null raises at the next read only
        stale = "CONDITION (CF.class=N)\nINTERVENE {CF.class} WITH point(CF.class=Y)\n"
        assert run_script(exam, parse_query(stale + "SOURCE {CF.class}\n")).exit_code == 0
        with pytest.raises(ConditioningUndefinedError):
            run_script(exam, parse_query(stale + "PROB ()\n"))

    def test_decimal_rendering(self):
        assert fmt_decimal(Fraction(1, 3)) == "0.333333"
        assert fmt_decimal(Fraction(2, 3)) == "0.666667"
        assert fmt_decimal(Fraction(1)) == "1.000000"
        # ties round half to even
        assert fmt_decimal(Fraction(1, 2000000)) == "0.000000"
        assert fmt_decimal(Fraction(3, 2000000)) == "0.000002"


class TestCli:
    def test_check_fixtures(self):
        for name in FIXTURES:
            code, out, err = run_cli(["check", fixture_path(name)])
            assert code == 0, (name, out, err)
            assert out.splitlines()[0] == "CHECK = ok"

    def test_run_transcript(self, tmp_path):
        script = tmp_path / "q.cfq"
        script.write_text(
            "CONDITION (F.class=N & F.exam=F);\n"
            "INTERVENE {CF.class} WITH point(CF.class=Y);\n"
            "PROB (CF.exam=P)\n")
        code, out, _ = run_cli(["run", fixture_path("exam"), str(script)])
        assert code == 0
        assert out == "PROB (CF.exam=P) = 4/17 ~ 0.235294\n"

    def test_null_conditioning_exit_code(self, tmp_path):
        script = tmp_path / "q.cfq"
        script.write_text(
            "CONDITION (F.sky=C & F.star=N & CF.sky=C & CF.star=Y); PROB ()")
        code, _, err = run_cli(["run", fixture_path("star"), str(script)])
        assert code == 3
        assert "zero" in err
        # at the CONDITION itself, with nothing after it to read the measure
        script.write_text("PROB ()\nCONDITION (F.sky=C & F.star=N & CF.sky=C & CF.star=Y)\n")
        assert run_cli(["run", fixture_path("star"), str(script)])[0] == 3

    def test_missing_kernel_exit_code(self, tmp_path):
        script = tmp_path / "q.cfq"
        script.write_text("INTERVENE {F.class} WITH point(F.class=Y); PROB ()")
        code, _, _ = run_cli(["run", fixture_path("exam"), str(script)])
        assert code == 4

    @pytest.mark.parametrize("script, message", [
        ("PROB (CF.zzz=P)", "1:1: unknown coordinate 'CF.zzz'"),
        ("EFFECT {CF.zzz} ON (CF.exam=P)", "1:1: unknown coordinate 'CF.zzz'"),
        ("EFFECT {CF.class, CF.class} ON (CF.exam=P)",
         "1:19: coordinate 'CF.class' listed twice"),
        ("PROB ()\nSYNC {F.exam} {CF.exam, F.exam,\n CF.exam}",
         "3:2: coordinate 'CF.exam' listed twice"),
    ])
    def test_coordinate_references_are_named_as_written(self, script, message, tmp_path):
        path = tmp_path / "q.cfq"
        path.write_text(script)
        assert run_cli(["run", fixture_path("exam"), str(path)]) == (2, "", f"error: {message}\n")

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfs"
        bad.write_text("space x\nworld W {\n  component c { a a }\n}\n")
        code, _, err = run_cli(["check", str(bad)])
        assert code == 2
        assert "3:" in err

    @pytest.mark.parametrize("kind", ["intervene-weights", "deep-parens", "not-utf8"])
    def test_malformed_input_is_one_error_line(self, kind, tmp_path):
        exam = tmp_path / "exam.cfs"
        exam.write_text(fixture_text("exam"))
        script = tmp_path / "q.cfq"
        args = ["run", str(exam), str(script)]
        if kind == "intervene-weights":
            script.write_text("INTERVENE {CF.class} WITH "
                              "{ (CF.class=Y) = 1/2 (CF.class=N) = 1/3 }; PROB ()")
        elif kind == "deep-parens":
            script.write_text("PROB " + "(" * 3000 + "CF.exam=P" + ")" * 3000)
        else:
            exam.write_bytes(b"# \xff\xfe\n" + fixture_text("exam").encode())
            args = ["check", str(exam)]
        code, out, err = run_cli(args)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_expression_nesting_limit(self, exam):
        from cfspaces import ParseError
        from cfspaces.query import MAX_NESTING
        deepest = "PROB " + "!(" * (MAX_NESTING // 2) + "CF.exam=P" + ")" * (MAX_NESTING // 2)
        assert run_script(exam, parse_query(deepest)).lines
        with pytest.raises(ParseError, match=r"^1:\d+: .*nests deeper"):
            parse_query("PROB !" + deepest[5:])

    def test_usage_exit_code(self):
        assert run_cli([])[0] == 5
        assert run_cli(["frobnicate"])[0] == 5
        assert run_cli(["repro", "nope"])[0] == 5
        assert run_cli(["run", "one-arg-only"])[0] == 5

    def test_missing_file_is_a_parse_error(self):
        code, _, err = run_cli(["check", "/nonexistent/path.cfs"])
        assert code == 2

    def test_violation_exit_code(self, tmp_path):
        text = fixture_text("dormant").replace(
            "    (W.c1=0, W.c2=0, W.c3=0) = 1/8\n    (W.c1=0, W.c2=0, W.c3=1) = 7/8\n",
            "    (W.c1=0, W.c2=0, W.c3=0) = 1/8\n    (W.c1=1, W.c2=0, W.c3=1) = 7/8\n")
        bad = tmp_path / "tampered.cfs"
        bad.write_text(text)
        code, out, _ = run_cli(["check", str(bad)])
        assert code == 1
        assert "interventional-determinism" in out

    def test_check_statement_sets_exit_code(self, tmp_path):
        text = fixture_text("dormant").replace(
            "    (W.c1=0, W.c2=0, W.c3=0) = 1/8\n    (W.c1=0, W.c2=0, W.c3=1) = 7/8\n",
            "    (W.c1=0, W.c2=0, W.c3=0) = 1/8\n    (W.c1=1, W.c2=0, W.c3=1) = 7/8\n")
        bad = tmp_path / "tampered.cfs"
        bad.write_text(text)
        script = tmp_path / "q.cfq"
        script.write_text("PROB (W.c3=0); CHECK")
        code, out, _ = run_cli(["run", str(bad), str(script)])
        assert code == 1
        assert out.splitlines()[0] == "PROB (W.c3=0) = 1/2 ~ 0.500000"

    def test_repro_all(self):
        code, out, _ = run_cli(["repro", "all"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 30
        assert all(line.endswith(" PASS") for line in lines)

    def test_repro_single_set(self):
        code, out, _ = run_cli(["repro", "exam"])
        assert code == 0
        assert out.splitlines()[0] == (
            "exam:pass-again-given-attend-pass = 38/43 expected 38/43 PASS")

    def test_compile_scm_roundtrip(self, tmp_path):
        model = tmp_path / "chain.scm"
        model.write_text(
            "scm chain\n"
            "noise Ux { 0 1 }\nnoise Uy { 0 1 }\n"
            "dist { default = 1/4 }\n"
            "var X { 0 1 }\nvar Y { 0 1 }\n"
            "fn X (Ux) { (Ux=0) = 0  (Ux=1) = 1 }\n"
            "fn Y (X, Uy) { (X=0, Uy=0) = 0  (X=0, Uy=1) = 1 "
            "(X=1, Uy=0) = 1  (X=1, Uy=1) = 0 }\n")
        out_file = tmp_path / "chain.cfs"
        code, _, err = run_cli(["compile", "scm", str(model), "-o", str(out_file)])
        assert code == 0, err
        code, out, _ = run_cli(["check", str(out_file)])
        assert code == 0
        script = tmp_path / "q.cfq"
        script.write_text("INTERVENE {CF.X} WITH point(CF.X=1); PROB (CF.Y=1)")
        code, out, _ = run_cli(["run", str(out_file), str(script)])
        assert code == 0
        assert out == "PROB (CF.Y=1) = 1/2 ~ 0.500000\n"

    def test_compile_scm_refuses_more_kernels_than_the_budget(self, tmp_path, monkeypatch):
        spaces = []
        monkeypatch.setattr("cfspaces.cli.compile_scm",
                            lambda model: spaces.append(compile_scm(model)) or spaces[-1])
        n = 7  # 4^7 kernels, 3^14 kernel rows to write
        model = tmp_path / "wide.scm"
        model.write_text(
            "scm wide\n"
            + "".join(f"noise U{i} {{ 0 1 }}\n" for i in range(n))
            + f"dist {{ default = 1/{2 ** n} }}\n"
            + "".join(f"var V{i} {{ 0 1 }}\n" for i in range(n))
            + "".join(f"fn V{i} (U{i}) {{ (U{i}=0) = 0  (U{i}=1) = 1 }}\n" for i in range(n)))
        out_file = tmp_path / "wide.cfs"
        code, out, err = run_cli(["compile", "scm", str(model), "-o", str(out_file)])
        assert (code, out) == (2, "")
        assert err == "error: 4782969 rows to list, beyond the budget of 1048576\n"
        assert not out_file.exists()
        assert repr(spaces[0].mech) == "Mechanism(kernels built: 1)"  # the empty kernel only

    def test_a_sparse_space_over_the_budget_is_checked_and_queried(self, tmp_path):
        # 12 binary components in each of two worlds: 2^24 outcomes, two of them
        # in the support, and both worlds copy one coin
        cfs = tmp_path / "wide.cfs"
        cfs.write_text(
            "space wide\nworld F {\n" + "".join(f"  component c{i} {{ a b }}\n" for i in range(12))
            + "}\nworld CF mirror F\nmeasure {\n"
            + "".join("  (" + ", ".join(f"{w}.c{i}={lab}" for w in ("F", "CF") for i in range(12))
                      + ") = 1/2\n" for lab in "ab")
            + "  default = 0\n}\n")
        assert run_cli(["check", str(cfs)]) == (0, "CHECK = ok\n", "")
        script = tmp_path / "q.cfq"
        script.write_text("SYNC {F.c0} {CF.c11}\nINDEP {F.c0} {CF.c0}\n"
                          "SYNC {F.c0, F.c1} {CF.c5}\n")
        assert run_cli(["run", str(cfs), str(script)]) == (
            0, "SYNC {F.c0} {CF.c11} = true\nINDEP {F.c0} {CF.c0} = false\n"
               "SYNC {F.c0, F.c1} {CF.c5} = true\n", "")
        # an event is read off its rows on the coordinates it names
        script.write_text("PROB (F.c0=a)\n")
        assert run_cli(["run", str(cfs), str(script)]) == (
            0, "PROB (F.c0=a) = 1/2 ~ 0.500000\n", "")

    def test_compile_bscm_needs_coupling(self, tmp_path):
        model = tmp_path / "m.scm"
        model.write_text(
            "scm m\nnoise U { 0 1 }\ndist { default = 1/2 }\n"
            "var V { 0 1 }\nfn V (U) { (U=0) = 0  (U=1) = 1 }\n")
        out_file = tmp_path / "m.cfs"
        code, _, err = run_cli(["compile", "bscm", str(model), "-o", str(out_file)])
        assert code == 2
        assert "coupling" in err
        model.write_text(model.read_text() +
                         "coupling { ((U=0), (U=0)) = 1/2  ((U=1), (U=1)) = 1/2 "
                         "default = 0 }\n")
        code, _, err = run_cli(["compile", "bscm", str(model), "-o", str(out_file)])
        assert code == 0, err
        code, out, _ = run_cli(["check", str(out_file)])
        assert code == 0

    def test_compile_po(self, tmp_path):
        model = tmp_path / "toy.po"
        model.write_text(
            "po toy\nunits { always never complier defier }\n"
            "dist { default = 1/4 }\n"
            "var X { 0 1 }\nvar Y { P F }\n"
            "observe X { always = 1  never = 0  complier = 1  defier = 0 }\n"
            "observe Y { always = P  never = F  complier = P  defier = P }\n"
            "potential Y given (X=1) "
            "{ always = P  never = F  complier = P  defier = F }\n"
            "potential Y given (X=0) "
            "{ always = P  never = F  complier = F  defier = P }\n")
        out_file = tmp_path / "toy.cfs"
        code, _, err = run_cli(["compile", "po", str(model), "-o", str(out_file)])
        assert code == 0, err
        script = tmp_path / "q.cfq"
        script.write_text("PROB (W1.Y=P & W2.Y=F)")
        code, out, _ = run_cli(["run", str(out_file), str(script)])
        assert code == 0
        assert out == "PROB (W1.Y=P & W2.Y=F) = 1/4 ~ 0.250000\n"

    def test_cyclic_model_exit_code(self, tmp_path):
        model = tmp_path / "cyc.scm"
        model.write_text(
            "scm cyc\nnoise U { 0 }\ndist { default = 1 }\n"
            "var A { 0 1 }\nvar B { 0 1 }\n"
            "fn A (B) { (B=0) = 1  (B=1) = 0 }\n"
            "fn B (A) { (A=0) = 1  (A=1) = 0 }\n")
        code, _, err = run_cli(["compile", "scm", str(model), "-o",
                                str(tmp_path / "cyc.cfs")])
        assert code == 2
        assert "cyclic" in err
