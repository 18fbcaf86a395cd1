"""The mutation register: small, exact edits of `src/` that the tests must catch.

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries only

Each entry names a module of the package, an exact snippet of it and its
replacement, and the pytest node ids that must fail once the snippet is
replaced.  The script copies `src/` to a temporary directory and first runs
every chosen node id against the unmutated copy, which must pass.  Then, one
entry at a time, it applies the edit to the copy, runs only that entry's
node ids and restores the file.  An entry is

- killed when pytest reports a failed test (exit code 1);
- a survivor when every node id passes;
- stale when its snippet is not found exactly once in the module;
- broken when pytest exits otherwise (an unknown node id, an import error).

Only killed entries pass: the script prints one line per entry and exits 1
if any entry is not killed.  It needs pytest and the stdlib, and is not a
test module, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cfspaces"

# (name, module of the package, snippet, replacement, node ids that must fail)
MUTANTS = [
    ("label-map-drops-a-label", "space.py",
     "{lab: i for i, lab in enumerate(c.labels)}",
     "{lab: i for i, lab in enumerate(c.labels[:-1])}",
     ["tests/test_space.py::test_the_name_tables_agree_with_the_formulas_they_replace"]),
    ("missing-rows-named-without-a-cap", "mechanism.py",
     "schema.describe_row(S, row) for row in rows[:8])",
     "schema.describe_row(S, row) for row in rows)",
     ["tests/test_diagnostics.py::test_diagnostic"]),
    ("conditioning-rebuilt-at-every-read", "query.py",
     "        if held is None:\n"
     "            held = current.P if cond is None else condition_event(current.P, cond)\n",
     "        if True:\n"
     "            held = current.P if cond is None else condition_event(current.P, cond)\n",
     ["tests/test_query_cli.py::TestQueryScripts::test_a_condition_is_applied_once_and_held"]),
    ("held-condition-outlives-an-intervention", "query.py",
     "                current = intervene(current, U, _build_margin(schema, U, stmt.dist))\n"
     "                held = None\n",
     "                current = intervene(current, U, _build_margin(schema, U, stmt.dist))\n",
     ["tests/test_query_cli.py::TestQueryScripts::test_the_held_condition_follows_interventions"]),
    ("list-event-read-as-coordinates", "mechanism.py",
     "() if isinstance(target, (int, str, Coordinate)) else tuple(target)",
     "tuple(target) if isinstance(target, (set, frozenset)) else ()",
     ["tests/test_mechanism.py::TestSources"
      "::test_a_target_of_outcomes_is_an_event_and_any_other_names_coordinates"]),
    # Mutations that earlier changes checked by hand on a scratch copy.
    ("conditionals-yield-p-not-p-given-the-atom", "mechanism.py",
     "        yield row, Measure._of(P.schema, P.on, {o: n[o] for o in atom})\n",
     "        yield row, P\n",
     ["tests/test_oracles.py::TestConditionSigmaOracle::test_rows_are_p_given_each_positive_atom"]),
    ("source-scan-materialises-the-conditionals", "mechanism.py",
     "    for row, given in _conditionals(space.P, U):\n",
     "    for row, given in list(_conditionals(space.P, U)):\n",
     ["tests/test_mechanism.py::TestSources::test_a_failing_scan_conditions_only_the_atoms_it_reaches"]),
    ("cross-world-check-takes-marginals-per-row", "worlds.py",
     "                if table != scaled[ck]:\n",
     "                if m.marginal(t_world) != m_ref.marginal(t_world):\n",
     ["tests/test_oracles.py::TestWholeFamilyWork::test_forced_chain_and_its_intervention"]),
    ("symmetry-settles-a-mirror-with-fewer-rows", "worlds.py",
     "found and len(k.rows) == len(k_star.rows):\n",
     "found:\n",
     ["tests/test_worlds.py::TestSymmetry"
      "::test_a_clean_pass_settles_the_mirror_only_with_as_many_rows"]),
    ("plans-keyed-on-the-factual-partition-alone", "compilers.py",
     "        if (pf, pc) not in plans:\n"
     "            plans[pf, pc] = _plan(pf, pc, weights)\n"
     "        blocks, nums = plans[pf, pc]\n",
     "        if pf not in plans:\n"
     "            plans[pf] = _plan(pf, pc, weights)\n"
     "        blocks, nums = plans[pf]\n",
     ["tests/test_compilers.py::TestAgainstEnumeration::test_scm_measure_and_every_kernel_row"]),
    # The read of a whole table or kernel row, and the token path behind it.
    ("table-read-accepts-a-repeated-key", "parser.py",
     "        if k is None or v is None or k in table:\n",
     "        if k is None or v is None:\n",
     ["tests/test_parser.py::test_malformed_entry_diagnostics[duplicate entry]",
      "tests/test_grammar.py::test_table_reader_reads_as_the_token_path"]),
    ("row-read-skips-the-law", "parser.py",
     "                rows[row] = measure_of(table)\n",
     "                rows[row] = Measure._of(schema, schema.all_on, dict.fromkeys(table.entries, 1))\n",
     ["tests/test_diagnostics.py::test_diagnostic[cfs-kernel-row-short]",
      "tests/test_grammar.py::test_table_reader_reads_as_the_token_path"]),
    ("match-counts-lines-to-the-start-of-the-match", "parser.py",
     '            newlines = self.text.count("\\n", pos, end)\n'
     "            if newlines:\n"
     "                line += newlines\n"
     '                line_start = self.text.rfind("\\n", pos, end) + 1\n',
     '            newlines = self.text.count("\\n", pos, m.start(1))\n'
     "            if newlines:\n"
     "                line += newlines\n"
     '                line_start = self.text.rfind("\\n", pos, m.start(1)) + 1\n',
     ["tests/test_parser.py::test_kernel_set_diagnostics",
      "tests/test_diagnostics.py::test_diagnostic[cfs-duplicate-given-row]"]),
    ("table-read-takes-default-for-a-key", "parser.py",
     "(?!default\\b){key}",
     "{key}",
     ["tests/test_grammar.py::test_table_reader_reads_as_the_token_path"]),
    ("coupling-key-resolves-its-rows-swapped", "parser.py",
     "pair = tuple(map(key.resolve, re.findall(_PARENS, text)))",
     "pair = tuple(map(key.resolve, re.findall(_PARENS, text)[::-1]))",
     ["tests/test_grammar.py::test_table_reader_reads_as_the_token_path"]),
    # a repeated key sends the whole table to the token path, so only the work shows it
    ("coupling-key-resolves-the-first-row-twice", "parser.py",
     "pair = tuple(map(key.resolve, re.findall(_PARENS, text)))",
     "pair = tuple(map(key.resolve, re.findall(_PARENS, text)[:1] * 2))",
     ["tests/test_parser.py::TestEntryPath::test_a_coupled_model_is_read_with_one_match_per_table"]),
    ("coupling-read-by-tokens-alone", "parser.py",
     "        return None if None in pair else pair\n",
     "        return None\n",
     ["tests/test_parser.py::TestEntryPath::test_a_coupled_model_is_read_with_one_match_per_table"]),
    # Measures from .cfs text to the engine and back (`Table.law`,
    # `SpaceDocument.to_space`, `fraction_text`), and the constructors that
    # check a hand-built document.
    ("to-space-takes-any-measure", "parser.py",
     "        if not isinstance(P, Measure) or P.schema != self.schema():\n",
     "        if False:\n",
     ["tests/test_parser.py::TestOutcomeKeys::test_only_measures_on_the_schema_are_taken[margin]",
      "tests/test_parser.py::TestOutcomeKeys"
      "::test_only_measures_on_the_schema_are_taken[other-schema]"]),
    ("kernel-takes-a-row-on-another-schema", "mechanism.py",
     "            if not isinstance(measure, Measure) or measure.schema != schema:\n",
     "            if not isinstance(measure, Measure):\n",
     ["tests/test_mechanism.py::TestConstructors::test_kernel[another-schema]",
      "tests/test_parser.py::TestOutcomeKeys"
      "::test_only_measures_on_the_schema_are_taken[other-schema]"]),
    ("law-sum-ignores-the-default", "parser.py",
     "        total = sum(nums.values()) + fill * unlisted\n",
     "        total = sum(nums.values())\n",
     ["tests/test_parser.py::TestParseSpace::test_uniform_via_default_only"]),
    ("writer-drops-the-gcd", "parser.py",
     "    g = math.gcd(n, d)\n",
     "    g = 1\n",
     ["tests/test_exact_tables.py::test_the_entry_writer_prints_the_reduced_fraction",
      "tests/test_parser.py::TestRoundTrip::test_wide_sparse_document_is_byte_identical"]),
    # Rejections and skips that only direct tests reach.
    ("intervene-takes-a-measure-off-the-intervened-set", "mechanism.py",
     "    if Q.schema != schema or set(Q.on) != set(U):\n",
     "    if Q.schema != schema:\n",
     ["tests/test_mechanism.py::TestConstructors"
      "::test_intervene_needs_a_measure_on_the_intervened_coordinates[another-set]"]),
    ("effect-reads-an-absent-partner-kernel", "mechanism.py",
     "        if partner not in mech:\n            continue\n",
     "",
     ["tests/test_mechanism.py::TestClassifyEffect::test_an_absent_partner_kernel_is_passed_over"]),
    ("effect-reads-an-absent-partner-row", "mechanism.py",
     "            if not k_p.has_row(sub):\n                continue\n",
     "",
     ["tests/test_mechanism.py::TestClassifyEffect::test_an_absent_partner_row_is_passed_over"]),
    ("symmetry-takes-a-mirror-that-misses-a-world", "worlds.py",
     "            != schema.all_positions:\n",
     "            != schema.all_positions and False:\n",
     ["tests/test_worlds.py::TestRejections"
      "::test_symmetry_needs_two_worlds_or_a_covering_mirror"]),
    ("indep-drops-its-given", "query.py",
     "                    base = condition_event(base, eval_expr(stmt.given, schema, bindings))\n",
     "                    pass\n",
     ["tests/test_query_cli.py::TestQueryScripts::test_indep_given[events-constant]",
      "tests/test_query_cli.py::TestQueryScripts::test_indep_given[sets-constant]"]),
    # The lazy derivation of an intervened mechanism (`_lookup`, `_derive`, `_scan`).
    ("derivation-carries-over-on-overlap", "mechanism.py",
     "        if k_w is None or U <= S:\n",
     "        if k_w is None or U & S:\n",
     ["tests/test_oracles.py::TestInterveneOracle"
      "::test_lazy_interventions_match_the_eager_definition"]),
    ("derivation-reads-the-wrong-parent-key", "mechanism.py",
     "        k_w = parent._lookup(S | U)\n",
     "        k_w = parent._lookup(S)\n",
     ["tests/test_oracles.py::TestInterveneOracle"
      "::test_lazy_interventions_match_the_eager_definition"]),
    ("chain-walk-builds-the-wrong-ancestor-keys", "mechanism.py",
     "            mech, key = mech._source[0], key | mech._source[1]\n",
     "            mech, key = mech._source[0], key\n",
     ["tests/test_mechanism.py::TestLazyIntervention"
      "::test_a_chain_builds_only_the_kernels_its_read_needs"]),
    ("derivation-keeps-an-empty-kernel", "mechanism.py",
     "        return Kernel._of(self.schema, S, rows) if rows else None\n",
     "        return Kernel._of(self.schema, S, rows)\n",
     ["tests/test_oracles.py::TestInterveneOracle"
      "::test_lazy_interventions_match_the_eager_definition"]),
    ("scan-misses-a-drop-note", "mechanism.py",
     "                    dropped.append(DerivationNote(W, None, W | U))\n",
     "                    pass\n",
     ["tests/test_oracles.py::TestInterveneOracle"
      "::test_lazy_interventions_match_the_eager_definition"]),
    ("scan-notes-in-the-wrong-order", "mechanism.py",
     "        for W in parent.keys():\n",
     "        for W in reversed(parent.keys()):\n",
     ["tests/test_oracles.py::TestInterveneOracle"
      "::test_lazy_interventions_match_the_eager_definition"]),
    ("scan-skips-the-completeness-check", "mechanism.py",
     "                    rows = {row for row, parts in plan if parts is not None}\n",
     "                    rows = {row for row, parts in plan}\n",
     ["tests/test_oracles.py::TestInterveneOracle"
      "::test_lazy_interventions_match_the_eager_definition"]),
    # An intervened family at the cost of its rows, and the one-visit cross-world check.
    ("scan-takes-a-partial-source-as-total", "mechanism.py",
     "            total = len(present[W]) == self.schema.size(W)\n",
     "            total = True\n",
     ["tests/test_mechanism.py::TestDerivationWork::test_a_row_partial_source_still_plans_and_drops",
      "tests/test_oracles.py::TestInterveneOracle"
      "::test_lazy_interventions_match_the_eager_definition"]),
    ("one-part-reuse-on-two-parts", "mechanism.py",
     "if len(parts) == 1",
     "if len(parts) <= 2",
     ["tests/test_mechanism.py::TestLazyIntervention::test_kernels_are_built_when_read",
      "tests/test_oracles.py::TestInterveneOracle"
      "::test_lazy_interventions_match_the_eager_definition"]),
    ("cross-world-fast-pass-skips-a-world", "worlds.py",
     "            for row, m in k_s.rows.items():\n",
     "            for row, m in k_s.rows.items() if world == schema.worlds[0] else ():\n",
     ["tests/test_oracles.py::TestCrossWorldOracle"
      "::test_reports_are_world_major_and_only_failing_kernels_are_walked_again",
      "tests/test_oracles.py::TestCrossWorldOracle::test_reports_match_the_per_atom_loop"]),
    # Events held as rows on the coordinates they name.
    ("event-join-ignores-a-conflict", "space.py",
     "        shared = [p for p in other.on if p in self.on]\n",
     "        shared = []\n",
     ["tests/test_oracles.py::TestEventOracle::test_events_agree_with_the_outcome_walk",
      "tests/test_space.py::TestCylinder::test_intersection_rule"]),
    ("complement-over-every-coordinate", "space.py",
     "Event(self.schema, self.on, frozenset(self.schema.rows(self.on)) - self.rows)",
     "Event(self.schema, self.schema.all_on, frozenset(self.schema.rows(self.schema.all_on)) - self.rows)",
     ["tests/test_oracles.py::TestEventOracle::test_events_agree_with_the_outcome_walk"]),
    ("prob-counts-an-outcome-off-the-event", "measure.py",
     "sum(compress(w.values(), A.mask(w)))",
     "sum(compress(w.values(), [True, *A.mask(w)]))",
     ["tests/test_oracles.py::TestEventOracle::test_events_agree_with_the_outcome_walk",
      "tests/test_query_cli.py::TestQueryScripts::test_event_queries_never_list_the_outcome_space"]),
    ("event-door-skips-the-column-check", "space.py",
     "all(set(column).issubset(r) for r, column in zip(self._ranges, zip(*A)))",
     "True",
     ["tests/test_mechanism.py::TestOneCheckPerEvent::test_a_non_outcome_member_is_rejected"]),
]


def run_pytest(src: Path, node_ids) -> subprocess.CompletedProcess:
    """Run `node_ids` from the repository root against the package under `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True)


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "cfspaces", ignore=shutil.ignore_patterns("__pycache__"))
        base = run_pytest(src, list(dict.fromkeys(n for m in chosen for n in m[4])))
        if base.returncode:
            print(base.stdout[-3000:] + base.stderr[-3000:])
            print("the unmutated source fails the register's tests: nothing can be told")
            return 2
        for name, module, snippet, replacement, node_ids in chosen:
            path = src / "cfspaces" / module
            text = path.read_text(encoding="utf-8")
            found = text.count(snippet)
            if found != 1:
                print(f"STALE     {name}: the snippet occurs {found} times in {module}")
                bad += 1
                continue
            path.write_text(text.replace(snippet, replacement), encoding="utf-8")
            try:
                result = run_pytest(src, node_ids)
            finally:
                path.write_text(text, encoding="utf-8")
            status = {0: "SURVIVED", 1: "killed"}.get(result.returncode, "BROKEN")
            bad += status != "killed"
            print(f"{status:9} {name}" + ("" if status == "killed" else
                                          f" (pytest exit {result.returncode}: {' '.join(node_ids)})"))
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
