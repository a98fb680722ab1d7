"""A table of small mutants of presto's sources, most of one line, each with
the tests expected to kill it.

Run it from anywhere with ``python tests/mutants.py``; the tier-1 suite does
not collect it, because its name does not start with ``test_``.

For each row the harness copies ``src/`` to a temporary directory, replaces
the row's old text with its new text (the old text must occur exactly once
in its file, so a refactor that moves it breaks the table loudly) and runs
the row's tests on that copy, each row under ``TIME_LIMIT`` seconds.  A row
whose tests fail is killed; one whose tests run past the limit counts as
killed too, because a check that never ends gives no verdict.  A row whose
tests all pass survived.  Before any row, every test the table names runs
once on an unmutated copy, and must pass.

It prints a JSON kill table and exits 1 when a row that is not listed as a
known survivor survives, or when the unmutated copy fails.  A known
survivor names the ROADMAP item that should add the test that kills it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TIME_LIMIT = 60  # seconds per row; each row of the table ends in 1 to 6 s on two cores
HYPOTHESIS_SEED = "0"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/presto
    old: str
    new: str
    tests: tuple[str, ...]  # node ids under tests/
    survivor: Optional[str] = None  # for a known survivor, the ROADMAP item it belongs to


MUTANTS = [
    # The walk over cutpoint pairs (equiv.py, fsmd.py).
    Mutant("arrive_without_meet", "equiv.py",
           "classes = _meet(pair.classes, classes)", "classes = classes",
           ("test_equiv.py::TestLoops::test_without_a_vector_the_walk_alone_keeps_the_loop_pair_apart",)),
    Mutant("split_pair_not_walked_again", "equiv.py",
           "if at not in self.queued:", "if pair is None and at not in self.queued:",
           ("test_equiv.py::TestLoops::test_sum_loop_adding_twice_is_confirmed_by_a_run_through_the_loop",
            "test_equiv.py::TestLoops::test_without_a_vector_the_walk_alone_keeps_the_loop_pair_apart")),
    Mutant("separating_reads_first_pair", "equiv.py",
           "        for p, q in pairs:", "        for p, q in pairs[:1]:",
           ("test_equiv.py::TestFsmdEquivalence::test_any_mapped_output_can_confirm_a_difference",)),
    Mutant("no_waiting_loop_check", "equiv.py",
           "diff = self._waiting_loop()", "diff = None",
           ("test_equiv.py::TestLoops::test_a_machine_that_loops_forever_is_not_equivalent_to_one_that_stops",
            "test_equiv.py::TestLoops::test_a_loop_that_never_ends_advances_alone_where_the_other_branches")),
    Mutant("output_difference_final_at_once", "equiv.py",
           "if diff.pair is not None and walk.differs_on_whole_paths(diff):", "if diff.pair is not None:",
           ("test_paths.py::test_a_relation_hidden_by_a_cut_is_found_by_walking_through_it",)),
    Mutant("liveness_in_one_pass", "fsmd.py",
           "        if not cyclic:  # postorder", "        if True:  # postorder",
           ("test_fsmd.py::test_the_path_cover_agrees_with_the_reference",
            "test_fsmd.py::test_the_differential_covers_are_cyclic_and_acyclic")),
    Mutant("guards_not_read", "fsmd.py",
           "            reads |= ex.free_vars(g) - writes", "            pass",
           ("test_fsmd.py::TestPathCover::test_segments_liveness_cycles_and_rank_of_the_sum_loop",
            "test_fsmd.py::test_the_path_cover_agrees_with_the_reference")),
    # The conversion: every update writes 0, which both sides of a net pair
    # share, so only the conversion's check against its own net's runs sees it.
    Mutant("updates_write_zero", "convert.py",
           "updates.append(Assignment(var_of[min(t.post)], t.fn))",
           "updates.append(Assignment(var_of[min(t.post)], ex.IntConst(0)))",
           ("test_cli.py::TestChecks::test_both_symbolic_checks_agree_on_the_corpus_nets",
            "test_acceptance.py::test_criterion_1_guard_split_reproduction")),
    # Prepared runs (sim.py).
    Mutant("replayed_draws_dropped", "sim.py",
           "for _ in range(step):", "for _ in range(0):",
           ("test_sim.py::TestConfluence::test_seeds_keep_their_schedules",
            "test_sim.py::test_a_seed_that_first_chooses_late_keeps_its_schedule")),
    Mutant("plans_compiled_eagerly", "sim.py",
           "fns.append(ex.compiled_ahead(t.fn))", "fns.append(ex.compiled(t.fn))",
           ("test_sim.py::test_an_ill_sorted_fn_raises_only_where_a_run_evaluates_it",)),
    # Schedule independence over a scenario's vectors (sim.confluence_check).
    Mutant("runs_not_at_rest_end_the_check", "sim.py",
           "inconclusive = inconclusive or verdict", "return verdict",
           ("test_sim.py::TestConfluence::test_a_divergence_on_a_later_vector_outranks_a_run_that_does_not_rest",)),
    Mutant("witness_without_its_vector", "sim.py",
           'verdict._replace(witness={"vector": inputs, **verdict.witness})', "verdict",
           ("test_sim.py::TestConfluence::test_a_divergence_on_a_later_vector_outranks_a_run_that_does_not_rest",
            "test_cli.py::TestSimulate::test_schedule_independence_is_checked_on_every_vector")),
    # The walk matching every path: only a check against the runs, or a
    # witness that names the normal forms, tells a mismatch from a match.
    Mutant("walk_matches_everything", "equiv.py",
           "diff = walk.run(entry)", "diff = None",
           ("test_equiv.py::TestFsmdEquivalence::test_swapped_composition_not_equivalent",
            "test_cli.py::TestChecks::test_check_fsmd_unconfirmed_difference_is_inconclusive")),
    # The step table of conflict groups (sim.py, convert.py).
    Mutant("draws_decoded_first_part_fastest", "sim.py",
           "for holding in reversed(held):\n                draw, i = divmod(draw, len(holding))\n"
           "                at.append(holding[i])\n            at = tuple(at[::-1])",
           "for holding in held:\n                draw, i = divmod(draw, len(holding))\n"
           "                at.append(holding[i])\n            at = tuple(at)",
           ("test_steps.py::test_runs_choose_per_group_as_the_product_would_on_the_corpus",)),
    Mutant("part_without_holding_option_skipped", "sim.py",
           "                return RunOutcome(DEADLOCK, ts, trace, step, chose)", "                continue",
           ("test_sim.py::TestSimulateRun::test_one_group_without_a_holding_guard_blocks_the_whole_step",)),
    Mutant("chose_means_several_parts", "sim.py",
           "chose or count > 1", "chose or len(offered.parts) > 1",
           ("test_steps.py::test_runs_choose_per_group_as_the_product_would_on_the_corpus",)),
    Mutant("firing_rebuilt_on_every_call", "convert.py",
           "    if at in firings:", "    if False:",
           ("test_steps.py::test_each_marking_is_computed_once_for_simulation_and_conversion",)),
    # The term walks (expr.py): a node finished before all its pending children.
    Mutant("key_walk_skips_first_child", "expr.py",
           "pending = [c for c in node._kids if c._ord is None]",
           "pending = [c for c in node._kids if c._ord is None][1:]",
           ("test_expr.py::test_walks_agree_with_recursive_references",)),
    Mutant("normalize_walk_skips_first_child", "expr.py",
           "pending = [k for k in kids if k._nf is None]", "pending = [k for k in kids if k._nf is None][1:]",
           ("test_expr.py::test_walks_agree_with_recursive_references",)),
    Mutant("substitute_walk_skips_first_child", "expr.py",
           "pending = [k for k in kids if k not in done and not bound.isdisjoint(k._fv)]",
           "pending = [k for k in kids if k not in done and not bound.isdisjoint(k._fv)][1:]",
           ("test_expr.py::test_walks_agree_with_recursive_references",)),
    # The conversion, against its net's runs.
    Mutant("guard_sets_dropped", "convert.py",
           "FsmdTransition(q, fs.guard_set, state_of[succ], updates)", "FsmdTransition(q, (), state_of[succ], updates)",
           ("test_convert.py::test_converted_machines_agree_with_their_nets_runs",)),
    Mutant("successor_keeps_its_input_place", "convert.py",
           "remaining, posts = m - fired[0].pre, (fired[0].post,)", "remaining, posts = m, (fired[0].post,)",
           ("test_convert.py::test_converted_machines_agree_with_their_nets_runs",)),
    Mutant("updates_take_the_first_fn", "convert.py",
           "updates.append(Assignment(var_of[min(t.post)], t.fn))",
           "updates.append(Assignment(var_of[min(t.post)], fired[0].fn))",
           ("test_convert.py::test_converted_machines_agree_with_their_nets_runs",)),
    # Determinism (equiv.py, cli.py).
    Mutant("right_inputs_in_hash_order", "equiv.py",
           "for q in sorted(unreached, key=n2.place_order.__getitem__):",
           "for q in (q for q in n2.initial_marking if q in unreached):",
           ("test_determinism.py::TestHashSeeds::test_right_inputs_are_derived_in_place_order",)),
    Mutant("terms_kept_past_a_command", "cli.py",
           "def _terms(models) -> list[ex.Expr]:",
           "def _terms(models, _kept=[]) -> list[ex.Expr]:\n    _kept.append(tuple(models))",
           ("test_determinism.py::test_one_process_gives_what_fresh_processes_give",)),
    Mutant("collector_thresholds_not_restored", "cli.py",
           "        gc.set_threshold(*found)", "        pass",
           ("test_cli.py::TestCollector::test_main_restores_the_thresholds_it_found_on_every_exit",
            "test_determinism.py::test_one_process_gives_what_fresh_processes_give")),
    # Machine validation (fsmd.py).
    Mutant("guard_set_entries_not_recorded", "fsmd.py",
           "            keys.add(key)", "            pass",
           ("test_cli.py::TestValidate::test_duplicate_guard_key_exits_three",)),
    Mutant("ill_sorted_guards_share_an_entry", "fsmd.py",
           "        elif key is not None:", "        else:",
           ("test_cli.py::TestValidate::test_an_ill_sorted_machine_guard_is_reported_where_it_broke",)),
]


def _copy(into: str, mutant: Optional[Mutant] = None) -> str:
    """``src/`` copied under ``into``, with ``mutant``'s edit applied."""
    src = os.path.join(into, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = os.path.join(src, "presto", mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        found = text.count(mutant.old)
        if found != 1:
            raise SystemExit(f"mutant {mutant.name}: its old text occurs {found} times in {mutant.file}, not once")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
    return src


def _run(tests, src: str, cwd: str) -> tuple[str, float, str]:
    """``("passed" | "failed" | "timeout", seconds, output)`` of ``tests``
    on the presto sources in ``src``, run in ``cwd``, which also takes
    Hypothesis's database."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", *(os.path.join(HERE, t) for t in tests)]
    start = time.perf_counter()
    # A session of its own, so that a timeout stops the tests' own children too.
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          start_new_session=True) as child:
        try:
            out, _ = child.communicate(timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return "timeout", time.perf_counter() - start, ""
    return ("passed" if child.returncode == 0 else "failed"), time.perf_counter() - start, out


def _imports_copy(src: str) -> None:
    """Refuse to run when the tests would import presto from elsewhere."""
    found = subprocess.run([sys.executable, "-c", "import presto; print(presto.__file__)"], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    if not found.stdout.startswith(src):
        raise SystemExit(f"presto imports from {found.stdout.strip() or found.stderr.strip()}, not from {src}")


def main() -> int:
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="presto-mutants-") as tmp:
        base = os.path.join(tmp, "unmutated")
        src = _copy(base)
        _imports_copy(src)
        status, _, out = _run(named, src, base)
        if status != "passed":
            print(out, file=sys.stderr)
            print(f"the named tests do not pass on the unmutated sources ({status})", file=sys.stderr)
            return 1
        table, missed = [], []
        for i, mutant in enumerate(MUTANTS):
            folder = os.path.join(tmp, str(i))
            status, seconds, _ = _run(mutant.tests, _copy(folder, mutant), folder)
            result = {"passed": "survived", "failed": "killed", "timeout": "timed out"}[status]
            table.append({"name": mutant.name, "file": mutant.file, "result": result, "seconds": round(seconds, 1),
                          **({"survivor": mutant.survivor} if mutant.survivor else {})})
            if result == "survived" and not mutant.survivor:
                missed.append(mutant.name)
            shutil.rmtree(folder)
    print(json.dumps({"mutants": table, "unexpected_survivors": missed}, indent=2))
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
