"""Every command gives one result, whatever the seed of string hashing and
whatever commands ran before it in the same process.

Set iteration order follows PYTHONHASHSEED; the step tables and compiled
closures must not let it reach a report, a message or a machine, so each
command's stderr and the files it writes are compared as well as its exit
code and stdout.  The commands of ``_commands`` run in a fresh process under
each of two hash seeds, then all of them in one process through
``presto.cli.main``, as perfbench/run.py calls it: no call may leave state for
the next, the collector's thresholds are as they were before the first, and
the intern table holds as many terms as before the first.  That process runs
in a child under the second seed, where no term is shared with a net that
this suite holds, and is compared with the first.  The nets and scenarios
that the corpus lacks are in tests/determinism; the psplits pair is written
when the tests run.
"""

import functools
import gc
import glob
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout

import pytest

from presto import cli, corpus, expr as ex

import test_cli

HERE = os.path.dirname(os.path.abspath(__file__))
NETS = os.path.join(HERE, "determinism")
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(HERE), "demos", "*.py")))
SEEDS = ("1", "2")


def _hash_seeded(seed: str, folder, *argv: str, run: tuple = ("-m", "presto.cli")) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a fresh process under
    ``PYTHONHASHSEED=seed`` in ``folder``, which runs ``run`` (by default the
    CLI; a script, or ``-c`` and code) with ``argv``.  -I would ignore the
    seed (it implies -E), so the child gets -s and an environment that holds
    the seed and the path alone."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.run([sys.executable, "-s", *run, *argv], capture_output=True, text=True, cwd=folder,
                           env={"PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([src, HERE])}, timeout=60)
    return child.returncode, child.stdout, child.stderr


def _psplits(folder) -> None:
    """psplits: 24 independent lanes, each a choice between two guarded
    transitions.  With xj = 1 or 2 both guards of lane j hold, so 16 lanes
    race: a run draws once over their 2^16 combinations, and must pick what
    a draw from the list of the holding sets would."""
    lanes = range(24)
    for name, fn in (("psplits_l", "f({x}) + 1"), ("psplits_r", "1 + f({x})")):
        body = "".join(f"  place x{j} marked; place o{j};\n"
                       f"  transition hi_{j} {{ pre x{j}; post o{j}; fn {fn.format(x=f'x{j}')}; guard x{j} > 0; }}\n"
                       f"  transition lo_{j} {{ pre x{j}; post o{j}; fn g(x{j}); guard x{j} < 3; }}\n" for j in lanes)
        (folder / f"{name}.pres").write_text(f"net {name} {{\n{body}}}\n")
    maps = {kind: "".join(f"{kind}{j} -> {kind}{j}; " for j in lanes) for kind in ("x", "o")}
    (folder / "psplits.scn").write_text(
        "scenario psplits {\n"
        '  model left = "psplits_l.pres"; model right = "psplits_r.pres"; check functional;\n'
        f"  inmap {{ {maps['x']}}}\n"
        f"  outmap {{ {maps['o']}}}\n"
        f"  inputs {{ {''.join(f'x{j} = {j % 3}; ' for j in lanes)}}}\n"
        "  interp f(a) = 2 * a; interp g(a) = a - 3; maxsteps 16;\n"
        "}\n")


def _commands(made) -> list[tuple[str, list[str], int]]:
    """(name, argv, exit code) of each command.  Its inputs come from the
    corpus, from tests/determinism and from ``made``, which holds the psplits
    pair and the unsafe net; its reports and machines are written to the
    working folder.  The exit codes are pinned, so that commands that all
    fail alike under both seeds cannot pass for deterministic ones."""
    scenario, model = corpus.scenario_path, corpus.corpus_path
    net = functools.partial(os.path.join, NETS)
    return [
        ("racy", ["simulate", scenario("racy"), "--schedules", "10", "--json", "racy.json"], 1),
        # The second vector diverges; its model path is read from the scenario's folder.
        ("racy_vectors", ["simulate", net("racy_vectors.scn"), "--schedules", "10", "--json", "racy_vectors.json"], 1),
        ("guard_split", ["simulate", scenario("guard_split"), "--json", "guard_split.json"], 0),
        ("convert", ["convert", model("jammer_pipelined"), "-o", "jammer_pipelined.fsmd", "--json", "convert.json"], 0),
        ("addthree", ["check-pres", scenario("addthree"), "--json", "addthree.json"], 0),
        ("addthree_plus4", ["check-pres", scenario("addthree_plus4"), "--json", "addthree_plus4.json"], 1),
        ("addthree_sampled", ["check-pres", scenario("addthree"), "--strategy", "sampled",
                              "--json", "addthree_sampled.json"], 0),
        ("jammer", ["check-fsmd", scenario("jammer"), "--json", "jammer.json"], 0),
        ("addthree_check_fsmd", ["check-fsmd", scenario("addthree"), "--json", "addthree_check_fsmd.json"], 0),
        # A looping matched pair: its vector runs on both machines before the walk.
        ("sum_loop", ["check-fsmd", scenario("sum_loop"), "--json", "sum_loop.json"], 0),
        # A check fsmd scenario: check-pres refuses it.
        ("jammer_check_pres", ["check-pres", scenario("jammer"), "--json", "jammer_check_pres.json"], 3),
        ("countdown_by_two", ["check-fsmd", scenario("countdown_by_two"), "--json", "countdown_by_two.json"], 1),
        # A class of the loop pair splits into blocks with no partner: the
        # reason names the first of them.
        ("lonely", ["check-fsmd", net("lonely.scn"), "--json", "lonely.json"], 2),
        ("guard_split_dot", ["export-dot", model("guard_split")], 0),
        ("undeclared", ["validate", net("undeclared.pres"), "--json", "undeclared.json"], 3),
        ("splits_convert", ["convert", net("splits.pres"), "-o", "splits.fsmd", "--json", "splits_convert.json"], 0),
        # Written with a NondeterministicF warning: validate rejects the machine.
        ("choice_convert", ["convert", net("choice.pres"), "-o", "choice.fsmd", "--json", "choice_convert.json"], 0),
        ("splits_simulate", ["simulate", net("splits.scn"), "--schedules", "4", "--json", "splits_simulate.json"], 1),
        # Its first choice comes at its third step; seeds 0 and 1 end apart.
        ("late_simulate", ["simulate", net("late.scn"), "--schedules", "4", "--json", "late_simulate.json"], 1),
        ("psplits_simulate", ["simulate", str(made / "psplits.scn"), "--schedules", "4",
                              "--json", "psplits_simulate.json"], 1),
        ("psplits_sampled", ["check-pres", str(made / "psplits.scn"), "--strategy", "sampled",
                             "--json", "psplits_sampled.json"], 0),
        # Firing both transitions puts a second token on c and on d: the
        # message names c, the first in place order.
        ("unsafe_convert", ["convert", str(made / "unsafe.pres")], 3),
        ("unsafe_reject", ["convert", str(made / "unsafe.pres"), "--on-unsafe", "reject",
                           "--json", "unsafe_reject.json"], 0),
        ("derive", ["simulate", net("derive.scn"), "--json", "derive.json"], 3),
        *[(f"shared_{kind}_{command}", [command, net(f"shared_{kind}.{suffix}"), *flags,
                                        "--json", f"shared_{kind}_{command}.json"], code)
          for kind, simulated in (("contra", 2), ("dup", 0))
          for command, suffix, flags, code in (("convert", "pres", ["-o", f"shared_{kind}.fsmd"], 0),
                                               ("simulate", "scn", ["--schedules", "4"], simulated))],
    ]


def _written(folder) -> dict[str, bytes]:
    """The files in ``folder``, by name."""
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """The inputs written when the tests run: the psplits pair and the unsafe net."""
    folder = tmp_path_factory.mktemp("made")
    _psplits(folder)
    (folder / "unsafe.pres").write_text(test_cli.TestConvert.UNSAFE_NET)
    return folder


@pytest.fixture(scope="module")
def fresh(made, tmp_path_factory):
    """Under each seed: the exit code, stdout and stderr of each command,
    each run in a fresh process, and the files that the commands wrote.
    The seeds' commands run side by side, one process each at a time."""
    def under(seed, folder):
        return {name: _hash_seeded(seed, folder, *argv) for name, argv, _ in _commands(made)}, _written(folder)

    folders = [tmp_path_factory.mktemp(f"seed-{seed}") for seed in SEEDS]
    with ThreadPoolExecutor(len(SEEDS)) as pool:
        return dict(zip(SEEDS, pool.map(under, SEEDS, folders)))


def test_commands_exit_with_their_pinned_codes(fresh, made):
    seen, _ = fresh[SEEDS[0]]
    for name, _, code in _commands(made):
        assert seen[name][0] == code, (name, seen[name])


def test_fresh_processes_agree_under_two_hash_seeds(fresh):
    (first, first_files), (second, second_files) = fresh[SEEDS[0]], fresh[SEEDS[1]]
    for name, result in first.items():
        assert second[name] == result, name
    assert second_files == first_files


def _one_process(calls: list[list[str]]) -> dict:
    """Each call's exit code, stdout and stderr, made in turn in this
    process, with the collector's thresholds and the size of the intern
    table before the first call and after the last."""
    thresholds = [gc.get_threshold()]
    gc.collect()
    terms = [len(ex._table)]
    seen = _in_order([(argv, False) for argv in calls], range(len(calls)), os.getcwd())
    thresholds.append(gc.get_threshold())
    gc.collect()
    terms.append(len(ex._table))
    return {"seen": [seen[str(i)][:3] for i in range(len(calls))], "thresholds": thresholds, "terms": terms}


def test_one_process_gives_what_fresh_processes_give(fresh, made, tmp_path):
    commands = _commands(made)
    code, out, err = _hash_seeded(
        SEEDS[1], tmp_path, json.dumps([argv for _, argv, _ in commands]),
        run=("-c", "import json, sys; from test_determinism import _one_process; "
                   "print(json.dumps(_one_process(json.loads(sys.argv[1]))))"))
    assert (code, err) == (0, ""), err
    ran = json.loads(out)
    before, after = ran["thresholds"]
    assert after == before, f"collector thresholds {after} after the commands, {before} before"
    before, after = ran["terms"]
    assert after == before, f"{after} interned terms after the commands, {before} before"
    first, first_files = fresh[SEEDS[0]]
    for (name, _, _), result in zip(commands, ran["seen"]):
        assert tuple(result) == first[name], name
    assert _written(tmp_path) == first_files


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demos_do_not_depend_on_string_hashing(demo, tmp_path):
    # Each demo drives the public API end to end.  demos/02 prints the
    # tokens of every step; they come in the net's place order, not in the
    # order of a set of place names.
    (code, out, err), (second_code, second_out, _) = (_hash_seeded(seed, tmp_path, run=(demo,)) for seed in SEEDS)
    assert (code, second_code) == (0, 0), err
    assert second_out == out


def _in_order(calls, order, folder):
    """Exit code, stdout, stderr and --json report of each call, made in ``order`` in this process."""
    seen = {}
    for i in order:
        argv, takes_json = calls[i]
        report = os.path.join(folder, f"{i}.json")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv + ["--json", report] if takes_json else argv)
        text = None
        if takes_json:
            with open(report, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(report)
        seen[str(i)] = [code, out.getvalue(), err.getvalue(), text]
    return seen


class TestOneProcess:
    def test_calls_give_the_same_results_in_any_order(self, tmp_path, monkeypatch):
        """One parser serves every call in a process, so no call may see what an earlier one did."""
        racy, addthree = corpus.scenario_path("racy"), corpus.scenario_path("addthree")
        calls = [  # (argv, whether it takes --json)
            (["convert", corpus.corpus_path("jammer_pipelined"), "--on-unsafe", "reject"], True),
            (["convert", corpus.corpus_path("jammer_pipelined")], True),
            (["simulate", racy, "--seed", "3"], True),
            (["simulate", racy], True),
            (["simulate", racy, "--schedules", "10"], True),
            (["--help"], False),
            (["simulate", racy, "--schedules", "0"], False),
            (["validate", corpus.corpus_path("guard_split")], True),
            (["check-pres", addthree, "--strategy", "sampled"], True),
            (["check-pres", addthree], True),
        ]
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal's width
        forwards = _in_order(calls, range(len(calls)), tmp_path)
        assert [forwards[str(i)][0] for i in range(len(calls))] == [0, 0, 0, 0, 1, 0, 3, 0, 0, 0]
        assert forwards["5"][1].startswith("usage: presto")
        assert _in_order(calls, reversed(range(len(calls))), tmp_path) == forwards
        # A fresh process, in reverse, also catches state that the first call here leaves for all later ones.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = subprocess.run(
            [sys.executable, "-c", "import json, sys; from test_determinism import _in_order; "
             "calls = json.loads(sys.argv[1]); "
             "print(json.dumps(_in_order(calls, reversed(range(len(calls))), sys.argv[2])))",
             json.dumps(calls), str(tmp_path)],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join([src, HERE])},
        )
        assert json.loads(child.stdout) == forwards


class TestHashSeeds:
    """Messages that name one place of several name the first in place order,
    whatever the seed of string hashing."""

    def test_an_unsafe_firing_names_the_first_doubly_marked_place(self, tmp_path):
        (tmp_path / "unsafe.pres").write_text(test_cli.TestConvert.UNSAFE_NET)
        for seed in ("1", "6"):  # seeds under which 'd' came first in the post-set
            assert _hash_seeded(seed, tmp_path, "convert", "unsafe.pres") == (
                3, "", "error: UnsafeMarking: firing ['t1', 't2'] puts a second token on 'c'\n"), seed

    def test_right_inputs_are_derived_in_place_order(self):
        # Every net's inputs are derived before the first run, so no run is printed.
        for seed in ("1", "2"):  # under seed 1 'q' came first in the initial marking
            assert _hash_seeded(seed, NETS, "simulate", "derive.scn") == (
                3, "", "error: SimError: no input value derivable for initially marked place 'p'\n"), seed
