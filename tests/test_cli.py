import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from presto import cli, convert, corpus, equiv, expr as ex
from presto.fsmd import Assignment, UpdateSet
from presto.dsl import print_net

from _gen import random_net


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_well_formed_net(self, capsys):
        code, out, _ = run(capsys, "validate", corpus.corpus_path("guard_split"))
        assert code == 0
        assert "well-formed" in out

    def test_duplicate_guard_key_exits_three(self, capsys):
        code, out, _ = run(capsys, "validate", corpus.corpus_path("dup_guard_key"))
        assert code == 3
        assert "NondeterministicF" in out

    def test_usage_error(self, capsys):
        assert run(capsys, "validate", "/nonexistent.pres")[0] == 3
        assert run(capsys, "frobnicate")[0] == 3

    def test_deep_term_is_a_syntax_error_not_a_crash(self, capsys, tmp_path):
        for depth, expected in ((200, 0), (201, 3), (400, 3)):
            deep = tmp_path / f"deep{depth}.fsmd"
            deep.write_text(
                "fsmd deep { states q0, q1; reset q0; inputs x; storage y; outputs y;\n"
                f"  q0 -> q1 {{ y <= {'f(' * depth}x{')' * depth}; }}\n}}\n"
            )
            code, _, err = run(capsys, "validate", str(deep))
            assert code == expected, err
            assert "Traceback" not in err
            if expected:
                assert err.startswith("error: 2:") and "nested deeper than 200 levels" in err

    def test_non_ascii_characters_are_syntax_errors(self, capsys, tmp_path):
        for body, at, char in (("fn 2²;", "3:37", "²"), ("fn x²;", "3:37", "²"), ("fn é;", "3:36", "é")):
            net = tmp_path / "squared.pres"
            net.write_text(f"net squared {{\n  place x marked; place y;\n  transition t {{ pre x; post y; {body} }}\n}}\n")
            code, out, err = run(capsys, "validate", str(net))
            assert (code, out) == (3, "")
            assert err == f"error: {at}: stray character {char!r}\n"

    def test_every_machine_rule_is_reported_where_it_broke(self, capsys, tmp_path):
        # A duplicate is named at its second declaration, as in a net;
        # elements that the text does not declare have no line:col.
        machine = tmp_path / "bad.fsmd"
        machine.write_text("fsmd m {\n  states q0, q1, q0;\n  reset q9;\n  inputs x;\n  storage y;\n  outputs y, z;\n"
                           "  q0 -> q7 when x { y <= x > 1; }\n  q5 -> q1 when w > 0 { y <= v; x <= 1; }\n}\n")
        report = ["2:18: DuplicateName: q0 (state declared twice)",
                  "UnknownState: q9 (reset state is not declared)",
                  "UnknownVariable: z (output is neither storage nor input)",
                  "UnknownState: q7 (q0->q7#0)",
                  "7:3: IllSortedGuard: q0->q7#0 (x)",
                  "7:3: IllSortedUpdate: q0->q7#0 (y <= x > 1)",
                  "UnknownState: q5 (q5->q1#1)",
                  "UnknownVariable: w (guard of q5->q1#1)",
                  "UnknownVariable: v (update of y in q5->q1#1)",
                  "IllegalTarget: x (update in q5->q1#1)"]
        out = "invalid:\n" + "".join(f"  {line}\n" for line in report)
        assert run(capsys, "validate", str(machine)) == (3, out, "")
        machine.write_text("fsmd m { inputs x; }")
        assert run(capsys, "validate", str(machine)) == (
            3, "invalid:\n  1:6: MissingReset: m (no states and no reset)\n", "")

    def test_an_ill_sorted_machine_guard_is_reported_where_it_broke(self, capsys, tmp_path):
        # The guard set cannot be normalized, so it has no (state, guard set)
        # entry: two such transitions are not duplicates of each other.
        machine = tmp_path / "m.fsmd"
        transition = "  q0 -> q1 when x > 0 and 1 { }\n"
        machine.write_text("fsmd m {\n  states q0, q1;\n  inputs x;\n" + transition + "}\n")
        report = "invalid:\n  4:3: IllSortedGuard: q0->q1#0 (operand of 'and' is not bool-sorted: 1)\n"
        assert run(capsys, "validate", str(machine)) == (3, report, "")
        scenario = tmp_path / "m.scn"
        scenario.write_text('scenario s { model left = "m.fsmd"; model right = "m.fsmd"; check fsmd;\n'
                            "  inputs { x = 1; } }\n")
        assert run(capsys, "check-fsmd", str(scenario)) == (
            3, "", "error: 4:3: IllSortedGuard: q0->q1#0 (operand of 'and' is not bool-sorted: 1)\n")
        machine.write_text("fsmd m {\n  states q0, q1;\n  inputs x;\n" + transition * 2 + "}\n")
        assert run(capsys, "validate", str(machine)) == (3, report + (
            "  5:3: IllSortedGuard: q0->q1#1 (operand of 'and' is not bool-sorted: 1)\n"), "")

    def test_internal_error_exits_three_without_traceback(self, capsys, monkeypatch):
        def explode(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_validate", explode)
        code, out, err = run(capsys, "validate", corpus.corpus_path("guard_split"))
        assert code == 3
        assert out == ""
        assert err == "error: internal error: RecursionError: maximum recursion depth exceeded\n"


class TestConvert:
    def test_output_parses_and_report_carries_labels(self, capsys, tmp_path):
        out_file = tmp_path / "converted.fsmd"
        report_file = tmp_path / "converted.json"
        code, _, _ = run(capsys, "convert", corpus.corpus_path("guard_split"),
                         "-o", str(out_file), "--json", str(report_file))
        assert code == 0
        machine_text = out_file.read_text()
        assert "q0 -> q1 when g(p3) != 0" in machine_text
        report = json.loads(report_file.read_text())
        assert report["schemaVersion"] == 1
        assert report["states"] == 3
        assert report["state_markings"]["q1"] == ["p4", "p5", "p6"]
        assert report["transitions"][0]["labels"] == [["f_t1"], ["f_t2"]]

    def test_state_bound_flag(self, capsys):
        code, _, err = run(capsys, "convert", corpus.corpus_path("addthree_a"), "--state-bound", "1")
        assert code == 3

    def test_converted_corpus_nets_validate(self, capsys, tmp_path):
        # The guard-split self-loop writes an initially marked place, whose
        # variable is therefore storage, so the converted file validates too.
        for name, expected in (("jammer_pipelined", 0), ("guard_split", 0)):
            out_file = tmp_path / f"{name}.fsmd"
            assert run(capsys, "convert", corpus.corpus_path(name), "-o", str(out_file))[0] == 0
            assert run(capsys, "validate", str(out_file))[0] == expected


    def test_write_conflict_is_a_modelling_error(self, capsys, tmp_path):
        # Two transitions of one firing set post places of the variable y.
        net = tmp_path / "random4.pres"
        net.write_text(print_net(random_net(4)))
        code, out, err = run(capsys, "convert", str(net), "--on-unsafe", "reject")
        assert (code, out) == (3, "")
        assert err == "error: DuplicateTarget: two updates assign 'y' in one step (firing set t0+t4 at q0)\n"

    UNSAFE_NET = """
        net unsafe {
          place a marked; place b marked; place c; place d;
          transition t1 { pre a; post c, d; fn a; }
          transition t2 { pre b; post c, d; fn b; }
        }
        """

    def test_conversion_warnings_are_printed(self, capsys, tmp_path):
        unsafe, contra = tmp_path / "unsafe.pres", tmp_path / "contra.pres"
        unsafe.write_text(self.UNSAFE_NET)
        contra.write_text(TestChecks.CONTRA_NET)
        report = tmp_path / "report.json"
        code, _, err = run(capsys, "convert", str(unsafe), "--on-unsafe", "reject", "--json", str(report))
        assert code == 0
        assert err == "warning: UnsafeMarking: t1+t2 (firing ['t1', 't2'] puts a second token on 'c')\nstates: 1\n"
        assert json.loads(report.read_text())["warnings"] == [err.splitlines()[0][len("warning: "):]]
        code, _, err = run(capsys, "convert", str(contra), "--json", str(report))
        warnings = json.loads(report.read_text())["warnings"]
        assert code == 0 and len(warnings) == 2 and all("InconsistentGuards" in w for w in warnings)
        assert err.splitlines() == [f"warning: {w}" for w in warnings] + ["states: 3"]

    CHOICE_NET = ("net n { place a marked; place b; place c; transition t1 { pre a; post b; fn a + 1; } "
                  "transition t2 { pre a; post c; fn a + 2; } }")

    def test_a_machine_that_validate_rejects_is_written_with_a_warning(self, capsys, tmp_path):
        # Both transitions consume a alone and have no guard, so the machine
        # has two q0 entries with one guard set.
        net, machine, report = tmp_path / "choice.pres", tmp_path / "choice.fsmd", tmp_path / "choice.json"
        net.write_text(self.CHOICE_NET)
        code, out, err = run(capsys, "convert", str(net), "-o", str(machine), "--json", str(report))
        assert (code, out) == (0, "")
        warning = "NondeterministicF: q0->q2#1 (duplicate (state, guard set) entry)"
        assert err == f"warning: {warning}\nstates: 3\n"
        assert json.loads(report.read_text())["warnings"] == [warning]
        code, out, _ = run(capsys, "validate", str(machine))
        assert code == 3 and warning in out

    def test_bounds_below_one_are_usage_errors(self, capsys, tmp_path):
        for argv in (["convert", corpus.corpus_path("card_a"), "--state-bound", "0"],
                     ["simulate", corpus.scenario_path("racy"), "--schedules", "0"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert "must be at least 1, got 0" in err and "internal error" not in err
        scenario = tmp_path / "bound.scn"
        for clause, found in (("statebound 0;", "2:14: statebound must be at least 1, found 0"),
                              ("maxsteps -2;", "2:12: maxsteps must be at least 1, found -2")):
            scenario.write_text(f"scenario s {{\n  {clause}\n}}\n")
            for command in ("check-pres", "check-fsmd", "simulate"):
                assert run(capsys, command, str(scenario)) == (3, "", f"error: {found}\n"), command


@pytest.mark.parametrize("argv", [
    ("check-pres", corpus.scenario_path("addthree"), "--json"),
    ("convert", corpus.corpus_path("addthree_a"), "-o"),
    ("export-dot", corpus.corpus_path("addthree_a"), "-o"),
    ("convert", corpus.corpus_path("addthree_a"), "--json"),
    ("validate", corpus.corpus_path("addthree_a"), "--json"),
    ("validate", corpus.corpus_path("dup_guard_key"), "--json"),
    ("simulate", corpus.scenario_path("addthree"), "--json"),
    ("simulate", corpus.scenario_path("racy"), "--schedules", "4", "--json"),
    ("check-pres", corpus.scenario_path("addthree_plus4"), "--strategy", "sampled", "--json"),
    ("check-fsmd", corpus.scenario_path("jammer"), "--json"),
])
def test_an_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv):
    # Every output file is written before the first line on stdout, so a
    # command that cannot write one prints no result that its exit code denies.
    missing = str(tmp_path / "missing" / "out")
    code, out, err = run(capsys, *argv, missing)
    assert code == 3
    assert err.endswith(f"error: [Errno 2] No such file or directory: {missing!r}\n")
    assert "internal error" not in err
    assert out == ""


class TestChecks:
    def test_looping_corpus_pairs(self, capsys):
        assert run(capsys, "check-fsmd", corpus.scenario_path("sum_loop"))[0] == 0
        code, out, _ = run(capsys, "check-fsmd", corpus.scenario_path("sum_loop_double"))
        assert code == 1 and '"values": [6, 12]' in out
        for strategy in ("symbolic", "sampled"):
            code, out, _ = run(capsys, "check-pres", corpus.scenario_path("countdown_by_two"), "--strategy", strategy)
            assert code == 1 and '"values": [0, -1]' in out, strategy

    def test_check_fsmd_jammer_equivalent(self, capsys):
        code, out, _ = run(capsys, "check-fsmd", corpus.scenario_path("jammer"))
        assert code == 0
        assert "Equivalent" in out

    @pytest.mark.parametrize("command, refused, other", [("check-pres", "fsmd", "check-fsmd"),
                                                         ("check-fsmd", "cardinality", "check-pres")])
    def test_a_check_the_command_does_not_run_is_refused(self, capsys, tmp_path, command, refused, other):
        # Run as another check, a scenario gets a wrong verdict: by cardinality,
        # jammer is NotEquivalent, the pair that check-fsmd finds Equivalent.
        message = f"error: the scenario asks for check {refused}, which {command} does not run; use {other}\n"
        names = [name for name in corpus.SCENARIOS if corpus.load_scenario(name).check == refused]
        assert len(names) == (4 if refused == "fsmd" else 3)
        report = tmp_path / "report.json"
        for name in names:
            for extra in ([], ["--strategy", "sampled"]) if command == "check-pres" else ([],):
                argv = (command, corpus.scenario_path(name), *extra, "--json", str(report))
                assert run(capsys, *argv) == (3, "", message), argv
                assert not report.exists()
        # Refused before the scenario's models are looked at.
        lone = tmp_path / "lone.scn"
        lone.write_text(f"scenario lone {{ check {refused}; }}\n")
        assert run(capsys, command, str(lone)) == (3, "", message)
        # The other command runs it, and check functional stays open to both.
        assert run(capsys, other, corpus.scenario_path(names[0]))[0] == 0
        assert run(capsys, command, corpus.scenario_path("countdown_by_two"))[0] == 1

    def test_check_pres_cardinality_cardinality(self, capsys):
        code, out, _ = run(capsys, "check-pres", corpus.scenario_path("cardinality"))
        assert code == 0

    SPLIT_NET = ("net {name} {{\n  place a marked; place b; place c;\n"
                 "  transition t1 {{ pre a; post b; fn a; guard a > {k}; }}\n"
                 "  transition t2 {{ pre a; post c; fn a; guard a <= {k}; }}\n}}\n")

    def _cardinality(self, tmp_path, right: str, extra: str = "") -> str:
        (tmp_path / "l.pres").write_text(self.SPLIT_NET.format(name="l", k=0))
        (tmp_path / "r.pres").write_text(right)
        scenario = tmp_path / "card.scn"
        scenario.write_text('scenario card { model left = "l.pres"; model right = "r.pres"; check cardinality;\n'
                            f"  inmap {{ a -> a; }} outmap {{ b -> b; c -> c; }} inputs {{ a = 3; }} {extra}}}\n")
        return str(scenario)

    def test_cardinality_compares_where_the_runs_rest(self, capsys, tmp_path):
        # Condition 3: with a = 3 the left net rests with b marked, the
        # right one (thresholds 5) with c marked.
        scenario = self._cardinality(tmp_path, self.SPLIT_NET.format(name="r", k=5))
        code, out, err = run(capsys, "check-pres", scenario)
        assert (code, err) == (1, "")
        assert out.endswith('\n  witness: {"condition": 3, "marked": [true, false], "place_pair": ["b", "b"], '
                            '"vector": {"a": 3}}\n'), out
        # A right run that never rests leaves no marking to compare.
        spin = ("net r {\n  place a marked; place x; place b; place c;\n  transition t0 { pre a; post x; fn a; }\n"
                "  transition spin { pre x; post x; fn x + 1; }\n"
                "  transition tb { pre x; post b; fn x; guard x < 0; }\n"
                "  transition tc { pre x; post c; fn x; guard x < -100; }\n}\n")
        code, out, err = run(capsys, "check-pres", self._cardinality(tmp_path, spin, "maxsteps 5; "))
        assert (code, err) == (2, "")
        assert out.endswith("\n  reason: runs ended Quiescent/StepBoundExceeded; no resting marking to compare\n"), out

    def test_check_pres_addthree_both_strategies(self, capsys, tmp_path):
        for strategy in ("symbolic", "sampled"):
            report_file = tmp_path / f"addthree-{strategy}.json"
            code, out, _ = run(capsys, "check-pres", corpus.scenario_path("addthree"),
                               "--strategy", strategy, "--json", str(report_file))
            assert code == 0, strategy
            report = json.loads(report_file.read_text())
            assert report["verdict"]["status"] == "Equivalent"
            if strategy == "sampled":
                assert report["verdict"]["witness"]["samples"][0]["out_values"] == [{"Pe": 5}, {"Pee": 5}]

    def test_mutation_scenarios_flip(self, capsys):
        assert run(capsys, "check-pres", corpus.scenario_path("cardinality_dropped_arc"))[0] == 1
        assert run(capsys, "check-pres", corpus.scenario_path("cardinality_unmarked_port"))[0] == 1
        assert run(capsys, "check-pres", corpus.scenario_path("addthree_plus4"))[0] == 1
        assert run(capsys, "check-fsmd", corpus.scenario_path("jammer_swapped"))[0] == 1

    def test_check_pres_symbolic_match_is_checked_against_the_runs(self, capsys, monkeypatch):
        # A walk that matches every path while a scenario vector separates
        # the outputs points at a fault in presto: the run is the witness.
        scenario = corpus.scenario_path("addthree_plus4")
        monkeypatch.setattr(equiv, "_match_paths", lambda *args: None)
        code, out, err = run(capsys, "check-pres", scenario, "--strategy", "symbolic")
        assert (code, err) == (1, "")
        assert out.startswith("NotEquivalent  [functional/symbolic (normalized path transformations)+sampled]\n")
        assert "reason: the walk had matched every path" in out
        assert 'witness: {"out_place_pair": ["Pe", "Pee"], "values": [5, 6], "vector": {"Pa": 2}}' in out

    def test_check_fsmd_match_is_checked_against_the_runs(self, capsys, monkeypatch):
        # The same check under check-fsmd: both machines run every vector
        # before the walk, so a match that a run contradicts is no Equivalent.
        scenario = corpus.scenario_path("sum_loop_double")
        monkeypatch.setattr(equiv, "_match_paths", lambda *args: None)
        code, out, err = run(capsys, "check-fsmd", scenario)
        assert (code, err) == (1, "")
        assert out.startswith("NotEquivalent  [fsmd-paths (matched by normalized condition)+sampled]\n")
        assert "reason: the walk had matched every path" in out
        assert 'witness: {"values": [6, 12], "variable_pair": ["s", "s"], "vector": {"n": 4}}' in out

    @pytest.mark.parametrize("name, code", [("addthree", 0), ("addthree_plus4", 1), ("countdown_by_two", 1)])
    def test_both_symbolic_checks_agree_on_the_corpus_nets(self, capsys, tmp_path, name, code):
        # check-fsmd lowers a net pair as symbolic check-pres does: the in-port
        # map renames the inputs, the out-port map pairs the outputs, and each
        # machine gets the inputs of its net's run.
        report = tmp_path / "report.json"
        verdicts = []
        for argv in (["check-pres", "--strategy", "symbolic"], ["check-fsmd"]):
            got, out, err = run(capsys, argv[0], corpus.scenario_path(name), *argv[1:], "--json", str(report))
            assert (got, err) == (code, ""), (argv, out, err)
            verdicts.append(json.loads(report.read_text())["verdict"])
        assert verdicts[0]["status"] == verdicts[1]["status"]
        assert all(("vector" in verdict["witness"]) == (code == 1) for verdict in verdicts if verdict["witness"])

    @pytest.mark.parametrize("name, command, code, stdout", [
        ("diamonds7", "check-fsmd", 0, "Equivalent  [fsmd-paths (matched by normalized condition)]\n"),
        ("diamonds7", "check-pres", 0, "Equivalent  [functional/symbolic (normalized path transformations)]\n"),
        ("diamonds7_mutant", "check-fsmd", 1,
         "NotEquivalent  [fsmd-paths (matched by normalized condition)+sampled]\n"
         '  witness: {"condition": "-2803 < d6@q6", "normal_forms": ["3 * g12(d6@q6)", "4 * g12(d6@q6)"], '
         '"values": [-18729, -24972], "variable_pair": ["out", "out2"], "vector": {"x": -27}}\n'),
        ("diamonds7_mutant", "check-pres", 1,
         "NotEquivalent  [functional/symbolic (normalized path transformations)+sampled]\n"
         '  witness: {"condition": "-2803 < d6@q6", "normal_forms": ["3 * g12(d6@q6)", "4 * g12(d6@q6)"], '
         '"out_place_pair": ["out", "out2"], "values": [-18729, -24972], "vector": {"x": -27}}\n'),
    ])
    def test_the_walk_on_seven_guard_splits(self, capsys, name, command, code, stdout):
        # Two pairs of the benchmark's diamonds family at seven splits in a
        # row (128 paths per net): a rewritten copy, and a mutant whose last
        # split's high branch scales by 4 instead of 3, found on that path.
        scenario = os.path.join(os.path.dirname(os.path.abspath(__file__)), "walk", f"{name}.scn")
        assert run(capsys, command, scenario) == (code, stdout, "")

    def test_a_conversion_that_disagrees_with_its_net_is_inconclusive(self, capsys, monkeypatch):
        # Every update of the conversion writes 0.  Both machines agree with
        # each other, and the walk would match them, but the left machine ends
        # apart from its net's run: a fault in presto, never NotEquivalent.
        monkeypatch.setattr(convert, "_updates_for", lambda net, fired: UpdateSet(
            [Assignment(net.var_of[min(t.post)], ex.IntConst(0)) for t in fired]))
        code, out, err = run(capsys, "check-pres", corpus.scenario_path("addthree"), "--strategy", "symbolic")
        assert (code, err) == (2, "")
        assert out == ("Inconclusive  [functional/symbolic (normalized path transformations)]\n"
                       "  reason: the conversion of 'left' disagrees with its net on vector {\"Pa\": 2} at out-port 'Pe':"
                       " 0 against 5\n")

    def test_inconclusive_exits_two(self, capsys, tmp_path):
        branched = tmp_path / "branched.pres"
        branched.write_text(
            """
            net branched {
              place Pa marked; place Pe;
              transition pos { pre Pa; post Pe; fn Pa + 3; guard Pa >= 0; }
              transition neg { pre Pa; post Pe; fn Pa - 3; guard Pa < 0; }
            }
            """
        )
        scenario = tmp_path / "branched.scn"
        scenario.write_text(
            f"""
            scenario branched {{
              model left = "branched.pres";
              model right = "{corpus.corpus_path('addthree_a')}";
              check functional;
              inmap {{ Pa -> Pa; }}
              outmap {{ Pe -> Pe; }}
              inputs {{ Pa = 2; }}
            }}
            """
        )
        assert run(capsys, "check-pres", str(scenario))[0] == 2

    def test_interp_function_applied_with_the_wrong_arity(self, capsys, tmp_path):
        (tmp_path / "arity.pres").write_text("net arity {\n  place a marked; place o;\n"
                                             "  transition t { pre a; post o; fn f(a); }\n}\n")
        (tmp_path / "arity_plus.pres").write_text("net arity_plus {\n  place a marked; place o;\n"
                                                  "  transition t { pre a; post o; fn f(a) + 1; }\n}\n")
        scenario = tmp_path / "arity.scn"
        scenario.write_text('scenario arity { model left = "arity.pres"; model right = "arity_plus.pres";\n'
                            "  inmap { a -> a; } outmap { o -> o; } varmap { o -> o; } inputs { a = 3; }\n"
                            "  interp f(x, y) = x + y; }\n")
        for argv in (["simulate"], ["check-pres", "--strategy", "sampled"]):
            code, out, err = run(capsys, argv[0], str(scenario), *argv[1:])
            assert (code, out, err) == (3, "", "error: SortMismatch: f expects 2 arguments, got 1\n"), argv
        # check-fsmd checks the arities on the nets as read, before it
        # converts them: here the conversion would pass its state bound.
        code, out, err = run(capsys, "check-fsmd", str(scenario))
        assert (code, out, err) == (3, "", "error: SortMismatch: f expects 2 arguments, got 1\n")
        scenario.write_text(scenario.read_text().replace("x + y; }", "x + y; statebound 1; }"))
        code, out, err = run(capsys, "check-fsmd", str(scenario))
        assert (code, out, err) == (3, "", "error: SortMismatch: f expects 2 arguments, got 1\n")
        # The wrong application sits on a branch that no run takes (a = 3):
        # every command still checks it before it runs anything.
        (tmp_path / "branch.pres").write_text("net branch {\n  place a marked; place o;\n"
                                              "  transition t { pre a; post o; fn f(a); guard a > 100; }\n"
                                              "  transition u { pre a; post o; fn a; guard a <= 100; }\n}\n")
        scenario = tmp_path / "branch.scn"
        scenario.write_text('scenario branch { model left = "branch.pres"; model right = "branch.pres";\n'
                            "  inmap { a -> a; } outmap { o -> o; } varmap { o -> o; } inputs { a = 3; }\n"
                            "  interp f(x, y) = x + y; }\n")
        for argv in (["simulate"], ["simulate", "--schedules", "2"], ["check-pres"],
                     ["check-pres", "--strategy", "sampled"], ["check-fsmd"]):
            code, out, err = run(capsys, argv[0], str(scenario), *argv[1:])
            assert (code, out, err) == (3, "", "error: SortMismatch: f expects 2 arguments, got 1\n"), argv

    def test_port_map_that_is_wrong_for_the_nets_exits_three(self, capsys, tmp_path):
        # addthree_a's in-port is Pa; Pm has a producer.
        with open(corpus.scenario_path("addthree"), encoding="utf-8") as fh:
            text = fh.read()
        scenario = tmp_path / "addthree_pm.scn"
        scenario.write_text(text.replace('"../', f'"{os.path.dirname(corpus.corpus_path("addthree_a"))}/')
                            .replace("inmap { Pa -> Paa; }", "inmap { Pm -> Paa; }"))
        for strategy in ("symbolic", "sampled"):
            code, out, err = run(capsys, "check-pres", str(scenario), "--strategy", strategy)
            assert (code, out) == (3, ""), strategy
            assert err == "error: the port map is not a bijection: in-port map domain ['Pm'] != ['Pa']\n"
        # countdown's only marked place has a producer, so neither net has an in-port to map.
        scenario = tmp_path / "countdown_inmap.scn"
        scenario.write_text(f'scenario countdown_inmap {{ model left = "{corpus.corpus_path("countdown")}";\n'
                            f'  model right = "{corpus.corpus_path("countdown")}";\n'
                            "  inmap { a -> a; } outmap { o -> o; } inputs { a = 3; } }\n")
        code, _, err = run(capsys, "check-pres", str(scenario))
        assert code == 3 and err.startswith("error: the port map is not a bijection: in-port map domain ['a'] != []")
        # Two in-ports against three: no map is a bijection, which is condition 1.
        code, out, _ = run(capsys, "check-pres", corpus.scenario_path("cardinality_dropped_arc"))
        assert code == 1 and '"condition": 1' in out

    # Both ports carry `xx`, so a firing set that takes ga with gd (or gb
    # with gc) assumes `xx > 0` and its negation at once.
    CONTRA_NET = """
        net contra {
          place x1 marked var xx; place x2 marked var xx;
          place u; place v; place w; place z;
          transition ga { pre x1; post u; fn fa(xx); guard xx > 0; }
          transition gb { pre x1; post v; fn fb(xx); }
          transition gc { pre x2; post w; fn fc(xx); guard xx > 0; }
          transition gd { pre x2; post z; fn fd(xx); }
        }
        """

    def test_check_fsmd_surfaces_conversion_warnings(self, capsys, tmp_path):
        (tmp_path / "contra.pres").write_text(self.CONTRA_NET)
        scenario = tmp_path / "contra.scn"
        scenario.write_text(
            """
            scenario contra {
              model left = "contra.pres";
              model right = "contra.pres";
              check fsmd;
              varmap { u -> u; v -> v; w -> w; z -> z; }
            }
            """
        )
        report = tmp_path / "contra.json"
        _, out, err = run(capsys, "check-fsmd", str(scenario), "--json", str(report))
        warnings = json.loads(report.read_text())["warnings"]
        assert len(warnings) == 4 and all("InconsistentGuards" in w for w in warnings)
        assert err.splitlines() == [f"warning: {w}" for w in warnings]
        assert "warning" not in out
        assert out.startswith(("Equivalent", "NotEquivalent", "Inconclusive"))

    def test_check_fsmd_prints_conversion_warnings_before_an_error(self, capsys, tmp_path):
        # With neither varmap nor outmap the outputs pair by name, which is
        # only found out once both nets are converted.
        (tmp_path / "contra.pres").write_text(self.CONTRA_NET)
        renamed = self.CONTRA_NET.replace("place z;", "place y;").replace("post z;", "post y;")
        (tmp_path / "renamed.pres").write_text(renamed)
        scenario = tmp_path / "renamed.scn"
        scenario.write_text('scenario r { model left = "contra.pres"; model right = "renamed.pres"; check fsmd; }')
        code, out, err = run(capsys, "check-fsmd", str(scenario))
        lines = err.splitlines()
        assert (code, out) == (3, "")
        assert len(lines) == 5 and all(line.startswith("warning: InconsistentGuards") for line in lines[:4])
        assert lines[4] == ("error: the scenario has no varmap and the outputs differ: "
                            "['u', 'v', 'w', 'z'] and ['u', 'v', 'w', 'y']")
        # The left net's warnings also come before an error in the right net's conversion.
        (tmp_path / "long.pres").write_text(
            "net long { place x1 marked var xx; place x2 marked var xx; place a; place u; place v; place w; place z;"
            " transition t0 { pre x1; post a; fn xx; } transition t1 { pre a; post u; fn a; }"
            " transition t2 { pre x2; post w; fn xx; } transition t3 { pre u; post v; fn u; }"
            " transition t4 { pre v; post z; fn v; } }")
        scenario.write_text('scenario r { model left = "contra.pres"; model right = "long.pres"; check fsmd;'
                            " varmap { u -> u; v -> v; w -> w; z -> z; } statebound 3; }")
        code, out, err = run(capsys, "check-fsmd", str(scenario))
        lines = err.splitlines()
        assert (code, out, len(lines)) == (3, "", 3)
        assert all(line.startswith("warning: InconsistentGuards") for line in lines[:2])
        assert lines[2] == "error: StateBoundExceeded: conversion exceeded the state bound of 3"

    def test_check_pres_surfaces_conversion_warnings_and_honours_statebound(self, capsys, tmp_path):
        (tmp_path / "contra.pres").write_text(self.CONTRA_NET)
        scenario = tmp_path / "contra.scn"
        clauses = """model left = "contra.pres"; model right = "contra.pres"; check functional;
                     inmap { x1 -> x1; x2 -> x2; } outmap { u -> u; v -> v; w -> w; z -> z; }"""
        scenario.write_text(f"scenario contra {{ {clauses} }}")
        report = tmp_path / "contra.json"
        _, out, err = run(capsys, "check-pres", str(scenario), "--json", str(report))
        warnings = json.loads(report.read_text())["warnings"]
        assert len(warnings) == 4 and all("InconsistentGuards" in w for w in warnings)
        assert err.splitlines() == [f"warning: {w}" for w in warnings]
        assert out.startswith(("Equivalent", "NotEquivalent", "Inconclusive"))

        scenario.write_text(f"scenario contra {{ {clauses} statebound 1; }}")
        code, out, err = run(capsys, "check-pres", str(scenario))
        assert code == 3 and out == ""
        assert err.startswith("error: StateBoundExceeded")

    @staticmethod
    def _machine_pair(tmp_path, left_body, right_body):
        for name, body in (("left", left_body), ("right", right_body)):
            (tmp_path / f"{name}.fsmd").write_text(
                f"fsmd {name} {{ states q0, q1; reset q0; inputs x; storage y; outputs y;\n{body}\n}}\n"
            )
        scenario = tmp_path / "pair.scn"
        scenario.write_text(
            'scenario pair { model left = "left.fsmd"; model right = "right.fsmd"; check fsmd;\n'
            "  varmap { y -> y; } inputs { x = 3; } inputs { x = -2; } }\n"
        )
        return str(scenario)

    @pytest.mark.parametrize("left, reason", [
        # Both transitions hold at x = 1; their guard sets differ as sets, so
        # the machine validates, and the walk finds one condition twice.
        ("states q0, q1, q2;\n  q0 -> q1 when x > 0 { z <= 1; }\n  q0 -> q2 when 0 < x, true { z <= 2; }",
         "multipath: two paths share one condition"),
        ("states q0, q1;\n  q0 -> q0 { z <= z + 1; }", "no reset-to-terminal path"),
    ])
    def test_check_fsmd_walks_that_cannot_match_are_inconclusive(self, capsys, tmp_path, left, reason):
        for name, body in (("left", left), ("right", "states q0, q1;\n  q0 -> q1 when x > 0 { z <= 1; }")):
            (tmp_path / f"{name}.fsmd").write_text(f"fsmd {name} {{\n  inputs x; storage z; outputs z;\n  {body}\n}}\n")
        scenario = tmp_path / "pair.scn"
        scenario.write_text('scenario pair { model left = "left.fsmd"; model right = "right.fsmd"; check fsmd;\n'
                            "  varmap { z -> z; } inputs { x = 1; } }\n")
        assert run(capsys, "check-fsmd", str(scenario)) == (
            2, f"Inconclusive  [fsmd-paths (matched by normalized condition)]\n  reason: {reason}\n", "")

    def test_check_fsmd_oriented_relations_are_equivalent(self, capsys, tmp_path):
        scenario = self._machine_pair(
            tmp_path,
            "q0 -> q1 when x > 0 { y <= x + 1; }  q0 -> q1 when x <= 0 { y <= x; }",
            "q0 -> q1 when 0 < x { y <= 1 + x; }  q0 -> q1 when 0 >= x { y <= x; }",
        )
        code, out, _ = run(capsys, "check-fsmd", scenario)
        assert code == 0, out
        assert out.startswith("Equivalent")

    def test_check_fsmd_vectors_that_cannot_run_leave_a_match_alone(self, capsys, tmp_path):
        # No interpretation for f: every run raises UninterpretedSymbol and
        # is skipped, and the match stands as the walk found it.
        scenario = self._machine_pair(tmp_path, "q0 -> q1 { y <= f(x); }", "q0 -> q1 { y <= f(x); }")
        assert run(capsys, "check-fsmd", scenario) == (0, "Equivalent  [fsmd-paths (matched by normalized condition)]\n", "")

    def test_check_fsmd_unconfirmed_difference_is_inconclusive(self, capsys, tmp_path):
        scenario = self._machine_pair(tmp_path, "q0 -> q1 { y <= x * (x + 1); }", "q0 -> q1 { y <= x * x + x; }")
        report = tmp_path / "pair.json"
        code, out, _ = run(capsys, "check-fsmd", scenario, "--json", str(report))
        assert code == 2, out
        assert "'y'" in json.loads(report.read_text())["verdict"]["reason"]

    def test_check_fsmd_confirms_with_the_scenario_vectors(self, capsys, tmp_path):
        scenario = self._machine_pair(tmp_path, "q0 -> q1 { y <= f(x); }", "q0 -> q1 { y <= f(x) + x; }")
        report = tmp_path / "pair.json"
        code, out, _ = run(capsys, "check-fsmd", scenario, "--json", str(report))
        assert code == 2, out  # no interpretation for f: no run can confirm the difference
        reason = json.loads(report.read_text())["verdict"]["reason"]
        assert reason.endswith("(0 of 2 vectors ran: UninterpretedSymbol 'f')"), reason
        text = (tmp_path / "pair.scn").read_text().replace("check fsmd;", "check fsmd; interp f(a) = 2 * a;")
        (tmp_path / "pair.scn").write_text(text)
        code, out, _ = run(capsys, "check-fsmd", scenario, "--json", str(report))
        assert code == 1, out
        witness = json.loads(report.read_text())["verdict"]["witness"]
        assert witness["vector"] == {"x": 3} and witness["values"] == [6, 9]
        assert witness["variable_pair"] == ["y", "y"]

    def test_check_fsmd_without_varmap_pairs_like_named_outputs(self, capsys, tmp_path):
        report = tmp_path / "countdown.json"
        code, out, _ = run(capsys, "check-fsmd", corpus.scenario_path("countdown_by_two"), "--json", str(report))
        assert code == 1, out
        witness = json.loads(report.read_text())["verdict"]["witness"]
        assert witness["variable_pair"] == ["o", "o"] and witness["values"] == [0, -1]

    def test_check_fsmd_without_varmap_needs_one_set_of_outputs(self, capsys, tmp_path):
        with open(corpus.scenario_path("jammer"), encoding="utf-8") as fh:
            text = fh.read()
        scenario = tmp_path / "jammer.scn"
        nets = os.path.dirname(corpus.corpus_path("jammer_pipelined"))
        scenario.write_text(text.replace("varmap { out -> out2; }", "").replace('"../', f'"{nets}/'))
        code, out, err = run(capsys, "check-fsmd", str(scenario))
        assert (code, out) == (3, "")
        assert err == "error: the scenario has no varmap and the outputs differ: ['out'] and ['out2']\n"

    def test_check_fsmd_varmap_that_is_no_bijection_is_a_scenario_error(self, capsys, tmp_path):
        scenario = self._machine_pair(tmp_path, "q0 -> q1 { y <= x; }", "q0 -> q1 { y <= x; }")
        (tmp_path / "pair.scn").write_text((tmp_path / "pair.scn").read_text().replace("y -> y;", "y -> z;"))
        assert run(capsys, "check-fsmd", scenario) == (
            3, "", "error: the output map is not a bijection: output map image ['z'] != ['y']\n")

    def test_check_fsmd_report_lists_no_warnings_for_clean_nets(self, capsys, tmp_path):
        report = tmp_path / "jammer.json"
        run(capsys, "check-fsmd", corpus.scenario_path("jammer"), "--json", str(report))
        assert json.loads(report.read_text())["warnings"] == []


class TestSimulate:
    def test_guard_split_scenario(self, capsys, tmp_path):
        report_file = tmp_path / "run.json"
        code, out, _ = run(capsys, "simulate", corpus.scenario_path("guard_split"), "--json", str(report_file))
        assert code == 0
        assert "Quiescent" in out
        report = json.loads(report_file.read_text())
        assert report["runs"][0]["out_ports"] == {"p4": 3}
        assert report["runs"][0]["trace"][0]["fired"] == ["t1", "t3"]

    def test_deadlock_exits_two(self, capsys, tmp_path):
        net = tmp_path / "stuck.pres"
        net.write_text(
            """
            net stuck {
              place a marked; place b;
              transition t { pre a; post b; fn a; guard a > 10; }
            }
            """
        )
        scenario = tmp_path / "stuck.scn"
        scenario.write_text('scenario stuck { model left = "stuck.pres"; inputs { a = 0; } }')
        code, out, _ = run(capsys, "simulate", str(scenario))
        assert code == 2
        assert "Deadlock" in out

    def test_value_conflict_exits_three_and_leaves_checks_inconclusive(self, capsys, tmp_path):
        (tmp_path / "clash.pres").write_text(
            """
            net clash {
              place a marked var x; place b marked var x; place c var y; place d var z;
              transition t1 { pre a; post c; fn x + 1; }
              transition t2 { pre b; post d; fn x * 2; guard x > 3; }
            }
            """
        )
        scenario = tmp_path / "clash.scn"
        scenario.write_text(
            'scenario clash { model left = "clash.pres"; model right = "clash.pres";\n'
            "  inmap { a -> a; b -> b; } outmap { c -> c; d -> d; } inputs { a = 1; b = 5; } }\n"
        )
        code, _, err = run(capsys, "simulate", str(scenario))
        assert code == 3 and "'x'" in err, err
        report = tmp_path / "clash.json"
        code, out, _ = run(capsys, "check-pres", str(scenario), "--json", str(report))
        assert code == 2 and out.startswith("Inconclusive"), out
        assert "'x'" in json.loads(report.read_text())["verdict"]["reason"]

    def test_schedule_independence_mode(self, capsys):
        code, out, _ = run(capsys, "simulate", corpus.scenario_path("racy"), "--schedules", "10")
        assert code == 1
        assert "NotEquivalent" in out
        code, out, _ = run(capsys, "simulate", corpus.scenario_path("jammer"), "--schedules", "10")
        assert code == 0

    def _racy_with(self, tmp_path, *vectors):
        body = "".join(f"  inputs {{ a = {a}; }}\n" for a in vectors)
        scenario = tmp_path / "racy_vectors.scn"
        scenario.write_text(f'scenario racy_vectors {{\n  model left = "{corpus.corpus_path("racy")}";\n'
                            f"{body}  interp default seeded 3;\n  maxsteps 8;\n}}\n")
        return str(scenario)

    def test_schedule_independence_is_checked_on_every_vector(self, capsys, tmp_path):
        # With a = 10 only one guard holds; with a = 2 the schedule decides.
        report = tmp_path / "racy.json"
        code, out, _ = run(capsys, "simulate", self._racy_with(tmp_path, 10, 2), "--schedules", "10",
                           "--json", str(report))
        assert code == 1 and out.startswith("left (racy): NotEquivalent"), out
        assert json.loads(report.read_text())["runs"][0]["confluence"]["witness"]["vector"] == {"a": 2}
        code, out, _ = run(capsys, "simulate", self._racy_with(tmp_path, 10, 7, -1), "--schedules", "10")
        assert code == 0 and out == "left (racy): Equivalent  [confluence(schedules=10, seed=0)]\n", out

    def test_a_vector_whose_runs_do_not_rest_is_named(self, capsys, tmp_path):
        loop = tmp_path / "loop.pres"
        loop.write_text("net loop {\n  place a marked;\n  transition t { pre a; post a; fn a + 1; }\n}\n")
        scenario = tmp_path / "loop.scn"
        scenario.write_text('scenario loop {\n  model left = "loop.pres";\n  inputs { a = 1; }\n'
                            "  inputs { a = 2; }\n  maxsteps 4;\n}\n")
        code, out, _ = run(capsys, "simulate", str(scenario), "--schedules", "3")
        assert code == 2
        assert out.splitlines()[1] == '  reason: vector {"a": 1}: seed 0 ended StepBoundExceeded after 4 steps', out


    def test_a_scenario_without_a_model_is_a_usage_error(self, capsys, tmp_path):
        scenario = tmp_path / "none.scn"
        scenario.write_text("scenario s { inputs { a = 1; } }")
        report = tmp_path / "none.json"
        for extra in ((), ("--schedules", "3")):
            code, out, err = run(capsys, "simulate", str(scenario), "--json", str(report), *extra)
            assert (code, out, err) == (3, "", "error: simulate needs a left or a right model\n")
            assert not report.exists()


class TestScenarioFrontEnd:
    """simulate, check-pres and check-fsmd read a scenario in one order: the
    scenario, the refusal of the other command's check, the models, their
    kind, the arities of the interp lines and then the interpretation."""

    @pytest.mark.parametrize("argv, message", [
        (("check-pres", corpus.scenario_path("racy")), "check-pres needs both a left and a right model"),
        (("check-fsmd", corpus.scenario_path("racy")), "check-fsmd needs both a left and a right model"),
        (("simulate", corpus.scenario_path("sum_loop")), "simulate expects net models"),
        (("convert", corpus.corpus_path("sum_loop")), "convert expects a net file"),
    ])
    def test_usage_errors(self, capsys, tmp_path, argv, message):
        report = tmp_path / "report.json"
        assert run(capsys, *argv, "--json", str(report)) == (3, "", f"error: {message}\n")
        assert not report.exists()

    def test_check_pres_expects_net_models(self, capsys, tmp_path):
        scenario = tmp_path / "machines.scn"
        scenario.write_text(f'scenario machines {{ model left = "{corpus.corpus_path("sum_loop")}";\n'
                            f'  model right = "{corpus.corpus_path("sum_loop_commuted")}"; check functional; }}\n')
        assert run(capsys, "check-pres", str(scenario)) == (3, "", "error: check-pres expects net models\n")

    def test_check_fsmd_expects_two_nets_or_two_machines(self, capsys, tmp_path):
        scenario = tmp_path / "mixed.scn"
        scenario.write_text(f'scenario mixed {{ model left = "{corpus.corpus_path("countdown")}";\n'
                            f'  model right = "{corpus.corpus_path("sum_loop")}"; check fsmd; }}\n')
        assert run(capsys, "check-fsmd", str(scenario)) == (3, "", "error: check-fsmd expects two nets or two machines\n")

    def test_a_state_bound_that_is_no_integer_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "convert", corpus.corpus_path("card_a"), "--state-bound", "x")
        assert (code, out) == (3, "")
        assert err.endswith("error: argument --state-bound: invalid int value: 'x'\n"), err

    def test_a_missing_model_is_reported_before_the_interpretation(self, capsys, tmp_path):
        # g's body is ill-sorted too, but the models come first under every command.
        scenario = tmp_path / "order.scn"
        scenario.write_text('scenario order { model left = "missing.pres";\n'
                            f'  model right = "{corpus.corpus_path("card_a")}"; interp g(x) = (x > 0) + 1; }}\n')
        missing = tmp_path / "missing.pres"
        for command in ("simulate", "check-pres", "check-fsmd"):
            assert run(capsys, command, str(scenario)) == (
                3, "", f"error: [Errno 2] No such file or directory: '{missing}'\n"), command

    def test_a_run_that_fails_prints_no_run(self, capsys, tmp_path):
        # a = 1 takes t1 and rests; a = 0 applies f, which has no interp line.
        (tmp_path / "late.pres").write_text(
            "net late {\n  place a marked; place b; place c;\n  transition t1 { pre a; post b; fn a; guard a > 0; }\n"
            "  transition t2 { pre a; post c; fn f(a); guard a <= 0; }\n}\n")
        scenario = tmp_path / "late.scn"
        scenario.write_text('scenario late { model left = "late.pres"; inputs { a = 1; } inputs { a = 0; } }\n')
        report = tmp_path / "late.json"
        for extra in ((), ("--schedules", "2")):
            assert run(capsys, "simulate", str(scenario), "--json", str(report), *extra) == (
                3, "", "error: UninterpretedSymbol: no interpretation for function symbol 'f'\n"), extra
            assert not report.exists()
        # The left net runs; the right one's inputs do not match its marking.
        for extra in ((), ("--schedules", "4")):
            assert run(capsys, "simulate", corpus.scenario_path("cardinality_unmarked_port"), *extra) == (
                3, "", "error: SimError: input domain ['Paa', 'Pbb'] does not match the initial marking ['Paa']\n")


class TestValueBound:
    """Net runs end once a token value passes fsmd.MAX_VALUE_BITS.  The
    commands run in a child process with a timeout, so that a run that
    outgrows the bound again fails here instead of hanging."""

    def test_growing_values_end_every_command(self, tmp_path):
        places = " ".join(f"place p{i};" for i in range(1, 15))
        steps = (f"transition t{i} {{ pre p{i - 1}; post p{i}; fn p{i - 1} * p{i - 1}; }}" for i in range(1, 15))
        chain = "\n  ".join(steps)
        nets = {
            # a = 3, 11, 123, ...: a loop whose values double in length, with 40 steps allowed.
            "grow": ("place a marked; place o;\n  transition t { pre a; post a; fn a * a + 2; guard a > 1; }\n"
                     "  transition d { pre a; post o; fn a; guard a <= 1; }",
                     "inmap { } outmap { o -> o; } inputs { a = 3; } maxsteps 40;"),
            # p0 = 3 squared 14 times: about 26000 bits at p14.
            "square": (f"place p0 marked; {places}\n  {chain}",
                       "inmap { p0 -> p0; } outmap { p14 -> p14; } inputs { p0 = 3; }"),
        }
        calls = []
        for name, (body, clauses) in nets.items():
            (tmp_path / f"{name}.pres").write_text(f"net {name} {{\n  {body}\n}}\n")
            scenario = tmp_path / f"{name}.scn"
            scenario.write_text(f'scenario {name} {{ model left = "{name}.pres"; model right = "{name}.pres";\n'
                                f"  {clauses} }}\n")
            calls += [["simulate", str(scenario)], ["simulate", str(scenario), "--schedules", "4"],
                      ["check-pres", str(scenario)], ["check-pres", str(scenario), "--strategy", "sampled"]]
        calls.append(["check-fsmd", str(tmp_path / "square.scn")])
        src, here = os.path.dirname(os.path.dirname(cli.__file__)), os.path.dirname(__file__)
        child = subprocess.run(
            [sys.executable, "-c", "import json, sys; from test_determinism import _in_order; "
             "calls = json.loads(sys.argv[1]); print(json.dumps(_in_order(calls, range(len(calls)), sys.argv[2])))",
             json.dumps([(argv, False) for argv in calls]), str(tmp_path)],
            capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, here])},
        )
        seen = json.loads(child.stdout)
        for i, argv in enumerate(calls[:-1]):
            code, out, err, _ = seen[str(i)]
            assert (code, err) == (2, ""), (argv, err)
            assert "ValueBoundExceeded" in out and "(a token value passed the 4096-bit limit)" in out, (argv, out)
        assert seen[str(len(calls) - 1)][:3] == [0, "Equivalent  [fsmd-paths (matched by normalized condition)]\n", ""]


class TestExportDot:
    def test_net_rendering_counts(self, capsys, guard_split):
        code, out, _ = run(capsys, "export-dot", corpus.corpus_path("guard_split"))
        assert code == 0
        assert out.count("shape=circle") == 7
        assert out.count("shape=box") == 3
        arc_count = sum(len(t.pre) + len(t.post) for t in guard_split.transitions)
        assert out.count(" -> ") == arc_count == 10

    def test_single_state_machine(self, capsys, tmp_path):
        f = tmp_path / "tiny.fsmd"
        f.write_text("fsmd tiny { states q0; reset q0; }")
        code, out, _ = run(capsys, "export-dot", str(f))
        assert code == 0
        assert out.count("shape=") == 1
        assert " -> " not in out

    def test_pipelined_machine_has_ten_ellipses(self, capsys, tmp_path):
        converted = tmp_path / "pipe.fsmd"
        code, _, _ = run(capsys, "convert", corpus.corpus_path("jammer_pipelined"), "-o", str(converted))
        assert code == 0
        code, out, _ = run(capsys, "export-dot", str(converted))
        assert code == 0
        assert out.count("shape=ellipse") + out.count("shape=doublecircle") == 10


class TestStyling:
    def test_color_disabled_by_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PRESTO_COLOR", "0")
        _, out, _ = run(capsys, "check-fsmd", corpus.scenario_path("jammer"))
        assert "\x1b[" not in out

    def test_not_a_tty_means_plain(self, capsys):
        _, out, _ = run(capsys, "check-fsmd", corpus.scenario_path("jammer"))
        assert "\x1b[" not in out


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_exit_codes_on_random_nets(seed):
    # Exit code 1 means a confirmed NotEquivalent, which only a schedule
    # check can find here, with the two seeds that diverged.
    net = random_net(seed)
    rng = random.Random(seed)
    value = {v: rng.randint(-3, 3) for v in sorted(set(net.var_of.values()))}  # one per variable
    inputs = "".join(f" {p} = {value[net.var_of[p]]};" for p in sorted(net.initial_marking))
    with tempfile.TemporaryDirectory() as folder:
        net_file, scenario, report = (os.path.join(folder, name) for name in ("net.pres", "net.scn", "report.json"))
        with open(net_file, "w", encoding="utf-8") as fh:
            fh.write(print_net(net))
        with open(scenario, "w", encoding="utf-8") as fh:
            fh.write(f'scenario s {{ model left = "net.pres"; inputs {{{inputs} }} interp default seeded {seed}; }}')
        for argv in (["validate", net_file], ["convert", net_file], ["export-dot", net_file],
                     ["simulate", scenario], ["simulate", scenario, "--seed", "1"],
                     ["simulate", scenario, "--schedules", "4", "--json", report]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(argv)
            assert "internal error" not in err.getvalue(), (argv, err.getvalue())
            if code == 1 and "--schedules" in argv:
                with open(report, encoding="utf-8") as fh:
                    witness = json.load(fh)["runs"][0]["confluence"]["witness"]
                assert len(set(witness["seeds"])) == 2, argv
            else:
                assert code in (0, 2, 3), (argv, code)


def _corpus_commands() -> list[list[str]]:
    """Every bundled model under validate, convert and export-dot, and every
    scenario under simulate (plain, seeded and with schedules), check-pres
    (both strategies) and check-fsmd."""
    root = os.path.dirname(corpus.corpus_path("racy"))
    models = sorted(os.path.join(folder, name) for folder in (root, os.path.join(root, "mutations"))
                    for name in os.listdir(folder) if name.endswith((".pres", ".fsmd")))
    scenarios = [corpus.scenario_path(name) for name in corpus.SCENARIOS]
    commands = [[command, model] for model in models for command in ("validate", "convert", "export-dot")]
    for scenario in scenarios:
        commands += [["simulate", scenario], ["simulate", scenario, "--seed", "3"],
                     ["simulate", scenario, "--schedules", "10"], ["check-pres", scenario],
                     ["check-pres", scenario, "--strategy", "sampled"], ["check-fsmd", scenario]]
    return commands


class TestCollector:
    def test_main_restores_the_thresholds_it_found_on_every_exit(self, capsys, monkeypatch, tmp_path):
        stuck = tmp_path / "stuck.pres"
        stuck.write_text("net stuck { place a marked; place b; transition t { pre a; post b; fn a; guard a > 10; } }")
        deadlock = tmp_path / "stuck.scn"
        deadlock.write_text('scenario stuck { model left = "stuck.pres"; inputs { a = 0; } }')
        during = []

        def explode(args):
            during.append(gc.get_threshold())
            raise RuntimeError("boom")

        calls = [  # (argv, exit code)
            (["validate", corpus.corpus_path("guard_split")], 0),
            (["check-pres", corpus.scenario_path("addthree_plus4")], 1),
            (["simulate", str(deadlock)], 2),
            (["validate", "/nonexistent.pres"], 3),
            (["--help"], 0),
            (["simulate"], 3),
            (["frobnicate"], 3),
            (["export-dot", corpus.corpus_path("guard_split")], 3),  # the internal error below
        ]
        monkeypatch.setattr(cli, "cmd_export_dot", explode)
        found = gc.get_threshold()
        try:
            for thresholds, raised in (((700, 10, 10), cli.GC_THRESHOLD), ((123, 4, 5), cli.GC_THRESHOLD),
                                       ((50_000, 3, 2), 50_000), ((0, 10, 10), 0)):
                gc.set_threshold(*thresholds)
                for argv, code in calls:
                    assert cli.main(argv) == code, argv
                    assert gc.get_threshold() == thresholds, argv
                # A threshold is only ever raised, and automatic collection that is off stays off.
                assert during.pop() == (raised, *thresholds[1:])
        finally:
            gc.set_threshold(*found)
        capsys.readouterr()

    def test_corpus_commands_leave_no_cyclic_garbage(self):
        # Commands may then run with a high generation-0 threshold: the
        # collector has nothing of theirs to free.  No command leaves a term
        # behind either: nothing a command builds outlives it.  The commands
        # run in a fresh process, where no term is shared with a net that
        # this suite holds (a node's cached normal form lives as long as the
        # node).
        src, here = os.path.dirname(os.path.dirname(cli.__file__)), os.path.dirname(__file__)
        child = subprocess.run(
            [sys.executable, "-c", "import json; from test_cli import _leftovers; print(json.dumps(_leftovers()))"],
            capture_output=True, text=True, check=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, here])},
        )
        assert json.loads(child.stdout) == {"garbage": {}, "terms": {}}


def _leftovers() -> dict[str, dict]:
    """What each corpus command leaves behind: the types of its cyclic
    garbage, and how many more terms the intern table holds after it than
    before the first command.  --json is left out, because json's indenting
    encoder leaves a cycle of its own."""
    gc.collect()
    terms = len(ex._table)
    left: dict[str, dict] = {"garbage": {}, "terms": {}}
    try:
        for argv in _corpus_commands():
            gc.set_debug(gc.DEBUG_SAVEALL)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.main(argv)
            gc.collect()
            gc.set_debug(0)
            if gc.garbage:
                left["garbage"][" ".join(argv)] = sorted({type(o).__name__ for o in gc.garbage})
            gc.garbage.clear()
            gc.collect()
            if len(ex._table) != terms:
                left["terms"][" ".join(argv)] = len(ex._table) - terms
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return left
