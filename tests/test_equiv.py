import random
import re

import pytest

from presto import corpus, dsl, equiv, expr as ex
from presto.convert import pres_to_fsmd
from presto.dsl import parse_fsmd, parse_pres
from presto.equiv import (
    PortMap,
    PortMapError,
    check_cardinality,
    check_fsmd_equivalence,
    check_functional,
    derive_right_inputs,
)
from presto.fsmd import Fsmd, FsmdTransition, UpdateSet, machine_run
from presto.sim import QUIESCENT, SeededInterpretation, out_port_values, simulate_run
from presto.verdict import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT

from _gen import VARS, random_env, random_int_expr

CARD_PM = PortMap({"Pa": "Paa", "Pb": "Pbb"}, {"Pe": "Pee", "Pf": "Pff", "Pg": "Pgg"})
ADDTHREE_PM = PortMap({"Pa": "Paa"}, {"Pe": "Pee"})
CARD_VECTORS = [{"Pa": 1, "Pb": 2}]
ADDTHREE_VECTORS = [{"Pa": 2}]
INTERP = SeededInterpretation(5)
JAMMER_VECTOR = {"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}


class TestCardinality:
    def test_cardinality_pair_equivalent(self, card_a, card_b):
        verdict = check_cardinality(card_a, card_b, CARD_PM, CARD_VECTORS, INTERP)
        assert verdict.status == EQUIVALENT

    def test_net_against_itself_with_identity_map(self, guard_split):
        pm = PortMap.identity(guard_split)
        vectors = [{"p1": 1, "p2": 2, "p3": 0, "p7": 9}]
        verdict = check_cardinality(guard_split, guard_split, pm, vectors, SeededInterpretation(1))
        assert verdict.status == EQUIVALENT

    def test_dropped_arc_flips_and_replays(self, card_a):
        mutant = corpus.load_net("card_b_dropped_arc")
        verdict = check_cardinality(card_a, mutant, CARD_PM, CARD_VECTORS, INTERP)
        assert verdict.status == NOT_EQUIVALENT
        # the fault is visible in the ports themselves, and replaying the
        # run shows Pg marked on the left with Pgg starved on the right
        run1 = simulate_run(card_a, dict(CARD_VECTORS[0]), INTERP)
        run2 = simulate_run(mutant, {"Paa": 1, "Pbb": 2}, INTERP)
        assert run1.status == QUIESCENT and run2.status == QUIESCENT
        assert "Pg" in run1.final_state
        assert "Pgg" not in run2.final_state

    def test_unmarked_port_flips_condition_two(self, card_a):
        mutant = corpus.load_net("card_b_unmarked_port")
        verdict = check_cardinality(card_a, mutant, CARD_PM, CARD_VECTORS, INTERP)
        assert verdict.status == NOT_EQUIVALENT
        assert verdict.witness["condition"] == 2
        assert verdict.witness["place_pair"] == ["Pb", "Pbb"]

    def test_invalid_port_map_is_condition_one(self, card_a):
        # Two in-ports against three: no map can be a bijection, so the nets differ.
        mutant = corpus.load_net("card_b_dropped_arc")
        verdict = check_cardinality(card_a, mutant, CARD_PM, CARD_VECTORS, INTERP)
        assert verdict.status == NOT_EQUIVALENT
        assert verdict.witness["condition"] == 1

    def test_port_map_that_is_no_bijection_between_equal_port_counts_is_an_error(self, card_a, card_b):
        # Both nets have two in-ports and three out-ports, so the map is at fault, not the nets.
        for pm in (PortMap({"Pa": "Paa"}, {}), PortMap({"Pa": "Paa", "Pb": "Paa"}, CARD_PM.out_map)):
            with pytest.raises(PortMapError, match="the port map is not a bijection: in-port map"):
                check_cardinality(card_a, card_b, pm, CARD_VECTORS, INTERP)


class TestFunctional:
    def test_addthree_symbolic(self, addthree_a, addthree_b):
        verdict = check_functional(addthree_a, addthree_b, ADDTHREE_PM, "symbolic", ADDTHREE_VECTORS, {})
        assert verdict.status == EQUIVALENT

    def test_addthree_sampled_shows_five_and_five(self, addthree_a, addthree_b):
        verdict = check_functional(addthree_a, addthree_b, ADDTHREE_PM, "sampled", ADDTHREE_VECTORS, {})
        assert verdict.status == EQUIVALENT
        assert verdict.witness["samples"][0]["out_values"] == [{"Pe": 5}, {"Pee": 5}]

    def test_identical_nets_symbolic(self, addthree_a):
        verdict = check_functional(addthree_a, addthree_a, PortMap.identity(addthree_a), "symbolic", ADDTHREE_VECTORS, {})
        assert verdict.status == EQUIVALENT

    def test_plus_four_mutant_not_equivalent(self, addthree_a):
        mutant = corpus.load_net("addthree_b_plus4")
        verdict = check_functional(addthree_a, mutant, ADDTHREE_PM, "sampled", ADDTHREE_VECTORS, {})
        assert verdict.status == NOT_EQUIVALENT
        assert verdict.witness["values"] == [5, 6]
        # the witness replays: feed the inputs back into the simulator
        run2 = simulate_run(mutant, derive_right_inputs(addthree_a, mutant, ADDTHREE_PM, verdict.witness["vector"]), {})
        assert out_port_values(mutant, run2.final_state) == {"Pee": 6}

    def test_an_unknown_strategy_is_refused(self, addthree_a, addthree_b):
        with pytest.raises(ValueError, match="unknown strategy 'fast'"):
            check_functional(addthree_a, addthree_b, ADDTHREE_PM, "fast", ADDTHREE_VECTORS, {})

    def test_plus_four_mutant_symbolic_confirms_by_sampling(self, addthree_a):
        mutant = corpus.load_net("addthree_b_plus4")
        verdict = check_functional(addthree_a, mutant, ADDTHREE_PM, "symbolic", ADDTHREE_VECTORS, {})
        assert verdict.status == NOT_EQUIVALENT

    def test_reflexivity_over_loop_free_corpus(self):
        vectors_by_net = {
            "guard_split": [{"p1": 1, "p2": 2, "p3": 0, "p7": 9}],
            "card_a": [{"Pa": 1, "Pb": 2}],
            "card_b": [{"Paa": 1, "Pbb": 2}],
            "addthree_a": [{"Pa": 2}],
            "addthree_b": [{"Paa": 2}],
            "jammer_nonpipelined": [{"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}],
            "jammer_pipelined": [{"sigE": 3, "sigA": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}],
            # a = 9: only one guard holds.  a = 2: both hold, so the run chooses,
            # and the machine, which gets stuck there, is not held to it.
            "racy": [{"a": 9}, {"a": 2}],
            "countdown": [{"a": 3}],  # the one looping net: its conversion loops on the reset state
        }
        for name in corpus.NETS:
            net = corpus.load_net(name)
            verdict = check_functional(
                net, net, PortMap.identity(net), "symbolic", vectors_by_net[name], SeededInterpretation(2)
            )
            assert "disagrees with its net" not in (verdict.reason or ""), (name, verdict)
            assert verdict.status == EQUIVALENT, (name, verdict)

    def test_multipath_against_single_path_is_inconclusive(self, addthree_a):
        branched = parse_pres(
            """
            net branched {
              place Pa marked; place Pe;
              transition pos { pre Pa; post Pe; fn Pa + 3; guard Pa >= 0; }
              transition neg { pre Pa; post Pe; fn Pa - 3; guard Pa < 0; }
            }
            """
        )
        verdict = check_functional(branched, addthree_a, PortMap({"Pa": "Pa"}, {"Pe": "Pe"}),
                                   "symbolic", [{"Pa": 2}], {})
        assert verdict.status == INCONCLUSIVE
        assert "multipath" in verdict.reason

    def test_moved_threshold_is_confirmed_by_a_vector(self):
        def branched(threshold):
            return parse_pres(
                f"""
                net branched {{
                  place Pa marked; place Pe;
                  transition pos {{ pre Pa; post Pe; fn Pa + 3; guard Pa >= {threshold}; }}
                  transition neg {{ pre Pa; post Pe; fn Pa - 3; guard Pa < {threshold}; }}
                }}
                """
            )

        pm = PortMap({"Pa": "Pa"}, {"Pe": "Pe"})
        verdict = check_functional(branched(0), branched(1), pm, "symbolic", [{"Pa": 5}], {})
        assert verdict.status == INCONCLUSIVE
        assert "multipath" in verdict.reason
        verdict = check_functional(branched(0), branched(1), pm, "symbolic", [{"Pa": 5}, {"Pa": 0}], {})
        assert verdict.status == NOT_EQUIVALENT
        assert verdict.witness["vector"] == {"Pa": 0}
        assert verdict.witness["values"] == [3, -3]
        assert verdict.witness["out_place_pair"] == ["Pe", "Pe"]

    def test_each_vector_is_simulated_once(self, addthree_a, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return simulate_run(*args, **kwargs)

        monkeypatch.setattr(equiv, "simulate_run", counting)
        mutant = corpus.load_net("addthree_b_plus4")
        vectors = [{"Pa": 2}, {"Pa": 7}, {"Pa": -1}]
        for strategy in ("sampled", "symbolic"):
            calls.clear()
            verdict = check_functional(addthree_a, mutant, ADDTHREE_PM, strategy, vectors, {})
            assert verdict.status == NOT_EQUIVALENT, strategy
            assert len(calls) == 2 * len(vectors), strategy


class TestFsmdEquivalence:
    def test_jammer_versions_equivalent(self, jammer_nonpipelined, jammer_pipelined):
        m1 = pres_to_fsmd(jammer_nonpipelined).fsmd
        m2 = pres_to_fsmd(jammer_pipelined).fsmd
        verdict = check_fsmd_equivalence(m1, m2, {"out": "out2"})
        assert verdict.status == EQUIVALENT

    def test_machine_against_itself(self, jammer_pipelined):
        m = pres_to_fsmd(jammer_pipelined).fsmd
        assert check_fsmd_equivalence(m, m, {"out2": "out2"}).status == EQUIVALENT

    def test_swapped_composition_not_equivalent(self, jammer_nonpipelined):
        m1 = pres_to_fsmd(jammer_nonpipelined).fsmd
        m2 = pres_to_fsmd(corpus.load_net("jammer_pipelined_swapped")).fsmd
        verdict = check_fsmd_equivalence(m1, m2, {"out": "out2"}, [JAMMER_VECTOR], SeededInterpretation(11))
        assert verdict.status == NOT_EQUIVALENT
        assert verdict.witness["variable_pair"] == ["out", "out2"]
        forms = verdict.witness["normal_forms"]
        assert "FFT(f(" in forms[1].replace(" ", "") or "f(FFT(" in forms[1]

    def test_swapped_witness_replays_concretely(self, jammer_nonpipelined):
        mutant = corpus.load_net("jammer_pipelined_swapped")
        interp = SeededInterpretation(11)
        vector = {"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}
        run1 = simulate_run(jammer_nonpipelined, vector, interp, max_steps=64)
        run2 = simulate_run(mutant, derive_right_inputs(jammer_nonpipelined, mutant, PortMap({}, {}), vector),
                            interp, max_steps=64)
        assert run1.final_state["out"] != run2.final_state["out2"]

    def test_var_map_must_biject_outputs(self, jammer_nonpipelined):
        m1 = pres_to_fsmd(jammer_nonpipelined).fsmd
        with pytest.raises(PortMapError, match=re.escape("output map image ['nope'] != ['out']")):
            check_fsmd_equivalence(m1, m1, {"out": "nope"})

    def test_looping_machine_is_inconclusive(self):
        loop = Fsmd("loop", ("q0", "q1"), "q0", frozenset({"x"}), frozenset({"y"}), frozenset({"y"}),
                    (FsmdTransition("q0", (), "q1", UpdateSet(())),
                     FsmdTransition("q1", (), "q0", UpdateSet(()))))
        verdict = check_fsmd_equivalence(loop, loop, {"y": "y"})
        assert verdict.status == INCONCLUSIVE

    def test_an_invalid_machine_is_inconclusive(self):
        def machine(target):
            return Fsmd("m", ("q0", "q1"), "q0", frozenset({"x"}), frozenset({"y"}), frozenset({"y"}),
                        (FsmdTransition("q0", (), "q1", UpdateSet.of([(target, ex.IntConst(1))])),))

        verdict = check_fsmd_equivalence(machine("x"), machine("y"), {"y": "y"})
        assert verdict.status == INCONCLUSIVE
        assert verdict.reason == "left machine invalid: IllegalTarget: x (update in q0->q1#0)"

    def test_any_mapped_output_can_confirm_a_difference(self):
        x = ex.Var("x")
        one = ex.IntConst(1)

        def two_outputs(name, y1, y2):
            return Fsmd(name, ("q0", "q1"), "q0", frozenset({"x"}), frozenset({"y1", "y2"}), frozenset({"y1", "y2"}),
                        (FsmdTransition("q0", (), "q1", UpdateSet.of([("y1", y1), ("y2", y2)])),))

        # y1 differs only in normal form; y2 really differs
        m1 = two_outputs("a", ex.mul(x, ex.add(x, one)), ex.add(x, one))
        m2 = two_outputs("b", ex.add(ex.mul(x, x), x), ex.add(x, ex.IntConst(2)))
        verdict = check_fsmd_equivalence(m1, m2, {"y1": "y1", "y2": "y2"}, [{"x": 4}])
        assert verdict.status == NOT_EQUIVALENT
        assert verdict.witness["variable_pair"] == ["y2", "y2"]
        assert verdict.witness["values"] == [5, 6]
        assert "normal_forms" not in verdict.witness  # the forms that differ are y1's, which agree here


class TestSymmetryAndSoundness:
    def test_swapping_sides_never_flips_equivalent(self, card_a, card_b, addthree_a, addthree_b):
        inv4 = PortMap({v: k for k, v in CARD_PM.in_map.items()}, {v: k for k, v in CARD_PM.out_map.items()})
        assert check_cardinality(card_b, card_a, inv4, [{"Paa": 1, "Pbb": 2}], INTERP).status == EQUIVALENT
        inv5 = PortMap({"Paa": "Pa"}, {"Pee": "Pe"})
        assert check_functional(addthree_b, addthree_a, inv5, "symbolic", [{"Paa": 2}], {}).status == EQUIVALENT

    def test_fsmd_symmetry(self, jammer_nonpipelined, jammer_pipelined):
        m1 = pres_to_fsmd(jammer_nonpipelined).fsmd
        m2 = pres_to_fsmd(jammer_pipelined).fsmd
        assert check_fsmd_equivalence(m2, m1, {"out2": "out"}).status == EQUIVALENT

    def test_equivalent_machines_agree_on_sampled_runs(self, jammer_nonpipelined, jammer_pipelined):
        # machine-level Equivalent must be backed by the nets' concrete runs
        m1 = pres_to_fsmd(jammer_nonpipelined).fsmd
        m2 = pres_to_fsmd(jammer_pipelined).fsmd
        assert check_fsmd_equivalence(m1, m2, {"out": "out2"}).status == EQUIVALENT
        rng = random.Random(2024)
        for case in range(100):
            vector = {p: rng.randint(-50, 50) for p in ("sig", "th", "tr", "om", "mp", "dp")}
            interp = SeededInterpretation(rng.randint(0, 10**6))
            run1 = simulate_run(jammer_nonpipelined, vector, interp, max_steps=64)
            run2 = simulate_run(jammer_pipelined,
                                derive_right_inputs(jammer_nonpipelined, jammer_pipelined, PortMap({}, {}), vector),
                                interp, max_steps=64)
            assert run1.status == QUIESCENT and run2.status == QUIESCENT
            assert run1.final_state["out"] == run2.final_state["out2"], (case, vector)


def _split_machine(name, guard, then_expr, else_expr):
    branches = ((guard, then_expr), (ex.negate_guard(guard), else_expr))
    return Fsmd(name, ("q0", "q1"), "q0", frozenset(VARS), frozenset({"y"}), frozenset({"y"}),
                tuple(FsmdTransition("q0", (g,), "q1", UpdateSet.of([("y", e)])) for g, e in branches))


def test_fsmd_verdicts_agree_with_concrete_runs():
    """Random single-split machine pairs: every NotEquivalent replays, and no
    Equivalent is contradicted by a sampled vector."""
    rng = random.Random(2026)
    seen = {EQUIVALENT: 0, NOT_EQUIVALENT: 0, INCONCLUSIVE: 0}
    for case in range(300):
        lhs, rhs = random_int_expr(rng, 2), random_int_expr(rng, 2)
        op = rng.choice(ex.REL_OPS)
        branches = [random_int_expr(rng, 3) for _ in range(2)]
        # The right side keeps each transform in normalize-equal form or replaces it.
        other = [ex.normalize(e) if rng.random() < 0.6 else random_int_expr(rng, 3) for e in branches]
        left = _split_machine("l", ex.Rel(op, lhs, rhs), *branches)
        right = _split_machine("r", ex.Rel(ex.MIRROR[op], rhs, lhs), *other)
        envs = [random_env(rng) for _ in range(4)]
        functions = envs[0][1]
        verdict = check_fsmd_equivalence(left, right, {"y": "y"}, [values for values, _ in envs], functions)
        seen[verdict.status] += 1
        if verdict.status == NOT_EQUIVALENT:
            vector = verdict.witness["vector"]
            left_y, right_y = (machine_run(m, vector, functions)[0]["y"] for m in (left, right))
            assert left_y != right_y, case
        elif verdict.status == EQUIVALENT:
            for values, _ in [*envs, *(random_env(rng) for _ in range(4))]:
                left_y, right_y = (machine_run(m, values, functions)[0]["y"] for m in (left, right))
                assert left_y == right_y
    assert seen[EQUIVALENT] > 50 and seen[NOT_EQUIVALENT] > 50, seen


class TestLoops:
    def test_sum_loop_against_its_commuted_copy_is_equivalent(self):
        m1, m2 = corpus.load_fsmd("sum_loop"), corpus.load_fsmd("sum_loop_commuted")
        assert check_fsmd_equivalence(m1, m2, {"s": "s"}).status == EQUIVALENT
        assert check_fsmd_equivalence(m2, m1, {"s": "s"}).status == EQUIVALENT
        # n = 4 needs six steps; a run cut at five confirms and denies nothing.
        verdict = check_fsmd_equivalence(m1, m2, {"s": "s"}, [{"n": 4}], max_steps=5)
        assert verdict.status == EQUIVALENT, verdict

    def test_sum_loop_adding_twice_is_confirmed_by_a_run_through_the_loop(self):
        m1, m2 = corpus.load_fsmd("sum_loop"), corpus.load_fsmd("sum_loop_double")
        verdict = check_fsmd_equivalence(m1, m2, {"s": "s"}, [{"n": 0}, {"n": 4}], max_steps=64)
        assert verdict.status == NOT_EQUIVALENT
        assert verdict.witness["vector"] == {"n": 4} and verdict.witness["values"] == [6, 12]
        assert machine_run(m1, {"n": 4})[0]["s"] != machine_run(m2, {"n": 4})[0]["s"]
        # A run that cannot finish the loop confirms nothing.
        verdict = check_fsmd_equivalence(m1, m2, {"s": "s"}, [{"n": 0}, {"n": 4}], max_steps=5)
        assert verdict.status == INCONCLUSIVE
        assert verdict.reason.startswith("no correspondence for 's' at cutpoints (q1, q1), which lie on a loop: ")
        assert "(1 of 2 vectors ran: a run took more than 5 steps)" in verdict.reason

    def test_count_down_nets(self):
        countdown, by_two = corpus.load_net("countdown"), corpus.load_net("countdown_by_two")
        pm = PortMap({}, {"o": "o"})
        for strategy in ("symbolic", "sampled"):
            verdict = check_functional(countdown, by_two, pm, strategy, [{"a": 3}], {})
            assert verdict.status == NOT_EQUIVALENT, strategy
            assert verdict.witness["values"] == [0, -1]
        assert check_functional(countdown, countdown, pm, "symbolic", [{"a": 3}], {}).status == EQUIVALENT

    def test_a_machine_that_loops_forever_is_not_equivalent_to_one_that_stops(self):
        # The guard of q1's self-loop always holds and its exit guard never
        # does, so the left machine never stops where the right one does.
        forever = parse_fsmd(
            """
            fsmd forever { states q0, q1, q2; reset q0; inputs x; storage y; outputs y;
              q0 -> q1 { y <= x; }
              q1 -> q1 when 0 < 1 { }
              q1 -> q2 when 1 <= 0 { }
            }
            """
        )
        stops = parse_fsmd("fsmd stops { states r0, r1; reset r0; inputs x; storage y; outputs y; r0 -> r1 { y <= x; } }")
        for m1, m2, reason in ((forever, stops, "the left machine can loop forever from q1 while the right machine waits at r1"),
                               (stops, forever, "the right machine can loop forever from q1 while the left machine waits at r1")):
            verdict = check_fsmd_equivalence(m1, m2, {"y": "y"}, [{"x": 1}])
            assert verdict.status == INCONCLUSIVE
            assert verdict.reason.startswith(reason), verdict.reason

    def test_a_loop_that_never_ends_advances_alone_where_the_other_branches(self):
        base = dsl.print_fsmd(corpus.load_fsmd("sum_loop"))
        forever = parse_fsmd(base.replace("when i < n", "when i <= i").replace("when i >= n", "when i > i"))
        for m1, m2 in ((forever, corpus.load_fsmd("sum_loop")), (corpus.load_fsmd("sum_loop_commuted"), forever)):
            verdict = check_fsmd_equivalence(m1, m2, {"s": "s"}, [{"n": 2}])
            assert verdict.status == INCONCLUSIVE
            assert "can loop forever from q1 while the" in verdict.reason

    def test_a_variable_without_partner_at_a_loop_gets_a_symbol_of_its_own(self):
        # t is live at the left loop head only, through a product that
        # normalizes to 0; its own symbol lets the loop bodies agree.
        base = dsl.print_fsmd(corpus.load_fsmd("sum_loop"))
        left = parse_fsmd(base.replace("storage i, s;", "storage i, s, t;")
                          .replace("s <= s + i;", "s <= s + i + 0 * t;"))
        verdict = check_fsmd_equivalence(left, corpus.load_fsmd("sum_loop_commuted"), {"s": "s"})
        assert verdict.status == EQUIVALENT

    # After a round of the loop the left a and b hold one term, so the
    # latest arrival at (q1, q1) alone would put them in one class, which
    # the first arrival (a = 0, b = 1) denies.
    ARRIVALS = ("fsmd {name} {{ states q0, q1, q2; reset q0; inputs n; storage a, b; outputs b;\n"
                "  q0 -> q1 {{ a <= 0; b <= 1; }}\n"
                "  q1 -> q1 when a < n {{ a <= a + 1; b <= {b} + 1; }}\n"
                "  q1 -> q2 when a >= n {{ }}\n}}")

    def test_a_loop_pair_keeps_the_classes_that_every_arrival_agrees_on(self, monkeypatch):
        # With the classes of every arrival kept apart, the vector n = 2
        # separates the outputs.
        left, right = (parse_fsmd(self.ARRIVALS.format(name=name, b=b)) for name, b in (("left", "a"), ("right", "b")))
        verdict = check_fsmd_equivalence(left, right, {"b": "b"}, [{"n": 2}])
        assert verdict.exit_code() == 1, verdict
        assert verdict.witness["values"] == [2, 3]
        # A walk that follows the latest arrival alone matches every path;
        # the vector, run before the walk, still separates the outputs.
        monkeypatch.setattr(equiv, "_meet", lambda first, second: second)
        verdict = check_fsmd_equivalence(left, right, {"b": "b"}, [{"n": 2}])
        assert verdict.exit_code() == 1, verdict
        assert verdict.method == "fsmd-paths (matched by normalized condition)+sampled"
        assert verdict.reason.endswith("a fault in presto")
        assert verdict.witness["values"] == [2, 3]

    def test_without_a_vector_the_walk_alone_keeps_the_loop_pair_apart(self):
        # No run can refute a match here, so a walk that followed the latest
        # arrival alone would make this pair Equivalent.
        left, right = (parse_fsmd(self.ARRIVALS.format(name=name, b=b)) for name, b in (("left", "a"), ("right", "b")))
        verdict = check_fsmd_equivalence(left, right, {"b": "b"}, [])
        assert verdict.status == INCONCLUSIVE
        assert verdict.reason.startswith("no correspondence for 'b' at cutpoints (q1, q1), which lie on a loop")


def test_symbolic_check_validates_both_conversions(addthree_a):
    # Two unguarded transitions compete for Pa: the conversion emits two
    # transitions with one (empty) guard set from the same state.
    racing = parse_pres(
        """
        net racing {
          place Pa marked; place Pe;
          transition one { pre Pa; post Pe; fn Pa + 3; }
          transition two { pre Pa; post Pe; fn Pa + 4; }
        }
        """
    )
    verdict = check_functional(racing, addthree_a, PortMap({"Pa": "Pa"}, {"Pe": "Pe"}), "symbolic", [], {})
    assert verdict.status == INCONCLUSIVE
    assert verdict.reason.startswith("left conversion invalid: NondeterministicF")
