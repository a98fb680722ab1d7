import gc
import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from presto import expr as ex, sim
from presto.convert import UnsafeMarking
from presto.dsl import parse_pres, parse_scenario
from presto.expr import SortMismatch
from presto.fsmd import MAX_VALUE_BITS
from presto.pres import PresNet, Transition
from presto.sim import (
    DEADLOCK,
    QUIESCENT,
    STEP_BOUND_EXCEEDED,
    VALUE_BOUND_EXCEEDED,
    SeededInterpretation,
    check_arities,
    ValueConflict,
    confluence_check,
    interpretation,
    out_port_values,
    simulate_run,
    trace_json,
)

import _reference
from _gen import random_net

GUARD_SPLIT_INTERP = {
    "f_t1": lambda a, b: a + b,
    "f_t2": lambda a: a * 2,
    "f_t3": lambda a: a,
    "g": lambda a: a,
}

JAMMER_VECTOR = {"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}


class TestSimulateStep:
    def test_affine_transfer(self):
        net = parse_pres(
            """
            net two {
              place a marked; place b;
              transition t { pre a; post b; fn a + 3; }
            }
            """
        )
        run = simulate_run(net, {"a": 2}, {}, max_steps=1)
        (fired, ts), = run.trace
        assert (run.status, fired.transitions, ts) == (QUIESCENT, ("t",), {"b": 5})

    def test_nullary_transfer_function_and_guard(self):
        net = parse_pres(
            """
            net const {
              place a marked; place b;
              transition t { pre a; post b; fn k(); guard k() > a; }
            }
            """
        )
        run = simulate_run(net, {"a": 2}, {"k": lambda: 7})
        assert run.status == QUIESCENT
        assert run.final_state == {"b": 7}
        assert simulate_run(net, {"a": 9}, {"k": lambda: 7}).status == DEADLOCK

    def test_self_loop_keeps_value(self):
        net = parse_pres(
            """
            net loop {
              place p marked; place q marked; place r;
              transition t { pre p, q; post p; fn p; }
              transition s { pre q; post r; fn q; }
            }
            """
        )
        # t and s conflict on q; the set containing t keeps p's token as is
        run = simulate_run(net, {"p": 11, "q": 4}, {}, max_steps=1)
        (fired, ts), = run.trace
        assert (run.status, fired.transitions, ts) == (QUIESCENT, ("t",), {"p": 11})

    def test_false_guard_selects_the_negated_branch(self, guard_split):
        ts = {"p1": 1, "p2": 2, "p3": 0, "p7": 9}
        run = simulate_run(guard_split, ts, GUARD_SPLIT_INTERP, max_steps=1)
        (fired, out), = run.trace
        assert (run.status, fired.transitions, out) == (QUIESCENT, ("t1", "t3"), {"p4": 3, "p7": 9})

    def test_true_guard_selects_the_guarded_branch(self, guard_split):
        ts = {"p1": 1, "p2": 2, "p3": 5, "p7": 9}
        run = simulate_run(guard_split, ts, GUARD_SPLIT_INTERP, max_steps=1)
        (fired, out), = run.trace
        assert (run.status, fired.transitions, out) == (QUIESCENT, ("t1", "t2"), {"p4": 3, "p5": 10, "p6": 10})

    def test_no_enabled_set(self, guard_split):
        # t1 needs p1 and p2, so a run from p1 alone is at rest before its first step.
        net = guard_split._replace(initial_marking=frozenset({"p1"}))
        run = simulate_run(net, {"p1": 1}, GUARD_SPLIT_INTERP, max_steps=1)
        assert (run.status, run.steps, run.trace, run.final_state) == (QUIESCENT, 0, [], {"p1": 1})


    def test_marked_places_sharing_a_variable_must_agree(self):
        # Both tokens are read as `x`; the converted machine keeps one value
        # per variable, so 1 and 5 at once are a conflict, not a deadlock.
        net = parse_pres(CLASH_NET)
        with pytest.raises(ValueConflict, match="'x'"):
            simulate_run(net, {"a": 1, "b": 5}, {})
        run = simulate_run(net, {"a": 5, "b": 5}, {})
        assert run.status == QUIESCENT and run.final_state == {"c": 6, "d": 10}


CLASH_NET = """
net clash {
  place a marked var x; place b marked var x; place c var y; place d var z;
  transition t1 { pre a; post c; fn x + 1; }
  transition t2 { pre b; post d; fn x * 2; guard x > 3; }
}
"""


class TestSimulateRun:
    def test_functional_pair_left_reaches_five(self, addthree_a):
        run = simulate_run(addthree_a, {"Pa": 2}, {})
        assert run.status == QUIESCENT
        assert out_port_values(addthree_a, run.final_state) == {"Pe": 5}

    def test_guard_false_everywhere_deadlocks_at_step_zero(self):
        net = parse_pres(
            """
            net stuck {
              place a marked; place b;
              transition t { pre a; post b; fn a; guard a > 10; }
            }
            """
        )
        run = simulate_run(net, {"a": 0}, {})
        assert run.status == DEADLOCK
        assert run.steps == 0
        assert run.final_state == {"a": 0}

    def test_one_group_without_a_holding_guard_blocks_the_whole_step(self):
        # The guards of ta1, ta2 and tb1 hold, but tc, alone in its group,
        # fails: no maximal step exists, so nothing fires at all.
        net = parse_pres(
            """
            net splits {
              place a marked; place b marked; place c marked;
              place x; place y; place z;
              transition ta1 { pre a; post x; fn a + 1; guard a > 0; }
              transition ta2 { pre a; post x; fn a - 1; guard a > 1; }
              transition tc { pre c; post z; fn c + 3; guard c >= 0; }
              transition tb1 { pre b; post y; fn b * 2; guard b > 2; }
              transition tb2 { pre b; post y; fn b; }
            }
            """
        )
        inputs = {"a": 5, "b": 3, "c": -1}
        for seed in (None, 0):
            run = simulate_run(net, dict(inputs), {}, seed)
            assert (run.status, run.steps, run.final_state, run.trace) == (DEADLOCK, 0, inputs, [])

    def test_wrong_input_domain_rejected(self, addthree_a):
        with pytest.raises(Exception):
            simulate_run(addthree_a, {"Pm": 2}, {})

    def test_step_bound(self, addthree_a):
        run = simulate_run(addthree_a, {"Pa": 2}, {}, max_steps=1)
        assert run.status == STEP_BOUND_EXCEEDED
        assert run.steps == 1

    def test_stepwise_jammer_quiesces_in_fifteen_steps(self, jammer_nonpipelined):
        run = simulate_run(jammer_nonpipelined, dict(JAMMER_VECTOR), SeededInterpretation(11), 0, 64)
        assert run.status == QUIESCENT
        assert run.steps == 15
        assert set(out_port_values(jammer_nonpipelined, run.final_state)) == {"out"}

    def test_pipelined_jammer_quiesces_in_nine_steps(self, jammer_pipelined):
        vector = {"sigE": 3, "sigA": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}
        run = simulate_run(jammer_pipelined, vector, SeededInterpretation(11), None, 64)
        assert run.status == QUIESCENT
        assert run.steps == 9

    def test_reproducible_under_fixed_seed(self, racy):
        a = simulate_run(racy, {"a": 2}, SeededInterpretation(3), 42, 8)
        b = simulate_run(racy, {"a": 2}, SeededInterpretation(3), 42, 8)
        assert trace_json(a) == trace_json(b)

    def test_token_conservation_along_traces(self, jammer_nonpipelined, guard_split):
        rng = random.Random(0)
        for net, vector in ((jammer_nonpipelined, dict(JAMMER_VECTOR)),
                            (guard_split, {"p1": 1, "p2": 2, "p3": rng.randint(-3, 3), "p7": 9})):
            run = simulate_run(net, vector, SeededInterpretation(1), 7, 64)
            marked = frozenset(vector)
            for fs, ts in run.trace:
                consumed = frozenset().union(*(net.transition(t).pre for t in fs.transitions))
                produced = frozenset().union(*(net.transition(t).post for t in fs.transitions))
                assert frozenset(ts) == (marked - consumed) | produced
                assert list(ts) == [p for p in net.places if p in ts]  # in place order, whatever the hashing
                marked = frozenset(ts)

    def test_tokens_come_in_the_nets_place_order(self, guard_split):
        # demos/02 prints these dicts; their order must not follow string hashing.
        for p3, marked in ((5, ["p4", "p5", "p6"]), (0, ["p7", "p4"])):  # p7 is declared before p4
            run = simulate_run(guard_split, {"p7": 9, "p3": p3, "p2": 2, "p1": 1}, GUARD_SPLIT_INTERP)
            assert [list(ts) for _, ts in run.trace] == [marked]
            assert list(run.final_state) == marked


def test_a_12000_stage_chain_runs_in_linear_time():
    stages = 12_000
    lines = ["net chain {", "  place p0 marked;", *(f"  place p{i};" for i in range(1, stages + 1))]
    lines += [f"  transition t{i} {{ pre p{i}; post p{i + 1}; fn p{i} + 1; }}" for i in range(stages)]
    net = parse_pres("\n".join(lines + ["}"]) + "\n")
    start = time.perf_counter()
    run = simulate_run(net, {"p0": 0}, {}, max_steps=stages + 1)
    elapsed = time.perf_counter() - start
    assert (run.status, run.steps, run.final_state) == (QUIESCENT, stages, {f"p{stages}": stages})
    # A loose bound: ordering each successor marking by a scan over all of
    # the net's places is quadratic and needs several seconds at this size.
    assert elapsed < 3.0, elapsed

class TestConfluence:
    def test_conflict_free_jammer_is_schedule_independent(self, jammer_nonpipelined):
        verdict = confluence_check(jammer_nonpipelined, [dict(JAMMER_VECTOR)], SeededInterpretation(11), 10, 0, 64)
        assert verdict.equivalent

    def test_single_transition_net_trivially_confluent(self):
        net = parse_pres(
            """
            net two {
              place a marked; place b;
              transition t { pre a; post b; fn a + 1; }
            }
            """
        )
        assert confluence_check(net, [{"a": 1}], {}, 3, 0, 8).equivalent

    def test_a_run_that_offers_no_choice_is_run_once(self, jammer_nonpipelined, racy, monkeypatch):
        runs = []
        real = sim.simulate_run
        monkeypatch.setattr(sim, "simulate_run", lambda *args: runs.append(args[3]) or real(*args))
        verdict = confluence_check(jammer_nonpipelined, [dict(JAMMER_VECTOR)], SeededInterpretation(11), 10, 0, 64)
        assert verdict.equivalent and runs == [0]
        runs.clear()
        assert confluence_check(racy, [{"a": 2}], SeededInterpretation(3), 10, 0, 8).status == "NotEquivalent"
        assert runs == list(range(10))  # every schedule of a net that offers a choice

    def test_seeds_keep_their_schedules(self):
        # One firing set at the first step, two at the second: a seed draws
        # at both, so it picks what the parent's schedule picked.
        net = parse_pres(
            """
            net late {
              place a marked; place b; place c; place d;
              transition t { pre a; post b; fn a; }
              transition left { pre b; post c; fn b; }
              transition right { pre b; post d; fn b; }
            }
            """
        )
        for seed in range(10):
            run = simulate_run(net, {"a": 1}, {}, seed, 8)
            rng = random.Random(seed)
            rng.choice([0])
            assert run.chose and run.trace[1][0].transitions == rng.choice([("left",), ("right",)]), seed

    def test_racy_net_diverges_with_two_traces(self, racy):
        verdict = confluence_check(racy, [{"a": 2}], SeededInterpretation(3), 10, 0, 8)
        assert verdict.status == "NotEquivalent"
        left, right = verdict.witness["traces"]
        assert left["trace"] != right["trace"]
        assert verdict.witness["out_ports"][0] != verdict.witness["out_ports"][1]

    # With a < 0 the token loops on a forever; with 0 < a < 5 two
    # transitions race for it; with a >= 5 only grab-b takes it.
    LOOP_OR_RACE = """
        net mixed {
          place a marked; place b; place c;
          transition loop { pre a; post a; fn a; guard a < 0; }
          transition grab-b { pre a; post b; fn a; guard a > 0; }
          transition grab-c { pre a; post c; fn a + 1; guard a > 0 and a < 5; }
        }
        """

    def test_a_divergence_on_a_later_vector_outranks_a_run_that_does_not_rest(self):
        net = parse_pres(self.LOOP_OR_RACE)
        verdict = confluence_check(net, [{"a": -1}, {"a": 2}, {"a": 7}], {}, 10, 0, 8)
        assert verdict.status == "NotEquivalent"
        assert verdict.witness["vector"] == {"a": 2}
        assert verdict.witness["out_ports"][0] != verdict.witness["out_ports"][1]

    def test_the_first_vector_whose_runs_do_not_rest_is_named(self):
        net = parse_pres(self.LOOP_OR_RACE)
        verdict = confluence_check(net, [{"a": 7}, {"a": -1}, {"a": -2}], {}, 10, 0, 8)
        assert verdict.status == "Inconclusive"
        assert verdict.reason == 'vector {"a": -1}: seed 0 ended StepBoundExceeded after 8 steps'
        assert confluence_check(net, [{"a": 7}, {"a": 9}], {}, 10, 0, 8).equivalent

    def test_a_single_vector_is_not_named(self):
        net = parse_pres(self.LOOP_OR_RACE)
        diverged = confluence_check(net, [{"a": 2}], {}, 10, 0, 8)
        assert diverged.status == "NotEquivalent" and "vector" not in diverged.witness
        stuck = confluence_check(net, [{"a": -1}], {}, 10, 0, 8)
        assert stuck.reason == "seed 0 ended StepBoundExceeded after 8 steps"

    def test_no_vector_is_refused(self, racy):
        with pytest.raises(ValueError, match="at least one input vector"):
            confluence_check(racy, [], SeededInterpretation(3), 10, 0, 8)


def test_explicit_interpretations_take_precedence_over_the_seeded_map():
    seeded = SeededInterpretation(3)
    both = SeededInterpretation(3, {"f": lambda a: a + 100})
    assert both["f"](1) == 101
    assert both["g"](1, 2) == seeded["g"](1, 2)


def test_seeded_values_are_pinned():
    # Values of the sha256-derived maps, as every earlier version computed them.
    seeded = SeededInterpretation(11)
    assert [seeded["f"](), seeded["f"](3), seeded["f"](3, -4)] == [1, 7, 11]
    assert [seeded["f"](x) for x in (-2, 0, 1, 10)] == [-3, 1, 3, 21]
    assert [seeded["g"](5), seeded["g"](1, 2), seeded["g"](-3, 4)] == [-10, -2, 6]
    assert [seeded["detect"](2, 7, -1), seeded["h"](0, 0)] == [28, 7]


def test_seeded_coefficients_are_derived_once_per_symbol(monkeypatch):
    import hashlib

    digests = []
    real = hashlib.sha256

    def counting(data=b""):
        digests.append(data)
        return real(data)

    monkeypatch.setattr(hashlib, "sha256", counting)
    seeded = SeededInterpretation(11)
    for i in range(1000):
        assert seeded["f"](i, -i) == seeded["f"](i, -i)
        seeded["g"](i)
    assert seeded["f"] is seeded["f"]
    per_symbol = {data.decode().split(":")[1] for data in digests}
    assert per_symbol == {"f", "g"}
    assert sum(data.startswith(b"11:f:") for data in digests) <= 3  # arity 2: c0, c1, c2
    assert sum(data.startswith(b"11:g:") for data in digests) <= 2


def test_seeded_interpretation_is_a_dict_that_stores_each_symbol_on_first_lookup():
    explicit = {"f": lambda a: a + 100}
    seeded = SeededInterpretation(3, explicit)
    assert isinstance(seeded, dict) and seeded == explicit
    g = seeded["g"]
    assert list(seeded) == ["f", "g"]
    assert seeded["g"] is g and seeded.get("g") is g
    assert len(seeded) == 2


def test_interp_lines_become_functions_that_check_their_arity():
    doc = parse_scenario("scenario s { interp f(x, y) = 2 * x + y; interp k() = 7; }")
    functions = interpretation(doc.interps)
    assert type(functions) is dict and sorted(functions) == ["f", "k"]
    assert (functions["f"](3, 1), functions["k"]()) == (7, 7)
    with pytest.raises(SortMismatch, match="^f expects 2 arguments, got 1$"):
        functions["f"](3)
    seeded = interpretation(doc.interps, 11)
    assert isinstance(seeded, SeededInterpretation) and seeded["f"] is not functions["f"]
    assert seeded["f"](3, 1) == 7 and seeded["h"](2) == SeededInterpretation(11)["h"](2)
    with pytest.raises(SortMismatch, match="operand of '\\+' is not int-sorted"):  # compiled when built, unused or not
        interpretation(parse_scenario("scenario s { interp g(x) = (x > 0) + 1; }").interps)



def test_a_one_parameter_function_checks_its_arity():
    (f,) = interpretation(parse_scenario("scenario s { interp f(x) = x + 1; }").interps).values()
    assert f(2) == 3
    with pytest.raises(SortMismatch, match="^f expects 1 arguments, got 2$"):
        f(2, 3)


def test_seeded_functions_leave_no_cycle_behind():
    # A symbol's function holds the seed, not the interpretation that holds
    # the function, so dropping an interpretation frees it without the collector.
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        seeded = SeededInterpretation(11, {"k": lambda: 7})
        assert [seeded["f"](3), seeded["g"](1, 2), seeded["k"]()] == [7, -2, 7]
        del seeded
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_arities_are_checked_against_every_application():
    doc = parse_scenario("scenario s { interp f(x, y) = x + y; interp k() = 7; }")
    net = parse_pres("net n { place a marked; place o; transition t { pre a; post o; fn g(f(a, k()), a); "
                     "guard f(a, a) > k(); } }")
    t = net.transitions[0]
    check_arities(doc.interps, [t.guard, t.fn])  # g has no interp line: any arity
    check_arities([], [t.fn])
    bad = parse_pres("net n { place a marked; place o; transition t { pre a; post o; fn a + g(k(a)); } }")
    with pytest.raises(SortMismatch, match="^k expects 0 arguments, got 1$"):
        check_arities(doc.interps, [t.fn, bad.transitions[0].fn])


GROW = """
    net grow {
      place a marked; place o;
      transition t { pre a; post a; fn a * a + 2; guard a > 1; }
      transition d { pre a; post o; fn a; guard a <= 1; }
    }
"""


def test_a_run_ends_when_a_token_value_outgrows_the_bound():
    # 3, 11, 123, ...: the bit length about doubles on every step.
    net = parse_pres(GROW)
    run = simulate_run(net, {"a": 3}, {}, max_steps=40)
    assert (run.status, run.steps) == (VALUE_BOUND_EXCEEDED, 11)
    assert 2048 < run.final_state["a"].bit_length() <= MAX_VALUE_BITS
    verdict = confluence_check(net, [{"a": 3}], {}, 4, 0, 40)
    assert verdict.status == "Inconclusive"
    limit = f"(a token value passed the {MAX_VALUE_BITS}-bit limit)"
    assert verdict.reason == f"seed 0 ended ValueBoundExceeded after 11 steps {limit}"


def test_an_ill_sorted_fn_raises_only_where_a_run_evaluates_it():
    # A net built in code is not validated.  Its step's plan holds u's
    # ill-sorted fn; t fires first, so a value past the bound ends the run
    # before u is evaluated, and otherwise u raises what compiling it raises.
    bad = ex.add(ex.Var("b"), ex.TRUE)
    net = PresNet("bad", ("a", "b", "c", "d"), {p: p for p in "abcd"},
                  (Transition("t", frozenset({"a"}), frozenset({"c"}), ex.Var("a")),
                   Transition("u", frozenset({"b"}), frozenset({"d"}), bad)), frozenset({"a", "b"}))
    for _ in range(2):
        assert simulate_run(net, {"a": 2 ** MAX_VALUE_BITS, "b": 1}, {}).status == VALUE_BOUND_EXCEEDED
        with pytest.raises(SortMismatch, match="operand of '\\+' is not int-sorted: true"):
            simulate_run(net, {"a": 1, "b": 1}, {})


def test_the_last_step_only_probes_value_bound_then_safety_then_step_bound():
    # At step max_steps the run only looks whether it could go on; what that
    # step would do is tested in this order: a value past the bound, a second
    # token on a place, and only then the step bound.
    grow = parse_pres(GROW)
    ends = [simulate_run(grow, {"a": 3}, {}, max_steps=n) for n in (10, 11, 40)]
    assert [(run.status, run.steps) for run in ends] == [
        (STEP_BOUND_EXCEEDED, 10), (VALUE_BOUND_EXCEEDED, 11), (VALUE_BOUND_EXCEEDED, 11)]
    chain = parse_pres("""
        net refill {
          place a marked; place b; place c marked;
          transition t1 { pre a; post b; fn a; }
          transition t2 { pre b; post c; fn b; }
        }
    """)
    for max_steps in (1, 2):
        with pytest.raises(UnsafeMarking, match="second token on 'c'"):
            simulate_run(chain, {"a": 1, "c": 2}, {}, max_steps=max_steps)


LATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "determinism", "late.pres")


def test_a_seed_that_first_chooses_late_keeps_its_schedule():
    # The late net offers one set at its first two steps, a race at the third,
    # one set at the fourth and a race at the fifth.  A seeded run makes its
    # generator only at the third step; these schedules, pinned from runs that
    # drew at every step, show that it first draws once for each step before.
    with open(LATE) as fh:
        net = parse_pres(fh.read())
    schedules = []
    for seed in range(16):
        run = simulate_run(net, {"a": 5}, {}, seed)
        assert (run.status, run.steps, run.chose) == (QUIESCENT, 5, True)
        schedules.append(" ".join([t for fs, _ in run.trace for t in fs.transitions] + [str(run.final_state["f"])]))
    assert schedules == [
        "s1 s2 r1 s3 q2 65", "s1 s2 r2 s3 q2 5", "s1 s2 r1 s3 q1 67", "s1 s2 r2 s3 q1 7",
        "s1 s2 r1 s3 q2 65", "s1 s2 r1 s3 q1 67", "s1 s2 r2 s3 q1 7", "s1 s2 r2 s3 q1 7",
        "s1 s2 r2 s3 q1 7", "s1 s2 r2 s3 q1 7", "s1 s2 r2 s3 q1 7", "s1 s2 r2 s3 q1 7",
        "s1 s2 r2 s3 q2 5", "s1 s2 r1 s3 q1 67", "s1 s2 r2 s3 q2 5", "s1 s2 r1 s3 q1 67",
    ]


# Token values for the differential runs: small ones, which guards `v > 0`
# tell apart, and one past the value bound.
TOKENS = (-2, -1, 0, 1, 2, 3, 2 ** MAX_VALUE_BITS)


def _run_outcome(run, *args):
    """What ``run(*args)`` ends with: the outcome's fields and repr, and whether
    the last trace entry is its final state itself; or the error's type and message."""
    try:
        out = run(*args)
    except Exception as err:  # compared with what the reference raises
        return type(err), str(err)
    last = out.trace[-1][1] is out.final_state if out.trace else None
    return out.status, out.steps, out.chose, out.trace, out.final_state, repr(out), last


def _differential_case(case: int):
    """A random net, its inputs (mostly one value per variable, so that shared
    variables mostly agree), a seed or None, and a step bound."""
    rng = random.Random(case)
    net_seed = rng.randrange(10 ** 6)
    net = random_net(net_seed)
    by_var = {v: rng.choice(TOKENS) for v in "xyz"}
    inputs = {p: by_var[net.var_of[p]] if rng.random() < 0.9 else rng.choice(TOKENS)
              for p in sorted(net.initial_marking, key=net.place_order.__getitem__)}
    seed = None if rng.random() < 0.4 else rng.randrange(2 ** 32)
    return net_seed, inputs, seed, rng.randint(1, 8)


def _agrees_with_the_reference(case: int):
    net_seed, inputs, seed, max_steps = _differential_case(case)
    net = random_net(net_seed)
    expected = _run_outcome(_reference.simulate_run, random_net(net_seed), dict(inputs), {}, seed, max_steps)
    for _ in range(2):  # the second run reads the plans the first one made
        assert _run_outcome(simulate_run, net, dict(inputs), {}, seed, max_steps) == expected, case
    return expected


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_runs_agree_with_the_reference_loop(case):
    _agrees_with_the_reference(case)


def test_the_differential_cases_reach_every_end():
    ends = set()
    for case in range(400):
        expected = _agrees_with_the_reference(case)
        ends.add(expected[0] if isinstance(expected[0], str) else expected[0].__name__)
        if expected[0] == QUIESCENT and expected[2]:
            ends.add("chose")
    assert ends >= {QUIESCENT, DEADLOCK, STEP_BOUND_EXCEEDED, VALUE_BOUND_EXCEEDED, "ValueConflict",
                    "UnsafeMarking", "chose"}
