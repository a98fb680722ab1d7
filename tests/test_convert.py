import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from presto import corpus, expr as ex
from presto.convert import (
    StateBoundExceeded,
    UnsafeMarking,
    _conflict_groups,
    construct_set_of_transitions,
    marking_step,
    pres_to_fsmd,
)
from presto.dsl import parse_expression, parse_pres
from presto.fsmd import machine_run
from presto.pres import PresError, PresNet, Transition, classify_ports, enabled_transitions
from presto.sim import QUIESCENT, SeededInterpretation, SimError, simulate_run

from _gen import perfbench, random_net

# Canonical per-step update labels for the two jammer conversions.  Each
# entry is one update's applied-symbol chain (innermost first); identity
# pass-throughs are labelled by the transition's own name.
STEPWISE_ROWS = [
    [("in-Copy",), ("thresold-Copy",), ("trigSelect-Copy",), ("opMode-Copy",), ("modParLib-Copy",), ("delayParLib-Copy",)],
    [("detectEnv",)],
    [("detectAmp",)],
    [("thresold-keepVal",), ("copy",)],
    [("getAmp",), ("pwPriCnt",)],
    [("getT",)],
    [("head",)],
    [("f",)],
    [("getKPS",), ("FFT",), ("getPer",)],
    [("getType",)],
    [("trigSelect-keepVal",), ("getScenario",)],
    [("trigSelect-copy",), ("opMode-keepVal",), ("extractN",), ("extractN",)],
    [("opMode-copy",), ("delayParLib-keepVal",), ("modParLib-keepVal",), ("adjustDelay",)],
    [("delayParLib-copy",), ("modParLib-copy",), ("doMod",)],
    [("sumsig",)],
]

PIPELINED_ROWS = [
    [("in-Copy", "detectEnv")],
    [("thresold-Copy", "thresold-keepVal"), ("detectAmp",)],
    [("in-Copy", "getAmp")],
    [("pwPriCnt", "getT", "head")],
    [("f", "getKPS"), ("f", "FFT"), ("f", "getPer")],
    [("getType", "getScenario")],
    [
        ("extractN",),
        ("extractN", "trigSelect-Copy", "trigSelect-keepVal", "adjustDelay"),
        ("opMode-Copy", "opMode-keepVal"),
        ("modParLib-Copy", "modParLib-keepVal"),
        ("delayParLib-Copy", "delayParLib-keepVal"),
    ],
    [("doMod", "sumsig")],
    [("emit",)],
]


class TestConstructSetOfTransitions:
    def test_guard_split_alternatives(self, guard_split):
        sets = [fs for fs, *_ in construct_set_of_transitions(guard_split, guard_split.initial_marking)]
        assert [fs.transitions for fs in sets] == [("t1", "t2"), ("t1", "t3")]
        g = parse_expression("g(p3) != 0")
        assert list(sets[0].guard_set) == [g]
        assert list(sets[1].guard_set) == [ex.negate_guard(g)]

    def test_nothing_enabled(self, guard_split):
        assert construct_set_of_transitions(guard_split, frozenset()) == []

    def test_independent_transitions_fire_together(self):
        net = parse_pres(
            """
            net indep {
              place x marked; place y marked; place u; place v;
              transition ta { pre x; post u; fn fa(x); }
              transition tb { pre y; post v; fn fb(y); }
            }
            """
        )
        sets = [fs for fs, *_ in construct_set_of_transitions(net, net.initial_marking)]
        assert [fs.transitions for fs in sets] == [("ta", "tb")]
        # brute force: of all conflict-free subsets, only the maximal one is emitted
        enabled = sorted(enabled_transitions(net, net.initial_marking))
        conflict_free = []
        for r in range(1, len(enabled) + 1):
            for combo in itertools.combinations(enabled, r):
                presets = [net.transition(t).pre for t in combo]
                if all(not (a & b) for a, b in itertools.combinations(presets, 2)):
                    conflict_free.append(set(combo))
        maximal = [s for s in conflict_free if not any(s < other for other in conflict_free)]
        assert [set(fs.transitions) for fs in sets] == maximal

    def test_contradictory_cross_group_choice_dropped(self):
        net = parse_pres(
            """
            net contra {
              place x1 marked var xx; place x2 marked var xx;
              place u; place v; place w; place z;
              transition ga { pre x1; post u; fn fa(xx); guard xx > 0; }
              transition gb { pre x1; post v; fn fb(xx); }
              transition gc { pre x2; post w; fn fc(xx); guard xx > 0; }
              transition gd { pre x2; post z; fn fd(xx); }
            }
            """
        )
        warnings = []
        sets = construct_set_of_transitions(net, net.initial_marking, warnings)
        assert [fs.transitions for fs, *_ in sets] == [("ga", "gc"), ("gb", "gd")]
        assert len(warnings) == 2
        assert all(w.rule == "InconsistentGuards" for w in warnings)


class TestFireSet:
    def test_guard_branch_markings(self, guard_split):
        made = construct_set_of_transitions(guard_split, guard_split.initial_marking)
        assert [fs.transitions for fs, *_ in made] == [("t1", "t2"), ("t1", "t3")]
        assert all(fired == tuple(map(guard_split.transition, fs.transitions)) for fs, fired, _, _ in made)
        assert [succ for _, _, succ, _ in made] == [{"p4", "p5", "p6"}, {"p4", "p7"}]
        assert [marked for *_, marked in made] == [("p4", "p5", "p6"), ("p7", "p4")]  # the net's place order

    def test_self_loop_consume_then_produce(self):
        net = parse_pres(
            """
            net loop {
              place p marked; place q marked; place r;
              transition t { pre p, q; post p; fn f(p); }
              transition s { pre q; post r; fn g(q); }
            }
            """
        )
        made = construct_set_of_transitions(net, frozenset({"p", "q"}))
        assert [fs.transitions for fs, *_ in made] == [("t",), ("s",)]
        assert [succ for _, _, succ, _ in made] == [{"p"}, {"p", "r"}]

    def test_unsafe_collision(self):
        net = parse_pres(
            """
            net collide {
              place x marked; place y marked; place z;
              transition ta { pre x; post z; fn fa(x); }
              transition tb { pre y; post z; fn fb(y); }
            }
            """
        )
        ((fs, _, succ, marked),) = construct_set_of_transitions(net, net.initial_marking)
        assert fs.transitions == ("ta", "tb")
        assert succ == "firing ['ta', 'tb'] puts a second token on 'z'" and marked == ()


def _reference_groups(net, enabled):
    """Connected components of pairwise preset overlap, searched by brute force."""
    groups, seen = [], set()
    for t in enabled:
        if t in seen:
            continue
        group, frontier = [t], [t]
        while frontier:
            a = frontier.pop()
            for b in enabled:
                if b not in group and net.transition(a).pre & net.transition(b).pre:
                    group.append(b)
                    frontier.append(b)
        seen.update(group)
        groups.append([b for b in enabled if b in group])
    return groups


@pytest.mark.parametrize("name", corpus.NETS + tuple(f"random{i}" for i in range(20)))
def test_kernel_agrees_with_brute_force_reference(name):
    # The indexed kernel against the definitions: enabled means the whole
    # preset is marked, conflict groups are components of preset overlap,
    # firing sets come in product order with declaration-ordered members,
    # and firing consumes every preset and produces every postset, unless a
    # place would get a second token.
    net = random_net(int(name[6:])) if name.startswith("random") else corpus.load_net(name)
    order = [t.id for t in net.transitions]
    rng = random.Random(name)
    markings = [frozenset(net.places), frozenset(net.initial_marking)]
    markings += [frozenset(p for p in net.places if rng.random() < rng.random()) for _ in range(60)]
    for m in markings:
        enabled = [t.id for t in net.transitions if t.pre <= m]
        assert enabled_transitions(net, m) == set(enabled)
        groups = _reference_groups(net, enabled)
        assert [[t.id for t in group] for group in _conflict_groups(list(map(net.transition, enabled)))] == groups
        warnings = []
        sets = construct_set_of_transitions(net, m, warnings)
        dropped = {w.element for w in warnings}
        expected = [tuple(sorted(c, key=order.index)) for c in itertools.product(*groups) if "+".join(c) not in dropped]
        assert [fs.transitions for fs, *_ in sets] == (expected if enabled else [])
        assert bool(marking_step(net, m).parts) == bool(enabled)
        for fs, fired, successor, _ in sets:
            assert fired == tuple(map(net.transition, fs.transitions))
            consumed = set().union(*(t.pre for t in fired))
            produced = [p for t in fired for p in t.post]
            if len(set(produced)) < len(produced) or set(produced) & (m - consumed):
                assert successor.startswith(f"firing {sorted(fs.transitions)} puts a second token on ")
            else:
                assert successor == (m - consumed) | set(produced)


class TestPresToFsmd:
    def test_guard_split_conversion_exact(self, guard_split):
        conv = pres_to_fsmd(guard_split)
        m = conv.fsmd
        assert conv.marking_of_state["q0"] == guard_split.initial_marking
        out = [t for t in m.transitions if t.source == "q0"]
        assert len(out) == 2 and len(m.transitions) == 2
        g = parse_expression("g(p3) != 0")
        assert list(out[0].guard_set) == [g]
        assert list(out[1].guard_set) == [ex.negate_guard(g)]
        assert conv.marking_of_state[out[0].target] == {"p4", "p5", "p6"}
        assert conv.marking_of_state[out[1].target] == {"p4", "p7"}
        assert dict(out[0].updates) == {
            "p4": parse_expression("f_t1(p1, p2)"),
            "p6": parse_expression("f_t2(p3)"),
        }
        assert dict(out[1].updates) == {
            "p4": parse_expression("f_t1(p1, p2)"),
            "p7": parse_expression("f_t3(p7)"),
        }

    def test_interface_sets_follow_the_marking(self, guard_split):
        m = pres_to_fsmd(guard_split).fsmd
        assert m.inputs == {"p1", "p2", "p3"}
        assert m.storage == {"p4", "p6", "p7"}  # t3 writes the initially marked p7
        assert m.outputs == {"p4", "p6"}

    def test_single_transition_net(self):
        net = parse_pres(
            """
            net two {
              place a marked; place b;
              transition t { pre a; post b; fn f(a); }
            }
            """
        )
        conv = pres_to_fsmd(net)
        assert len(conv.fsmd.states) == 2
        assert len(conv.fsmd.transitions) == 1
        assert dict(conv.fsmd.transitions[0].updates) == {"b": parse_expression("f(a)")}

    def test_conversion_is_deterministic(self, jammer_pipelined):
        a = pres_to_fsmd(jammer_pipelined)
        b = pres_to_fsmd(jammer_pipelined)
        assert a.fsmd == b.fsmd
        assert a.labels == b.labels
        assert a.marking_of_state == b.marking_of_state

    def test_stepwise_jammer_shape_and_labels(self, jammer_nonpipelined):
        conv = pres_to_fsmd(jammer_nonpipelined)
        assert len(conv.fsmd.states) == 16
        assert all(len(construct_set_of_transitions(jammer_nonpipelined, m)) <= 1
                   for m in conv.marking_of_state.values())
        assert [sorted(row) for row in conv.labels] == [sorted(row) for row in STEPWISE_ROWS]

    def test_pipelined_jammer_shape_and_labels(self, jammer_pipelined):
        conv = pres_to_fsmd(jammer_pipelined)
        assert len(conv.fsmd.states) == 10
        assert all(len(construct_set_of_transitions(jammer_pipelined, m)) <= 1 for m in conv.marking_of_state.values())
        assert [sorted(row) for row in conv.labels] == [sorted(row) for row in PIPELINED_ROWS]

    def test_updates_cover_exactly_the_produced_variables(self, guard_split, jammer_nonpipelined):
        for net in (guard_split, jammer_nonpipelined):
            conv = pres_to_fsmd(net)
            for q, m in conv.marking_of_state.items():
                sets = [fs for fs, *_ in construct_set_of_transitions(net, m)]
                for fs, t in zip(sets, [t for t in conv.fsmd.transitions if t.source == q]):
                    produced = {net.var_of[min(net.transition(tid).post)] for tid in fs.transitions}
                    assert {a.target for a in t.updates} == produced
                    readers = set(fs.transitions)
                    for tid, other in itertools.product(fs.transitions, net.transitions):
                        if net.transition(tid).pre & other.pre:
                            readers.add(other.id)
                    scope = {net.var_of[p] for tid in readers for p in net.transition(tid).pre}
                    for g in t.guard_set:
                        assert ex.free_vars(g) <= scope

    def test_empty_postset_is_an_error_naming_the_transition(self):
        # A net built in code reaches the converter without validate_net,
        # which would report the empty post-set as EmptyPostset.
        a = frozenset({"a"})
        net = PresNet("sink", ("a", "b"), {"a": "a", "b": "b"},
                      (Transition("keep", a, frozenset({"b"}), ex.Var("a")),
                       Transition("drop", a, frozenset(), ex.Var("a"))), a)
        assert enabled_transitions(net, a) == {"keep", "drop"}
        with pytest.raises(PresError, match="^transition 'drop' has an empty post-set$"):
            pres_to_fsmd(net)

    def test_state_bound(self, addthree_a):
        with pytest.raises(StateBoundExceeded):
            pres_to_fsmd(addthree_a, state_bound=1)

    def test_unsafe_policy_error_and_reject(self):
        src = """
        net collide {
          place x marked; place y marked; place z;
          transition ta { pre x; post z; fn fa(x); }
          transition tb { pre y; post z; fn fb(y); }
        }
        """
        net = parse_pres(src)
        with pytest.raises(UnsafeMarking):
            pres_to_fsmd(net, on_unsafe="error")
        conv = pres_to_fsmd(net, on_unsafe="reject")
        assert any(w.rule == "UnsafeMarking" for w in conv.warnings)
        assert len(conv.fsmd.transitions) == 0

    def test_labels_are_made_on_first_read_for_the_transitions_kept(self, monkeypatch):
        net = parse_pres("""
        net partly {
          place x marked; place y marked; place z; place w;
          transition ta { pre x; post z; fn fa(x); guard x > 0; }
          transition tc { pre x; post w; fn x; guard x <= 0; }
          transition tb { pre y; post z; fn fb(y); }
        }
        """)
        chains = []
        real = ex.apply_chain
        monkeypatch.setattr(ex, "apply_chain", lambda e: chains.append(e) or real(e))
        conv = pres_to_fsmd(net, on_unsafe="reject")
        assert chains == []  # only a reader of the labels pays for them
        # ta and tb both put a token on z: rejected
        ta_tb, tc_tb = [fs for fs, *_ in construct_set_of_transitions(net, conv.marking_of_state["q0"])]
        assert [t.source for t in conv.fsmd.transitions] == ["q0"] and conv.fired == [tc_tb]
        assert conv.labels == [[("tc",), ("fb",)]] and len(chains) == 2
        assert conv.labels is conv.labels and len(chains) == 2


# -- guard decisions, normalized only where a choice holds two or more ---------


def _guarded(guard: ex.Expr, rival: bool) -> PresNet:
    """A net built in code whose transition t is guarded by ``guard``; with
    ``rival``, an unguarded u competes for t's input place and decides
    against t's guard."""
    a, b = frozenset({"a"}), frozenset({"b"})
    transitions = (Transition("t", a, b, ex.Var("x"), guard),) + ((Transition("u", a, b, ex.Var("x")),) if rival else ())
    return PresNet("sorts", ("a", "b"), {"a": "x", "b": "y"}, transitions, a)


@pytest.mark.parametrize("rival", [False, True])
@pytest.mark.parametrize("guard, message", [
    (ex.Var("x"), "operand of 'not' is not bool-sorted: x"),
    (ex.Arith("+", (ex.TRUE, ex.Var("x"))), "operand of '+' is not int-sorted: true"),
])
def test_a_guard_that_is_not_bool_sorted_raises_when_its_step_is_built(guard, message, rival):
    # A guard read from text is sort-checked by the reader; one built in code
    # is checked when its marking's step is built, for conversion and runs alike.
    with pytest.raises(ex.SortMismatch, match=f"^{re.escape(message)}$"):
        pres_to_fsmd(_guarded(guard, rival))
    with pytest.raises(ex.SortMismatch, match=f"^{re.escape(message)}$"):
        simulate_run(_guarded(guard, rival), {"a": 1}, ex.NO_FUNCTIONS)


def test_choices_of_at_most_one_decision_normalize_nothing(monkeypatch):
    # Every choice of a diamonds net takes one branch of one split: its one
    # guard decision can neither contradict nor repeat another.
    families = perfbench("families")
    pair = families.diamonds_pair(random.Random(3), "d", 5)
    nets = [parse_pres(families.net_text(net)) for net in (pair.left, pair.right)]
    calls = []
    real = ex.normalize
    monkeypatch.setattr(ex, "normalize", lambda *args: calls.append(args) or real(*args))
    guarded = 0
    for net in nets:
        guarded += sum(len(t.guard_set) for t in pres_to_fsmd(net).fsmd.transitions)
        for vector in pair.vectors:
            assert simulate_run(net, vector, SeededInterpretation(1)).status == QUIESCENT
    assert guarded == 2 * 2 * 5 and calls == []


def test_two_or_more_decisions_are_still_normalized():
    # Two independent transitions whose guards read one shared variable: one
    # choice holds both decisions, contradictory in the first net and equal
    # after normalizing in the second, which keeps the first as written.
    text = """
    net shared {
      place a marked var v; place b marked var v; place x; place y;
      transition ta { pre a; post x; fn v + 1; guard v > 0; }
      transition tb { pre b; post y; fn v - 1; guard %s; }
    }
    """
    contradictory = pres_to_fsmd(parse_pres(text % "v <= 0"))
    assert [str(w) for w in contradictory.warnings] == [
        "InconsistentGuards: ta+tb (contradictory guard decisions; set dropped)"]
    assert contradictory.fsmd.transitions == ()
    duplicate = pres_to_fsmd(parse_pres(text % "0 < v"))
    assert duplicate.warnings == [] and [t.guard_set for t in duplicate.fsmd.transitions] == [
        (parse_expression("v > 0"),)]


# -- converted machines against their nets' runs ------------------------------

FAMILIES = perfbench("families")


def _family_case(data, family: str):
    """A net of a benchmark pair drawn over seed, size, side and mutation,
    with the pair's vectors and its interpretation."""
    make, sizes = FAMILIES.BUILDERS[family]
    seed = data.draw(st.integers(0, 10_000), label="seed")
    rng = random.Random(seed)
    pair = make(rng, f"{family}{seed}", data.draw(st.sampled_from(sizes), label="size"))
    if data.draw(st.booleans(), label="mutant"):
        FAMILIES.mutate(rng, pair, family, seed)
    side = data.draw(st.sampled_from([pair.left, pair.right]), label="side")
    interp = {symbol: (lambda x, a=a, b=b: a * x + b) for symbol, (a, b) in pair.interp.items()}
    return parse_pres(FAMILIES.net_text(side)), pair.vectors, interp


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_converted_machines_agree_with_their_nets_runs(data):
    # A run that chose among firing sets, ended without quiescence or raised
    # has no one machine run to agree with; every other run ends in a
    # terminal state of the machine with the net's out-port values.
    source = data.draw(st.sampled_from(["corpus", *FAMILIES.BUILDERS]), label="source")
    if source == "corpus":
        net = corpus.load_net(data.draw(st.sampled_from(corpus.NETS), label="net"))
        marked = sorted(net.initial_marking)
        vectors = [dict(zip(marked, values)) for values in
                   data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=len(marked), max_size=len(marked)),
                                      min_size=1, max_size=3), label="vectors")]
        interp = SeededInterpretation(data.draw(st.integers(0, 99), label="interp"))
    else:
        net, vectors, interp = _family_case(data, source)
    machine = pres_to_fsmd(net).fsmd
    out_ports = classify_ports(net).out_ports
    for vector in vectors:
        try:
            run = simulate_run(net, vector, interp)
        except SimError:
            continue
        if run.chose or run.status != QUIESCENT:
            continue
        store, ended = machine_run(machine, {net.var_of[p]: v for p, v in vector.items()}, interp)
        assert store is not None, ended
        assert {p: store[net.var_of[p]] for p in out_ports if p in run.final_state} == {
            p: run.final_state[p] for p in out_ports if p in run.final_state}
