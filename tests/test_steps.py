"""The per-marking step table that conversion and simulation share.

Each net fills its table lazily; what a warm table returns must be what a
freshly parsed copy of the same net computes, and a concrete run must
choose what a draw from the product of the firing sets would.
"""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from presto import convert, corpus, sim
from presto import expr as ex
from presto.convert import ConvertError, FiringSet, UnsafeMarking, marking_step, pres_to_fsmd
from presto.dsl import parse_pres, print_net
from presto.fsmd import MAX_VALUE_BITS
from presto.pres import PresNet, Transition, Violation, adjacency, classify_ports
from presto.sim import (
    DEADLOCK,
    QUIESCENT,
    STEP_BOUND_EXCEEDED,
    VALUE_BOUND_EXCEEDED,
    RunOutcome,
    SeededInterpretation,
    SimError,
    confluence_check,
    simulate_run,
    trace_json,
)
from presto.verdict import NOT_EQUIVALENT

from _gen import random_net
import test_cli

CONTRA_NET = test_cli.TestChecks.CONTRA_NET  # read from the module, so that pytest does not collect TestChecks here too
SEEDS = (None, *range(4))


def _texts():
    """Every corpus net and 20 random nets, as text."""
    for name in corpus.NETS:
        with open(corpus.corpus_path(name), encoding="utf-8") as fh:
            yield name, fh.read()
    for seed in range(20):
        yield f"random{seed}", print_net(random_net(seed))


def _runs(net: PresNet):
    """The run of each seed as JSON, or the error it raised."""
    names = sorted({net.var_of[p] for p in net.initial_marking})
    inputs = {p: 3 * names.index(net.var_of[p]) - 1 for p in net.initial_marking}  # one value per variable
    runs = []
    for seed in SEEDS:
        try:
            runs.append(trace_json(simulate_run(net, dict(inputs), SeededInterpretation(5), seed, 32)))
        except (SimError, ConvertError, ex.ExprError) as err:
            runs.append((type(err).__name__, str(err)))
    return runs


TEXTS = dict(_texts())


@pytest.mark.parametrize("name", TEXTS)
def test_warm_table_runs_like_a_fresh_net(name):
    warm = parse_pres(TEXTS[name])
    first = _runs(warm)
    assert warm.steps  # the runs filled the table
    assert _runs(warm) == first
    assert _runs(parse_pres(TEXTS[name])) == first


def test_conversion_after_simulation_reports_the_dropped_sets():
    fresh = pres_to_fsmd(parse_pres(CONTRA_NET)).warnings
    net = parse_pres(CONTRA_NET)
    simulate_run(net, {"x1": 1, "x2": 1}, {s: abs for s in ("fa", "fb", "fc", "fd")})
    assert net.steps
    warm = pres_to_fsmd(net).warnings
    assert [str(w) for w in warm] == [str(w) for w in fresh]
    assert len(warm) == 2 and all(w.rule == "InconsistentGuards" for w in warm)


def _unsafe_net() -> PresNet:
    # t posts onto b, which is marked and not consumed.
    return PresNet("unsafe", ("a", "b"), {"a": "a", "b": "b"},
                   (Transition("t", frozenset({"a"}), frozenset({"b"}), ex.Var("a")),), frozenset({"a", "b"}))


def test_unsafe_marking_is_raised_on_every_run():
    net = _unsafe_net()
    for _ in range(3):
        with pytest.raises(UnsafeMarking, match="second token on 'b'"):
            simulate_run(net, {"a": 1, "b": 2}, {})
    with pytest.raises(UnsafeMarking):
        pres_to_fsmd(net)
    assert pres_to_fsmd(net, on_unsafe="reject").warnings[0].rule == "UnsafeMarking"


def test_a_replaced_net_starts_with_an_empty_table():
    net = parse_pres(CONTRA_NET)
    pres_to_fsmd(net)
    assert net.steps
    copy = net._replace(name="copy")
    assert copy.steps == {} and copy.steps is not net.steps
    assert net.steps


def test_each_marking_is_computed_once_for_simulation_and_conversion(monkeypatch, jammer_nonpipelined):
    net = jammer_nonpipelined._replace()
    computed = []
    real = convert._parts
    monkeypatch.setattr(convert, "_parts", lambda net, m: computed.append(m) or real(net, m))
    vector = {"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}
    for seed in range(3):
        run = simulate_run(net, dict(vector), SeededInterpretation(11), seed, 64)
    conv = pres_to_fsmd(net)
    assert len(computed) == len(set(computed)) == conv.states_visited
    assert {id(fs) for fs, _ in run.trace} <= {id(fs) for fs in conv.fired}  # one cache made the sets for both
    assert marking_step(net, net.initial_marking) is net.steps[net.initial_marking]


# -- the step table against the definitions --------------------------------------
#
# The reference below builds a marking's step the way the definitions read:
# enabled transitions are those whose whole preset is marked, conflict groups
# are the components of preset overlap (searched by brute force), and the
# firing sets are the product over every group, one guard decision per group
# in the order of the groups, contradicting combinations dropped.


def _reference_groups(net: PresNet, enabled: list[Transition]) -> list[list[Transition]]:
    groups: list[list[Transition]] = []
    for t in enabled:
        touching = [g for g in groups if any(t.pre & u.pre for u in g)]
        merged = [u for g in touching for u in g] + [t]
        groups = [g for g in groups if g not in touching] + [merged]
    order = net.order.__getitem__
    return sorted((sorted(g, key=lambda u: order(u.id)) for g in groups), key=lambda g: order(g[0].id))


def _reference_guards(groups: list[list[Transition]], choice: tuple[Transition, ...]):
    decided = []
    for group, chosen in zip(groups, choice):
        if chosen.guard is not None:
            decided.append(chosen.guard)
        elif len(group) == 2:
            other = group[0] if group[1] is chosen else group[1]
            if other.guard is not None:
                decided.append(ex.negate_guard(other.guard))
    normals: dict = {}
    for g in decided:
        if ex.normalize(ex.negate_guard(g)) in normals:
            return None
        normals.setdefault(ex.normalize(g), g)
    return tuple(normals.values())


def _reference_successor(net: PresNet, m: frozenset, fired: list[Transition]):
    """The marking after ``fired``, or the message naming the first place,
    in place order, that would hold two tokens."""
    remaining = m - frozenset().union(*(t.pre for t in fired))
    produced = [p for t in fired for p in t.post]
    doubled = [p for p in net.places if produced.count(p) + (p in remaining) > 1]
    if doubled:
        return f"firing {sorted(t.id for t in fired)} puts a second token on {doubled[0]!r}"
    return remaining | frozenset(produced)


def _reference_step(net: PresNet, m: frozenset):
    """(sets, successors, dropped, enabled) of ``m`` by the definitions."""
    order = net.order.__getitem__
    enabled = [t for t in net.transitions if t.pre <= m]
    groups = _reference_groups(net, enabled)
    sets, successors, dropped = [], [], []
    for choice in itertools.product(*groups) if enabled else ():
        guards = _reference_guards(groups, choice)
        if guards is None:
            dropped.append(Violation("InconsistentGuards", "+".join(t.id for t in choice),
                                     "contradictory guard decisions; set dropped"))
            continue
        fired = sorted(choice, key=lambda t: order(t.id))
        sets.append(FiringSet(tuple(t.id for t in fired), guards))
        successors.append(_reference_successor(net, m, fired))
    return sets, successors, dropped, bool(enabled)


def _indices_by_definition(net: PresNet) -> None:
    """The net's indices and ports equal a naive recomputation from its transitions."""
    for p in net.places:
        consumers = tuple(t.id for t in net.transitions if p in t.pre)
        producers = frozenset(t.id for t in net.transitions if p in t.post)
        assert net._consumers[p] == consumers, p
        assert adjacency(net, p) == (producers, frozenset(consumers)), p
    for t in net.transitions:
        assert net.transition(t.id) == t
        assert adjacency(net, t.id) == (t.pre, t.post)
    ports = classify_ports(net)
    assert ports.in_ports == {p for p in net.places if not any(p in t.post for t in net.transitions)}
    assert ports.out_ports == {p for p in net.places if not any(p in t.pre for t in net.transitions)}


def _steps_by_definition(net: PresNet, starts=(), limit: int = 150) -> int:
    """Check the step of every marking reachable from the initial one and
    from ``starts`` (up to ``limit`` markings) against the reference;
    return how many."""
    seen = {net.initial_marking, *starts}
    work = deque(seen)
    while work:
        m = work.popleft()
        warnings = []
        made = convert.construct_set_of_transitions(net, m, warnings)
        sets, successors, dropped, enabled = _reference_step(net, m)
        assert [fs for fs, *_ in made] == sets, sorted(m)  # the sets, their members and their guards, each in order
        assert [succ for _, _, succ, _ in made] == successors, sorted(m)
        in_place_order = [() if type(s) is str else tuple(sorted(s, key=net.place_order.get)) for s in successors]
        assert [marked for *_, marked in made] == in_place_order, sorted(m)
        assert [str(v) for v in warnings] == [str(v) for v in dropped], sorted(m)
        assert bool(marking_step(net, m).parts) == enabled
        for succ in successors:
            if type(succ) is not str and succ not in seen and len(seen) < limit:
                seen.add(succ)
                work.append(succ)
    return len(seen)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_step_table_and_indices_match_the_definitions_on_random_nets(seed):
    # Firing soon puts a second token on some place of a random net, so the
    # walk also starts from a few more markings drawn from the seed.
    net = random_net(seed)
    rng = random.Random(seed)
    _indices_by_definition(net)
    _steps_by_definition(net, [frozenset(p for p in net.places if rng.random() < 0.5) for _ in range(6)])


@pytest.mark.parametrize("name", corpus.NETS)
def test_step_table_and_indices_match_the_definitions_on_the_corpus(name):
    net = corpus.load_net(name)
    _indices_by_definition(net)
    assert _steps_by_definition(net) >= 1


# -- concrete runs against the product of the firing sets ---------------------------
#
# The reference run steps over the product: it takes the marking's firing
# sets, keeps those whose guards all hold, and draws one with rng.choice.
# The simulator, which tests each conflict group's options and makes one
# draw over their product, must take the same sets from every seed.


def _psplits(k: int) -> str:
    """k independent lanes, each a choice between two guarded transitions
    that both hold where 0 < xj < 3."""
    lanes = [f"place x{j} marked; place o{j};"
             f" transition hi_{j} {{ pre x{j}; post o{j}; fn f(x{j}) + 1; guard x{j} > 0; }}"
             f" transition lo_{j} {{ pre x{j}; post o{j}; fn g(x{j}); guard x{j} < 3; }}" for j in range(k)]
    return "net psplits {\n" + "\n".join(lanes) + "\n}\n"


def _reference_run(net: PresNet, inputs: dict, interp, seed, max_steps: int) -> RunOutcome:
    rng = None if seed is None else random.Random(seed)
    marking, ts, trace, chose = frozenset(inputs), dict(inputs), [], False
    for step in range(max_steps + 1):
        values = sim._values(net, ts)
        dropped = []
        made = convert.construct_set_of_transitions(net, marking, dropped)
        candidates = [f for f in made if all(ex.compiled(g)(values, interp) for g in f[0].guard_set)]
        if not candidates:
            return RunOutcome(DEADLOCK if made or dropped else QUIESCENT, ts, trace, step, chose)
        fs, fired, successor, marked = candidates[0] if rng is None else rng.choice(candidates)
        produced = {}
        for t in fired:
            value = ex.compiled(t.fn)(values, interp)
            if value.bit_length() > MAX_VALUE_BITS:
                return RunOutcome(VALUE_BOUND_EXCEEDED, ts, trace, step, chose)
            produced.update(dict.fromkeys(t.post, value))
        if type(successor) is str:
            raise UnsafeMarking(successor)
        if step == max_steps:
            return RunOutcome(STEP_BOUND_EXCEEDED, ts, trace, max_steps, chose)
        ts = {p: produced[p] if p in produced else ts[p] for p in marked}
        marking, chose = successor, chose or len(candidates) > 1
        trace.append((fs, ts))


def _outcome(run, *args):
    try:
        return run(*args)
    except (SimError, ConvertError, ex.ExprError) as err:
        return type(err).__name__, str(err)


def _runs_agree_with_the_reference(net: PresNet, rng: random.Random) -> None:
    names = sorted({net.var_of[p] for p in net.initial_marking})
    value = {v: rng.randint(-3, 3) for v in names}
    inputs = {p: value[net.var_of[p]] for p in net.initial_marking}
    interp = SeededInterpretation(rng.randrange(100))
    twin = net._replace()  # the reference fills a table of its own
    for seed in (None, *range(10)):
        run = _outcome(simulate_run, net, dict(inputs), interp, seed, 24)
        assert run == _outcome(_reference_run, twin, dict(inputs), interp, seed, 24), seed


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_runs_choose_per_group_as_the_product_would_on_random_nets(seed):
    _runs_agree_with_the_reference(random_net(seed), random.Random(seed))


@pytest.mark.parametrize("name", corpus.NETS + ("psplits",))
def test_runs_choose_per_group_as_the_product_would_on_the_corpus(name):
    net = parse_pres(_psplits(5)) if name == "psplits" else corpus.load_net(name)
    for seed in range(8):
        _runs_agree_with_the_reference(net, random.Random(seed))


def test_a_run_through_independent_choices_is_linear_in_the_lanes():
    # 2**64 firing sets at the first marking; a run picks one option per lane.
    net = parse_pres(_psplits(64))
    inputs = {f"x{j}": 1 + j % 2 for j in range(64)}  # both guards of every lane hold
    interp = {"f": lambda a: 2 * a, "g": lambda a: a - 3}
    run = simulate_run(net, inputs, interp, 0)
    assert run.status == QUIESCENT and run.chose
    assert sum(len(step.firings) for step in net.steps.values()) <= run.steps
    assert confluence_check(net, inputs, interp, schedules=4).status == NOT_EQUIVALENT
