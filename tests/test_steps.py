"""The per-marking step table that conversion and simulation share.

Each net fills its table lazily; what a warm table returns must be what a
freshly parsed copy of the same net computes.
"""

import pytest

from presto import convert, corpus
from presto import expr as ex
from presto.convert import ConvertError, UnsafeMarking, marking_step, pres_to_fsmd
from presto.dsl import parse_pres, print_net
from presto.pres import PresNet, Transition
from presto.sim import MaximalStep, RandomMaximal, SeededInterpretation, SimError, simulate_run, trace_json

from _gen import random_net
import test_cli

CONTRA_NET = test_cli.TestChecks.CONTRA_NET  # read from the module, so that pytest does not collect TestChecks here too
POLICIES = (MaximalStep(), *(RandomMaximal(seed) for seed in range(4)))


def _texts():
    """Every corpus net and 20 random nets, as text."""
    for name in corpus.NETS:
        with open(corpus.corpus_path(name), encoding="utf-8") as fh:
            yield name, fh.read()
    for seed in range(20):
        yield f"random{seed}", print_net(random_net(seed))


def _runs(net: PresNet):
    """Each policy's run as JSON, or the error it raised."""
    names = sorted({net.var_of[p] for p in net.initial_marking})
    inputs = {p: 3 * names.index(net.var_of[p]) - 1 for p in net.initial_marking}  # one value per variable
    runs = []
    for policy in POLICIES:
        try:
            runs.append(trace_json(simulate_run(net, dict(inputs), SeededInterpretation(5), policy, 32)))
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
    assert pres_to_fsmd(net, convert.ConversionConfig(on_unsafe="reject")).warnings[0].rule == "UnsafeMarking"


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
    real = convert.construct_set_of_transitions
    monkeypatch.setattr(convert, "construct_set_of_transitions",
                        lambda net, m, warnings=None: computed.append(m) or real(net, m, warnings))
    vector = {"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}
    for seed in range(3):
        simulate_run(net, dict(vector), SeededInterpretation(11), RandomMaximal(seed), 64)
    conv = pres_to_fsmd(net)
    assert len(computed) == len(set(computed)) == conv.states_visited
    assert marking_step(net, net.initial_marking) is net.steps[net.initial_marking]
