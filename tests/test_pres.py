import os
import random
import subprocess
import sys

import pytest

import presto
from presto import corpus, dsl, expr as ex
from presto.dsl import DslSemanticError, parse_pres, print_net
from presto.pres import (
    PresNet,
    Transition,
    UnknownElement,
    Violation,
    adjacency,
    classify_ports,
    enabled_transitions,
    validate_net,
)

from _gen import perfbench, random_net


A, B = frozenset({"a"}), frozenset({"b"})


def tiny_net(**overrides) -> PresNet:
    fields = dict(
        name="tiny",
        places=("a", "b"),
        var_of={"a": "a", "b": "b"},
        transitions=(Transition("t", A, B, ex.Apply("f", (ex.Var("a"),))),),
        initial_marking=frozenset({"a"}),
    )
    fields.update(overrides)
    return PresNet(**fields)


class TestAdjacency:
    def test_two_input_transition(self, guard_split):
        adj = adjacency(guard_split, "t1")
        assert adj.preset_of == {"p1", "p2"}
        assert adj.postset_of == {"p4"}

    def test_single_arc_net(self):
        net = tiny_net()
        assert adjacency(net, "a").postset_of == {"t"}
        assert adjacency(net, "a").preset_of == frozenset()

    def test_self_loop_place_sees_transition_both_sides(self, guard_split):
        adj = adjacency(guard_split, "p7")
        assert "t3" in adj.preset_of
        assert "t3" in adj.postset_of

    def test_unknown_element(self, guard_split):
        with pytest.raises(UnknownElement):
            adjacency(guard_split, "nope")

    def test_involution_over_corpus(self, guard_split, card_a, jammer_nonpipelined):
        for net in (guard_split, card_a, jammer_nonpipelined):
            for t in net.transitions:
                for p in adjacency(net, t.id).preset_of:
                    assert t.id in adjacency(net, p).postset_of
                for p in adjacency(net, t.id).postset_of:
                    assert t.id in adjacency(net, p).preset_of


class TestClassifyPorts:
    def test_cardinality_ports(self, card_a):
        ports = classify_ports(card_a)
        assert ports.in_ports == {"Pa", "Pb"}
        assert ports.out_ports == {"Pe", "Pf", "Pg"}

    def test_one_place_no_transition_net_is_invalid_instead(self):
        net = tiny_net(places=("a",), var_of={"a": "a"}, transitions=())
        rules = {v.rule for v in validate_net(net)}
        assert "EmptyTransitions" in rules and "EmptyInputArcs" in rules

    def test_jammer_initially_marked_feeds_the_six_copies(self, jammer_nonpipelined):
        net = jammer_nonpipelined
        assert net.initial_marking == {"sig", "th", "tr", "om", "mp", "dp"}
        copies = {t.id for t in net.transitions if t.id.endswith("-Copy")} | {"in-Copy"}
        fed = set()
        for p in net.initial_marking:
            fed |= adjacency(net, p).postset_of
        assert fed == copies

    def test_stable_under_declaration_order(self, card_a):
        from presto.dsl import print_net

        reordered = card_a._replace(
            places=tuple(reversed(card_a.places)),
            transitions=tuple(reversed(card_a.transitions)),
        )
        reparsed = parse_pres(print_net(reordered))
        assert classify_ports(reparsed).in_ports == classify_ports(card_a).in_ports
        assert classify_ports(reparsed).out_ports == classify_ports(card_a).out_ports


class TestEnabled:
    def test_guard_split_initial(self, guard_split):
        assert enabled_transitions(guard_split, guard_split.initial_marking) == {"t1", "t2", "t3"}

    def test_empty_marking(self, guard_split):
        assert enabled_transitions(guard_split, frozenset()) == frozenset()

    def test_partial_inputs_not_enabled(self, guard_split):
        assert "t1" not in enabled_transitions(guard_split, frozenset({"p1"}))
        assert enabled_transitions(guard_split, frozenset({"p1", "p2"})) == {"t1"}


class TestValidate:
    def test_corpus_nets_are_clean(self):
        for name in corpus.NETS:
            assert validate_net(corpus.load_net(name)) == [], name

    def test_postset_variable_mismatch(self, guard_split):
        broken = guard_split._replace(var_of={**guard_split.var_of, "p5": "p5"})
        assert any(v.rule == "PostsetVariableMismatch" and v.element == "t2" for v in validate_net(broken))

    def test_guard_scope_violation(self, guard_split):
        foreign = ex.Rel(">", ex.Var("zz"), ex.IntConst(0))
        t2 = next(t for t in guard_split.transitions if t.id == "t2")
        patched = tuple(t._replace(guard=foreign) if t.id == "t2" else t for t in guard_split.transitions)
        broken = guard_split._replace(transitions=patched)
        assert any(v.rule == "GuardScopeViolation" and v.element == "t2" for v in validate_net(broken))
        assert t2.guard is not None

    def test_function_scope_violation(self):
        net = tiny_net(transitions=(Transition("t", A, B, ex.Var("zz")),))
        assert any(v.rule == "FunctionScopeViolation" for v in validate_net(net))

    def test_dropped_arc_breaks_preset(self, card_a):
        patched = tuple(t._replace(pre=t.pre - {"A1"}) if t.id == "t-e" else t for t in card_a.transitions)
        broken = card_a._replace(transitions=patched)
        assert any(v.rule == "EmptyPreset" and v.element == "t-e" for v in validate_net(broken))

    def test_unknown_arc_endpoints(self):
        net = tiny_net(transitions=(Transition("t", frozenset({"a", "ghost"}), B, ex.Var("a")),))
        assert any(v.rule == "UnknownPlace" and v.element == "ghost" for v in validate_net(net))

    def test_guarded_transition_with_boolean_fn_rejected(self):
        net = tiny_net(transitions=(Transition("t", A, B, ex.Rel("=", ex.Var("a"), ex.Var("a"))),))
        assert any(v.rule == "IllSortedFunction" for v in validate_net(net))


def _indices(net: PresNet) -> list:
    """Every index of ``net``, entries in order."""
    return [list(index.items()) for index in (net._consumers, net.order, net.place_order)]


def _rebuilt(net: PresNet) -> PresNet:
    """``net`` built in code from its fields."""
    return PresNet(net.name, net.places, dict(net.var_of), net.transitions, net.initial_marking)


def _family_nets() -> dict[str, PresNet]:
    """Both nets of one pair of each benchmark family, read from the text the benchmark writes."""
    families = perfbench("families")
    nets = {}
    for family, (make, sizes) in families.BUILDERS.items():
        pair = make(random.Random(f"{family}:1"), family, sizes[len(sizes) // 2])
        for side, net in (("left", pair.left), ("right", pair.right)):
            nets[f"{family}:{side}"] = parse_pres(families.net_text(net))
    return nets


FAMILY_NETS = _family_nets()


@pytest.mark.parametrize("source", [*(f"corpus:{name}" for name in corpus.NETS), *(f"random:{s}" for s in range(50)),
                                    *FAMILY_NETS])
def test_a_read_net_is_indexed_and_checked_like_one_built_in_code(source):
    # A net read from text and one built in code from the same transitions
    # get the same indices and the same report.
    kind, name = source.split(":")
    if kind == "corpus":
        built = _rebuilt(corpus.load_net(name))
    elif kind == "random":
        built = random_net(int(name))
    else:
        built = _rebuilt(FAMILY_NETS[source])
    read = parse_pres(print_net(built))
    assert read == built == read._replace()
    assert _indices(read) == _indices(built) == _indices(read._replace())
    assert validate_net(read) == validate_net(built)


def test_a_net_broken_in_both_rule_groups_reports_both_whether_read_or_built():
    # The reader leaves every net rule to validate_net, so its report is the
    # one a net built in code gets: structure faults and content faults together.
    text = "net n {\n  place a marked;\n  place a;\n  transition t { pre a, ghost; post b; fn zz; }\n}\n"
    with pytest.raises(DslSemanticError) as err:
        parse_pres(text)
    built = tiny_net(name="n", places=("a", "a"),
                     transitions=(Transition("t", frozenset({"a", "ghost"}), B, ex.Var("zz")),))
    assert err.value.violations == validate_net(built)
    assert [str(v) for v in err.value.violations] == [
        "DuplicateName: a (place declared twice)", "UnknownPlace: b (in transition t)",
        "UnknownPlace: ghost (in transition t)", "FunctionScopeViolation: t (fn reads 'zz' outside the input variables)"]


def test_a_transition_declared_twice_is_indexed_by_its_last_declaration_whether_read_or_built(monkeypatch):
    text = ("net n {\n  place a marked;\n  place b;\n  place c;\n"
            "  transition t { pre a; post b; fn a; }\n  transition t { pre b; post c; fn b; }\n}\n")
    built = PresNet("n", ("a", "b", "c"), {"a": "a", "b": "b", "c": "c"},
                    (Transition("t", A, B, ex.Var("a")), Transition("t", B, frozenset({"c"}), ex.Var("b"))), A)
    with pytest.raises(DslSemanticError) as err:
        parse_pres(text)
    assert err.value.violations == validate_net(built) == [Violation("DuplicateName", "t", "name already declared")]
    monkeypatch.setattr(dsl, "validate_net", lambda net: [])  # keep the read net
    read = parse_pres(text)
    assert read == built
    assert _indices(read) == _indices(built)
    t = read.transition("t")
    assert (t.pre, t.post, t.fn) == (B, {"c"}, ex.Var("b"))
    assert adjacency(read, "a") == (frozenset(), frozenset())


@pytest.mark.parametrize("name, edits, report", [
    # The undeclared input place is reported; the fn that reads it is not.
    ("addthree_a", [("place Pa marked", "place Px marked")], ["UnknownPlace: Pa (in transition u1)"]),
    # Undeclared on both sides of one transition: one line.
    ("addthree_b", [("place Paa marked", "place Px marked"), ("post Pmm", "post Paa")],
     ["UnknownPlace: Paa (in transition w1)"]),
    # Nor is the guard that reads an undeclared input place.
    ("addthree_a", [("pre Pm;", "pre Pm, ghost;"), ("fn Pm + 2;", "fn Pm + 2; guard ghost > 0;")],
     ["UnknownPlace: ghost (in transition u2)"]),
])
def test_an_undeclared_place_is_reported_once_and_nothing_follows_from_it(name, edits, report):
    with open(corpus.corpus_path(name), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    with pytest.raises(DslSemanticError) as err:
        parse_pres(text)
    assert [str(v) for v in err.value.violations] == report


def test_a_transition_without_fn_is_reported_and_its_terms_are_not_checked():
    net = tiny_net(transitions=(Transition("t", A, B, None, ex.Var("zz")),))
    assert validate_net(net) == [Violation("MissingFunction", "t", "transition has no fn clause")]


# A net that breaks every structure rule, as a program a child process can run.
EVERY_STRUCTURE_RULE_BROKEN = """
from presto import expr as ex
from presto.pres import PresNet, Transition
net = PresNet(
    name="broken",
    places=("a", "b", "a", "t"),
    var_of={"a": "a"},
    transitions=(
        Transition("t", frozenset({"a"}), frozenset({"b"}), ex.Var("a")),
        Transition("t", frozenset({"a", "ghost", "c"}), frozenset({"b", "e", "c"}), ex.Var("zz")),
        Transition("u", frozenset(), frozenset(), None),
    ),
    initial_marking=frozenset({"a", "m1", "m2", "m0"}),
)
"""


def test_a_net_breaking_every_structure_rule_gets_one_report_whatever_the_hash_seed():
    # Declaration order, sorted within a transition; marked places sorted.
    scope: dict = {}
    exec(EVERY_STRUCTURE_RULE_BROKEN, scope)
    report = [str(v) for v in validate_net(scope["net"])]
    assert report == [
        "DuplicateName: a (place declared twice)",
        "DuplicateName: t (name already declared)",
        "DuplicateName: t (name already declared)",
        "MissingFunction: u (transition has no fn clause)",
        "UnknownPlace: c (in transition t)",
        "UnknownPlace: e (in transition t)",
        "UnknownPlace: ghost (in transition t)",
        "MissingVariable: b (place has no associated variable)",
        "MissingVariable: t (place has no associated variable)",
        "UnknownPlace: m0 (initial marking references an undeclared place)",
        "UnknownPlace: m1 (initial marking references an undeclared place)",
        "UnknownPlace: m2 (initial marking references an undeclared place)",
        "FunctionScopeViolation: t (fn reads 'zz' outside the input variables)",
    ]
    # -I would ignore PYTHONHASHSEED (it implies -E), so each child gets -s
    # and an environment that holds the seed alone.
    src = os.path.dirname(os.path.dirname(presto.__file__))
    for seed in ("1", "2"):
        child = subprocess.run(
            [sys.executable, "-s", "-c", "import sys; sys.path.insert(0, sys.argv[1]); exec(sys.argv[2]); "
             "from presto.pres import validate_net; print(*validate_net(net), sep='\\n')",
             src, EVERY_STRUCTURE_RULE_BROKEN],
            capture_output=True, text=True, env={"PYTHONHASHSEED": seed},
        )
        assert child.stdout.splitlines() == report, child.stderr


def test_ports_are_classified_once_per_net(card_a):
    net = _rebuilt(card_a)
    assert net.ports is None
    assert classify_ports(net) is classify_ports(net) is net.ports
    assert classify_ports(net) == classify_ports(card_a)


def test_parse_matches_manual_construction():
    src = """
    net two {
      place a marked;
      place b;
      transition t { pre a; post b; fn f(a); }
    }
    """
    net = parse_pres(src)
    assert net.places == ("a", "b")
    assert net.initial_marking == {"a"}
    assert net.var_of == {"a": "a", "b": "b"}
