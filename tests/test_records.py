"""The surface of presto's value records, and what importing the CLI loads."""

import os
import subprocess
import sys

import pytest

import presto
from presto import corpus, expr as ex
from presto.convert import FiringSet, Step, pres_to_fsmd
from presto.dsl import ScenarioDocument, Span, parse_expression
from presto.equiv import PortMap, _Pair
from presto.fsmd import Assignment, DuplicateTarget, Fsmd, FsmdTransition, UpdateSet
from presto.pres import PresNet, Transition, Violation
from presto.sim import RunOutcome
from presto.verdict import Verdict

FN = parse_expression("f(a) + 1")
GUARD = parse_expression("a > 0")
PRE, POST = frozenset({"a"}), frozenset({"b"})


def _records():
    return [
        Violation("DuplicateName", "p1", "place declared twice"),
        Violation("A", "b"),
        Span(3, 14),
        Transition("t1", PRE, POST, FN, GUARD),
        Transition("t2", PRE, POST, ex.Var("a")),
        FiringSet(("t1", "t2"), (GUARD,)),
    ]


PRINTED = [
    ("Violation(rule='DuplicateName', element='p1', detail='place declared twice')",
     "DuplicateName: p1 (place declared twice)"),
    ("Violation(rule='A', element='b', detail='')", "A: b"),
    ("Span(line=3, col=14)", "3:14"),
    ("Transition(id='t1', pre=frozenset({'a'}), post=frozenset({'b'}), fn=Arith(op='+', args=(Apply(symbol='f', args=(Var(name='a'),)), IntConst(value=1))), "
     "guard=Rel(op='>', lhs=Var(name='a'), rhs=IntConst(value=0)))",) * 2,
    ("Transition(id='t2', pre=frozenset({'a'}), post=frozenset({'b'}), fn=Var(name='a'), guard=None)",) * 2,
    ("FiringSet(transitions=('t1', 't2'), guard_set=(Rel(op='>', lhs=Var(name='a'), rhs=IntConst(value=0)),))",) * 2,
]


@pytest.mark.parametrize("index", range(len(PRINTED)))
def test_repr_and_str_are_unchanged(index):
    record = _records()[index]
    assert (repr(record), str(record)) == PRINTED[index]


def test_records_compare_and_hash_by_value():
    for first, second in zip(_records(), _records()):
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
    assert Violation("A", "b") != Violation("A", "c")
    assert Transition("t1", PRE, POST, FN) != Transition("t1", PRE, POST, FN, GUARD)
    assert Transition("t1", PRE, POST, FN) != Transition("t1", PRE, PRE, FN)


def test_replace_gives_a_changed_copy():
    t = Transition("t1", PRE, POST, FN)
    guarded = t._replace(guard=GUARD)
    assert guarded == Transition("t1", PRE, POST, FN, GUARD) and t.guard is None
    assert Span(3, 14)._replace(col=1) == Span(3, 1)


@pytest.mark.parametrize("record, field", [
    (Violation("A", "b"), "detail"), (Span(3, 14), "line"), (Transition("t1", PRE, POST, FN), "guard"),
    (FiringSet(("t1",), ()), "transitions"),
])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


X = ex.Var("x")
FS = FiringSet(("t",), ())


def _net() -> PresNet:
    return PresNet("n", ("a", "b"), {"a": "x", "b": "y"}, (Transition("t", PRE, POST, ex.Apply("f", (X,))),),
                   frozenset({"a"}))


def _converted():
    """One of each record that is no longer a dataclass, and the repr the
    dataclass gave it.  Every set holds at most one item, so no repr
    depends on string hashing."""
    return [
        (Verdict("Equivalent", "m"), "Verdict(status='Equivalent', method='m', witness=None, reason=None)"),
        (Verdict("NotEquivalent", "m", witness={"x": 1}),
         "Verdict(status='NotEquivalent', method='m', witness={'x': 1}, reason=None)"),
        (Verdict("Inconclusive", "m", reason="r"),
         "Verdict(status='Inconclusive', method='m', witness=None, reason='r')"),
        (PortMap({"a": "b"}, {"c": "d"}), "PortMap(in_map={'a': 'b'}, out_map={'c': 'd'})"),
        (PortMap({}, {}), "PortMap(in_map={}, out_map={})"),
        (UpdateSet.of([("y", X)]), "UpdateSet(assignments=(Assignment(target='y', expr=Var(name='x')),))"),
        (Fsmd("m", ("q0", "q1"), "q0", frozenset({"x"}), frozenset({"y"}), frozenset({"y"}),
              (FsmdTransition("q0", (), "q1", UpdateSet(())),)),
         "Fsmd(name='m', states=('q0', 'q1'), reset='q0', inputs=frozenset({'x'}), storage=frozenset({'y'}), "
         "outputs=frozenset({'y'}), transitions=(FsmdTransition(source='q0', guard_set=(), target='q1', "
         "updates=UpdateSet(assignments=())),))"),
        (_net(),
         "PresNet(name='n', places=('a', 'b'), var_of={'a': 'x', 'b': 'y'}, transitions=(Transition(id='t', "
         "pre=frozenset({'a'}), post=frozenset({'b'}), fn=Apply(symbol='f', args=(Var(name='x'),)), guard=None),), "
         "initial_marking=frozenset({'a'}))"),
        (Step(((((_net().transitions[0],), ()),),)),
         "Step(parts=((((Transition(id='t', pre=frozenset({'a'}), post=frozenset({'b'}), fn=Apply(symbol='f', "
         "args=(Var(name='x'),)), guard=None),), ()),),), firings={})"),
        (pres_to_fsmd(_net()),
         "Conversion(fsmd=Fsmd(name='n', states=('q0', 'q1'), reset='q0', inputs=frozenset({'x'}), "
         "storage=frozenset({'y'}), outputs=frozenset({'y'}), transitions=(FsmdTransition(source='q0', guard_set=(), "
         "target='q1', updates=UpdateSet(assignments=(Assignment(target='y', expr=Apply(symbol='f', "
         "args=(Var(name='x'),))),))),)), marking_of_state={'q0': frozenset({'a'}), 'q1': frozenset({'b'})}, "
         "labels=[[('f',)]], warnings=[])"),
        (pres_to_fsmd(_net(), 2, "reject"),
         "Conversion(fsmd=Fsmd(name='n', states=('q0', 'q1'), reset='q0', inputs=frozenset({'x'}), "
         "storage=frozenset({'y'}), outputs=frozenset({'y'}), transitions=(FsmdTransition(source='q0', guard_set=(), "
         "target='q1', updates=UpdateSet(assignments=(Assignment(target='y', expr=Apply(symbol='f', "
         "args=(Var(name='x'),))),))),)), marking_of_state={'q0': frozenset({'a'}), 'q1': frozenset({'b'})}, "
         "labels=[[('f',)]], warnings=[])"),
        (ScenarioDocument("s", left="a.pres"),
         "ScenarioDocument(name='s', left='a.pres', right=None, check='functional', strategy='symbolic', in_map={}, "
         "out_map={}, var_map={}, vectors=[], interps=[], default_seed=None, max_steps=1000, state_bound=10000, "
         "base_dir='.')"),
        (ScenarioDocument("s", left="a.pres", check="fsmd", state_bound=5),
         "ScenarioDocument(name='s', left='a.pres', right=None, check='fsmd', strategy='symbolic', in_map={}, "
         "out_map={}, var_map={}, vectors=[], interps=[], default_seed=None, max_steps=1000, state_bound=5, "
         "base_dir='.')"),
        (_Pair((frozenset({(0, "x")}),), frozenset(), ({}, {})),
         "_Pair(classes=(frozenset({(0, 'x')}),), trail=frozenset(), origin=({}, {}))"),
        (RunOutcome("Quiescent", {"b": 1}, [(FS, {"b": 1})], 1),
         "RunOutcome(status='Quiescent', final_state={'b': 1}, trace=[(FiringSet(transitions=('t',), guard_set=()), "
         "{'b': 1})], steps=1, chose=False)"),
        (RunOutcome("Deadlock", {}), "RunOutcome(status='Deadlock', final_state={}, trace=[], steps=0, chose=False)"),
        (RunOutcome("Quiescent", {"b": 1}, [], 0, True),
         "RunOutcome(status='Quiescent', final_state={'b': 1}, trace=[], steps=0, chose=True)"),
    ]


CONVERTED = len(_converted())


@pytest.mark.parametrize("index", range(CONVERTED))
def test_converted_records_print_as_the_dataclasses_did(index):
    record, printed = _converted()[index]
    assert repr(record) == printed


# The frozen dataclasses hashed the tuple of their fields (and raised where a
# field is a dict); the others were unhashable, except Step, which compared
# and hashed by identity.  An UpdateSet is now the tuple of its assignments,
# and hashes as that tuple.
FROZEN = (Verdict, PortMap, UpdateSet)


@pytest.mark.parametrize("index", range(CONVERTED))
def test_converted_records_compare_and_hash_as_the_dataclasses_did(index):
    (first, _), (second, _) = _converted()[index], _converted()[index]
    assert first is not second
    if type(first) is Step:
        assert first != second and first == first and hash(first) == object.__hash__(first)
        return
    assert first == second and not first != second
    assert first != object() and first != Verdict("Equivalent", "other")
    fields = tuple(first) if type(first) is UpdateSet else tuple(getattr(first, name) for name in first._fields)
    try:
        expected = hash(fields) if type(first) in FROZEN else None
    except TypeError:
        expected = None
    if expected is None:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == expected and len({first, second}) == 1


def test_a_changed_field_breaks_equality():
    assert _net() != _net()._replace(name="other")
    assert UpdateSet.of([("y", X)]) != UpdateSet.of([("z", X)])
    assert RunOutcome("Deadlock", {}) != RunOutcome("Deadlock", {}, steps=1)
    assert ScenarioDocument("s") != ScenarioDocument("s", check="fsmd")


@pytest.mark.parametrize("build, message", [
    (lambda: Verdict("Maybe", "m"), "unknown verdict status 'Maybe'"),
    (lambda: Verdict("NotEquivalent", "m"), "NotEquivalent verdicts need a witness"),
    (lambda: Verdict("Inconclusive", "m"), "Inconclusive verdicts need a reason"),
    (lambda: Verdict("Equivalent", "m")._replace(status="NotEquivalent"), "NotEquivalent verdicts need a witness"),
    (lambda: pres_to_fsmd(_net(), state_bound=0), "state_bound must be at least 1"),
    (lambda: pres_to_fsmd(_net(), on_unsafe="ignore"), "unknown unsafe policy 'ignore'"),
    (lambda: pres_to_fsmd(_net(), -1, "reject"), "state_bound must be at least 1"),
])
def test_validated_records_refuse_bad_fields_on_copy_too(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_verdict_replace_gives_a_changed_copy():
    verdict = Verdict("NotEquivalent", "m", witness={"x": 1})
    copy = verdict._replace(witness={"x": 2})
    assert copy == Verdict("NotEquivalent", "m", witness={"x": 2}) and type(copy) is Verdict
    assert verdict.witness == {"x": 1}


def test_update_sets_are_immutable_and_refuse_a_second_assignment():
    updates = UpdateSet.of([("y", X)])
    with pytest.raises(AttributeError):
        updates.assignments = ()
    with pytest.raises(DuplicateTarget):
        UpdateSet.of([("y", X), ("y", ex.IntConst(1))])
    assert updates == (Assignment("y", X),) and isinstance(updates, tuple) and len(updates) == 1


def test_the_package_exports_resolve_and_take_plain_values():
    for name in presto.__all__:
        assert getattr(presto, name) is not None, name
    # A check's strategy is its name and a run's schedule is its seed; conversion takes its
    # bounds and evaluation its values and interpretations as they are.  No class stands for any.
    removed = {"Sampled", "Symbolic", "MaximalStep", "RandomMaximal", "SchedulePolicy", "ConversionConfig",
               "Environment"}
    assert not removed & set(presto.__all__)
    modules = (presto, presto.sim, presto.equiv, presto.convert, presto.expr)
    assert not [name for module in modules for name in removed if hasattr(module, name)]


def test_maps_and_lists_left_out_are_new_ones():
    first, second = ScenarioDocument("a"), ScenarioDocument("b")
    first.vectors.append({"p": 1})
    assert second.vectors == [] and RunOutcome("Deadlock", {}).trace is not RunOutcome("Deadlock", {}).trace


def test_a_replaced_net_is_equal_and_indexed_afresh():
    net = corpus.load_net("guard_split")
    copy = net._replace()
    assert copy == net and copy is not net
    assert copy.order == net.order and copy.place_order == net.place_order and copy._consumers == net._consumers
    with pytest.raises(TypeError):
        net._replace(colour="red")


# What `import presto.cli` must not load: only the dataclass machinery
# needed the first seven, and json and string are read on first use or
# spelled out.  Every CLI call is a fresh process that pays for the import.
NOT_IMPORTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy", "json", "string",
                "hashlib", "_hashlib")


def test_importing_the_cli_does_not_load_hashlib():
    # Only seeded interpretations need hashlib, and only a witness or a
    # report needs json; each waits for its first use.  A command that
    # prints a witness still works in such a process.
    src = os.path.dirname(os.path.dirname(presto.__file__))
    child = subprocess.run(
        [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]); import presto.cli; "
         "print(sorted(m for m in sys.modules if m in sys.argv[3:])); "
         "raise SystemExit(presto.cli.main(['check-pres', sys.argv[2]]))",
         src, corpus.scenario_path("addthree_plus4"), *NOT_IMPORTED],
        capture_output=True, text=True,
    )
    lines = child.stdout.splitlines()
    assert lines[0] == "[]", child.stderr
    assert child.returncode == 1 and lines[1].startswith("NotEquivalent") and lines[2].startswith("  witness: {")
