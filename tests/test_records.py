"""The surface of presto's value records, and what importing the CLI loads."""

import os
import subprocess
import sys

import pytest

import presto
from presto import expr as ex
from presto.convert import FiringSet
from presto.dsl import Span, parse_expression
from presto.pres import Transition, Violation

FN = parse_expression("f(a) + 1")
GUARD = parse_expression("a > 0")


def _records():
    return [
        Violation("DuplicateName", "p1", "place declared twice"),
        Violation("A", "b"),
        Span(3, 14),
        Transition("t1", FN, GUARD),
        Transition("t2", ex.Var("a")),
        FiringSet(("t1", "t2"), (GUARD,)),
    ]


PRINTED = [
    ("Violation(rule='DuplicateName', element='p1', detail='place declared twice')",
     "DuplicateName: p1 (place declared twice)"),
    ("Violation(rule='A', element='b', detail='')", "A: b"),
    ("Span(line=3, col=14)", "3:14"),
    ("Transition(id='t1', fn=Arith(op='+', args=(Apply(symbol='f', args=(Var(name='a'),)), IntConst(value=1))), "
     "guard=Rel(op='>', lhs=Var(name='a'), rhs=IntConst(value=0)))",) * 2,
    ("Transition(id='t2', fn=Var(name='a'), guard=None)",) * 2,
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
    assert Transition("t1", FN) != Transition("t1", FN, GUARD)


def test_replace_gives_a_changed_copy():
    t = Transition("t1", FN)
    guarded = t._replace(guard=GUARD)
    assert guarded == Transition("t1", FN, GUARD) and t.guard is None
    assert Span(3, 14)._replace(col=1) == Span(3, 1)


@pytest.mark.parametrize("record, field", [
    (Violation("A", "b"), "detail"), (Span(3, 14), "line"), (Transition("t1", FN), "guard"),
    (FiringSet(("t1",), ()), "transitions"),
])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_importing_the_cli_does_not_load_hashlib():
    # Only seeded interpretations need hashlib; every command pays for
    # what the import loads, so it waits for the first seeded symbol.
    src = os.path.dirname(os.path.dirname(presto.__file__))
    child = subprocess.run(
        [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]); import presto.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in ('hashlib', '_hashlib')))", src],
        capture_output=True, text=True, check=True,
    )
    assert child.stdout == "[]\n", child.stderr
