"""The cutpoint walk against whole-path enumeration, on loops, and on a long
run of guard splits.

``whole_path_verdict`` is the comparator the walk replaced, kept here as an
oracle: it folds every reset-to-terminal path of a loop-free machine from
the reset state and pairs the paths by normalized condition.  On loop-free
pairs the walk must give the oracle's verdict wherever the oracle decides;
every NotEquivalent must replay on concrete runs; on looping pairs the walk
must end and never call a pair Equivalent that a run separates, either by
their outputs or by one machine stopping where the other does not.
"""

import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from presto import cli, equiv, expr as ex
from presto.equiv import check_fsmd_equivalence
from presto.fsmd import Fsmd, FsmdTransition, UpdateSet, machine_run, path_enumerate, path_transformation
from presto.verdict import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT

from _gen import compile_program, perfbench, random_env, random_program, variant

OUTPUTS = {"c": "c", "d": "d"}


def whole_path_match(m1, m2, outputs):
    """The first difference of the two machines' whole paths, or ``None``."""
    keyed = []
    for machine in (m1, m2):
        paths = {}
        for path in path_enumerate(machine, machine.reset, machine.terminal_states()).paths:
            pt = path_transformation(machine, path)
            key = ex.normalize(pt.condition)
            if key in paths:
                return "multipath"
            paths[key] = pt
        keyed.append(paths)
    left, right = keyed
    for key in (*left, *right):
        if (key in left) != (key in right):
            return key
    for key, pt1 in left.items():
        for v1, v2 in outputs.items():
            if ex.normalize(pt1.transform[v1]) is not ex.normalize(right[key].transform[v2]):
                return key
    return None


def runs(m1, m2, vectors, functions, max_steps=1_000):
    """Both machines' final stores for each vector that both runs finish."""
    out = []
    for vector in vectors:
        try:
            s1, s2 = (machine_run(m, vector, functions, max_steps)[0] for m in (m1, m2))
        except ex.ExprError:
            continue
        if s1 is not None and s2 is not None:
            out.append((s1, s2))
    return out


def separated(samples, outputs=OUTPUTS):
    return any(s1[v1] != s2[v2] for s1, s2 in samples for v1, v2 in outputs.items())


def whole_path_verdict(m1, m2, vectors, functions):
    diff = whole_path_match(m1, m2, OUTPUTS)
    if diff is None:
        return EQUIVALENT
    if diff == "multipath":
        return INCONCLUSIVE
    return NOT_EQUIVALENT if separated(runs(m1, m2, vectors, functions)) else INCONCLUSIVE


def _forever(program):
    """``program`` with every loop guard one that always holds."""
    out = []
    for item in program:
        if item[0] == "loop":
            item = ("loop", ex.Rel("<=", ex.Var("c"), ex.Var("c")), _forever(item[2]))
        elif item[0] == "if":
            item = ("if", item[1], _forever(item[2]), _forever(item[3]))
        out.append(item)
    return out


def _pair(seed, loops):
    rng = random.Random(seed)
    program = random_program(rng, 3, loops)
    other = variant(rng, program, 0.1 if seed % 2 else 0.0)
    if loops and seed % 3 == 0:
        other = _forever(other)
    left = compile_program("l", program)
    right = compile_program("r", other, duplicate_tails=rng.random() < 0.4)
    if len(right.states) > 300:  # copied tails grow exponentially with the branches in a row
        right = compile_program("r", other)
    envs = [random_env(rng) for _ in range(4)]
    return left, right, [values for values, _ in envs], envs[0][1], rng


def _replays(verdict, left, right, functions, max_steps=1_000):
    vector = verdict.witness["vector"]
    p, q = verdict.witness["variable_pair"]
    left_store, right_store = (machine_run(m, vector, functions, max_steps)[0] for m in (left, right))
    return left_store[p] != right_store[q]


def test_walk_agrees_with_whole_path_enumeration_on_loop_free_pairs():
    """The walk gives the oracle's verdict, except that it decides some pairs
    that the oracle leaves open: the walk drops a path whose condition is
    false, where the oracle finds no counterpart for it, and it keys the
    segments after a cut on their own, where two whole paths can share one
    condition."""
    seen = {}
    for seed in range(300):
        left, right, vectors, functions, rng = _pair(seed, loops=False)
        verdict = check_fsmd_equivalence(left, right, OUTPUTS, vectors, functions)
        oracle = whole_path_verdict(left, right, vectors, functions)
        if verdict.status != oracle:
            assert oracle == INCONCLUSIVE and whole_path_match(left, right, OUTPUTS) in ("multipath", ex.FALSE), seed
        if verdict.status == NOT_EQUIVALENT:
            assert _replays(verdict, left, right, functions), seed
        elif verdict.status == EQUIVALENT:
            more = [random_env(rng)[0] for _ in range(4)]
            assert not separated(runs(left, right, vectors + more, functions)), seed
        seen[verdict.status, oracle] = seen.get((verdict.status, oracle), 0) + 1
    assert seen[EQUIVALENT, EQUIVALENT] > 50 and seen[NOT_EQUIVALENT, NOT_EQUIVALENT] > 20, seen


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
@example(3040)
def test_walk_on_looping_pairs_ends_and_never_contradicts_a_run(seed):
    # Every third right machine never leaves a loop it enters; an Equivalent
    # verdict must then also mean that no run stops on one side only.  One
    # step cap does not tell that: under 500 steps, seed 3040 has a vector on
    # which both machines stop, the left after more than 500 steps.  So a run
    # that stops on one side only must, on the other, have run out of steps
    # and then stop within 20 000; getting stuck or passing the value bound
    # on one side only fails.
    left, right, vectors, functions, rng = _pair(seed, loops=True)
    verdict = check_fsmd_equivalence(left, right, OUTPUTS, vectors, functions, 500)
    if verdict.status == NOT_EQUIVALENT:
        assert _replays(verdict, left, right, functions, 500)
    elif verdict.status == EQUIVALENT:
        more = vectors + [random_env(rng)[0] for _ in range(8)]
        assert not separated(runs(left, right, more, functions, 500))
        for vector in more:
            ends = [machine_run(m, vector, functions, 500) for m in (left, right)]
            stopped = [store is not None for store, _ in ends]
            if stopped[0] != stopped[1]:
                machine, (_, reason) = (left, ends[0]) if stopped[1] else (right, ends[1])
                assert reason.startswith("took more than"), (vector, reason)
                assert machine_run(machine, vector, functions, 20_000)[0] is not None, vector


def test_a_looping_pair_whose_values_outgrow_the_bound_decides_within_seconds():
    # The right machine's loop doubles the bit length of d every few steps,
    # so a confirmation run of 500 steps ends on the bound on its values.
    left, right, vectors, functions, _ = _pair(19, loops=True)
    start = time.perf_counter()
    verdict = check_fsmd_equivalence(left, right, OUTPUTS, vectors, functions, 500)
    assert time.perf_counter() - start < 5.0
    if verdict.status == NOT_EQUIVALENT:
        assert _replays(verdict, left, right, functions, 500)


@pytest.mark.parametrize("command", ["check-pres", "check-fsmd"])
def test_twenty_guard_splits_in_a_row_decide_in_well_under_a_second(command, tmp_path, capsys):
    # 2^20 reset-to-terminal paths per machine, but two segments per split.
    families = perfbench("families")
    pair = families.diamonds_pair(random.Random(1), "d20", 20)
    (tmp_path / "l.pres").write_text(families.net_text(pair.left))
    (tmp_path / "r.pres").write_text(families.net_text(pair.right))
    (tmp_path / "d20.scn").write_text(pair.scenario_text("l.pres", "r.pres"))
    start = time.perf_counter()
    code = cli.main([command, str(tmp_path / "d20.scn")])
    elapsed = time.perf_counter() - start
    assert code == 0, capsys.readouterr().out
    assert elapsed < 1.0, elapsed


X, ONE = ex.Var("x"), ex.IntConst(1)
POSITIVE = ex.Rel(">", X, ex.IntConst(0))


def _joined(name, before, after, outputs=("y",)):
    """Branch on x > 0, both branches assigning ``before``; join; assign ``after``."""
    return Fsmd(name, ("q0", "q1", "q2", "q3", "q4"), "q0", frozenset({"x"}), frozenset({"a", "b", "y"}),
                frozenset(outputs), (
                    FsmdTransition("q0", (POSITIVE,), "q1", UpdateSet.of(before)),
                    FsmdTransition("q0", (ex.negate_guard(POSITIVE),), "q2", UpdateSet.of(before)),
                    FsmdTransition("q1", (), "q3", UpdateSet(())),
                    FsmdTransition("q2", (), "q3", UpdateSet(())),
                    FsmdTransition("q3", (), "q4", UpdateSet.of(after)),
                ))


@pytest.fixture
def walks(monkeypatch):
    """The number of walks each check makes."""
    count = []
    real = equiv._Walk.run
    monkeypatch.setattr(equiv._Walk, "run", lambda self, entry: count.append(1) or real(self, entry))
    return count


def test_a_variable_without_partner_is_carried_through_an_acyclic_pair(walks):
    # The left machine computes a = x + 1 before the join, the right one
    # reads x + 1 after it: at the join a has no partner, so that arrival
    # keeps its terms and one walk decides.
    left = _joined("l", [("a", ex.add(X, ONE))], [("y", ex.mul(ex.Var("a"), ex.IntConst(2)))])
    right = _joined("r", [], [("y", ex.mul(ex.add(X, ONE), ex.IntConst(2)))])
    assert check_fsmd_equivalence(left, right, {"y": "y"}).status == EQUIVALENT
    assert len(walks) == 1


def test_a_relation_hidden_by_a_cut_is_found_by_walking_through_it(walks):
    # Both machines hold a = x and b = x + 1 at the join, and both are
    # outputs, so a and b get symbols of their own there; y = b against
    # y = a + 1 then differs only under the cut, and the second walk,
    # through the join, decides.
    before = [("a", X), ("b", ex.add(X, ONE))]
    left = _joined("l", before, [("y", ex.Var("b"))], "aby")
    right = _joined("r", before, [("y", ex.add(ex.Var("a"), ONE))], "aby")
    assert check_fsmd_equivalence(left, right, {v: v for v in "aby"}).status == EQUIVALENT
    assert len(walks) == 2


def test_a_difference_on_whole_paths_needs_no_second_walk(walks):
    # 2 * a against 3 * a after the join differs in normal form with the
    # join's symbol for a replaced by x, its term on the first arrival, so
    # walking through the join could not match them.
    a = ex.Var("a")
    left = _joined("l", [("a", X)], [("y", ex.mul(ex.IntConst(2), a))])
    right = _joined("r", [("a", X)], [("y", ex.mul(ex.IntConst(3), a))])
    verdict = check_fsmd_equivalence(left, right, {"y": "y"})
    assert verdict.status == INCONCLUSIVE and "'y'" in verdict.reason
    assert len(walks) == 1


def test_a_joined_tail_is_walked_against_duplicated_tails_in_one_walk(walks):
    # The left machine joins after the first branch; the right one runs a
    # copy of the rest in each arm.  At the join the left side has one
    # unconditional segment, up to the second branch, and advances alone.
    a, b, d = ex.Var("a"), ex.Var("b"), ex.Var("d")
    program = [("if", ex.Rel(">", a, b), [("set", {"c": a})], [("set", {"d": a})]),
               ("set", {"d": ex.add(d, ONE)}),
               ("if", ex.Rel("<", b, ONE), [("set", {"c": ONE})], [("set", {"d": ONE})])]
    left, right = compile_program("l", program), compile_program("r", program, duplicate_tails=True)
    assert check_fsmd_equivalence(left, right, OUTPUTS).status == EQUIVALENT
    assert len(walks) == 1


def test_a_path_that_no_input_can_take_is_dropped():
    never, always = ex.Rel(">", ONE, ex.IntConst(2)), ex.Rel("<=", ONE, ex.IntConst(2))

    def machine(name, steps):
        return Fsmd(name, ("q0", "q1"), "q0", frozenset({"x"}), frozenset({"y"}), frozenset({"y"}),
                    tuple(FsmdTransition("q0", guards, "q1", UpdateSet.of([("y", e)])) for guards, e in steps))

    dead_branch = machine("l", [((never,), ex.IntConst(5)), ((always,), X)])
    straight = machine("r", [((), X)])
    assert check_fsmd_equivalence(dead_branch, straight, {"y": "y"}).status == EQUIVALENT
    assert check_fsmd_equivalence(straight, dead_branch, {"y": "y"}).status == EQUIVALENT
    assert whole_path_match(dead_branch, straight, {"y": "y"}) is ex.FALSE  # the whole-path oracle gives up
