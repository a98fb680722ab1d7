import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from presto import corpus, expr as ex
from presto.convert import pres_to_fsmd
from presto.dsl import parse_expression, parse_fsmd
from presto.fsmd import (
    BrokenPath,
    DuplicateTarget,
    Fsmd,
    FsmdTransition,
    UncutCycle,
    UnknownVariable,
    UpdateSet,
    MAX_VALUE_BITS,
    apply_update_set,
    cutpoints,
    fresh_store,
    machine_run,
    path_cover,
    path_enumerate,
    path_transformation,
    validate_fsmd,
)

from _gen import random_int_expr

X, Y = ex.Var("x"), ex.Var("y")


def machine(transitions, states=("q0", "q1", "q2", "q3"), inputs=("x",), storage=("y",), outputs=("y",)):
    return Fsmd("m", tuple(states), "q0", frozenset(inputs), frozenset(storage), frozenset(outputs), tuple(transitions))


def step(src, dst, guards=(), updates=()):
    return FsmdTransition(src, tuple(guards), dst, UpdateSet.of(updates))


class TestApplyUpdateSet:
    def test_empty_is_identity(self):
        store = {"x": X, "y": Y}
        assert apply_update_set(UpdateSet(()), store) == store

    def test_swap_proves_parallelism(self):
        store = {"a": ex.Var("a"), "b": ex.Var("b")}
        u = UpdateSet.of([("a", ex.Var("b")), ("b", ex.Var("a"))])
        out = apply_update_set(u, store)
        assert out["a"] == ex.Var("b")
        assert out["b"] == ex.Var("a")

    def test_guard_split_branch_store(self, guard_split):
        conv = pres_to_fsmd(guard_split)
        g_branch = conv.fsmd.transitions[0]
        store = apply_update_set(g_branch.updates, fresh_store(conv.fsmd))
        assert store["p4"] == parse_expression("f_t1(p1, p2)")
        assert store["p6"] == parse_expression("f_t2(p3)")

    def test_duplicate_target(self):
        with pytest.raises(DuplicateTarget):
            UpdateSet.of([("a", X), ("a", Y)])

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            apply_update_set(UpdateSet.of([("z", X)]), {"x": X})
        with pytest.raises(UnknownVariable):
            apply_update_set(UpdateSet.of([("x", ex.Var("zz"))]), {"x": X})
        # The target is named first, then the least free variable outside the store.
        reads = ex.add(ex.Var("zz"), ex.Var("yy"), X)
        for updates, name in ((UpdateSet.of([("z", reads)]), "z"), (UpdateSet.of([("x", reads)]), "yy")):
            with pytest.raises(UnknownVariable, match=f"^variable {name!r} is not in the store domain$") as err:
                apply_update_set(updates, {"x": X})
            assert err.value.name == name


def test_outgoing_hands_out_each_states_tuple_as_it_is():
    # path_enumerate and machine_run ask for it on every step and only iterate it.
    first, second = step("q0", "q1"), step("q0", "q2")
    m = machine([first, step("q1", "q3"), second])
    assert m.outgoing("q0") == (first, second) and m.outgoing("q0") is m.outgoing("q0")
    assert m.outgoing("q3") == () and m.terminal_states() == {"q2", "q3"}


class TestPathEnumerate:
    def test_linear_chain_has_one_full_path(self, jammer_nonpipelined):
        m = pres_to_fsmd(jammer_nonpipelined).fsmd
        enum = path_enumerate(m, m.reset, m.terminal_states())
        assert len(enum.paths) == 1
        assert len(enum.paths[0]) == 15

    def test_start_in_targets_includes_empty_path(self):
        m = machine([step("q0", "q1")])
        enum = path_enumerate(m, "q0", {"q0", "q1"})
        assert () in enum.paths

    def test_diamond_has_two_paths(self):
        m = machine([
            step("q0", "q1", guards=[parse_expression("x > 0")]),
            step("q0", "q2", guards=[parse_expression("x <= 0")]),
            step("q1", "q3"),
            step("q2", "q3"),
        ])
        enum = path_enumerate(m, "q0", {"q3"})
        assert len(enum.paths) == 2

    def test_walk_stops_at_the_first_target(self):
        m = machine([step("q0", "q1"), step("q1", "q2"), step("q2", "q3")])
        assert [len(p) for p in path_enumerate(m, "q0", {"q1", "q3"}).paths] == [1]
        assert [len(p) for p in path_enumerate(m, "q0", {"q3"}).paths] == [3]

    def test_a_cycle_through_no_target_raises(self):
        m = machine([step("q0", "q1"), step("q1", "q2"), step("q2", "q1"), step("q1", "q3")])
        with pytest.raises(UncutCycle):
            path_enumerate(m, "q0", {"q3"})
        assert [len(p) for p in path_enumerate(m, "q0", {"q1", "q3"}).paths] == [1]
        assert [len(p) for p in path_enumerate(m, "q1", {"q1", "q3"}).paths] == [0, 2, 1]

    def test_deterministic_order_follows_declaration(self):
        m = machine([
            step("q0", "q2", guards=[parse_expression("x <= 0")]),
            step("q0", "q1", guards=[parse_expression("x > 0")]),
            step("q1", "q3"),
            step("q2", "q3"),
        ])
        enum = path_enumerate(m, "q0", {"q3"})
        assert [p[0].target for p in enum.paths] == ["q2", "q1"]


class TestPathCover:
    def test_cutpoints_cut_joins_splits_and_loops(self):
        diamond = machine([
            step("q0", "q1", guards=[parse_expression("x > 0")]),
            step("q0", "q2", guards=[parse_expression("x <= 0")]),
            step("q1", "q3"),
            step("q2", "q3"),
        ])
        assert cutpoints(diamond) == {"q0", "q3"}
        assert cutpoints(corpus.load_fsmd("sum_loop")) == {"q0", "q1", "q2"}
        ring = machine([step("q0", "q1"), step("q1", "q2"), step("q2", "q1"), step("q2", "q3")])
        assert cutpoints(ring) == {"q0", "q1", "q2", "q3"}

    def test_segments_liveness_cycles_and_rank_of_the_sum_loop(self):
        cover = path_cover(corpus.load_fsmd("sum_loop"), ["s"])
        assert cover.cyclic == {"q1"}
        assert cover.live == {"q0": {"n"}, "q1": {"i", "n", "s"}, "q2": {"s"}}
        assert [[(t.source, t.target) for t in seg] for seg in cover.segments["q1"]] == [[("q1", "q1")], [("q1", "q2")]]
        assert cover.segments["q2"] == ((),)
        assert cover.rank["q0"] < cover.rank["q1"] < cover.rank["q2"]

    def test_diamond_chain_has_two_segments_per_split(self):
        splits = 30
        transitions = []
        for i in range(splits):
            x = ex.Var("x")
            for g in (ex.Rel(">", x, ex.IntConst(i)), ex.Rel("<=", x, ex.IntConst(i))):
                transitions.append(step(f"j{i}", f"b{i}{g.op}", [g], [("y", ex.add(ex.Var("y"), x))]))
                transitions.append(step(f"b{i}{g.op}", f"j{i + 1}"))
        states = sorted({t.source for t in transitions} | {t.target for t in transitions})
        m = Fsmd("d", tuple(states), "j0", frozenset({"x"}), frozenset({"y"}), frozenset({"y"}), tuple(transitions))
        cover = path_cover(m, ["y"])
        assert set(cover.segments) == {f"j{i}" for i in range(splits + 1)}
        assert all(len(cover.segments[f"j{i}"]) == 2 for i in range(splits)) and not cover.cyclic
        assert cover.live["j0"] == {"x", "y"}


class TestPathTransformation:
    def test_fold_from_a_given_store(self):
        m = machine([step("q0", "q1", [ex.Rel(">", X, ex.IntConst(0))], [("y", ex.add(X, ex.IntConst(1)))])])
        entry = {"x": ex.Var("x@q0"), "y": Y}
        pt = path_transformation(m, list(m.transitions), entry)
        assert pt.transform["y"] == ex.add(ex.Var("x@q0"), ex.IntConst(1))
        assert pt.condition == ex.Rel(">", ex.Var("x@q0"), ex.IntConst(0))
        assert entry["y"] is Y  # the entry store is not changed

    def test_empty_path(self):
        m = machine([step("q0", "q1")])
        pt = path_transformation(m, [])
        assert pt.condition == ex.TRUE
        assert pt.transform == fresh_store(m)

    def test_pipelined_first_stage_composes_copy_into_detect(self, jammer_pipelined):
        conv = pres_to_fsmd(jammer_pipelined)
        first = conv.fsmd.transitions[0]
        pt = path_transformation(conv.fsmd, [first])
        assert pt.transform["r1"] == parse_expression("detectEnv(in-Copy(sig))")

    def test_guard_reads_the_store_at_its_step(self):
        m = machine([
            step("q0", "q1", updates=[("y", parse_expression("x + 1"))]),
            step("q1", "q2", guards=[parse_expression("y > 0")]),
        ], storage=("y",))
        pt = path_transformation(m, list(m.transitions))
        assert ex.structurally_equivalent(pt.condition, parse_expression("x + 1 > 0"))

    def test_broken_path(self):
        m = machine([step("q0", "q1"), step("q2", "q3")])
        with pytest.raises(BrokenPath):
            path_transformation(m, list(m.transitions))

    def test_composition_splits_agree(self, jammer_nonpipelined):
        m = pres_to_fsmd(jammer_nonpipelined).fsmd
        path = path_enumerate(m, m.reset, m.terminal_states()).paths[0]
        whole = path_transformation(m, path)
        for cut in (1, 7, 14):
            first = path_transformation(m, path[:cut])
            glued = path_transformation(m, path[cut:], first.transform)
            assert ex.normalize(ex.conj([first.condition, glued.condition])) == ex.normalize(whole.condition)
            for v in m.variables():
                assert ex.normalize(glued.transform[v]) == ex.normalize(whole.transform[v])


class TestRunMachine:
    def test_takes_the_branch_whose_guard_holds(self):
        m = machine([step("q0", "q1", [ex.Rel(">", X, ex.IntConst(0))], [("y", ex.Apply("f", (X,)))]),
                     step("q0", "q2", [ex.Rel("<=", X, ex.IntConst(0))], [("y", X)]),
                     step("q1", "q3", (), [("y", ex.add(Y, X))])])
        f = {"f": lambda v: 10 * v}
        assert machine_run(m, {"x": 2}, f)[0] == {"x": 2, "y": 22}
        assert machine_run(m, {"x": -2}, f)[0] == {"x": -2, "y": -2}

    def test_updates_read_the_pre_step_store(self):
        m = machine([step("q0", "q1", (), [("x", Y), ("y", X)])], states=("q0", "q1"), inputs=(), storage=("x", "y"))
        assert machine_run(m, {"x": 1, "y": 2})[0] == {"x": 2, "y": 1}

    def test_a_run_through_a_loop_takes_up_to_max_steps(self):
        m = corpus.load_fsmd("sum_loop")  # n = 4: one step in, four passes, one step out
        assert machine_run(m, {"n": 4})[0]["s"] == 6
        assert machine_run(m, {"n": 4}, max_steps=6)[0]["s"] == 6
        assert machine_run(m, {"n": 4}, max_steps=5)[0] is None

    def test_stuck_ambiguous_and_looping_runs_have_no_store(self):
        positive = ex.Rel(">", X, ex.IntConst(0))
        stuck = machine([step("q0", "q1", [positive])], states=("q0", "q1"))
        assert machine_run(stuck, {"x": 0})[0] is None
        ambiguous = machine([step("q0", "q1", [positive]), step("q0", "q2", ())], states=("q0", "q1", "q2"))
        assert machine_run(ambiguous, {"x": 1})[0] is None
        loop = machine([step("q0", "q1"), step("q1", "q0")], states=("q0", "q1"))
        assert machine_run(loop, {"x": 1})[0] is None

    def test_a_run_whose_values_outgrow_the_bound_ends_without_a_store(self):
        # Squaring doubles the bit length on every pass: 2 ** (2 ** 13) has
        # 8193 bits after 13 passes, far within the step bound.
        square = machine([step("q0", "q0", [ex.Rel(">", X, ex.IntConst(0))], [("x", ex.mul(X, X))]),
                          step("q0", "q1", [ex.Rel("<=", X, ex.IntConst(0))])],
                         states=("q0", "q1"), inputs=(), storage=("x",), outputs=("x",))
        start = time.perf_counter()
        assert machine_run(square, {"x": 2}) == (None, f"made a value of more than {MAX_VALUE_BITS} bits")
        assert time.perf_counter() - start < 1.0
        assert machine_run(square, {"x": 0}) == ({"x": 0}, "")

    def test_machine_run_says_what_ended_a_run(self):
        positive = ex.Rel(">", X, ex.IntConst(0))
        stuck = machine([step("q0", "q1", [positive])], states=("q0", "q1"))
        assert machine_run(stuck, {"x": 0}) == (None, "got stuck")
        m = corpus.load_fsmd("sum_loop")
        assert machine_run(m, {"n": 4}, max_steps=5) == (None, "took more than 5 steps")
        assert machine_run(m, {"n": 4}, max_steps=6)[0]["s"] == 6


class TestValidate:
    def test_converted_jammers_are_clean(self, jammer_nonpipelined, jammer_pipelined):
        for net in (jammer_nonpipelined, jammer_pipelined):
            assert validate_fsmd(pres_to_fsmd(net).fsmd) == []

    def test_duplicate_guard_key(self):
        g = parse_expression("x > 0")
        m = machine([
            step("q0", "q1", guards=[g], updates=[("y", X)]),
            step("q0", "q2", guards=[g], updates=[("y", ex.add(X, ex.IntConst(1)))]),
        ])
        assert any(v.rule == "NondeterministicF" for v in validate_fsmd(m))

    def test_guard_key_is_order_insensitive(self):
        g1, g2 = parse_expression("x > 0"), parse_expression("x < 9")
        m = machine([
            step("q0", "q1", guards=[g1, g2], updates=[("y", X)]),
            step("q0", "q2", guards=[g2, g1], updates=[("y", Y)]),
        ])
        assert any(v.rule == "NondeterministicF" for v in validate_fsmd(m))

    def test_illegal_update_target(self):
        m = machine([step("q0", "q1", updates=[("x", ex.IntConst(1))])])  # x is input-only
        assert any(v.rule == "IllegalTarget" and v.element == "x" for v in validate_fsmd(m))

    def test_converted_guard_split_self_loop_target_is_storage(self, guard_split):
        # The self-loop writes the variable of an initially marked place; the
        # conversion makes it storage, so the emitted machine validates.
        conv = pres_to_fsmd(guard_split)
        assert "p7" in conv.fsmd.storage and "p7" not in conv.fsmd.inputs
        assert validate_fsmd(conv.fsmd) == []

    def test_parse_counts_for_converted_chain(self, jammer_nonpipelined):
        from presto.dsl import print_fsmd

        m = pres_to_fsmd(jammer_nonpipelined).fsmd
        again = parse_fsmd(print_fsmd(m))
        assert len(again.states) == 16
        assert len(again.transitions) == 15


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_parallel_update_reads_pre_step_values(seed):
    rng = random.Random(seed)
    variables = ("a", "b", "c", "d")
    targets = rng.sample(variables, rng.randint(1, 4))
    updates = UpdateSet.of([(t, random_int_expr(rng, 3, variables)) for t in targets])
    store = {v: ex.Var(v) for v in variables}
    values = {v: rng.randint(-10, 10) for v in variables}
    functions = {s: (lambda *a: sum(a) + 1) for s in ("F", "G", "H")}
    out = apply_update_set(updates, store)
    for assign in updates:
        assert ex.evaluate(out[assign.target], values, functions) == ex.evaluate(assign.expr, values, functions)
    for v in variables:
        if v not in {a.target for a in updates}:
            assert out[v] == ex.Var(v)


def chain(stages):
    """A pipeline: each stage feeds the previous stage's value through its
    own symbol, and every fifth stage is guarded."""
    names = ["x"] + [f"v{i}" for i in range(1, stages + 1)]
    states = tuple(f"s{i}" for i in range(stages + 1))
    transitions = []
    for i in range(1, stages + 1):
        prev = ex.Var(names[i - 1])
        update = ex.add(ex.mul(ex.Apply(f"f{i % 12}", (prev,)), ex.IntConst(2)), ex.IntConst(i))
        guards = (ex.Rel(">", prev, ex.IntConst(-i)),) if i % 5 == 0 else ()
        transitions.append(step(states[i - 1], states[i], guards, [(names[i], update)]))
    return Fsmd("chain", states, "s0", frozenset(["x"]), frozenset(names[1:]), frozenset([names[-1]]), tuple(transitions))


def test_800_stage_chain_is_checked_quickly():
    # Path enumeration, the path transformation and normalizing its output
    # walk 800-deep terms; the bound is loose (the work takes well under a
    # second) but a cubic store walk would miss it.
    stages = 800
    m = chain(stages)
    start = time.perf_counter()
    enum = path_enumerate(m, m.reset, m.terminal_states())
    pt = path_transformation(m, enum.paths[0])
    out, cond = ex.normalize(pt.transform[f"v{stages}"]), ex.normalize(pt.condition)
    assert time.perf_counter() - start < 10
    assert len(enum.paths) == 1
    assert ex.free_vars(out) == ex.free_vars(cond) == {"x"}
    assert len(ex.apply_chain(out)) == stages
    assert len(cond.args) == stages // 5


def test_20000_state_chain_is_cut_in_linear_time():
    # One segment from the reset state to the terminal one; liveness over a
    # store of 20 001 variables stays linear in the chain.
    stages = 20_000
    m = chain(stages)
    start = time.perf_counter()
    cover = path_cover(m, [f"v{stages}"])
    assert time.perf_counter() - start < 5
    assert len(cover.segments["s0"]) == 1 and len(cover.segments["s0"][0]) == stages
    assert cover.live == {"s0": {"x"}, f"s{stages}": {f"v{stages}"}}


def test_20000_state_chain_is_walked_in_linear_time():
    # Each step of path_enumerate and machine_run looks up one state's
    # outgoing transitions; scanning every transition there instead makes
    # this walk quadratic (tens of seconds).  The bound is loose.
    stages = 20_000
    m = chain(stages)
    functions = {f"f{k}": (lambda a: a % 5) for k in range(12)}
    start = time.perf_counter()
    enum = path_enumerate(m, m.reset, m.terminal_states())
    store = machine_run(m, {"x": 3}, functions)[0]
    assert time.perf_counter() - start < 5
    assert len(enum.paths) == 1 and len(enum.paths[0]) == stages
    expected = 3
    for i in range(1, stages + 1):
        expected = expected % 5 * 2 + i
    assert store[f"v{stages}"] == expected
