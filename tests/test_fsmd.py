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

import _reference
from _gen import SYMBOLS, VARS, compile_program, random_bool_expr, random_int_expr, random_program

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

    def test_an_ill_sorted_term_raises_only_where_a_run_evaluates_it(self):
        # A machine built in code is not validated: its state's plan holds the
        # ill-sorted update and guard, and a run raises what compiling them
        # raises where it evaluates them, and only there.
        bad = ex.add(X, ex.TRUE)
        positive, bad_guard = ex.Rel(">", X, ex.IntConst(0)), ex.Rel(">", bad, ex.IntConst(0))
        m = machine([step("q0", "q1", [positive], [("y", X)]),
                     step("q0", "q2", [ex.negate_guard(positive), bad_guard], [("y", bad)])], states=("q0", "q1", "q2"))
        message = "operand of '\\+' is not int-sorted: true"
        assert machine_run(m, {"x": 1}) == ({"x": 1, "y": 1}, "")
        for _ in range(2):
            with pytest.raises(ex.SortMismatch, match=message):
                machine_run(m, {"x": 0})

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


# Values for the differential machine runs: small ones, and one that any
# update that keeps it or adds to it takes past the value bound.
VALUES = (-3, -1, 0, 1, 2, 5, 9, 2 ** MAX_VALUE_BITS)


def _machine_case(case: int):
    """The fields of a compiled random program's machine, perhaps with one
    transition dropped (a run can get stuck, or rest early) or one guard set
    emptied (two transitions can hold at once), its inputs, functions
    (perhaps missing a symbol) and a step bound."""
    rng = random.Random(case)
    m = compile_program("m", random_program(rng, 3, loops=True))
    transitions = list(m.transitions)
    roll = rng.random()
    if roll < 0.2:
        transitions.pop(rng.randrange(len(transitions)))
    elif roll < 0.4 and any(t.guard_set for t in transitions):
        i = rng.choice([i for i, t in enumerate(transitions) if t.guard_set])
        transitions[i] = transitions[i]._replace(guard_set=())
    values = {v: rng.choice(VALUES) for v in ("a", "b", "c", "d") if v in "ab" or rng.random() < 0.7}
    functions = {s: (lambda c0, c1: lambda *args: c0 + c1 * sum(args))(rng.randint(-3, 3), rng.randint(-2, 2))
                 for s in SYMBOLS if rng.random() < 0.9}
    fields = (m.name, m.states, m.reset, m.inputs, m.storage, m.outputs, tuple(transitions))
    return fields, values, functions, rng.randint(1, 40)


def _machine_outcome(run, *args):
    try:
        return run(*args)
    except Exception as err:  # compared with what the reference raises
        return type(err), str(err)


def _machine_agrees_with_the_reference(case: int):
    fields, values, functions, max_steps = _machine_case(case)
    expected = _machine_outcome(_reference.machine_run, Fsmd(*fields), dict(values), functions, max_steps)
    m = Fsmd(*fields)
    for _ in range(2):  # the second run reads the plans the first one made
        assert _machine_outcome(machine_run, m, dict(values), functions, max_steps) == expected, case
    return expected


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_machine_runs_agree_with_the_reference_loop(case):
    _machine_agrees_with_the_reference(case)


def test_the_differential_machine_cases_reach_every_end():
    ends = set()
    for case in range(300):
        store, why = _machine_agrees_with_the_reference(case)
        ends.add(store.__name__ if isinstance(store, type) else why.split(" ")[0] if why else "rest")
    assert ends >= {"rest", "got", "took", "made", "UnboundVariable", "UninterpretedSymbol"}


# -- the symbolic fold, the path cover and validation against tests/_reference.py

def _fold_case(case: int):
    """A random path of up to six steps over VARS whose update sets are often
    parallel swaps or rotations, an entry store (``None`` for the identity
    one, or random terms), and now and then a step that reads or writes a
    variable outside the store, or that does not continue the path."""
    rng = random.Random(case)
    transitions = []
    for i in range(rng.randint(0, 6)):
        targets = rng.sample(VARS, rng.randint(0, len(VARS)))
        if rng.random() < 0.6:  # each target reads the next one's pre-step value: a swap, a rotation
            updates = [(t, ex.Var(s)) for t, s in zip(targets, targets[1:] + targets[:1])]
        else:
            updates = [(t, random_int_expr(rng, 2)) for t in targets]
        if updates and rng.random() < 0.5:  # one term that also reads another variable or constant
            t, term = updates[0]
            updates[0] = (t, ex.add(term, random_int_expr(rng, 1)))
        if rng.random() < 0.05:  # a target outside the store, or a term that reads one
            free = [v for v in VARS if v not in targets] or ["e"]
            updates.append(("e", ex.Var("a")) if rng.random() < 0.5 else (rng.choice(free), ex.Var("e")))
        guards = [random_bool_expr(rng, 2) for _ in range(rng.randint(0, 2))]
        source = f"q{i}" if rng.random() > 0.03 else "elsewhere"
        transitions.append(FsmdTransition(source, tuple(guards), f"q{i + 1}", UpdateSet.of(updates)))
    states = tuple(f"q{i}" for i in range(len(transitions) + 1))
    m = Fsmd("m", states, "q0", frozenset("ab"), frozenset("cd"), frozenset("cd"), tuple(transitions))
    store = None if rng.random() < 0.5 else {v: random_int_expr(rng, 2) for v in VARS}
    return m, tuple(transitions), store


def _fold_outcome(fold, *args):
    """The condition and the store, in order, of a fold, or what it raised."""
    pt = _machine_outcome(fold, *args)
    return pt if isinstance(pt[0], type) else (pt.condition, list(pt.transform.items()))


def _fold_agrees_with_the_reference(case: int):
    m, path, store = _fold_case(case)
    entry = None if store is None else dict(store)
    expected = _fold_outcome(_reference.path_transformation, m, path, store)
    assert _fold_outcome(path_transformation, m, path, store) == expected, case
    assert store == entry  # the entry store is not changed
    for step in path:  # each step alone, from the identity store
        identity = fresh_store(m)
        assert _machine_outcome(apply_update_set, step.updates, identity) == \
            _machine_outcome(_reference.apply_update_set, step.updates, identity), case
    return expected


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_the_fold_agrees_with_step_by_step_updates(case):
    _fold_agrees_with_the_reference(case)


def test_the_differential_fold_cases_reach_swaps_and_every_error():
    ends, swaps = set(), 0
    for case in range(300):
        outcome = _fold_agrees_with_the_reference(case)
        ends.add(outcome[0].__name__ if isinstance(outcome[0], type) else "folded")
        m, path, _ = _fold_case(case)
        swaps += any(len(t.updates) > 1 and all(type(a.expr) is ex.Var for a in t.updates) for t in path)
    assert ends == {"folded", "UnknownVariable", "BrokenPath"} and swaps > 50


def _graph_machine(rng: random.Random) -> Fsmd:
    """Up to seven states with up to three transitions each to any state, so
    that cycles nest and overlap, some states are unreachable and some terminal."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 7)))
    transitions = []
    for s in states:
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            guards = (random_bool_expr(rng, 1),) if rng.random() < 0.7 else ()
            updates = [(t, random_int_expr(rng, 1)) for t in rng.sample(("c", "d"), rng.randint(0, 2))]
            transitions.append(FsmdTransition(s, guards, rng.choice(states), UpdateSet.of(updates)))
    return Fsmd("g", states, "q0", frozenset("ab"), frozenset("cd"), frozenset("cd"), tuple(transitions))


def _cover_agrees_with_the_reference(case: int):
    rng = random.Random(case)
    if rng.random() < 0.5:
        m = _graph_machine(rng)
    else:
        m = compile_program("p", random_program(rng, 3, loops=rng.random() < 0.7), duplicate_tails=rng.random() < 0.3)
    outputs = rng.sample(VARS, rng.randint(0, 3))
    cover = path_cover(m, outputs)
    assert cover[:4] == _reference.path_cover(m, outputs), case
    assert cover.terminal == {c for c in cover.segments if not m.outgoing(c)}, case
    assert cover.live_sorted == {c: tuple(sorted(vs)) for c, vs in cover.live.items()}, case
    return cover


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_the_path_cover_agrees_with_the_reference(case):
    _cover_agrees_with_the_reference(case)


def test_the_differential_covers_are_cyclic_and_acyclic():
    covers = [_cover_agrees_with_the_reference(case) for case in range(300)]
    cyclic = sum(bool(c.cyclic) for c in covers)
    assert 50 < cyclic < 250 and sum(len(c.cyclic) > 2 for c in covers) > 10


def _faulty_machine(case: int) -> Fsmd:
    """A compiled random program's machine with up to three faults injected,
    each of a rule that :func:`validate_fsmd` checks."""
    rng = random.Random(case)
    m = compile_program("m", random_program(rng, 2, loops=True))
    states, reset, outputs, transitions = list(m.states), m.reset, m.outputs, list(m.transitions)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        i = rng.randrange(len(transitions))
        t = transitions[i]
        fault = rng.randrange(11)
        if fault == 0:
            states.append(rng.choice(states))
        elif fault == 1:
            reset = "nowhere"
        elif fault == 2:
            outputs = outputs | {"e"}
        elif fault == 3:
            transitions[i] = t._replace(source="nowhere") if rng.random() < 0.5 else t._replace(target="nowhere")
        elif fault == 4:  # the same guard set, perhaps in another order
            transitions.insert(rng.randrange(len(transitions) + 1), t._replace(guard_set=t.guard_set[::-1]))
        elif fault == 5:
            transitions[i] = t._replace(guard_set=(*t.guard_set, random_int_expr(rng, 1)))
        elif fault == 6:
            transitions[i] = t._replace(guard_set=(*t.guard_set, ex.Rel("<", ex.Var("e"), ex.Var("a"))))
        else:
            target = rng.choice(("a", "b", "c", "d"))  # a and b are inputs
            term = (ex.Var("e"), random_bool_expr(rng, 1), ex.add(ex.Var(rng.choice(VARS)), ex.Rel("<", X, Y)),
                    random_int_expr(rng, 2))[fault - 7]
            kept = [(a.target, a.expr) for a in t.updates if a.target != target]
            transitions[i] = t._replace(updates=UpdateSet.of([*kept, (target, term)]))
    return Fsmd(m.name, tuple(states), reset, m.inputs, m.storage, outputs, tuple(transitions))


def _validation_agrees_with_the_reference(case: int):
    m = _faulty_machine(case)
    expected = _machine_outcome(_reference.validate_fsmd, m)
    got = _machine_outcome(validate_fsmd, m)
    assert got == expected, case
    if isinstance(expected, list):
        assert [str(v) for v in got] == [str(v) for v in expected], case
    return expected


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_validation_agrees_with_the_reference(case):
    _validation_agrees_with_the_reference(case)


def test_the_differential_faults_break_every_rule():
    rules = set()
    for case in range(300):
        outcome = _validation_agrees_with_the_reference(case)
        rules |= {v.rule for v in outcome} if isinstance(outcome, list) else {"raised"}
    assert rules == {"DuplicateName", "UnknownState", "UnknownVariable", "NondeterministicF", "IllSortedGuard",
                     "IllegalTarget", "IllSortedUpdate"}
