"""Differential suite: compiled evaluation against a reference tree-walker.

``reference`` gives a term its value by the definition: operands left to
right (every operand, also of ``and``/``or``), then the node.  It walks
with an explicit stack so that it takes the 5000-deep nests too.
"""

import gc
import io
import math
import operator
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from presto import cli, corpus
from presto import expr as ex

from _gen import SYMBOLS, VARS, random_bool_expr, random_env, random_expr, random_int_expr

_OPS = {"+": sum, "*": math.prod, "-": lambda a: a[0] - a[1], "neg": lambda a: -a[0],
        "and": all, "or": any, "not": lambda a: not a[0], "=": operator.eq, "!=": operator.ne,
        "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _operands(e):
    return (e.lhs, e.rhs) if isinstance(e, ex.Rel) else getattr(e, "args", ())


def reference(root: ex.Expr, values, functions):
    ex.sort_of(root)
    results, todo = [], [(root, False)]
    while todo:
        node, ready = todo.pop()
        kids = _operands(node)
        if kids and not ready:
            todo += [(node, True)] + [(k, False) for k in reversed(kids)]
            continue
        args = results[len(results) - len(kids):]
        del results[len(results) - len(kids):]
        if isinstance(node, (ex.IntConst, ex.BoolConst)):
            results.append(node.value)
        elif isinstance(node, ex.Var):
            if node.name not in values:
                raise ex.UnboundVariable(node.name)
            results.append(values[node.name])
        elif isinstance(node, ex.Apply):
            if node.symbol not in functions:
                raise ex.UninterpretedSymbol(node.symbol)
            results.append(int(functions[node.symbol](*args)))
        else:
            results.append(_OPS[node.op](*args) if isinstance(node, ex.Rel) else _OPS[node.op](args))
    return results[0]


def outcome(run, e, env):
    try:
        return "value", run(e, *env)
    except ex.ExprError as err:
        return type(err).__name__, str(err)


def _variant_env(rng: random.Random) -> tuple[dict, dict]:
    """Random values and interpretations, sometimes missing a variable or a
    symbol, or with an interpretation that returns ``True`` or a numeric string."""
    values, functions = random_env(rng)
    if rng.random() < 0.25:
        del values[rng.choice(VARS)]
    if rng.random() < 0.25:
        del functions[rng.choice(SYMBOLS)]
    if rng.random() < 0.25:
        functions[rng.choice(SYMBOLS)] = lambda *args: True
    if rng.random() < 0.25:
        functions[rng.choice(SYMBOLS)] = lambda *args: str(sum(args) % 7)
    return values, functions


def _ill_sorted(rng: random.Random) -> ex.Expr:
    b, i = random_bool_expr(rng, 2), random_int_expr(rng, 2)
    return rng.choice([ex.Arith("+", (i, b)), ex.Apply("F", (b,)), ex.Rel("<", b, i), ex.BoolOp("and", (b, i)),
                       ex.BoolOp("not", (ex.Arith("neg", (b,)),))])


@pytest.mark.parametrize("seed", range(6))
def test_compiled_evaluation_matches_the_reference(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(800):
        e = _ill_sorted(rng) if rng.random() < 0.05 else random_expr(rng)
        env = _variant_env(rng)
        expected = outcome(reference, e, env)
        assert outcome(ex.evaluate, e, env) == expected, e
        assert outcome(ex.evaluate, e, env) == expected, e  # a failed compile leaves nothing behind
        kinds.add(expected[0])
    assert kinds == {"value", "UnboundVariable", "UninterpretedSymbol", "SortMismatch"}


def test_every_operand_of_and_and_or_is_evaluated():
    x_pos = ex.Rel(">", ex.Var("x"), ex.IntConst(0))
    unbound = ex.Rel("<", ex.Var("nowhere"), ex.IntConst(0))
    missing = ex.Rel("=", ex.Apply("nobody", (ex.Var("x"),)), ex.IntConst(0))
    for op, first in (("and", ex.FALSE), ("or", ex.TRUE), ("and", ex.negate_guard(x_pos)), ("or", x_pos)):
        for later, error in ((unbound, ex.UnboundVariable), (missing, ex.UninterpretedSymbol)):
            e = ex.BoolOp(op, (first, later))
            env = ({"x": 4}, ex.NO_FUNCTIONS)
            with pytest.raises(error):
                ex.evaluate(e, *env)
            assert outcome(ex.evaluate, e, env) == outcome(reference, e, env)


def test_interpretations_are_coerced_to_integers():
    e = ex.add(ex.Apply("F", (ex.Var("a"),)), ex.Apply("G", (ex.Var("a"), ex.IntConst(2))))
    env = ({"a": 5}, {"F": lambda v: True, "G": lambda v, w: str(v * w)})
    assert ex.evaluate(e, *env) == reference(e, *env) == 11


def test_ill_sorted_terms_raise_on_every_call():
    bad = ex.Apply("F", (ex.Rel("=", ex.Var("a"), ex.IntConst(1)),))
    env = ({"a": 1}, {"F": abs})
    for _ in range(3):
        assert outcome(ex.evaluate, bad, env) == outcome(reference, bad, env)
        assert outcome(ex.evaluate, bad, env)[0] == "SortMismatch"


def test_nullary_applications_are_evaluated():
    k = ex.Apply("k", ())
    nest = k
    for _ in range(100):  # above the depth where closures stop calling each other
        nest = ex.Apply("f", (nest,))
    env = ({"x": 2}, {"k": lambda: 5, "f": lambda v: v + 1})
    for term in (k, ex.add(k, ex.Var("x")), ex.Apply("f", (k,)), nest, ex.Rel("<", nest, k)):
        assert outcome(ex.evaluate, term, env) == outcome(reference, term, env)
    assert ex.evaluate(k, *env) == 5
    assert ex.evaluate(nest, *env) == 105
    missing = ({"x": 2}, {"f": lambda v: v + 1})
    assert outcome(ex.evaluate, nest, missing) == outcome(reference, nest, missing) == (
        "UninterpretedSymbol", "no interpretation for function symbol 'k'")


@pytest.mark.parametrize("depth", [5000, 65, 64, 63])
def test_deep_apply_nests_match_the_reference(depth):
    e = ex.Var("x")
    for _ in range(depth):
        e = ex.Apply("f", (e,))
    wide = ex.add(e, ex.Apply("g", (e, ex.Var("y"))))  # shares the nest under a higher node
    env = ({"x": 3, "y": 1}, {"f": lambda v: v + 1, "g": lambda v, w: v * w})
    for term in (e, wide, ex.Rel("<", ex.IntConst(0), wide)):
        assert outcome(ex.evaluate, term, env) == outcome(reference, term, env)
    assert ex.evaluate(wide, *env) == 2 * (3 + depth)
    missing = ({"x": 3}, {"f": lambda v: v + 1, "g": lambda v, w: v * w})
    assert outcome(ex.evaluate, wide, missing) == outcome(reference, wide, missing) == (
        "UnboundVariable", "unbound variable 'y'")
    # Two failing operands: the left one's error is raised, as the reference does.
    both = ex.add(ex.Apply("g", (e, ex.Var("y"))), ex.Apply("h", (e,)))
    assert outcome(ex.evaluate, both, missing) == outcome(reference, both, missing) == (
        "UnboundVariable", "unbound variable 'y'")
    swapped = ex.add(ex.Apply("h", (e,)), ex.Apply("g", (e, ex.Var("y"))))
    assert outcome(ex.evaluate, swapped, missing) == outcome(reference, swapped, missing) == (
        "UninterpretedSymbol", "no interpretation for function symbol 'h'")


def test_a_constant_gets_a_closure_only_where_one_is_called():
    # A binary operator holds its integer-constant operands' values.  Every
    # other place a constant can sit calls its closure: the root, an n-ary
    # or unary operator, an application and a node above the depth where
    # closures call each other.  The constants are odd values, so that no
    # other term compiled them first.
    x = ex.Var("x")
    nest = x
    for _ in range(70):
        nest = ex.Apply("f", (nest,))
    env = ({"x": 3}, {"f": lambda v: v + 1, "h": lambda v: 2 * v})
    held = [ex.IntConst(v) for v in (80_001, 80_002, 80_003)]
    called = [ex.IntConst(v) for v in (80_011, 80_012, 80_013, 80_014, 80_015)]
    terms = [
        ex.sub(ex.Apply("h", (x,)), held[0]), ex.Rel("<", held[1], x), ex.add(held[2], held[2]),
        ex.add(x, called[0], x), ex.neg(called[1]), ex.Apply("h", (called[2],)), called[3], ex.add(nest, called[4]),
    ]
    for term in terms:
        assert outcome(ex.evaluate, term, env) == outcome(reference, term, env)
    assert [c._fn is None for c in held] == [True] * 3
    assert [c._fn is None for c in called] == [False] * 5
    assert ex.evaluate(ex.Rel(">", held[2], held[1]), *env) is True and held[2]._fn is None
    assert ex.evaluate(held[0], *env) == 80_001 and held[0]._fn is not None  # compiled when it becomes a root


def test_compiled_terms_leave_the_table_without_a_collection():
    # A closure holds its children's closures (a deep node's, its children),
    # never its own node, so dropping a term frees it by reference counts.
    env = ({"leak-x": 1}, {"leak-f": lambda v: v + 1})
    gc.collect()
    gc.disable()
    try:
        size = len(ex._table)
        e = ex.Var("leak-x")
        for _ in range(100):
            e = ex.Apply("leak-f", (e,))
        assert ex.evaluate(ex.add(e, ex.IntConst(7)), *env) == 108
        assert len(ex._table) > size
        del e
        assert len(ex._table) == size
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", range(4))
def test_random_terms_above_the_closure_depth_match_the_reference(seed):
    # Random terms hung under and over nests higher than the depth where
    # closures stop calling each other: a deep node builds the closures of
    # the subterms it calls only when it is first called, and a subterm that
    # another term compiled first is shared.
    rng = random.Random(seed)
    kinds = set()
    for _ in range(60):
        e = random_int_expr(rng)
        for _ in range(rng.randint(60, 70)):
            e = ex.Apply(rng.choice(SYMBOLS), (e,)) if rng.random() < 0.7 else ex.add(e, random_int_expr(rng, 2))
        for term in (e, ex.Rel("<", random_int_expr(rng, 2), e), ex.add(random_int_expr(rng), e, e)):
            env = _variant_env(rng)
            if rng.random() < 0.5:
                ex.compiled(rng.choice(term._kids))  # a subterm compiled first, as another root
            expected = outcome(reference, term, env)
            assert outcome(ex.evaluate, term, env) == expected
            assert outcome(ex.evaluate, term, env) == expected
            kinds.add(expected[0])
    assert {"value", "UnboundVariable", "UninterpretedSymbol"} <= kinds


def test_a_command_compiles_each_term_at_most_once_and_keeps_none(monkeypatch, tmp_path):
    # Every closure is built through a class's _closure or through _deep;
    # counting those calls by node shows that no node is compiled twice in a
    # command.  The intern table then holds as many terms as before the
    # commands, so no closure outlives its command by keeping a term alive.
    # The net in tmp_path has names no other test uses, so its terms are
    # new to the table and are all compiled in the command, the nest above
    # the depth where closures stop calling each other among them.
    nest = "once-f(" * 70 + "once-a" + ")" * 70
    (tmp_path / "once.pres").write_text("net once { place once-a marked; place once-b;\n"
                                        f"  transition once-t {{ pre once-a; post once-b; fn {nest} + 1; }} }}\n")
    (tmp_path / "once.scn").write_text('scenario once { model left = "once.pres"; inputs { once-a = 2; }\n'
                                       "  interp once-f(x) = 2 * x - 1; }\n")
    built: list[ex.Expr] = []  # holds the nodes, so that no id is reused while counting
    for cls in (ex.IntConst, ex.BoolConst, ex.Var, ex.Apply, ex.Arith, ex.Rel, ex.BoolOp):
        monkeypatch.setattr(cls, "_closure", lambda node, real=cls._closure: built.append(node) or real(node))
    monkeypatch.setattr(ex, "_deep", lambda node, real=ex._deep: built.append(node) or real(node))
    gc.collect()
    terms = len(ex._table)
    for argv in (["simulate", str(tmp_path / "once.scn"), "--schedules", "3"],
                 *([cmd, corpus.scenario_path(name), *rest] for name, cmd, *rest in (
                     ("racy", "simulate", "--schedules", "10"), ("guard_split", "simulate"),
                     ("addthree", "check-pres", "--strategy", "sampled"), ("jammer", "simulate", "--schedules", "4"),
                     ("cardinality", "check-pres"), ("jammer_swapped", "check-fsmd")))):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(argv)
        assert len({id(node) for node in built}) == len(built), argv
        if argv[1].endswith("once.scn"):
            assert len(built) > 64 and ex.Apply("once-f", (ex.Var("once-a"),)) in built
        built.clear()
    gc.collect()
    assert len(ex._table) == terms
