import copy
import gc
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from presto import expr as ex
from presto.dsl import parse_expression
from presto.fsmd import Fsmd, fresh_store

from _gen import VARS, random_env, random_expr, random_int_expr

A, B, C, X, Y = (ex.Var(n) for n in "abcxy")


def env(values=None, functions=None):
    return values or {}, functions or {}


class TestEvaluate:
    def test_additive_identity(self):
        assert ex.evaluate(ex.add(ex.IntConst(0), X), *env({"x": 7})) == 7

    def test_affine(self):
        assert ex.evaluate(ex.add(X, ex.IntConst(3)), *env({"x": 2})) == 5

    def test_relation_over_product(self):
        e = ex.Rel(">", ex.mul(A, B), ex.IntConst(10))
        assert ex.evaluate(e, *env({"a": 3, "b": 4})) is True

    def test_unbounded_integers(self):
        big = ex.mul(ex.IntConst(10**30), ex.IntConst(10**30))
        assert ex.evaluate(big, *env()) == 10**60

    def test_unbound_variable(self):
        with pytest.raises(ex.UnboundVariable):
            ex.evaluate(X, *env())

    def test_uninterpreted_symbol(self):
        with pytest.raises(ex.UninterpretedSymbol):
            ex.evaluate(ex.Apply("f", (X,)), *env({"x": 1}))

    def test_sort_mismatch(self):
        bad = ex.Arith("+", (ex.Rel("=", X, X), X))
        with pytest.raises(ex.SortMismatch):
            ex.evaluate(bad, *env({"x": 1}))
        with pytest.raises(ex.SortMismatch):
            ex.sort_of(bad)


class TestSubstitute:
    def test_empty(self):
        e = ex.add(X, Y)
        assert ex.substitute(e, {}) == e

    def test_composition(self):
        e = ex.Apply("f", (X,))
        out = ex.substitute(e, {"x": ex.Apply("g", (Y,))})
        assert out == ex.Apply("f", (ex.Apply("g", (Y,)),))

    def test_swap_is_simultaneous(self):
        e = ex.add(X, Y)
        swapped = ex.substitute(e, {"x": Y, "y": X})
        assert swapped == ex.add(Y, X)
        rng = random.Random(7)
        for _ in range(50):
            vals = {"x": rng.randint(-9, 9), "y": rng.randint(-9, 9)}
            assert ex.evaluate(swapped, *env(vals)) == vals["y"] + vals["x"]

    def test_bool_replacement_rejected(self):
        with pytest.raises(ex.SortMismatch):
            ex.substitute(X, {"x": ex.TRUE})


class TestNormalize:
    def test_commutativity(self):
        assert ex.normalize(ex.add(A, B)) == ex.normalize(ex.add(B, A))

    def test_constant_folding(self):
        assert ex.normalize(ex.add(ex.IntConst(2), ex.IntConst(3))) == ex.IntConst(5)

    def test_x_minus_x_keeps_its_terms(self):
        e = ex.sub(X, X)
        n = ex.normalize(e)
        assert n != ex.IntConst(0)
        # brute-force evaluation oracle over a small range
        for v in range(-5, 6):
            assert ex.evaluate(n, *env({"x": v})) == ex.evaluate(e, *env({"x": v})) == 0

    def test_like_terms_stay_apart(self):
        twice = ex.mul(ex.IntConst(2), X)
        e = ex.add(twice, X)
        n = ex.normalize(e)
        assert type(n) is ex.Arith and n.op == "+" and sorted(n.args, key=str) == [twice, X]
        # equal on every value, yet not shown so: a false result is inconclusive
        assert not ex.structurally_equivalent(e, ex.mul(ex.IntConst(3), X))
        for v in range(-5, 6):
            assert ex.evaluate(n, *env({"x": v})) == 3 * v

    def test_double_negation(self):
        assert ex.normalize(ex.neg(ex.neg(X))) == X
        assert ex.normalize(ex.BoolOp("not", (ex.BoolOp("not", (ex.Rel("=", X, Y),)),))) == ex.Rel("=", X, Y)

    def test_negated_relation_complements(self):
        assert ex.normalize(ex.BoolOp("not", (ex.Rel("<", X, Y),))) == ex.Rel(">=", X, Y)

    def test_relations_are_oriented(self):
        zero = ex.IntConst(0)
        assert ex.normalize(ex.Rel(">", X, zero)) is ex.normalize(ex.Rel("<", zero, X)) is ex.Rel("<", zero, X)
        assert ex.normalize(ex.Rel("<=", Y, X)) is ex.Rel(">=", X, Y)
        assert ex.normalize(ex.Rel("=", Y, X)) is ex.normalize(ex.Rel("=", X, Y)) is ex.Rel("=", X, Y)
        assert ex.normalize(ex.Rel("!=", Y, X)) is ex.Rel("!=", X, Y)
        # a complemented relation stays oriented, so normalizing again changes nothing
        negated = ex.normalize(ex.BoolOp("not", (ex.Rel(">", X, zero),)))
        assert negated is ex.Rel(">=", zero, X) and ex.normalize(negated) is negated

    def test_mul_absorbs_zero(self):
        assert ex.normalize(ex.mul(ex.IntConst(0), ex.Apply("f", (X,)))) == ex.IntConst(0)


class TestStructuralEquivalence:
    def test_commutative_pair(self):
        assert ex.structurally_equivalent(ex.add(A, B), ex.add(B, A))

    def test_commutative_over_applications(self):
        f, g = ex.Apply("f", (X,)), ex.Apply("g", (Y,))
        assert ex.structurally_equivalent(ex.add(f, g), ex.add(g, f))

    def test_composition_order_differs(self):
        fg = ex.Apply("f", (ex.Apply("g", (X,)),))
        gf = ex.Apply("g", (ex.Apply("f", (X,)),))
        assert not ex.structurally_equivalent(fg, gf)
        # witness interpretation: f adds one, g doubles
        witness = env({"x": 1}, {"f": lambda v: v + 1, "g": lambda v: 2 * v})
        assert ex.evaluate(fg, *witness) == 3
        assert ex.evaluate(gf, *witness) == 4

    def test_sort_mismatch(self):
        with pytest.raises(ex.SortMismatch):
            ex.structurally_equivalent(X, ex.TRUE)


class TestNegateGuard:
    def test_relation_complemented(self):
        assert ex.negate_guard(ex.Rel("!=", X, ex.IntConst(0))) == ex.Rel("=", X, ex.IntConst(0))

    def test_compound_wrapped(self):
        g = ex.BoolOp("and", (ex.Rel(">", X, Y), ex.Rel("<", X, ex.IntConst(9))))
        assert ex.negate_guard(g) == ex.BoolOp("not", (g,))

    def test_double_negation_unwraps(self):
        g = ex.BoolOp("and", (ex.Rel(">", X, Y), ex.TRUE))
        assert ex.negate_guard(ex.negate_guard(g)) == g


class TestApplyChain:
    def test_nested_postorder(self):
        e = ex.Apply("outer", (ex.Apply("inner", (X,)), ex.Apply("side", (Y,))))
        assert ex.apply_chain(e) == ("inner", "side", "outer")

    def test_no_applications(self):
        assert ex.apply_chain(ex.add(X, Y)) == ()


# Property suites (randomized, bounded): depth <= 6, at most four variables.
_expr_strategy = st.integers(min_value=0, max_value=10**9).map(
    lambda s: random_expr(random.Random(s), depth=6)
)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_normalize_preserves_evaluation(seed):
    rng = random.Random(seed)
    e = random_expr(rng, depth=6)
    values, functions = random_env(rng)
    assert ex.evaluate(ex.normalize(e), values, functions) == ex.evaluate(e, values, functions)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_normalize_idempotent(seed):
    e = random_expr(random.Random(seed), depth=6)
    once = ex.normalize(e)
    assert ex.normalize(once) == once


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_substitute_then_evaluate_composes(seed):
    rng = random.Random(seed)
    e = random_expr(rng, depth=5)
    bindings = {v: random_int_expr(rng, 3) for v in ("a", "b")}
    values, functions = random_env(rng)
    composed = dict(values)
    for v, repl in bindings.items():
        composed[v] = ex.evaluate(repl, values, functions)
    lhs = ex.evaluate(ex.substitute(e, bindings), values, functions)
    rhs = ex.evaluate(e, composed, functions)
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_structural_equivalence_is_reflexive_and_stable(seed):
    rng = random.Random(seed)
    e = random_expr(rng, depth=5)
    assert ex.structurally_equivalent(e, e)
    assert ex.structurally_equivalent(e, ex.normalize(e))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_printer_parser_round_trip(seed):
    # Parsing what the printer wrote reaches a fixpoint after one pass and
    # never changes the normal form (associativity of printed chains is
    # the only slack between the trees).
    e = random_expr(random.Random(seed), depth=5)
    once = parse_expression(ex.to_text(e))
    assert parse_expression(ex.to_text(once)) == once
    assert ex.normalize(once) == ex.normalize(e)


# The walks against plain recursive references.  The references recurse
# over the public fields and cache nothing; the normal-form one reuses the
# one-node rewrite ``_norm_node``, so it checks the walk, not the rules.
def _operands(e):
    return (e.lhs, e.rhs) if type(e) is ex.Rel else getattr(e, "args", ())


def _rebuilt(e, kids):
    if type(e) is ex.Rel:
        return ex.Rel(e.op, *kids)
    return type(e)(e.symbol if type(e) is ex.Apply else e.op, tuple(kids))


def _ref_substitute(e, bindings):
    if type(e) is ex.Var:
        return bindings.get(e.name, e)
    kids = _operands(e)
    return _rebuilt(e, [_ref_substitute(k, bindings) for k in kids]) if kids else e


def _ref_normalize(e):
    return ex._norm_node(e, [_ref_normalize(k) for k in _operands(e)])


def _ref_key(e):
    cls = type(e)
    if cls in (ex.IntConst, ex.BoolConst):
        return (0, int(cls is ex.BoolConst), int(e.value))
    if cls is ex.Var:
        return (1, e.name)
    if cls is ex.Rel:
        return (4, e.op, _ref_key(e.lhs), _ref_key(e.rhs))
    rank, head = (2, e.symbol) if cls is ex.Apply else (3 if cls is ex.Arith else 5, e.op)
    return (rank, head, len(e.args), tuple(map(_ref_key, e.args)))


def _as_bool(e):
    return e if ex.sort_of(e) == ex.BOOL else ex.Rel("<", e, ex.IntConst(0))


def _subterms(e):
    out = [e]
    for k in _operands(e):
        out += _subterms(k)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_walks_agree_with_recursive_references(seed):
    rng = random.Random(seed)
    e = random_expr(rng, depth=6)
    subterms = _subterms(e)
    # A root that holds one subterm twice, so that every walk meets a node
    # it has already finished; and cached keys and normal forms on random
    # subterms, so that the walks stop at a cache partway down.
    root = ex.BoolOp("and", (_as_bool(e), _as_bool(rng.choice(subterms))))
    warm = rng.sample(subterms, rng.randint(0, len(subterms)))
    for t in warm[: len(warm) // 2]:
        ex._key(t)
    assert ex._key(root) == _ref_key(root)
    for t in warm:
        ex.normalize(t)
    assert ex.normalize(root) is _ref_normalize(root)
    bindings = {v: random_int_expr(rng, 3) for v in rng.sample(VARS, rng.randint(0, len(VARS)))}
    bindings["unused"] = ex.TRUE  # a binding of no free variable is never read
    assert ex.substitute(root, bindings) is _ref_substitute(root, bindings)


# Hash-consing: equal terms are one object, built once and shared.
@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_equal_builds_are_one_object(seed):
    e = random_expr(random.Random(seed), depth=6)
    assert random_expr(random.Random(seed), depth=6) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e


class TestHashConsing:
    def test_constructors_share_nodes(self):
        assert ex.Apply("f", [X, ex.IntConst(1)]) is ex.Apply("f", (X, ex.IntConst(1)))
        assert ex.Rel("<", X, Y) is ex.Rel("<", X, Y)
        assert ex.Rel("<", X, Y) is not ex.Rel("<", Y, X)
        assert ex.IntConst(1) is not ex.BoolConst(True)

    def test_terms_are_immutable(self):
        with pytest.raises(AttributeError):
            X.name = "y"
        with pytest.raises(AttributeError):
            del ex.Apply("f", (X,)).args
        assert X.name == "x"

    def test_invalid_operators_still_rejected(self):
        with pytest.raises(ValueError):
            ex.Arith("/", (X, Y))
        with pytest.raises(ValueError):
            ex.Arith("neg", (X, Y))
        with pytest.raises(ValueError):
            ex.BoolOp("and", ())
        with pytest.raises(ValueError):
            ex.Rel("=>", X, Y)
        with pytest.raises(TypeError):
            ex.Apply("f", (1,))

    @pytest.mark.parametrize("build, error", [
        (lambda: ex.Arith("/", (X, Y)), "ValueError: unknown Arith operator '/'"),
        (lambda: ex.Arith(None, (X, Y)), "ValueError: unknown Arith operator None"),
        (lambda: ex.Arith("neg", (X, Y)), "ValueError: 'neg' takes 1 operand(s), got 2"),
        (lambda: ex.Arith("-", (X,)), "ValueError: '-' takes 2 operand(s), got 1"),
        (lambda: ex.Arith("+", (X,)), "ValueError: '+' takes at least 2 operand(s), got 1"),
        (lambda: ex.BoolOp("and", ()), "ValueError: 'and' takes at least 1 operand(s), got 0"),
        (lambda: ex.BoolOp("not", (ex.TRUE, ex.TRUE)), "ValueError: 'not' takes 1 operand(s), got 2"),
        (lambda: ex.BoolOp("xor", (ex.TRUE,)), "ValueError: unknown BoolOp operator 'xor'"),
        (lambda: ex.Rel("=>", X, Y), "ValueError: unknown Rel operator '=>'"),
        (lambda: ex.Rel("<", X, 1), "TypeError: not an expression: 1"),
        (lambda: ex.Apply("f", (1,)), "TypeError: not an expression: 1"),
        (lambda: ex.Arith("*", (X, "y")), "TypeError: not an expression: 'y'"),
        # A badly sorted operand does not stop the check of the ones after it.
        (lambda: ex.Arith("+", (ex.TRUE, 1)), "TypeError: not an expression: 1"),
        (lambda: ex.Rel("<", ex.TRUE, "x"), "TypeError: not an expression: 'x'"),
        (lambda: ex.IntConst("a"), "TypeError: 'str' object cannot be interpreted as an integer"),
    ])
    def test_constructor_errors_are_pinned(self, build, error):
        with pytest.raises((ValueError, TypeError)) as err:
            build()
        assert f"{err.type.__name__}: {err.value}" == error

    def test_rebuilding_a_term_returns_the_same_node(self):
        f = ex.Apply("f", (X, ex.IntConst(2)))
        rel = ex.Rel("<", ex.Arith("+", (f, Y)), ex.IntConst(0))
        guard = ex.BoolOp("and", (rel, ex.BoolConst(True), ex.Rel("=", X, X)))
        for term in (ex.IntConst(7), ex.BoolConst(False), ex.Var("v"), ex.Apply("g", ()), f, rel, guard,
                     ex.Arith("neg", (X,)), ex.BoolOp("not", (rel,))):
            again = type(term)(*(getattr(term, name) for name in term._fields))
            assert again is term, term
            assert ex.substitute(term, {"x": X}) is term
        assert rel.lhs.args[0] is f and ex.free_vars(guard) == {"x", "y"} and ex.free_vars(ex.Var("v")) == {"v"}
        assert [ex.sort_of(t) for t in (f, rel, guard, ex.Apply("g", ()))] == [ex.INT, ex.BOOL, ex.BOOL, ex.INT]
        assert ex.Arith("+", [X, Y]) is ex.Arith("+", (X, Y))  # operands in a list are interned as a tuple
        with pytest.raises(AttributeError, match="^Rel terms are immutable$"):
            rel.op = ">"

    def test_ill_sorted_terms_raise_everywhere(self):
        bad = ex.Apply("f", (ex.Rel("=", X, Y),))
        for e in (bad, ex.BoolOp("not", (X,)), ex.Arith("+", (X, ex.TRUE)), ex.Rel("<", ex.TRUE, X)):
            with pytest.raises(ex.SortMismatch):
                ex.sort_of(e)
            with pytest.raises(ex.SortMismatch):
                ex.normalize(e)
            with pytest.raises(ex.SortMismatch):
                ex.substitute(X, {"x": e})
            with pytest.raises(ex.SortMismatch):
                ex.evaluate(e, *env({"x": 1, "y": 2}, {"f": abs}))

    @pytest.mark.parametrize("call, error", [
        (lambda: ex.normalize(1), "TypeError: not an expression: 1"),
        (lambda: ex.normalize(ex.Apply("f", (ex.Rel("=", X, Y),))),
         "SortMismatch: operand of 'f' is not int-sorted: x = y"),
        (lambda: ex.normalize(ex.BoolOp("not", (X,))), "SortMismatch: operand of 'not' is not bool-sorted: x"),
        (lambda: ex.normalize(ex.add(ex.Apply("f", (ex.TRUE,)), X)), "SortMismatch: operand of 'f' is not int-sorted: true"),
        (lambda: ex.substitute(X, {"x": 1}), "TypeError: not an expression: 1"),
        (lambda: ex.substitute(ex.add(X, Y), {"x": ex.Rel("<", ex.TRUE, X)}),
         "SortMismatch: operand of '<' is not int-sorted: true"),
        (lambda: ex.substitute(ex.add(X, Y), {"x": ex.TRUE}), "SortMismatch: replacement for 'x' is not integer-sorted: true"),
        (lambda: ex.substitute(X, {"x": ex.Rel("=", X, Y)}), "SortMismatch: replacement for 'x' is not integer-sorted: x = y"),
    ])
    def test_walk_errors_are_pinned(self, call, error):
        with pytest.raises((TypeError, ex.SortMismatch)) as err:
            call()
        assert f"{err.type.__name__}: {err.value}" == error

    def test_unreferenced_terms_leave_the_table(self):
        # Terms held only by cyclic garbage of earlier tests would leave the
        # table whenever a collection ran in between: free them first, and
        # keep the collector off so the node is shown to go without one.
        gc.collect()
        gc.disable()
        try:
            size = len(ex._table)
            e = ex.Apply("fresh-symbol", (ex.Var("fresh-variable"),))
            assert len(ex._table) == size + 2
            del e
            assert len(ex._table) == size
        finally:
            gc.enable()


DEEP = 5000


def _apply_nest():
    e = X
    for _ in range(DEEP):
        e = ex.Apply("f", (e,))
    return e


def _ring_nest():
    e = X
    for i in range(DEEP):
        e = ex.Arith("+", (e, ex.IntConst(i))) if i % 2 else ex.Arith("*", (ex.IntConst(2), e))
    return e


@pytest.mark.parametrize("build", [_apply_nest, _ring_nest])
def test_deep_terms_stay_within_the_recursion_limit(build):
    e = build()
    assert ex.free_vars(e) == {"x"}
    assert hash(e) == hash(build())
    assert ex.to_text(e).count("x") == 1
    swapped = ex.substitute(e, {"x": ex.Apply("g", (Y,))})
    assert ex.free_vars(swapped) == {"y"}
    assert ex.substitute(swapped, {"y": X}) is ex.substitute(e, {"x": ex.Apply("g", (X,))})
    n = ex.normalize(e)
    assert ex.normalize(n) is n
    assert ex.normalize(ex.normalize(swapped)) is ex.normalize(swapped)


@pytest.mark.parametrize("build", [_apply_nest, _ring_nest])
def test_deep_terms_evaluate_without_recursion(build):
    e = build()
    expected = 3
    for i in range(DEEP):
        if build is _apply_nest:
            expected = expected + 1
        else:
            expected = expected + i if i % 2 else 2 * expected
    assert ex.evaluate(e, *env({"x": 3}, {"f": lambda v: v + 1})) == expected
    assert ex.evaluate(ex.Rel("<", ex.IntConst(0), e), *env({"x": 3}, {"f": lambda v: v + 1})) is (expected > 0)


def test_substitute_reads_only_the_bindings_of_free_variables():
    e = ex.add(X, ex.IntConst(1))
    assert ex.substitute(e, {"y": ex.TRUE}) is e  # an ill-sorted binding nobody reads is not checked
    assert ex.substitute(e, {"y": Y, "x": ex.Var("z")}) is ex.add(ex.Var("z"), ex.IntConst(1))
    with pytest.raises(ex.SortMismatch):
        ex.substitute(e, {"x": ex.TRUE, "y": Y})
    big = ex.Apply("g", (ex.Apply("f", (Y,)), X))
    out = ex.substitute(big, {"x": A})
    assert out.args[0] is big.args[0]  # the subterm without x is kept, not rebuilt


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_substitute_skips_the_bindings_of_a_variable_to_itself(seed):
    # fresh_store maps every variable to its own Var; through it a term comes
    # back as itself, and a store that mixes such bindings with real ones
    # substitutes as the real ones alone.
    rng = random.Random(seed)
    e = random_expr(rng, 4)
    store = fresh_store(Fsmd("m", ("q0",), "q0", frozenset(VARS), frozenset(), frozenset(), ()))
    assert ex.substitute(e, store) is e
    real = {v: random_int_expr(rng, 2) for v in rng.sample(VARS, rng.randint(1, len(VARS)))}
    assert ex.substitute(e, {**store, **real}) is ex.substitute(e, real)


def test_substitute_costs_do_not_grow_with_the_store():
    # Folding a 20 000-step chain through a 20 000-variable store makes one
    # substitution per step; checking every binding on every call would
    # take 4 * 10^8 sort lookups.  The bound is loose.
    n = 20_000
    store = {f"v{i}": ex.Var(f"v{i}") for i in range(n + 1)}
    start = time.perf_counter()
    for i in range(1, n + 1):
        store[f"v{i}"] = ex.substitute(ex.Apply("f", (ex.Var(f"v{i - 1}"),)), store)
    assert time.perf_counter() - start < 5
    assert ex.apply_chain(store[f"v{n}"]) == ("f",) * n


def test_a_relation_between_a_term_and_itself_folds():
    fx = ex.Apply("f", (X,))
    for op in ex.REL_OPS:
        expected = ex.TRUE if op in ("=", "<=", ">=") else ex.FALSE
        assert ex.normalize(ex.Rel(op, fx, ex.add(ex.IntConst(0), fx))) is expected, op
        assert ex.normalize(ex.BoolOp("not", (ex.Rel(op, fx, fx),))) is ex.negate_guard(expected), op
