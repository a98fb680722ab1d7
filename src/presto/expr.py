"""Symbolic integer/boolean expressions over named variables.

Terms are immutable trees built from integer constants, variable
references, applications of uninterpreted function symbols, arithmetic
(`+`, `-`, `*`, unary negation), arithmetic relations and boolean
connectives.  All integer arithmetic is unbounded; values never wrap.

Terms are hash-consed: every constructor looks its node up in one weak
intern table, so two structurally equal terms are the same object and
``==``/``hash`` are the identity ones.  A node fixes its sort (``None``
when ill-sorted), free-variable set and height when it is built, and
lazily caches its ordering key, its normal form and its compiled
closure.  A node that nothing refers to leaves the table at once, without
a collection, and takes its caches with it.  All walks use explicit stacks (compiled closures call each
other through the lowest 64 levels of a term only), so term depth is
bounded by memory, not recursion.

Three operations carry the weight of the toolkit:

* :func:`evaluate` gives a term its mathematical value under variable
  values and an :data:`Interpretation` of the uninterpreted symbols, by
  calling the closure :func:`compiled` builds once per node.
* :func:`substitute` performs simultaneous replacement of variables by
  terms, which is how symbolic stores compose updates along a path.
* :func:`normalize` rewrites a term into a canonical form so that two
  data transformations can be compared by plain structural equality:
  constants are folded, commutative operators are flattened and their
  operands sorted under a fixed total order, subtraction becomes
  addition of a negation, double negation vanishes, a relation is
  oriented so that its operands come in term order (``x > 0`` becomes
  ``0 < x``) and a negated relation is replaced by its complement.  Equal normal forms imply
  equal semantics; the converse is not promised for nonlinear or
  uninterpreted terms.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union
from weakref import ref

Value = Union[int, bool]

INT = "int"
BOOL = "bool"

ARITH_OPS = ("+", "-", "*", "neg")
REL_OPS = ("=", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("and", "or", "not")

COMPLEMENT = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}  # same relation, operands swapped

_REL_FUNCS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class ExprError(Exception):
    """Base class for expression-level failures."""


class SortMismatch(ExprError):
    """An operand has the wrong sort (integer where boolean is needed, or vice versa)."""


class UnboundVariable(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class UninterpretedSymbol(ExprError):
    def __init__(self, name: str):
        super().__init__(f"no interpretation for function symbol {name!r}")
        self.name = name


class _Ref(ref):
    """Weak reference to an interned node that remembers the node's table key."""

    __slots__ = ("key",)


# The intern table: structural key -> weak reference to the live node.
# Children are interned before their parent, so a key holds them by
# identity and a lookup costs O(arity).  A dead node's entry is dropped by
# its reference's callback unless a newer node already took the key.
_table: dict[tuple, _Ref] = {}


def _drop(dead: _Ref, table: dict = _table) -> None:
    key = dead.key
    entry = table.pop(key, dead)
    if entry is not dead:  # a newer node took the key: put it back
        table[key] = entry


_NO_VARS: frozenset[str] = frozenset()
_SAME = True  # ``_nf`` marker for a node that is its own normal form (avoids a self-cycle)
_new = object.__new__


class Expr:
    """Base class of the interned term nodes; build them with the subclass constructors.

    Nodes are shared, so assignment is refused.  A constructor writes a new
    node's slots while it is still an instance of its class's writable twin
    (see :func:`_writable`); the lazy caches are written later through the
    setters of their slots.  Besides its fields a node holds its children,
    its sort, its free variables, its height (leaves are 0) and the lazy
    caches of its ordering key, normal form and compiled closure.
    """

    __slots__ = ("_kids", "_sort", "_ord", "_fv", "_nf", "_fn", "_height", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def __str__(self) -> str:
        return to_text(self)


# The setters of the lazily filled slots, bound once.  Writing through a
# slot's own descriptor skips ``Expr.__setattr__``.
_set_ord, _set_nf, _set_fn = (getattr(Expr, name).__set__ for name in ("_ord", "_nf", "_fn"))


def _writable(cls: type) -> type:
    """A subclass of ``cls`` whose slots plain assignment writes.

    A constructor makes a new node as one, writes each slot with one
    attribute store and then turns it into a ``cls`` by assigning
    ``__class__``, which the two classes allow because the subclass adds no
    slot.  A descriptor setter or ``object.__setattr__`` costs several
    times as much per write.
    """
    return type(cls.__name__, (cls,), {"__slots__": (), "__module__": cls.__module__,
                                       "__setattr__": object.__setattr__, "__delattr__": object.__delattr__})


class _Leaf(Expr):
    """A constant or a variable: one field, no children, its own normal form."""

    __slots__ = ()
    _kids, _nf, _height = (), _SAME, 0  # per class, so building a leaf writes only its field, ``_ord`` and ``_fn``

    def __new__(cls, value):
        key = (cls, value)
        node = (entry := _table.get(key)) and entry()
        if node is not None:
            return node
        value = cls._coerce(value)
        node = _new(cls._writable)
        if cls is Var:
            node.name = value
            node._fv = frozenset((value,))
        else:
            node.value = value
        node._ord = node._fn = None
        node.__class__ = cls
        _table[key] = entry = _Ref(node, _drop)
        entry.key = key
        return node

    def _closure(self) -> Compiled:  # a constant's; a variable has its own
        value = self.value
        return lambda values, functions: value


class IntConst(_Leaf):
    __slots__ = _fields = ("value",)
    _sort, _fv, _coerce = INT, _NO_VARS, operator.index


class BoolConst(_Leaf):
    __slots__ = _fields = ("value",)
    _sort, _fv, _coerce = BOOL, _NO_VARS, bool


class Var(_Leaf):
    """Reference to an integer-valued variable (a place/storage variable)."""

    __slots__ = _fields = ("name",)
    _sort, _coerce = INT, str

    def _closure(self) -> Compiled:
        name = self.name

        def var(values, functions):
            try:
                return values[name]
            except KeyError:
                raise UnboundVariable(name) from None

        return var


class _Nary(Expr):
    """A head (function symbol or operator) over a tuple of operands of one sort."""

    __slots__ = ("args",)
    # head -> (fewest operands, most operands or None, operand sort, result
    # sort); a head missing from the table has the signature ``_any_head``.
    _signatures: dict = {}
    _any_head = None

    def __new__(cls, head: str, args: Iterable[Expr]):
        args = args if type(args) is tuple else tuple(args)
        key = (cls, head, args)
        node = (entry := _table.get(key)) and entry()
        if node is not None:
            return node
        signature = cls._signatures.get(head, cls._any_head)
        if signature is None:
            raise ValueError(f"unknown {cls.__name__} operator {head!r}")
        low, high, operand, sort = signature
        if len(args) < low or (high is not None and len(args) > high):
            raise ValueError(f"{head!r} takes {low if low == high else f'at least {low}'} operand(s), got {len(args)}")
        fv, height = _NO_VARS, 1
        for k in args:
            if not isinstance(k, Expr):
                raise TypeError(f"not an expression: {k!r}")
            if k._sort is not operand:
                sort = None
            kfv, kheight = k._fv, k._height
            if not kfv <= fv:  # shared with a child where no other child adds a variable
                fv = fv | kfv if fv else kfv
            if kheight >= height:
                height = kheight + 1
        node = _new(cls._writable)
        if cls is Apply:
            node.symbol = head
        else:
            node.op = head
        node._kids = node.args = args
        node._sort, node._fv, node._height = sort, fv, height
        node._ord = node._nf = node._fn = None
        node.__class__ = cls
        _table[key] = entry = _Ref(node, _drop)
        entry.key = key
        return node


class Apply(_Nary):
    """Application of an uninterpreted, integer-valued function symbol."""

    __slots__ = ("symbol",)
    _fields = ("symbol", "args")
    _any_head = (0, None, INT, INT)  # any symbol over any number of integer operands

    def _closure(self) -> Compiled:
        symbol, args = self.symbol, self.args
        if len(args) == 1:
            arg = _closure_of(args[0])

            def apply1(values, functions):
                value = arg(values, functions)
                try:
                    fn = functions[symbol]
                except KeyError:
                    raise UninterpretedSymbol(symbol) from None
                return int(fn(value))

            return apply1
        fns = list(map(_closure_of, args))
        return lambda values, functions: _apply(symbol, [f(values, functions) for f in fns], functions)


class Arith(_Nary):
    __slots__ = ("op",)
    _fields = ("op", "args")

    def _closure(self) -> Compiled:
        op, args = self.op, self.args
        if len(args) == 2:
            return _binary(_BINARY[op], *args)
        combine, fns = _ARITH_FUNCS[op], list(map(_closure_of, args))
        return lambda values, functions: combine([f(values, functions) for f in fns])


class Rel(Expr):
    __slots__ = _fields = ("op", "lhs", "rhs")

    def __new__(cls, op: str, lhs: Expr, rhs: Expr):
        key = (Rel, op, lhs, rhs)
        node = (entry := _table.get(key)) and entry()
        if node is not None:
            return node
        if op not in _REL_FUNCS:
            raise ValueError(f"unknown Rel operator {op!r}")
        for k in (lhs, rhs):
            if not isinstance(k, Expr):
                raise TypeError(f"not an expression: {k!r}")
        node = _new(Rel._writable)
        node.op, node.lhs, node.rhs, node._kids = op, lhs, rhs, (lhs, rhs)
        node._sort = BOOL if lhs._sort is INT and rhs._sort is INT else None
        node._fv = lhs._fv if rhs._fv <= lhs._fv else rhs._fv if lhs._fv <= rhs._fv else lhs._fv | rhs._fv
        node._height = 1 + (lhs._height if lhs._height > rhs._height else rhs._height)
        node._ord = node._nf = node._fn = None
        node.__class__ = Rel
        _table[key] = entry = _Ref(node, _drop)
        entry.key = key
        return node

    def _closure(self) -> Compiled:
        return _binary(_REL_FUNCS[self.op], self.lhs, self.rhs)


class BoolOp(_Nary):
    __slots__ = ("op",)
    _fields = ("op", "args")

    def _closure(self) -> Compiled:
        combine, fns = _BOOL_FUNCS[self.op], list(map(_closure_of, self.args))
        return lambda values, functions: combine([f(values, functions) for f in fns])


for _cls in (IntConst, BoolConst, Var, Apply, Arith, Rel, BoolOp):
    _cls._writable = _writable(_cls)
del _cls

_ARITY = {"neg": (1, 1), "-": (2, 2), "+": (2, None), "*": (2, None), "not": (1, 1), "and": (1, None), "or": (1, None)}
Arith._signatures = {op: (*_ARITY[op], INT, INT) for op in ARITH_OPS}
BoolOp._signatures = {op: (*_ARITY[op], BOOL, BOOL) for op in BOOL_OPS}


# The meaning of applied symbols at run time: symbol -> total integer function.
Interpretation = Mapping[str, Callable[..., int]]
NO_FUNCTIONS: Interpretation = MappingProxyType({})  # read-only, for terms that apply no symbol


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def add(*args: Expr) -> Expr:
    return Arith("+", tuple(args)) if len(args) > 1 else args[0]


def mul(*args: Expr) -> Expr:
    return Arith("*", tuple(args)) if len(args) > 1 else args[0]


def sub(a: Expr, b: Expr) -> Expr:
    return Arith("-", (a, b))


def neg(a: Expr) -> Expr:
    return Arith("neg", (a,))


def conj(args: Iterable[Expr]) -> Expr:
    """Conjunction of zero or more boolean terms (empty conjunction is true)."""
    terms = tuple(args)
    return BoolOp("and", terms) if len(terms) > 1 else terms[0] if terms else TRUE


def sort_of(e: Expr) -> str:
    """Return the sort of a well-sorted expression, raising :class:`SortMismatch` otherwise."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    node = e  # an ill-sorted node: descend to its first badly sorted operand
    while node._sort is None:
        want = BOOL if type(node) is BoolOp else INT
        bad = next(k for k in node._kids if k._sort is not want)
        if bad._sort is not None:
            head = node.symbol if type(node) is Apply else node.op
            raise SortMismatch(f"operand of {head!r} is not {want}-sorted: {bad}")
        node = bad
    return e._sort


def free_vars(e: Expr) -> frozenset[str]:
    return e._fv


def apply_chain(e: Expr) -> tuple[str, ...]:
    """Applied symbols in depth-first post-order (arguments before head).

    For a pure application nest this reads as the order in which the
    functions act on the data, innermost first; it is how composed
    updates are labelled in conversion reports.
    """
    chain: list[str] = []
    stack: list = [e]
    while stack:
        item = stack.pop()
        if type(item) is str:
            chain.append(item)
            continue
        if type(item) is Apply:
            stack.append(item.symbol)
        stack.extend(reversed(item._kids))
    return tuple(chain)


_ARITH_FUNCS = {"+": sum, "*": math.prod, "-": lambda v: v[0] - v[1], "neg": lambda v: -v[0]}
_BOOL_FUNCS: dict[str, Callable[[list[bool]], bool]] = {"and": all, "or": any, "not": lambda v: not v[0]}
_BINARY = {"+": operator.add, "*": operator.mul, "-": operator.sub}

# A compiled term: ``f(values, functions)`` is its value under the variable
# values and the interpretations of its symbols.
Compiled = Callable[[Mapping[str, int], Interpretation], Value]

_EVAL_DEPTH = 64  # a subterm higher than this is evaluated by an explicit-stack walk


def evaluate(e: Expr, values: Mapping[str, int], functions: Interpretation = NO_FUNCTIONS) -> Value:
    """Value of ``e`` under the variable ``values`` and the interpretations of
    its symbols; unbounded integer arithmetic, sort-checked when first compiled."""
    return compiled(e)(values, functions)


def compiled(e: Expr) -> Compiled:
    """``e`` as a closure of the variable values and the interpretations.

    The closure is built once per node, kept on the node and shared by every
    term that contains it.  A term that is not well-sorted raises
    :class:`SortMismatch` and keeps nothing, so it raises on every call.
    Every operand of ``and``/``or`` is evaluated, so which error a term
    raises never depends on short-circuiting.

    Each node's class builds its closure over the closures of the children
    it calls (``_closure``), which :func:`_closure_of` builds first where
    they have none yet.  Closures call each other, so a node higher than
    ``_EVAL_DEPTH`` gets a closure that walks its subterms with an explicit
    stack instead, and builds no child's closure before its first call;
    building therefore recurses at most ``_EVAL_DEPTH`` levels deep.  An
    integer constant gets a closure only where one is called: as the root,
    or under any node whose closure is not :func:`_binary`'s.  No closure
    holds its own node, so no node keeps itself alive.
    """
    fn = e._fn if isinstance(e, Expr) else None
    if fn is None:
        if not isinstance(e, Expr) or e._sort is None:
            sort_of(e)  # raises; the children of a well-sorted node are well-sorted
        fn = _closure_of(e)
    return fn


def _closure_of(node: Expr) -> Compiled:
    """The closure of a well-sorted node, built and kept on its first use."""
    fn = node._fn
    if fn is None:
        fn = node._closure() if node._height <= _EVAL_DEPTH else _deep(node)
        _set_fn(node, fn)
    return fn


def _binary(op: Callable[[Value, Value], Value], lhs: Expr, rhs: Expr) -> Compiled:
    """``op`` over two compiled operands; an integer constant is taken as its value."""
    if type(rhs) is IntConst:
        if type(lhs) is IntConst:
            value = op(lhs.value, rhs.value)
            return lambda values, functions: value
        f, c = _closure_of(lhs), rhs.value
        return lambda values, functions: op(f(values, functions), c)
    if type(lhs) is IntConst:
        c, g = lhs.value, _closure_of(rhs)
        return lambda values, functions: op(c, g(values, functions))
    f, g = _closure_of(lhs), _closure_of(rhs)
    return lambda values, functions: op(f(values, functions), g(values, functions))


def _deep(node: Expr) -> Compiled:
    """The closure of a node higher than ``_EVAL_DEPTH``; it holds the children, never the node."""
    cls, kids = type(node), node._kids
    head = node.symbol if cls is Apply else node.op
    return lambda values, functions: _combine(cls, head, _eval_deep(kids, values, functions), functions)


def _eval_deep(roots: tuple, values, functions) -> list:
    """Values of ``roots``, left to right, by an explicit-stack walk that
    calls the closure of every subterm no higher than ``_EVAL_DEPTH``."""
    done: dict[Expr, Value] = {}
    stack = list(reversed(roots))
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        if node._height <= _EVAL_DEPTH:
            done[node] = _closure_of(node)(values, functions)
        else:
            pending = [k for k in node._kids if k not in done]
            if pending:
                stack.extend(reversed(pending))
                continue
            cls = type(node)
            head = node.symbol if cls is Apply else node.op
            done[node] = _combine(cls, head, [done[k] for k in node._kids], functions)
        stack.pop()
    return [done[r] for r in roots]


def _combine(cls, head: str, args: list, functions) -> Value:
    """Value of a ``cls`` node with head ``head`` from its operands' values."""
    if cls is Apply:
        return _apply(head, args, functions)
    if cls is Rel:
        return _REL_FUNCS[head](*args)
    return (_ARITH_FUNCS if cls is Arith else _BOOL_FUNCS)[head](args)


def _apply(symbol: str, args: list, functions) -> int:
    try:
        fn = functions[symbol]
    except KeyError:
        raise UninterpretedSymbol(symbol) from None
    return int(fn(*args))


def _rebuild(node: Expr, kids: list) -> Expr:
    """``node`` with its children replaced by ``kids``."""
    cls = type(node)
    return Rel(node.op, *kids) if cls is Rel else cls(node.symbol if cls is Apply else node.op, tuple(kids))


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables by integer-sorted terms.

    Variables absent from ``bindings`` are left unchanged.  Because the
    replacement terms are never re-visited, ``{x -> y, y -> x}`` swaps.
    Only the bindings of ``e``'s free variables are looked at (and
    sort-checked), and subterms that mention none of them are kept as they
    are, so the cost does not grow with the size of ``bindings``.
    """
    bound = e._fv & bindings.keys()
    if not bound:
        return e
    # ``done`` maps each bound variable to its replacement and each rebuilt
    # node to its new term; a node missing from it keeps its own term.
    done: dict[Expr, Expr] = {}
    for name in bound:
        new = bindings[name]
        if not isinstance(new, Expr) or new._sort is not INT:
            sort_of(new)  # raises for a non-term or an ill-sorted one
            raise SortMismatch(f"replacement for {name!r} is not integer-sorted: {new}")
        done[Var(name)] = new
    stack = [e]
    while stack:
        node = stack[-1]
        if node in done:  # the root as a bound variable, or a shared subterm pushed twice
            stack.pop()
            continue
        kids = node._kids
        pending = [k for k in kids if k not in done and not bound.isdisjoint(k._fv)]
        if pending:
            stack += pending
            continue
        stack.pop()
        new_kids = [done.get(k, k) for k in kids]
        done[node] = node if all(map(operator.is_, new_kids, kids)) else _rebuild(node, new_kids)
    return done[e]


# Total order on normalized terms used to sort operands of commutative
# operators: constants first, then variables lexicographically, then
# applications by symbol/arity/operands, then compound nodes.
def _own_key(e: Expr) -> tuple:
    """Ordering key of ``e`` from its children's cached keys."""
    cls = type(e)
    if cls is IntConst or cls is BoolConst:
        return (0, int(cls is BoolConst), int(e.value))
    if cls is Var:
        return (1, e.name)
    if cls is Rel:
        return (4, e.op, e.lhs._ord, e.rhs._ord)
    head = e.symbol if cls is Apply else e.op
    return (2 if cls is Apply else 3 if cls is Arith else 5, head, len(e.args), tuple(a._ord for a in e.args))


def _key(e: Expr) -> tuple:
    k = e._ord
    if k is None:
        stack = [e]
        while stack:
            node = stack[-1]
            if node._ord is not None:  # a shared subterm pushed twice
                stack.pop()
                continue
            pending = [c for c in node._kids if c._ord is None]
            if pending:
                stack += pending
                continue
            stack.pop()
            _set_ord(node, _own_key(node))
        k = e._ord
    return k


def normalize(e: Expr) -> Expr:
    """Canonical form of a well-sorted expression.

    Terms are folded, flattened and sorted; like terms are not collected,
    so ``x - x`` stays the sum ``x + -x``.  Normal forms are cached on the
    nodes.
    """
    if not isinstance(e, Expr) or e._sort is None:
        sort_of(e)  # raises; the children of a well-sorted node are well-sorted
    nf = e._nf
    if nf is None:
        stack = [e]
        while stack:
            node = stack[-1]
            if node._nf is not None:  # a shared subterm pushed twice
                stack.pop()
                continue
            kids = node._kids
            pending = [k for k in kids if k._nf is None]
            if pending:
                stack += pending
                continue
            stack.pop()
            nf = _norm_node(node, [k if k._nf is _SAME else k._nf for k in kids])
            _set_nf(node, _SAME if nf is node else nf)
        nf = e._nf
    return e if nf is _SAME else nf


def _norm_node(e: Expr, kids: list) -> Expr:
    """Normal form of ``e`` given the normal forms of its children."""
    cls = type(e)
    if not kids:
        return e
    if cls is Apply:
        return _rebuild(e, kids)
    if cls is Arith:
        if e.op == "neg":
            return _norm_neg(kids[0])
        if e.op == "-":
            return _norm_ring("+", [kids[0], _norm_neg(kids[1])])
        return _norm_ring(e.op, kids)
    if cls is Rel:
        lhs, rhs = kids
        if type(lhs) is IntConst and type(rhs) is IntConst:
            return BoolConst(_REL_FUNCS[e.op](lhs.value, rhs.value))
        if lhs is rhs:  # a term equals itself
            return BoolConst(e.op in ("=", "<=", ">="))
        return Rel(MIRROR[e.op], rhs, lhs) if _key(rhs) < _key(lhs) else Rel(e.op, lhs, rhs)
    if e.op == "not":
        return negate_guard(kids[0])  # the complement keeps its oriented operands in order
    return _norm_bool(e.op, kids)


def _norm_neg(inner: Expr) -> Expr:
    if type(inner) is IntConst:
        return IntConst(-inner.value)
    if type(inner) is Arith and inner.op == "neg":
        return inner.args[0]
    return Arith("neg", (inner,))


def _flatten(op: str, args: Iterable[Expr]) -> list[Expr]:
    return [x for a in args for x in (a.args if type(a) in (Arith, BoolOp) and a.op == op else (a,))]


def _norm_ring(op: str, kids: list) -> Expr:
    """Flattened ``+`` or ``*``: constants folded into one leading operand, the rest sorted."""
    flat = _flatten(op, kids)
    unit = 0 if op == "+" else 1
    const = _ARITH_FUNCS[op]([a.value for a in flat if type(a) is IntConst])
    rest = [a for a in flat if type(a) is not IntConst]
    if op == "*" and const == 0:
        return IntConst(0)
    rest.sort(key=_key)
    if const != unit or not rest:
        rest.insert(0, IntConst(const))
    return rest[0] if len(rest) == 1 else Arith(op, tuple(rest))


def _norm_bool(op: str, kids: list) -> Expr:
    absorbing = op == "or"  # value of the constant that decides the whole term
    flat = _flatten(op, kids)
    if any(type(a) is BoolConst and a.value == absorbing for a in flat):
        return BoolConst(absorbing)
    rest = sorted((a for a in flat if type(a) is not BoolConst), key=_key)
    if not rest:
        return BoolConst(not absorbing)
    return rest[0] if len(rest) == 1 else BoolOp(op, tuple(rest))


def negate_guard(g: Expr) -> Expr:
    """Negation of a guard: a lone relation is complemented, anything else is wrapped in ``not``."""
    if isinstance(g, Rel):
        return Rel(COMPLEMENT[g.op], g.lhs, g.rhs)
    if isinstance(g, BoolConst):
        return BoolConst(not g.value)
    if isinstance(g, BoolOp) and g.op == "not":
        return g.args[0]
    return BoolOp("not", (g,))


def structurally_equivalent(e1: Expr, e2: Expr) -> bool:
    """True iff the two terms have identical normal forms.

    A true result guarantees semantic equality; a false result proves
    nothing for terms built from uninterpreted symbols.
    """
    if sort_of(e1) != sort_of(e2):
        raise SortMismatch("cannot compare expressions of different sorts")
    return normalize(e1) is normalize(e2)


# Pretty-printer.  Precedence, loosest to tightest: or, and, not,
# relations, + -, *, unary minus/atoms.  Identifiers may contain
# hyphens, so binary operators are always printed with surrounding
# spaces; `a - b` and the identifier `a-b` are different token streams.
_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_REL, _PREC_ADD, _PREC_MUL, _PREC_ATOM = range(1, 8)


def to_text(e: Expr) -> str:
    out: list[str] = []
    stack: list = [(e, 0)]  # pieces still to print, last first: strings and (term, outer precedence)
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, outer = item
        if type(node) is Var:
            out.append(node.name)
        elif type(node) is IntConst:
            out.append(str(node.value))
        else:
            stack += reversed(_fmt_parts(node, outer))
    return "".join(out)


def _joined(args: tuple, sep: str, prec: int) -> list:
    parts: list = []
    for a in args:
        parts += (sep, (a, prec))
    return parts[1:]


def _fmt_parts(e: Expr, outer: int) -> list:
    """Text pieces of ``e`` printed at precedence ``outer``: strings, and
    ``(subterm, precedence)`` pairs still to be printed."""
    cls = type(e)
    if cls is BoolConst:
        return ["true" if e.value else "false"]
    if cls is Apply:
        return [f"{e.symbol}(", *_joined(e.args, ", ", 0), ")"]
    if cls is Arith and e.op == "neg":
        arg = e.args[0]
        body, prec = (["-(", (arg, 0), ")"] if type(arg) is IntConst else ["-", (arg, _PREC_ATOM)]), _PREC_ATOM
    elif cls is Arith and e.op == "-":
        body, prec = [(e.args[0], _PREC_ADD), " - ", (e.args[1], _PREC_ADD + 1)], _PREC_ADD
    elif cls is Rel:
        body, prec = [(e.lhs, _PREC_REL + 1), f" {e.op} ", (e.rhs, _PREC_REL + 1)], _PREC_REL
    elif cls is BoolOp and e.op == "not":
        body, prec = ["not ", (e.args[0], _PREC_NOT)], _PREC_NOT
    else:
        prec = {"+": _PREC_ADD, "*": _PREC_MUL, "and": _PREC_AND, "or": _PREC_OR}[e.op]
        body = _joined(e.args, f" {e.op} ", prec)
    return ["(", *body, ")"] if prec < outer else body
