"""Seeded random generators shared by the property suites.

Everything here is driven by an explicit ``random.Random`` so that every
suite run is reproducible from its seed.
"""

from __future__ import annotations

import importlib.util
import os
import random
import sys

from presto import expr as ex
from presto.fsmd import Fsmd, FsmdTransition, UpdateSet
from presto.pres import PresNet, Transition

VARS = ("a", "b", "c", "d")
SYMBOLS = ("F", "G", "H")


def random_int_expr(rng: random.Random, depth: int = 4, variables=VARS) -> ex.Expr:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.IntConst(rng.randint(-9, 9))
        return ex.Var(rng.choice(variables))
    kind = rng.randrange(5)
    if kind == 0:
        return ex.Arith("+", tuple(random_int_expr(rng, depth - 1, variables) for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return ex.Arith("*", tuple(random_int_expr(rng, depth - 1, variables) for _ in range(2)))
    if kind == 2:
        return ex.Arith("-", (random_int_expr(rng, depth - 1, variables), random_int_expr(rng, depth - 1, variables)))
    if kind == 3:
        return ex.Arith("neg", (random_int_expr(rng, depth - 1, variables),))
    symbol = rng.choice(SYMBOLS)
    arity = rng.choice((0, 1, 1, 2, 2))
    return ex.Apply(symbol, tuple(random_int_expr(rng, depth - 1, variables) for _ in range(arity)))


def random_bool_expr(rng: random.Random, depth: int = 3, variables=VARS) -> ex.Expr:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return ex.BoolConst(rng.random() < 0.5)
        op = rng.choice(ex.REL_OPS)
        return ex.Rel(op, random_int_expr(rng, 2, variables), random_int_expr(rng, 2, variables))
    kind = rng.randrange(3)
    if kind == 0:
        return ex.BoolOp("not", (random_bool_expr(rng, depth - 1, variables),))
    op = "and" if kind == 1 else "or"
    return ex.BoolOp(op, tuple(random_bool_expr(rng, depth - 1, variables) for _ in range(rng.randint(2, 3))))


def random_expr(rng: random.Random, depth: int = 4, variables=VARS) -> ex.Expr:
    return random_bool_expr(rng, depth - 1, variables) if rng.random() < 0.3 else random_int_expr(rng, depth, variables)


def random_env(rng: random.Random, variables=VARS) -> tuple[dict, dict]:
    """Random values of ``variables`` and random affine interpretations of the symbols."""
    values = {v: rng.randint(-20, 20) for v in variables}
    functions = {}
    for s in SYMBOLS:
        c0, c1, c2 = (rng.randint(-5, 5) for _ in range(3))
        functions[s] = (lambda c0, c1, c2: lambda *args: c0 + sum(c * a for c, a in zip((c1, c2), args)))(c0, c1, c2)
    return values, functions


def random_net(seed: int) -> PresNet:
    """Eight places over three shared variables and seven transitions with
    overlapping presets and `v > 0` guards, so that conflict groups chain
    transitively and some guard decisions contradict each other."""
    rng = random.Random(seed)
    places = tuple(f"p{i}" for i in range(8))
    var_of = {p: rng.choice("xyz") for p in places}
    transitions = []
    for i in range(7):
        pre = rng.sample(places, rng.randint(1, 3))
        v = ex.Var(var_of[pre[0]])
        guard = ex.Rel(">", v, ex.IntConst(0)) if rng.random() < 0.6 else None
        transitions.append(Transition(f"t{i}", frozenset(pre), frozenset({rng.choice(places)}), v, guard))
    return PresNet(f"random{seed}", places, var_of, tuple(transitions), frozenset(rng.sample(places, 4)))


# -- machine pairs -------------------------------------------------------------
#
# A program is a list of items: ("set", {variable: term}) assigns in parallel,
# ("if", guard, then, else) branches two ways and joins again, and
# ("loop", guard, body) repeats ``body`` and then adds one to the counter
# ``c`` while ``c < b``; no body writes ``c``, so every loop ends.  Machines
# read VARS, take ``a`` and ``b`` as inputs and keep ``c`` and ``d``.

STORAGE = ("c", "d")


def random_program(rng: random.Random, depth: int = 3, loops: bool = False, writable=STORAGE) -> list:
    items: list = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if depth > 0 and roll < 0.4:
            guard = ex.Rel(rng.choice(ex.REL_OPS), random_int_expr(rng, 1), random_int_expr(rng, 1))
            items.append(("if", guard, random_program(rng, depth - 1, loops, writable),
                          random_program(rng, depth - 1, loops, writable)))
        elif loops and depth > 0 and roll < 0.6 and "c" in writable:
            items.append(("set", {"c": ex.IntConst(rng.randint(-3, 3))}))
            body = random_program(rng, depth - 1, False, ("d",))
            items.append(("loop", ex.Rel("<", ex.Var("c"), ex.Var("b")), body))
        else:
            targets = rng.sample(writable, rng.randint(1, len(writable)))
            items.append(("set", {t: random_int_expr(rng, 2) for t in targets}))
    return items


def variant(rng: random.Random, program: list, mutate: float = 0.0) -> list:
    """A rewritten copy of ``program``: terms replaced by their normal forms,
    relations mirrored, branches swapped, assignments split into two steps
    where the second does not read the first, and with probability
    ``mutate`` per term a fresh random term instead."""
    out: list = []
    for item in program:
        if item[0] == "set":
            terms = {}
            for target, term in item[1].items():
                if rng.random() < mutate:
                    term = random_int_expr(rng, 2)
                elif rng.random() < 0.5:
                    term = ex.normalize(term)
                terms[target] = term
            first, *rest = terms
            if rest and rng.random() < 0.3 and first not in ex.free_vars(terms[rest[0]]):
                out += [("set", {first: terms[first]}), ("set", {rest[0]: terms[rest[0]]})]
            else:
                out.append(("set", terms))
        elif item[0] == "if":
            _, guard, then, other = item
            if rng.random() < 0.5:
                guard = ex.Rel(ex.MIRROR[guard.op], guard.rhs, guard.lhs)
            then, other = variant(rng, then, mutate), variant(rng, other, mutate)
            if rng.random() < 0.3:
                guard, then, other = ex.negate_guard(guard), other, then
            out.append(("if", guard, then, other))
        else:
            out.append(("loop", item[1], variant(rng, item[2], mutate)))
    return out


def compile_program(name: str, program: list, duplicate_tails: bool = False) -> Fsmd:
    """The machine of ``program``.  With ``duplicate_tails`` the two branches
    of an ``if`` outside loops do not join: each runs its own copy of the rest."""
    states: list[str] = []
    transitions: list[FsmdTransition] = []

    def new() -> str:
        states.append(f"s{len(states)}")
        return states[-1]

    def step(source: str, target: str, guards=(), updates=()) -> None:
        transitions.append(FsmdTransition(source, tuple(guards), target, UpdateSet.of(updates)))

    def emit(items: list, at: str, duplicate: bool) -> str:
        for i, item in enumerate(items):
            if item[0] == "set":
                nxt = new()
                step(at, nxt, (), item[1].items())
                at = nxt
            elif item[0] == "if":
                _, guard, then, other = item
                ends = []
                for g, body in ((guard, then), (ex.negate_guard(guard), other)):
                    branch = new()
                    step(at, branch, [g])
                    ends.append(emit(body + items[i + 1:], branch, True) if duplicate else emit(body, branch, False))
                if duplicate:
                    return ends[0]
                at = new()
                for end in ends:
                    step(end, at)
            else:
                _, guard, body = item
                head, entry = new(), new()
                step(at, head)
                step(head, entry, [guard])
                step(emit(body, entry, False), head, (), [("c", ex.add(ex.Var("c"), ex.IntConst(1)))])
                at = new()
                step(head, at, [ex.negate_guard(guard)])
        return at

    emit(program, new(), duplicate_tails)
    return Fsmd(name, tuple(states), "s0", frozenset({"a", "b"}), frozenset(STORAGE), frozenset(STORAGE),
                tuple(transitions))


def perfbench(name: str):
    """A module of the benchmark, loaded from ``perfbench/<name>.py``: its
    seeded pair generator ``families`` or its tracer ``tracing``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module
