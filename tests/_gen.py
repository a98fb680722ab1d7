"""Seeded random generators shared by the property suites.

Everything here is driven by an explicit ``random.Random`` so that every
suite run is reproducible from its seed.
"""

from __future__ import annotations

import random

from presto import expr as ex
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
    arity = rng.randint(1, 2)
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


def random_env(rng: random.Random, variables=VARS) -> ex.Environment:
    values = {v: rng.randint(-20, 20) for v in variables}
    functions = {}
    for s in SYMBOLS:
        c0, c1, c2 = (rng.randint(-5, 5) for _ in range(3))
        functions[s] = (lambda c0, c1, c2: lambda *args: c0 + sum(c * a for c, a in zip((c1, c2), args)))(c0, c1, c2)
    return ex.Environment(values, functions)


def random_net(seed: int) -> PresNet:
    """Eight places over three shared variables and seven transitions with
    overlapping presets and `v > 0` guards, so that conflict groups chain
    transitively and some guard decisions contradict each other."""
    rng = random.Random(seed)
    places = tuple(f"p{i}" for i in range(8))
    var_of = {p: rng.choice("xyz") for p in places}
    transitions, input_arcs, output_arcs = [], set(), set()
    for i in range(7):
        pre = rng.sample(places, rng.randint(1, 3))
        v = ex.Var(var_of[pre[0]])
        transitions.append(Transition(f"t{i}", v, ex.Rel(">", v, ex.IntConst(0)) if rng.random() < 0.6 else None))
        input_arcs.update((p, f"t{i}") for p in pre)
        output_arcs.add((f"t{i}", rng.choice(places)))
    return PresNet(f"random{seed}", places, var_of, {p: "int" for p in places}, tuple(transitions),
                   frozenset(input_arcs), frozenset(output_arcs), frozenset(rng.sample(places, 4)))
