"""A fixed pure-Python reference workload that tracks the host's current speed.

On a shared host the same interpreter work can take from a third longer to
twice as long, for seconds or minutes at a time.  The reference does the
kind of work presto does, on its own small term type: it builds frozen
dataclass terms, substitutes into them, flattens and sorts them, compares and
hashes them.  Its duration therefore moves with the host in step with
presto's.  Dividing a command's time by the reference time measured around
it, and multiplying by ``NOMINAL_NS``, gives the command's time on the host
at its nominal speed.  presto's own code is not used, so no change to presto
can move the reference.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# About the reference's duration on a 2-core x86-64 host running Python
# 3.11.7 in its fast phases.  Any constant works: both sides of a comparison
# are scaled by it.
NOMINAL_NS = 1_000_000
DEPTH = 6


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Const:
    value: int


@dataclass(frozen=True)
class _Op:
    op: str
    args: tuple


def _term(depth: int, i: int):
    if depth == 0:
        return _Var(f"v{i % 7}") if i % 3 else _Const(i)
    return _Op("+" if depth % 2 else "*", (_term(depth - 1, 2 * i), _term(depth - 1, 2 * i + 1), _Const(depth)))


def _key(e):
    if isinstance(e, _Const):
        return (0, e.value)
    if isinstance(e, _Var):
        return (1, e.name)
    return (2, e.op, tuple(_key(a) for a in e.args))


def _normal(e):
    if isinstance(e, (_Const, _Var)):
        return e
    flat = []
    for a in (_normal(a) for a in e.args):
        if isinstance(a, _Op) and a.op == e.op:
            flat.extend(a.args)
        else:
            flat.append(a)
    const = sum(a.value for a in flat if isinstance(a, _Const)) if e.op == "+" else 1
    return _Op(e.op, (_Const(const), *sorted((a for a in flat if not isinstance(a, _Const)), key=_key)))


def _substitute(e, bindings: dict):
    if isinstance(e, _Var):
        return bindings.get(e.name, e)
    if isinstance(e, _Const):
        return e
    return _Op(e.op, tuple(_substitute(a, bindings) for a in e.args))


def reference_ns() -> int:
    """Nanoseconds the reference workload takes now, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        term = _term(DEPTH, 1)
        normal = _normal(_substitute(term, {"v1": _Const(3), "v2": _Var("w")}))
        hash(normal)
        normal == _normal(term)
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
