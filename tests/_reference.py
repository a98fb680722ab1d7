"""The concrete-run loops as they were before runs kept plans, verbatim, as
the reference that the differential properties of tests/test_sim.py and
tests/test_fsmd.py compare the program's loops with.

They compile each guard, transfer function and update at every step, and a
seeded net run seeds its generator before its first step and draws at every
step.  They read the net's step table (``marking_step`` and ``firing``) and
the machine's transitions as the program does.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional

from presto import expr as ex
from presto.convert import FiringSet, UnsafeMarking, firing, marking_step
from presto.fsmd import MAX_VALUE_BITS, Fsmd
from presto.pres import PresNet
from presto.sim import (DEADLOCK, QUIESCENT, STEP_BOUND_EXCEEDED, VALUE_BOUND_EXCEEDED, RunOutcome, SimError,
                        TokenState, _values)


def simulate_run(
    net: PresNet,
    inputs: TokenState,
    interp: ex.Interpretation,
    seed: Optional[int] = None,
    max_steps: int = 1_000,
) -> RunOutcome:
    marking = frozenset(inputs)
    if marking != frozenset(net.initial_marking):
        raise SimError(
            f"input domain {sorted(inputs)} does not match the initial marking {sorted(net.initial_marking)}"
        )
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    rng = None if seed is None else random.Random(seed)  # None takes the first options
    steps, var_of, compiled = net.steps, net.var_of, ex.compiled
    ts = dict(inputs)
    trace: list[tuple[FiringSet, TokenState]] = []
    chose = False
    for step in range(max_steps + 1):  # the last step only probes whether the run is at rest
        values = {var_of[p]: value for p, value in ts.items()}
        if len(values) < len(ts):  # marked places share a variable: _values raises where they disagree
            values = _values(net, ts)
        offered = steps.get(marking) or marking_step(net, marking)
        if not offered.parts:
            return RunOutcome(QUIESCENT, ts, trace, step, chose)
        held, count = [], 1  # per part, the indices of the options whose guards all hold; their product
        for options in offered.parts:
            holding = []  # a loop, not all() over a generator, which would cost more than most tests
            for i, (_, guards) in enumerate(options):
                for guard in guards:
                    if not compiled(guard)(values, interp):
                        break
                else:
                    holding.append(i)
            if not holding:  # one conflict group with no holding option blocks the whole step
                return RunOutcome(DEADLOCK, ts, trace, step, chose)
            held.append(holding)
            count *= len(holding)
        if rng is None:
            at = tuple([holding[0] for holding in held])
        else:
            # One draw, decoded with the last part running fastest, picks what rng.choice would from the
            # product's holding sets; a seed draws even from one, so that it always makes the same choices.
            draw, at = rng.randrange(count), []
            for holding in reversed(held):
                draw, i = divmod(draw, len(holding))
                at.append(holding[i])
            at = tuple(at[::-1])
        fs, fired, successor, marked = offered.firings.get(at) or firing(net, marking, offered, at)
        produced: dict[str, int] = {}
        for t in fired:
            value = compiled(t.fn)(values, interp)
            if value.bit_length() > MAX_VALUE_BITS:
                return RunOutcome(VALUE_BOUND_EXCEEDED, ts, trace, step, chose)
            for p in t.post:
                produced[p] = value
        if type(successor) is str:
            raise UnsafeMarking(successor)
        if step == max_steps:
            return RunOutcome(STEP_BOUND_EXCEEDED, ts, trace, max_steps, chose)
        ts = {p: produced[p] if p in produced else ts[p] for p in marked}
        marking, chose = successor, chose or count > 1
        trace.append((fs, ts))


def machine_run(
    m: Fsmd, values: Mapping[str, int], functions: ex.Interpretation = ex.NO_FUNCTIONS, max_steps: int = 1_000
) -> tuple[Optional[dict[str, int]], str]:
    store, state = dict(values), m.reset
    steps = max(max_steps, len(m.states))
    for _ in range(steps):
        outgoing = m.outgoing(state)
        if not outgoing:
            return store, ""
        taken = [t for t in outgoing if all(ex.compiled(g)(store, functions) for g in t.guard_set)]
        if len(taken) != 1:
            return None, "got stuck"
        updates = {a.target: ex.compiled(a.expr)(store, functions) for a in taken[0].updates}
        for value in updates.values():
            if value.bit_length() > MAX_VALUE_BITS:
                return None, f"made a value of more than {MAX_VALUE_BITS} bits"
        store.update(updates)
        state = taken[0].target
    return (None, f"took more than {steps} steps") if m.outgoing(state) else (store, "")
