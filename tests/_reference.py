"""Earlier versions of the program's loops, kept verbatim as the reference
that the differential properties of tests/test_sim.py and tests/test_fsmd.py
compare the program with.

The concrete-run loops are those from before runs kept plans.  They compile
each guard, transfer function and update at every step, and a seeded net
run seeds its generator before its first step and draws at every step.  They
read the net's step table (``marking_step`` and ``firing``) and the
machine's transitions as the program does.

The symbolic fold, the path cover and machine validation are those from
before the cover kept each machine's facts: the fold merges a new dict of
updated terms into the store at every step, the cover runs its liveness
fixpoint until a pass changes nothing, and validation builds each
transition's label and messages whether or not it breaks a rule.  The cover
returns its four fields as a plain tuple.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from presto import expr as ex
from presto.convert import FiringSet, UnsafeMarking, firing, marking_step
from presto.fsmd import (MAX_VALUE_BITS, BrokenPath, Fsmd, FsmdTransition, PathTransformation, SymbolicStore,
                         UnknownVariable, UpdateSet, cutpoints, fresh_store, guard_key, path_enumerate)
from presto.pres import PresNet, Violation
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


def apply_update_set(u: UpdateSet, store: SymbolicStore) -> dict[str, ex.Expr]:
    return {**store, **_updated(u, store)}


def _updated(u: UpdateSet, store: SymbolicStore) -> dict[str, ex.Expr]:
    new = {}
    scope = store.keys()
    for a in u:
        if a.target not in scope or not ex.free_vars(a.expr) <= scope:
            raise UnknownVariable(a.target if a.target not in scope else min(ex.free_vars(a.expr) - scope))
        new[a.target] = ex.substitute(a.expr, store)
    return new


def path_transformation(
    m: Fsmd, path: Sequence[FsmdTransition], store: Optional[SymbolicStore] = None
) -> PathTransformation:
    store = fresh_store(m) if store is None else dict(store)
    conds: list[ex.Expr] = []
    at = m.reset if not path else path[0].source
    for step in path:
        if step.source != at:
            raise BrokenPath(f"step from {step.source!r} does not continue at {at!r}")
        for g in step.guard_set:
            conds.append(ex.substitute(g, store))
        store.update(_updated(step.updates, store))
        at = step.target
    return PathTransformation(ex.conj(conds), store)


def path_cover(m: Fsmd, outputs: Iterable[str]) -> tuple:
    cut = cutpoints(m)
    segments: dict[str, tuple[tuple[FsmdTransition, ...], ...]] = {}

    def successors(c: str) -> Iterator[str]:
        segments[c] = tuple(p for p in path_enumerate(m, c, cut).paths if p) or ((),)
        return iter([seg[-1].target for seg in segments[c] if seg])

    index: dict[str, int] = {m.reset: 0}
    low = dict(index)
    component, on_component = [m.reset], {m.reset}
    work = [(m.reset, successors(m.reset))]
    postorder: list[str] = []
    cyclic: set[str] = set()
    while work:
        c, todo = work[-1]
        for d in todo:
            if d not in index:
                index[d] = low[d] = len(index)
                component.append(d)
                on_component.add(d)
                work.append((d, successors(d)))
                break
            if d in on_component:
                low[c] = min(low[c], index[d])
        else:
            work.pop()
            postorder.append(c)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[c])
            if low[c] == index[c]:
                members = [component.pop()]
                while members[-1] != c:
                    members.append(component.pop())
                on_component.difference_update(members)
                if len(members) > 1 or any(seg and seg[-1].target == c for seg in segments[c]):
                    cyclic.update(members)

    flows = {c: [(_reads_before_writes(seg), seg[-1].target if seg else None) for seg in segments[c]]
             for c in postorder}
    outputs = frozenset(outputs)
    live = dict.fromkeys(postorder, frozenset())
    changed = True
    while changed:
        changed = False
        for c in postorder:
            new = set()
            for (reads, writes), target in flows[c]:
                new |= reads
                new |= (live[target] - writes) if target is not None else outputs
            if new != live[c]:
                live[c] = frozenset(new)
                changed = True
    rank = {c: i for i, c in enumerate(reversed(postorder))}
    return segments, live, frozenset(cyclic), rank


def _reads_before_writes(path: Sequence[FsmdTransition]) -> tuple[frozenset[str], frozenset[str]]:
    reads: set[str] = set()
    writes: set[str] = set()
    for step in path:
        for e in (*step.guard_set, *(a.expr for a in step.updates)):
            reads.update(v for v in ex.free_vars(e) if v not in writes)
        writes.update(a.target for a in step.updates)
    return frozenset(reads), frozenset(writes)


def validate_fsmd(m: Fsmd) -> list[Violation]:
    out: list[Violation] = []
    states = set(m.states)
    seen: set[str] = set()
    for s in m.states:
        if s in seen:
            out.append(Violation("DuplicateName", s, "state declared twice"))
        seen.add(s)
    if m.reset not in states:
        out.append(Violation("UnknownState", m.reset, "reset state is not declared"))
    bad_outputs = m.outputs - (m.storage | m.inputs)
    for v in sorted(bad_outputs):
        out.append(Violation("UnknownVariable", v, "output is neither storage nor input"))

    variables = m.inputs | m.storage
    assignable = m.outputs | m.storage
    keys: set[tuple[str, frozenset[ex.Expr]]] = set()
    for i, t in enumerate(m.transitions):
        label = f"{t.source}->{t.target}#{i}"
        if t.source not in states:
            out.append(Violation("UnknownState", t.source, label))
        if t.target not in states:
            out.append(Violation("UnknownState", t.target, label))
        key = (t.source, guard_key(t.guard_set))
        if key in keys:
            out.append(Violation("NondeterministicF", label, "duplicate (state, guard set) entry"))
        keys.add(key)
        for g in t.guard_set:
            try:
                if ex.sort_of(g) != ex.BOOL:
                    out.append(Violation("IllSortedGuard", label, str(g)))
            except ex.SortMismatch as err:
                out.append(Violation("IllSortedGuard", label, str(err)))
            for v in sorted(ex.free_vars(g) - variables):
                out.append(Violation("UnknownVariable", v, f"guard of {label}"))
        for a in t.updates:
            if a.target not in assignable:
                out.append(Violation("IllegalTarget", a.target, f"update in {label}"))
            try:
                if ex.sort_of(a.expr) != ex.INT:
                    out.append(Violation("IllSortedUpdate", label, f"{a.target} <= {a.expr}"))
            except ex.SortMismatch as err:
                out.append(Violation("IllSortedUpdate", label, str(err)))
            for v in sorted(ex.free_vars(a.expr) - variables):
                out.append(Violation("UnknownVariable", v, f"update of {a.target} in {label}"))
    return out
