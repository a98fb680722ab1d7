"""Finite state machines with datapath: guarded transitions between
control states, each carrying a set of parallel variable updates.

A transition fires when every expression in its guard set holds; its
updates all read the pre-step store (read-before-write), so
``{a <= b, b <= a}`` swaps.  Symbolic execution threads a
:class:`SymbolicStore` through a path: the store maps each variable to
a term over the values at the path's entry (by default the *initial*
values), and the accumulated path condition is each guard pre-substituted
through the store at its step.

Paths are compared segment by segment: :func:`cutpoints` cuts every cycle,
a segment runs from one cutpoint to the next, and :func:`path_cover` lists
the segments leaving each cutpoint the reset state reaches, with the
variables live there.
"""

from __future__ import annotations

from itertools import starmap
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import expr as ex
from .pres import Violation
from .record import Record


class FsmdError(Exception):
    pass


class DuplicateTarget(FsmdError):
    def __init__(self, name: str, where: str = ""):
        super().__init__(f"two updates assign {name!r} in one step" + (f" ({where})" if where else ""))
        self.name = name


class UnknownVariable(FsmdError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not in the store domain")
        self.name = name


class BrokenPath(FsmdError):
    pass


class Assignment(NamedTuple):
    target: str
    expr: ex.Expr


class UpdateSet(tuple):
    """Parallel assignments, a tuple of :class:`Assignment`; at most one
    per target variable."""

    __slots__ = ()

    def __new__(cls, assignments: Iterable[Assignment]) -> "UpdateSet":
        self = super().__new__(cls, assignments)
        if len(self) > 1:
            seen: set[str] = set()
            for a in self:
                if a.target in seen:
                    raise DuplicateTarget(a.target)
                seen.add(a.target)
        return self

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, ex.Expr]]) -> "UpdateSet":
        return cls(starmap(Assignment, pairs))

    def __repr__(self) -> str:
        return f"UpdateSet(assignments={tuple(self)!r})"


class FsmdTransition(NamedTuple):
    source: str
    guard_set: tuple[ex.Expr, ...]  # conjunction; compared as a normalized set
    target: str
    updates: UpdateSet


class Fsmd(Record):
    """A machine; ``_outgoing`` indexes its transitions by source state, a tuple each."""

    __slots__ = ("name", "states", "reset", "inputs", "storage", "outputs", "transitions", "_outgoing")
    _fields = ("name", "states", "reset", "inputs", "storage", "outputs", "transitions")

    def __init__(self, name: str, states: tuple[str, ...], reset: str, inputs: frozenset[str],
                 storage: frozenset[str], outputs: frozenset[str], transitions: tuple[FsmdTransition, ...]) -> None:
        self.name, self.states, self.reset = name, states, reset
        self.inputs, self.storage, self.outputs, self.transitions = inputs, storage, outputs, transitions
        outgoing: dict[str, list[FsmdTransition]] = {}
        for t in transitions:
            outgoing.setdefault(t.source, []).append(t)
        self._outgoing = {state: tuple(ts) for state, ts in outgoing.items()}

    def variables(self) -> frozenset[str]:
        return self.inputs | self.storage

    def outgoing(self, state: str) -> tuple[FsmdTransition, ...]:
        return self._outgoing.get(state, ())

    def terminal_states(self) -> frozenset[str]:
        return frozenset(s for s in self.states if s not in self._outgoing)


SymbolicStore = Mapping[str, ex.Expr]


def fresh_store(m: Fsmd) -> dict[str, ex.Expr]:
    """Identity store: every variable maps to itself, denoting its initial value."""
    return {v: ex.Var(v) for v in m.variables()}


def guard_key(guard_set: Iterable[ex.Expr]) -> frozenset[ex.Expr]:
    """Order-insensitive identity of a guard set."""
    return frozenset(ex.normalize(g) for g in guard_set)


def apply_update_set(u: UpdateSet, store: SymbolicStore) -> dict[str, ex.Expr]:
    """One parallel step: every right-hand side is read through the pre-step store."""
    return {**store, **_updated(u, store)}


def _updated(u: UpdateSet, store: SymbolicStore) -> dict[str, ex.Expr]:
    """The new terms of the variables ``u`` assigns, read through ``store``."""
    new = {}
    scope = store.keys()
    for a in u:
        if a.target not in scope or not ex.free_vars(a.expr) <= scope:
            raise UnknownVariable(a.target if a.target not in scope else min(ex.free_vars(a.expr) - scope))
        new[a.target] = ex.substitute(a.expr, store)
    return new


class UncutCycle(FsmdError):
    """A walk came back to a state on its own path without reaching a target."""


def cutpoints(m: Fsmd) -> frozenset[str]:
    """Floyd's cutpoints: the reset state, every terminal state and every
    state whose in-degree or out-degree is not 1.

    A state with one way in and one way out can only lie on a cycle made of
    such states, which nothing else enters, so every reachable cycle passes
    a cutpoint.
    """
    indegree = dict.fromkeys(m.states, 0)
    for t in m.transitions:
        indegree[t.target] = indegree.get(t.target, 0) + 1
    one_way = {s for s, n in indegree.items() if n == 1 and len(m._outgoing.get(s, ())) == 1}
    return frozenset(indegree).difference(one_way) | {m.reset}


class PathEnumeration(NamedTuple):
    paths: tuple[tuple[FsmdTransition, ...], ...]


def path_enumerate(m: Fsmd, from_state: str, to_states: frozenset[str] | set[str]) -> PathEnumeration:
    """Every path from ``from_state`` that ends at the first state of ``to_states`` it reaches.

    With a machine's cutpoints as targets these are the *segments* leaving
    ``from_state``; the empty path comes first when ``from_state`` is itself
    a target.  Paths come out in depth-first order following transition
    declaration order, so the result is stable.  A walk that comes back to a
    state on its own path without passing a target raises
    :class:`UncutCycle`, so no path is ever left out.
    """
    targets = frozenset(to_states)
    paths: list[tuple[FsmdTransition, ...]] = [()] if from_state in targets else []
    prefix: list[FsmdTransition] = []
    on_path = {from_state}
    # Depth-first with an explicit stack (one iterator per state on the
    # current path), so long paths do not hit the recursion limit.
    stack = [iter(m.outgoing(from_state))]
    while stack:
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            if prefix:
                on_path.discard(prefix.pop().target)
        elif t.target in targets:
            paths.append((*prefix, t))
        elif t.target in on_path:
            raise UncutCycle(f"the walk from {from_state!r} returns to {t.target!r} without reaching a target")
        else:
            on_path.add(t.target)
            prefix.append(t)
            stack.append(iter(m.outgoing(t.target)))
    return PathEnumeration(tuple(paths))


class PathCover(NamedTuple):
    """A machine cut at its cutpoints, as far as its reset state reaches.

    ``segments`` maps each reached cutpoint to the segments leaving it (a
    terminal state has just the empty one), ``live`` to the variables that
    some path from it reads before writing them (at a terminal state, the
    outputs that are compared), ``cyclic`` holds the cutpoints that lie on a
    cycle, and ``rank`` numbers the cutpoints so that, off the cycles, each
    comes before the cutpoints its segments reach.
    """

    segments: dict[str, tuple[tuple[FsmdTransition, ...], ...]]
    live: dict[str, frozenset[str]]
    cyclic: frozenset[str]
    rank: dict[str, int]


def path_cover(m: Fsmd, outputs: Iterable[str]) -> PathCover:
    """Cut ``m`` at its cutpoints.  Liveness flows backwards over the
    segments, each summarised once by what it reads and writes, until
    nothing changes: one pass in postorder where nothing loops."""
    cut = cutpoints(m)
    segments: dict[str, tuple[tuple[FsmdTransition, ...], ...]] = {}

    def successors(c: str) -> Iterator[str]:
        segments[c] = tuple(p for p in path_enumerate(m, c, cut).paths if p) or ((),)
        return iter([seg[-1].target for seg in segments[c] if seg])

    # Tarjan's strongly connected components over the cutpoint graph, with
    # an explicit stack; ``postorder`` lists each cutpoint after its successors
    # (off the cycles).
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
    return PathCover(segments, live, frozenset(cyclic), rank)


def _reads_before_writes(path: Sequence[FsmdTransition]) -> tuple[frozenset[str], frozenset[str]]:
    """The variables ``path`` reads before it writes them, and those it writes."""
    reads: set[str] = set()
    writes: set[str] = set()
    for step in path:
        for e in (*step.guard_set, *(a.expr for a in step.updates)):
            reads.update(v for v in ex.free_vars(e) if v not in writes)
        writes.update(a.target for a in step.updates)
    return frozenset(reads), frozenset(writes)


class PathTransformation(NamedTuple):
    """Cumulative effect of a path over the values of its entry store."""

    condition: ex.Expr
    transform: dict[str, ex.Expr]


def path_transformation(
    m: Fsmd, path: Sequence[FsmdTransition], store: Optional[SymbolicStore] = None
) -> PathTransformation:
    """Fold the path's updates through ``store``, collecting guards.

    Without a store the fold starts from :func:`fresh_store`, so the result
    ranges over the initial variable values.  Each guard is substituted
    through the store *at its own step*, so the returned condition is a
    single term over the entry store's terms (weakest-precondition style).
    """
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


# A concrete run whose values outgrow this many bits ends, like one that takes
# too many steps: past it a loop that doubles a value's length makes every
# further step slower.  A 70-stage pipeline reaches about 200 bits.
MAX_VALUE_BITS = 4096


def machine_run(
    m: Fsmd, values: Mapping[str, int], functions: ex.Interpretation = ex.NO_FUNCTIONS, max_steps: int = 1_000
) -> tuple[Optional[dict[str, int]], str]:
    """Concrete run from ``values``: the store at the terminal state
    reached, and for a run that ended without one (``None``), what ended it.

    Each step takes the one transition whose guard set holds; the run
    ``"got stuck"`` when none or several hold, and it also ends when no
    terminal state is reached within ``max_steps`` steps or an update
    yields a value of more than ``MAX_VALUE_BITS`` bits.  A run may always
    take ``len(m.states)`` steps, which is as many as a run that visits no
    state twice can need.
    """
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
