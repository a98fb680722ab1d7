"""Finite state machines with datapath: guarded transitions between
control states, each carrying a set of parallel variable updates.

A transition fires when every expression in its guard set holds; its
updates all read the pre-step store (read-before-write), so
``{a <= b, b <= a}`` swaps.  Symbolic execution threads a
:class:`SymbolicStore` through a path: the store maps each variable to
a term over the *initial* variable values, and the accumulated path
condition is each guard pre-substituted through the store at its step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import expr as ex
from .pres import Violation


class FsmdError(Exception):
    pass


class DuplicateTarget(FsmdError):
    def __init__(self, name: str):
        super().__init__(f"two updates assign {name!r} in one step")
        self.name = name


class UnknownVariable(FsmdError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not in the store domain")
        self.name = name


class BrokenPath(FsmdError):
    pass


@dataclass(frozen=True)
class Assignment:
    target: str
    expr: ex.Expr


@dataclass(frozen=True)
class UpdateSet:
    """Parallel assignments; at most one per target variable."""

    assignments: tuple[Assignment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(self.assignments))
        seen: set[str] = set()
        for a in self.assignments:
            if a.target in seen:
                raise DuplicateTarget(a.target)
            seen.add(a.target)

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, ex.Expr]]) -> "UpdateSet":
        return cls(tuple(Assignment(t, e) for t, e in pairs))

    def as_dict(self) -> dict[str, ex.Expr]:
        return {a.target: a.expr for a in self.assignments}

    def __len__(self) -> int:
        return len(self.assignments)

    def __iter__(self):
        return iter(self.assignments)


EMPTY_UPDATES = UpdateSet(())


@dataclass(frozen=True)
class FsmdTransition:
    source: str
    guard_set: tuple[ex.Expr, ...]  # conjunction; compared as a normalized set
    target: str
    updates: UpdateSet


@dataclass
class Fsmd:
    name: str
    states: tuple[str, ...]
    reset: str
    inputs: frozenset[str]
    storage: frozenset[str]
    outputs: frozenset[str]
    transitions: tuple[FsmdTransition, ...]
    _outgoing: dict[str, list[FsmdTransition]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._outgoing = {}
        for t in self.transitions:
            self._outgoing.setdefault(t.source, []).append(t)

    def variables(self) -> frozenset[str]:
        return self.inputs | self.storage

    def outgoing(self, state: str) -> list[FsmdTransition]:
        return list(self._outgoing.get(state, ()))

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
    domain = set(store)
    new = dict(store)
    for a in u:
        if a.target not in domain:
            raise UnknownVariable(a.target)
        missing = ex.free_vars(a.expr) - domain
        if missing:
            raise UnknownVariable(sorted(missing)[0])
        new[a.target] = ex.substitute(a.expr, store)
    return new


@dataclass(frozen=True)
class PathEnumeration:
    paths: tuple[tuple[FsmdTransition, ...], ...]
    truncated: bool  # some walk hit the length bound before reaching a target


def path_enumerate(
    m: Fsmd, from_state: str, to_states: frozenset[str] | set[str], bound: int
) -> PathEnumeration:
    """All simple paths (no repeated state) from ``from_state`` into ``to_states``.

    Paths come out in depth-first order following transition declaration
    order, so the result is stable.  If the bound cut off an unfinished
    walk the enumeration is flagged truncated.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    targets = frozenset(to_states)
    paths: list[tuple[FsmdTransition, ...]] = []
    truncated = False
    prefix: list[FsmdTransition] = []
    visited = {from_state}

    def visit(state: str) -> Iterator[FsmdTransition]:
        """Record ``state``; return the transitions still to be walked from it."""
        nonlocal truncated
        if state in targets:
            paths.append(tuple(prefix))
        if len(prefix) >= bound:
            if any(t.target not in visited for t in m.outgoing(state)):
                truncated = True
            return iter(())
        return iter(m.outgoing(state))

    # Depth-first with an explicit stack (one iterator per state on the
    # current path), so long paths do not hit the recursion limit.
    stack = [visit(from_state)]
    while stack:
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            if prefix:
                visited.discard(prefix.pop().target)
        elif t.target not in visited:
            visited.add(t.target)
            prefix.append(t)
            stack.append(visit(t.target))
    return PathEnumeration(tuple(paths), truncated)


@dataclass(frozen=True)
class PathTransformation:
    """Cumulative effect of a path over the initial variable values."""

    condition: ex.Expr
    transform: dict[str, ex.Expr] = field(hash=False)


def path_transformation(m: Fsmd, path: Sequence[FsmdTransition]) -> PathTransformation:
    """Fold the path's updates through a fresh store, collecting guards.

    Each guard is substituted through the store *at its own step*, so the
    returned condition is a single term over initial values
    (weakest-precondition style).
    """
    store = fresh_store(m)
    conds: list[ex.Expr] = []
    at = m.reset if not path else path[0].source
    for step in path:
        if step.source != at:
            raise BrokenPath(f"step from {step.source!r} does not continue at {at!r}")
        for g in step.guard_set:
            conds.append(ex.substitute(g, store))
        store = apply_update_set(step.updates, store)
        at = step.target
    return PathTransformation(ex.conj(conds), store)


def compose(first: PathTransformation, second: PathTransformation) -> PathTransformation:
    """Transformation of a concatenated path from its two halves."""
    store = {v: ex.substitute(t, first.transform) for v, t in second.transform.items()}
    cond = ex.conj([first.condition, ex.substitute(second.condition, first.transform)])
    return PathTransformation(cond, store)


def run_machine(m: Fsmd, values: Mapping[str, int], functions=None) -> Optional[dict[str, int]]:
    """Concrete run from ``values``: the store at the terminal state reached.

    Each step takes the one transition whose guard set holds; ``None`` when
    none or several hold, or the run loops."""
    store, state = dict(values), m.reset
    for _ in range(len(m.states)):
        outgoing = m.outgoing(state)
        if not outgoing:
            return store
        env = ex.Environment(store, functions)
        taken = [t for t in outgoing if all(ex.evaluate(g, env) for g in t.guard_set)]
        if len(taken) != 1:
            return None
        store.update({a.target: ex.evaluate(a.expr, env) for a in taken[0].updates})
        state = taken[0].target
    return None


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
