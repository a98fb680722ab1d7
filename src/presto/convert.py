"""Conversion of a net into an FSMD by symbolic simulation.

Starting from the initial marking, each reachable marking becomes a
control state.  At a marking, the structurally enabled transitions are
partitioned into conflict groups (transitions conflict when their input
places overlap); a firing set picks one transition per group and fires
all of them together, a maximal step.  Each alternative choice inside
a group yields its own firing set, discriminated by guards: a chosen
guarded transition contributes its guard positively, and in a two-way
group where an unguarded transition wins over a guarded one the loser's
guard is recorded negated.  Firing sets whose guard decisions contradict
each other syntactically are dropped with a warning.

What a marking offers, its conflict groups with their options, is computed
once per net and marking in the net's step table (:func:`marking_step`),
with a cache of the choices made ready to fire that the simulator shares.
Only conversion builds the product (:func:`construct_set_of_transitions`).
An option holds its guard decisions as written, each checked to be
bool-sorted when its marking's step is built; a choice normalizes its
decisions and their negations only where it holds two or more, the only
choices that can contradict themselves or repeat a decision.

The machine's interface follows the marking: inputs are the variables of
initially marked places that no transition writes, storage the rest,
outputs the variables of places with no consumers.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import NamedTuple, Optional

from . import expr as ex
from .fsmd import Assignment, DuplicateTarget, Fsmd, FsmdTransition, UpdateSet
from .pres import PresError, PresNet, Transition, Violation, classify_ports, enabled_transitions
from .record import Record


class ConvertError(Exception):
    pass


class UnsafeMarking(ConvertError):
    """Firing would put a second token on an already marked place."""


class StateBoundExceeded(ConvertError):
    def __init__(self, bound: int):
        super().__init__(f"conversion exceeded the state bound of {bound}")
        self.bound = bound


class FiringSet(NamedTuple):
    """A set of pairwise non-conflicting transitions fired in one step."""

    transitions: tuple[str, ...]
    guard_set: tuple[ex.Expr, ...]


def _conflict_groups(enabled: list[Transition]) -> list[list[Transition]]:
    """Connected components of the "input places overlap" relation.

    ``enabled`` comes in declaration order, and so do the groups (by their
    first member) and the members of each group.
    """
    parent = {t.id: t.id for t in enabled}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first_consumer: dict[str, str] = {}
    for t in enabled:
        for p in t.pre:
            other = first_consumer.setdefault(p, t.id)
            parent[find(t.id)] = find(other)
    groups: dict[str, list[Transition]] = {}
    for t in enabled:
        groups.setdefault(find(t.id), []).append(t)
    return list(groups.values())


def _decision(guard: ex.Expr) -> ex.Expr:
    """``guard``, once bool-sorted; else what normalizing it and its negation raises."""
    if getattr(guard, "_sort", None) is not ex.BOOL:
        ex.normalize(guard)
        ex.normalize(ex.negate_guard(guard))
    return guard


def _guard_set(decisions: tuple[ex.Expr, ...]) -> Optional[tuple[ex.Expr, ...]]:
    """Guard set of a choice's decisions, or None when it contradicts itself.  Only
    two or more decisions can contradict or repeat one another, so only they are normalized."""
    if len(decisions) < 2:
        return decisions
    normals: dict[ex.Expr, ex.Expr] = {}
    for guard in decisions:
        if ex.normalize(ex.negate_guard(guard)) in normals:
            return None
        normals.setdefault(ex.normalize(guard), guard)
    return tuple(normals.values())


def _parts(net: PresNet, m: frozenset[str]) -> tuple[tuple[tuple[tuple[Transition, ...], tuple], ...], ...]:
    """The conflict groups enabled at ``m`` as parts with their options.

    A group that offers a choice is one part, with one option per member; a
    run of consecutive one-member groups is one part with one option, and
    where no two enabled transitions share an input place that is the only
    part.  An option pairs its transitions, in declaration order, with its
    guard decisions as written (see :func:`_decision`).
    """
    transitions, order = net.transitions, net.order
    enabled = [transitions[i] for i in sorted(map(order.__getitem__, enabled_transitions(net, m)))]
    if not enabled:
        return ()
    presets = [t.pre for t in enabled]
    if len(frozenset().union(*presets)) == sum(map(len, presets)):  # no conflict: one part with one option
        return (((tuple(enabled), tuple([_decision(t.guard) for t in enabled if t.guard is not None])),),)
    parts = []
    for size, run in itertools.groupby(_conflict_groups(enabled), len):
        if size == 1:  # a run of groups without a choice: one part with one option
            alone = tuple([group[0] for group in run])
            parts.append(((alone, tuple([_decision(t.guard) for t in alone if t.guard is not None])),))
            continue
        for group in run:
            options = []
            for t in group:
                guard = t.guard
                if guard is None and size == 2:  # chosen unguarded, it decides against a guarded rival
                    rival = group[0] if t is group[1] else group[1]
                    guard = None if rival.guard is None else ex.negate_guard(rival.guard)
                options.append(((t,), () if guard is None else (_decision(guard),)))
            parts.append(tuple(options))
    return tuple(parts)


class Step(Record):
    """What one marking of a net offers, computed once per net and marking.

    ``parts`` (see :func:`_parts`) are empty where nothing is structurally
    enabled; a maximal step takes one option of each.  ``firings`` is the
    per-choice cache of :func:`firing`.  Steps compare and hash by identity.
    """

    __slots__ = _fields = ("parts", "firings")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, parts: tuple) -> None:
        self.parts, self.firings = parts, {}


def marking_step(net: PresNet, m: frozenset[str]) -> Step:
    """The :class:`Step` of marking ``m`` from ``net``'s table, computed on the first call."""
    step = net.steps.get(m)
    if step is None:
        step = net.steps[m] = Step(_parts(net, m))
    return step


def firing(net: PresNet, m: frozenset[str], step: Step, at: tuple[int, ...]) -> Optional[tuple]:
    """The choice of option ``at[i]`` of each part of ``step`` (the step of
    ``m``) as ``(fs, fired, successor, marked)``: its :class:`FiringSet`, its
    transitions in declaration order, the marking it leads to (or the
    :class:`UnsafeMarking` message) and that marking's places in place order;
    None where its guard decisions contradict each other.  Made on the first
    call and kept in ``step.firings``."""
    firings = step.firings
    if at in firings:
        return firings[at]
    parts = step.parts
    if len(parts) == 1:  # one option already lists its members in declaration order
        fired, decisions = parts[0][at[0]]
    else:
        choice = [options[i] for options, i in zip(parts, at)]
        fired = tuple(sorted([t for members, _ in choice for t in members], key=lambda t: net.order[t.id]))
        decisions = tuple([guard for _, guards in choice for guard in guards])
    guards = _guard_set(decisions)
    if guards is None:
        firings[at] = None
        return None
    # The members are enabled at m and share no input place: consume, then produce.
    if len(fired) == 1:  # one difference and one union
        remaining, posts = m - fired[0].pre, (fired[0].post,)
        successor = remaining | posts[0]
    else:
        remaining, posts = m.difference(*[t.pre for t in fired]), [t.post for t in fired]
        successor = remaining.union(*posts)
    marked = ()
    if len(successor) < len(remaining) + sum(map(len, posts)):  # a place gets a second token
        flat = sorted([p for post in posts for p in post], key=net.place_order.__getitem__)  # name the first in place order
        p = next(p for i, p in enumerate(flat) if p in remaining or p in flat[:i])
        successor = f"firing {sorted(t.id for t in fired)} puts a second token on {p!r}"
    else:
        marked = tuple(successor) if len(successor) == 1 else tuple(sorted(successor, key=net.place_order.__getitem__))
    made = firings[at] = (FiringSet(tuple([t.id for t in fired]), guards), fired, successor, marked)
    return made


def construct_set_of_transitions(
    net: PresNet, m: frozenset[str], warnings: Optional[list[Violation]] = None
) -> list[tuple]:
    """All maximal firing sets of a marking, in deterministic order, as :func:`firing` makes them.

    They are the product over the parts of the marking's step, the last part
    running fastest; each lists its members in declaration order and its
    guard decisions in the order of the parts.  Combinations whose guard
    decisions contain both a guard and its negation are dropped (reported
    through ``warnings`` when given).
    """
    step = marking_step(net, m)
    parts = step.parts
    if not parts:
        return []
    made: list[tuple] = []
    choices = [(i,) for i in range(len(parts[0]))] if len(parts) == 1 else itertools.product(
        *[range(len(options)) for options in parts])
    for at in choices:
        f = firing(net, m, step, at)
        if f is not None:
            made.append(f)
        elif warnings is not None:
            chosen = "+".join([t.id for options, i in zip(parts, at) for t in options[i][0]])
            warnings.append(Violation("InconsistentGuards", chosen, "contradictory guard decisions; set dropped"))
    return made


class Conversion(Record):
    """Converted machine plus the bookkeeping that ties it back to the net.

    ``fired`` holds the firing set of each machine transition, in the
    machine's order.  The sets of a state, including those that
    ``on_unsafe="reject"`` left without a transition, are the product that
    :func:`construct_set_of_transitions` makes of its marking's step.
    """

    __slots__ = ("fsmd", "marking_of_state", "fired", "warnings", "_labels")
    _fields = ("fsmd", "marking_of_state", "labels", "warnings")

    def __init__(self, fsmd: Fsmd, marking_of_state: dict[str, frozenset[str]], fired: list[FiringSet],
                 warnings: Optional[list[Violation]] = None) -> None:
        self.fsmd, self.marking_of_state, self.fired = fsmd, marking_of_state, fired
        self.warnings = [] if warnings is None else warnings
        self._labels: Optional[list[list[tuple[str, ...]]]] = None

    @property
    def labels(self) -> list[list[tuple[str, ...]]]:
        """Per machine transition, one label per update: the applied-symbol
        chain of the update expression, or the net transition's own name
        for a pass-through (identity) update.  Made on the first read."""
        labels = self._labels
        if labels is None:
            labels = self._labels = [[ex.apply_chain(a.expr) or (tid,) for a, tid in zip(t.updates, fs.transitions)]
                                     for t, fs in zip(self.fsmd.transitions, self.fired)]
        return labels

    @property
    def states_visited(self) -> int:
        return len(self.marking_of_state)


def _updates_for(net: PresNet, fired: tuple[Transition, ...]) -> UpdateSet:
    var_of, updates = net.var_of, []
    for t in fired:
        if not t.post:  # a net built in code reaches here unvalidated
            raise PresError(f"transition {t.id!r} has an empty post-set")
        updates.append(Assignment(var_of[min(t.post)], t.fn))
    return UpdateSet(updates)


def pres_to_fsmd(net: PresNet, state_bound: int = 10_000, on_unsafe: str = "error") -> Conversion:
    """Explore reachable markings breadth-first and emit the machine.

    At most ``state_bound`` (at least 1) markings become states.  A firing
    set that would make the net unsafe raises under ``on_unsafe="error"``;
    under ``"reject"`` it is dropped with a warning.  The result is
    deterministic: states are named ``q0, q1, ...`` in discovery order
    (``q0`` is the initial marking) and transitions are emitted in
    firing-set order per state.
    """
    if state_bound < 1:
        raise ValueError("state_bound must be at least 1")
    if on_unsafe not in ("error", "reject"):
        raise ValueError(f"unknown unsafe policy {on_unsafe!r}")
    ports = classify_ports(net)
    written = {net.var_of[p] for t in net.transitions for p in t.post}
    inputs = frozenset(net.var_of[p] for p in net.initial_marking) - written
    storage = frozenset(net.var_of[p] for p in net.places) - inputs
    outputs = frozenset(net.var_of[p] for p in ports.out_ports)

    m0 = frozenset(net.initial_marking)
    state_of: dict[frozenset[str], str] = {m0: "q0"}
    marking_of: dict[str, frozenset[str]] = {"q0": m0}
    transitions: list[FsmdTransition] = []
    fired: list[FiringSet] = []
    warnings: list[Violation] = []

    work: deque[frozenset[str]] = deque([m0])
    while work:
        m = work.popleft()
        q = state_of[m]
        for fs, members, succ, _ in construct_set_of_transitions(net, m, warnings):
            if type(succ) is str:
                if on_unsafe == "reject":
                    warnings.append(Violation("UnsafeMarking", "+".join(fs.transitions), succ))
                    continue
                raise UnsafeMarking(succ)
            if succ not in state_of:
                if len(state_of) >= state_bound:
                    raise StateBoundExceeded(state_bound)
                name = f"q{len(state_of)}"
                state_of[succ] = name
                marking_of[name] = succ
                work.append(succ)
            try:
                updates = _updates_for(net, members)
            except DuplicateTarget as err:
                raise DuplicateTarget(err.name, f"firing set {'+'.join(fs.transitions)} at {q}") from None
            transitions.append(FsmdTransition(q, fs.guard_set, state_of[succ], updates))
            fired.append(fs)

    machine = Fsmd(
        name=net.name,
        states=tuple(marking_of),
        reset="q0",
        inputs=inputs,
        storage=storage,
        outputs=outputs,
        transitions=tuple(transitions),
    )
    return Conversion(machine, marking_of, fired, warnings)
