"""Valued, guarded Petri-net dataflow models (safe nets, 0/1 markings).

A net is places plus transitions wired by input and output arcs.  Every
place carries a variable; every transition carries an integer transfer
expression ``fn`` over its input-place variables and an optional boolean
guard over the same variables.  All places in one transition's post-set
share a single variable, because the transition produces one value.

Nets are treated as immutable after construction; all queries here are
pure and safe for concurrent readers.  A net also carries a table of what
each marking offers, which conversion and simulation fill lazily (see
:func:`presto.convert.marking_step`); its entries are deterministic, so
two readers that fill one entry at once compute the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional

from . import expr as ex


class PresError(Exception):
    pass


class UnknownElement(PresError):
    def __init__(self, name: str):
        super().__init__(f"unknown place or transition {name!r}")
        self.name = name


class Violation(NamedTuple):
    """A broken well-formedness rule, naming the offending element."""

    rule: str
    element: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.rule}: {self.element}"
        return f"{msg} ({self.detail})" if self.detail else msg


class Transition(NamedTuple):
    id: str
    fn: ex.Expr
    guard: Optional[ex.Expr] = None  # absent means "always true"


Marking = frozenset  # frozenset[str]; the canonical form is the sorted name list


class Adjacency(NamedTuple):
    preset_of: frozenset[str]
    postset_of: frozenset[str]


class Ports(NamedTuple):
    in_ports: frozenset[str]
    out_ports: frozenset[str]
    initially_marked: frozenset[str]


@dataclass
class PresNet:
    """The net itself.  Mutation after construction is not supported."""

    name: str
    places: tuple[str, ...]
    var_of: Mapping[str, str]
    transitions: tuple[Transition, ...]
    input_arcs: frozenset[tuple[str, str]]  # (place, transition)
    output_arcs: frozenset[tuple[str, str]]  # (transition, place)
    initial_marking: frozenset[str]
    _pre_t: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _post_t: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _pre_p: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _post_p: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    order: dict[str, int] = field(init=False, repr=False, compare=False)  # transition id -> declaration index
    steps: dict = field(init=False, repr=False, compare=False)  # marking -> convert.Step, filled on first use

    def __post_init__(self) -> None:
        self.order = {t.id: i for i, t in enumerate(self.transitions)}
        self.steps = {}
        pre_t: dict[str, set[str]] = {t.id: set() for t in self.transitions}
        post_t: dict[str, set[str]] = {t.id: set() for t in self.transitions}
        pre_p: dict[str, set[str]] = {p: set() for p in self.places}
        post_p: dict[str, set[str]] = {p: set() for p in self.places}
        for p, t in self.input_arcs:
            if t in pre_t:
                pre_t[t].add(p)
            if p in post_p:
                post_p[p].add(t)
        for t, p in self.output_arcs:
            if t in post_t:
                post_t[t].add(p)
            if p in pre_p:
                pre_p[p].add(t)
        self._pre_t = {k: frozenset(v) for k, v in pre_t.items()}
        self._post_t = {k: frozenset(v) for k, v in post_t.items()}
        self._pre_p = {k: frozenset(v) for k, v in pre_p.items()}
        self._post_p = {k: frozenset(v) for k, v in post_p.items()}

    def transition(self, tid: str) -> Transition:
        try:
            return self.transitions[self.order[tid]]
        except KeyError:
            raise UnknownElement(tid) from None

    def preset(self, tid: str) -> frozenset[str]:
        """Input places of a transition."""
        try:
            return self._pre_t[tid]
        except KeyError:
            raise UnknownElement(tid) from None

    def postset(self, tid: str) -> frozenset[str]:
        """Output places of a transition."""
        try:
            return self._post_t[tid]
        except KeyError:
            raise UnknownElement(tid) from None

    def preset_vars(self, tid: str) -> frozenset[str]:
        return frozenset(self.var_of[p] for p in self.preset(tid) if p in self.var_of)

    def postset_var(self, tid: str) -> str:
        post = sorted(self.postset(tid))
        if not post:
            raise PresError(f"transition {tid!r} has an empty post-set")
        return self.var_of[post[0]]


def adjacency(net: PresNet, element: str) -> Adjacency:
    """Pre-set and post-set of a place or transition.

    For a transition these are its input and output places; for a place,
    the transitions producing into it and consuming from it.
    """
    if element in net._pre_t:
        return Adjacency(net._pre_t[element], net._post_t[element])
    if element in net._pre_p:
        return Adjacency(net._pre_p[element], net._post_p[element])
    raise UnknownElement(element)


def classify_ports(net: PresNet) -> Ports:
    in_ports = frozenset(p for p in net.places if not net._pre_p[p])
    out_ports = frozenset(p for p in net.places if not net._post_p[p])
    return Ports(in_ports, out_ports, net.initial_marking)


def enabled_transitions(net: PresNet, m: frozenset[str]) -> frozenset[str]:
    """Structurally enabled transitions: every input place is marked.

    Guards are not consulted here; the converter resolves them
    symbolically and the simulator concretely.  Only consumers of marked
    places are looked at, so a transition without input places (which
    :func:`validate_net` rejects) is never enabled.
    """
    consumers = set().union(*(net._post_p.get(p, ()) for p in m))
    return frozenset(t for t in consumers if net._pre_t[t] <= m)


def validate_net(net: PresNet) -> list[Violation]:
    """All well-formedness violations; an empty list means the net is sound."""
    out: list[Violation] = []
    place_set = set(net.places)
    trans_ids = [t.id for t in net.transitions]
    trans_set = set(trans_ids)

    seen: set[str] = set()
    for p in net.places:
        if p in seen:
            out.append(Violation("DuplicateName", p, "place declared twice"))
        seen.add(p)
    seen = set()
    for tid in trans_ids:
        if tid in seen:
            out.append(Violation("DuplicateName", tid, "transition declared twice"))
        seen.add(tid)
        if tid in place_set:
            out.append(Violation("DuplicateName", tid, "name used for both a place and a transition"))

    if not net.places:
        out.append(Violation("EmptyPlaces", net.name, "a net needs at least one place"))
    if not net.transitions:
        out.append(Violation("EmptyTransitions", net.name, "a net needs at least one transition"))
    if not net.input_arcs:
        out.append(Violation("EmptyInputArcs", net.name, "a net needs at least one input arc"))

    for p, t in net.input_arcs:
        if p not in place_set:
            out.append(Violation("UnknownPlace", p, f"input arc ({p}, {t})"))
        if t not in trans_set:
            out.append(Violation("UnknownTransition", t, f"input arc ({p}, {t})"))
    for t, p in net.output_arcs:
        if p not in place_set:
            out.append(Violation("UnknownPlace", p, f"output arc ({t}, {p})"))
        if t not in trans_set:
            out.append(Violation("UnknownTransition", t, f"output arc ({t}, {p})"))

    for p in net.places:
        if p not in net.var_of:
            out.append(Violation("MissingVariable", p, "place has no associated variable"))

    for p in net.initial_marking:
        if p not in place_set:
            out.append(Violation("UnknownPlace", p, "initial marking references an undeclared place"))

    for t in net.transitions:
        pre = net._pre_t.get(t.id, frozenset())
        post = net._post_t.get(t.id, frozenset())
        if not pre:
            out.append(Violation("EmptyPreset", t.id, "transition has no input places"))
        if not post:
            out.append(Violation("EmptyPostset", t.id, "transition has no output places"))
        post_vars = {net.var_of[p] for p in post if p in net.var_of}
        if len(post_vars) > 1:
            out.append(Violation("PostsetVariableMismatch", t.id, f"variables {sorted(post_vars)}"))

        scope = frozenset(net.var_of[p] for p in pre if p in net.var_of)
        try:
            if ex.sort_of(t.fn) != ex.INT:
                out.append(Violation("IllSortedFunction", t.id, "fn is not integer-sorted"))
        except ex.SortMismatch as err:
            out.append(Violation("IllSortedFunction", t.id, str(err)))
        for v in sorted(ex.free_vars(t.fn) - scope):
            out.append(Violation("FunctionScopeViolation", t.id, f"fn reads {v!r} outside the input variables"))
        if t.guard is not None:
            try:
                if ex.sort_of(t.guard) != ex.BOOL:
                    out.append(Violation("IllSortedGuard", t.id, "guard is not boolean-sorted"))
            except ex.SortMismatch as err:
                out.append(Violation("IllSortedGuard", t.id, str(err)))
            for v in sorted(ex.free_vars(t.guard) - scope):
                out.append(Violation("GuardScopeViolation", t.id, f"guard reads {v!r} outside the input variables"))

    return out
