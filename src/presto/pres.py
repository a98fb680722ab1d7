"""Valued, guarded Petri-net dataflow models (safe nets, 0/1 markings).

A net is places plus transitions.  Every place carries a variable; every
transition carries its pre-set and post-set (the places of its input and
output arcs), an integer transfer expression ``fn`` over its input-place
variables and an optional boolean guard over the same variables.  All
places in one transition's post-set share a single variable, because the
transition produces one value.

Nets are treated as immutable after construction; all queries here are
pure and safe for concurrent readers.  A net also carries a table of what
each marking offers, its conflict groups with their options and the choices
made ready to fire, which conversion and simulation fill lazily and share
(see :func:`presto.convert.marking_step`), and its ports, which
:func:`classify_ports` keeps on first use; both are deterministic, so two
readers that fill one at once compute the same value.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from . import expr as ex
from .record import Record


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
    pre: frozenset[str]
    post: frozenset[str]
    fn: ex.Expr
    guard: Optional[ex.Expr] = None  # absent means "always true"


class Adjacency(NamedTuple):
    preset_of: frozenset[str]
    postset_of: frozenset[str]


class Ports(NamedTuple):
    in_ports: frozenset[str]
    out_ports: frozenset[str]


class PresNet(Record):
    """The net itself.  Mutation after construction is not supported.

    Besides its fields a net holds its indices: the ids of the consumers of
    each place in declaration order, and the declaration index of each
    transition (``order``) and place (``place_order``).  A transition id
    declared twice is indexed by its last declaration, and
    :meth:`transition` looks an id up.  ``steps`` maps a marking to its
    ``convert.Step``, filled on first use, and ``ports`` is set by the
    first :func:`classify_ports`.  None of these takes part in the repr or
    in equality.
    """

    __slots__ = ("name", "places", "var_of", "transitions", "initial_marking",
                 "_consumers", "order", "place_order", "steps", "ports")
    _fields = ("name", "places", "var_of", "transitions", "initial_marking")

    def __init__(self, name: str, places: tuple[str, ...], var_of: Mapping[str, str],
                 transitions: tuple[Transition, ...], initial_marking: frozenset[str]) -> None:
        self.name, self.places, self.var_of, self.transitions = name, places, var_of, transitions
        self.initial_marking = initial_marking
        self.order = {t.id: i for i, t in enumerate(transitions)}
        self.place_order = {p: i for i, p in enumerate(places)}
        self.steps: dict = {}
        self.ports: Optional[Ports] = None
        # One pass over the presets; an undeclared place is left out (validate_net
        # reports it).  Producers, which only adjacency and classify_ports ask
        # for, are read from the postsets.
        self._consumers = consumers = dict.fromkeys(places, ())
        for tid, i in self.order.items():
            for p in transitions[i].pre:
                if p in consumers:
                    consumers[p] += (tid,)

    def _replace(self, **changes) -> "PresNet":
        """A new net with ``changes`` applied to the fields; its indices and
        its step table are built afresh."""
        return PresNet(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def transition(self, tid: str) -> Transition:
        try:
            return self.transitions[self.order[tid]]
        except KeyError:
            raise UnknownElement(tid) from None


def adjacency(net: PresNet, element: str) -> Adjacency:
    """Pre-set and post-set of a place or transition.

    For a transition these are its input and output places; for a place,
    the transitions producing into it and consuming from it.
    """
    if element in net.order:
        t = net.transition(element)
        return Adjacency(t.pre, t.post)
    if element in net._consumers:
        transitions = net.transitions
        producers = frozenset(tid for tid, i in net.order.items() if element in transitions[i].post)
        return Adjacency(producers, frozenset(net._consumers[element]))
    raise UnknownElement(element)


def classify_ports(net: PresNet) -> Ports:
    """In-ports (no producer) and out-ports (no consumer); classified on the
    first call and kept on the net."""
    ports = net.ports
    if ports is None:
        transitions = net.transitions
        produced = set().union(*[transitions[i].post for i in net.order.values()])
        in_ports = frozenset(p for p in net.places if p not in produced)
        out_ports = frozenset(p for p in net.places if not net._consumers[p])
        ports = net.ports = Ports(in_ports, out_ports)
    return ports


def enabled_transitions(net: PresNet, m: frozenset[str]) -> frozenset[str]:
    """Structurally enabled transitions: every input place is marked.

    Guards are not consulted here; the converter resolves them
    symbolically and the simulator concretely.  Only consumers of marked
    places are looked at, so a transition without input places (which
    :func:`validate_net` rejects) is never enabled.
    """
    consumers, order, transitions = net._consumers, net.order, net.transitions
    return frozenset([t for t in set().union(*[consumers[p] for p in m if p in consumers])
                      if transitions[order[t]].pre <= m])


def validate_net(net: PresNet) -> list[Violation]:
    """All well-formedness violations; an empty list means the net is sound.

    Every net rule lives here, for a net read from text as for one built in
    code.  The structure rules (duplicate names, transitions without a
    ``fn``, presets and postsets naming an undeclared place, places without
    a variable, undeclared marked places) each test the net, or each
    transition, on the indices first and build their messages only when
    the test fails.  The content rules (emptiness, presets and postsets,
    postset variables, and the sorts and scope of each transition's terms)
    run on every transition that has a ``fn``, on its own sets.  Violations
    come in declaration order, sorted within a transition; marked places,
    which have no declaration order, come sorted.
    """
    out: list[Violation] = []
    places, transitions, place_order, order = net.places, net.transitions, net.place_order, net.order
    if (len(place_order) < len(places) or len(order) < len(transitions) or not place_order.keys().isdisjoint(order)
            or any(t.fn is None for t in transitions)):
        seen: set[str] = set()
        for p in places:
            if p in seen:
                out.append(Violation("DuplicateName", p, "place declared twice"))
            seen.add(p)
        for tid, _, _, fn, _ in transitions:
            if tid in seen:
                out.append(Violation("DuplicateName", tid, "name already declared"))
            seen.add(tid)
            if fn is None:
                out.append(Violation("MissingFunction", tid, "transition has no fn clause"))

    var_of = net.var_of
    last = [transitions[i] for i in order.values()]  # each id's last declaration
    if not places:
        out.append(Violation("EmptyPlaces", net.name, "a net needs at least one place"))
    if not transitions:
        out.append(Violation("EmptyTransitions", net.name, "a net needs at least one transition"))
    if not any(t.pre for t in last):
        out.append(Violation("EmptyInputArcs", net.name, "a net needs at least one input arc"))

    declared = place_order.keys()
    if not declared >= set().union(*[t.pre for t in last], *[t.post for t in last]):
        for tid, pre, post, _, _ in last:
            if not (declared >= pre and declared >= post):
                out += [Violation("UnknownPlace", p, f"in transition {tid}")
                        for p in sorted((pre | post).difference(declared))]

    if not declared <= var_of.keys():
        out += [Violation("MissingVariable", p, "place has no associated variable") for p in place_order
                if p not in var_of]
    if not declared >= net.initial_marking:
        out += [Violation("UnknownPlace", p, "initial marking references an undeclared place")
                for p in sorted(net.initial_marking.difference(place_order))]

    for tid, pre, post, fn, guard in transitions:
        if fn is None:  # reported as MissingFunction
            continue
        if not pre:
            out.append(Violation("EmptyPreset", tid, "transition has no input places"))
        if not post:
            out.append(Violation("EmptyPostset", tid, "transition has no output places"))
        if len(post) > 1:
            post_vars = {var_of[p] for p in post if p in var_of}
            if len(post_vars) > 1:
                out.append(Violation("PostsetVariableMismatch", tid, f"variables {sorted(post_vars)}"))

        # An undeclared place (reported above) reads as the variable the
        # reader would give it, its own name, so its reads add no fault.
        scope = set()  # filled by a loop: before Python 3.12 a set comprehension is one more call per transition
        for p in pre:
            scope.add(var_of.get(p, p))
        try:
            if ex.sort_of(fn) != ex.INT:
                out.append(Violation("IllSortedFunction", tid, "fn is not integer-sorted"))
        except ex.SortMismatch as err:
            out.append(Violation("IllSortedFunction", tid, str(err)))
        reads = ex.free_vars(fn)
        if not reads <= scope:
            for v in sorted(reads - scope):
                out.append(Violation("FunctionScopeViolation", tid, f"fn reads {v!r} outside the input variables"))
        if guard is not None:
            try:
                if ex.sort_of(guard) != ex.BOOL:
                    out.append(Violation("IllSortedGuard", tid, "guard is not boolean-sorted"))
            except ex.SortMismatch as err:
                out.append(Violation("IllSortedGuard", tid, str(err)))
            reads = ex.free_vars(guard)
            if not reads <= scope:
                for v in sorted(reads - scope):
                    out.append(Violation("GuardScopeViolation", tid, f"guard reads {v!r} outside the input variables"))

    return out
