"""The three checkers.

Cardinality equivalence of two nets: ports correspond one-to-one, the
initially marked in-ports correspond under the in-port map, and after
execution the marked out-ports correspond under the out-port map.
Functional equivalence adds equal token values at corresponding
out-ports, decided either symbolically or by sampling (compare the
out-port values of both nets' runs per input vector).  Machine
equivalence compares two FSMDs under an output-variable bijection.

Both symbolic checks lower a net pair to machines in one way (:func:`_lower`)
and share one path comparison: cut both machines at their cutpoints, walk
the pairs of corresponding cutpoints from the reset states, pair the
segments leaving each pair by normalized condition, and require equal
normalized transforms for every mapped output where both machines stop.
Loops are decided by the correspondence of variables that holds on every
arrival at a pair.  The comparison is sound but incomplete: normalization
is structural, so a difference is only a disproof when a scenario vector
confirms it, that is when concrete runs of the two models on that vector
give different mapped outputs; otherwise the verdict is honest about being
inconclusive.  Symbolic functional equivalence also checks each conversion
against its net's runs (translation validation).
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from . import expr as ex
from .convert import pres_to_fsmd
from .fsmd import Fsmd, fresh_store, machine_run, path_cover, path_transformation, validate_fsmd
from .pres import PresNet, classify_ports
from .record import Record
from .sim import QUIESCENT, SimError, out_port_values, simulate_run, value_limit
from .verdict import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT, Verdict


class PortMapError(Exception):
    """A port map that is no bijection between nets that have one (as many
    in-ports and as many out-ports on both sides), or a variable map that is
    no bijection between two machines' outputs."""


class PortMap(NamedTuple):
    """Bijections between the structural in-ports and out-ports of two nets."""

    in_map: dict[str, str]
    out_map: dict[str, str]

    def problems(self, n1: PresNet, n2: PresNet) -> list[str]:
        out: list[str] = []
        p1, p2 = classify_ports(n1), classify_ports(n2)
        out.extend(_bijection_problems("in-port", self.in_map, p1.in_ports, p2.in_ports))
        out.extend(_bijection_problems("out-port", self.out_map, p1.out_ports, p2.out_ports))
        return out

    @classmethod
    def identity(cls, net: PresNet) -> "PortMap":
        ports = classify_ports(net)
        return cls({p: p for p in ports.in_ports}, {p: p for p in ports.out_ports})


def _bijection_problems(kind: str, mapping: dict[str, str], left: frozenset[str], right: frozenset[str]) -> list[str]:
    out = []
    if set(mapping) != set(left):
        out.append(f"{kind} map domain {sorted(mapping)} != {sorted(left)}")
    if set(mapping.values()) != set(right):
        out.append(f"{kind} map image {sorted(mapping.values())} != {sorted(right)}")
    if len(set(mapping.values())) != len(mapping):
        out.append(f"{kind} map is not injective")
    return out


def derive_right_inputs(n1: PresNet, n2: PresNet, pm: PortMap, vector: dict) -> dict:
    """Initial tokens for the right net.

    Values travel through the in-port map first; initially marked places
    the map does not reach, taken in place order, fall back to a same-named
    place in the vector, then to any vector place carrying the same
    variable (two input places sharing one variable receive one value).
    Only those places are sorted, so where the map reaches every initially
    marked place nothing is.
    """
    inv: dict[str, int] = {}
    for p, v in vector.items():
        if p in pm.in_map:
            inv[pm.in_map[p]] = v
    unreached = n2.initial_marking.difference(inv)
    if not unreached:
        return inv
    by_var = {n1.var_of.get(p, p): v for p, v in vector.items()}
    for q in sorted(unreached, key=n2.place_order.__getitem__):
        if q in vector:
            inv[q] = vector[q]
        elif n2.var_of.get(q, q) in by_var:
            inv[q] = by_var[n2.var_of[q]]
        else:
            raise SimError(f"no input value derivable for initially marked place {q!r}")
    return inv


def check_cardinality(
    n1: PresNet, n2: PresNet, pm: PortMap, vectors: Sequence[dict], interp: ex.Interpretation,
    max_steps: int = 1_000, runs: Optional[list] = None,
) -> Verdict:
    """Port bijection, initial-marking correspondence, and out-port marking
    correspondence after execution of every supplied input vector.  Each
    vector, the right net's inputs derived from it and the two runs go to
    ``runs``, if given, for reuse.  Nets with as many in-ports and out-ports
    have a port bijection, so for them a map that is none raises
    :class:`PortMapError` instead of condition 1."""
    method = "cardinality(in-port marking correspondence under f_in)"
    problems = pm.problems(n1, n2)
    if problems:
        p1, p2 = classify_ports(n1), classify_ports(n2)
        if (len(p1.in_ports), len(p1.out_ports)) == (len(p2.in_ports), len(p2.out_ports)):
            raise PortMapError(f"the port map is not a bijection: {'; '.join(problems)}")
        return Verdict(NOT_EQUIVALENT, method, witness={"condition": 1, "port_map": problems})

    for p in sorted(classify_ports(n1).in_ports):
        if (p in n1.initial_marking) != (pm.in_map[p] in n2.initial_marking):
            witness = {"condition": 2, "place_pair": [p, pm.in_map[p]], "detail": "initial marking does not correspond"}
            return Verdict(NOT_EQUIVALENT, method, witness=witness)

    out_order = sorted(pm.out_map)
    for vector in vectors:
        try:
            run1 = simulate_run(n1, dict(vector), interp, max_steps=max_steps)
            inputs2 = derive_right_inputs(n1, n2, pm, dict(vector))
            run2 = simulate_run(n2, inputs2, interp, max_steps=max_steps)
        except SimError as err:
            return Verdict(INCONCLUSIVE, method, reason=str(err))
        if run1.status != QUIESCENT or run2.status != QUIESCENT:
            reason = f"runs ended {run1.status}/{run2.status}; no resting marking to compare"
            return Verdict(INCONCLUSIVE, method, reason=reason + value_limit(run1.status, run2.status))
        for p in out_order:
            marked = [p in run1.final_state, pm.out_map[p] in run2.final_state]
            if marked[0] != marked[1]:
                witness = {"condition": 3, "place_pair": [p, pm.out_map[p]], "marked": marked, "vector": dict(vector)}
                return Verdict(NOT_EQUIVALENT, method, witness=witness)
        if runs is not None:
            runs.append((dict(vector), inputs2, run1, run2))
    return Verdict(EQUIVALENT, method)


def check_functional(
    n1: PresNet, n2: PresNet, pm: PortMap, strategy: str, vectors: Sequence[dict], interp: ex.Interpretation,
    max_steps: int = 1_000, state_bound: int = 10_000, warnings: Optional[list] = None,
) -> Verdict:
    """Cardinality equivalence plus equal out-port token values.

    ``strategy`` is a scenario's ``"sampled"`` (compare the out-port
    values of both nets' runs per vector) or ``"symbolic"`` (compare the
    paths of the machines that :func:`_lower` makes of the nets); any other
    value raises :class:`ValueError`.  Each vector is simulated once per
    net, before any path is compared, and those runs serve every check
    here: they confirm a difference or refute a match.  Each machine runs
    once per vector too: one that ends apart from its net's run at a marked
    out-port, where that run made no choice, is a fault of the conversion,
    and the verdict is Inconclusive.
    """
    if strategy not in ("sampled", "symbolic"):
        raise ValueError(f"unknown strategy {strategy!r}")
    runs: list = []
    card = check_cardinality(n1, n2, pm, vectors, interp, max_steps, runs)
    if not card.equivalent:
        return card
    samples = [(vector, out_port_values(n1, run1.final_state), out_port_values(n2, run2.final_state))
               for vector, _, run1, run2 in runs]

    if strategy == "sampled":
        method = "functional/sampled (holds for the supplied vectors only)"
        witness = _separating(samples, sorted(pm.out_map.items()), "out_place_pair")
        if witness is not None:
            return Verdict(NOT_EQUIVALENT, method, witness=witness)
        return Verdict(EQUIVALENT, method, witness={
            "samples": [{"vector": vector, "out_values": [out1, out2]} for vector, out1, out2 in samples]})

    method = "functional/symbolic (normalized path transformations)"
    low = _lower(n1, n2, pm, {}, [(vector, inputs2) for vector, inputs2, *_ in runs], state_bound, warnings)
    reason = low.invalid or _unfaithful((n1, n2), runs, samples, _machine_ends(low, interp, max_steps))
    if reason:
        return Verdict(INCONCLUSIVE, method, reason=reason)
    return _compare(method, low, low.outputs, samples, "out_place_pair")


def check_fsmd_equivalence(
    m1: Union[Fsmd, PresNet], m2: Union[Fsmd, PresNet], var_map: dict[str, str], vectors: Iterable[dict] = (),
    interp: ex.Interpretation = ex.NO_FUNCTIONS, max_steps: int = 1_000, pm: Optional[PortMap] = None,
    state_bound: int = 10_000, warnings: Optional[list] = None,
) -> Verdict:
    """Segment-by-segment comparison of two machines over corresponding outputs.

    Two nets are lowered to machines first (:func:`_lower`, with ``pm``'s
    maps, ``state_bound`` and ``warnings``).  ``var_map`` pairs the outputs;
    an empty one leaves that to the nets' out-port map, or else pairs them
    by name.  Outputs left unpaired, or a map that is no bijection of the
    outputs, raise :class:`PortMapError`.  Before the walk, both machines
    run on every one of ``vectors`` (variable -> value; place -> value for
    nets) for at most ``max_steps`` steps, with ``interp`` for the applied
    symbols; the runs confirm a difference or refute a match.
    """
    method = "fsmd-paths (matched by normalized condition)"
    if isinstance(m1, PresNet):
        pm = pm or PortMap({}, {})
        # A generator: the right inputs are derived after both nets are converted.
        low = _lower(m1, m2, pm, var_map, ((v, derive_right_inputs(m1, m2, pm, v)) for v in vectors),
                     state_bound, warnings)
    else:
        low = _Lowering((m1, m2), _invalid(m1, m2, "machine"), {}, {pair: pair for pair in var_map.items()},
                        [(vector, vector) for vector in vectors])
    m1, m2 = low.machines
    outputs = {pair: pair for pair in sorted(low.outputs.values() or [(v, v) for v in m1.outputs])}
    problems = _bijection_problems("output", dict(outputs.values()), m1.outputs, m2.outputs)
    if problems:
        unpaired = f"the scenario has no varmap and the outputs differ: {sorted(m1.outputs)} and {sorted(m2.outputs)}"
        raise PortMapError(f"the output map is not a bijection: {'; '.join(problems)}" if low.outputs else unpaired)
    if low.invalid:
        return Verdict(INCONCLUSIVE, method, reason=low.invalid)
    samples, failure = [], ""
    for (values, _), ((out1, why1), (out2, why2)) in zip(low.inputs, _machine_ends(low, interp, max_steps)):
        failure = failure or why1 or why2
        if out1 is not None and out2 is not None:
            samples.append((dict(values), out1, out2))
    ran = f" ({len(samples)} of {len(low.inputs)} vectors ran{': ' + failure if failure else ''})"
    return _compare(method, low, outputs, samples, "variable_pair", ran)


class _Lowering(NamedTuple):  # two models as machines that read one vocabulary
    machines: tuple[Fsmd, Fsmd]
    invalid: str  # the first well-formedness violation of either machine, or ""
    rename: dict[str, ex.Expr]  # right input variable -> the left variable it reads as
    outputs: dict[tuple[str, str], tuple[str, str]]  # label pair -> output variable pair
    inputs: list[tuple[dict, dict]]  # per vector, the left and the right machine's inputs


def _lower(n1: PresNet, n2: PresNet, pm: PortMap, var_map: dict[str, str], vectors: Iterable[tuple[dict, dict]],
           state_bound: int, warnings: Optional[list]) -> _Lowering:
    """Both nets converted (at most ``state_bound`` states each, warnings
    added to ``warnings``, if given), validated, and read in one vocabulary:
    the right net's input variables are renamed to the left's through the
    in-port map; ``var_map`` pairs the outputs, or else the out-port map
    does through each net's variables, labelled by out-port; and each
    machine gets the inputs its net's run gets, keyed by that net's
    variables: ``vectors`` holds per vector the left and the right net's
    initial tokens, and is read after the conversions."""
    conv1 = pres_to_fsmd(n1, state_bound)
    if warnings is not None:  # before the right net's conversion, which may raise
        warnings += conv1.warnings
    conv2 = pres_to_fsmd(n2, state_bound)
    if warnings is not None:
        warnings += conv2.warnings
    rename = {n2.var_of[q]: ex.Var(n1.var_of[p]) for p, q in pm.in_map.items() if n2.var_of[q] != n1.var_of[p]}
    outputs = ({pair: pair for pair in var_map.items()} if var_map else
               {(p, q): (n1.var_of[p], n2.var_of[q]) for p, q in sorted(pm.out_map.items())})
    inputs = [({n1.var_of[p]: v for p, v in left.items()}, {n2.var_of[q]: v for q, v in right.items()})
              for left, right in vectors]
    return _Lowering((conv1.fsmd, conv2.fsmd), _invalid(conv1.fsmd, conv2.fsmd, "conversion"), rename, outputs, inputs)


def _invalid(m1: Fsmd, m2: Fsmd, what: str) -> str:
    """The first well-formedness violation of either machine, as a reason, or ``""``."""
    for machine, tag in ((m1, "left"), (m2, "right")):
        issues = validate_fsmd(machine)
        if issues:
            return f"{tag} {what} invalid: {issues[0]}"
    return ""


def _machine_ends(low: _Lowering, interp: ex.Interpretation, max_steps: int) -> list[list[tuple]]:
    """Per vector, each machine's run on its inputs: ``(final store, "")``,
    or ``(None, why)`` for one that reached no terminal state."""
    def end(machine: Fsmd, values: dict) -> tuple[Optional[dict], str]:
        try:
            store, why = machine_run(machine, values, interp, max_steps)
        except ex.ExprError as err:
            return None, f"{type(err).__name__} {getattr(err, 'name', str(err))!r}"
        return store, why and f"a run {why}"
    return [[end(machine, values) for machine, values in zip(low.machines, pair)] for pair in low.inputs]


def _unfaithful(nets: tuple[PresNet, PresNet], runs: list, samples: list, ends: list) -> str:
    """The first side, vector and marked out-port where a machine's run ends
    apart from its net's run, else ``""``; ``samples`` holds the out-port
    values of ``runs``.  A net run that chose among firing sets or did not
    come to rest is no run to agree with."""
    for (vector, _, *net_runs), (_, *net_outs), machine_ends in zip(runs, samples, ends):
        for side, net, run, outs, (store, why) in zip(("left", "right"), nets, net_runs, net_outs, machine_ends):
            got = {p: store.get(net.var_of[p]) for p in outs} if store is not None else None
            if run.chose or run.status != QUIESCENT or got == outs:
                continue
            import json  # on first use: only a fault of presto's needs it

            at = f"the conversion of {side!r} disagrees with its net on vector {json.dumps(vector, sort_keys=True)}"
            if got is None:
                return f"{at}: the net came to rest and its machine did not ({why})"
            p = next(p for p in outs if got[p] != outs[p])
            return f"{at} at out-port {p!r}: {got[p]} against {outs[p]}"
    return ""


class _Mismatch(NamedTuple):
    condition: ex.Expr  # normalized condition of the paths where the difference shows
    reason: str  # what differs, for an Inconclusive verdict
    pair: Optional[tuple[str, str]] = None  # outputs whose normal forms differ
    forms: tuple[ex.Expr, ...] = ()
    trail: frozenset[tuple[int, str]] = frozenset()  # (side, cutpoint) a new walk may run through instead


Sample = tuple[dict, dict, dict]  # (input vector, left outputs, right outputs), outputs keyed by label


def _match_paths(
    m1: Fsmd,
    m2: Fsmd,
    outputs: dict[tuple[str, str], tuple[str, str]],
    rename: dict[str, ex.Expr],
    samples: list[Sample],
) -> Union[None, str, _Mismatch]:
    """Compare two machines segment by segment between corresponding cutpoints.

    One walk goes over pairs of cutpoints from the pair of reset states.
    At each pair it folds the segments of both machines from the pair's
    entry stores and pairs them by normalized condition (state names never
    align across independently converted nets; the right machine's
    variables are read through ``rename``); a side with one unconditional
    segment where the other branches advances alone, and segments whose
    condition is false are dropped.  A pair of terminal states compares the
    normalized transforms of ``outputs`` (label pair -> variable pair).  At
    any other pair the live variables whose terms have equal normal forms
    share one fresh symbol, the pair's correspondence; a pair is walked
    again whenever an arrival shrinks it, so on a loop the walk finds the
    correspondence that holds on every arrival.  Where a live variable has
    no partner the pair is not cut for that arrival: its terms are carried
    on, or, on a loop, where they cannot be, the variable gets a symbol of
    its own.  Moves on which one side waits, at a terminal state or while
    the other advances alone, that lead back to where they started are a
    mismatch: the moving machine can loop forever there.

    A cut can hide a relation between two symbols, so when none of
    ``samples`` separates the outputs of a mismatch found under cuts, those
    cutpoints are walked through, each at most once, and the walk starts
    again; with no cuts left the walk compares whole paths.  Differing
    outputs that still differ on a pair of whole paths are final at once.

    Returns ``None`` when all match, else the first :class:`_Mismatch`, or
    the reason why the paths cannot be compared.
    """
    for machine in (m1, m2):
        if not machine.terminal_states():
            return "no terminal state (the machine loops)"
    machines = (m1, m2)
    covers = tuple(path_cover(m, [pair[side] for pair in outputs.values()]) for side, m in enumerate(machines))
    if not (covers[0].terminal and covers[1].terminal):
        return "no reset-to-terminal path"
    identity = (fresh_store(m1), fresh_store(m2))
    entry = (identity[0], {v: rename.get(v, term) for v, term in identity[1].items()})
    separated = _separating(samples, list(outputs), "") is not None
    uncut: tuple[set[str], set[str]] = (set(), set())
    while True:
        walk = _Walk(machines, covers, identity, outputs, uncut)
        diff = walk.run(entry)
        if not isinstance(diff, _Mismatch) or separated:
            return diff
        if diff.pair is not None and walk.differs_on_whole_paths(diff):
            return diff
        more = [(side, c) for side, c in diff.trail if c not in uncut[side]
                and c not in covers[side].cyclic and c not in covers[side].terminal]
        if not more:
            return diff
        for side, c in more:
            uncut[side].add(c)


Stores = tuple[dict[str, ex.Expr], dict[str, ex.Expr]]
Classes = tuple[frozenset[tuple[int, str]], ...]  # blocks of (side, variable) with one value


class _Pair(Record):
    __slots__ = _fields = ("classes", "trail", "origin")

    def __init__(self, classes: Classes, trail: frozenset[tuple[int, str]], origin: Stores) -> None:
        self.classes, self.trail = classes, trail
        self.origin = origin  # the stores of the first arrival the pair was cut on


class _Walk:
    """One walk of :func:`_match_paths`; ``identity`` holds each machine's
    identity store and ``uncut``, per side, the cutpoints that paths run
    through instead of stopping at."""

    def __init__(self, machines, covers, identity, outputs, uncut) -> None:
        self.machines, self.covers, self.identity = machines, covers, identity
        self.outputs, self.uncut = outputs, uncut
        self.pairs: dict[tuple[str, str], _Pair] = {}
        self.queue: list[tuple[int, int, str, str]] = []  # heap of pairs to walk from, by rank
        self.queued: set[tuple[str, str]] = set()
        self.unpaired: dict[tuple[str, str], str] = {}  # loop pairs cut with a variable that has no partner
        self.meaning: dict[str, ex.Expr] = {}  # class symbol -> its term on the first arrival at its pair
        self.carried: list[tuple[tuple[str, str], Stores, frozenset]] = []  # arrivals walked on uncut, last first
        self.waiting: tuple[dict, dict] = ({}, {})  # per waiting side: pair -> (pair it moves to, condition)

    def run(self, entry: Stores) -> Union[None, str, _Mismatch]:
        start = (self.machines[0].reset, self.machines[1].reset)
        self.pairs[start] = _Pair(self._classes(start, entry), frozenset(), entry)
        diff = self._walk_from(start, entry, frozenset())
        while diff is None and (self.carried or self.queue):
            if self.carried:
                diff = self._walk_from(*self.carried.pop())
                continue
            *_, c1, c2 = heapq.heappop(self.queue)
            self.queued.discard((c1, c2))
            pair = self.pairs[c1, c2]
            diff = self._walk_from((c1, c2), self._entry((c1, c2), pair), pair.trail)
        if diff is None:
            diff = self._waiting_loop()
        if isinstance(diff, _Mismatch):
            for (c1, c2), v in self.unpaired.items():
                if {(0, c1), (1, c2)} <= diff.trail:
                    reason = f"no correspondence for {v!r} at cutpoints ({c1}, {c2}), which lie on a loop: {diff.reason}"
                    return diff._replace(reason=reason)
        return diff

    def _walk_from(self, at: tuple[str, str], stores: Stores, trail: frozenset) -> Union[None, str, _Mismatch]:
        keyed = []
        for side in (0, 1):
            paths: dict[ex.Expr, tuple[str, dict]] = {}
            for key, end, store in self._paths(side, at[side], stores[side]):
                if key in paths:
                    return "multipath: two paths share one condition"
                paths[key] = (end, store)
            keyed.append(paths)
        left, right = keyed
        moves = [(key, path, right[key]) for key, path in left.items() if key in right]
        # The side that waits at its cutpoint while the other advances: a
        # terminal state facing one that is not, or the branching side of a
        # one-sided move.  Either way the other side has a single move.
        stops = [c in self.covers[side].terminal for side, c in enumerate(at)]
        waits = stops.index(True) if stops.count(True) == 1 else None
        if len(moves) != len(left) or len(moves) != len(right):
            waits, moves = self._one_sided(at, stores, keyed)
            if not moves:
                key = next(key for key in (*left, *right) if (key in left) != (key in right))
                ends = frozenset((side, end) for side in (0, 1) for end, _ in keyed[side].values())
                return _Mismatch(key, f"multipath: path condition {key} has no counterpart", trail=trail | ends)
        for waiting in self.waiting:
            waiting.pop(at, None)
        if waits is not None:
            (key, (end1, _), (end2, _)), = moves
            self.waiting[waits][at] = ((end1, end2), key)
        for key, (end1, store1), (end2, store2) in moves:
            diff = self._arrive((end1, end2), (store1, store2), key, trail)
            if diff is not None:
                return diff
        return None

    def _one_sided(self, at: tuple[str, str], stores: Stores, keyed: list) -> tuple[Optional[int], list]:
        """The side that waits and the move for a pair whose conditions
        differ because one side has a single unconditional step, as where
        one machine joins its branches and the other keeps a copy of the
        rest in each: that side advances alone.  No move when neither side
        has such a step."""
        for side in (0, 1):
            if list(keyed[side]) == [ex.TRUE] and at[side] not in self.covers[side].terminal:
                mine, stay = keyed[side][ex.TRUE], (at[1 - side], stores[1 - side])
                return 1 - side, [(ex.TRUE, *((mine, stay) if side == 0 else (stay, mine)))]
        return None, []

    def _waiting_loop(self) -> Optional[_Mismatch]:
        """A loop of the moves on which one side waits, as the last walk of
        each pair made them: the other side's every step on it is its only
        feasible one, so that machine runs round forever while the waiting
        one stays put or stops, and no arrival at a pair shows it."""
        for side, moves in enumerate(self.waiting):
            done: set[tuple[str, str]] = set()
            for at in moves:
                chain = []
                while at in moves and at not in done:
                    done.add(at)
                    chain.append(at)
                    at = moves[at][0]
                if at in chain:
                    runs, stays = ("right", "left") if side == 0 else ("left", "right")
                    reason = f"the {runs} machine can loop forever from {at[1 - side]} while the {stays} machine waits at {at[side]}"
                    trail = frozenset((s, c) for pair in chain for s, c in enumerate(pair))
                    return _Mismatch(moves[at][1], reason, trail=trail)
        return None

    def _paths(self, side: int, start: str, store: dict) -> list[tuple[ex.Expr, str, dict]]:
        """(normalized condition, end cutpoint, store) of each feasible path
        from ``start`` to the next cutpoint that is not uncut."""
        machine, cover, uncut = self.machines[side], self.covers[side], self.uncut[side]
        out = []
        todo = [(seg, store, ()) for seg in reversed(cover.segments[start])]
        while todo:
            seg, entry, conds = todo.pop()
            pt = path_transformation(machine, seg, entry)
            conds = (*conds, pt.condition)
            end = seg[-1].target if seg else start
            if end in uncut:
                todo += [(nxt, pt.transform, conds) for nxt in reversed(cover.segments[end])]
            else:
                key = ex.normalize(ex.conj(conds))
                if key is not ex.FALSE:  # a path that no input can take
                    out.append((key, end, pt.transform))
        return out

    def _arrive(self, at: tuple[str, str], stores: Stores, key: ex.Expr, trail: frozenset) -> Optional[_Mismatch]:
        c1, c2 = at
        if c1 in self.covers[0].terminal and c2 in self.covers[1].terminal:
            for labels, (v1, v2) in self.outputs.items():
                e1, e2 = ex.normalize(stores[0][v1]), ex.normalize(stores[1][v2])
                if e1 is not e2:
                    reason = f"normal forms of {labels[0]!r} and {labels[1]!r} differ on path {key}"
                    return _Mismatch(key, reason, labels, (e1, e2), trail)
            return None
        trail = trail | {(0, c1), (1, c2)}
        classes = self._classes(at, stores)
        pair = self.pairs.get(at)
        if pair is not None:
            classes = _meet(pair.classes, classes)
        lonely = next((v for block in classes if len({side for side, _ in block}) == 1 for _, v in sorted(block)), None)
        on_loop = c1 in self.covers[0].cyclic or c2 in self.covers[1].cyclic
        if lonely is not None and not on_loop:
            self.carried.append((at, stores, trail))
            return None
        # A loop cannot be walked through; a variable with no partner there
        # gets a symbol of its own, which assumes nothing about its value.
        if lonely is not None:
            self.unpaired.setdefault(at, lonely)
        if pair is None:
            self.pairs[at] = _Pair(classes, trail, stores)
        elif len(classes) == len(pair.classes):
            pair.trail |= trail
            return None
        else:
            pair.classes, pair.trail = classes, pair.trail | trail
        if at not in self.queued:
            self.queued.add(at)
            heapq.heappush(self.queue, (self.covers[0].rank[c1], self.covers[1].rank[c2], c1, c2))
        return None

    def differs_on_whole_paths(self, diff: _Mismatch) -> bool:
        """Whether the normal forms of ``diff`` still differ with every class
        symbol replaced, back to the reset states, by its term on the first
        arrival at its pair: then one pair of whole paths differs, and no
        walk, however few cuts it makes, can match them."""
        forms = list(diff.forms)
        for _ in range(len(self.meaning) + 1):
            bound = {v: self.meaning[v] for e in forms for v in ex.free_vars(e) if v in self.meaning}
            if not bound:
                return ex.normalize(forms[0]) is not ex.normalize(forms[1])
            forms = [ex.substitute(e, bound) for e in forms]
        return False

    def _classes(self, at: tuple[str, str], stores: Stores) -> Classes:
        """The live variables at ``at`` grouped by the normal form of their term."""
        blocks: dict[ex.Expr, list[tuple[int, str]]] = {}
        for side in (0, 1):
            for v in self.covers[side].live_sorted[at[side]]:
                blocks.setdefault(ex.normalize(stores[side][v]), []).append((side, v))
        return tuple(frozenset(block) for block in blocks.values())

    def _entry(self, at: tuple[str, str], pair: _Pair) -> Stores:
        """Entry stores of a cut pair: one symbol per class, named after its
        first left variable and the pair (``d1@q1``; ``d1'@q1`` for a class
        of right variables only), which no parsed model can contain; dead
        variables are never read and keep their names."""
        suffix = f"@{at[0]}" if at[0] == at[1] else f"@{at[0]}/{at[1]}"
        stores = (dict(self.identity[0]), dict(self.identity[1]))
        for block in pair.classes:
            side, v = min(block)
            symbol = ex.Var(v + ("'" if side else "") + suffix)
            self.meaning[symbol.name] = pair.origin[side][v]
            for side, v in block:
                stores[side][v] = symbol
        return stores


def _meet(first: Classes, second: Classes) -> Classes:
    """Blocks of variables that share a block in both partitions, in the
    order of ``first`` and, within a block of it, of their least variable,
    whatever the hash seed."""
    block_of = {x: i for i, block in enumerate(second) for x in block}
    out: dict[tuple[int, int], set] = {}
    for i, block in enumerate(first):
        for x in sorted(block):
            out.setdefault((i, block_of[x]), set()).add(x)
    return tuple(frozenset(block) for block in out.values())


def _compare(method: str, low: _Lowering, outputs: dict, samples: list[Sample], pair_key: str, ran="") -> Verdict:
    """The verdict of :func:`_match_paths` on ``low``'s machines over
    ``outputs`` (label pair -> variable pair), with ``samples`` keyed by
    label: a difference is NotEquivalent only when a sample separates one
    of the output pairs (the differing pair is tried first), else
    Inconclusive, with ``ran`` telling which vectors could be run.  A match
    is Equivalent only when no sample separates the outputs either: a run
    that does is a fault of the conversion or of the walk, and it is
    NotEquivalent with that run as the witness."""
    diff = _match_paths(*low.machines, outputs, low.rename, samples)
    if diff is None:
        witness = _separating(samples, list(outputs), pair_key)
        if witness is None:
            return Verdict(EQUIVALENT, method)
        reason = "the walk had matched every path, yet a scenario vector separates the outputs: a fault in presto"
        return Verdict(NOT_EQUIVALENT, method + "+sampled", witness=witness, reason=reason)
    if isinstance(diff, str):
        return Verdict(INCONCLUSIVE, method, reason=diff)
    witness = _separating(samples, sorted(outputs, key=lambda pair: pair != diff.pair), pair_key)
    if witness is None:
        return Verdict(INCONCLUSIVE, method, reason=f"{diff.reason} and no scenario vector separates the outputs{ran}")
    witness["condition"] = str(diff.condition)
    if diff.pair is not None and witness[pair_key] == list(diff.pair):
        witness["normal_forms"] = [str(e) for e in diff.forms]
    return Verdict(NOT_EQUIVALENT, method + "+sampled", witness=witness)


def _separating(samples: Iterable[Sample], pairs: list, pair_key: str) -> Optional[dict]:
    """Witness of the first sample and output pair with two different
    concrete values, or ``None``."""
    for vector, out1, out2 in samples:
        for p, q in pairs:
            v1, v2 = out1.get(p), out2.get(q)
            if v1 is not None and v2 is not None and v1 != v2:
                return {"vector": vector, pair_key: [p, q], "values": [v1, v2]}
    return None
