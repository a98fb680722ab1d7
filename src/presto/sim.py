"""Concrete-token execution of nets.

Tokens carry integers; a step takes one option of each conflict group
whose guards all hold under the current token values, consumes the input
tokens and produces output tokens valued by each transition's transfer
expression.  All fired transitions read the pre-step state.  Uninterpreted
function symbols need an interpretation (:data:`presto.expr.Interpretation`):
a scenario's ``interp`` lines (:func:`interpretation`), and small affine
maps derived deterministically from a seed per symbol.

Runs stop at quiescence (nothing structurally enabled), deadlock (a
conflict group has no option whose guards hold, which blocks the whole
step), a step bound, or once a token value written has more than
:data:`presto.fsmd.MAX_VALUE_BITS` bits.  A run without a seed takes the
first holding option of each group; a run with one draws its choices
from that seed alone, so it is bit-for-bit reproducible, which is what
the schedule-independence check exploits.

A step reads the net's step table (:func:`presto.convert.marking_step`),
which the converter fills too.  It tests each group's options, never their
product, fires the choice that the step's per-choice cache makes ready
(:func:`presto.convert.firing`), and runs guards and transfer functions as
closures compiled once (:func:`presto.expr.compiled`).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional

from . import expr as ex
from .convert import FiringSet, UnsafeMarking, firing, marking_step
from .fsmd import MAX_VALUE_BITS
from .pres import PresNet, classify_ports
from .record import Record
from .verdict import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT, Verdict

TokenState = dict  # place -> int, domain = currently marked places

QUIESCENT = "Quiescent"
DEADLOCK = "Deadlock"
STEP_BOUND_EXCEEDED = "StepBoundExceeded"
VALUE_BOUND_EXCEEDED = "ValueBoundExceeded"


class SimError(Exception):
    pass


class ValueConflict(SimError):
    """Two marked input places share a variable but hold different values."""


def value_limit(*statuses: str) -> str:
    """A note naming the value bound when one of ``statuses`` ended a run on it, else ``""``."""
    return f" (a token value passed the {MAX_VALUE_BITS}-bit limit)" if VALUE_BOUND_EXCEEDED in statuses else ""


class SeededInterpretation(dict):
    """Deterministic per-symbol affine interpretations, behind explicit ones.

    The explicit functions are the entries it starts with.  Any other
    symbol ``s`` at arity ``n`` acts as ``c0 + c1*x1 + ... + cn*xn`` with
    small nonzero coefficients derived from sha256(seed, s, i), and is
    stored on its first lookup.  Distinct symbols get distinct-looking
    maps, and compositions of different symbols almost never commute,
    which makes the maps good witnesses.  Each symbol's coefficients are
    derived once, on the first call that needs them.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int, explicit: ex.Interpretation = ex.NO_FUNCTIONS):
        super().__init__(explicit)
        self.seed = seed

    def __missing__(self, symbol: str) -> Callable[..., int]:
        import hashlib  # on first use: importing it would slow every command's start

        seed = self.seed  # the function holds the seed, not the dict that holds the function
        coeffs: list[int] = []  # c0, c1, ... as far as a call has needed them

        def fn(*args: int) -> int:
            while len(coeffs) <= len(args):
                digest = hashlib.sha256(f"{seed}:{symbol}:{len(coeffs)}".encode()).digest()
                c = int.from_bytes(digest[:4], "big") % 13 - 6
                coeffs.append(c if c != 0 else 7)
            acc = coeffs[0]
            for c, a in zip(coeffs[1:], args):
                acc += c * a
            return acc

        self[symbol] = fn
        return fn


def interpretation(decls: Iterable, seed: Optional[int] = None) -> ex.Interpretation:
    """The functions of a scenario's ``interp`` lines (each with a
    ``symbol``, ``params`` and a ``body``), behind the seeded maps when
    ``seed`` is given."""
    explicit = {decl.symbol: _interpreted(decl) for decl in decls}
    return explicit if seed is None else SeededInterpretation(seed, explicit)


def _interpreted(decl) -> Callable[..., int]:
    """An ``interp`` line's body, compiled once, as a function of its
    parameters; a call with the wrong number of arguments raises
    :class:`~presto.expr.SortMismatch`.  A body applies no symbol of its
    own, and its store of parameter values is built with one dict display
    where there is one parameter, as there is in most lines."""
    symbol, params, body = decl.symbol, tuple(decl.params), ex.compiled(decl.body)
    arity = len(params)
    if arity == 1:
        (param,) = params

        def fn(*args: int) -> int:
            if len(args) != 1:
                raise _wrong_arity(symbol, 1, len(args))
            return body({param: args[0]}, ex.NO_FUNCTIONS)

        return fn

    def fn(*args: int) -> int:
        if len(args) != arity:
            raise _wrong_arity(symbol, arity, len(args))
        return body(dict(zip(params, args)), ex.NO_FUNCTIONS)

    return fn


def _wrong_arity(symbol: str, arity: int, got: int) -> ex.SortMismatch:
    return ex.SortMismatch(f"{symbol} expects {arity} arguments, got {got}")


def check_arities(decls: Iterable, terms: Iterable[ex.Expr]) -> None:
    """Raise the :class:`~presto.expr.SortMismatch` that a call would
    raise, for the first application in ``terms`` of an ``interp`` line's
    symbol to the wrong number of arguments."""
    arity = {decl.symbol: len(decl.params) for decl in decls}
    if not arity:
        return
    seen: set[ex.Expr] = set()
    stack, Apply = list(dict.fromkeys(terms)), ex.Apply  # the nets of a check share most of their terms
    stack.reverse()
    while stack:  # first application first; a shared subterm is walked once
        node = stack.pop()
        kids = node._kids
        if kids:
            if node in seen:
                continue
            seen.add(node)
            stack += kids[::-1]
        if type(node) is Apply and len(kids) != arity.get(node.symbol, len(kids)):
            raise _wrong_arity(node.symbol, arity[node.symbol], len(kids))


class RunOutcome(Record):
    """How a run ended: its status, the tokens it ended with, the firing
    set and tokens of each step, the number of steps, and whether some step
    had more than one firing set to choose from (``chose``)."""

    __slots__ = _fields = ("status", "final_state", "trace", "steps", "chose")

    def __init__(self, status: str, final_state: TokenState,
                 trace: Optional[list[tuple[FiringSet, TokenState]]] = None, steps: int = 0,
                 chose: bool = False) -> None:
        self.status, self.final_state, self.steps, self.chose = status, final_state, steps, chose
        self.trace = [] if trace is None else trace


def _values(net: PresNet, ts: TokenState) -> dict[str, int]:
    """Variable -> value over the marked places, the store a step reads.  Only
    where two marked places share a variable are the places read one by one,
    for the :class:`ValueConflict` of the first two that disagree."""
    var_of = net.var_of
    values = {var_of[p]: value for p, value in ts.items()}
    if len(values) < len(ts):
        seen: dict[str, int] = {}
        for p, value in ts.items():
            v = var_of[p]
            if seen.setdefault(v, value) != value:
                raise ValueConflict(f"marked places sharing variable {v!r} hold {seen[v]} and {value}")
    return values


def simulate_run(
    net: PresNet,
    inputs: TokenState,
    interp: ex.Interpretation,
    seed: Optional[int] = None,
    max_steps: int = 1_000,
) -> RunOutcome:
    """Iterate steps from the initial token assignment until rest or a bound.

    Each step fires one maximal step, and its values read the pre-step
    state.  Without a ``seed`` a step takes the first option that holds in
    each conflict group; with one, it draws uniformly among the maximal
    firing sets whose guards hold, from ``random.Random(seed)``.  Each
    step's tokens are a new dict that the trace keeps as it is, so the
    last trace entry is the outcome's ``final_state`` itself; no caller in
    presto changes either, and one that wants to copies it first.
    """
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


def out_port_values(net: PresNet, ts: TokenState) -> dict[str, int]:
    ports = classify_ports(net)
    return {p: ts[p] for p in sorted(ports.out_ports) if p in ts}


def confluence_check(
    net: PresNet,
    inputs: TokenState,
    interp: ex.Interpretation,
    schedules: int = 10,
    seed: int = 0,
    max_steps: int = 1_000,
) -> Verdict:
    """Run several randomized maximal schedules and compare what reaches the out-ports.

    Equivalent means every schedule quiesced with identical out-port
    tokens; a difference is returned with the two diverging traces.  A run
    in which no step had more than one firing set to choose from is the
    run of every seed, so then the first schedule is the only one run.
    """
    if schedules < 2:
        raise ValueError("confluence needs at least two schedules")
    outcomes: list[tuple[int, RunOutcome]] = []
    for i in range(schedules):
        run = simulate_run(net, inputs, interp, seed + i, max_steps)
        outcomes.append((seed + i, run))
        if not run.chose:
            break
    method = f"confluence(schedules={schedules}, seed={seed})"
    for s, run in outcomes:
        if run.status != QUIESCENT:
            reason = f"seed {s} ended {run.status} after {run.steps} steps{value_limit(run.status)}"
            return Verdict(INCONCLUSIVE, method, reason=reason)
    base_seed, base = outcomes[0]
    base_out = out_port_values(net, base.final_state)
    for s, run in outcomes[1:]:
        run_out = out_port_values(net, run.final_state)
        if run_out != base_out:
            return Verdict(
                NOT_EQUIVALENT,
                method,
                witness={
                    "seeds": [base_seed, s],
                    "out_ports": [base_out, run_out],
                    "traces": [trace_json(base), trace_json(run)],
                },
            )
    return Verdict(EQUIVALENT, method)


def trace_json(run: RunOutcome) -> dict:
    return {
        "status": run.status,
        "steps": run.steps,
        "final": {p: run.final_state[p] for p in sorted(run.final_state)},
        "trace": [
            {
                "fired": list(fs.transitions),
                "guards": [str(g) for g in fs.guard_set],
                "tokens": {p: ts[p] for p in sorted(ts)},
            }
            for fs, ts in run.trace
        ],
    }
