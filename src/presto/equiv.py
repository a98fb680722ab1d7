"""The three checkers.

Cardinality equivalence of two nets: ports correspond one-to-one, the
initially marked in-ports correspond under the in-port map, and after
execution the marked out-ports correspond under the out-port map.
Functional equivalence adds equal token values at corresponding
out-ports, decided either symbolically (convert both nets and compare
their paths) or by sampling (compare the out-port values of both nets'
runs per input vector).  Machine equivalence compares two FSMDs
directly under an output-variable bijection.

Both symbolic routes share one path comparison: enumerate
reset-to-terminal paths, pair them by normalized condition, and require
equal normalized transforms for every mapped output.  It is sound but
incomplete: normalization is structural, so a difference is only a
disproof when a scenario vector confirms it, that is when concrete runs
of the two models on that vector give different mapped outputs;
otherwise the verdict is honest about being inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from . import expr as ex
from .convert import ConversionConfig, pres_to_fsmd
from .fsmd import Fsmd, path_enumerate, path_transformation, run_machine, validate_fsmd
from .pres import PresNet, classify_ports
from .sim import QUIESCENT, Interpretation, SimError, out_port_values, simulate_run
from .verdict import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT, Verdict


@dataclass(frozen=True)
class PortMap:
    """Bijections between the structural in-ports and out-ports of two nets."""

    in_map: dict[str, str] = field(default_factory=dict)
    out_map: dict[str, str] = field(default_factory=dict)

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


@dataclass(frozen=True)
class Sampled:
    """Decide by running both nets on the scenario's input vectors."""


@dataclass(frozen=True)
class Symbolic:
    """Decide by comparing converted path transformations; sample only to
    confirm a structural mismatch as a real counterexample."""


def derive_right_inputs(n1: PresNet, n2: PresNet, pm: PortMap, vector: dict) -> dict:
    """Initial tokens for the right net.

    Values travel through the in-port map first; initially marked places
    the map does not reach fall back to a same-named place in the vector,
    then to any vector place carrying the same variable (two input places
    sharing one variable receive one value).
    """
    inv: dict[str, int] = {}
    for p, v in vector.items():
        if p in pm.in_map:
            inv[pm.in_map[p]] = v
    by_var = {n1.var_of.get(p, p): v for p, v in vector.items()}
    for q in n2.initial_marking:
        if q in inv:
            continue
        if q in vector:
            inv[q] = vector[q]
        elif n2.var_of.get(q, q) in by_var:
            inv[q] = by_var[n2.var_of[q]]
        else:
            raise SimError(f"no input value derivable for initially marked place {q!r}")
    return inv


def check_cardinality(
    n1: PresNet,
    n2: PresNet,
    pm: PortMap,
    vectors: Sequence[dict],
    interp: Interpretation,
    max_steps: int = 1_000,
    samples: Optional[list] = None,
) -> Verdict:
    """Port bijection, initial-marking correspondence, and out-port marking
    correspondence after execution of every supplied input vector.  Each
    vector's out-port values go to ``samples``, if given, for reuse."""
    method = "cardinality(in-port marking correspondence under f_in)"
    problems = pm.problems(n1, n2)
    if problems:
        return Verdict(NOT_EQUIVALENT, method, witness={"condition": 1, "port_map": problems})

    in1 = classify_ports(n1).in_ports
    for p in sorted(in1):
        if (p in n1.initial_marking) != (pm.in_map[p] in n2.initial_marking):
            return Verdict(
                NOT_EQUIVALENT,
                method,
                witness={
                    "condition": 2,
                    "place_pair": [p, pm.in_map[p]],
                    "detail": "initial marking does not correspond",
                },
            )

    for vector in vectors:
        try:
            run1 = simulate_run(n1, dict(vector), interp, max_steps=max_steps)
            run2 = simulate_run(n2, derive_right_inputs(n1, n2, pm, dict(vector)), interp, max_steps=max_steps)
        except SimError as err:
            return Verdict(INCONCLUSIVE, method, reason=str(err))
        if run1.status != QUIESCENT or run2.status != QUIESCENT:
            return Verdict(
                INCONCLUSIVE,
                method,
                reason=f"runs ended {run1.status}/{run2.status}; no resting marking to compare",
            )
        for p in sorted(pm.out_map):
            left = p in run1.final_state
            right = pm.out_map[p] in run2.final_state
            if left != right:
                return Verdict(
                    NOT_EQUIVALENT,
                    method,
                    witness={
                        "condition": 3,
                        "place_pair": [p, pm.out_map[p]],
                        "marked": [left, right],
                        "vector": dict(vector),
                    },
                )
        if samples is not None:
            samples.append((dict(vector), out_port_values(n1, run1.final_state), out_port_values(n2, run2.final_state)))
    return Verdict(EQUIVALENT, method)


def check_functional(
    n1: PresNet,
    n2: PresNet,
    pm: PortMap,
    strategy: Sampled | Symbolic,
    vectors: Sequence[dict],
    interp: Interpretation,
    max_steps: int = 1_000,
    state_bound: int = 10_000,
    warnings: Optional[list] = None,
) -> Verdict:
    """Cardinality equivalence plus equal out-port token values.

    Each vector is simulated once per net; those runs serve the
    cardinality check, the sampled comparison and the confirmation of a
    symbolic difference.  The symbolic strategy converts both nets with
    at most ``state_bound`` states each and adds their conversion
    warnings to ``warnings``, if given.
    """
    samples: list = []
    card = check_cardinality(n1, n2, pm, vectors, interp, max_steps, samples)
    if not card.equivalent:
        return card
    places = sorted(pm.out_map.items())

    if isinstance(strategy, Sampled):
        method = "functional/sampled (holds for the supplied vectors only)"
        witness = _separating(samples, places, "out_place_pair")
        if witness is not None:
            return Verdict(NOT_EQUIVALENT, method, witness=witness)
        return Verdict(EQUIVALENT, method, witness={
            "samples": [{"vector": vector, "out_values": [out1, out2]} for vector, out1, out2 in samples]})

    conv1, conv2 = (pres_to_fsmd(net, ConversionConfig(state_bound=state_bound)) for net in (n1, n2))
    if warnings is not None:
        warnings += conv1.warnings + conv2.warnings
    # Rename the right net's input variables into the left net's, through
    # the in-port map, so transformations range over one vocabulary.
    rename = {n2.var_of[q]: ex.Var(n1.var_of[p]) for p, q in pm.in_map.items() if n2.var_of[q] != n1.var_of[p]}
    outputs = {(p, q): (n1.var_of[p], n2.var_of[q]) for p, q in places}
    diff = _match_paths(conv1.fsmd, conv2.fsmd, outputs, rename)
    return _confirmed("functional/symbolic (normalized path transformations)", diff, places, "out_place_pair", samples)


def check_fsmd_equivalence(
    m1: Fsmd,
    m2: Fsmd,
    var_map: dict[str, str],
    vectors: Iterable[dict] = (),
    interp: Optional[Interpretation] = None,
) -> Verdict:
    """Path-by-path comparison of two machines over corresponding outputs.

    Input/storage variable names are expected to coincide where the
    transforms mention them.  A difference is confirmed by running both
    machines on ``vectors`` (variable -> value), with ``interp`` for the
    applied symbols.
    """
    method = "fsmd-paths (matched by normalized condition)"
    for machine, tag in ((m1, "left"), (m2, "right")):
        issues = validate_fsmd(machine)
        if issues:
            return Verdict(INCONCLUSIVE, method, reason=f"{tag} machine invalid: {issues[0]}")
    if _bijection_problems("output", var_map, m1.outputs, m2.outputs):
        reason = f"output map must biject {sorted(m1.outputs)} onto {sorted(m2.outputs)}"
        return Verdict(INCONCLUSIVE, method, reason=reason)
    outputs = {pair: pair for pair in sorted(var_map.items())}
    diff = _match_paths(m1, m2, outputs, {})
    samples, ran = _machine_samples(m1, m2, vectors, interp) if isinstance(diff, _Mismatch) else ([], "")
    return _confirmed(method, diff, list(outputs), "variable_pair", samples, ran)


@dataclass(frozen=True)
class _Mismatch:
    condition: ex.Expr  # normalized path condition
    pair: Optional[tuple[str, str]] = None  # outputs whose normal forms differ; None: the condition is unmatched
    forms: tuple[ex.Expr, ...] = ()


def _match_paths(
    m1: Fsmd, m2: Fsmd, outputs: dict[tuple[str, str], tuple[str, str]], rename: dict[str, ex.Expr]
) -> Union[None, str, _Mismatch]:
    """Pair the reset-to-terminal paths of two loop-free machines by normalized
    condition (state names never align across independently converted
    nets; the right one's terms are read through ``rename``) and compare
    the normalized transforms of ``outputs`` (label pair -> variable pair).

    Returns ``None`` when all match, else the first :class:`_Mismatch`, or
    the reason why the paths cannot be compared.
    """
    keyed = []
    for machine, names in ((m1, {}), (m2, rename)):
        terminals = machine.terminal_states()
        if not terminals:
            return "no terminal state (the machine loops)"
        enum = path_enumerate(machine, machine.reset, terminals, bound=max(1, len(machine.states)))
        if enum.truncated:
            return "path enumeration truncated (the machine loops)"
        paths = {}
        for path in enum.paths:
            pt = path_transformation(machine, path)
            key = ex.normalize(ex.substitute(pt.condition, names))
            if key in paths:
                return "multipath: two paths share one condition"
            paths[key] = pt
        if not paths:
            return "no reset-to-terminal path"
        keyed.append(paths)
    left, right = keyed
    for key in (*left, *right):
        if (key in left) != (key in right):
            return _Mismatch(key)
    for key, pt1 in left.items():
        pt2 = right[key]
        for pair, (v1, v2) in outputs.items():
            e1 = ex.normalize(pt1.transform[v1])
            e2 = ex.normalize(ex.substitute(pt2.transform[v2], rename))
            if e1 is not e2:
                return _Mismatch(key, pair, (e1, e2))
    return None


Sample = tuple[dict, dict, dict]  # (input vector, left outputs, right outputs), outputs keyed by label


def _confirmed(
    method: str, diff: Union[None, str, _Mismatch], pairs: list, pair_key: str, samples: Iterable[Sample], ran: str = ""
) -> Verdict:
    """The verdict on a path comparison: a difference is NotEquivalent only
    when a sample separates one of the output ``pairs`` (the differing pair
    is tried first), else Inconclusive, with ``ran`` telling which vectors
    could be run."""
    if diff is None:
        return Verdict(EQUIVALENT, method)
    if isinstance(diff, str):
        return Verdict(INCONCLUSIVE, method, reason=diff)
    witness = _separating(samples, sorted(pairs, key=lambda pair: pair != diff.pair), pair_key)
    if witness is None:
        if diff.pair is None:
            reason = f"multipath: path condition {diff.condition} has no counterpart"
        else:
            reason = f"normal forms of {diff.pair[0]!r} and {diff.pair[1]!r} differ on path {diff.condition}"
        return Verdict(INCONCLUSIVE, method, reason=f"{reason} and no scenario vector separates the outputs{ran}")
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


def _machine_samples(m1: Fsmd, m2: Fsmd, vectors: Iterable[dict], interp) -> tuple[list[Sample], str]:
    """Both machines' final stores per vector that both runs finish, and a
    note saying how many vectors that was and why the first other failed."""
    samples: list[Sample] = []
    vectors, failure = list(vectors), ""
    for vector in vectors:
        try:
            out1, out2 = run_machine(m1, vector, interp), run_machine(m2, vector, interp)
        except ex.ExprError as err:
            failure = failure or f"{type(err).__name__} {getattr(err, 'name', str(err))!r}"
            continue
        if out1 is None or out2 is None:
            failure = failure or "a run got stuck or looped"
            continue
        samples.append((dict(vector), out1, out2))
    return samples, f" ({len(samples)} of {len(vectors)} vectors ran{': ' + failure if failure else ''})"
