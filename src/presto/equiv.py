"""The three checkers.

Cardinality equivalence of two nets: ports correspond one-to-one, the
initially marked in-ports correspond under the in-port map, and after
execution the marked out-ports correspond under the out-port map.
Functional equivalence adds equal token values at corresponding
out-ports, decided either symbolically (convert both nets, compare
normalized path transformations per out-port, matching paths by their
normalized conditions) or by sampling (run both simulators per input
vector).  Machine equivalence compares two FSMDs directly: enumerate
reset-to-terminal paths, pair them by condition, and require equal
normalized transforms for every output variable under the supplied
output-variable bijection.

The symbolic route is sound but incomplete: normalization is
structural, so a mismatch of normal forms is only a disproof when a
concrete counterexample confirms it; otherwise the verdict is honest
about being inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import expr as ex
from .convert import ConversionConfig, pres_to_fsmd
from .fsmd import Fsmd, path_enumerate, path_transformation, validate_fsmd
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
) -> Verdict:
    """Port bijection, initial-marking correspondence, and out-port marking
    correspondence after execution of every supplied input vector."""
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
    return Verdict(EQUIVALENT, method)


def _single_paths(machine: Fsmd) -> tuple[Optional[dict], Optional[str]]:
    """Reset-to-terminal path transformations keyed by normalized condition."""
    terminals = machine.terminal_states()
    if not terminals:
        return None, "no terminal state (the machine loops)"
    enum = path_enumerate(machine, machine.reset, terminals, bound=max(1, len(machine.states)))
    if enum.truncated:
        return None, "path enumeration truncated (the machine loops)"
    keyed: dict = {}
    for path in enum.paths:
        pt = path_transformation(machine, path)
        key = ex.normalize(pt.condition)
        if key in keyed:
            return None, "multipath: two paths share one condition"
        keyed[key] = pt
    if not keyed:
        return None, "no reset-to-terminal path"
    return keyed, None


def check_functional(
    n1: PresNet,
    n2: PresNet,
    pm: PortMap,
    strategy: Sampled | Symbolic,
    vectors: Sequence[dict],
    interp: Interpretation,
    max_steps: int = 1_000,
) -> Verdict:
    """Cardinality equivalence plus equal out-port token values."""
    card = check_cardinality(n1, n2, pm, vectors, interp, max_steps)
    if not card.equivalent:
        return card

    if isinstance(strategy, Sampled):
        return _functional_sampled(n1, n2, pm, vectors, interp, max_steps)
    return _functional_symbolic(n1, n2, pm, vectors, interp, max_steps)


def _functional_sampled(n1, n2, pm, vectors, interp, max_steps) -> Verdict:
    method = "functional/sampled (holds for the supplied vectors only)"
    pairs = []
    for vector in vectors:
        run1 = simulate_run(n1, dict(vector), interp, max_steps=max_steps)
        run2 = simulate_run(n2, derive_right_inputs(n1, n2, pm, dict(vector)), interp, max_steps=max_steps)
        out1 = out_port_values(n1, run1.final_state)
        out2 = out_port_values(n2, run2.final_state)
        for p in sorted(pm.out_map):
            v1 = out1.get(p)
            v2 = out2.get(pm.out_map[p])
            if v1 != v2:
                return Verdict(
                    NOT_EQUIVALENT,
                    method,
                    witness={
                        "vector": dict(vector),
                        "out_place_pair": [p, pm.out_map[p]],
                        "values": [v1, v2],
                    },
                )
        pairs.append({"vector": dict(vector), "out_values": [out1, out2]})
    return Verdict(EQUIVALENT, method, witness={"samples": pairs})


def _functional_symbolic(n1, n2, pm, vectors, interp, max_steps) -> Verdict:
    method = "functional/symbolic (normalized path transformations)"
    conv1 = pres_to_fsmd(n1, ConversionConfig())
    conv2 = pres_to_fsmd(n2, ConversionConfig())

    paths1, why1 = _single_paths(conv1.fsmd)
    paths2, why2 = _single_paths(conv2.fsmd)
    if paths1 is None or paths2 is None:
        return Verdict(INCONCLUSIVE, method, reason=why1 or why2 or "multipath")

    # Rename the right net's input variables into the left net's, through
    # the in-port map, so transformations range over one vocabulary.
    rename = {
        n2.var_of[pm.in_map[p]]: ex.Var(n1.var_of[p])
        for p in pm.in_map
    }

    keyed2 = {}
    for key, pt in paths2.items():
        keyed2[ex.normalize(ex.substitute(key, rename))] = pt
    if set(paths1) != set(keyed2):
        return Verdict(INCONCLUSIVE, method, reason="multipath: path conditions do not correspond")

    out_vars = [(n1.var_of[p], n2.var_of[pm.out_map[p]], p) for p in sorted(pm.out_map)]
    for key, pt1 in paths1.items():
        pt2 = keyed2[key]
        for v1, v2, place in out_vars:
            e1 = ex.normalize(pt1.transform[v1])
            e2 = ex.normalize(ex.substitute(pt2.transform[v2], rename))
            if e1 != e2:
                counter = _find_counterexample(n1, n2, pm, vectors, interp, max_steps)
                if counter is not None:
                    return Verdict(NOT_EQUIVALENT, method + "+sampled", witness=counter)
                return Verdict(
                    INCONCLUSIVE,
                    method,
                    reason=f"normal forms differ for out-port {place!r} and no counterexample was found",
                )
    return Verdict(EQUIVALENT, method)


def _find_counterexample(n1, n2, pm, vectors, interp, max_steps) -> Optional[dict]:
    sampled = _functional_sampled(n1, n2, pm, vectors, interp, max_steps)
    return sampled.witness if sampled.status == NOT_EQUIVALENT else None


def check_fsmd_equivalence(m1: Fsmd, m2: Fsmd, var_map: dict[str, str]) -> Verdict:
    """Path-by-path comparison of two machines over corresponding outputs.

    Paths are matched by normalized condition (state names never align
    across independently converted nets), and matched paths must give
    structurally equal transforms for every mapped output variable.
    Input/storage variable names are expected to coincide where the
    transforms mention them.
    """
    method = "fsmd-paths (matched by normalized condition)"
    for machine, tag in ((m1, "left"), (m2, "right")):
        issues = validate_fsmd(machine)
        if issues:
            return Verdict(INCONCLUSIVE, method, reason=f"{tag} machine invalid: {issues[0]}")
    if set(var_map) != set(m1.outputs) or set(var_map.values()) != set(m2.outputs) or len(
        set(var_map.values())
    ) != len(var_map):
        return Verdict(
            INCONCLUSIVE,
            method,
            reason=f"output map must biject {sorted(m1.outputs)} onto {sorted(m2.outputs)}",
        )

    paths1, why1 = _single_paths(m1)
    paths2, why2 = _single_paths(m2)
    if paths1 is None or paths2 is None:
        return Verdict(INCONCLUSIVE, method, reason=why1 or why2)

    for key in paths1:
        if key not in paths2:
            return Verdict(
                NOT_EQUIVALENT,
                method,
                witness={"orphan_path": "left", "condition": str(key)},
            )
    for key in paths2:
        if key not in paths1:
            return Verdict(
                NOT_EQUIVALENT,
                method,
                witness={"orphan_path": "right", "condition": str(key)},
            )

    for key, pt1 in paths1.items():
        pt2 = paths2[key]
        for v in sorted(var_map):
            e1 = ex.normalize(pt1.transform[v])
            e2 = ex.normalize(pt2.transform[var_map[v]])
            if e1 != e2:
                return Verdict(
                    NOT_EQUIVALENT,
                    method,
                    witness={
                        "variable_pair": [v, var_map[v]],
                        "condition": str(key),
                        "normal_forms": [str(e1), str(e2)],
                    },
                )
    return Verdict(EQUIVALENT, method)
