"""Spans around the calls into each presto layer, installed from outside.

Each traced function is wrapped under every name a presto module binds it
to (``presto.equiv.path_transformation`` as well as
``presto.fsmd.path_transformation``), so calls are caught whichever module
makes them.  A call made while the same function is already open records no
new span.  Spans (name, start, end, parent, command id) are kept in compact
columns and summarised or written out after the run.
"""

from __future__ import annotations

import gzip
import importlib
import math
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "dsl", "pres", "convert", "sim", "fsmd", "expr", "equiv")

# (layer module, function) pairs; the span is named "<layer>.<function>".
TARGETS = (
    ("cli", "main"),
    ("dsl", "parse_pres"),
    ("dsl", "parse_scenario"),
    ("dsl", "print_fsmd"),
    ("pres", "enabled_transitions"),
    ("pres", "validate_net"),
    ("convert", "pres_to_fsmd"),
    ("convert", "construct_set_of_transitions"),
    ("sim", "simulate_run"),
    ("sim", "confluence_check"),
    ("fsmd", "path_enumerate"),
    ("fsmd", "path_transformation"),
    ("fsmd", "validate_fsmd"),
    ("expr", "substitute"),
    ("expr", "normalize"),
    ("equiv", "check_cardinality"),
    ("equiv", "check_functional"),
    ("equiv", "check_fsmd_equivalence"),
)


def term_nodes(roots) -> int:
    """Node count of the term trees under ``roots``; shared subterms count per use."""
    size: dict[int, int] = {}
    total = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if id(node) in size:
                continue
            kids = getattr(node, "args", None)
            if kids is None:
                kids = (node.lhs, node.rhs) if hasattr(node, "lhs") else ()
            if done:
                size[id(node)] = 1 + sum(size[id(k)] for k in kids)
            else:
                stack.append((node, True))
                stack.extend((k, False) for k in kids)
        total = max(total, size[id(root)])
    return total


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [f"{layer}.{fn}" for layer, fn in TARGETS]
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.command = array("l")
        self.current_command = -1
        self.stack: list[int] = []
        self.open_calls = [0] * len(self.names)
        self.counts: dict[str, float] = defaultdict(float)
        self.path_costs: list[tuple[int, int]] = []  # (path steps, ns) per path_transformation
        self.paths_by_command: dict[int, int] = defaultdict(int)
        self.longest_path: dict[int, tuple[int, object]] = {}
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Find every presto binding of the traced functions and build their wrappers."""
        modules = [importlib.import_module("presto")] + [importlib.import_module(f"presto.{m}") for m in LAYERS]
        for index, (layer, fn_name) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"presto.{layer}"), fn_name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, bound in list(vars(module).items()):
                    if bound is original:
                        self._bindings.append((module, attr, original, wrapper))

    def attach(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def detach(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _wrap(self, index: int, fn):
        observe = getattr(self, "_observe_" + self.names[index].replace(".", "_"), None)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self.open_calls[index]:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name_id.append(index)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.command.append(self.current_command)
            self.end.append(0)
            self.stack.append(span)
            self.open_calls[index] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self.open_calls[index] -= 1
                self.stack.pop()
            if observe is not None:
                observe(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the same boundaries -------------------------------

    def _observe_fsmd_path_transformation(self, span, args, result) -> None:
        steps = len(args[1])
        self.counts["fsmd.path_steps"] += steps
        self.path_costs.append((steps, self.end[span] - self.start[span]))
        # Terms are measured after the run, on each command's longest path,
        # so that walking them adds no time to the traced calls.
        if steps > self.longest_path.get(self.current_command, (-1, None))[0]:
            self.longest_path[self.current_command] = (steps, result)

    def _observe_fsmd_path_enumerate(self, span, args, result) -> None:
        self.counts["fsmd.paths"] += len(result.paths)
        self.paths_by_command[self.current_command] += len(result.paths)

    def _observe_sim_simulate_run(self, span, args, result) -> None:
        self.counts["sim.steps"] += result.steps

    def _observe_convert_pres_to_fsmd(self, span, args, result) -> None:
        self.counts["convert.states"] += result.states_visited
        self.counts["convert.fsmd_transitions"] += len(result.fsmd.transitions)
        self.counts["convert.firing_sets_dropped"] += sum(w.rule == "InconsistentGuards" for w in result.warnings)

    def _observe_dsl_parse_pres(self, span, args, result) -> None:
        self.counts["dsl.bytes"] += len(args[0])

    def _observe_dsl_parse_scenario(self, span, args, result) -> None:
        self.counts["dsl.bytes"] += len(args[0])

    # -- summary -------------------------------------------------------------

    def spans(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: inclusive ms and calls per function, self ms and share per layer."""
        n = len(self.start)
        inclusive = [0] * len(self.names)
        calls = [0] * len(self.names)
        exclusive = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            k = self.name_id[i]
            inclusive[k] += self.end[i] - self.start[i]
            calls[k] += 1
            p = self.parent[i]
            if p >= 0:
                exclusive[p] -= self.end[i] - self.start[i]
        layer_self: dict[str, int] = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            layer_self[self.names[self.name_id[i]].split(".")[0]] += exclusive[i]
        total = sum(layer_self.values()) or 1

        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.ms"] = inclusive[k] / 1e6
            out[f"{name}.calls"] = calls[k]
        for layer, ns in layer_self.items():
            out[f"{layer}.self_ms"] = ns / 1e6
            out[f"{layer}.share_pct"] = 100.0 * ns / total
        out.update(self.counts)
        out["fsmd.term_nodes_max"] = max(
            (term_nodes([pt.condition, *pt.transform.values()]) for _, pt in self.longest_path.values()), default=0
        )
        steps = self.counts.get("sim.steps", 0)
        out["sim.us_per_step"] = out["sim.simulate_run.ms"] * 1e3 / steps if steps else 0.0
        out["fsmd.path_transformation.exponent"] = slope(self.path_costs)
        normalize_ns: dict[int, int] = defaultdict(int)
        normalize_id = self.names.index("expr.normalize")
        for i in range(n):
            if self.name_id[i] == normalize_id:
                normalize_ns[self.command[i]] += self.end[i] - self.start[i]
        out["expr.normalize.exponent"] = slope(
            [(paths, normalize_ns[c]) for c, paths in self.paths_by_command.items() if normalize_ns[c]]
        )
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated rows: name, start ns, end ns, parent row, command."""
        base = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcommand\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i] - base}\t{self.end[i] - base}\t"
                    f"{self.parent[i]}\t{self.command[i]}\n"
                )


def slope(points) -> float:
    """Least-squares slope of log(cost) against log(size); 0.0 when size does not vary."""
    points = [(x, y) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    pts = [(math.log(x), math.log(y)) for x, y in points]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
