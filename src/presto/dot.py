"""Graphviz rendering of nets and machines, with deterministic node order."""

from __future__ import annotations

from . import expr as ex
from .fsmd import Fsmd
from .pres import PresNet


def _q(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def net_to_dot(net: PresNet) -> str:
    lines = [f"digraph {_q(net.name)} {{", "  rankdir=LR;"]
    for p in net.places:
        style = ', style=filled, fillcolor="gray85"' if p in net.initial_marking else ""
        lines.append(f"  {_q(p)} [shape=circle, label={_q(p + chr(10) + net.var_of.get(p, p))}{style}];")
    for t in net.transitions:
        label = f"{t.id}\\nfn: {ex.to_text(t.fn)}"
        if t.guard is not None:
            label += f"\\nguard: {ex.to_text(t.guard)}"
        lines.append(f"  {_q(t.id)} [shape=box, label={_q(label)}];")
    for p, tid in sorted((p, t.id) for t in net.transitions for p in t.pre):
        lines.append(f"  {_q(p)} -> {_q(tid)};")
    for tid, p in sorted((t.id, p) for t in net.transitions for p in t.post):
        lines.append(f"  {_q(tid)} -> {_q(p)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def fsmd_to_dot(m: Fsmd) -> str:
    lines = [f"digraph {_q(m.name)} {{", "  rankdir=LR;"]
    for s in m.states:
        shape = "doublecircle" if s == m.reset else "ellipse"
        lines.append(f"  {_q(s)} [shape={shape}, label={_q(s)}];")
    for t in m.transitions:
        bits = []
        if t.guard_set:
            bits.append("when " + ", ".join(ex.to_text(g) for g in t.guard_set))
        for a in t.updates:
            bits.append(f"{a.target} <= {ex.to_text(a.expr)}")
        lines.append(f"  {_q(t.source)} -> {_q(t.target)} [label={_q(chr(10).join(bits))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(model) -> str:
    if isinstance(model, PresNet):
        return net_to_dot(model)
    if isinstance(model, Fsmd):
        return fsmd_to_dot(model)
    raise TypeError(f"cannot render {type(model).__name__} as DOT")
