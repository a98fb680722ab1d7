"""Command-line front end.

Exit codes are a function of the result alone: 0 success/equivalent,
1 not equivalent, 2 inconclusive (or a run that did not quiesce),
3 usage, parse or scenario errors (such as a port map that is wrong for
the nets) and internal errors (one line, no traceback), so no crash can
pass for a verdict.  ``--json FILE`` additionally writes the structured
report.  Set ``PRESTO_COLOR=0`` to disable ANSI styling.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Optional

from . import dot, dsl, expr as ex
from .convert import Conversion, ConvertError, pres_to_fsmd
from .equiv import (
    PortMap,
    PortMapError,
    check_cardinality,
    check_functional,
    check_fsmd_equivalence,
    derive_right_inputs,
)
from .fsmd import Fsmd, FsmdError, validate_fsmd
from .pres import PresNet
from .sim import (
    QUIESCENT,
    SimError,
    check_arities,
    confluence_check,
    interpretation,
    out_port_values,
    simulate_run,
    trace_json,
    value_limit,
)
from .verdict import Verdict

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _color_enabled() -> bool:
    if os.environ.get("PRESTO_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _styled(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _color_enabled() else text


def _verdict_line(v: Verdict) -> str:
    colors = {"Equivalent": "32", "NotEquivalent": "31", "Inconclusive": "33"}
    line = _styled(v.status, colors[v.status]) + f"  [{v.method}]"
    if v.reason:
        line += f"\n  reason: {v.reason}"
    if v.witness is not None:
        import json  # on first use: importing it would slow every command's start

        line += f"\n  witness: {json.dumps(v.witness, sort_keys=True)}"
    return line


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise UsageError(str(err)) from None


def _load_model(path: str):
    text = _read(path)
    if path.endswith(".fsmd"):
        return dsl.parse_fsmd(text)
    return dsl.parse_pres(text)


def _write_json(path: Optional[str], payload: dict) -> None:
    if not path:
        return
    import json

    _write(path, json.dumps({"schemaVersion": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True) + "\n")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(str(err)) from None


def cmd_validate(args) -> int:
    try:
        model = _load_model(args.file)
    except dsl.DslSemanticError as err:
        _write_json(args.json, {"command": "validate", "ok": False, "violations": [str(v) for v in err.violations]})
        print("invalid:")
        for v in err.violations:
            at = err.spans.get(v.element)
            print(f"  {at}: {v}" if at else f"  {v}")
        return 3
    _write_json(args.json, {"command": "validate", "ok": True, "violations": []})
    kind = "fsmd" if isinstance(model, Fsmd) else "net"
    print(f"ok: {kind} {model.name} is well-formed")
    return 0


def cmd_convert(args) -> int:
    net = _load_model(args.net)
    if not isinstance(net, PresNet):
        raise UsageError("convert expects a net file")
    conv = pres_to_fsmd(net, args.state_bound, args.on_unsafe)
    text = dsl.print_fsmd(conv.fsmd)
    if args.output:
        _write(args.output, text)
    warnings = conv.warnings + validate_fsmd(conv.fsmd)  # a machine that validate rejects is still written
    _warn(warnings)
    print(f"states: {conv.states_visited}", file=sys.stderr)
    if args.json:
        _write_json(args.json, _conversion_json(conv, warnings))
    if not args.output:
        print(text, end="")
    return 0


def _conversion_json(conv: Conversion, warnings: list) -> dict:
    return {
        "command": "convert",
        "states": conv.states_visited,
        "state_markings": {q: sorted(m) for q, m in conv.marking_of_state.items()},
        "transitions": [
            {
                "source": t.source,
                "target": t.target,
                "guards": [str(g) for g in t.guard_set],
                "updates": {a.target: str(a.expr) for a in t.updates},
                "labels": [list(chain) for chain in labels],
            }
            for t, labels in zip(conv.fsmd.transitions, conv.labels)
        ],
        "warnings": [str(w) for w in warnings],
    }


def _terms(models) -> list[ex.Expr]:
    """The terms of ``models`` as read: the transfer functions and guards of
    a net's transitions, the guards and updates of a machine's."""
    return [e for model in models for t in model.transitions
            for e in ((t.fn, t.guard) if isinstance(model, PresNet) else (*t.guard_set, *(a.expr for a in t.updates)))
            if e is not None]


def _scenario(args, nets: bool) -> tuple[dsl.ScenarioDocument, dict, PortMap, ex.Interpretation]:
    """The scenario that ``args`` names, its models by side, its port map and
    its interpretation, read and checked in one order for every scenario
    command: the scenario; the refusal of the other command's check; the
    models (one or two for ``simulate``, both for a check); machine models
    where ``nets`` asks for nets; the arities of the interp lines; and last
    the interpretation."""
    doc = dsl.parse_scenario(_read(args.scenario))
    command = args.command
    runner = {"fsmd": "check-fsmd", "cardinality": "check-pres"}.get(doc.check, command)
    if command != "simulate" and runner != command:
        raise UsageError(f"the scenario asks for check {doc.check}, which {command} does not run; use {runner}")
    if command == "simulate" and not (doc.left or doc.right):
        raise UsageError("simulate needs a left or a right model")
    if command != "simulate" and not (doc.left and doc.right):
        raise UsageError(f"{command} needs both a left and a right model")
    folder = os.path.dirname(os.path.abspath(args.scenario))  # join keeps an absolute model path as given
    models = {side: _load_model(os.path.join(folder, path))
              for side, path in (("left", doc.left), ("right", doc.right)) if path}
    if nets and not all(isinstance(model, PresNet) for model in models.values()):
        raise UsageError(f"{command} expects net models")
    check_arities(doc.interps, _terms(models.values()))
    return doc, models, PortMap(dict(doc.in_map), dict(doc.out_map)), interpretation(doc.interps, doc.default_seed)


def cmd_simulate(args) -> int:
    doc, nets, pm, interp = _scenario(args, nets=True)
    left_net = nets.get("left")
    # Every net's inputs are derived before the first run, so that an input
    # that cannot be derived is the error reported, whatever a run would raise.
    vectors = [[dict(vector) if side == "left" or left_net is None else derive_right_inputs(left_net, net, pm, vector)
                for vector in doc.vectors or [{}]] for side, net in nets.items()]
    runs: list[dict] = []
    lines: list[str] = []  # stdout, printed once every run has ended and the report is written
    worst = 0
    for (side, net), net_vectors in zip(nets.items(), vectors):
        if args.schedules > 1:
            verdict = confluence_check(net, net_vectors, interp, args.schedules, args.seed or 0, doc.max_steps)
            lines.append(f"{side} ({net.name}): {_verdict_line(verdict)}")
            runs.append({"model": side, "confluence": verdict._asdict()})
            worst = max(worst, verdict.exit_code())
            continue
        for inputs in net_vectors:
            run = simulate_run(net, inputs, interp, args.seed, doc.max_steps)
            outs = out_port_values(net, run.final_state)
            ended = f"{run.status} after {run.steps} steps{value_limit(run.status)}"
            lines.append(f"{side} ({net.name}): {ended}; out-ports {outs}")
            runs.append({"model": side, "vector": inputs, **trace_json(run), "out_ports": outs})
            if run.status != QUIESCENT:
                worst = max(worst, 2)
    _write_json(args.json, {"command": "simulate", "runs": runs})
    print("\n".join(lines))  # every net has a line for each vector, or one for a run without vectors
    return worst


def cmd_check_pres(args) -> int:
    doc, nets, pm, interp = _scenario(args, nets=True)
    n1, n2 = nets.values()
    strategy = args.strategy or doc.strategy
    warnings: list = []
    try:
        if doc.check == "cardinality":
            verdict = check_cardinality(n1, n2, pm, doc.vectors, interp, doc.max_steps)
        else:
            verdict = check_functional(n1, n2, pm, strategy, doc.vectors, interp, doc.max_steps, doc.state_bound,
                                       warnings)
    finally:
        _warn(warnings)
    return _report(args, verdict, warnings, check=doc.check, strategy=strategy)


def cmd_check_fsmd(args) -> int:
    doc, models, pm, interp = _scenario(args, nets=False)
    left, right = models.values()
    if isinstance(left, PresNet) != isinstance(right, PresNet):
        raise UsageError("check-fsmd expects two nets or two machines")
    warnings: list = []
    try:
        verdict = check_fsmd_equivalence(left, right, dict(doc.var_map), doc.vectors, interp, doc.max_steps, pm,
                                         doc.state_bound, warnings)
    finally:
        _warn(warnings)
    return _report(args, verdict, warnings)


def _warn(warnings: list) -> None:
    """Conversion warnings on stderr: those of ``convert``, and those of a
    check, also where the check raised after a conversion, such as at
    outputs left unpaired."""
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _report(args, verdict: Verdict, warnings: list, **fields) -> int:
    """The end of both checks: the ``--json`` report with ``fields`` and
    ``warnings``, the verdict line, and its exit code."""
    _write_json(args.json, {"command": args.command, **fields, "verdict": verdict._asdict(),
                            "warnings": [str(w) for w in warnings]})
    print(_verdict_line(verdict))
    return verdict.exit_code()


def cmd_export_dot(args) -> int:
    model = _load_model(args.file)
    text = dot.export_dot(model)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    return 0


def _bound(text: str) -> int:
    """An argparse type: an integer bound of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="presto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a .pres or .fsmd file")
    p.add_argument("file")
    p.add_argument("--json")

    p = sub.add_parser("convert", help="convert a net into a machine")
    p.add_argument("net")
    p.add_argument("-o", "--output")
    p.add_argument("--state-bound", type=_bound, default=10_000)
    p.add_argument("--on-unsafe", choices=["error", "reject"], default="error")
    p.add_argument("--json")

    p = sub.add_parser("simulate", help="run a scenario's models on its input vectors")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--schedules", type=_bound, default=1, help="with N>1, run a schedule-independence check")
    p.add_argument("--json")

    p = sub.add_parser("check-pres", help="net-to-net equivalence per the scenario")
    p.add_argument("scenario")
    p.add_argument("--strategy", choices=["symbolic", "sampled"], default=None)
    p.add_argument("--json")

    p = sub.add_parser("check-fsmd", help="machine-to-machine path equivalence per the scenario")
    p.add_argument("scenario")
    p.add_argument("--json")

    p = sub.add_parser("export-dot", help="render a model as Graphviz")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    return parser


_PARSER = build_parser()  # parse_args never changes it, so one parser serves every call

# The collector's generation-0 threshold while a command runs.  A command
# allocates many tracked objects (interned terms, their keys, the indices of
# each net) and leaves no cyclic garbage, so at the default of 700 it would
# run several collections per command that find nothing to free.
GC_THRESHOLD = 10_000


def main(argv: Optional[list[str]] = None) -> int:
    found = gc.get_threshold()
    if 0 < found[0] < GC_THRESHOLD:  # 0 means automatic collection is off: leave it off
        gc.set_threshold(GC_THRESHOLD, *found[1:])
    try:
        return _command(argv)
    finally:
        gc.set_threshold(*found)


def _command(argv: Optional[list[str]]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code == 0 else 3
    try:  # looked up when the command runs, so a replaced cmd_* is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, dsl.DslError, PortMapError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ConvertError, SimError, FsmdError, ex.ExprError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # a bug or a resource limit, never a verdict
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
