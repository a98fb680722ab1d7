"""presto benchmark: time to a verdict on generated net pairs.

Usage, from the root of a presto checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One run builds the workload's pairs from the seed, checks the bundled corpus
verdicts, then drives the real user path: each command is one in-process
``presto.cli.main(argv)`` call, from argv to exit code.  The load is a closed loop with one client: the next
command starts when the previous one has returned.  Every answer is checked
against the one the generator computed itself.

``--trace 0`` reports the end-to-end metrics of a timed phase of
``--seconds``.  ``--trace 1`` makes one pass over the command list, running
each command without spans and then with spans around each layer's public
functions, and reports the per-layer metrics.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import families  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "checks_per_s": "1/s",
    "decided_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run, by name, with their units.
PER_LAYER = {
    "fsmd.self_ms": "ms",
    "fsmd.path_transformation.ms": "ms",
    "fsmd.path_transformation.calls": "count",
    "fsmd.path_steps": "count",
    "fsmd.term_nodes_max": "count",
    "fsmd.path_enumerate.ms": "ms",
    "fsmd.paths": "count",
    "fsmd.path_transformation.exponent": "slope",
    "expr.self_ms": "ms",
    "expr.substitute.ms": "ms",
    "expr.substitute.calls": "count",
    "expr.normalize.ms": "ms",
    "expr.normalize.calls": "count",
    "expr.normalize.exponent": "slope",
    "sim.self_ms": "ms",
    "sim.simulate_run.ms": "ms",
    "sim.simulate_run.calls": "count",
    "sim.steps": "count",
    "sim.us_per_step": "us",
    "sim.confluence_check.ms": "ms",
    "convert.self_ms": "ms",
    "convert.pres_to_fsmd.ms": "ms",
    "convert.construct_set_of_transitions.ms": "ms",
    "convert.construct_set_of_transitions.calls": "count",
    "convert.states": "count",
    "convert.fsmd_transitions": "count",
    "convert.firing_sets_dropped": "count",
    "pres.self_ms": "ms",
    "pres.enabled_transitions.calls": "count",
    "pres.validate_net.ms": "ms",
    "dsl.self_ms": "ms",
    "dsl.parse_pres.ms": "ms",
    "dsl.parse_pres.calls": "count",
    "dsl.parse_scenario.ms": "ms",
    "dsl.print_fsmd.ms": "ms",
    "dsl.bytes": "B",
    "equiv.self_ms": "ms",
    "equiv.check_functional.ms": "ms",
    "equiv.check_fsmd_equivalence.ms": "ms",
    "equiv.check_cardinality.ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_pct": "%",
    **{f"{layer}.share_pct": "%" for layer in tracing.LAYERS},
}

# Bundled corpus scenarios, the command that exercises each, and the exit
# code the README's corpus table implies (0 Equivalent or success, 1 NotEquivalent).
CORPUS = (
    ("guard_split", ["simulate"], 0),
    ("cardinality", ["check-pres"], 0),
    ("addthree", ["check-pres"], 0),
    ("jammer", ["check-fsmd"], 0),
    ("racy", ["simulate", "--schedules", "10"], 1),
    ("cardinality_dropped_arc", ["check-pres"], 1),
    ("cardinality_unmarked_port", ["check-pres"], 1),
    ("addthree_plus4", ["check-pres"], 1),
    ("jammer_swapped", ["check-fsmd"], 1),
)

# The tail is the highest of these percentiles with at least ten commands
# beyond it.  It is taken over the distinct commands of a workload, whose
# number the seed does not change, so one workload always reports the same
# percentile.
TAIL_LADDER = (99, 95, 90, 75)
SETUP_REPEATS = 7

CHILD = r"""
import io, json, sys, time
from contextlib import redirect_stderr, redirect_stdout
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hostspeed
hostspeed.reference_ns()
before = hostspeed.reference_ns()
start = time.perf_counter_ns()
import presto.cli
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    rc = presto.cli.main(sys.argv[3:])
elapsed = time.perf_counter_ns() - start
after = hostspeed.reference_ns()
print(json.dumps({"ns": elapsed, "reference_ns": (before + after) / 2, "rc": rc}))
"""


class BenchError(Exception):
    pass


def invoke(argv: list[str]):
    """One CLI call with its output captured: (exit code or None, stdout, stderr, error)."""
    import presto.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = presto.cli.main(argv)
    except Exception as exc:  # a crash is a failed command, not a stopped benchmark
        return None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), None


STATUS = {0: families.EQUIVALENT, 1: families.NOT_EQUIVALENT}


def judge(cmd: families.Command, rc, stdout: str, stderr: str, error) -> str:
    """'decided' (the known answer), 'undecided' (an honest Inconclusive) or 'failed'."""
    if error is not None or rc is None or rc == 3:
        return "failed"
    if cmd.kind == "check":
        if rc == 2:
            return "undecided"
        said = STATUS.get(rc)
        if said != cmd.expected or not stdout.startswith(said):
            return "failed"
        return "decided"
    if cmd.kind == "confluence":
        if rc == 2:
            return "undecided"
        lines = stdout.splitlines()
        ok = rc == 0 and len(lines) == 2 and all(f": {families.EQUIVALENT}  [" in line for line in lines)
        return "decided" if ok else "failed"
    match = re.search(r"^states: (\d+)$", stderr, re.M)
    ok = rc == 0 and match is not None and int(match.group(1)) == cmd.expected
    return "decided" if ok else "failed"


def preflight() -> None:
    """Run the bundled corpus scenarios once, untimed; stop on a wrong verdict."""
    from presto import corpus

    for name, args, expected in CORPUS:
        rc, _, _, error = invoke([args[0], corpus.scenario_path(name), *args[1:]])
        if rc != expected:
            raise BenchError(f"corpus preflight: {name} {' '.join(args)} exited {rc} ({error}), expected {expected}")


def setup_once(cmd: families.Command) -> float:
    """Seconds, in a fresh interpreter, to import presto.cli and run one cold command (host-scaled)."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, SRC, HERE, *cmd.argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["rc"] != 0:
        raise BenchError(f"cold command {cmd.argv} exited {result['rc']}, expected 0")
    return result["ns"] * hostspeed.NOMINAL_NS / result["reference_ns"] / 1e9


def tally(outcomes) -> dict[str, int]:
    counts = {"decided": 0, "undecided": 0, "failed": 0}
    for cmd, rc, out, err, error in outcomes:
        verdict = judge(cmd, rc, out, err, error)
        counts[verdict] += 1
        if verdict == "failed":
            print(f"FAILED {cmd.pair}: presto {' '.join(cmd.argv)} -> exit {rc}, expected {cmd.expected}; "
                  f"{error or (out + err).strip()[:300]}")
    return counts


def tail(values: list[float]) -> tuple[int, float, int]:
    """Highest ladder percentile with at least ten values beyond it: (percentile, value, beyond)."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        rank = max(1, -(-pct * len(ordered) // 100))  # nearest rank
        if len(ordered) - rank >= 10 or pct == TAIL_LADDER[-1]:
            return pct, ordered[rank - 1], len(ordered) - rank


def timed(commands, seconds: float, seed: int):
    """Closed loop, one client: shuffled passes over the commands until the time is up.

    Each command's time is scaled by the host-speed reference measured
    around it (see hostspeed.py), and a command's figure is the median over
    the passes of the run.  Set-up children run between passes.
    """
    order = random.Random(f"passes:{seed}")
    times: list[list[float]] = [[] for _ in commands]
    outcomes, setup = [], [setup_once(commands[0])]
    clock = time.perf_counter_ns
    raw_ns = 0
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:  # the first pass always completes
        indices = list(range(len(commands)))
        order.shuffle(indices)
        reference = hostspeed.reference_ns()
        for i in indices:
            if passes and time.perf_counter() >= deadline:
                break
            t0 = clock()
            rc, out, err, error = invoke(commands[i].argv)
            elapsed = clock() - t0
            after = hostspeed.reference_ns()
            times[i].append(elapsed * 2 * hostspeed.NOMINAL_NS / (reference + after) / 1e6)
            reference = after
            raw_ns += elapsed
            outcomes.append((commands[i], rc, out, err, error))
        else:
            passes += 1
        setup.append(setup_once(commands[0]))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(commands[0]))

    counts = tally(outcomes)
    attempted = len(outcomes)
    per_command = [statistics.median(t) for t in times]
    pct, value, beyond = tail(per_command)
    metrics = {
        "verdict_p50_ms": statistics.median(per_command),
        "verdict_tail_ms": value,
        "checks_per_s": 1000.0 * len(per_command) / sum(per_command),
        "decided_share": counts["decided"] / attempted,
        "failed_share": counts["failed"] / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "verdict_p50_ms": f"over {len(per_command)} commands, each the median of its {passes}+ passes; "
                          f"host-scaled",
        "verdict_tail_ms": f"p{pct}, {beyond} of {len(per_command)} commands beyond it",
        "checks_per_s": f"{attempted} commands ran in {raw_ns / 1e9:.3f} s unscaled "
                        f"({attempted / (raw_ns / 1e9):.2f}/s)",
        "decided_share": f"{counts['decided']} decided of {attempted} attempted ({counts['undecided']} Inconclusive)",
        "failed_share": f"{counts['failed']} failed of {attempted} attempted",
        "setup_s": f"median of {len(setup)} fresh interpreters, host-scaled",
    }
    return metrics, notes, attempted, counts["failed"]


def traced(commands, spans_path: str):
    """One pass, each command run without spans and then with them, back to back."""
    tracer = tracing.Tracer()
    tracer.install()
    outcomes = []
    plain_ns = traced_ns = 0
    clock = time.perf_counter_ns
    gc.collect()
    for index, cmd in enumerate(commands):
        t0 = clock()
        outcomes.append((cmd, *invoke(cmd.argv)))
        t1 = clock()
        tracer.current_command = index
        tracer.attach()
        try:
            t2 = clock()
            outcomes.append((cmd, *invoke(cmd.argv)))
            t3 = clock()
        finally:
            tracer.detach()
        plain_ns += t1 - t0
        traced_ns += t3 - t2
    summary = tracer.summary()
    summary["trace.overhead_pct"] = 100.0 * (traced_ns - plain_ns) / plain_ns
    tracer.write(spans_path)
    counts = tally(outcomes)
    summary["cli.main.self_ms"] = summary["cli.self_ms"]  # main is the cli layer's one span
    metrics = {name: float(summary.get(name, 0.0)) for name in PER_LAYER}
    notes = {
        "trace.overhead_pct": f"{len(commands)} commands: {plain_ns / 1e9:.3f} s untraced, "
                              f"{traced_ns / 1e9:.3f} s traced, {tracer.spans()} spans written to "
                              f"{os.path.relpath(spans_path, ROOT)}",
    }
    return metrics, notes, len(outcomes), counts["failed"]


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak RSS stays its own."""
    results = {}
    for name in families.BUILDERS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*families.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not os.path.isfile(os.path.join(SRC, "presto", "cli.py")):
        print(f"error: no presto sources at {SRC}; run from the root of a presto checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import presto

    if os.path.dirname(os.path.dirname(os.path.abspath(presto.__file__))) != SRC:
        print(f"error: imported presto from {presto.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    out_dir = os.path.join(HERE, "_out")
    try:
        build_start = time.perf_counter()
        commands = families.build(args.workload, args.seed, work)
        build_s = time.perf_counter() - build_start
        preflight()
        invoke(commands[0].argv)  # warm-up, untimed
        if args.trace:
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}.tsv.gz")
            metrics, notes, attempted, failed = traced(commands, spans_path)
            units = PER_LAYER
        else:
            metrics, notes, attempted, failed = timed(commands, args.seconds, args.seed)
            units = {**END_TO_END, "failed_share": "ratio"}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run's pairs are still there
            pass

    pairs = len({c.pair for c in commands})
    print(f"workload {args.workload}, seed {args.seed}: {pairs} pairs, {len(commands)} commands "
          f"(built in {build_s:.3f} s); corpus preflight passed")
    for name, val in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:45s} {val:14.6g} {units[name]}{note}")
    reported = {name: {"value": val, "unit": units[name]} for name, val in metrics.items() if name != "failed_share"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
