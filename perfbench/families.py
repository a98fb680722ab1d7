"""Seeded net-pair families with independently computed answers.

Every pair is built here as plain data, printed as `.pres`/`.scn` text and
evaluated by this module's own small interpreter, so each command's
expected verdict is known without importing presto.  Opaque symbols get
explicit affine `interp F(x) = a*x + b;` lines with a nonzero slope, which
the interpreter applies directly.

Expressions are tuples: ("var", name), ("const", n), ("app", symbol, arg)
or (op, lhs, rhs) with op one of "+", "-", "*".  Stage templates read the
placeholder variable "_".

Families (the right net always shares the left net's in-port names, since
check-fsmd compares transforms over raw input variables):

* chain: a stepwise pipeline of n stages against a version that fuses
  adjacent stages into one transition and regroups/commutes constants.
* diamonds: k guard splits in a row against a copy with commuted or
  regrouped operands.
* wide: independent lanes of 2-4 stages against a commuted copy.

About a quarter of the pairs are mutants of the right net: one constant off
by one, or two adjacent distinct symbols swapped (for diamonds also a split
threshold moved by one).  A mutant is kept only when some scenario vector
gives different out-port values.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"

HOLE = ("var", "_")

# Each family's sizes, equally likely.  Pairs draw them stratified, so two
# seeds share one size profile and differ in symbols, constants, structure
# and mutants.  Diamonds weight k = 6 so that the median command falls
# inside one k rather than on the step between two.
CHAIN_STAGES = tuple(range(20, 71))
DIAMOND_SPLITS = (4, 5, 5, 6, 6, 6, 7)
WIDE_LANES = tuple(range(16, 49))
WIDE_LANE_STAGES = (2, 4)
PAIRS = 80
MUTANT_SHARE = 0.25


# -- expressions -------------------------------------------------------------

def text(e) -> str:
    kind = e[0]
    if kind == "var":
        return e[1]
    if kind == "const":
        return str(e[1])
    if kind == "app":
        return f"{e[1]}({text(e[2])})"
    return f"({text(e[1])} {kind} {text(e[2])})"


def value(e, env: dict, interp: dict) -> int:
    kind = e[0]
    if kind == "var":
        return env[e[1]]
    if kind == "const":
        return e[1]
    if kind == "app":
        a, b = interp[e[1]]
        return a * value(e[2], env, interp) + b
    lhs, rhs = value(e[1], env, interp), value(e[2], env, interp)
    if kind == "+":
        return lhs + rhs
    if kind == "-":
        return lhs - rhs
    return lhs * rhs


def plug(template, arg):
    """The template with its placeholder replaced by ``arg``."""
    if template == HOLE:
        return arg
    if template[0] in ("var", "const"):
        return template
    if template[0] == "app":
        return ("app", template[1], plug(template[2], arg))
    return (template[0], plug(template[1], arg), plug(template[2], arg))


def nodes(e, kind: str, at=()):
    """Positions (child-index paths) of every node of ``kind``."""
    out = [at] if e[0] == kind else []
    if e[0] == "app":
        out += nodes(e[2], kind, at + (2,))
    elif e[0] in ("+", "-", "*"):
        out += nodes(e[1], kind, at + (1,)) + nodes(e[2], kind, at + (2,))
    return out


def get(e, at):
    for i in at:
        e = e[i]
    return e


def put(e, at, new):
    if not at:
        return new
    parts = list(e)
    parts[at[0]] = put(e[at[0]], at[1:], new)
    return tuple(parts)


def rewrite(rng: random.Random, e):
    """An equivalent expression that presto's normaliser maps to the same form.

    Only operand commutation, regrouping of added constants and constant
    folding are used: relation orientation and distributivity are outside
    what the checkers decide today.
    """
    if e[0] in ("var", "const"):
        return e
    if e[0] == "app":
        return ("app", e[1], rewrite(rng, e[2]))
    lhs, rhs = rewrite(rng, e[1]), rewrite(rng, e[2])
    op = e[0]
    if op == "+" and rhs[0] == "const" and lhs[0] == "+" and lhs[2][0] == "const" and rng.random() < 0.5:
        return ("+", lhs[1], ("const", lhs[2][1] + rhs[1]))
    if op == "+" and rhs[0] == "const" and rhs[1] > 1 and rng.random() < 0.3:
        cut = rng.randint(1, rhs[1] - 1)
        return ("+", ("+", lhs, ("const", cut)), ("const", rhs[1] - cut))
    if op in ("+", "*") and rng.random() < 0.5:
        return (op, rhs, lhs)
    return (op, lhs, rhs)


STAGE_KINDS = ("app", "app", "app", "app+c", "app+c", "app+c", "+c", "+c", "c*app", "c*app", "app-c")


# Diamond branches all cost the same three nodes, so that the commands of one
# k take about the same time and the tail does not depend on the draw.
BRANCH_KINDS = ("app+c", "c*app", "app-c")


def stage_kinds(rng: random.Random, count: int, kinds=STAGE_KINDS) -> list[str]:
    """``count`` stage kinds dealt from shuffled decks, so every pair gets the same mix."""
    out: list[str] = []
    while len(out) < count:
        deck = list(kinds)
        rng.shuffle(deck)
        out += deck
    return out[:count]


def stage_template(rng: random.Random, symbol: str, kind: str):
    app = ("app", symbol, HOLE)
    c = ("const", rng.randint(1, 9))
    if kind == "app":
        return app
    if kind == "app+c":
        return ("+", app, c)
    if kind == "+c":
        return ("+", HOLE, c)
    if kind == "c*app":
        return ("*", ("const", rng.choice((2, 3))), app)
    return ("-", app, c)


def affine(rng: random.Random) -> tuple[int, int]:
    return rng.choice((1, 2, -1, -2)), rng.randint(-9, 9)


def interp_line(symbol: str, ab: tuple[int, int]) -> str:
    a, b = ab
    tail = f" + {b}" if b >= 0 else f" - {-b}"
    return f"  interp {symbol}(x) = {a}*x{tail};"


# -- nets --------------------------------------------------------------------

@dataclass
class Trans:
    name: str
    pre: str
    post: str
    fn: tuple
    guard: Optional[tuple[str, int]] = None  # (">" or "<=", threshold) on the pre place


@dataclass
class Net:
    name: str
    inputs: list[str]
    outputs: list[str]
    trans: list[Trans] = field(default_factory=list)

    def places(self) -> list[str]:
        seen = dict.fromkeys(self.inputs)
        for t in self.trans:
            seen.setdefault(t.pre)
            seen.setdefault(t.post)
        return list(seen)

    def longest_run(self) -> int:
        """Maximal steps to quiescence: the longest chain of transitions."""
        depth = {p: 0 for p in self.inputs}
        for t in self.trans:  # transitions are emitted in dataflow order
            depth[t.post] = max(depth.get(t.post, 0), depth[t.pre] + 1)
        return max(depth.values())


def net_text(net: Net) -> str:
    lines = [f"net {net.name} {{"]
    for p in net.places():
        lines.append(f"  place {p} marked;" if p in net.inputs else f"  place {p};")
    for t in net.trans:
        guard = f" guard {t.pre} {t.guard[0]} {t.guard[1]};" if t.guard else ""
        lines.append(f"  transition {t.name} {{ pre {t.pre}; post {t.post}; fn {text(t.fn)};{guard} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_net(net: Net, inputs: dict, interp: dict) -> dict:
    """Out-port values after maximal steps; guards here are never both true."""
    tokens = dict(inputs)
    while True:
        fire = []
        for t in net.trans:
            if t.pre not in tokens:
                continue
            if t.guard:
                v = tokens[t.pre]
                if not (v > t.guard[1] if t.guard[0] == ">" else v <= t.guard[1]):
                    continue
            fire.append(t)
        if not fire:
            return {p: tokens.get(p) for p in net.outputs}
        produced = {t.post: value(t.fn, {t.pre: tokens[t.pre]}, interp) for t in fire}
        for t in fire:
            del tokens[t.pre]
        tokens.update(produced)


# -- pairs -------------------------------------------------------------------

@dataclass
class Pair:
    name: str
    left: Net
    right: Net
    out_map: dict[str, str]
    vectors: list[dict[str, int]]
    interp: dict[str, tuple[int, int]]
    mutant: Optional[str] = None  # kind of mutation, None for an equivalent pair

    def differs(self) -> bool:
        for vec in self.vectors:
            lo, ro = run_net(self.left, vec, self.interp), run_net(self.right, vec, self.interp)
            if any(lo[p] != ro[q] for p, q in self.out_map.items()):
                return True
        return False

    def scenario_text(self, left_file: str, right_file: str) -> str:
        maps = " ".join(f"{p} -> {q};" for p, q in self.out_map.items())
        lines = [
            f"scenario {self.name} {{",
            f'  model left = "{left_file}";',
            f'  model right = "{right_file}";',
            "  check functional;",
            "  strategy symbolic;",
            "  inmap { " + " ".join(f"{p} -> {p};" for p in self.left.inputs) + " }",
            f"  outmap {{ {maps} }}",
            f"  varmap {{ {maps} }}",
        ]
        for vec in self.vectors:
            lines.append("  inputs { " + " ".join(f"{p} = {v};" for p, v in vec.items()) + " }")
        lines += [interp_line(s, ab) for s, ab in sorted(self.interp.items())]
        lines.append(f"  maxsteps {self.left.longest_run() + self.right.longest_run() + 8};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _vectors(rng: random.Random, inputs: list[str], count: int) -> list[dict[str, int]]:
    columns = {p: rng.sample(range(-40, 41), count) for p in inputs}
    return [{p: columns[p][i] for p in inputs} for i in range(count)]


def _pool(rng: random.Random, prefix: str, size: int) -> dict[str, tuple[int, int]]:
    return {f"{prefix}{i}": affine(rng) for i in range(size)}


def _distinct_symbol(rng: random.Random, pool: list[str], avoid: Optional[str]) -> str:
    return rng.choice([s for s in pool if s != avoid])


def chain_pair(rng: random.Random, name: str, stages: int) -> Pair:
    interp = _pool(rng, "f", 12)
    symbols = list(interp)
    templates, last = [], None
    for kind in stage_kinds(rng, stages):
        last = _distinct_symbol(rng, symbols, last)
        templates.append(stage_template(rng, last, kind))

    left = Net(f"{name}_step", ["x"], ["out"])
    prev = "x"
    for i, tmpl in enumerate(templates, start=1):
        post = "out" if i == stages else f"v{i}"
        left.trans.append(Trans(f"s{i}", prev, post, plug(tmpl, ("var", prev))))
        prev = post

    right = Net(f"{name}_pipe", ["x"], ["out2"])
    prev = "x"
    groups = [templates[i:i + 2] for i in range(0, stages, 2)]
    for j, group in enumerate(groups, start=1):
        fused = HOLE
        for tmpl in group:
            fused = plug(tmpl, fused)
        post = "out2" if j == len(groups) else f"w{j}"
        right.trans.append(Trans(f"stage{j}", prev, post, rewrite(rng, plug(fused, ("var", prev)))))
        prev = post
    used = {s for t in left.trans for s in _symbols(t.fn)}
    return Pair(name, left, right, {"out": "out2"}, _vectors(rng, ["x"], 2),
                {s: ab for s, ab in interp.items() if s in used})


def diamonds_pair(rng: random.Random, name: str, splits: int) -> Pair:
    interp = _pool(rng, "g", 2 * splits)
    vectors = _vectors(rng, ["x"], 4)
    left = Net(f"{name}_l", ["x"], ["out"])
    right = Net(f"{name}_r", ["x"], ["out2"])
    current = [v["x"] for v in vectors]
    prev_l = prev_r = "x"
    kinds = iter(stage_kinds(rng, 2 * splits, BRANCH_KINDS))
    for i in range(1, splits + 1):
        post_l = "out" if i == splits else f"d{i}"
        post_r = "out2" if i == splits else f"e{i}"
        ordered = sorted(current)
        threshold = ordered[len(ordered) // 2 - 1]  # the lower median: both branches get inputs
        branches = []
        for tag, op, symbol in (("hi", ">", f"g{2 * i - 2}"), ("lo", "<=", f"g{2 * i - 1}")):
            tmpl = stage_template(rng, symbol, next(kinds))
            branches.append((tag, op, tmpl))
            left.trans.append(Trans(f"{tag}{i}", prev_l, post_l, plug(tmpl, ("var", prev_l)), (op, threshold)))
            right.trans.append(
                Trans(f"{tag}{i}", prev_r, post_r, rewrite(rng, plug(tmpl, ("var", prev_r))), (op, threshold))
            )
        current = [
            value(branches[0][2] if v > threshold else branches[1][2], {"_": v}, interp) for v in current
        ]
        prev_l, prev_r = post_l, post_r
    return Pair(name, left, right, {"out": "out2"}, vectors, interp)


def wide_pair(rng: random.Random, name: str, lanes: int) -> Pair:
    interp = _pool(rng, "h", 16)
    symbols = list(interp)
    inputs = [f"x{j}" for j in range(lanes)]
    left = Net(f"{name}_l", inputs, [f"o{j}" for j in range(lanes)])
    right = Net(f"{name}_r", list(inputs), [f"r{j}" for j in range(lanes)])
    lengths = [rng.randint(*WIDE_LANE_STAGES) for _ in range(lanes)]
    lengths[rng.randrange(lanes)] = WIDE_LANE_STAGES[1]  # every net is as deep as the family allows
    kinds = iter(stage_kinds(rng, sum(lengths)))
    for j, length in enumerate(lengths):
        prev_l = prev_r = f"x{j}"
        last = None
        for s in range(1, length + 1):
            last = _distinct_symbol(rng, symbols, last)
            tmpl = stage_template(rng, last, next(kinds))
            post_l = f"o{j}" if s == length else f"a{j}_{s}"
            post_r = f"r{j}" if s == length else f"b{j}_{s}"
            left.trans.append(Trans(f"l{j}_{s}", prev_l, post_l, plug(tmpl, ("var", prev_l))))
            right.trans.append(Trans(f"m{j}_{s}", prev_r, post_r, rewrite(rng, plug(tmpl, ("var", prev_r)))))
            prev_l, prev_r = post_l, post_r
    # Transitions in dataflow order (stage by stage across lanes) keep
    # Net.longest_run's single pass valid and mirror how lanes interleave.
    for net in (left, right):
        net.trans.sort(key=lambda t: int(t.name.rsplit("_", 1)[1]))
    used = {s for t in left.trans for s in _symbols(t.fn)}
    return Pair(name, left, right, {f"o{j}": f"r{j}" for j in range(lanes)}, _vectors(rng, inputs, 4),
                {s: ab for s, ab in interp.items() if s in used})


def _symbols(e) -> list[str]:
    return [get(e, at)[1] for at in nodes(e, "app")]


# -- mutants -----------------------------------------------------------------

def _mutations(pair: Pair, family: str) -> list[tuple[str, int, object]]:
    """Candidate single faults of the right net: (kind, transition index, detail)."""
    out = []
    trans = pair.right.trans
    for i, t in enumerate(trans):
        for at in nodes(t.fn, "const"):
            out.append(("const", i, at))
        apps = nodes(t.fn, "app")
        for outer, inner in zip(apps, apps[1:]):
            if inner[:len(outer)] == outer and get(t.fn, outer)[1] != get(t.fn, inner)[1]:
                out.append(("swap", i, (outer, inner)))
    if family == "diamonds":
        for i in range(0, len(trans), 2):
            out.append(("guard", i, None))
    if family in ("diamonds", "wide"):
        # Swap the symbols of two sibling transitions: the branches of one
        # split, or consecutive stages of one lane.
        for i, t in enumerate(trans):
            for k in range(i + 1, len(trans)):
                u = trans[k]
                linked = (u.pre == t.pre) if family == "diamonds" else (u.pre == t.post)
                if linked and nodes(t.fn, "app") and nodes(u.fn, "app"):
                    out.append(("pair-swap", i, k))
    return out


def _apply(pair: Pair, mutation) -> list[Trans]:
    kind, i, detail = mutation
    trans = [Trans(t.name, t.pre, t.post, t.fn, t.guard) for t in pair.right.trans]
    t = trans[i]
    if kind == "const":
        t.fn = put(t.fn, detail, ("const", get(t.fn, detail)[1] + 1))
    elif kind == "swap":
        outer, inner = detail
        a, b = get(t.fn, outer), get(t.fn, inner)
        t.fn = put(put(t.fn, outer, ("app", b[1], a[2])), inner, ("app", a[1], b[2]))
    elif kind == "guard":
        for u in trans:
            if u.pre == t.pre:
                u.guard = (u.guard[0], u.guard[1] - 1)
    else:
        u = trans[detail]
        sa, sb = get(t.fn, nodes(t.fn, "app")[0]), get(u.fn, nodes(u.fn, "app")[0])
        t.fn = put(t.fn, nodes(t.fn, "app")[0], ("app", sb[1], sa[2]))
        u.fn = put(u.fn, nodes(u.fn, "app")[0], ("app", sa[1], sb[2]))
    return trans


def mutate(rng: random.Random, pair: Pair, family: str, turn: int) -> None:
    """Turn ``pair`` into a mutant that a scenario vector exposes, if one is found.

    Mutants take turns on the kind of fault tried first, so every seed has
    the same mix of kinds.
    """
    candidates = _mutations(pair, family)
    rng.shuffle(candidates)
    kinds = sorted({kind for kind, _, _ in candidates})
    if kinds:
        first = kinds[turn % len(kinds)]
        candidates.sort(key=lambda m: m[0] != first)
    original = pair.right.trans
    for mutation in candidates[:60]:
        pair.right.trans = _apply(pair, mutation)
        if pair.differs():
            pair.mutant = mutation[0]
            return
    pair.right.trans = original


# -- workloads ---------------------------------------------------------------

BUILDERS = {
    "chain": (chain_pair, CHAIN_STAGES),
    "diamonds": (diamonds_pair, DIAMOND_SPLITS),
    "wide": (wide_pair, WIDE_LANES),
}


@dataclass
class Command:
    argv: list[str]
    kind: str  # check | confluence | convert
    expected: object  # verdict name, or the converted machine's state count
    pair: str


def build(family: str, seed: int, outdir: str) -> list[Command]:
    """Write the family's pairs under ``outdir`` and return its commands.

    Pair order is shuffled by the seed, except that the first pair is an
    equivalent one of the family's middle size: its first command is the
    benchmark's cold command.
    """
    rng = random.Random(f"{family}:{seed}")
    make, sizes = BUILDERS[family]
    # Pair i takes its size from stratum i, and every fourth stratum (from a
    # seeded offset) is a mutant, so mutants spread evenly over the sizes.
    period = round(1 / MUTANT_SHARE)
    offset = rng.randrange(period)
    strata = [
        (sizes[int(len(sizes) * (i + rng.random()) / PAIRS)], (i + offset) % period == 0)
        for i in range(PAIRS)
    ]
    rng.shuffle(strata)
    middle = sizes[len(sizes) // 2]
    cold = min((i for i, (_, mutant) in enumerate(strata) if not mutant), key=lambda i: abs(strata[i][0] - middle))
    strata.pop(cold)
    strata.insert(0, (middle, False))

    os.makedirs(outdir, exist_ok=True)
    commands: list[Command] = []
    mutants = 0
    for i, (size, mutant) in enumerate(strata):
        name = f"{family}{i:03d}"
        pair = make(rng, name, size)
        if mutant:
            mutate(rng, pair, family, turn=mutants)
            mutants += 1
        base = os.path.join(outdir, name)
        left, right, scn = base + "_left.pres", base + "_right.pres", base + ".scn"
        for path, body in (
            (left, net_text(pair.left)),
            (right, net_text(pair.right)),
            (scn, pair.scenario_text(os.path.basename(left), os.path.basename(right))),
        ):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
        verdict = NOT_EQUIVALENT if pair.mutant else EQUIVALENT
        if family == "wide":
            commands += [
                Command(["check-pres", scn, "--strategy", "sampled"], "check", verdict, name),
                Command(["simulate", scn, "--schedules", "4"], "confluence", EQUIVALENT, name),
                Command(["convert", right, "-o", base + "_right.fsmd"], "convert",
                        pair.right.longest_run() + 1, name),
            ]
        else:
            commands += [
                Command(["check-pres", scn], "check", verdict, name),
                Command(["check-fsmd", scn], "check", verdict, name),
            ]
    return commands
