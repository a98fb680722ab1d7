"""Textual front end: net, machine and scenario documents.

Net files::

    net NAME {
      place ID [marked] [var ID];
      transition ID { pre ID, ...; post ID, ...; [var ID;] fn EXPR; [guard EXPR;] }
    }

Places in one transition's post-set share a single variable, named after
the first post place unless a ``var`` clause (on the transition, or on a
place) overrides it.

Machine files::

    fsmd NAME {
      states ID, ...;  reset ID;
      inputs ID, ...;  storage ID, ...;  outputs ID, ...;
      STATE -> STATE [when EXPR, ...] { ID <= EXPR; ... }
    }

Scenario files name one or two models and everything a checker needs:
port maps, an output-variable map, input vectors, interpretations for
applied symbols, and bounds.

Identifiers are ``[A-Za-z_]`` followed by letters, digits, ``_`` or an
interior ``-``; hyphens bind into names (``in-Copy`` is one identifier),
so subtraction must be written with spaces: ``a - b``.  Integers are
``[0-9]+``.  Letters and digits are ASCII only: outside strings and
comments any other character (``é``, ``²``) is a stray character.  ``#``
starts a line comment.  Expressions use standard precedence: ``*`` over
``+``/``-`` over relations over ``not``/``and``/``or``.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Optional

from . import expr as ex
from .fsmd import Fsmd, FsmdTransition, UpdateSet, validate_fsmd
from .pres import PresNet, Transition, Violation, validate_net
from .record import Record

RESERVED = {
    "net", "place", "marked", "var", "transition", "pre", "post", "fn", "guard",
    "fsmd", "states", "reset", "inputs", "storage", "outputs", "when",
    "scenario", "model", "check", "strategy", "inmap", "outmap", "varmap",
    "interp", "default", "seeded", "maxsteps", "statebound",
    "and", "or", "not", "true", "false",
}


class Span(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class DslError(Exception):
    pass


class DslSyntaxError(DslError):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class DslSemanticError(DslError):
    def __init__(self, violations: list[Violation], spans: Optional[dict[str, Span]] = None):
        self.violations = violations
        self.spans = spans or {}
        lines = []
        for v in violations:
            at = self.spans.get(v.element)
            lines.append(f"{at}: {v}" if at else str(v))
        super().__init__("; ".join(lines))


# Tokens are the token strings themselves; a token's kind is its first
# character: a digit, a letter or ``_``, ``"`` (strings keep their quotes, so
# a quoted "}" never passes for punctuation) or punctuation.  The end of the
# text is the token "".
_TOKEN = r'"[^"\n]*"|[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*|[0-9]+|->|<=|>=|!=|[{}(),;=<>+*-]'
# One match per token, after the blanks and comments before it.  A character
# no token starts with takes the rest of the text, so the scan ends at the
# first lexical error.
_SCAN = re.compile(rf'[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*({_TOKEN}|[^ \t\r\n][\s\S]*|\Z)')
_VALID = re.compile(_TOKEN)
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _shown(tok: str) -> str:
    """A token as error messages quote it: a string without its quotes, the end as eof."""
    if tok[:1] == '"':
        return tok[1:-1] or "string"
    return tok or "eof"


# Deepest nesting of parentheses, applications, `not` and unary minus an
# expression may have.  Bundled and generated models stay below 10.
MAX_NESTING = 200

# Binary operators by precedence, loosest first; `not` sits between `and`
# and the relations, unary minus above `*`.
_NOT, _REL, _UNARY = 3, 4, 7
_BINARY = {"or": 1, "and": 2, **dict.fromkeys(ex.REL_OPS, _REL), "+": 5, "-": 5, "*": 6}
_BOOLS = {"true": ex.TRUE, "false": ex.FALSE}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _SCAN.findall(text)
        if len(self.toks) > 1 and not self.toks[-2]:
            self.toks.pop()  # after trailing blanks the end matches twice
        self.pos = self.depth = 0
        if len(self.toks) > 1 and not _VALID.fullmatch(self.toks[-2]):
            self.pos = len(self.toks) - 2
            bad = self.toks[-2][0]
            raise self.fail("unterminated string" if bad == '"' else f"stray character {bad!r}")

    def spans(self, where: dict[str, int]) -> dict[str, Span]:
        """line:col of each name's token, given by index.

        Token offsets are found only here, by scanning the text again: on
        the path without spans the scan keeps nothing but the tokens.
        """
        starts = [m.start(1) for m in _SCAN.finditer(self.text)]
        lines = list(accumulate((len(line) + 1 for line in self.text.split("\n")), initial=0))
        out = {}
        for name, i in where.items():
            line = bisect_right(lines, starts[i])
            out[name] = Span(line, starts[i] - lines[line - 1] + 1)
        return out

    def fail(self, message: str) -> DslSyntaxError:
        return DslSyntaxError(message, self.spans({"": self.pos})[""])

    def expect(self, value: str) -> None:
        tok = self.toks[self.pos]
        if tok != value:
            raise self.fail(f"expected {value!r}, found {_shown(tok)!r}")
        self.pos += 1

    def name(self, what: str = "identifier") -> str:
        tok = self.toks[self.pos]
        if tok[:1] not in _NAME_START:
            raise self.fail(f"expected {what}, found {_shown(tok)!r}")
        if tok in RESERVED:
            raise self.fail(f"{tok!r} is a reserved word")
        self.pos += 1
        return tok

    def integer(self) -> int:
        sign = 1
        if self.toks[self.pos] == "-":
            self.pos += 1
            sign = -1
        tok = self.toks[self.pos]
        if not tok.isdigit():
            raise self.fail(f"expected an integer, found {_shown(tok)!r}")
        self.pos += 1
        return sign * int(tok)

    def name_list(self) -> list[str]:
        names = [self.name()]
        while self.toks[self.pos] == ",":
            self.pos += 1
            names.append(self.name())
        return names

    def end(self, what: str) -> None:
        if self.toks[self.pos]:
            raise self.fail(f"trailing input after {what}")

    # Expressions: precedence climbing over the binary operators, with
    # `not` and unary minus as prefixes.  A level of nesting costs at most
    # two stack frames, so MAX_NESTING stays well inside the recursion
    # limit.
    def expression(self, level: int = 1) -> ex.Expr:
        """An expression whose operators bind at least as tightly as ``level``."""
        toks = self.toks
        if level <= _NOT and toks[self.pos] == "not":
            self.pos += 1
            self._deeper()
            out, top = ex.BoolOp("not", (self.expression(_NOT),)), _NOT
            self.depth -= 1
        else:
            out, top = self._operand(), _UNARY  # ``top``: precedence of the operator at the root of ``out``
        while True:
            op = toks[self.pos]
            prec = _BINARY.get(op)
            # Stop below ``level``, above what ``out`` may be an operand of,
            # and at a second relation (relations do not chain).
            if prec is None or prec < level or prec > top or prec == top == _REL:
                return out
            self.pos += 1
            rhs = self.expression(prec + 1)
            if op in ("or", "and"):
                out = ex.BoolOp(op, (*out.args, rhs) if top == prec else (out, rhs))
            elif op in ("+", "*"):
                out = ex.Arith(op, (*out.args, rhs) if isinstance(out, ex.Arith) and out.op == op else (out, rhs))
            elif op == "-":
                out = ex.Arith("-", (out, rhs))
            else:
                out = ex.Rel(op, out, rhs)
            top = prec

    def _deeper(self) -> None:
        """Enter one more level of nesting; the caller leaves it with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"expression nested deeper than {MAX_NESTING} levels")

    def _operand(self) -> ex.Expr:
        """A literal, a name, an application, a parenthesized expression or a negated operand."""
        toks = self.toks
        tok = toks[self.pos]
        if tok.isdigit():
            self.pos += 1
            return ex.IntConst(int(tok))
        if tok == "-":
            # A minus directly before a literal is the literal's sign, so
            # `-5` is a constant while `-(5)` stays a negation node.
            if toks[self.pos + 1].isdigit():
                return ex.IntConst(self.integer())
            self.pos += 1
            self._deeper()
            inner = self._operand()
            self.depth -= 1
            return ex.Arith("neg", (inner,))
        if tok in _BOOLS:
            self.pos += 1
            return _BOOLS[tok]
        if tok == "(":
            self.pos += 1
            self._deeper()
            inner = self.expression()
            self.depth -= 1
            self.expect(")")
            return inner
        symbol = self.name("an expression")
        if toks[self.pos] != "(":
            return ex.Var(symbol)
        self.pos += 1
        self._deeper()
        args: list[ex.Expr] = []
        if toks[self.pos] != ")":
            args.append(self.expression())
            while toks[self.pos] == ",":
                self.pos += 1
                args.append(self.expression())
        self.depth -= 1
        self.expect(")")
        return ex.Apply(symbol, tuple(args))


def parse_expression(text: str) -> ex.Expr:
    p = _Parser(text)
    e = p.expression()
    p.end("expression")
    return e


def _net(p: _Parser) -> PresNet:
    toks = p.toks
    p.expect("net")
    name_at = p.pos
    net_name = p.name("net name")
    p.expect("{")
    # Declarations as read: places as (name, marked, var, token index of the
    # name) and transitions as [name, token index, pre, post, var, fn, guard].
    places: list[tuple[str, bool, Optional[str], int]] = []
    trans: list[list] = []
    clauses = {"pre": (2, p.name_list), "post": (3, p.name_list), "var": (4, lambda: p.name("variable name")),
               "fn": (5, p.expression), "guard": (6, p.expression)}

    # The loop reads tokens through the local index ``i`` and hands it to
    # ``p.pos`` only for the parser's own readers and its errors.
    i = p.pos
    while toks[i] != "}":
        kind = toks[i]
        p.pos = at = i + 1
        if kind == "place":
            name = p.name("place name")
            i = p.pos
            marked = toks[i] == "marked"
            i += marked  # step over the keyword when it is there
            var = None
            if toks[i] == "var":
                p.pos = i + 1
                var = p.name("variable name")
                i = p.pos
            if toks[i] != ";":
                p.pos = i
                p.expect(";")
            places.append((name, marked, var, at))
        elif kind == "transition":
            decl = [p.name("transition name"), at, [], [], None, None, None]
            p.expect("{")
            i = p.pos
            while toks[i] != "}":
                clause = clauses.get(toks[i])
                if clause is None:
                    p.pos = i
                    raise p.fail("expected pre, post, var, fn or guard")
                p.pos = i + 1
                decl[clause[0]] = clause[1]()
                i = p.pos
                if toks[i] != ";":
                    p.expect(";")
                i += 1
            trans.append(decl)
        else:
            p.pos = i
            raise p.fail("expected a place or transition declaration")
        i += 1
    p.pos = i + 1
    p.end("the net")

    def spans() -> dict[str, Span]:
        """line:col of the net's name and of each declared name (the last declaration of a name wins)."""
        where = {net_name: name_at}
        where.update((name, at) for name, _, _, at in places)
        where.update((name, at) for name, at, *_ in trans)
        return p.spans(where)

    # The reader's own rules, on the declarations: they are the structure
    # rules of validate_net, which the net built below then holds by
    # construction.
    violations: list[Violation] = []
    seen: set[str] = set()
    for name, _, _, _ in places:
        if name in seen:
            violations.append(Violation("DuplicateName", name, "place declared twice"))
        seen.add(name)
    place_names = set(seen)
    for name, _, _, _, _, fn, _ in trans:
        if name in seen:
            violations.append(Violation("DuplicateName", name, "name already declared"))
        seen.add(name)
        if fn is None:
            violations.append(Violation("MissingFunction", name, "transition has no fn clause"))
    if violations:
        raise DslSemanticError(violations, spans())

    var_of = {name: var for name, _, var, _ in places if var is not None}
    for name, _, pre, post, _, _, _ in trans:
        for q in (*pre, *post):
            if q not in place_names:
                violations.append(Violation("UnknownPlace", q, f"in transition {name}"))
    if violations:
        raise DslSemanticError(violations, spans())

    # One variable per post-set: an explicit override wins, then any name
    # already fixed for a member, then the first post place's own name.
    for name, _, _, post, var, _, _ in trans:
        fixed = {var_of[q] for q in post if q in var_of}
        if var is not None:
            fixed.add(var)
        if len(fixed) > 1:
            violations.append(Violation("PostsetVariableMismatch", name, f"conflicting names {sorted(fixed)}"))
            continue
        shared = next(iter(fixed)) if fixed else (post[0] if post else None)
        for q in post:
            var_of[q] = shared
    if violations:
        raise DslSemanticError(violations, spans())
    for name, _, _, _ in places:
        var_of.setdefault(name, name)

    net = PresNet(
        name=net_name,
        places=tuple(name for name, _, _, _ in places),
        var_of=var_of,
        transitions=tuple(Transition(name, fn, guard) for name, _, _, _, _, fn, guard in trans),
        input_arcs=frozenset((q, name) for name, _, pre, _, _, _, _ in trans for q in pre),
        output_arcs=frozenset((name, q) for name, _, _, post, _, _, _ in trans for q in post),
        initial_marking=frozenset(name for name, marked, _, _ in places if marked),
    )
    issues = validate_net(net, structure=False)
    if issues:
        raise DslSemanticError(issues, spans())
    return net


def parse_pres(text: str) -> PresNet:
    return _net(_Parser(text))


def _fsmd(p: _Parser) -> Fsmd:
    toks = p.toks
    p.expect("fsmd")
    where = {toks[p.pos]: p.pos}
    name = p.name("machine name")
    p.expect("{")
    states: list[str] = []
    reset: Optional[str] = None
    ports: dict[str, list[str]] = {"inputs": [], "storage": [], "outputs": []}
    transitions: list[FsmdTransition] = []

    while toks[p.pos] != "}":
        clause = toks[p.pos]
        if clause == "states":
            p.pos += 1
            first = p.pos
            for i, state in enumerate(p.name_list()):
                states.append(state)
                where.setdefault(state, first + 2 * i)  # names alternate with commas
            p.expect(";")
        elif clause == "reset":
            p.pos += 1
            reset = p.name("state name")
            p.expect(";")
        elif clause in ports:
            p.pos += 1
            ports[clause] += p.name_list()
            p.expect(";")
        else:
            at = p.pos
            src = p.name("state name")
            p.expect("->")
            dst = p.name("state name")
            guards: list[ex.Expr] = []
            if toks[p.pos] == "when":
                p.pos += 1
                guards.append(p.expression())
                while toks[p.pos] == ",":
                    p.pos += 1
                    guards.append(p.expression())
            p.expect("{")
            pairs: list[tuple[str, ex.Expr]] = []
            while toks[p.pos] != "}":
                target = p.name("variable name")
                p.expect("<=")
                pairs.append((target, p.expression()))
                p.expect(";")
            p.pos += 1
            where.setdefault(f"{src}->{dst}#{len(transitions)}", at)
            transitions.append(FsmdTransition(src, tuple(guards), dst, UpdateSet.of(pairs)))
    p.pos += 1
    p.end("the machine")
    if reset is None:
        if not states:
            raise DslSemanticError([Violation("MissingReset", name, "no states and no reset")], p.spans(where))
        reset = states[0]

    machine = Fsmd(
        name=name,
        states=tuple(states),
        reset=reset,
        inputs=frozenset(ports["inputs"]),
        storage=frozenset(ports["storage"]),
        outputs=frozenset(ports["outputs"]),
        transitions=tuple(transitions),
    )
    issues = validate_fsmd(machine)
    if issues:
        raise DslSemanticError(issues, p.spans(where))
    return machine


def parse_fsmd(text: str) -> Fsmd:
    return _fsmd(_Parser(text))


class InterpDecl(NamedTuple):
    symbol: str
    params: list[str]
    body: ex.Expr


class ScenarioDocument(Record):
    """A scenario as read; the parser fills it clause by clause.  A map or
    list left out is a new, empty one."""

    __slots__ = _fields = ("name", "left", "right", "check", "strategy", "in_map", "out_map", "var_map", "vectors",
                           "interps", "default_seed", "max_steps", "state_bound", "base_dir")

    def __init__(
        self,
        name: str,
        left: Optional[str] = None,
        right: Optional[str] = None,
        check: str = "functional",  # cardinality | functional | fsmd
        strategy: str = "symbolic",  # symbolic | sampled
        in_map: Optional[dict[str, str]] = None,
        out_map: Optional[dict[str, str]] = None,
        var_map: Optional[dict[str, str]] = None,
        vectors: Optional[list[dict[str, int]]] = None,
        interps: Optional[list[InterpDecl]] = None,
        default_seed: Optional[int] = None,
        max_steps: int = 1_000,
        state_bound: int = 10_000,
        base_dir: str = ".",
    ) -> None:
        self.name, self.left, self.right, self.check, self.strategy = name, left, right, check, strategy
        self.in_map = {} if in_map is None else in_map
        self.out_map = {} if out_map is None else out_map
        self.var_map = {} if var_map is None else var_map
        self.vectors = [] if vectors is None else vectors
        self.interps = [] if interps is None else interps
        self.default_seed, self.max_steps, self.state_bound = default_seed, max_steps, state_bound
        self.base_dir = base_dir

    def resolve(self, path: Optional[str]) -> Optional[str]:
        if path is None:
            return None
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)


def _parse_map_block(p: _Parser) -> dict[str, str]:
    out: dict[str, str] = {}
    p.expect("{")
    while p.toks[p.pos] != "}":
        a = p.name()
        p.expect("->")
        out[a] = p.name()
        p.expect(";")
    p.pos += 1
    return out


_MAPS = {"inmap": "in_map", "outmap": "out_map", "varmap": "var_map"}
_BOUNDS = {"maxsteps": "max_steps", "statebound": "state_bound"}
_CHOICES = {"check": ("cardinality", "functional", "fsmd"), "strategy": ("symbolic", "sampled")}


def parse_scenario(text: str, base_dir: str = ".") -> ScenarioDocument:
    p = _Parser(text)
    toks = p.toks
    p.expect("scenario")
    doc = ScenarioDocument(name=p.name("scenario name"), base_dir=base_dir)
    p.expect("{")
    while toks[p.pos] != "}":
        clause = toks[p.pos]
        p.pos += 1
        if clause == "model":
            side = toks[p.pos]
            if side not in ("left", "right"):
                raise p.fail("expected 'left' or 'right'")
            p.pos += 1
            p.expect("=")
            if toks[p.pos][:1] != '"':
                raise p.fail("expected a quoted file path")
            setattr(doc, side, toks[p.pos][1:-1])
            p.pos += 1
            p.expect(";")
        elif clause in _CHOICES:
            *some, last = choices = _CHOICES[clause]
            if toks[p.pos] not in choices:
                raise p.fail(f"expected {', '.join(some)} or {last}")
            setattr(doc, clause, toks[p.pos])
            p.pos += 1
            p.expect(";")
        elif clause in _MAPS:
            getattr(doc, _MAPS[clause]).update(_parse_map_block(p))
        elif clause == "inputs":
            p.expect("{")
            vector: dict[str, int] = {}
            while toks[p.pos] != "}":
                place = p.name("place name")
                p.expect("=")
                vector[place] = p.integer()
                p.expect(";")
            p.pos += 1
            doc.vectors.append(vector)
        elif clause == "interp" and toks[p.pos] == "default":
            p.pos += 1
            p.expect("seeded")
            doc.default_seed = p.integer()
            p.expect(";")
        elif clause == "interp":
            symbol = p.name("function symbol")
            p.expect("(")
            params = p.name_list() if toks[p.pos] != ")" else []
            p.expect(")")
            p.expect("=")
            body = p.expression()
            p.expect(";")
            extra = ex.free_vars(body) - set(params)
            if extra:
                raise DslSemanticError([Violation("UnknownVariable", symbol, f"interp body reads {sorted(extra)}")])
            doc.interps.append(InterpDecl(symbol, params, body))
        elif clause in _BOUNDS:
            at = p.pos
            bound = p.integer()
            if bound < 1:
                p.pos = at
                raise p.fail(f"{clause} must be at least 1, found {bound}")
            setattr(doc, _BOUNDS[clause], bound)
            p.expect(";")
        else:
            p.pos -= 1
            raise p.fail("unknown scenario clause")
    p.pos += 1
    p.end("the scenario")
    return doc


def print_net(net: PresNet) -> str:
    lines = [f"net {net.name} {{"]
    for place in net.places:
        bits = [f"  place {place}"]
        if place in net.initial_marking:
            bits.append(" marked")
        if net.var_of.get(place, place) != place:
            bits.append(f" var {net.var_of[place]}")
        lines.append("".join(bits) + ";")
    for t in net.transitions:
        pre = ", ".join(sorted(net.preset(t.id)))
        post = ", ".join(sorted(net.postset(t.id)))
        lines.append(f"  transition {t.id} {{")
        lines.append(f"    pre {pre};")
        lines.append(f"    post {post};")
        lines.append(f"    fn {ex.to_text(t.fn)};")
        if t.guard is not None:
            lines.append(f"    guard {ex.to_text(t.guard)};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_fsmd(m: Fsmd) -> str:
    lines = [f"fsmd {m.name} {{"]
    lines.append(f"  states {', '.join(m.states)};")
    lines.append(f"  reset {m.reset};")
    if m.inputs:
        lines.append(f"  inputs {', '.join(sorted(m.inputs))};")
    if m.storage:
        lines.append(f"  storage {', '.join(sorted(m.storage))};")
    if m.outputs:
        lines.append(f"  outputs {', '.join(sorted(m.outputs))};")
    for t in m.transitions:
        head = f"  {t.source} -> {t.target}"
        if t.guard_set:
            head += " when " + ", ".join(ex.to_text(g) for g in t.guard_set)
        body = " ".join(f"{a.target} <= {ex.to_text(a.expr)};" for a in t.updates)
        lines.append(f"{head} {{ {body} }}" if body else f"{head} {{ }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
