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
so subtraction must be written with spaces: ``a - b``.  ``#`` starts a
line comment.  Expressions use standard precedence: ``*`` over ``+``/``-``
over relations over ``not``/``and``/``or``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from . import expr as ex
from .fsmd import Fsmd, FsmdTransition, UpdateSet, validate_fsmd
from .pres import INT_TYPE, PresNet, Transition, Violation, validate_net

RESERVED = {
    "net", "place", "marked", "var", "transition", "pre", "post", "fn", "guard",
    "fsmd", "states", "reset", "inputs", "storage", "outputs", "when",
    "scenario", "model", "check", "strategy", "inmap", "outmap", "varmap",
    "interp", "default", "seeded", "maxsteps", "statebound",
    "and", "or", "not", "true", "false",
}


@dataclass(frozen=True)
class Span:
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


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | punct | eof
    value: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col)


_PUNCT2 = ("->", "<=", ">=", "!=")
_PUNCT1 = "{}(),;=<>+-*"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise DslSyntaxError("unterminated string", Span(start_line, start_col))
                j += 1
            if j >= n:
                raise DslSyntaxError("unterminated string", Span(start_line, start_col))
            tokens.append(Token("string", text[i + 1 : j], start_line, start_col))
            col += j - i + 1
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n:
                ch = text[j + 1] if j + 1 < n else ""
                nxt = text[j]
                if nxt.isalnum() or nxt == "_":
                    j += 1
                elif nxt == "-" and ch and (ch.isalnum() or ch == "_"):
                    j += 1
                else:
                    break
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            tokens.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"stray character {c!r}", Span(start_line, start_col))
    tokens.append(Token("eof", "", line, col))
    return tokens


# Deepest nesting of parentheses, applications, `not` and unary minus an
# expression may have.  Bundled and generated models stay below 10.
MAX_NESTING = 200

# Binary operators by precedence, loosest first; `not` sits between `and`
# and the relations, unary minus above `*`.
_NOT, _REL, _UNARY = 3, 4, 7
_BINARY = {"or": 1, "and": 2, **dict.fromkeys(ex.REL_OPS, _REL), "+": 5, "-": 5, "*": 6}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> DslSyntaxError:
        return DslSyntaxError(message, self.peek().span)

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            raise self.fail(f"expected {value!r}, found {tok.value or tok.kind!r}")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value != word:
            raise self.fail(f"expected {word!r}, found {tok.value or tok.kind!r}")
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word

    def expect_name(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected {what}, found {tok.value or tok.kind!r}")
        if tok.value in RESERVED:
            raise self.fail(f"{tok.value!r} is a reserved word")
        return self.next()

    def expect_int(self) -> int:
        negative = False
        if self.peek().kind == "punct" and self.peek().value == "-":
            self.next()
            negative = True
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail(f"expected an integer, found {tok.value or tok.kind!r}")
        self.next()
        return -int(tok.value) if negative else int(tok.value)

    def name_list(self) -> list[Token]:
        names = [self.expect_name()]
        while self.peek().kind == "punct" and self.peek().value == ",":
            self.next()
            names.append(self.expect_name())
        return names

    # Expressions: precedence climbing over the binary operators, with
    # `not` and unary minus as prefixes.  A level of nesting costs at most
    # three stack frames, so MAX_NESTING stays well inside the recursion
    # limit.
    def expression(self, level: int = 1) -> ex.Expr:
        """An expression whose operators bind at least as tightly as ``level``."""
        tok = self.peek()
        if level <= _NOT and tok.kind == "ident" and tok.value == "not":
            self.next()
            self._deeper()
            out, top = ex.BoolOp("not", (self.expression(_NOT),)), _NOT
            self.depth -= 1
        else:
            out, top = self._unary(), _UNARY  # ``top``: precedence of the operator at the root of ``out``
        while True:
            tok = self.peek()
            op = tok.value if tok.kind in ("punct", "ident") else None
            prec = _BINARY.get(op)
            # Stop below ``level``, above what ``out`` may be an operand of,
            # and at a second relation (relations do not chain).
            if prec is None or prec < level or prec > top or prec == top == _REL:
                return out
            self.next()
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

    def _unary(self) -> ex.Expr:
        if self.peek().kind == "punct" and self.peek().value == "-":
            self.next()
            # A minus directly before a literal is the literal's sign, so
            # `-5` is a constant while `-(5)` stays a negation node.
            if self.peek().kind == "int":
                return ex.IntConst(-int(self.next().value))
            self._deeper()
            inner = self._unary()
            self.depth -= 1
            return ex.Arith("neg", (inner,))
        return self._atom()

    def _atom(self) -> ex.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return ex.IntConst(int(tok.value))
        if tok.kind == "punct" and tok.value == "(":
            self.next()
            self._deeper()
            inner = self.expression()
            self.depth -= 1
            self.expect_punct(")")
            return inner
        if tok.kind == "ident":
            if tok.value == "true":
                self.next()
                return ex.TRUE
            if tok.value == "false":
                self.next()
                return ex.FALSE
            if tok.value in RESERVED:
                raise self.fail(f"{tok.value!r} is a reserved word")
            self.next()
            if self.peek().kind == "punct" and self.peek().value == "(":
                self.next()
                self._deeper()
                args: list[ex.Expr] = []
                if not (self.peek().kind == "punct" and self.peek().value == ")"):
                    args.append(self.expression())
                    while self.peek().kind == "punct" and self.peek().value == ",":
                        self.next()
                        args.append(self.expression())
                self.depth -= 1
                self.expect_punct(")")
                return ex.Apply(tok.value, tuple(args))
            return ex.Var(tok.value)
        raise self.fail(f"expected an expression, found {tok.value or tok.kind!r}")


def parse_expression(text: str) -> ex.Expr:
    p = _Parser(text)
    e = p.expression()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after expression")
    return e


@dataclass
class NetDocument:
    net: PresNet
    spans: dict[str, Span]


@dataclass
class _PlaceDecl:
    name: str
    marked: bool
    var: Optional[str]
    span: Span


@dataclass
class _TransDecl:
    name: str
    pre: list[str]
    post: list[str]
    var: Optional[str]
    fn: Optional[ex.Expr]
    guard: Optional[ex.Expr]
    span: Span


def parse_net_document(text: str) -> NetDocument:
    p = _Parser(text)
    p.expect_keyword("net")
    name_tok = p.expect_name("net name")
    p.expect_punct("{")
    places: list[_PlaceDecl] = []
    trans: list[_TransDecl] = []
    spans: dict[str, Span] = {name_tok.value: name_tok.span}

    while not (p.peek().kind == "punct" and p.peek().value == "}"):
        if p.at_keyword("place"):
            p.next()
            ident = p.expect_name("place name")
            marked = False
            var = None
            if p.at_keyword("marked"):
                p.next()
                marked = True
            if p.at_keyword("var"):
                p.next()
                var = p.expect_name("variable name").value
            p.expect_punct(";")
            places.append(_PlaceDecl(ident.value, marked, var, ident.span))
        elif p.at_keyword("transition"):
            p.next()
            ident = p.expect_name("transition name")
            p.expect_punct("{")
            decl = _TransDecl(ident.value, [], [], None, None, None, ident.span)
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                if p.at_keyword("pre"):
                    p.next()
                    decl.pre = [t.value for t in p.name_list()]
                elif p.at_keyword("post"):
                    p.next()
                    decl.post = [t.value for t in p.name_list()]
                elif p.at_keyword("var"):
                    p.next()
                    decl.var = p.expect_name("variable name").value
                elif p.at_keyword("fn"):
                    p.next()
                    decl.fn = p.expression()
                elif p.at_keyword("guard"):
                    p.next()
                    decl.guard = p.expression()
                else:
                    raise p.fail("expected pre, post, var, fn or guard")
                p.expect_punct(";")
            p.expect_punct("}")
            trans.append(decl)
        else:
            raise p.fail("expected a place or transition declaration")
    p.expect_punct("}")
    if p.peek().kind != "eof":
        raise p.fail("trailing input after the net")

    violations: list[Violation] = []
    seen: set[str] = set()
    for d in places:
        if d.name in seen:
            violations.append(Violation("DuplicateName", d.name, "place declared twice"))
        seen.add(d.name)
        spans[d.name] = d.span
    for d in trans:
        if d.name in seen:
            violations.append(Violation("DuplicateName", d.name, "name already declared"))
        seen.add(d.name)
        spans[d.name] = d.span
        if d.fn is None:
            violations.append(Violation("MissingFunction", d.name, "transition has no fn clause"))
    if violations:
        raise DslSemanticError(violations, spans)

    place_names = {d.name for d in places}
    var_of: dict[str, str] = {}
    for d in places:
        if d.var is not None:
            var_of[d.name] = d.var
    for d in trans:
        for q in d.pre + d.post:
            if q not in place_names:
                violations.append(Violation("UnknownPlace", q, f"in transition {d.name}"))
    if violations:
        raise DslSemanticError(violations, spans)

    # One variable per post-set: an explicit override wins, then any name
    # already fixed for a member, then the first post place's own name.
    for d in trans:
        fixed = {var_of[q] for q in d.post if q in var_of}
        if d.var is not None:
            fixed.add(d.var)
        if len(fixed) > 1:
            violations.append(Violation("PostsetVariableMismatch", d.name, f"conflicting names {sorted(fixed)}"))
            continue
        name = next(iter(fixed)) if fixed else (d.post[0] if d.post else None)
        for q in d.post:
            var_of[q] = name
    if violations:
        raise DslSemanticError(violations, spans)
    for d in places:
        var_of.setdefault(d.name, d.name)

    net = PresNet(
        name=name_tok.value,
        places=tuple(d.name for d in places),
        var_of=var_of,
        token_type={d.name: INT_TYPE for d in places},
        transitions=tuple(Transition(d.name, d.fn, d.guard) for d in trans),
        input_arcs=frozenset((q, d.name) for d in trans for q in d.pre),
        output_arcs=frozenset((d.name, q) for d in trans for q in d.post),
        initial_marking=frozenset(d.name for d in places if d.marked),
    )
    issues = validate_net(net)
    if issues:
        raise DslSemanticError(issues, spans)
    return NetDocument(net, spans)


def parse_pres(text: str) -> PresNet:
    return parse_net_document(text).net


@dataclass
class FsmdDocument:
    fsmd: Fsmd
    spans: dict[str, Span]


def parse_fsmd_document(text: str) -> FsmdDocument:
    p = _Parser(text)
    p.expect_keyword("fsmd")
    name_tok = p.expect_name("machine name")
    p.expect_punct("{")
    states: list[str] = []
    reset: Optional[str] = None
    inputs: list[str] = []
    storage: list[str] = []
    outputs: list[str] = []
    transitions: list[FsmdTransition] = []
    spans: dict[str, Span] = {name_tok.value: name_tok.span}

    while not (p.peek().kind == "punct" and p.peek().value == "}"):
        if p.at_keyword("states"):
            p.next()
            for tok in p.name_list():
                states.append(tok.value)
                spans.setdefault(tok.value, tok.span)
            p.expect_punct(";")
        elif p.at_keyword("reset"):
            p.next()
            reset = p.expect_name("state name").value
            p.expect_punct(";")
        elif p.at_keyword("inputs"):
            p.next()
            inputs.extend(t.value for t in p.name_list())
            p.expect_punct(";")
        elif p.at_keyword("storage"):
            p.next()
            storage.extend(t.value for t in p.name_list())
            p.expect_punct(";")
        elif p.at_keyword("outputs"):
            p.next()
            outputs.extend(t.value for t in p.name_list())
            p.expect_punct(";")
        else:
            src = p.expect_name("state name")
            p.expect_punct("->")
            dst = p.expect_name("state name")
            guards: list[ex.Expr] = []
            if p.at_keyword("when"):
                p.next()
                guards.append(p.expression())
                while p.peek().kind == "punct" and p.peek().value == ",":
                    p.next()
                    guards.append(p.expression())
            p.expect_punct("{")
            pairs: list[tuple[str, ex.Expr]] = []
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                target = p.expect_name("variable name")
                p.expect_punct("<=")
                pairs.append((target.value, p.expression()))
                p.expect_punct(";")
            p.expect_punct("}")
            spans.setdefault(f"{src.value}->{dst.value}#{len(transitions)}", src.span)
            transitions.append(FsmdTransition(src.value, tuple(guards), dst.value, UpdateSet.of(pairs)))

    p.expect_punct("}")
    if p.peek().kind != "eof":
        raise p.fail("trailing input after the machine")
    if reset is None:
        if not states:
            raise DslSemanticError([Violation("MissingReset", name_tok.value, "no states and no reset")], spans)
        reset = states[0]

    machine = Fsmd(
        name=name_tok.value,
        states=tuple(states),
        reset=reset,
        inputs=frozenset(inputs),
        storage=frozenset(storage),
        outputs=frozenset(outputs),
        transitions=tuple(transitions),
    )
    issues = validate_fsmd(machine)
    if issues:
        raise DslSemanticError(issues, spans)
    return FsmdDocument(machine, spans)


def parse_fsmd(text: str) -> Fsmd:
    return parse_fsmd_document(text).fsmd


@dataclass
class InterpDecl:
    symbol: str
    params: list[str]
    body: ex.Expr


@dataclass
class ScenarioDocument:
    name: str
    left: Optional[str] = None
    right: Optional[str] = None
    check: str = "functional"  # cardinality | functional | fsmd
    strategy: str = "symbolic"  # symbolic | sampled
    in_map: dict[str, str] = field(default_factory=dict)
    out_map: dict[str, str] = field(default_factory=dict)
    var_map: dict[str, str] = field(default_factory=dict)
    vectors: list[dict[str, int]] = field(default_factory=list)
    interps: list[InterpDecl] = field(default_factory=list)
    default_seed: Optional[int] = None
    max_steps: int = 1_000
    state_bound: int = 10_000
    base_dir: str = "."

    def resolve(self, path: Optional[str]) -> Optional[str]:
        if path is None:
            return None
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)


def _parse_map_block(p: _Parser) -> dict[str, str]:
    out: dict[str, str] = {}
    p.expect_punct("{")
    while not (p.peek().kind == "punct" and p.peek().value == "}"):
        a = p.expect_name()
        p.expect_punct("->")
        b = p.expect_name()
        p.expect_punct(";")
        out[a.value] = b.value
    p.expect_punct("}")
    return out


def parse_scenario(text: str, base_dir: str = ".") -> ScenarioDocument:
    p = _Parser(text)
    p.expect_keyword("scenario")
    name = p.expect_name("scenario name").value
    doc = ScenarioDocument(name=name, base_dir=base_dir)
    p.expect_punct("{")
    while not (p.peek().kind == "punct" and p.peek().value == "}"):
        if p.at_keyword("model"):
            p.next()
            side = p.next()
            if side.kind != "ident" or side.value not in ("left", "right"):
                raise DslSyntaxError("expected 'left' or 'right'", side.span)
            p.expect_punct("=")
            path = p.peek()
            if path.kind != "string":
                raise p.fail("expected a quoted file path")
            p.next()
            p.expect_punct(";")
            if side.value == "left":
                doc.left = path.value
            else:
                doc.right = path.value
        elif p.at_keyword("check"):
            p.next()
            kind = p.next()
            if kind.kind != "ident" or kind.value not in ("cardinality", "functional", "fsmd"):
                raise DslSyntaxError("expected cardinality, functional or fsmd", kind.span)
            doc.check = kind.value
            p.expect_punct(";")
        elif p.at_keyword("strategy"):
            p.next()
            kind = p.next()
            if kind.kind != "ident" or kind.value not in ("symbolic", "sampled"):
                raise DslSyntaxError("expected symbolic or sampled", kind.span)
            doc.strategy = kind.value
            p.expect_punct(";")
        elif p.at_keyword("inmap"):
            p.next()
            doc.in_map.update(_parse_map_block(p))
        elif p.at_keyword("outmap"):
            p.next()
            doc.out_map.update(_parse_map_block(p))
        elif p.at_keyword("varmap"):
            p.next()
            doc.var_map.update(_parse_map_block(p))
        elif p.at_keyword("inputs"):
            p.next()
            p.expect_punct("{")
            vector: dict[str, int] = {}
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                place = p.expect_name("place name")
                p.expect_punct("=")
                vector[place.value] = p.expect_int()
                p.expect_punct(";")
            p.expect_punct("}")
            doc.vectors.append(vector)
        elif p.at_keyword("interp"):
            p.next()
            if p.at_keyword("default"):
                p.next()
                p.expect_keyword("seeded")
                doc.default_seed = p.expect_int()
                p.expect_punct(";")
                continue
            symbol = p.expect_name("function symbol")
            p.expect_punct("(")
            params: list[str] = []
            if not (p.peek().kind == "punct" and p.peek().value == ")"):
                params = [t.value for t in p.name_list()]
            p.expect_punct(")")
            p.expect_punct("=")
            body = p.expression()
            p.expect_punct(";")
            extra = ex.free_vars(body) - set(params)
            if extra:
                raise DslSemanticError(
                    [Violation("UnknownVariable", symbol.value, f"interp body reads {sorted(extra)}")]
                )
            doc.interps.append(InterpDecl(symbol.value, params, body))
        elif p.at_keyword("maxsteps"):
            p.next()
            doc.max_steps = p.expect_int()
            p.expect_punct(";")
        elif p.at_keyword("statebound"):
            p.next()
            doc.state_bound = p.expect_int()
            p.expect_punct(";")
        else:
            raise p.fail("unknown scenario clause")
    p.expect_punct("}")
    if p.peek().kind != "eof":
        raise p.fail("trailing input after the scenario")
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
        pre = ", ".join(sorted(p for p, tid in net.input_arcs if tid == t.id))
        post = ", ".join(sorted(p for tid, p in net.output_arcs if tid == t.id))
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
