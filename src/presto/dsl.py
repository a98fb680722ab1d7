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

A second value never replaces the first.  A second ``pre``, ``post``,
``var``, ``fn`` or ``guard`` clause in one transition, a second ``reset``
in a machine, a second ``model left``, ``model right``, ``check``,
``strategy``, ``interp default``, ``maxsteps`` or ``statebound`` in a
scenario, a second ``interp`` line for one symbol, a parameter named
twice in one ``interp`` line, a place named twice in one ``pre`` or
``post`` list or in one ``inputs`` block, a name mapped twice by
``inmap``, ``outmap`` or ``varmap`` (in one block or in two) and a
variable updated twice in one machine transition are each a syntax error
at the second one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Optional

from . import expr as ex
from .fsmd import DuplicateTarget, Fsmd, FsmdTransition, UpdateSet, transition_label, validate_fsmd
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
# text is the token "".  The alternatives come in about the order of how often
# they occur, names and one-character punctuation first; a character that
# starts a two-character operator is tried after the operators.
_TOKEN = r'[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*|[{}(),;=+*]|[0-9]+|->|<=|>=|!=|[<>-]|"[^"\n]*"'
# One match per token, after the blanks and comments before it.  A character
# no token starts with takes the rest of the text, so the scan ends at the
# first lexical error.
_SCAN = re.compile(rf'[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*({_TOKEN}|[^ \t\r\n][\s\S]*|\Z)')
_VALID = re.compile(_TOKEN)


def _is_name(tok: str) -> bool:
    """Whether a token is an identifier that is not a reserved word.

    A token starts with a letter, ``_``, a digit, ``"`` or punctuation, and
    of these only letters and ``_`` sort from "A" to below "{", so one
    chained comparison tells an identifier.
    """
    return "A" <= tok < "{" and tok not in RESERVED


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
    """A document's tokens and the reader's place in them.

    The net and scenario readers and :meth:`expression` hold the index in
    a local variable and check each token where they read it, so on
    well-formed input they call no method per token; ``pos`` is written
    back only around a call to :meth:`expression` and to point an error at
    its token.  The machine reader goes through :meth:`expect`,
    :meth:`name` and :meth:`name_list`.
    """

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

    def fail(self, message: str, at: Optional[int] = None) -> DslSyntaxError:
        """The error ``message`` at token ``at`` (by default the current one)."""
        if at is not None:
            self.pos = at
        return DslSyntaxError(message, self.spans({"": self.pos})[""])

    def missing(self, value: str, at: int) -> DslSyntaxError:
        """The error for token ``at``, which is not ``value``."""
        return self.fail(f"expected {value!r}, found {_shown(self.toks[at])!r}", at)

    def no_name(self, at: int, what: str = "identifier") -> DslSyntaxError:
        """The error for token ``at``, which is not a name or is a reserved one."""
        tok = self.toks[at]
        if tok in RESERVED:
            return self.fail(f"{tok!r} is a reserved word", at)
        return self.fail(f"expected {what}, found {_shown(tok)!r}", at)

    def expect(self, value: str) -> None:
        if self.toks[self.pos] != value:
            raise self.missing(value, self.pos)
        self.pos += 1

    def name(self, what: str = "identifier") -> str:
        tok = self.toks[self.pos]
        if not _is_name(tok):
            raise self.no_name(self.pos, what)
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

    # Expressions: precedence climbing over the binary operators, with the
    # operand read in place and `not` and unary minus as prefixes.  A level
    # of nesting costs at most two stack frames, so MAX_NESTING stays well
    # inside the recursion limit.
    def expression(self, level: int = 1) -> ex.Expr:
        """An expression whose operators bind at least as tightly as ``level``.

        A literal, a name, an application, a parenthesized expression, a
        negated operand or (at ``level`` up to ``_NOT``) `not` and an
        expression, then the binary operators that may follow it.
        """
        toks = self.toks
        i = self.pos
        tok = toks[i]
        top = _UNARY  # precedence of the operator at the root of ``out``
        if _is_name(tok):
            i += 1
            if toks[i] != "(":
                out = ex.Var(tok)
            else:
                self.pos = i = i + 1
                self._deeper()
                if toks[i] == ")":
                    args: tuple[ex.Expr, ...] = ()
                else:
                    terms = [self.expression()]
                    while toks[self.pos] == ",":
                        self.pos += 1
                        terms.append(self.expression())
                    args = tuple(terms)
                    i = self.pos
                self.depth -= 1
                if toks[i] != ")":
                    raise self.missing(")", i)
                i += 1
                out = ex.Apply(tok, args)
        elif tok.isdigit():
            i += 1
            out = ex.IntConst(int(tok))
        elif tok == "(":
            self.pos = i + 1
            self._deeper()
            out = self.expression()
            self.depth -= 1
            i = self.pos
            if toks[i] != ")":
                raise self.missing(")", i)
            i += 1
        elif tok == "-":
            # A minus directly before a literal is the literal's sign, so
            # `-5` is a constant while `-(5)` stays a negation node.
            if toks[i + 1].isdigit():
                out = ex.IntConst(-int(toks[i + 1]))
                i += 2
            else:
                self.pos = i + 1
                self._deeper()
                out = ex.Arith("neg", (self.expression(_UNARY + 1),))  # above every binary operator: one operand
                self.depth -= 1
                i = self.pos
        elif tok == "not" and level <= _NOT:
            self.pos = i + 1
            self._deeper()
            out, top = ex.BoolOp("not", (self.expression(_NOT),)), _NOT
            self.depth -= 1
            i = self.pos
        elif tok in _BOOLS:
            i += 1
            out = _BOOLS[tok]
        else:
            raise self.no_name(i, "an expression")
        while True:
            op = toks[i]
            prec = _BINARY.get(op)
            # Stop below ``level``, above what ``out`` may be an operand of,
            # and at a second relation (relations do not chain).
            if prec is None or prec < level or prec > top or prec == top == _REL:
                self.pos = i
                return out
            self.pos = i + 1
            rhs = self.expression(prec + 1)
            i = self.pos
            if op == "or" or op == "and":
                out = ex.BoolOp(op, (*out.args, rhs) if top == prec else (out, rhs))
            elif op == "+" or op == "*":
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
    # The net as read; a transition's ``var`` clause is kept only where one
    # is given.
    places: list[str] = []
    marked: list[str] = []
    var_of: dict[str, str] = {}  # the places' own var clauses; every place's variable once resolved
    transitions: list[Transition] = []
    postsets: dict[str, list[str]] = {}  # each transition's post places in the order given
    overrides: dict[str, str] = {}

    i = p.pos
    while (kind := toks[i]) != "}":
        if kind == "place":
            name = toks[i + 1]
            if not _is_name(name):
                raise p.no_name(i + 1, "place name")
            i += 2
            if toks[i] == "marked":
                marked.append(name)
                i += 1
            if toks[i] == "var":
                var = toks[i + 1]
                if not _is_name(var):
                    raise p.no_name(i + 1, "variable name")
                var_of[name] = var
                i += 2
            if toks[i] != ";":
                raise p.missing(";", i)
            places.append(name)
        elif kind == "transition":
            name = toks[i + 1]
            if not _is_name(name):
                raise p.no_name(i + 1, "transition name")
            if toks[i + 2] != "{":
                raise p.missing("{", i + 2)
            i += 3
            pre = post = var = fn = guard = None
            postsets[name] = []
            while (clause := toks[i]) != "}":
                if clause == "pre" or clause == "post":
                    if (pre if clause == "pre" else post) is not None:
                        raise p.fail(f"{clause!r} given twice in transition {name}", i)
                    i += 1
                    first = i
                    ends = []
                    while True:
                        q = toks[i]
                        if not _is_name(q):
                            raise p.no_name(i)
                        ends.append(q)
                        if toks[i + 1] != ",":
                            break
                        i += 2
                    i += 1
                    places_of = frozenset(ends)
                    if len(places_of) < len(ends):
                        k = next(k for k, q in enumerate(ends) if q in ends[:k])
                        raise p.fail(f"place {ends[k]!r} given twice in {clause} of transition {name}", first + 2 * k)
                    if clause == "pre":
                        pre = places_of
                    else:
                        post = places_of
                        postsets[name] = ends
                elif clause == "fn" or clause == "guard":
                    if (fn if clause == "fn" else guard) is not None:
                        raise p.fail(f"{clause!r} given twice in transition {name}", i)
                    p.pos = i + 1
                    term = p.expression()
                    i = p.pos
                    if clause == "fn":
                        fn = term
                    else:
                        guard = term
                elif clause == "var":
                    if var is not None:
                        raise p.fail(f"'var' given twice in transition {name}", i)
                    var = toks[i + 1]
                    if not _is_name(var):
                        raise p.no_name(i + 1, "variable name")
                    overrides[name] = var
                    i += 2
                else:
                    raise p.fail("expected pre, post, var, fn or guard", i)
                if toks[i] != ";":
                    raise p.missing(";", i)
                i += 1
            transitions.append(Transition(name, pre or frozenset(), post or frozenset(), fn, guard))
        else:
            raise p.fail("expected a place or transition declaration", i)
        i += 1
    p.pos = i + 1
    p.end("the net")

    def spans() -> dict[str, Span]:
        """line:col of the net's name and of each declared name (the last declaration of a name wins).

        ``place`` and ``transition`` are reserved, so in a net read to its
        end each one is a keyword with the declared name after it.
        """
        where = {net_name: name_at}
        for keyword in ("place", "transition"):
            where.update((toks[j + 1], j + 1) for j, tok in enumerate(toks) if tok == keyword)
        return p.spans(where)

    # One variable per post-set: an explicit override wins, then any name
    # already fixed for a member, then the first post place's own name.
    # ``var`` clauses are resolved before there is a net, so two names for
    # one post-set are the reader's to report; validate_net holds every
    # other rule.
    violations: list[Violation] = []
    for tid, post in postsets.items():
        var = overrides.get(tid)
        if var is None and len(post) == 1:
            var_of.setdefault(post[0], post[0])
            continue
        fixed = {var_of[q] for q in post if q in var_of}
        if var is not None:
            fixed.add(var)
        if len(fixed) > 1:
            violations.append(Violation("PostsetVariableMismatch", tid, f"conflicting names {sorted(fixed)}"))
            continue
        shared = next(iter(fixed)) if fixed else (post[0] if post else None)
        for q in post:
            var_of[q] = shared
    if violations:
        raise DslSemanticError(violations, spans())
    for name in places:
        var_of.setdefault(name, name)

    net = PresNet(net_name, tuple(places), var_of, tuple(transitions), frozenset(marked))
    issues = validate_net(net)
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
                where[state] = first + 2 * i  # names alternate with commas; a duplicate is named where it is
            p.expect(";")
        elif clause == "reset":
            if reset is not None:
                raise p.fail("'reset' given twice")
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
            targets_at: list[int] = []
            while toks[p.pos] != "}":
                targets_at.append(p.pos)
                target = p.name("variable name")
                p.expect("<=")
                pairs.append((target, p.expression()))
                p.expect(";")
            p.pos += 1
            try:
                updates = UpdateSet.of(pairs)
            except DuplicateTarget as err:  # the rule is UpdateSet's; the reader adds where it broke
                raise p.fail(str(err), [j for j in targets_at if toks[j] == err.name][1]) from None
            t = FsmdTransition(src, tuple(guards), dst, updates)
            where.setdefault(transition_label(t, len(transitions)), at)
            transitions.append(t)
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
    list left out is a new, empty one.  Model paths are kept as written; the
    reader of the file joins a relative one to the file's folder."""

    __slots__ = _fields = ("name", "left", "right", "check", "strategy", "in_map", "out_map", "var_map", "vectors",
                           "interps", "default_seed", "max_steps", "state_bound")

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
    ) -> None:
        self.name, self.left, self.right, self.check, self.strategy = name, left, right, check, strategy
        self.in_map = {} if in_map is None else in_map
        self.out_map = {} if out_map is None else out_map
        self.var_map = {} if var_map is None else var_map
        self.vectors = [] if vectors is None else vectors
        self.interps = [] if interps is None else interps
        self.default_seed, self.max_steps, self.state_bound = default_seed, max_steps, state_bound


_MAPS = {"inmap": "in_map", "outmap": "out_map", "varmap": "var_map"}
_BOUNDS = {"maxsteps": "max_steps", "statebound": "state_bound"}
_CHOICES = {"check": ("cardinality", "functional", "fsmd"), "strategy": ("symbolic", "sampled")}


def parse_scenario(text: str) -> ScenarioDocument:
    """The scenario document in ``text``; its model paths are not resolved."""
    p = _Parser(text)
    toks = p.toks
    p.expect("scenario")
    doc = ScenarioDocument(name=p.name("scenario name"))
    p.expect("{")
    given: set[str] = set()  # the clauses that set one field, as given: "model left", "check", ...
    symbols: set[str] = set()  # the interpreted symbols

    def once(key: str, at: int) -> None:
        if key in given:
            raise p.fail(f"{key!r} given twice", at)
        given.add(key)

    i = p.pos
    while (clause := toks[i]) != "}":
        i += 1
        if clause in _MAPS:
            pairs = getattr(doc, _MAPS[clause])
            if toks[i] != "{":
                raise p.missing("{", i)
            i += 1
            while (a := toks[i]) != "}":
                if not _is_name(a):
                    raise p.no_name(i)
                if a in pairs:
                    raise p.fail(f"{a!r} mapped twice in {clause}", i)
                if toks[i + 1] != "->":
                    raise p.missing("->", i + 1)
                b = toks[i + 2]
                if not _is_name(b):
                    raise p.no_name(i + 2)
                if toks[i + 3] != ";":
                    raise p.missing(";", i + 3)
                pairs[a] = b
                i += 4
            i += 1
            continue
        if clause == "inputs":
            if toks[i] != "{":
                raise p.missing("{", i)
            i += 1
            vector: dict[str, int] = {}
            while (place := toks[i]) != "}":
                if not _is_name(place):
                    raise p.no_name(i, "place name")
                if place in vector:
                    raise p.fail(f"place {place!r} given twice in inputs", i)
                if toks[i + 1] != "=":
                    raise p.missing("=", i + 1)
                p.pos = i + 2
                vector[place] = p.integer()
                i = p.pos
                if toks[i] != ";":
                    raise p.missing(";", i)
                i += 1
            i += 1
            doc.vectors.append(vector)
            continue
        if clause == "model":
            side = toks[i]
            if side not in ("left", "right"):
                raise p.fail("expected 'left' or 'right'", i)
            once(f"model {side}", i - 1)
            if toks[i + 1] != "=":
                raise p.missing("=", i + 1)
            if toks[i + 2][:1] != '"':
                raise p.fail("expected a quoted file path", i + 2)
            setattr(doc, side, toks[i + 2][1:-1])
            i += 3
        elif clause in _CHOICES:
            once(clause, i - 1)
            *some, last = choices = _CHOICES[clause]
            if toks[i] not in choices:
                raise p.fail(f"expected {', '.join(some)} or {last}", i)
            setattr(doc, clause, toks[i])
            i += 1
        elif clause == "interp" and toks[i] == "default":
            once("interp default", i - 1)
            if toks[i + 1] != "seeded":
                raise p.missing("seeded", i + 1)
            p.pos = i + 2
            doc.default_seed = p.integer()
            i = p.pos
        elif clause == "interp":
            symbol = toks[i]
            if not _is_name(symbol):
                raise p.no_name(i, "function symbol")
            if symbol in symbols:
                raise p.fail(f"interp {symbol!r} given twice", i)
            symbols.add(symbol)
            if toks[i + 1] != "(":
                raise p.missing("(", i + 1)
            i += 2
            params: list[str] = []
            if toks[i] != ")":
                while True:
                    param = toks[i]
                    if not _is_name(param):
                        raise p.no_name(i)
                    if param in params:
                        raise p.fail(f"parameter {param!r} given twice in interp {symbol}", i)
                    params.append(param)
                    if toks[i + 1] != ",":
                        break
                    i += 2
                i += 1
            if toks[i] != ")":
                raise p.missing(")", i)
            if toks[i + 1] != "=":
                raise p.missing("=", i + 1)
            p.pos = i + 2
            body = p.expression()
            i = p.pos
            if toks[i] != ";":
                raise p.missing(";", i)
            extra = ex.free_vars(body) - set(params)
            if extra:
                raise DslSemanticError([Violation("UnknownVariable", symbol, f"interp body reads {sorted(extra)}")])
            doc.interps.append(InterpDecl(symbol, params, body))
        elif clause in _BOUNDS:
            once(clause, i - 1)
            p.pos = i
            bound = p.integer()
            if bound < 1:
                raise p.fail(f"{clause} must be at least 1, found {bound}", i)
            setattr(doc, _BOUNDS[clause], bound)
            i = p.pos
        else:
            raise p.fail("unknown scenario clause", i - 1)
        if toks[i] != ";":
            raise p.missing(";", i)
        i += 1
    p.pos = i + 1
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
        lines.append(f"  transition {t.id} {{")
        lines.append(f"    pre {', '.join(sorted(t.pre))};")
        lines.append(f"    post {', '.join(sorted(t.post))};")
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
