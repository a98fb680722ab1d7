import os
import random
import time

import pytest

from presto import corpus, dsl, expr as ex
from presto.convert import pres_to_fsmd
from presto.dsl import (
    MAX_NESTING,
    DslError,
    DslSemanticError,
    DslSyntaxError,
    parse_expression,
    parse_fsmd,
    parse_pres,
    parse_scenario,
    print_fsmd,
    print_net,
)
from presto.fsmd import DuplicateTarget, validate_fsmd

from _gen import random_net


class TestExpressionSyntax:
    def test_precedence(self):
        assert parse_expression("a + b * c") == ex.add(ex.Var("a"), ex.mul(ex.Var("b"), ex.Var("c")))

    def test_not_binds_looser_than_relations(self):
        e = parse_expression("not a = b")
        assert e == ex.BoolOp("not", (ex.Rel("=", ex.Var("a"), ex.Var("b")),))

    def test_hyphen_binds_into_identifiers(self):
        assert parse_expression("in-Copy(x)") == ex.Apply("in-Copy", (ex.Var("x"),))
        assert parse_expression("a-b") == ex.Var("a-b")
        assert parse_expression("a - b") == ex.sub(ex.Var("a"), ex.Var("b"))

    def test_negative_literals(self):
        assert parse_expression("-5") == ex.IntConst(-5)
        assert parse_expression("a - -5") == ex.sub(ex.Var("a"), ex.IntConst(-5))
        assert parse_expression("-(5)") == ex.neg(ex.IntConst(5))

    def test_trailing_input_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_expression("a + b c")

    @pytest.mark.parametrize("opening, levels, core, closing", [
        ("f(", 1, "x", ")"), ("(", 1, "x", ")"), ("- ", 1, "x", ""), ("not ", 1, "x > 0", ""),
        ("g(-(not ", 4, "x = 1", "))"),
    ])
    def test_nesting_limit(self, opening, levels, core, closing):
        def nest(reps):
            return opening * reps + core + closing * reps

        assert MAX_NESTING == 200
        parse_expression(nest(MAX_NESTING // levels))
        with pytest.raises(DslSyntaxError, match="nested deeper than 200") as err:
            parse_expression(nest(MAX_NESTING // levels + 1))
        assert err.value.span.line == 1 and err.value.span.col > 1

    def test_relations_do_not_chain(self):
        for text in ("a < b < c", "not a < b <= c", "x = 1 and a < b < c"):
            with pytest.raises(DslSyntaxError):
                parse_expression(text)
        assert parse_expression("(a < b) = c") == ex.Rel("=", ex.Rel("<", ex.Var("a"), ex.Var("b")), ex.Var("c"))


class TestNetParsing:
    def test_guard_split_fixture_shape(self, guard_split):
        assert len(guard_split.places) == 7
        assert len(guard_split.transitions) == 3
        by_id = {t.id: t for t in guard_split.transitions}
        assert by_id["t2"].guard is not None
        assert by_id["t1"].guard is None and by_id["t3"].guard is None
        assert guard_split.var_of["p5"] == "p6"

    def test_empty_file_is_a_syntax_error(self):
        with pytest.raises(DslSyntaxError):
            parse_pres("")

    def test_duplicate_place_is_semantic(self):
        src = "net d { place a marked; place a; transition t { pre a; post a; fn a; } }"
        with pytest.raises(DslSemanticError) as err:
            parse_pres(src)
        assert any(v.rule == "DuplicateName" and v.element == "a" for v in err.value.violations)

    def test_semantic_errors_carry_spans(self):
        src = """net d {
          place a marked;
          transition t { pre a; post a; fn zz; }
        }"""
        with pytest.raises(DslSemanticError) as err:
            parse_pres(src)
        assert any(v.rule == "FunctionScopeViolation" for v in err.value.violations)
        assert err.value.spans["t"].line == 3

    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_pres("net d {\n  place 5;\n}")
        assert err.value.span.line == 2

    def test_round_trip_all_corpus_nets(self):
        for name in corpus.NETS:
            with open(corpus.corpus_path(name), encoding="utf-8") as fh:
                src = fh.read()
            first = parse_pres(src)
            second = parse_pres(print_net(first))
            assert first == second, name
            assert print_net(second) == print_net(first), name


class TestFsmdParsing:
    def test_reset_only_machine(self):
        m = parse_fsmd("fsmd tiny { states q0; reset q0; }")
        assert m.states == ("q0",)
        assert m.reset == "q0"
        assert m.transitions == ()

    def test_a_machine_without_reset_resets_at_its_first_state(self):
        m = parse_fsmd("fsmd m { states q1, q0; q1 -> q0 { } }")
        assert (m.reset, m.states) == ("q1", ("q1", "q0"))

    def test_duplicate_guard_key_rejected(self):
        with open(corpus.corpus_path("dup_guard_key"), encoding="utf-8") as fh:
            src = fh.read()
        with pytest.raises(DslSemanticError) as err:
            parse_fsmd(src)
        assert any(v.rule == "NondeterministicF" for v in err.value.violations)

    def test_round_trip_converted_machines(self, jammer_nonpipelined, jammer_pipelined, addthree_a, addthree_b):
        for net in (jammer_nonpipelined, jammer_pipelined, addthree_a, addthree_b):
            m = pres_to_fsmd(net).fsmd
            text = print_fsmd(m)
            again = parse_fsmd(text)
            assert print_fsmd(again) == text
            assert again.states == m.states
            assert again.reset == m.reset
            assert again.inputs == m.inputs and again.outputs == m.outputs
            assert len(again.transitions) == len(m.transitions)

    def test_stepwise_chain_counts(self, jammer_nonpipelined):
        m = parse_fsmd(print_fsmd(pres_to_fsmd(jammer_nonpipelined).fsmd))
        assert len(m.states) == 16
        assert len(m.transitions) == 15


class TestScenarioParsing:
    def test_jammer_scenario_fields(self):
        doc = corpus.load_scenario("jammer")
        assert doc.check == "fsmd"
        assert doc.var_map == {"out": "out2"}
        assert doc.vectors == [{"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}]
        assert doc.default_seed == 11
        # `seeds` was parsed but read by nothing, so it is no longer a clause.
        with pytest.raises(DslSyntaxError, match="unknown scenario clause"):
            parse_scenario("scenario s { seeds 10; }")
        assert doc.left.endswith("jammer_nonpipelined.pres")

    def test_interp_bodies_evaluate(self):
        doc = corpus.load_scenario("guard_split")
        decl = next(d for d in doc.interps if d.symbol == "f_t1")
        assert ex.evaluate(decl.body, dict(zip(decl.params, (2, 3)))) == 5

    def test_interp_body_scope_checked(self):
        with pytest.raises(DslSemanticError):
            parse_scenario('scenario s { interp f(x) = x + zz; }')

    def test_unknown_clause_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_scenario("scenario s { bogus 3; }")


# Malformed documents and the exact error each one gives: the message and
# its line:col.  Lexical errors win over any syntax error later in the text.
_NEST = "(" * 201 + "x" + ")" * 201
GOLDEN_ERRORS = [
    (parse_pres, "net n { place a; $ }", "1:18: stray character '$'"),
    (parse_pres, "net n {\n  place a;\n  transition t {\n    pre a;\n    post a;\n    fn a @ 2;\n  }\n}",
     "6:10: stray character '@'"),
    (parse_expression, "1 ! 2", "1:3: stray character '!'"),
    (parse_pres, "net place { $", "1:13: stray character '$'"),
    (parse_pres, 'net n { place a; }\n"abc', "2:1: unterminated string"),
    (parse_scenario, 'scenario s { model left = "a.pres\n; }', "1:27: unterminated string"),
    (parse_pres, "net place { }", "1:5: 'place' is a reserved word"),
    (parse_pres, "net n { place var; }", "1:15: 'var' is a reserved word"),
    (parse_pres, "net n { place a", "1:16: expected ';', found 'eof'"),
    (parse_pres, "", "1:1: expected 'net', found 'eof'"),
    (parse_pres, 'net "abc" { }', "1:5: expected net name, found 'abc'"),
    (parse_pres, 'net "" { }', "1:5: expected net name, found 'string'"),
    (parse_pres, "net n { place a; } x", "1:20: trailing input after the net"),
    (parse_fsmd, "fsmd m { states q0; } }", "1:23: trailing input after the machine"),
    (parse_scenario, 'scenario s { model left = "x.pres"; } "}"', "1:39: trailing input after the scenario"),
    (parse_expression, "a + b c", "1:7: trailing input after expression"),
    (parse_fsmd, "fsmd m { states q0; q0 -> q1 { x <= " + _NEST + "; } }",
     "1:238: expression nested deeper than 200 levels"),
    (parse_scenario, "scenario s { inmap { a => b; } }", "1:24: expected '->', found '='"),
    (parse_scenario, 'scenario s { model middle = "a.pres"; }', "1:20: expected 'left' or 'right'"),
    (parse_scenario, "scenario s { model", "1:19: expected 'left' or 'right'"),
    (parse_scenario, "scenario s { model left = a; }", "1:27: expected a quoted file path"),
    (parse_scenario, 'scenario s { model left = "a"; model right "b"; }', "1:44: expected '=', found 'b'"),
    (parse_scenario, 'scenario s { check "fsmd"; }', "1:20: expected cardinality, functional or fsmd"),
    (parse_scenario, "scenario s { strategy random; }", "1:23: expected symbolic or sampled"),
    (parse_scenario, "scenario s { inputs { a = x; } }", "1:27: expected an integer, found 'x'"),
    (parse_scenario, "scenario s { interp default random 3; }", "1:29: expected 'seeded', found 'random'"),
    (parse_pres, "net n { place a; transition t { pre a; post a; fn 1 +; } }", "1:54: expected an expression, found ';'"),
    (parse_pres, "net n { place a; transition t { pre a; post a; bogus 1; } }",
     "1:48: expected pre, post, var, fn or guard"),
    (parse_pres, "net n { widget a; }", "1:9: expected a place or transition declaration"),
    (parse_pres, "net n\n{\n\tplace a marked var ;\n}", "3:21: expected variable name, found ';'"),
    (parse_pres, "net n { place a\r\n; place ; }", "2:9: expected place name, found ';'"),
    (parse_fsmd, "fsmd m { states q0, q1; q0 q1 { } }", "1:28: expected '->', found 'q1'"),
    (parse_fsmd, "fsmd m { states q0; q0 -> q0 { x <= 1; ", "1:40: expected variable name, found 'eof'"),
    (parse_pres, "net n { place a; transition place { } }", "1:29: 'place' is a reserved word"),
    (parse_pres, "net n { place a; transition 5 { } }", "1:29: expected transition name, found '5'"),
    (parse_pres, "net n { place a; transition t pre a; }", "1:31: expected '{', found 'pre'"),
    (parse_pres, "net n { place a; transition t { pre a, ; post a; fn a; } }", "1:40: expected identifier, found ';'"),
    (parse_pres, "net n { place a; transition t { pre a; post a,; fn a; } }", "1:47: expected identifier, found ';'"),
    (parse_pres, "net n { place a; transition t { pre a; post a; var ; fn a; } }",
     "1:52: expected variable name, found ';'"),
    (parse_scenario, "scenario s { inmap { a -> b } }", "1:29: expected ';', found '}'"),
    (parse_scenario, "scenario s { inputs { a 1; } }", "1:25: expected '=', found '1'"),
    (parse_scenario, "scenario s { interp f(x = x; }", "1:25: expected ')', found '='"),
    (parse_scenario, "scenario s { interp f(x) x; }", "1:26: expected '=', found 'x'"),
    (parse_scenario, "scenario s { maxsteps 0; }", "1:23: maxsteps must be at least 1, found 0"),
    (parse_expression, "f(", "1:3: expected an expression, found 'eof'"),
    (parse_expression, "f(x", "1:4: expected ')', found 'eof'"),
    (parse_expression, "a +", "1:4: expected an expression, found 'eof'"),
    # A clause, key or parameter given a second time is an error at the
    # second one, not a silent replacement of the first.
    (parse_pres, "net n { place a; place c; place b; transition t { pre a; pre c; post b; fn c; } }",
     "1:58: 'pre' given twice in transition t"),
    (parse_pres, "net n { place a; transition t { pre a; post a; post a; fn a; } }",
     "1:48: 'post' given twice in transition t"),
    (parse_pres, "net n { place a; transition t { pre a; post a; fn a; fn 1; } }",
     "1:54: 'fn' given twice in transition t"),
    (parse_pres, "net n { place a; transition t { pre a; post a; fn a; guard a > 0; guard a < 0; } }",
     "1:67: 'guard' given twice in transition t"),
    (parse_pres, "net n { place a; transition t { var x; pre a; post a; var y; fn a; } }",
     "1:55: 'var' given twice in transition t"),
    (parse_pres, "net n { place a; place b; transition t { pre a, b, a; post b; fn a; } }",
     "1:52: place 'a' given twice in pre of transition t"),
    (parse_pres, "net n { place a; place b; transition t { pre a; post b, b; fn a; } }",
     "1:57: place 'b' given twice in post of transition t"),
    (parse_scenario, "scenario s { interp f(x) = x;\n  interp f(y) = y; }", "2:10: interp 'f' given twice"),
    (parse_scenario, "scenario s { interp g(x, x) = x; }", "1:26: parameter 'x' given twice in interp g"),
    (parse_scenario, "scenario s { inputs { a = 1; a = 2; } }", "1:30: place 'a' given twice in inputs"),
    (parse_scenario, "scenario s { inmap { a -> b; a -> c; } }", "1:30: 'a' mapped twice in inmap"),
    (parse_scenario, "scenario s { outmap { a -> b; }\n  outmap { a -> b; } }", "2:12: 'a' mapped twice in outmap"),
    (parse_scenario, "scenario s { varmap { a -> b; c -> d; a -> d; } }", "1:39: 'a' mapped twice in varmap"),
    (parse_scenario, 'scenario s { model left = "a.pres"; model left = "b.pres"; }', "1:37: 'model left' given twice"),
    (parse_scenario, "scenario s { check fsmd; check functional; }", "1:26: 'check' given twice"),
    (parse_scenario, "scenario s { interp default seeded 1; interp default seeded 2; }",
     "1:39: 'interp default' given twice"),
    (parse_scenario, "scenario s { maxsteps 3; maxsteps 4; }", "1:26: 'maxsteps' given twice"),
    (parse_fsmd, "fsmd m { states q0; reset q0; reset q0; }", "1:31: 'reset' given twice"),
    (parse_fsmd, "fsmd m { states q0, q1; q0 -> q1 { y <= x; y <= x + 1; } }",
     "1:44: two updates assign 'y' in one step"),
]


@pytest.mark.parametrize("parse, text, message", GOLDEN_ERRORS)
def test_golden_syntax_errors(parse, text, message):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert str(err.value) == message


def _two_places(transition):
    return f"net n {{\n  place a marked;\n  place b;\n  {transition}\n}}"


# Every well-formedness rule that text can break, with the message and the
# line:col of its element.  The reader resolves post-set variables and
# leaves every other rule to validate_net.
SEMANTIC_ERRORS = [
    ("net n { }", "1:5: EmptyPlaces: n (a net needs at least one place); "
                  "1:5: EmptyTransitions: n (a net needs at least one transition); "
                  "1:5: EmptyInputArcs: n (a net needs at least one input arc)"),
    ("net n {\n  place a marked;\n}", "1:5: EmptyTransitions: n (a net needs at least one transition); "
                                       "1:5: EmptyInputArcs: n (a net needs at least one input arc)"),
    (_two_places("transition t { post b; fn 1; }"), "1:5: EmptyInputArcs: n (a net needs at least one input arc); "
                                                    "4:14: EmptyPreset: t (transition has no input places)"),
    (_two_places("transition t { pre a; fn a; }"), "4:14: EmptyPostset: t (transition has no output places)"),
    (_two_places("transition t { pre a; post b; fn a < 1; }"), "4:14: IllSortedFunction: t (fn is not integer-sorted)"),
    (_two_places("transition t { pre a; post b; fn zz + a; }"),
     "4:14: FunctionScopeViolation: t (fn reads 'zz' outside the input variables)"),
    (_two_places("transition t { pre a; post b; fn a; guard a + 1; }"),
     "4:14: IllSortedGuard: t (guard is not boolean-sorted)"),
    (_two_places("transition t { pre a; post b; fn a; guard zz > 0; }"),
     "4:14: GuardScopeViolation: t (guard reads 'zz' outside the input variables)"),
    (_two_places("transition t { pre a; post b; fn f(a < 1); guard not a; }"),
     "4:14: IllSortedFunction: t (operand of 'f' is not int-sorted: a < 1); "
     "4:14: IllSortedGuard: t (operand of 'not' is not bool-sorted: a)"),
    ("net n {\n  place a marked;\n  place a;\n  transition a { pre a; post a; fn a; }\n}",
     "4:14: DuplicateName: a (place declared twice); 4:14: DuplicateName: a (name already declared)"),
    ("net n {\n  place a marked;\n  transition t { pre a, ghost; post a; fn a; }\n}",
     "UnknownPlace: ghost (in transition t)"),
    ("net n {\n  place a marked var x;\n  place b var y;\n  place c var z;\n  transition t { pre a; post b, c; fn a; }\n}",
     "5:14: PostsetVariableMismatch: t (conflicting names ['y', 'z'])"),
    ("net n {\n  place a marked;\n  transition t { pre a; post a; }\n}",
     "3:14: MissingFunction: t (transition has no fn clause)"),
]


@pytest.mark.parametrize("text, message", SEMANTIC_ERRORS)
def test_golden_semantic_errors(text, message):
    with pytest.raises(DslSemanticError) as err:
        parse_pres(text)
    assert str(err.value) == message


def test_eof_after_a_final_comment_points_at_the_end_of_the_text():
    with pytest.raises(DslSyntaxError) as err:
        parse_pres("# only a comment")
    assert str(err.value) == "1:17: expected 'net', found 'eof'"


def _spans_with_a_broken_end(text):
    """The spans of a semantic error raised by ``text`` with a transition
    that has no fn clause added as its last declaration."""
    head, _, _ = text.rpartition("}")
    with pytest.raises(DslSemanticError) as err:
        parse_pres(head + "  transition broken { pre p1; post p1; }\n}\n")
    assert [(v.rule, v.element) for v in err.value.violations] == [("MissingFunction", "broken")]
    return err.value.spans


def test_document_spans_cover_declarations():
    with open(corpus.corpus_path("guard_split"), encoding="utf-8") as fh:
        spans = _spans_with_a_broken_end(fh.read())
    assert {"p1", "p7", "t1", "t2", "t3", "broken"} <= set(spans)
    assert (str(spans["p1"]), str(spans["t2"]), str(spans["t3"])) == ("14:9", "27:14", "33:14")


def _chain_text(stages):
    lines = ["net chain {", "  place p0 marked;", *(f"  place p{i};" for i in range(1, stages + 1))]
    lines += [f"  transition t{i} {{ pre p{i}; post p{i + 1}; fn f(p{i}) + {i}; }}" for i in range(stages)]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("seed", range(50))
def test_random_nets_and_their_conversions_round_trip(seed):
    net = random_net(seed)
    assert parse_pres(print_net(net)) == net
    try:
        machine = pres_to_fsmd(net, on_unsafe="reject").fsmd
    except DuplicateTarget:  # a firing set writes one variable twice
        return
    issues = validate_fsmd(machine)
    if issues:  # the printed machine is the same one, so the same rules break
        with pytest.raises(DslSemanticError) as err:
            parse_fsmd(print_fsmd(machine))
        assert err.value.violations == issues
    else:
        assert parse_fsmd(print_fsmd(machine)) == machine


def test_8000_transition_chain_prints_and_round_trips_in_linear_time():
    net = parse_pres(_chain_text(8000))
    start = time.perf_counter()
    again = parse_pres(print_net(net))
    elapsed = time.perf_counter() - start
    assert again == net
    # A loose bound: a printer that rescans every arc for each transition
    # is quadratic and needs several seconds at this size.
    assert elapsed < 2.0, elapsed


def test_20000_transition_chain_parses_with_spans_in_linear_time():
    text = _chain_text(20_000)
    start = time.perf_counter()
    spans = _spans_with_a_broken_end(text)
    elapsed = time.perf_counter() - start
    assert len(spans) == 1 + 20_001 + 20_000 + 1  # the net, its places, its transitions and the broken one
    assert str(spans["t19999"]) == "40002:14" and str(spans["p20000"]) == "20002:9"
    assert elapsed < 5.0, elapsed  # loose: finding each span by counting lines from the top is quadratic


def _corpus_documents():
    """Every bundled net, machine and scenario, as (parser, printer or None, file name, text)."""
    root = os.path.dirname(corpus.corpus_path("racy"))
    kinds = {".pres": (parse_pres, print_net), ".fsmd": (parse_fsmd, print_fsmd), ".scn": (parse_scenario, None)}
    documents = []
    for folder in (root, os.path.join(root, "mutations"), os.path.join(root, "scenarios")):
        for name in sorted(os.listdir(folder)):
            kind = kinds.get(os.path.splitext(name)[1])
            if kind:
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    documents.append((*kind, name, fh.read()))
    return documents


def _mutated(text, rng):
    """``text`` with one token, chosen by ``rng``, deleted, doubled or swapped with the next one."""
    spans = [m.span(1) for m in dsl._SCAN.finditer(text) if m.group(1)]
    k = rng.randrange(len(spans) - 1)
    (s, e), (s2, e2) = spans[k], spans[k + 1]
    edit = rng.choice(("delete", "duplicate", "swap"))
    if edit == "delete":
        return text[:s] + " " + text[e:]
    if edit == "duplicate":
        return text[:e] + " " + text[s:e] + text[e:]
    return text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]


CORPUS_DOCUMENTS = _corpus_documents()


@pytest.mark.parametrize("parse, show, name, text", CORPUS_DOCUMENTS, ids=[name for _, _, name, _ in CORPUS_DOCUMENTS])
def test_a_document_with_one_token_edited_reads_or_fails_with_a_dsl_error(parse, show, name, text):
    rng = random.Random(name)
    for _ in range(40):
        mutant = _mutated(text, rng)
        try:
            model = parse(mutant)
        except DslError:
            continue
        if show is None:
            assert isinstance(model, dsl.ScenarioDocument)
        else:
            assert parse(show(model)) == model, mutant
