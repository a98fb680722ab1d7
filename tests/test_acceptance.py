"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line with its wall time when
it holds.  The randomized suites (criterion 6) are driven by fixed seeds
and run at least a thousand cases each.
"""

import random
import time

from presto import corpus, expr as ex
from presto.cli import main as cli_main
from presto.convert import construct_set_of_transitions, pres_to_fsmd
from presto.dsl import parse_expression
from presto.equiv import PortMap, check_cardinality, check_fsmd_equivalence, check_functional, derive_right_inputs
from presto.fsmd import apply_update_set, path_enumerate, path_transformation, UpdateSet
from presto.sim import QUIESCENT, SeededInterpretation, confluence_check, simulate_run, trace_json

from _gen import random_env, random_expr, random_int_expr
from test_convert import PIPELINED_ROWS, STEPWISE_ROWS

JAMMER_VECTOR = {"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}


class _Clock:
    def __init__(self, label: str, budget: float):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.label} ({elapsed:.2f} s)")
            assert elapsed < self.budget, f"{self.label} exceeded its {self.budget} s budget"
        else:
            print(f"FAIL {self.label} ({elapsed:.2f} s)")
        return False


def test_criterion_1_guard_split_reproduction(guard_split):
    with _Clock("criterion 1: guard-split conversion", 1.0):
        conv = pres_to_fsmd(guard_split)
        out = [t for t in conv.fsmd.transitions if t.source == "q0"]
        assert len(out) == 2
        g = parse_expression("g(p3) != 0")
        assert list(out[0].guard_set) == [g]
        assert list(out[1].guard_set) == [ex.negate_guard(g)]
        assert conv.marking_of_state[out[0].target] == {"p4", "p5", "p6"}
        assert conv.marking_of_state[out[1].target] == {"p4", "p7"}
        assert dict(out[0].updates) == {
            "p4": parse_expression("f_t1(p1, p2)"),
            "p6": parse_expression("f_t2(p3)"),
        }
        assert dict(out[1].updates) == {
            "p4": parse_expression("f_t1(p1, p2)"),
            "p7": parse_expression("f_t3(p7)"),
        }


def test_criterion_2_jammer_conversions(jammer_nonpipelined, jammer_pipelined):
    with _Clock("criterion 2a: stepwise jammer conversion", 1.0):
        conv = pres_to_fsmd(jammer_nonpipelined)
        assert len(conv.fsmd.states) == 16
        assert all(len(construct_set_of_transitions(jammer_nonpipelined, m)) == 1
                   for m in conv.marking_of_state.values() if m != conv.marking_of_state["q15"])
        assert [sorted(row) for row in conv.labels] == [sorted(row) for row in STEPWISE_ROWS]
    with _Clock("criterion 2b: pipelined jammer conversion", 1.0):
        conv = pres_to_fsmd(jammer_pipelined)
        assert len(conv.fsmd.states) == 10
        assert [sorted(row) for row in conv.labels] == [sorted(row) for row in PIPELINED_ROWS]


def test_criterion_3_jammer_equivalence(jammer_nonpipelined, jammer_pipelined, capsys):
    with _Clock("criterion 3: jammer machine equivalence", 5.0):
        m1 = pres_to_fsmd(jammer_nonpipelined).fsmd
        m2 = pres_to_fsmd(jammer_pipelined).fsmd
        verdict = check_fsmd_equivalence(m1, m2, {"out": "out2"})
        assert verdict.equivalent
        t1 = path_transformation(m1, path_enumerate(m1, m1.reset, m1.terminal_states()).paths[0])
        t2 = path_transformation(m2, path_enumerate(m2, m2.reset, m2.terminal_states()).paths[0])
        assert ex.normalize(t1.transform["out"]) == ex.normalize(t2.transform["out2"])
        assert cli_main(["check-fsmd", corpus.scenario_path("jammer")]) == 0
        assert "Equivalent" in capsys.readouterr().out


def test_criterion_4_port_and_value_examples(card_a, card_b, addthree_a, addthree_b, capsys):
    with _Clock("criterion 4: cardinality and functional examples", 1.0):
        pm4 = PortMap({"Pa": "Paa", "Pb": "Pbb"}, {"Pe": "Pee", "Pf": "Pff", "Pg": "Pgg"})
        assert check_cardinality(card_a, card_b, pm4, [{"Pa": 1, "Pb": 2}], SeededInterpretation(5)).equivalent
        assert cli_main(["check-pres", corpus.scenario_path("cardinality")]) == 0

        pm5 = PortMap({"Pa": "Paa"}, {"Pe": "Pee"})
        assert check_functional(addthree_a, addthree_b, pm5, "symbolic", [{"Pa": 2}], {}).equivalent
        sampled = check_functional(addthree_a, addthree_b, pm5, "sampled", [{"Pa": 2}], {})
        assert sampled.equivalent
        assert sampled.witness["samples"][0]["out_values"] == [{"Pe": 5}, {"Pee": 5}]
        assert cli_main(["check-pres", corpus.scenario_path("addthree"), "--strategy", "sampled"]) == 0
        capsys.readouterr()


def test_criterion_5_mutation_sensitivity(capsys):
    with _Clock("criterion 5: mutation sensitivity (5/5)", 5.0):
        flipped = 0
        # dropped arc: cardinality breaks and the starved out-port replays
        assert cli_main(["check-pres", corpus.scenario_path("cardinality_dropped_arc")]) == 1
        mutant = corpus.load_net("card_b_dropped_arc")
        replay = simulate_run(mutant, {"Paa": 1, "Pbb": 2}, SeededInterpretation(5))
        assert replay.status == QUIESCENT and "Pgg" not in replay.final_state
        flipped += 1
        # swapped composition order in the pipeline
        assert cli_main(["check-fsmd", corpus.scenario_path("jammer_swapped")]) == 1
        jam = corpus.load_net("jammer_nonpipelined")
        swapped = corpus.load_net("jammer_pipelined_swapped")
        interp = SeededInterpretation(11)
        left = simulate_run(jam, dict(JAMMER_VECTOR), interp, max_steps=64)
        right = simulate_run(swapped, derive_right_inputs(jam, swapped, PortMap({}, {}), dict(JAMMER_VECTOR)),
                             interp, max_steps=64)
        assert left.final_state["out"] != right.final_state["out2"]
        flipped += 1
        # +4 against +3
        assert cli_main(["check-pres", corpus.scenario_path("addthree_plus4")]) == 1
        flipped += 1
        # duplicated guard key is a semantic error
        assert cli_main(["validate", corpus.corpus_path("dup_guard_key")]) == 3
        flipped += 1
        # unmarked port: initial markings no longer correspond
        assert cli_main(["check-pres", corpus.scenario_path("cardinality_unmarked_port")]) == 1
        flipped += 1
        assert flipped == 5
        capsys.readouterr()


def _loop_free_cases():
    interp_pool = [SeededInterpretation(i) for i in range(8)]
    nets = {
        "guard_split": corpus.load_net("guard_split"),
        "addthree_a": corpus.load_net("addthree_a"),
        "card_a": corpus.load_net("card_a"),
        "jammer_nonpipelined": corpus.load_net("jammer_nonpipelined"),
        "jammer_pipelined": corpus.load_net("jammer_pipelined"),
    }
    conversions = {name: pres_to_fsmd(net) for name, net in nets.items()}
    return nets, conversions, interp_pool


def test_criterion_6_property_suites(jammer_nonpipelined, guard_split, racy):
    start = time.perf_counter()

    with _Clock("criterion 6a: normalization preserves evaluation (1000)", 60.0):
        rng = random.Random(601)
        for _ in range(1000):
            e = random_expr(rng, depth=6)
            values, functions = random_env(rng)
            assert ex.evaluate(ex.normalize(e), values, functions) == ex.evaluate(e, values, functions)
            assert ex.normalize(ex.normalize(e)) == ex.normalize(e)

    with _Clock("criterion 6b: substitution simultaneity (1000)", 60.0):
        rng = random.Random(602)
        for _ in range(1000):
            e = random_expr(rng, depth=5)
            bindings = {v: random_int_expr(rng, 3) for v in ("a", "b", "c")}
            values, functions = random_env(rng)
            composed = dict(values)
            for v, repl in bindings.items():
                composed[v] = ex.evaluate(repl, values, functions)
            assert ex.evaluate(ex.substitute(e, bindings), values, functions) == ex.evaluate(e, composed, functions)

    with _Clock("criterion 6c: parallel updates read pre-step state (1000)", 60.0):
        rng = random.Random(603)
        variables = ("a", "b", "c", "d")
        for _ in range(1000):
            targets = rng.sample(variables, rng.randint(1, 4))
            updates = UpdateSet.of([(t, random_int_expr(rng, 3, variables)) for t in targets])
            store = {v: ex.Var(v) for v in variables}
            values, functions = random_env(rng)
            out = apply_update_set(updates, store)
            for assign in updates:
                assert ex.evaluate(out[assign.target], values, functions) == ex.evaluate(assign.expr, values, functions)

    with _Clock("criterion 6d: firing conserves tokens (1000)", 60.0):
        rng = random.Random(604)
        nets = [corpus.load_net(n) for n in ("guard_split", "card_a", "card_b", "jammer_nonpipelined", "jammer_pipelined")]
        checked = 0
        while checked < 1000:
            net = rng.choice(nets)
            marking = frozenset(p for p in net.places if rng.random() < 0.5) | net.initial_marking
            made = construct_set_of_transitions(net, marking)
            if not made:
                continue
            _, fired, nxt, _ = rng.choice(made)
            if type(nxt) is str:  # a second token on some place
                continue
            consumed = frozenset().union(*(t.pre for t in fired))
            produced = frozenset().union(*(t.post for t in fired))
            assert nxt == (marking - consumed) | produced
            checked += 1

    with _Clock("criterion 6e: simulator determinism under fixed seeds (1000)", 60.0):
        rng = random.Random(605)
        racy_net = corpus.load_net("racy")
        guard_split_net = corpus.load_net("guard_split")
        for _ in range(1000):
            seed = rng.randint(0, 10**6)
            value = rng.randint(-3, 8)
            net, vector = (racy_net, {"a": value}) if rng.random() < 0.5 else (
                guard_split_net, {"p1": rng.randint(-5, 5), "p2": rng.randint(-5, 5), "p3": value, "p7": 9})
            interp = {"f_t1": lambda a, b: a + b, "f_t2": lambda a: 2 * a, "f_t3": lambda a: a,
                      "g": lambda a: a, "keep": lambda a: a, "flip": lambda a: -a}
            first = simulate_run(net, dict(vector), interp, seed, 16)
            second = simulate_run(net, dict(vector), interp, seed, 16)
            assert trace_json(first) == trace_json(second)

    with _Clock("criterion 6f: symbolic and concrete execution agree (1000)", 60.0):
        rng = random.Random(606)
        nets, conversions, interp_pool = _loop_free_cases()
        names = sorted(nets)
        for case in range(1000):
            name = names[case % len(names)]
            net, conv = nets[name], conversions[name]
            interp = interp_pool[rng.randrange(len(interp_pool))]
            vector = {p: rng.randint(-9, 9) for p in sorted(net.initial_marking)}
            for p in net.initial_marking:  # shared input variables carry one value
                for q in net.initial_marking:
                    if net.var_of[p] == net.var_of[q]:
                        vector[q] = vector[p]
            run = simulate_run(net, dict(vector), interp, max_steps=64)
            assert run.status == QUIESCENT, name
            env_values = {net.var_of[p]: v for p, v in vector.items()}
            machine = conv.fsmd
            chosen = None
            for path in path_enumerate(machine, machine.reset, machine.terminal_states()).paths:
                pt = path_transformation(machine, path)
                if ex.evaluate(pt.condition, env_values, interp):
                    chosen = pt
                    break
            assert chosen is not None, name
            final_marking = frozenset(run.final_state)
            (state,) = [q for q, m in conv.marking_of_state.items() if m == final_marking]
            assert state in machine.terminal_states()
            for p in sorted(final_marking):
                v = net.var_of[p]
                expected = ex.evaluate(chosen.transform[v], env_values, interp)
                assert run.final_state[p] == expected, (name, p)

    total = time.perf_counter() - start
    print(f"criterion 6 total: {total:.2f} s")
    assert total < 60.0


def test_criterion_7_confluence(jammer_nonpipelined, jammer_pipelined, racy):
    with _Clock("criterion 7: schedule independence", 10.0):
        interp = SeededInterpretation(11)
        assert confluence_check(jammer_nonpipelined, [dict(JAMMER_VECTOR)], interp, 10, 0, 64).equivalent
        pipe_vector = {"sigE": 3, "sigA": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}
        assert confluence_check(jammer_pipelined, [pipe_vector], interp, 10, 0, 64).equivalent
        verdict = confluence_check(racy, [{"a": 2}], SeededInterpretation(3), 10, 0, 8)
        assert verdict.status == "NotEquivalent"
        left, right = verdict.witness["traces"]
        assert left["trace"] != right["trace"]
