"""The three checkers, end to end.

Cardinality equivalence compares port structure and resting markings;
functional equivalence adds token values (symbolically or by sampling);
machine equivalence compares composed path transformations, of two
machines or of two nets' conversions.  The demo closes with the
schedule-independence check on a net built to diverge.
"""

from presto import (
    PortMap,
    check_cardinality,
    check_fsmd_equivalence,
    check_functional,
    confluence_check,
    corpus,
    pres_to_fsmd,
)
from presto.expr import normalize, to_text
from presto.fsmd import path_enumerate, path_transformation
from presto.sim import SeededInterpretation

print("== cardinality: cardinality pair ==")
n1, n2 = corpus.load_net("card_a"), corpus.load_net("card_b")
pm = PortMap({"Pa": "Paa", "Pb": "Pbb"}, {"Pe": "Pee", "Pf": "Pff", "Pg": "Pgg"})
print(check_cardinality(n1, n2, pm, [{"Pa": 1, "Pb": 2}], SeededInterpretation(5)).status)

print()
print("== functional: addthree pair (adds three, decomposed two ways) ==")
f1, f2 = corpus.load_net("addthree_a"), corpus.load_net("addthree_b")
pm5 = PortMap({"Pa": "Paa"}, {"Pe": "Pee"})
print("symbolic:", check_functional(f1, f2, pm5, "symbolic", [{"Pa": 2}], {}).status)
sampled = check_functional(f1, f2, pm5, "sampled", [{"Pa": 2}], {})
print("sampled: ", sampled.status, "->", sampled.witness["samples"][0]["out_values"])
# check-fsmd on the nets: both are lowered to machines as the symbolic check
# lowers them, through the same port map, so the answer is the same.
print("machines:", check_fsmd_equivalence(f1, f2, {}, [{"Pa": 2}], pm=pm5).status)

print()
print("== machines: the two jammer versions ==")
m1 = pres_to_fsmd(corpus.load_net("jammer_nonpipelined")).fsmd
m2 = pres_to_fsmd(corpus.load_net("jammer_pipelined")).fsmd
print(check_fsmd_equivalence(m1, m2, {"out": "out2"}).status)
t1 = path_transformation(m1, path_enumerate(m1, m1.reset, m1.terminal_states()).paths[0])
print("composed output transformation (shared by both):")
print(" ", to_text(normalize(t1.transform["out"]))[:120], "...")

print()
print("== a mutation the checker catches ==")
# A difference of normal forms counts only once a concrete run confirms it,
# so the check gets an input vector and interpretations to run on.
vec = {"sig": 3, "th": 5, "tr": 1, "om": 2, "mp": 4, "dp": 6}
swapped = pres_to_fsmd(corpus.load_net("jammer_pipelined_swapped")).fsmd
verdict = check_fsmd_equivalence(m1, swapped, {"out": "out2"}, [vec], SeededInterpretation(11))
print(verdict.status, "- the spectrum branch applies f after FFT instead of before;",
      "outputs", verdict.witness["values"], "on", verdict.witness["vector"])

print()
print("== schedule independence ==")
jam = corpus.load_net("jammer_nonpipelined")
print("jammer:", confluence_check(jam, [vec], SeededInterpretation(11), 10, 0, 64).status)
racy = corpus.load_net("racy")
verdict = confluence_check(racy, [{"a": 2}], SeededInterpretation(3), 10, 0, 8)
print("racy:  ", verdict.status, "- seeds", verdict.witness["seeds"], "reach", verdict.witness["out_ports"])
