"""A walk through the expression layer.

Terms mix ordinary integer arithmetic with applications of opaque
function symbols; guards are relations and boolean connectives over
them.  Everything is immutable, and three operations do the real work:
evaluation, simultaneous substitution, and canonical normalization.
"""

from presto import evaluate, normalize, structurally_equivalent, substitute
from presto.dsl import parse_expression
from presto.expr import negate_guard, to_text

print("== parsing and evaluation ==")
e = parse_expression("detect(sig) * 2 + offset")
print("term:          ", to_text(e))
print("value at sig=5:", evaluate(e, {"sig": 5, "offset": 3}, {"detect": lambda v: v + 10}))

print()
print("== substitution composes transformations ==")
stage1 = parse_expression("preprocess(raw)")
stage2 = parse_expression("classify(x)")
whole = substitute(stage2, {"x": stage1})
print("stage 1:       ", to_text(stage1))
print("stage 2:       ", to_text(stage2))
print("composed:      ", to_text(whole))

swap = substitute(parse_expression("a - b"), {"a": parse_expression("b"), "b": parse_expression("a")})
print("swap a/b in a-b:", to_text(swap), "(simultaneous, not sequential)")

print()
print("== normalization decides structural equality ==")
left = parse_expression("c + detect(x) + 2 + 3")
right = parse_expression("5 + c + detect(x)")
print(to_text(left), " vs ", to_text(right))
print("normal form:   ", to_text(normalize(left)))
print("equal?         ", structurally_equivalent(left, right))

fg = parse_expression("f(g(x))")
gf = parse_expression("g(f(x))")
print(to_text(fg), "vs", to_text(gf), "->", structurally_equivalent(fg, gf),
      "(opaque composition is order-sensitive)")

print()
print("== guard negation ==")
g = parse_expression("level(p) != 0")
print("guard:         ", to_text(g))
print("negated:       ", to_text(negate_guard(g)), "(single relations complement)")
