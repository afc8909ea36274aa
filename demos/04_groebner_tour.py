#!/usr/bin/env python3
"""The commutative-algebra layer: equation systems and elimination.

Each grammar variable X satisfies X = sum of (weight * letters * child
variables) over its rules.  Moving everything to one side gives an ideal
in Q(letters)[X1..Xn]; a reduced basis for it in an elimination order
exposes a univariate polynomial for the start variable.  This demo walks
the raw systems, the bases, and the univariate extraction used by the
decision procedure.
"""

from wcfg import (
    algebraic_system,
    clear_denominators,
    decide_parikh,
    eliminate_to_univariate,
    groebner_basis,
    load_grammar,
    poly_reduce,
    render_system_polynomial,
    system_polynomials,
    univar_gcd_squarefree,
)
from wcfg.groebner import reduce_basis

print("=" * 70)
print("1. The equation system of a grammar")
print("=" * 70)

g = load_grammar("grammars/binary_tail.wcfg")
polys = system_polynomials(algebraic_system(g))
for p in polys:
    print(" ", render_system_polynomial(p))

print()
print("=" * 70)
print("2. Reduced basis in the elimination order")
print("=" * 70)

# The order eliminates later variables first, so the basis solves the
# system bottom-up: each element is a variable minus a closed form.
basis = reduce_basis(groebner_basis(polys))
for p in basis:
    print(" ", render_system_polynomial(p))

# Every generator reduces to zero against the basis.
print("\ngenerators reduce to zero:",
      all(poly_reduce(p, basis).is_zero() for p in polys))

print()
print("=" * 70)
print("3. Extracting the univariate element")
print("=" * 70)

for path in ("grammars/binary_tail.wcfg", "grammars/catalan.wcfg"):
    h = load_grammar(path)
    univar = eliminate_to_univariate(algebraic_system(h))
    print(f"{path:34} g = {render_system_polynomial(univar)}")

print()
print("=" * 70)
print("4. Clearing denominators and dropping repeated factors")
print("=" * 70)

univar = eliminate_to_univariate(algebraic_system(load_grammar("grammars/catalan.wcfg")))
print("rational coefficients :", render_system_polynomial(univar))
cleared = clear_denominators(univar)
print("polynomial, primitive :", render_system_polynomial(cleared))
squarefree = univar_gcd_squarefree(cleared)  # over Q[a], up to a rational factor
print("cleared squarefree    :", render_system_polynomial(clear_denominators(squarefree)))

print()
print("=" * 70)
print("5. The cubic that hides a linear factor")
print("=" * 70)

cc = load_grammar("grammars/catalan_cancellation.wcfg")
univar = eliminate_to_univariate(algebraic_system(cc))
print("g        :", render_system_polynomial(univar))
report = decide_parikh(cc)
print("factor   :", render_system_polynomial(report.q))
print("verdict  :", report.verdict)
