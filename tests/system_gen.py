"""Random sparse polynomial systems for the basis-computation suites."""

import random
from fractions import Fraction
from itertools import product

from wcfg import Polynomial, SystemPolynomial


def random_system(rng, max_vars=3, max_coeff_degree=2):
    """A small random system: 2-3 polynomials over up to `max_vars`
    variables, whose coefficients are letter polynomials of total degree
    at most `max_coeff_degree`."""
    syms = ("a", "b")[: rng.randint(1, 2)]
    variables = tuple(f"X{i}" for i in range(1, rng.randint(1, max_vars) + 1))
    letter_monos = [
        m for m in product(range(max_coeff_degree + 1), repeat=len(syms))
        if sum(m) <= max_coeff_degree
    ]
    var_monos = [
        m for m in product(range(3), repeat=len(variables)) if sum(m) <= 2
    ]

    def random_coeff():
        terms = {
            rng.choice(letter_monos): Fraction(rng.choice([-2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 2))
        }
        return Polynomial(syms, terms)

    polys = []
    for _ in range(rng.randint(2, 3)):
        terms = {rng.choice(var_monos): random_coeff() for _ in range(rng.randint(1, 3))}
        p = SystemPolynomial(syms, variables, terms)
        if not p.is_zero():
            polys.append(p)
    if not polys:
        polys.append(SystemPolynomial.variable(syms, variables, variables[0]))
    return polys
