"""Exponent-vector helpers.

A monomial over an ordered symbol list (s1, ..., sn) is the tuple of its
exponents.  The canonical term order used for rendering and sign
normalization is "graded, then by declaration": sort ascending by total
degree, and inside a degree earlier-declared symbols come first (so over
(a, b): 1, a, b, a^2, a*b, b^2, ...).
"""

from itertools import combinations_with_replacement
from operator import add, neg


def mono_one(n):
    return (0,) * n


def mono_is_one(m):
    return not any(m)


def mono_degree(m):
    return sum(m)


def mono_mul(u, v):
    return tuple(map(add, u, v))


def mono_divides(u, v):
    """Does u divide v?"""
    return all(a <= b for a, b in zip(u, v))


def mono_div(u, v):
    """u / v, assuming v divides u."""
    return tuple(a - b for a, b in zip(u, v))


def mono_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def mono_gcd(u, v):
    return tuple(min(a, b) for a, b in zip(u, v))


def grade_key(m):
    """Sort key for the canonical ascending term order."""
    return (sum(m), tuple(map(neg, m)))


def render_monomial(m, names):
    """`a^2*b` style; the empty monomial renders as `1`."""
    parts = []
    for e, name in zip(m, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def monomials_up_to_degree(n, k):
    """All exponent tuples of length n with total degree <= k, in canonical
    ascending order: inside a degree, combinations_with_replacement
    yields the symbol indices with the most of the first symbol first."""
    return [tuple(map(combo.count, range(n)))
            for m in range(k + 1) for combo in combinations_with_replacement(range(n), m)]
