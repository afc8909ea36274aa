"""Polynomials in grammar variables over the fraction field of the
terminal-symbol polynomials, and Groebner bases for them.

There is one monomial order, lex_key: lexicographic with variable
precedence Xn > ... > X1, where X1 is the start variable (first in the
variable tuple), so later-declared variables are eliminated first.  It
is an elimination order for X1: any monomial touching a variable other
than X1 beats every pure power of X1, so the reduced basis of an ideal
contains a generator of its K[X1] slice whenever one exists.
"""

import heapq
from fractions import Fraction

from .errors import SymbolMismatch
from .monomials import (
    mono_div,
    mono_divides,
    mono_gcd,
    mono_is_one,
    mono_lcm,
    mono_mul,
)
from .polynomials import (Polynomial, RationalFunction, poly_divexact, poly_lcm,
                          poly_squarefree, render_polynomial, render_ratfun)


def lex_key(mono):
    """Sort key of the monomial order: lexicographic, last variable
    highest."""
    return mono[::-1]


class SystemPolynomial:
    """A polynomial in the grammar variables with RationalFunction
    coefficients, ordered by lex_key."""

    __slots__ = ("syms", "variables", "terms")

    def __init__(self, syms, variables, terms):
        self.syms = tuple(syms)
        self.variables = tuple(variables)
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def variable(cls, syms, variables, name):
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        one = RationalFunction.const(syms, 1)
        return cls(syms, variables, {mono: one})

    def is_zero(self):
        return not self.terms

    def lead_monomial(self):
        return max(self.terms, key=lex_key)

    def lead_term(self):
        m = self.lead_monomial()
        return m, self.terms[m]

    def monic(self):
        _, lc = self.lead_term()
        if lc.is_one():
            return self
        inv = lc.invert()
        return self._map(lambda c: c * inv)

    def _map(self, fn):
        return SystemPolynomial(
            self.syms, self.variables,
            {m: fn(c) for m, c in self.terms.items()})

    def mul_term(self, mono, coeff):
        """Multiply by a single term coeff * mono."""
        return SystemPolynomial(
            self.syms, self.variables,
            {mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def scale(self, coeff):
        return self._map(lambda c: c * coeff)

    def __neg__(self):
        return self._map(lambda c: -c)

    def _check_shape(self, other):
        if other.syms != self.syms or other.variables != self.variables:
            raise SymbolMismatch(
                f"system polynomials over {self.syms} in {self.variables} and "
                f"over {other.syms} in {other.variables}")

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return SystemPolynomial(self.syms, self.variables, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_shape(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m, prod = mono_mul(m1, m2), c1 * c2
                out[m] = out[m] + prod if m in out else prod
        return SystemPolynomial(self.syms, self.variables, out)

    def __eq__(self, other):
        return (
            isinstance(other, SystemPolynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def degree_in(self, name):
        i = self.variables.index(name)
        return max((m[i] for m in self.terms), default=-1)

    def uses_only(self, name):
        """True when every monomial involves no variable besides `name`."""
        i = self.variables.index(name)
        return not any(e and j != i for m in self.terms for j, e in enumerate(m))

    def __repr__(self):
        return f"SystemPolynomial({render_system_polynomial(self)})"


def _render_coefficient(c):
    """Coefficient as a factor string: bare single-term polynomials,
    parenthesized otherwise."""
    if c.is_polynomial():
        body = render_polynomial(c.num)
        if len(c.num.terms) > 1:
            return "(" + body + ")"
        return body
    return render_ratfun(c)


def render_system_polynomial(p):
    """Terms descending in the monomial order; signs taken from each
    coefficient's lowest terminal monomial."""
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p.terms, key=lex_key, reverse=True):
        c = p.terms[mono]
        negative = c.num.first_term()[1] < 0
        mag = -c if negative else c
        factors = []
        if mono_is_one(mono) or not mag.is_one():
            factors.append(_render_coefficient(mag))
        factors += [name if e == 1 else f"{name}^{e}"
                    for name, e in zip(p.variables, mono) if e]
        sign = "- " if negative else "+ " if parts else ""
        parts.append(sign + "*".join(factors))
    return " ".join(parts)


def system_polynomials(system):
    """The generators Xi - p_i of a rational-weighted algebraic system,
    as SystemPolynomials over the fraction field."""
    syms = system.terminals
    variables = system.variables
    out = []
    for vi, eq in enumerate(system.equations):
        xmono = tuple(1 if j == vi else 0 for j in range(len(variables)))
        terms = {xmono: RationalFunction.const(syms, 1)}
        for weight, tmono, vmono in eq:
            poly = Polynomial(syms, {tmono: Fraction(weight)})
            coeff = RationalFunction.from_poly(-poly)
            terms[vmono] = terms[vmono] + coeff if vmono in terms else coeff
        out.append(SystemPolynomial(syms, variables, terms))
    return out


# --- division and Buchberger ---------------------------------------------

def poly_reduce(f, basis):
    """Full normal form of f modulo the basis: no remainder term is
    divisible by any basis leading monomial.  Each lead term is divided
    by the first basis element whose leading monomial divides it."""
    divisors = []
    for g in basis:
        if not g.is_zero():
            gm, gc = g.lead_term()
            divisors.append((gm, gc, [(m, c) for m, c in g.terms.items() if m != gm]))
    p = dict(f.terms)
    rem = {}
    while p:
        lm = max(p, key=lex_key)
        lc = p.pop(lm)
        for gm, gc, tail in divisors:
            if mono_divides(gm, lm):
                shift, q = mono_div(lm, gm), lc / gc
                for tm, tc in tail:
                    m = mono_mul(tm, shift)
                    c = p[m] - tc * q if m in p else -(tc * q)
                    if c.is_zero():
                        del p[m]
                    else:
                        p[m] = c
                break
        else:
            rem[lm] = lc
    return SystemPolynomial(f.syms, f.variables, rem)


def s_polynomial(f, g):
    fm, fc = f.lead_term()
    gm, gc = g.lead_term()
    l = mono_lcm(fm, gm)
    return (f.mul_term(mono_div(l, fm), fc.invert())
            - g.mul_term(mono_div(l, gm), gc.invert()))


def buchberger(generators):
    """A Groebner basis of the ideal of the generators.

    Normal pair selection (smallest leading-monomial lcm first, ties by
    index pair) with the coprime-leading-monomial skip."""
    basis = [f.monic() for f in generators if not f.is_zero()]
    if not basis:
        raise ValueError("cannot take a Groebner basis of the zero ideal alone")
    leads = [f.lead_monomial() for f in basis]
    pairs = []

    def add_pairs(new):
        for k in range(new):
            heapq.heappush(pairs, (lex_key(mono_lcm(leads[k], leads[new])), (k, new)))

    for new in range(1, len(basis)):
        add_pairs(new)
    while pairs:
        _, (i, j) = heapq.heappop(pairs)
        if mono_is_one(mono_gcd(leads[i], leads[j])):
            continue
        r = poly_reduce(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        leads.append(r.lead_monomial())
        add_pairs(len(basis) - 1)
    return basis


def reduce_basis(basis):
    """The reduced Groebner basis: minimal, monic, inter-reduced, sorted
    by ascending leading monomial.  Unique for the ideal and order.

    One inter-reduction pass suffices.  In a minimal basis no leading
    monomial divides another, so reducing an element by the others
    keeps its lead and leaves a tail with no term in the leading-term
    ideal; that monic polynomial is the unique reduced basis element
    with this lead (Cox, Little & O'Shea, ch. 2 section 7), and the
    order of the minimal basis carries over."""
    work = sorted((g.monic() for g in basis if not g.is_zero()),
                  key=lambda g: lex_key(g.lead_monomial()))
    minimal = []
    for g in work:
        if not any(mono_divides(h.lead_monomial(), g.lead_monomial()) for h in minimal):
            minimal.append(g)
    return [poly_reduce(g, minimal[:i] + minimal[i + 1:]).monic()
            for i, g in enumerate(minimal)]


def groebner_basis(generators):
    """Reduced Groebner basis of the generators, in one call."""
    return reduce_basis(buchberger(generators))


# --- univariate polynomials in the start variable --------------------

def univar_coefficients(p, name=None):
    """Coefficient list of a polynomial in a single variable, constant
    first.  The polynomial must use no other variable."""
    if name is None:
        name = p.variables[0]
    if not p.uses_only(name):
        raise ValueError(f"polynomial is not univariate in {name}")
    i = p.variables.index(name)
    zero = RationalFunction.from_poly(Polynomial.zero(p.syms))
    out = [zero] * (max(p.degree_in(name), 0) + 1)
    for m, c in p.terms.items():
        out[m[i]] = c
    return out


def univar_build(template, coeffs, name=None):
    """Rebuild a univariate SystemPolynomial from a coefficient list,
    using the variables of the template."""
    if name is None:
        name = template.variables[0]
    i = template.variables.index(name)
    n = len(template.variables)
    terms = {tuple(d if j == i else 0 for j in range(n)): c for d, c in enumerate(coeffs)}
    return SystemPolynomial(template.syms, template.variables, terms)


def univar_polynomial(p, name):
    """A univariate p with its coefficient denominators cleared (scaled
    by their lcm), as one Polynomial in the terminals plus `name`,
    appended last so that it is poly_gcd's main symbol."""
    coeffs = univar_coefficients(p, name)
    lcm = Polynomial.const(p.syms, 1)
    for c in coeffs:
        lcm = poly_lcm(lcm, c.den)
    terms = {}
    for e, c in enumerate(coeffs):
        num = c.num if c.den == lcm else c.num * poly_divexact(lcm, c.den)
        for m, v in num.terms.items():
            terms[m + (e,)] = v
    return Polynomial(p.syms + (name,), terms, _clean=False)


def univar_from_polynomial(template, poly, name):
    """Inverse of univar_polynomial: the polynomial coefficients of the
    last symbol's powers, as a SystemPolynomial shaped like the
    template."""
    buckets = {}
    for m, c in poly.terms.items():
        buckets.setdefault(m[-1], {})[m[:-1]] = c
    coeffs = [Polynomial(template.syms, buckets.get(e, {}), _clean=False)
              for e in range(max(buckets, default=0) + 1)]
    return univar_build(template, [RationalFunction.from_poly(c) for c in coeffs], name)


def univar_gcd_squarefree(p, name=None):
    """The squarefree part p / gcd(p, p'), monic, same roots without
    multiplicity.  Gcd and quotient are taken in Q[terminals][X] after
    clearing denominators; only the final monic scaling works over the
    rational-function field."""
    if name is None:
        name = p.variables[0]
    squarefree = poly_squarefree(univar_polynomial(p, name))
    return univar_from_polynomial(p, squarefree, name).monic()
