"""Polynomials in grammar variables over the fraction field of the
terminal-symbol polynomials, and Groebner bases for them.

The monomial order is lexicographic with variable precedence
Xn > ... > X1, where X1 is the start variable (first in the variable
tuple).  It is an elimination order for X1: any monomial touching a
variable other than X1 beats every pure power of X1, so the reduced
basis of an ideal contains a generator of its K[X1] slice whenever one
exists.
"""

from fractions import Fraction

from .monomials import (
    mono_div,
    mono_divides,
    mono_gcd,
    mono_is_one,
    mono_lcm,
    mono_mul,
    mono_one,
)
from .polynomials import (Polynomial, RationalFunction, poly_divexact, poly_lcm,
                          poly_squarefree, render_polynomial, render_ratfun)


class MonomialOrder:
    """Lexicographic order on variable monomials, highest-precedence
    variable last in the tuple (Xn first in comparisons)."""

    __slots__ = ("variables",)

    def __init__(self, variables):
        self.variables = tuple(variables)

    def key(self, mono):
        return tuple(reversed(mono))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.variables == other.variables

    def __repr__(self):
        prec = " > ".join(reversed(self.variables))
        return f"MonomialOrder({prec})"


class SystemPolynomial:
    """A polynomial in the grammar variables with RationalFunction
    coefficients, ordered by an attached MonomialOrder."""

    __slots__ = ("syms", "variables", "order", "terms")

    def __init__(self, syms, variables, terms, order=None):
        self.syms = tuple(syms)
        self.variables = tuple(variables)
        self.order = order if order is not None else MonomialOrder(variables)
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls, syms, variables, order=None):
        return cls(syms, variables, {}, order)

    @classmethod
    def variable(cls, syms, variables, name, order=None):
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        one = RationalFunction.const(syms, 1)
        return cls(syms, variables, {mono: one}, order)

    @classmethod
    def constant(cls, syms, variables, coeff, order=None):
        mono = mono_one(len(variables))
        return cls(syms, variables, {mono: coeff}, order)

    def is_zero(self):
        return not self.terms

    def lead_monomial(self):
        return max(self.terms, key=self.order.key)

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
            {m: fn(c) for m, c in self.terms.items()}, self.order)

    def mul_term(self, mono, coeff):
        """Multiply by a single term coeff * mono."""
        return SystemPolynomial(
            self.syms, self.variables,
            {mono_mul(m, mono): c * coeff for m, c in self.terms.items()},
            self.order)

    def scale(self, coeff):
        return self._map(lambda c: c * coeff)

    def __neg__(self):
        return self._map(lambda c: -c)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return SystemPolynomial(self.syms, self.variables, out, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prod = c1 * c2
                if m in out:
                    out[m] = out[m] + prod
                else:
                    out[m] = prod
        return SystemPolynomial(self.syms, self.variables, out, self.order)

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
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def uses_only(self, name):
        """True when every monomial involves no variable besides `name`."""
        i = self.variables.index(name)
        for m in self.terms:
            for j, e in enumerate(m):
                if e and j != i:
                    return False
        return True

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
    for mono in sorted(p.terms, key=p.order.key, reverse=True):
        c = p.terms[mono]
        negative = c.num.first_term()[1] < 0
        mag = -c if negative else c
        factors = []
        if mono_is_one(mono):
            factors.append(_render_coefficient(mag))
        else:
            if not mag.is_one():
                factors.append(_render_coefficient(mag))
            for name, e in zip(p.variables, mono):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(("- " if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def system_polynomials(system):
    """The generators Xi - p_i of a rational-weighted algebraic system,
    as SystemPolynomials over the fraction field."""
    syms = system.terminals
    variables = system.variables
    order = MonomialOrder(variables)
    out = []
    for vi, eq in enumerate(system.equations):
        terms = {}
        xmono = tuple(1 if j == vi else 0 for j in range(len(variables)))
        terms[xmono] = RationalFunction.const(syms, 1)
        for weight, tmono, vmono in eq:
            poly = Polynomial(syms, {tmono: Fraction(weight)})
            coeff = RationalFunction.from_poly(-poly)
            if vmono in terms:
                terms[vmono] = terms[vmono] + coeff
            else:
                terms[vmono] = coeff
        out.append(SystemPolynomial(syms, variables, terms, order))
    return out


# --- division and Buchberger ---------------------------------------------

def poly_reduce(f, basis):
    """Full normal form of f modulo the basis: no remainder term is
    divisible by any basis leading monomial."""
    useful = [g for g in basis if not g.is_zero()]
    lead = [(g, g.lead_monomial(), g.lead_term()[1]) for g in useful]
    rem = {}
    p = f
    while not p.is_zero():
        lm, lc = p.lead_term()
        hit = None
        for g, gm, gc in lead:
            if mono_divides(gm, lm):
                hit = (g, gm, gc)
                break
        if hit is None:
            rem[lm] = lc
            p = SystemPolynomial(p.syms, p.variables,
                                 {m: c for m, c in p.terms.items() if m != lm},
                                 p.order)
        else:
            g, gm, gc = hit
            p = p - g.mul_term(mono_div(lm, gm), lc / gc)
    return SystemPolynomial(f.syms, f.variables, rem, f.order)


def s_polynomial(f, g):
    fm, fc = f.lead_term()
    gm, gc = g.lead_term()
    l = mono_lcm(fm, gm)
    return (f.mul_term(mono_div(l, fm), fc.invert())
            - g.mul_term(mono_div(l, gm), gc.invert()))


def buchberger(generators):
    """A Groebner basis of the ideal of the generators.

    Normal pair selection (smallest leading-monomial lcm first) with the
    coprime-leading-monomial skip."""
    basis = [f.monic() for f in generators if not f.is_zero()]
    if not basis:
        raise ValueError("cannot take a Groebner basis of the zero ideal alone")
    order = basis[0].order
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        best = min(
            pairs,
            key=lambda ij: (order.key(mono_lcm(basis[ij[0]].lead_monomial(),
                                               basis[ij[1]].lead_monomial())),
                            ij),
        )
        pairs.remove(best)
        i, j = best
        fi, fj = basis[i], basis[j]
        if mono_is_one(mono_gcd(fi.lead_monomial(), fj.lead_monomial())):
            continue
        r = poly_reduce(s_polynomial(fi, fj), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        new = len(basis) - 1
        for k in range(new):
            pairs.add((k, new))
    return basis


def reduce_basis(basis):
    """The reduced Groebner basis: minimal, monic, inter-reduced, sorted
    by ascending leading monomial.  Unique for the ideal and order."""
    order = basis[0].order
    work = sorted((g.monic() for g in basis if not g.is_zero()),
                  key=lambda g: order.key(g.lead_monomial()))
    minimal = []
    for g in work:
        gm = g.lead_monomial()
        if any(mono_divides(h.lead_monomial(), gm) for h in minimal):
            continue
        minimal.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            rest = minimal[:i] + minimal[i + 1:]
            r = poly_reduce(minimal[i], rest)
            if r.is_zero():
                minimal = rest
                changed = True
                break
            r = r.monic()
            if r != minimal[i]:
                minimal[i] = r
                changed = True
    minimal.sort(key=lambda g: order.key(g.lead_monomial()))
    return minimal


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
    deg = p.degree_in(name) if p.terms else 0
    zero = RationalFunction.from_poly(Polynomial.zero(p.syms))
    out = [zero] * (max(deg, 0) + 1)
    for m, c in p.terms.items():
        out[m[i]] = c
    return out


def univar_build(template, coeffs, name=None):
    """Rebuild a univariate SystemPolynomial from a coefficient list,
    using the variables/order of the template."""
    if name is None:
        name = template.variables[0]
    i = template.variables.index(name)
    n = len(template.variables)
    terms = {}
    for d, c in enumerate(coeffs):
        if c.is_zero():
            continue
        mono = tuple(d if j == i else 0 for j in range(n))
        terms[mono] = c
    return SystemPolynomial(template.syms, template.variables, terms,
                            template.order)


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
