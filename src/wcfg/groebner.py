"""Polynomials in grammar variables over the terminal polynomials
Q[terminals], and Groebner bases for them over Q(terminals).

There is one monomial order, lex_key: lexicographic with variable
precedence Xn > ... > X1, where X1 is the start variable (first in the
variable tuple), so later-declared variables are eliminated first.  It
is an elimination order for X1: any monomial touching a variable other
than X1 beats every pure power of X1, so the reduced basis of an ideal
contains a generator of its K[X1] slice whenever one exists.

Buchberger's algorithm runs fraction-free over Q[terminals]: a
division step scales the dividend by a polynomial instead of dividing
by a leading coefficient, a change by a nonzero factor of the field
K = Q(terminals) only.  The minimal basis is returned as monic views
over K (SystemPolynomial.monic), and reduce_basis makes it the reduced
one; every function taking system polynomials clears a view first,
back to the primitive part of the polynomial it presents.
"""

import heapq
from fractions import Fraction

from .errors import NotUnivariate, SymbolMismatch, ZeroIdeal
from .monomials import (
    mono_div,
    mono_divides,
    mono_gcd,
    mono_is_one,
    mono_lcm,
    mono_mul,
)
from .polynomials import (Polynomial, RationalFunction, add_terms, coefficients,
                          from_coefficients, mul_terms, poly_cofactors, poly_primitive,
                          poly_squarefree, rational_content, render_fraction, render_polynomial)


def lex_key(mono):
    """Sort key of the monomial order: lexicographic, last variable
    highest."""
    return mono[::-1]


class SystemPolynomial:
    """A polynomial in the grammar variables with Polynomial
    coefficients in the terminals, ordered by lex_key; or, made by
    monic(), a monic view with RationalFunction coefficients, which
    keeps the polynomial it presents.  The arithmetic is the kernel's
    add_terms and mul_terms, over Q[terminals] only."""

    __slots__ = ("syms", "variables", "terms", "_source")

    def __init__(self, syms, variables, terms):
        self.syms = tuple(syms)
        self.variables = tuple(variables)
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}
        self._source = None

    @classmethod
    def variable(cls, syms, variables, name):
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(syms, variables, {mono: Polynomial.const(syms, 1)})

    def is_zero(self):
        return not self.terms

    def lead_monomial(self):
        return max(self.terms, key=lex_key)

    def lead_term(self):
        m = self.lead_monomial()
        return m, self.terms[m]

    def cleared(self):
        """The polynomial over Q[terminals]: for a view, the primitive
        part of the polynomial it presents, so equal views clear to
        equal polynomials; any other polynomial as it is."""
        return self if self._source is None else self._source.primitive()

    def monic(self):
        """The monic view over Q(terminals): each coefficient divided by
        the leading one, as a reduced RationalFunction.  The view keeps
        the polynomial it divides (a view's own, cleared), which
        cleared() reads."""
        p = self.cleared()
        _, lc = p.lead_term()
        view = p._map(lambda c: RationalFunction(c, lc))
        view._source = p
        return view

    def primitive(self):
        """The polynomial over Q[terminals] divided by the gcd of its
        coefficients, then cleared of its rational content and sign as
        clear_denominators does."""
        p = self.cleared()
        if p.is_zero():
            return p
        _, parts = poly_primitive(list(p.terms.values()))
        return clear_denominators(SystemPolynomial(p.syms, p.variables, dict(zip(p.terms, parts))))

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
        return SystemPolynomial(self.syms, self.variables, add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        self._check_shape(other)
        return SystemPolynomial(self.syms, self.variables, mul_terms(self.terms, other.terms))

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


def clear_denominators(p):
    """p over Q[terminals] divided by its rational content, with the
    sign that makes the first (lowest) term of its leading coefficient
    positive; a view is cleared first (SystemPolynomial.cleared).  No
    other polynomial factor is divided out."""
    p = p.cleared()
    if p.is_zero():
        return p
    content = rational_content(p.terms.values())
    if p.lead_term()[1].first_term()[1] < 0:
        content = -content
    return p if content == 1 else p.scale(1 / content)


def render_system_polynomial(p):
    """Terms descending in the monomial order; signs taken from each
    coefficient's lowest terminal monomial.  A coefficient is a factor
    string: bare single-term polynomials, parenthesized otherwise."""
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p.terms, key=lex_key, reverse=True):
        c = p.terms[mono]
        num, den = (c.num, c.den) if isinstance(c, RationalFunction) else (c, None)
        negative = num.first_term()[1] < 0
        if negative:
            num = -num
        factors = []
        if den is not None and not den.is_one():
            factors.append(render_fraction(num, den))
        elif mono_is_one(mono) or not num.is_one():
            body = render_polynomial(num)
            factors.append(f"({body})" if len(num.terms) > 1 else body)
        factors += [name if e == 1 else f"{name}^{e}"
                    for name, e in zip(p.variables, mono) if e]
        sign = "- " if negative else "+ " if parts else ""
        parts.append(sign + "*".join(factors))
    return " ".join(parts)


def system_polynomials(system):
    """The generators Xi - p_i of a rational-weighted algebraic system,
    as SystemPolynomials over Q[terminals]."""
    syms = system.terminals
    variables = system.variables
    out = []
    for vi, eq in enumerate(system.equations):
        xmono = tuple(1 if j == vi else 0 for j in range(len(variables)))
        terms = {xmono: Polynomial.const(syms, 1)}
        for weight, tmono, vmono in eq:
            coeff = Polynomial(syms, {tmono: -Fraction(weight)})
            terms[vmono] = terms[vmono] + coeff if vmono in terms else coeff
        out.append(SystemPolynomial(syms, variables, terms))
    return out


# --- division and Buchberger ---------------------------------------------

def poly_reduce(f, basis):
    """Full normal form of f modulo the basis over Q(terminals), up to a
    nonzero factor of Q[terminals], made primitive: no remainder term is
    divisible by any basis leading monomial.  Each lead term lc*m is
    divided by the first basis element g whose leading monomial divides
    it: with h = gcd(lc, lc(g)), everything is multiplied by lc(g)/h and
    lc/h times the shifted tail of g is subtracted."""
    divisors = []
    for g in basis:
        if not g.is_zero():
            g = g.cleared()
            gm, gc = g.lead_term()
            divisors.append((gm, gc, [(m, c) for m, c in g.terms.items() if m != gm]))
    p = dict(f.cleared().terms)
    rem = {}
    while p:
        lm = max(p, key=lex_key)
        lc = p.pop(lm)
        for gm, gc, tail in divisors:
            if mono_divides(gm, lm):
                q, u = poly_cofactors(lc, gc)
                if u.is_constant():  # a unit: divide q, keep the rest small
                    q = q.scale(1 / u.constant_term())
                else:
                    p = {m: c * u for m, c in p.items()}
                    rem = {m: c * u for m, c in rem.items()}
                shift = mono_div(lm, gm)
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
    return SystemPolynomial(f.syms, f.variables, rem).primitive()


def s_polynomial(f, g):
    """The S-polynomial over Q[terminals]: with h the gcd of the leading
    coefficients, lc(g)/h and lc(f)/h take the place of their inverses."""
    f, g = f.cleared(), g.cleared()
    fm, fc = f.lead_term()
    gm, gc = g.lead_term()
    l = mono_lcm(fm, gm)
    a, b = poly_cofactors(fc, gc)
    return f.mul_term(mono_div(l, fm), b) - g.mul_term(mono_div(l, gm), a)


def buchberger(generators):
    """A Groebner basis of the ideal of the generators, each element
    primitive over Q[terminals]: the live elements, in the order found.

    Each element enters through update(), Gebauer and Moeller's
    installation (1988; Becker & Weispfenning, p. 230).  A pending pair
    (i, j) is dropped when the new lead divides lcm(i, j) and differs
    from both lcm(i, new) and lcm(j, new) (criterion B_k).  Of the new
    pairs (k, new), one whose lcm another new pair's lcm divides is
    dropped, one of equal lcms kept (M); the coprime ones go after that
    filter (F).  An element whose lead the new lead divides retires; its
    pending pairs stay.  Normal selection takes the smallest lcm first,
    ties by index pair, and S-polynomials reduce modulo the live
    elements."""
    basis, leads, live, pairs = [], [], [], []

    def update(f):
        new, lead = len(basis), f.lead_monomial()

        def coprime(k):
            return mono_is_one(mono_gcd(leads[k], lead))

        def survives(i, j):
            l = mono_lcm(leads[i], leads[j])
            return (not mono_divides(lead, l)
                    or mono_lcm(leads[i], lead) == l or mono_lcm(leads[j], lead) == l)

        fresh = [(mono_lcm(leads[k], lead), k) for k in live]
        kept = []
        for n, (l, k) in enumerate(fresh):
            if coprime(k) or not any(mono_divides(m, l) for m, _ in kept + fresh[n + 1:]):
                kept.append((l, k))
        pairs[:] = [p for p in pairs if survives(*p[1])]
        pairs.extend((lex_key(l), (k, new)) for l, k in kept if not coprime(k))
        heapq.heapify(pairs)
        live[:] = [k for k in live if not mono_divides(lead, leads[k])]
        live.append(new)
        basis.append(f)
        leads.append(lead)

    for f in generators:
        if not f.is_zero():
            update(f.primitive())
    if not basis:
        raise ZeroIdeal("cannot take a Groebner basis of the zero ideal alone")
    while pairs:
        _, (i, j) = heapq.heappop(pairs)
        r = poly_reduce(s_polynomial(basis[i], basis[j]), [basis[k] for k in live])
        if not r.is_zero():
            update(r)
    return [basis[k] for k in live]


def minimal_basis(basis):
    """The nonzero elements cleared and sorted by ascending lead, less
    each one whose lead a lower kept lead divides: a minimal Groebner
    basis when the input is a Groebner basis."""
    kept = []
    for g in sorted((g.cleared() for g in basis if not g.is_zero()),
                    key=lambda g: lex_key(g.lead_monomial())):
        if not any(mono_divides(h.lead_monomial(), g.lead_monomial()) for h in kept):
            kept.append(g)
    return kept


def reduce_basis(basis):
    """The reduced Groebner basis as monic views: minimal, monic,
    inter-reduced, sorted by ascending leading monomial.  Unique for the
    ideal and order.

    One ascending pass over minimal_basis builds it: each element is
    reduced by the reduced elements below it only, since a lead dividing
    a term is at most that term, so no higher lead acts on it.  The
    remainder keeps its lead and has no other term in the leading-term
    ideal; made monic, it is the unique reduced basis element with this
    lead (Cox, Little & O'Shea, ch. 2 section 7).  The lowest element,
    univariate in the start variable for a decide system, has nothing
    below it."""
    reduced = []
    for g in minimal_basis(basis):
        reduced.append(poly_reduce(g, reduced))
    return [g.monic() for g in reduced]


def groebner_basis(generators):
    """The minimal Groebner basis of the generators, by buchberger and
    minimal_basis: no lead divides another, each element a monic view,
    sorted by ascending lead.  reduce_basis makes it the unique reduced
    basis; its lowest element already is the reduced one when it is
    univariate in the start variable, since every term below a pure
    power of X1 is a lower one, which no lead of the basis divides."""
    return [g.monic() for g in minimal_basis(buchberger(generators))]


# --- univariate polynomials in the start variable --------------------

def univar_polynomial(p):
    """A p over Q[terminals] univariate in its first variable X, the
    start variable of a decide system (a view cleared first), as one
    Polynomial in the terminals plus X, appended last so that it is
    poly_gcd's main symbol.  A p involving another variable raises
    NotUnivariate."""
    p = p.cleared()
    name = p.variables[0]
    if not p.uses_only(name):
        raise NotUnivariate(f"polynomial is not univariate in {name}")
    powers = {m[0]: c for m, c in p.terms.items()}
    cs = [powers.get(e, Polynomial.zero(p.syms)) for e in range(max(powers, default=-1) + 1)]
    return from_coefficients(p.syms + (name,), -1, cs)


def univar_from_polynomial(template, poly):
    """Inverse of univar_polynomial: the polynomial coefficients of the
    last symbol's powers, as a SystemPolynomial in the first variable
    shaped like the template."""
    rest = (0,) * (len(template.variables) - 1)
    terms = {(e,) + rest: c for e, c in enumerate(coefficients(poly, -1))}
    return SystemPolynomial(template.syms, template.variables, terms)


def univar_gcd_squarefree(p):
    """The squarefree part p / gcd(p, p') over Q[terminals], taken in
    Q[terminals][X] for X the first variable (a view cleared first):
    same roots without multiplicity, no factor free of X, and defined up
    to a rational factor; clear_denominators fixes that factor."""
    squarefree = poly_squarefree(univar_polynomial(p))
    return univar_from_polynomial(p, squarefree)
