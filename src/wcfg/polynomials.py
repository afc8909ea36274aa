"""Exact multivariate polynomials over Q, and rational functions as a
reduced view.

Polynomial represents an element of Q[s1, ..., sn] as {exponent tuple:
Fraction}, with ring arithmetic, exact division and gcds.
RationalFunction is a reduced fraction of two Polynomials with no
arithmetic of its own: it is the canonical form of a monic Groebner
basis coefficient over Q(s1, ..., sn), and the input of series_expand.

Canonical forms (load-bearing for printing and witnesses):

* the canonical term order is ascending graded/declaration order
  (monomials.grade_key);
* gcds and primitive parts are normalized so their first coefficient in
  that order is positive;
* a RationalFunction's denominator is scaled so its first coefficient in
  that order is exactly 1 (so the zero-degree case degenerates to a plain
  polynomial over a denominator of 1).
"""

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

from .errors import (
    DivisionByZeroPolynomial,
    NotDivisible,
    SymbolMismatch,
    ZeroDenominator,
)
from .modular import POINT_BASES, P, residue, univar_gcd
from .monomials import (
    grade_key,
    mono_degree,
    mono_div,
    mono_divides,
    mono_gcd,
    mono_is_one,
    mono_mul,
    mono_one,
    render_monomial,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Polynomial:
    """A polynomial over Q in the ordered symbols `syms`."""

    __slots__ = ("syms", "terms")

    def __init__(self, syms, terms=None, _clean=True):
        self.syms = tuple(syms)
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}
        else:
            self.terms = terms

    @classmethod
    def zero(cls, syms):
        return cls(syms, {}, _clean=False)

    @classmethod
    def const(cls, syms, c):
        c = Fraction(c)
        if c == 0:
            return cls.zero(syms)
        return cls(syms, {mono_one(len(syms)): c}, _clean=False)

    @classmethod
    def variable(cls, syms, name):
        syms = tuple(syms)
        mono = [0] * len(syms)
        mono[syms.index(name)] = 1
        return cls(syms, {tuple(mono): _ONE}, _clean=False)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get(mono_one(len(self.syms))) == 1

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and mono_is_one(next(iter(self.terms))))

    def constant_term(self):
        return self.terms.get(mono_one(len(self.syms)), _ZERO)

    def total_degree(self):
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def first_term(self):
        """(monomial, coefficient) lowest in the canonical order."""
        m = min(self.terms, key=grade_key)
        return m, self.terms[m]

    def lead_term(self):
        """(monomial, coefficient) highest in the canonical order."""
        m = max(self.terms, key=grade_key)
        return m, self.terms[m]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.syms == other.syms and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(self.syms, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.syms, frozenset(self.terms.items())))

    def __neg__(self):
        return Polynomial(self.syms, {m: -c for m, c in self.terms.items()}, _clean=False)

    def __add__(self, other):
        other = self._coerce(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, _ZERO) + c
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        return Polynomial(self.syms, res, _clean=False)

    def __sub__(self, other):
        other = self._coerce(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, _ZERO) - c
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        return Polynomial(self.syms, res, _clean=False)

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.syms)
        small, big = sorted((self.terms, other.terms), key=len)
        res = {}
        for m1, c1 in small.items():
            if mono_is_one(m1):
                for m2, c2 in big.items():
                    s = res.get(m2, _ZERO) + c1 * c2
                    if s:
                        res[m2] = s
                    elif m2 in res:
                        del res[m2]
            else:
                for m2, c2 in big.items():
                    m = mono_mul(m1, m2)
                    s = res.get(m, _ZERO) + c1 * c2
                    if s:
                        res[m] = s
                    elif m in res:
                        del res[m]
        return Polynomial(self.syms, res, _clean=False)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.syms != self.syms:
                raise SymbolMismatch(f"polynomials over {self.syms} and {other.syms}")
            return other
        return Polynomial.const(self.syms, other)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.syms)
        return Polynomial(self.syms, {m: c * v for m, v in self.terms.items()}, _clean=False)

    def content(self):
        """Signed rational content: gcd of numerators over lcm of
        denominators, carrying the sign of the first coefficient, so that
        self == content * primitive_part always holds exactly."""
        if not self.terms:
            return _ZERO
        magnitude = rational_content([self])
        _, first = self.first_term()
        return magnitude if first > 0 else -magnitude

    def primitive_part(self):
        """self / content(); its first coefficient is positive."""
        if not self.terms:
            return self
        c = self.content()
        return Polynomial(self.syms, {m: v / c for m, v in self.terms.items()}, _clean=False)

    def __repr__(self):
        return f"Polynomial({render_polynomial(self)})"


def rational_content(polys):
    """Positive gcd of the numerators over the lcm of the denominators
    of every coefficient of the polynomials; 0 when all are zero."""
    num = 0
    den = 1
    for p in polys:
        for c in p.terms.values():
            num = int_gcd(num, c.numerator)
            den = int_lcm(den, c.denominator)
    return Fraction(num, den)


def render_polynomial(p):
    """Canonical ascending rendering, e.g. `1 - 2*b + b^2`."""
    if not p.terms:
        return "0"
    parts = []
    for i, m in enumerate(sorted(p.terms, key=grade_key)):
        c = p.terms[m]
        mono = render_monomial(m, p.syms)
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def poly_divexact(p, q):
    """Exact division p / q in Q[syms]; raises NotDivisible on a remainder."""
    if q.is_zero():
        raise DivisionByZeroPolynomial("polynomial division by zero")
    if q.is_constant():
        c = q.constant_term()
        return p.scale(_ONE / c)
    quot = {}
    rem = dict(p.terms)
    qm, qc = q.lead_term()
    while rem:
        m = max(rem, key=grade_key)
        c = rem[m]
        if not mono_divides(qm, m):
            raise NotDivisible(f"{render_polynomial(p)} not divisible by {render_polynomial(q)}")
        fm = mono_div(m, qm)
        fc = c / qc
        quot[fm] = quot.get(fm, _ZERO) + fc
        for m2, c2 in q.terms.items():
            mm = mono_mul(fm, m2)
            s = rem.get(mm, _ZERO) - fc * c2
            if s:
                rem[mm] = s
            elif mm in rem:
                del rem[mm]
    return Polynomial(p.syms, quot)


def poly_divides(q, p):
    """Does q divide p exactly?"""
    try:
        poly_divexact(p, q)
        return True
    except NotDivisible:
        return False


def _mono_content(p):
    """Largest monomial dividing every term (the zero polynomial has none)."""
    it = iter(p.terms)
    m = next(it)
    for other in it:
        m = mono_gcd(m, other)
        if mono_is_one(m):
            break
    return m


def _coeff_list(p, v):
    """p as an ascending coefficient list in the symbol with index v; each
    entry is a Polynomial free of that symbol."""
    buckets = {}
    for m, c in p.terms.items():
        buckets.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1 :]] = c
    cs = [Polynomial.zero(p.syms)] * (max(buckets) + 1)
    for e, terms in buckets.items():
        cs[e] = Polynomial(p.syms, terms, _clean=False)
    return cs


def coefficients_in_last(p):
    """p as an ascending coefficient list in its last symbol, top zeros
    trimmed; each entry is a Polynomial in the other symbols."""
    buckets = {}
    for m, c in p.terms.items():
        buckets.setdefault(m[-1], {})[m[:-1]] = c
    return [Polynomial(p.syms[:-1], buckets.get(e, {}), _clean=False)
            for e in range(max(buckets, default=-1) + 1)]


def _from_coeff_list(syms, v, cs):
    terms = {}
    for e, poly in enumerate(cs):
        for m, c in poly.terms.items():
            terms[m[:v] + (e,) + m[v + 1 :]] = c
    return Polynomial(syms, terms, _clean=False)


def poly_primitive(cs):
    """(content, primitive parts) of a list of polynomials, not all
    zero: the content is their gcd, and each part is divided by it.  The
    content is taken from the entry with the fewest terms up and stops
    once it is constant: a gcd with a small entry is cheap and often
    constant at once.  Taken in degree order instead, one random
    4-variable decide document spent minutes here, not hundredths of a
    second."""
    nonzero = sorted((c for c in cs if c), key=lambda c: len(c.terms))
    g = nonzero[0]
    for c in nonzero[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, c)
    if g.is_constant():
        return g, cs
    return g, [poly_divexact(c, g) for c in cs]


def _pseudo_rem(a, b):
    """Pseudo-remainder of coefficient lists: the remainder of
    lc(b)^k * a by b, trimmed, scaling a by lc(b) instead of dividing so
    that every entry stays a polynomial."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(a) > db:
        top = a.pop()
        if not lead.is_one():
            a = [c * lead for c in a]
        shift = len(a) - db
        for k in range(db):
            a[shift + k] = a[shift + k] - top * b[k]
        while a and a[-1].is_zero():  # the zero polynomial is the empty list
            a.pop()
    return a


def poly_gcd(p, q):
    """Primitive gcd in Q[syms], first coefficient positive; gcd(0, 0) = 0."""
    if p.syms != q.syms:
        raise SymbolMismatch(f"gcd of polynomials over {p.syms} and {q.syms}")
    if p.is_zero():
        return q.primitive_part() if q else q
    if q.is_zero():
        return p.primitive_part()
    if p.is_constant() or q.is_constant():
        return Polynomial.const(p.syms, 1)
    # peel off the monomial content first; it also covers the monomial cases
    mp = _mono_content(p)
    mq = _mono_content(q)
    shared = mono_gcd(mp, mq)
    if not mono_is_one(mp):
        p = Polynomial(p.syms, {mono_div(m, mp): c for m, c in p.terms.items()}, _clean=False)
    if not mono_is_one(mq):
        q = Polynomial(q.syms, {mono_div(m, mq): c for m, c in q.terms.items()}, _clean=False)
    g = _gcd_primitive(p, q)
    if not mono_is_one(shared):
        g = Polynomial(g.syms, {mono_mul(m, shared): c for m, c in g.terms.items()}, _clean=False)
    return g


def _gcd_primitive(p, q):
    """Primitive pseudo-remainder sequence in the main symbol, the highest
    index occurring in p or q, with the gcd of the contents multiplied
    back at the end."""
    if p.is_constant() or q.is_constant():
        return Polynomial.const(p.syms, 1)
    if p == q:
        return p.primitive_part()
    v = max(i for m in (*p.terms, *q.terms) for i, e in enumerate(m) if e)
    cont_p, a = poly_primitive(_coeff_list(p, v))
    cont_q, b = poly_primitive(_coeff_list(q, v))
    cont = poly_gcd(cont_p, cont_q)
    if len(a) < len(b):
        a, b = b, a
    # once b is a constant list, the primitive parts are coprime in v
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            break
        a, b = b, poly_primitive(r)[1]
    return (cont * _from_coeff_list(p.syms, v, b)).primitive_part()


def poly_cofactors(p, q):
    """(p / g, q / g) for g = poly_gcd(p, q)."""
    g = poly_gcd(p, q)
    if g.is_constant():
        return p, q
    return poly_divexact(p, g), poly_divexact(q, g)


def poly_squarefree(p):
    """p / gcd(p, dp/dv) for the last symbol v: up to a rational factor,
    each irreducible factor of p that involves v, once, and no factor
    free of v.  A p free of v gives 1.

    When _coprime_mod_p proves the gcd free of v, the gcd is the content
    of p in v and no gcd involving v is taken."""
    if all(m[-1] == 0 for m in p.terms):
        return Polynomial.const(p.syms, 1)
    if _coprime_mod_p(p):
        v = len(p.syms) - 1
        content, cs = poly_primitive(_coeff_list(p, v))
        if content.is_constant():
            return p
        # p / content.primitive_part(), the normalised gcd poly_gcd returns
        return _from_coeff_list(p.syms, v, cs).scale(content.content())
    der = Polynomial(p.syms, {m[:-1] + (m[-1] - 1,): c * m[-1]
                              for m, c in p.terms.items() if m[-1]}, _clean=False)
    return poly_divexact(p, poly_gcd(p, der))


def _coprime_mod_p(p):
    """Is p, with the other symbols set to the first fixed point of
    GF(P) where its leading coefficient in the last symbol v survives,
    coprime to its derivative in v?  True proves that gcd(p, dp/dv) is
    free of v: P divides neither that coefficient nor deg p, so both
    degrees survive the reduction and the resultant of p and dp/dv in v
    reduces to the resultant of the images, which is nonzero.  False is
    inconclusive."""
    n = max(m[-1] for m in p.terms)
    residues = []
    for m, c in p.terms.items():
        r = residue(c)
        if r is None:
            return False
        residues.append((m, r))
    for base in POINT_BASES:
        point = [pow(base, i + 1, P) for i in range(len(p.syms) - 1)]
        image = [0] * (n + 1)
        for m, r in residues:
            for x, e in zip(point, m):
                r = r * pow(x, e, P) % P
            image[m[-1]] = (image[m[-1]] + r) % P
        if image[n] and n % P:
            der = [i * c % P for i, c in enumerate(image)][1:]
            return len(univar_gcd(image, der)) == 1
    return False


def poly_lcm(p, q):
    if p.is_zero() or q.is_zero():
        return Polynomial.zero(p.syms)
    g = poly_gcd(p, q)
    out = poly_divexact(p * q, g)
    return out.primitive_part()


class RationalFunction:
    """A reduced fraction num/den of polynomials over Q, with no
    arithmetic: compute over Q[syms] and build the fraction last.

    Invariants: den is nonzero with first canonical coefficient exactly 1,
    gcd(num, den) is constant, and num is the zero polynomial only in the
    canonical zero 0/1.  Structural equality is semantic equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = Polynomial.const(num.syms, 1)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Polynomial.const(num.syms, 1)
            return
        if not _reduced:
            if not den.is_constant():
                num, den = poly_cofactors(num, den)
            _, c = den.first_term()
            if c != 1:
                num, den = num.scale(_ONE / c), den.scale(_ONE / c)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, syms, c):
        return cls(Polynomial.const(syms, c), None, _reduced=True)

    @property
    def syms(self):
        return self.num.syms

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == RationalFunction(self.num._coerce(other) if isinstance(other, (int, Fraction)) else other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({render_ratfun(self)})"


def render_ratfun(f):
    """`(num)/(den)`, or the bare polynomial when the denominator is 1;
    one-term fractions compact to `(num/den)`."""
    return render_fraction(f.num, f.den)


def render_fraction(num, den):
    """render_ratfun of the reduced fraction num/den."""
    if den.is_one():
        return render_polynomial(num)
    top, bottom = render_polynomial(num), render_polynomial(den)
    if len(num.terms) == 1 and len(den.terms) == 1:
        return f"({top}/{bottom})"
    return f"({top})/({bottom})"
