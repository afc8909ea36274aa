"""Exact multivariate polynomials over Q, and rational functions as a
reduced view.

Polynomial represents an element of Q[s1, ..., sn] as {exponent tuple:
Fraction}, with ring arithmetic, exact division and gcds.  A gcd is
first the heuristic gcd GCDHEU on integer coefficients, which is checked
by trial division, with a primitive pseudo-remainder sequence as the
fallback when the heuristic gives up (see _gcd_primitive).
RationalFunction is a reduced fraction of two Polynomials with no
arithmetic of its own: it is the canonical form of a monic Groebner
basis coefficient over Q(s1, ..., sn).

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
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, lcm as int_lcm
from operator import truediv

from .errors import (
    DivisionByZeroPolynomial,
    NotDivisible,
    SymbolMismatch,
    ZeroDenominator,
)
from .monomials import (
    grade_key,
    mono_degree,
    mono_div,
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
    quot = _long_division(p.terms, q.terms, truediv)
    if quot is None:
        raise NotDivisible(f"{render_polynomial(p)} not divisible by {render_polynomial(q)}")
    return Polynomial(p.syms, quot, _clean=False)


def _long_division(f, h, divide):
    """The quotient of the term dicts f / h, or None on a remainder.
    divide(c, lead) is the quotient of two coefficients, None when it is
    not in the coefficient ring.  The remainder's terms wait in a heap
    keyed by the canonical order, so each step takes the highest one
    without a scan."""
    hm = max(h, key=grade_key)
    hc = h[hm]
    rest = [(m, c) for m, c in h.items() if m != hm]
    quot = {}
    rem = dict(f)
    heap = [(-mono_degree(m), m) for m in rem]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        c = rem.pop(m, 0)
        if not c:
            continue  # cancelled after it was pushed
        fm = mono_div(m, hm)
        fc = divide(c, hc)
        if fc is None or min(fm) < 0:
            return None
        quot[fm] = fc
        for m2, c2 in rest:
            mm = mono_mul(fm, m2)
            s = rem.get(mm, 0) - fc * c2
            if s:
                if mm not in rem:
                    heappush(heap, (-mono_degree(mm), mm))
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return quot


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
    # split off the monomial content first, which also covers the monomial
    # cases: the PRS fallback needs it, and without it runs for minutes on
    # inputs that share a monomial factor
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


# GCDHEU gives up after this many evaluation points at one level, each
# the last one times _HEU_GROWTH.  SymPy's dmp_zz_heu_gcd makes the same
# six tries, growing xi by this factor times its fourth root.
_HEU_TRIES = 6
_HEU_GROWTH = (73794, 27011)


def _gcd_primitive(p, q):
    """gcd of p and q, which share no monomial factor, by GCDHEU (Char,
    Geddes and Gonnet 1989) on their integer multiples, falling back to
    the primitive PRS of _gcd_prs when the heuristic gives up.

    Why an accepted answer is the gcd: at each level _heu_gcd evaluates
    the main symbol of the primitive inputs f and g at an integer
    xi >= 2*min(|f|, |g|) + 2, where |.| is the largest absolute
    coefficient, takes the exact gcd of the images one level down,
    rebuilds h from it by symmetric xi-adic expansion, and keeps h's
    primitive part only if it divides both f and g (a constant needs no
    trial division).  A primitive h that divides both is a common
    divisor; with xi above that bound it is also a multiple of
    gcd(f, g), so it is the gcd (CGG 1989, Theorem 1; the bound is Liao
    and Fateman, ISSAC 1995).  Trial division makes "common divisor" a
    check, so a wrong answer is impossible; only the try budget is
    heuristic: _HEU_TRIES points per level, each _HEU_GROWTH times the
    last, then the PRS."""
    if p.is_constant() or q.is_constant():
        return Polynomial.const(p.syms, 1)
    h = _heu_gcd(_cleared(p), _cleared(q))
    if h is None:
        return _gcd_prs(p, q)
    c = _int_content(h)
    if h[min(h, key=grade_key)] < 0:
        c = -c
    return Polynomial(p.syms, {m: Fraction(a // c) for m, a in h.items()}, _clean=False)


def _cleared(p):
    """p times the lcm of its denominators, as {monomial: int}."""
    den = 1
    for c in p.terms.values():
        den = int_lcm(den, c.denominator)
    return {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}


def _int_content(f):
    c = 0
    for a in f.values():
        c = int_gcd(c, a)
        if c == 1:
            break
    return c


def _heu_gcd(f, g):
    """GCDHEU on nonzero integer polynomials {monomial: int}: their gcd
    up to sign, or None once _HEU_TRIES evaluation points have failed at
    some level.

    The gcd of the integer contents is split off at every level and
    multiplied back onto the answer: the level above rebuilds its gcd
    from this image, and without the content it would rebuild a proper
    divisor of the gcd, which trial division cannot catch."""
    cf, cg = _int_content(f), _int_content(g)
    if cf != 1:
        f = {m: a // cf for m, a in f.items()}
    if cg != 1:
        g = {m: a // cg for m, a in g.items()}
    c = int_gcd(cf, cg)
    if _is_int_constant(f) or _is_int_constant(g):  # the constant +-1
        return {mono_one(len(next(iter(f)))): c}
    v = max(i for m in (*f, *g) for i, e in enumerate(m) if e)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        ff, gg = _evaluate(f, v, xi), _evaluate(g, v, xi)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            h = _interpolate(h, v, xi)
            ch = _int_content(h)
            if ch != 1:
                h = {m: a // ch for m, a in h.items()}
            if _is_int_constant(h) or _int_divides(h, f) and _int_divides(h, g):
                return {m: a * c for m, a in h.items()} if c != 1 else h
        xi = xi * _HEU_GROWTH[0] // _HEU_GROWTH[1]
    return None


def _is_int_constant(f):
    return len(f) == 1 and mono_is_one(next(iter(f)))


def _evaluate(f, v, xi):
    """f with the symbol of index v set to the integer xi, zeros dropped."""
    out = {}
    for m, a in f.items():
        image = m[:v] + (0,) + m[v + 1 :]
        out[image] = out.get(image, 0) + a * xi ** m[v]
    return {m: a for m, a in out.items() if a}


def _interpolate(h, v, xi):
    """The polynomial in the symbol of index v whose coefficients, taken
    in (-xi/2, xi/2], are the base-xi digits of h's: the symmetric
    xi-adic expansion of an image h free of that symbol."""
    half = xi // 2
    out = {}
    for m, a in h.items():
        e = 0
        while a:
            d = a % xi
            if d > half:
                d -= xi
            if d:
                out[m[:v] + (e,) + m[v + 1 :]] = d
            a = (a - d) // xi
            e += 1
    return out


def _int_divides(h, f):
    """Does the integer-primitive h divide f in Z[syms]?  By Gauss's
    lemma a quotient in Q[syms] would have integer coefficients, so a
    leading coefficient that does not divide exactly is a no."""
    return _long_division(f, h, _int_quotient) is not None


def _int_quotient(c, d):
    q, r = divmod(c, d)
    return None if r else q


def _gcd_prs(p, q):
    """Primitive pseudo-remainder sequence in the main symbol, the highest
    index occurring in p or q, with the gcd of the contents multiplied
    back at the end."""
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
    free of v.  A p free of v gives 1."""
    if all(m[-1] == 0 for m in p.terms):
        return Polynomial.const(p.syms, 1)
    der = Polynomial(p.syms, {m[:-1] + (m[-1] - 1,): c * m[-1]
                              for m, c in p.terms.items() if m[-1]}, _clean=False)
    return poly_divexact(p, poly_gcd(p, der))


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

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.const(num.syms, 1)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Polynomial.const(num.syms, 1)
            return
        if not den.is_constant():
            num, den = poly_cofactors(num, den)
        _, c = den.first_term()
        if c != 1:
            num, den = num.scale(_ONE / c), den.scale(_ONE / c)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, syms, c):
        return cls(Polynomial.const(syms, c))

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
