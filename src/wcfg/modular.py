"""A one-sided proof over Q by reduction modulo a prime.

Reducing modulo a prime p maps the rationals whose denominators p does
not divide onto GF(p), and a factorisation over Q survives the
reduction: a polynomial with a linear factor over Q(Sigma) has a root in
GF(p) at every point where its leading coefficient survives, so an image
with no root proves that there is no linear factor (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 14).  no_root loops over the tries
of `images`: 8 primes times 3 points.  It answers in one direction only:
a reason is a proof, and None proves nothing, so the caller falls back
to exact arithmetic.
"""

# Every prime from 1009 to 1049: each (prime, point) pair is a fresh
# chance for a factor of degree two or more to have no root, and on the
# decide corpus these 24 tries proved more verdicts than 3 tries with
# one large prime did.
PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)

# Fixed evaluation points: at the point with base t, the i-th symbol
# (from 0) takes the value t**(2*i + 1) mod p.  The odd powers keep the
# points off the curve s_i = t**(i + 1), on which the discriminant
# 1 + 4*b**2 - 4*a**2 of a corpus certificate is a square everywhere.
POINT_BASES = (1_000_003, 2_718_281, 3_141_593)


def residue(x, p):
    """x mod p for a Fraction or int, or None when p divides its
    denominator."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return num % p
    den %= p
    if not den:
        return None
    return num * pow(den, -1, p) % p


def image(terms, base, p):
    """The polynomial {exponent tuple: rational} in symbols s_0, ..., s_k
    and X, last, at the point with base `base` of GF(p): the ascending
    coefficient list of its image in GF(p)[X], untrimmed, or None when p
    divides a denominator."""
    nsyms = len(next(iter(terms))) - 1
    point = [pow(base, 2 * i + 1, p) for i in range(nsyms)]
    out = [0] * (max(m[-1] for m in terms) + 1)
    for m, c in terms.items():
        r = residue(c, p)
        if r is None:
            return None
        for x, e in zip(point, m):
            r = r * pow(x, e, p) % p
        out[m[-1]] = (out[m[-1]] + r) % p
    return out


def images(terms):
    """The tries of no_root: (prime, base, image) for each prime of
    PRIMES and each point base, with the image of the polynomial
    {exponent tuple: rational} in the symbols Sigma and X, last, trimmed
    at the top.  A prime that divides a denominator is skipped, and so
    is a point where the lead in X vanishes."""
    for p in PRIMES:
        for base in POINT_BASES:
            f = image(terms, base, p)
            if f is None:
                break
            if f[-1]:
                yield p, base, f


def no_root(terms):
    """Why the polynomial {exponent tuple: rational} in the symbols
    Sigma and X, last, has no factor c*X - d over Q(Sigma): the reason
    "no root mod l at point t"; or None, which proves nothing.

    Were there such a factor, c would divide the leading coefficient in
    X (Gauss's lemma), so at every point of GF(l) where that coefficient
    survives, the image would have the root d/c.  A unit
    gcd(image, X**l - X) says that it has none."""
    for p, base, f in images(terms):
        xp_minus_x = _x_power_mod(f, p) + [0, 0]
        xp_minus_x[1] = (xp_minus_x[1] - 1) % p
        if len(univar_gcd(f, xp_minus_x, p)) == 1:
            return f"no root mod {p} at point {base}"
    return None


def univar_gcd(a, b, p):
    """A gcd over GF(p), up to a unit factor, of two ascending
    coefficient lists of residues; the empty list is the zero
    polynomial."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _rem(a, b, p)
    return a


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _rem(a, b, p):
    """Remainder of a by a nonzero trimmed b over GF(p), trimmed."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) > db:
        f = a.pop() * inv % p
        if f:
            shift = len(a) - db
            for k in range(db):
                a[shift + k] = (a[shift + k] - f * b[k]) % p
    return _trim(a)


def _x_power_mod(f, p):
    """X**p modulo the nonzero trimmed f over GF(p), by repeated
    squaring: square, shift by X on a one bit, reduce."""
    r = [1]
    for bit in bin(p)[2:]:
        square = [0] * (2 * len(r))
        for i, x in enumerate(r):
            for j, y in enumerate(r):
                square[i + j] = (square[i + j] + x * y) % p
        if bit == "1":
            square.insert(0, 0)
        r = _rem(square, f, p)
    return r
