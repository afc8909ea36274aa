"""One-sided proofs over Q by reduction modulo a prime.

Reducing modulo a prime p maps the rationals whose denominators p does
not divide onto GF(p), and maps determinants to determinants and
resultants to resultants.  So a value that is nonzero modulo p proves a
value that is nonzero over Q (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 5-6).  Likewise a factorisation over Q survives
the reduction: a polynomial with a linear factor over Q(Sigma) has a
root in GF(p) at every point where its leading coefficient survives, so
an image with no root proves that there is no linear factor (ch. 14).
Each helper answers in that one direction only: True, or a reason, is a
proof, and False or None proves nothing, so the caller falls back to
exact arithmetic.
"""

P = 2**31 - 1

# The primes of the no-root proof, every prime from 1009 to 1049: each
# (prime, point) pair is a fresh chance for a factor of degree two or
# more to have no root, and on the decide corpus these 24 tries proved
# more verdicts than the 3 that P alone gives.
ROOT_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)

# Fixed evaluation points: at the point with base t, the i-th symbol
# (from 0) takes the value t**(i + 1) mod p.
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
    point = [pow(base, i + 1, p) for i in range(nsyms)]
    out = [0] * (max(m[-1] for m in terms) + 1)
    for m, c in terms.items():
        r = residue(c, p)
        if r is None:
            return None
        for x, e in zip(point, m):
            r = r * pow(x, e, p) % p
        out[m[-1]] = (out[m[-1]] + r) % p
    return out


def no_root(terms):
    """Why the polynomial {exponent tuple: rational} in the symbols
    Sigma and X, last, has no factor c*X - d over Q(Sigma): the reason
    "no root mod l at point t"; or None, which proves nothing.

    Were there such a factor, c would divide the leading coefficient in
    X (Gauss's lemma), so at every point of GF(l) where that coefficient
    survives, the image would have the root d/c.  A unit
    gcd(image, X**l - X) says that it has none.  A prime that divides a
    denominator is skipped, and so is a point where the lead vanishes."""
    for p in ROOT_PRIMES:
        for base in POINT_BASES:
            f = image(terms, base, p)
            if f is None:
                break
            if not f[-1]:
                continue
            xp_minus_x = _x_power_mod(f, p) + [0, 0]
            xp_minus_x[1] = (xp_minus_x[1] - 1) % p
            if len(univar_gcd(f, xp_minus_x, p)) == 1:
                return f"no root mod {p} at point {base}"
    return None


def full_column_rank(rows, ncols):
    """Does the rational matrix have rank ncols modulo P?  True proves
    rank ncols over Q, since a maximal minor that is nonzero modulo P is
    nonzero.  False is inconclusive, as is an entry whose denominator P
    divides."""
    if len(rows) < ncols:
        return False
    mat = []
    for row in rows:
        reduced = [residue(x, P) for x in row]
        if None in reduced:
            return False
        mat.append(reduced)
    # the rank does not depend on the column order; the sparsest columns
    # go first, since a column with one nonzero entry eliminates nothing
    order = sorted(range(ncols), key=lambda j: sum(1 for row in mat if row[j]))
    mat = [[row[j] for j in order] for row in mat]
    # Gaussian elimination that drops each eliminated column, so every
    # row starts at the current column
    for _ in range(ncols):
        hit = next((i for i, row in enumerate(mat) if row[0]), None)
        if hit is None:
            return False
        pivot = mat.pop(hit)
        inv = pow(pivot[0], -1, P)
        tail = [y * inv % P for y in pivot[1:]]
        mat = [[(x - row[0] * y) % P for x, y in zip(row[1:], tail)] if row[0] else row[1:]
               for row in mat]
    return True


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
