"""One-sided proofs over Q by reduction modulo a prime.

Reducing modulo P maps the rationals whose denominators P does not divide
onto GF(P), and maps determinants to determinants and resultants to
resultants.  So a value that is nonzero modulo P proves a value that is
nonzero over Q (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 5-6).  Each helper answers in that one direction only: True is a
proof, and False proves nothing, so the caller falls back to exact
arithmetic.
"""

P = 2**31 - 1

# Fixed evaluation points: at the point with base t, the i-th symbol
# (from 0) takes the value t**(i + 1) mod P.
POINT_BASES = (1_000_003, 2_718_281, 3_141_593)


def residue(x):
    """x mod P for a Fraction or int, or None when P divides its
    denominator."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return num % P
    den %= P
    if not den:
        return None
    return num * pow(den, -1, P) % P


def full_column_rank(rows, ncols):
    """Does the rational matrix have rank ncols modulo P?  True proves
    rank ncols over Q, since a maximal minor that is nonzero modulo P is
    nonzero.  False is inconclusive, as is an entry whose denominator P
    divides."""
    if len(rows) < ncols:
        return False
    mat = []
    for row in rows:
        reduced = [residue(x) for x in row]
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


def univar_gcd(a, b):
    """A gcd over GF(P), up to a unit factor, of two ascending
    coefficient lists of residues; the empty list is the zero
    polynomial."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _rem(a, b)
    return a


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _rem(a, b):
    """Remainder of a by a nonzero trimmed b, trimmed."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, P)
    while len(a) > db:
        f = a.pop() * inv % P
        if f:
            shift = len(a) - db
            for k in range(db):
                a[shift + k] = (a[shift + k] - f * b[k]) % P
    return _trim(a)
