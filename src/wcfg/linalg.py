"""Exact linear algebra over the rationals."""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form of a matrix of Fractions.

    Returns (matrix, pivot_columns); the input rows are copied, not
    modified.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hit = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        inv = _ONE / mat[r][c]
        pivot = mat[r] = [x * inv for x in mat[r]]
        # the pivot row is zero left of c; only its nonzero entries act
        nonzero = [(j, y) for j, y in enumerate(pivot[c:], c) if y]
        for row in mat:
            if row is not pivot and row[c]:
                f = row[c]
                for j, y in nonzero:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
    return mat, pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix, one vector per free
    column in ascending column order; empty list when only the zero
    vector solves."""
    if not rows:
        return [tuple(_ONE if i == j else _ZERO for i in range(ncols))
                for j in range(ncols)]
    mat, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(tuple(v))
    return basis
