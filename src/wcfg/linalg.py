"""Exact linear algebra over the rationals, by one integer elimination.

`nullspace` clears each row to integers and runs fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968): every entry
stays an integer, a minor of the cleared matrix, so every division by
the previous pivot is exact.
"""

from fractions import Fraction
from math import lcm


def nullspace(rows, ncols):
    """Basis of the right nullspace of a matrix of ints or Fractions
    with ncols columns: one integer vector per free column, in ascending
    column order, whose entry at its own free column is the common
    denominator of the reduced row echelon form and whose entries at the
    other free columns are zero; empty when only the zero vector
    solves.  Each row is cleared to integers, and each elimination step
    divides by the previous pivot exactly."""
    mat = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (scale // x.denominator) for x in row])
    pivots = []
    den = 1  # the previous pivot
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        pivot = mat[r]
        a = pivot[c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(a * x - f * y) // den for x, y in zip(row, pivot)]
        pivots.append(c)
        den = a
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = den
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(tuple(v))
    return basis
