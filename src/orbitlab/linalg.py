"""Small exact matrices and wedge powers.

Matrices are row-major tuples of tuples of Fraction; everything here is
exact.  The size function D(g) and the matrix norms live in
:mod:`orbitlab.balls` (``norm_sq``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .places import as_rational

Matrix = tuple  # tuple[tuple[Fraction, ...], ...]


def as_matrix(rows) -> Matrix:
    """Coerce nested int/str/Fraction rows to an exact matrix."""
    mat = tuple(tuple(as_rational(e) for e in row) for row in rows)
    if not mat or any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged or empty matrix")
    return mat


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError(f"cannot multiply {len(a[0])} columns by {k} rows")
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_det(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free style Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


# ---------------------------------------------------------------------------
# wedge powers

def _minor(a: Matrix, rows, cols) -> Fraction:
    return mat_det(tuple(tuple(a[i][j] for j in cols) for i in rows))


def wedge_action(a: Matrix, k: int) -> Matrix:
    """Induced action on the k-th exterior power.

    Rows and columns are indexed by k-subsets of {0..n-1} in
    lexicographic order, so wedge_action(a, 1) == a.
    """
    n = len(a)
    if not 1 <= k <= n:
        raise ValueError(f"wedge degree {k} out of range for n={n}")
    idx = list(combinations(range(n), k))
    return tuple(tuple(_minor(a, rows, cols) for cols in idx) for rows in idx)
