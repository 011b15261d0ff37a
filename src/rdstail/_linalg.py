"""Small exact linear algebra over Fractions (dense, desk-scale); the
invariant-polytope oracle in ``tests/test_invariant.py`` is its only user."""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    m = [row[:] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of ``a x = b``, or None if inconsistent.

    Free variables are set to zero.
    """
    if not a:
        return [] if all(v == 0 for v in b) else None
    aug = [row + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    ncols = len(a[0])
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x

