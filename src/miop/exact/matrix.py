"""Exact determinants of square matrices over Poly/LaurentPoly.

A matrix is a plain sequence of equal-length rows whose entries share one
ring; mixing carriers or variables raises ConfigurationError in the ring's
own arithmetic.  det is Bareiss elimination at every size: every division
is exact in the polynomial ring.
last_column_cofactors serves a family of determinants that differ only in
their last column: one det per cofactor, then det([block | c]) is
sum_i c[i] * cof[i] for every column c.
"""
from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError


def det(rows: Sequence[Sequence]):
    """Bareiss elimination; all intermediate divisions are exact."""
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ConfigurationError("determinant of a non-square matrix")
    a = [list(row) for row in rows]
    zero = a[0][0] * 0
    sign = 1
    prev = None  # previous pivot; None encodes the ring 1 at step 0
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot_row is None:
                return zero
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else num.exact_div(prev)
            a[i][k] = zero
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


def last_column_cofactors(block: Sequence[Sequence]) -> list:
    """Signed cofactors of the last column of [block | c], block R x (R-1):
    entry i is (-1)^(i+R-1) times the det of block without row i."""
    rows = list(block)
    R = len(rows)
    if not rows or any(len(row) != R - 1 for row in rows):
        raise ConfigurationError("last-column cofactors need an R x (R-1) block")
    minors = [det(rows[:i] + rows[i + 1:]) for i in range(R)]
    return [-m if (R - 1 - i) % 2 else m for i, m in enumerate(minors)]
