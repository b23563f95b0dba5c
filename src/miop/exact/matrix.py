"""Exact determinants over Poly/LaurentPoly by one fraction-free elimination.

A matrix is a plain sequence of equal-length rows whose entries share one
ring; mixing carriers or variables raises ConfigurationError in the ring's
own arithmetic.  last_column_cofactors eliminates the transpose of an
R x (R-1) block fraction-free, Gauss-Jordan style: every division is by
the previous pivot and exact (Bareiss), and the result reads [d*I | b].
By Cramer's rule the cofactors of the last column of [block | c] are
-b_i and d, so det([block | c]) is sum_i c[i] * cof[i] for every column c.
det is that expansion along a matrix's own last column.
"""
from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from .poly import _dot


def det(rows: Sequence[Sequence]):
    """The expansion of rows along their last column."""
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ConfigurationError("determinant of a non-square matrix")
    return _dot(zip([row[-1] for row in rows], last_column_cofactors([row[:-1] for row in rows])))


def last_column_cofactors(block: Sequence[Sequence]) -> list:
    """Signed cofactors of the last column of [block | c], block R x (R-1):
    entry i is (-1)^(i+R-1) times the det of block without row i."""
    cols = [list(row) for row in block]  # the columns of block^T
    R = len(cols)
    if not cols or any(len(col) != R - 1 for col in cols):
        raise ConfigurationError("last-column cofactors need an R x (R-1) block")
    order, sign, prev = list(range(R)), 1, 1
    for k in range(R - 1):
        j = next((j for j in range(k, R) if cols[j][k]), None)
        if j is None:  # row k of block^T lies in the span of rows 0..k-1
            return [cols[0][0] * 0] * R
        if j != k:  # a zero pivot: bring block's row j in as column k
            cols[k], cols[j], order[k], order[j], sign = cols[j], cols[k], order[j], order[k], -sign
        pivot, col_k = cols[k][k], cols[k]
        for col in cols[k + 1:]:  # columns 0..k are never read again
            for i in range(R - 1):
                if i != k:
                    num = col[i] * pivot - col_k[i] * col[k]
                    col[i] = num.exact_div(prev) if k else num
        prev = pivot
    cofs = [None] * R
    for i, c in zip(order, [-b for b in cols[-1]] + [prev]):
        cofs[i] = c if sign == 1 else -c
    return cofs
