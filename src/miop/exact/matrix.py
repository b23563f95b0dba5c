"""Matrices over Poly/LaurentPoly with exact determinants.

det_fraction_free is Bareiss elimination (every division exact in the
polynomial ring); det_cofactor is the independent expansion used both as
the small-size fast path of det and as the oracle in tests.
last_column_cofactors serves a family of determinants that differ only in
their last column: one det per cofactor, then det([block | c]) is
sum_i c[i] * cof[i] for every column c.
"""
from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError


def _zero_like(e):
    """The zero of e's ring (same carrier, same variable)."""
    return e * 0


class PolyMatrix:
    """Dense rectangular matrix of Poly or LaurentPoly entries."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence]):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ConfigurationError("matrix must be non-empty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ConfigurationError("matrix rows have unequal lengths")
        first = entries[0][0]
        for row in entries:
            for e in row:
                if type(e) is not type(first) or e.var != first.var:
                    raise ConfigurationError("matrix entries mix carriers")
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols


def det_cofactor(m: PolyMatrix):
    """Laplace expansion along the first row; the independent oracle."""
    if m.rows != m.cols:
        raise ConfigurationError("determinant of a non-square matrix")
    return _det_cofactor(m.entries)


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        c = rows[0][j]
        if not c:
            continue
        minor = tuple(tuple(row[k] for k in range(n) if k != j)
                      for row in rows[1:])
        term = c * _det_cofactor(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc if acc is not None else _zero_like(rows[0][0])


def det_fraction_free(m: PolyMatrix):
    """Bareiss elimination; all intermediate divisions are exact."""
    if m.rows != m.cols:
        raise ConfigurationError("determinant of a non-square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    zero = _zero_like(a[0][0])
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


def det(m: PolyMatrix):
    """Determinant: cofactor expansion below 4x4, fraction-free above."""
    return det_cofactor(m) if m.rows < 4 else det_fraction_free(m)


def last_column_cofactors(block: PolyMatrix) -> list:
    """Signed cofactors of the last column of [block | c], block R x (R-1):
    entry i is (-1)^(i+R-1) times the det of block without row i."""
    if block.rows != block.cols + 1:
        raise ConfigurationError("last-column cofactors need an R x (R-1) block")
    rows = block.entries
    minors = [det(PolyMatrix(rows[:i] + rows[i + 1:])) for i in range(block.rows)]
    return [-m if (block.cols - i) % 2 else m for i, m in enumerate(minors)]
