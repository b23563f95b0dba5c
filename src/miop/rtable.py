"""Recurrence coefficient tables R^[s]_{n,k}.

The table holds, for each level -1 <= s <= M and integer n in a window, the
band of polynomials R^[s]_{n,k}(eta) with |k| <= s+1.  Level -1 is the seed
row R^[-1]_{n,0} = 1.  Level s follows from level s-1 by one recursion,

    Rx^[s]_{n,k}(x) = A_n Rx^[s-1]_{n+1,k-1}(x + i gamma/2)
                      + (B_n - eta(x - i s gamma/2)) Rx^[s-1]_{n,k}(x + i gamma/2)
                      + C_n Rx^[s-1]_{n-1,k+1}(x + i gamma/2),

in the x-picture of W and AW; for L and J the shift is absent and eta is
the variable itself.  The table is built from the recursion's closed form.
Let J be the tridiagonal matrix with J_{n,n+1} = A_n, J_{n,n} = B_n and
J_{n,n-1} = C_n, and read level s as the matrix (n, n+k) -> R^[s]_{n,k}.
Then

  * the recursion reads Rx^[s](x) = (J - eta(x - i s gamma/2)) Rx^[s-1](x + i gamma/2);
  * J does not depend on x, so it commutes with every function of x and
    with the shift, and by induction
    R^[s] = prod_{t=0..s} (J - eta(x - i(s-2t) gamma/2));
  * expanding the product of commuting factors,
    R^[s] = sum_{j=0..s+1} (-1)^{s+1-j} sigma^[s]_{s+1-j} J^j, where
    sigma^[s]_r is the r-th elementary symmetric polynomial of the ladder
    values eta(x - i(s-2t) gamma/2), t = 0..s.

The ladder is symmetric under x -> -x (z -> 1/z), so each sigma^[s]_r is a
polynomial in eta; for L and J every ladder value is eta and
R^[s] = (J - eta)^(s+1).  An entry is a dot product of the scalar band
[J^j]_{n,n+k} with the s+2 polynomials of its level.  A table under another
out-of-range convention computes only the entries with n < s, whose
product reaches a row below 0, and takes the rest from a base table.

Three structural identities are checkable:
  * the half-difference lowers the level: D R^[s] = -kappa_{s+1} R^[s-1],
    with D = d/deta and kappa_m = m for L/J; for W/AW D is the divided
    difference (f(eta(x - i gamma/2)) - f(eta(x + i gamma/2))) /
    (eta(x - i gamma/2) - eta(x + i gamma/2)) and kappa_m the same quotient
    of the ladder values at displacement m/2 (m for W, the q-number [m]
    for AW),
  * R^[s] rebuilds from the averages A f = (f(eta(x + i gamma/2)) +
    f(eta(x - i gamma/2)))/2 of level s-1 with the coefficient recursion,
    plus a level s-2 correction (W/AW),
  * the depth-M table vanishes on the triangle -M-1 <= n <= -1,
    -n <= k <= M+1 (all families), given the zero convention for
    out-of-range coefficients with A_{-1} = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import ConfigurationError
from .exact import Poly, format_scalar
from .exact.poly import _dot
from .families import (
    FamilyParams,
    carrier_one,
    eta_x,
    reduce_to_eta,
    three_term,
    x_shift,
)

CoeffFn = Callable[[int], tuple]

_HALF = Fraction(1, 2)
_ZERO, _ONE = Poly.zero(), Poly.one()


def _check_window(window) -> tuple:
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ConfigurationError(f"empty window {window!r}")
    return (lo, hi)


@dataclass
class RTable:
    """Frozen band of recurrence polynomials; read-only after construction.

    Level s is the matrix product prod_{t=0..s} (J - eta(x - i(s-2t) gamma/2))
    of the module docstring, stored entry by entry as polynomials in eta on
    the window widened by M - s rows on each side.  abc holds the
    (A_n, B_n, C_n) of J.
    """

    fp: FamilyParams
    M: int
    window: tuple
    entries: dict = field(repr=False)
    abc: dict = field(default_factory=dict, repr=False)

    def entry(self, s: int, n: int, k: int) -> Poly:
        """R^[s]_{n,k} in eta; zero outside the band |k| <= s+1."""
        return self.entries.get((s, n, k), _ZERO)

    def to_rows(self) -> list:
        """Deterministic flat listing for export, every level s = 0..M."""
        rows = []
        lo, hi = self.window
        for s in range(self.M + 1):
            for n in range(lo, hi + 1):
                for k in range(-s - 1, s + 2):
                    p = self.entry(s, n, k)
                    rows.append(
                        {
                            "s": s,
                            "n": n,
                            "k": k,
                            "coeffs": [format_scalar(c) for c in p.coeffs],
                        }
                    )
        return rows


def _ladder(fp: FamilyParams, s: int) -> list:
    """Coefficients in eta of prod_{t=0..s} (y - eta(x - i(s-2t) gamma/2))
    in y, lowest first: entry j is (-1)^(s+1-j) sigma^[s]_{s+1-j}.  W and
    AW expand in the x-picture and reduce; for L and J every value is eta."""
    if fp.is_difference:
        one, eta = carrier_one(fp), eta_x(fp)
        values = [x_shift(fp, eta, Fraction(2 * t - s, 2)) for t in range(s + 1)]
    else:
        one, values = _ONE, [Poly.variable()] * (s + 1)
    out = [one]
    for e in values:
        out = [out[0] * -e] + [a - e * b for a, b in zip(out, out[1:])] + [one]
    return [reduce_to_eta(fp, p) for p in out] if fp.is_difference else out


def _powers(abc: dict, M: int, lo: int, hi: int) -> list:
    """[J^j]_{n,n+k} for j = 0..M+1 as dicts (n, k) -> nonzero scalar, on
    rows lo-(M+1-j)..hi+(M+1-j) and |k| <= j."""
    band = {(n, 0): Fraction(1) for n in range(lo - M - 1, hi + M + 2)}
    out = [band]
    for j in range(1, M + 2):
        pad = M + 1 - j
        prev, band = band, {}
        for n in range(lo - pad, hi + pad + 1):
            # the nonzero J_{n,n+d}, d = 1, 0, -1, with the row n+d they read
            row = [(c, n + d, d) for c, d in zip(abc[n], (1, 0, -1)) if c]
            for k in range(-j, j + 1):
                v = None
                for c, m, d in row:
                    x = prev.get((m, k - d))
                    if x is not None:
                        v = c * x if v is None else v + c * x
                if v:
                    band[(n, k)] = v
        out.append(band)
    return out


def build_rtable(
    fp: FamilyParams, M: int, window, coeffs: Optional[CoeffFn] = None,
    base: Optional[RTable] = None,
) -> RTable:
    """Fill levels -1..M of the table from the closed form, for every family.

    Entry (s, n, k) is the dot product of the ladder coefficients of level
    s with the band entries [J^j]_{n,n+k}, j = 0..s+1; the family enters
    only through the ladder, whose x-picture shifts and reductions run
    once per level.

    base, a table of fp at depth >= M over a window that covers this one,
    whose coefficients equal coeffs at every n >= 0, lends what coeffs
    cannot change: entry (s, n, k) reads rows n-s..n+s only, so each entry
    with n >= s is base's, and so is every (A_n, B_n, C_n) at n >= 0.
    """
    window = _check_window(window)
    if M < 0:
        raise ConfigurationError("depth M must be >= 0")
    lo, hi = window
    lent = base is not None
    if lent and (base.fp != fp or base.M < M or base.window[0] > lo or base.window[1] < hi):
        raise ConfigurationError(f"base table does not cover depth {M} on {window}")
    coeffs = coeffs or (lambda n: three_term(fp, n))
    # J^1 reads every row; in ascending n the first singular n is the one raised
    abc = {n: base.abc[n] if lent and n >= 0 else coeffs(n) for n in range(lo - M, hi + M + 1)}
    # a lent table computes entries at rows n < s <= M only
    powers = _powers(abc, M, lo, min(hi, M - 1) if lent else hi)
    entries = {(-1, n, 0): _ONE for n in range(lo - M - 1, hi + M + 2)}
    for s in range(M + 1):
        pad = M - s
        ladder = _ladder(fp, s)
        for n in range(lo - pad, hi + pad + 1):
            for k in range(-s - 1, s + 2):
                key = (s, n, k)
                if lent and n >= s:
                    entries[key] = base.entries[key]
                    continue
                terms = [(c, x) for c, band in zip(ladder, powers)
                         if (x := band.get((n, k))) is not None]
                entries[key] = _dot(terms) if terms else _ZERO
    return RTable(fp, M, window, entries, abc)


# -- structural identity checks ------------------------------------------------


def check_rprop(table: RTable) -> list:
    """Violations (s, n, k) of d/deta R^[s]_{n,k} = -(s+1) R^[s-1]_{n,k} (L/J)."""
    if table.fp.is_difference:
        raise ConfigurationError("check_rprop applies to L and J tables")
    bad = []
    for (s, n, k), p in sorted(table.entries.items()):
        if s < 0:
            continue
        if p.derivative() != table.entry(s - 1, n, k) * -(s + 1):
            bad.append((s, n, k))
    return bad


def check_rprop2_rprop3(table: RTable) -> list:
    """Violations (s, n, k, law) of the two half-shift laws for W/AW tables.

    half-difference:   D R^[s]_{n,k} = -kappa_{s+1} R^[s-1]_{n,k};
    even-half-rebuild: R^[s]_{n,k} = A_n (A R^[s-1]_{n+1,k-1})
                           + (B_n - mid_s) (A R^[s-1]_{n,k})
                           + C_n (A R^[s-1]_{n-1,k+1}) + corr_s R^[s-2]_{n,k},

    with D and A the divided difference and the average of the module
    docstring, mid_s the average and corr_s minus a quarter of the squared
    difference of eta(x - i s gamma/2) and eta(x + i s gamma/2); corr_0 = 0.
    Both operators act on the stored eta entries through their images of
    1, eta, eta^2, ..., built once per call.  Lifting eta to the x-picture
    is injective, so these are the x-picture laws of the recursion exactly.
    """
    fp = table.fp
    if not fp.is_difference:
        raise ConfigurationError("check_rprop2_rprop3 requires family W or AW")
    M = table.M
    lo, hi = table.window
    eta = eta_x(fp)
    eta_at = lambda c: x_shift(fp, eta, c)  # eta(x + i c gamma)
    reduce = lambda p: reduce_to_eta(fp, p)
    dn, up = eta_at(-_HALF), eta_at(_HALF)
    gap = dn - up
    top = max([M + 1] + [p.degree for p in table.entries.values() if p])
    averages, differences = [_ONE], [_ZERO]
    p_dn = p_up = carrier_one(fp)
    for _ in range(top):
        p_dn, p_up = p_dn * dn, p_up * up
        averages.append(reduce((p_dn + p_up) * _HALF))
        differences.append(reduce((p_dn - p_up).exact_div(gap)))

    avg: dict = {}  # (s, n, k) -> the average of the entry

    def average(key):
        got = avg.get(key)
        if got is None:
            p = table.entry(*key)
            got = avg[key] = _dot([(averages[j], c) for j, c in enumerate(p.coeffs)]) if p else p
        return got

    bad = []
    for s in range(M + 1):
        pad = M - s
        e_dn, e_up = eta_at(Fraction(-s, 2)), eta_at(Fraction(s, 2))
        kappa = reduce((eta_at(Fraction(-s - 1, 2)) - eta_at(Fraction(s + 1, 2))).exact_div(gap))
        # the half-difference law over kappa, a nonzero constant (m, or the q-number [m])
        scaled = [_dot([(d, 1 / kappa.lc)]) for d in differences]
        mid = reduce((e_dn + e_up) * _HALF)
        corr = reduce((e_dn - e_up) ** 2 * Fraction(-1, 4))
        for n in range(lo - pad, hi + pad + 1):
            A, B, C = table.abc[n]
            diag = B - mid
            for k in range(-s - 1, s + 2):
                p = table.entry(s, n, k)
                # on a rational p = run/den the law times den: p's integer run and
                # den R^[s-1], zero exactly when the law holds; no scalar is built
                run, den = (p._parts[0], p._den) if len(p._parts) == 1 else (p.coeffs, 1)
                if _dot([(scaled[j], c) for j, c in enumerate(run)]
                        + [(table.entry(s - 1, n, k), den)]):
                    bad.append((s, n, k, "half-difference"))
                if _dot([(average((s - 1, n + 1, k - 1)), A),
                         (diag, average((s - 1, n, k))),
                         (average((s - 1, n - 1, k + 1)), C),
                         (corr, table.entry(s - 2, n, k)),
                         (p, -1)]):
                    bad.append((s, n, k, "even-half-rebuild"))
    return bad


def check_vanishing_region(table: RTable) -> list:
    """Violations (s, n, k) of R^[s]_{n,k} = 0 on -s-1 <= n <= -1, -n <= k <= s+1.

    Checked at every level s <= M, each of which is itself a depth-s table.
    """
    M = table.M
    lo, hi = table.window
    if lo > -M - 1 or hi < -1:
        raise ConfigurationError(
            f"window {table.window} does not cover the vanishing region of depth {M}"
        )
    bad = []
    for s in range(M + 1):
        for n in range(-s - 1, 0):
            for k in range(-n, s + 2):
                if not table.entry(s, n, k).is_zero:
                    bad.append((s, n, k))
    return bad
