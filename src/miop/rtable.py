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
[J^j]_{n,n+k} with the s+2 polynomials of its level, the band held in
integers, each row of J^j over its own least common denominator (one
shared by the window would grow with its width: AW's brackets
1 - a1a2a3a4 q^m differ from row to row).  A table under another
out-of-range convention is built the same way from its own coefficients.

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
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Optional

from .errors import ConfigurationError
from .exact import Poly, format_coeffs
from .exact.poly import _dot
from .exact.scalars import _column
from .families import (
    FamilyParams,
    carrier_one,
    reduce_to_eta,
    three_term,
    x_shift,
)

CoeffFn = Callable[[int], tuple]

_HALF = Fraction(1, 2)
_ZERO, _ONE, _ETA = Poly.zero(), Poly.one(), Poly.variable()

# shared_rtable keeps this many tables, with what verify derives from each;
# the default verify sweep reads 12, a verify-sweep pass of the benchmark 10
_SHARED_TABLES = 16


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
    the window widened by M - s rows on each side; entry raises on a key in
    the band that was not built, so a table must cover what it checks.  abc
    holds the (A_n, B_n, C_n) of J.  derived keeps what is computed from the
    table once (verify's override tables and shift-law violations); entries
    and abc never change.
    """

    fp: FamilyParams
    M: int
    window: tuple
    entries: dict = field(repr=False)
    abc: dict = field(default_factory=dict, repr=False)
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def entry(self, s: int, n: int, k: int) -> Poly:
        """R^[s]_{n,k} in eta: zero outside the band |k| <= s+1 (so at every
        level s <= -2); a key in the band at a level or row the table did not
        build raises ConfigurationError, so a short table cannot read as zero."""
        got = self.entries.get((s, n, k))
        if got is None:
            if abs(k) <= s + 1:
                raise ConfigurationError(
                    f"R^[{s}]_{{{n},{k}}} is not in the table of depth {self.M}"
                    f" on window {self.window}")
            return _ZERO
        return got

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
                            "coeffs": format_coeffs(p),
                        }
                    )
        return rows


def _ladder(fp: FamilyParams, s: int) -> list:
    """Coefficients in eta of prod_{t=0..s} (y - eta(x - i(s-2t) gamma/2))
    in y, lowest first: entry j is (-1)^(s+1-j) sigma^[s]_{s+1-j}.  W and
    AW expand the product of the ladder values x_shift(fp, eta, c), the
    shifted eta as carriers, and reduce; for L and J every value is eta."""
    if fp.is_difference:
        one = carrier_one(fp)
        values = [x_shift(fp, _ETA, Fraction(2 * t - s, 2)) for t in range(s + 1)]
    else:
        one, values = _ONE, [_ETA] * (s + 1)
    out = [one]
    for e in values:
        out = [out[0] * -e] + [a - e * b for a, b in zip(out, out[1:])] + [one]
    return [reduce_to_eta(fp, p) for p in out] if fp.is_difference else out


def _powers(abc: dict, M: int, lo: int, hi: int) -> list:
    """[J^j] for j = 0..M+1 by rows: bands[j][n] = (D, u), u the nonzero
    {k: D [J^j]_{n,n+k}}, on rows lo-(M+1-j)..hi+(M+1-j); u holds ints over
    the row's least common denominator D where abc is rational, else the
    entries over D = 1.  With J_{n,n+e} = N_e / den_n, row n of J^j is
    sum_e N_e (L / D_(n+e)) u_(n+e) over den_n L, L the lcm of the D of the
    rows read: one lcm and one gcd per row, and no Fraction."""
    jrows = {}  # n -> (den_n, the nonzero (N_e, e), e = 1, 0, -1)
    for n in range(lo - M, hi + M + 1):
        den = lcm(*(_column(c)[1] for c in abc[n]))
        jrows[n] = den, [(_times(c, den), e) for c, e in zip(abc[n], (1, 0, -1)) if c]
    band = {n: (1, {0: 1}) for n in range(lo - M - 1, hi + M + 2)}
    out = [band]
    for j in range(1, M + 2):
        pad = M + 1 - j
        prev, band = band, {}
        for n in range(lo - pad, hi + pad + 1):
            den, row = jrows[n]
            common = lcm(*(prev[n + e][0] for _, e in row))
            acc = {}
            for c, e in row:
                d, u = prev[n + e]
                f = c * (common // d)
                for k, x in u.items():
                    acc[k + e] = acc.get(k + e, 0) + f * x
            den *= common
            if all(type(x) is int for x in acc.values()):
                g = gcd(den, *acc.values())
                band[n] = den // g, {k: x // g for k, x in acc.items() if x}
            else:
                band[n] = 1, {k: x * Fraction(1, den) for k, x in acc.items() if x}
        out.append(band)
    return out


def _times(c, d: int):
    """c * d for a d that c's denominator divides: an int where c is rational."""
    if type(c) is int or type(c) is Fraction:
        return c.numerator * (d // c.denominator)
    return c * d


def build_rtable(fp: FamilyParams, M: int, window, coeffs: Optional[CoeffFn] = None) -> RTable:
    """Fill levels -1..M of the table from the closed form, for every family.

    Entry (s, n, k) is the dot product of the ladder coefficients of level
    s with the band entries [J^j]_{n,n+k}, j = 0..s+1; the family enters
    only through the ladder, whose x-picture shifts and reductions run
    once per level.  The band's ints enter each entry's one _dot as
    (int, row denominator) pairs (_powers), so no Fraction is formed.
    coeffs(n) gives (A_n, B_n, C_n), three_term's by default.
    """
    window = _check_window(window)
    if M < 0:
        raise ConfigurationError("depth M must be >= 0")
    lo, hi = window
    coeffs = coeffs or (lambda n: three_term(fp, n))
    # J^1 reads every row; in ascending n the first singular n is the one raised
    abc = {n: coeffs(n) for n in range(lo - M, hi + M + 1)}
    powers = _powers(abc, M, lo, hi)
    entries = {(-1, n, 0): _ONE for n in range(lo - M - 1, hi + M + 2)}
    for s in range(M + 1):
        pad = M - s
        ladder = _ladder(fp, s)
        for n in range(lo - pad, hi + pad + 1):
            rows = [band[n] for band in powers[:s + 2]]
            for k in range(-s - 1, s + 2):
                terms = [(c, x if d == 1 else (x, d)) for c, (d, row) in zip(ladder, rows)
                         if (x := row.get(k)) is not None]
                entries[s, n, k] = _dot(terms) if terms else _ZERO
    return RTable(fp, M, window, entries, abc)


@lru_cache(maxsize=_SHARED_TABLES)
def shared_rtable(fp: FamilyParams, M: int, window: tuple) -> RTable:
    """build_rtable(fp, M, window) under the default convention, built once
    per process.

    No entry depends on an index set, so every verify task of the same
    point, depth and window reads this one table; callers must not change
    it.  A build that raises is not kept, so the next call raises again.
    """
    return build_rtable(fp, M, window)


# -- structural identity checks ------------------------------------------------


def check_rprop(table: RTable) -> list:
    """Violations (s, n, k) of d/deta R^[s]_{n,k} = -(s+1) R^[s-1]_{n,k} (L/J)."""
    if table.fp.is_difference:
        raise ConfigurationError("check_rprop applies to L and J tables")
    bad = []
    for (s, n, k), p in table.entries.items():
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
    eta_at = lambda c: x_shift(fp, _ETA, c)  # eta(x + i c gamma)
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
