"""Recurrence coefficient tables R^[s]_{n,k}.

The table holds, for each level -1 <= s <= M and integer n in a window, the
band of polynomials R^[s]_{n,k}(eta) with |k| <= s+1.  Level -1 is the seed
row R^[-1]_{n,0} = 1.  For L and J the recursion acts directly on
polynomials in eta:

    R^[s]_{n,k} = A_n R^[s-1]_{n+1,k-1} + (B_n - eta) R^[s-1]_{n,k}
                  + C_n R^[s-1]_{n-1,k+1}.

For W and AW the recursion lives in the x-picture (eta_x moved by x_shift),

    Rx^[s]_{n,k}(x) = A_n Rx^[s-1]_{n+1,k-1}(x + i gamma/2)
                      + (B_n - eta(x - i s gamma/2)) Rx^[s-1]_{n,k}(x + i gamma/2)
                      + C_n Rx^[s-1]_{n-1,k+1}(x + i gamma/2),

and every level is self-conjugate and symmetric, hence exactly reducible
to a polynomial in eta; both forms are stored, with the coefficients and
the shifted level s-1 entries, which the half-shift checks read again
(and mirror, x -> -x or z -> 1/z, for the shift to x - i gamma/2).  A table
under another out-of-range convention computes only the entries whose
recursion reaches a row n < 0 and takes the rest from a base table.

Because the recursion at level s reads neighbours n-1 and n+1 of level
s-1, each level is stored on the requested window widened by (M - s) on
both sides, so all lookups during construction stay inside stored rows.

Three structural identities are checkable:
  * the eta-derivative lowers the level: d/deta R^[s] = -(s+1) R^[s-1]
    (L/J),
  * the odd half-difference of R^[s] factors through R^[s-1], and R^[s]
    rebuilds from even halves of level s-1 plus a level s-2 correction
    (W/AW),
  * the depth-M table vanishes on the triangle -M-1 <= n <= -1,
    -n <= k <= M+1 (all families), given the zero convention for
    out-of-range coefficients with A_{-1} = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import ConfigurationError
from .exact import LaurentPoly, Poly, format_scalar
from .exact.poly import _dot
from .families import (
    FamilyParams,
    carrier_one,
    carrier_zero,
    eta_x,
    reduce_to_eta,
    three_term,
    x_shift,
)

Carrier = Union[Poly, LaurentPoly]
CoeffFn = Callable[[int], tuple]

_HALF = Fraction(1, 2)


def _check_window(window) -> tuple:
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ConfigurationError(f"empty window {window!r}")
    return (lo, hi)


@dataclass
class RTable:
    """Frozen band of recurrence polynomials; read-only after construction.

    abc holds the (A_n, B_n, C_n) the recursion used and, for W and AW, ups
    the x-picture entries of levels s < M at x + i gamma/2 it computed.
    """

    fp: FamilyParams
    M: int
    window: tuple
    entries: dict = field(repr=False)
    xentries: Optional[dict] = field(default=None, repr=False)
    abc: dict = field(default_factory=dict, repr=False)
    ups: Optional[dict] = field(default=None, repr=False)

    def entry(self, s: int, n: int, k: int) -> Poly:
        """R^[s]_{n,k} in eta; zero outside the band |k| <= s+1."""
        return self.entries.get((s, n, k), Poly.zero())

    def xentry(self, s: int, n: int, k: int) -> Carrier:
        """x-picture entry for difference families; zero outside the band."""
        if self.xentries is None:
            raise ConfigurationError("x-picture entries exist for W and AW only")
        out = self.xentries.get((s, n, k))
        if out is None:
            return carrier_zero(self.fp)
        return out

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


def build_rtable(
    fp: FamilyParams, M: int, window, coeffs: Optional[CoeffFn] = None,
    base: Optional[RTable] = None,
) -> RTable:
    """Fill levels -1..M of the table; one recursion serves every family.

    Three pieces depend on the family.  L and J recurse on polynomials in
    eta, where the half-step shift and the reduction to eta are the
    identity.  W and AW recurse on x-picture carriers, shift each level
    s-1 entry to x + i gamma/2 and reduce every entry to eta; both forms
    are stored.

    base, a table of fp at depth >= M over a window that covers this one,
    whose coefficients equal coeffs at every n >= 0, lends what coeffs
    cannot change: entry (s, n, k) reads rows n-s..n+s only, so each entry
    with n >= s is base's, with its x-picture form and +i gamma/2 shift,
    and so is every (A_n, B_n, C_n) at n >= 0.
    """
    window = _check_window(window)
    if M < 0:
        raise ConfigurationError("depth M must be >= 0")
    lo, hi = window
    lent = base is not None
    if lent and (base.fp != fp or base.M < M or base.window[0] > lo or base.window[1] < hi):
        raise ConfigurationError(f"base table does not cover depth {M} on {window}")
    coeffs = coeffs or (lambda n: three_term(fp, n))
    if fp.is_difference:
        one, zero = carrier_one(fp), carrier_zero(fp)
        shift = lambda p: x_shift(fp, p, _HALF)
        reduce = lambda p: reduce_to_eta(fp, p)
        eta_arg = lambda s: x_shift(fp, eta_x(fp), Fraction(-s, 2))
    else:
        one, zero = Poly.one(), Poly.zero()
        shift = reduce = lambda p: p
        eta_arg = lambda s: Poly.variable()
    # level 0 reads every row; in ascending n the first singular n is the one raised
    abc = {n: base.abc[n] if lent and n >= 0 else coeffs(n) for n in range(lo - M, hi + M + 1)}
    xentries: dict = {}
    entries: dict = {}
    ups: dict = {}  # level s-1 entries evaluated at x + i gamma/2
    if lent:
        base_x = base.entries if base.xentries is None else base.xentries
        ups = {key: p for key, p in (base.ups or {}).items() if key[1] >= key[0]}
    for n in range(lo - M - 1, hi + M + 2):
        xentries[(-1, n, 0)] = one
        entries[(-1, n, 0)] = Poly.one()

    def up(key):
        got = ups.get(key)
        if got is None:
            got = ups[key] = shift(xentries.get(key, zero))
        return got

    for s in range(M + 1):
        pad = M - s
        eta_s = eta_arg(s)
        for n in range(lo - pad, hi + pad + 1):
            if lent and n >= s:
                for k in range(-s - 1, s + 2):
                    key = (s, n, k)
                    xentries[key], entries[key] = base_x[key], base.entries[key]
                continue
            A, B, C = abc[n]
            diag = B - eta_s
            for k in range(-s - 1, s + 2):
                val = _dot([(up((s - 1, n + 1, k - 1)), A),
                            (diag, up((s - 1, n, k))),
                            (up((s - 1, n - 1, k + 1)), C)])
                xentries[(s, n, k)] = val
                entries[(s, n, k)] = reduce(val)
    if not fp.is_difference:
        xentries = ups = None
    return RTable(fp, M, window, entries, xentries, abc, ups)


# -- structural identity checks ------------------------------------------------


def check_rprop(table: RTable) -> list:
    """Violations (s, n, k) of d/deta R^[s]_{n,k} = -(s+1) R^[s-1]_{n,k} (L/J)."""
    if table.fp.is_difference:
        raise ConfigurationError("check_rprop applies to L and J tables")
    bad = []
    for (s, n, k), p in sorted(table.entries.items()):
        if s < 0:
            continue
        if p.derivative() != table.entry(s - 1, n, k) * Fraction(-(s + 1)):
            bad.append((s, n, k))
    return bad


def check_rprop2_rprop3(table: RTable) -> list:
    """Violations (s, n, k, law) of the two half-shift identities for W/AW tables.

    First identity: the odd half of a level-s entry equals the odd half of
    eta at displacement (s+1)/2 times the level s-1 entry at rest.  Second:
    a level-s entry rebuilds from even halves of level s-1 with the
    coefficient recursion, corrected by a level s-2 term; at s = 0 the
    correction factor is identically zero.

    Every x-entry is even in x (W) or symmetric under z -> 1/z (AW), as
    reduce_to_eta proved when build_rtable stored it, so its shift to
    x - i gamma/2 is the mirror (x -> -x, z -> 1/z) of the one to x + i gamma/2.
    """
    fp = table.fp
    if not fp.is_difference:
        raise ConfigurationError("check_rprop2_rprop3 requires family W or AW")
    M = table.M
    lo, hi = table.window
    mirror = Poly.reflect if fp.family == "W" else LaurentPoly.z_inverse
    eta = eta_x(fp)
    halves: dict = {}  # (s, n, k) -> the entry shifted by -1/2 and by +1/2
    pluses: dict = {}  # (s, n, k) -> the even half of the entry

    def halves_of(key):
        got = halves.get(key)
        if got is None:
            up = table.ups.get(key)
            if up is None:  # level M
                up = x_shift(fp, table.xentry(*key), _HALF)
            got = halves[key] = (mirror(up), up)
        return got

    def plus(key):
        got = pluses.get(key)
        if got is None:
            got = pluses[key] = _dot([(h, _HALF) for h in halves_of(key)])
        return got

    bad = []
    for s in range(M + 1):
        pad = M - s
        e_up = x_shift(fp, eta, Fraction(s, 2))
        e_dn = x_shift(fp, eta, Fraction(-s, 2))
        # both identities as residuals that must vanish; the first without
        # the common factor i/2 of its two sides
        odd = x_shift(fp, eta, Fraction(-(s + 1), 2)) - x_shift(fp, eta, Fraction(s + 1, 2))
        mid = (e_dn + e_up) * _HALF
        corr = (e_dn - e_up) ** 2 * Fraction(-1, 4)  # zero at s = 0
        for n in range(lo - pad, hi + pad + 1):
            A, B, C = table.abc[n]
            diag = B - mid
            for k in range(-s - 1, s + 2):
                c_dn, c_up = halves_of((s, n, k))
                if _dot([(c_dn, 1), (c_up, -1), (odd, table.xentry(s - 1, n, k))]):
                    bad.append((s, n, k, "half-difference"))
                if _dot([(plus((s - 1, n + 1, k - 1)), A),
                         (diag, plus((s - 1, n, k))),
                         (plus((s - 1, n - 1, k + 1)), C),
                         (corr, table.xentry(s - 2, n, k)),
                         (table.xentry(s, n, k), -1)]):
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
