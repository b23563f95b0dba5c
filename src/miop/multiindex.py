"""Construction of denominator and multi-indexed polynomials.

An index set D lists virtual states (type I or II, each with a degree).
From D and a parameter point the module builds the pair

    Xi_D(eta)     denominator polynomial, generically of degree ell, and
    P_{D,n}(eta)  multi-indexed polynomial, generically of degree ell+n,

with ell = sum(d_j) - M(M-1)/2 + 2 M_I M_II.

Xi_D is the determinant of the M virtual-state columns on M rows; P_{D,n}
adds one row and a last column built from the classical P_n, the only
part that depends on n.  One `build` serves all four families.  A
family's picture gives, for a size R, the R x M block (a list of rows),
each row's factor of the last column, P_n's last-column ladder, the map
det -> polynomial in eta and the radicand; build expands P_{D,n} along
its last column, with the cofactors of the size-(M+1) block computed
once per build.  Every determinant is exact.matrix's one elimination.

L and J use a Wronskian in eta (_wronskian).  A column is a virtual
polynomial times its gauge, differentiated by the product rule
(_ladder): exp(eta) for L type I, else base^(1/2 - lambda_t) with base
eta (L, II), (1 + eta)/2 (J, I) or (1 - eta)/2 (J, II), lambda_t = g
(II) or h (I).  At size R, with s = R - M - 1/2, base keeps
(M_tbar + lambda_t + s) M_t from the printed prefactor plus
M_t (1/2 - lambda_t - (R-1)) from its M_t columns, i.e. -M_t (M_t - 1),
and L's exp gauges cancel (M_I against the printed -M_I).  So finish
divides by eta^(M_II(M_II-1)) (L) or
((1+eta)/2)^(M_I(M_I-1)) ((1-eta)/2)^(M_II(M_II-1)) (J) at every R.
The ladder is P_n and its derivatives, with row factors 1.

W and AW use a Casoratian-style determinant over the x-picture
(_casoratian): W in y = -ix, with rational entries, AW in z = e^{ix}.
One table per size R (_pochhammers) holds the Pochhammer ladders
(a +- ix)_t = (a -+ y)_t of W or (uz, u/z; q)_t of AW, t < R.  Entries
combine r-factors (two ladder entries per parameter) and the virtual
polynomials, kept in eta and evaluated on the symmetric point ladder
x + i((R+1)/2 - j) gamma by one composition each with eta at that point
(families.x_shift); the ladder is P_n on the same points, with row
factors r^II r^I.  AW's row constant c_j = z^(R+1-2j) kappa^(e_j), with
e_j = (R-1)^2/2 - (j-1)(R-j) and kappa = 1/q, on both r-factors of row j,
leaves the block: the z powers multiply to 1, one c_j stays on the last
column's row factor and kappa^(sum_j e_j) joins the scale.  The
determinant is divided exactly by phi_R and the printed normalization,
products of up[j] down[j] from the table, multiplied by one closed-form
scalar (_scale) and read back in eta (families.reduce_to_eta).  Where one
type fills the block (M_II = 0 or M_I = 0; the last column counts as
both), its r-factors multiply, over the rows, to exactly its pair's part
of the normalization, so both leave: the block keeps the bare shifted
polynomials, and that pair's ladders are not built.
InexactDivision or ReductionFailure signal implementation errors, never
expected states.

A zero Xi_D or P_{D,n} marks a point that is not generic for D (a
virtual state of zero energy, say) and raises GenericityError.

For AW the alpha prefactors contribute (a1 a2 q^-R)^e (a3 a4 q^-R)^e'
with half-integer exponents.  The part representable in the scalar tower
is folded into the scale; a residual square root of a rational,
when present, is detached and recorded on the pair as a radicand
(norm tag): the verbatim object is sqrt(radicand) times the stored
polynomial.  The tag is independent of n, so every identity checked
downstream is insensitive to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Union

from .errors import ConfigurationError, GenericityError
from .exact import (
    I,
    LaurentPoly,
    Poly,
    det,
    format_coeffs,
    format_scalar,
    last_column_cofactors,
    q_pow,
    rational_sqrt,
    sqrt_q,
)
from .exact.poly import _dot
from .families import (
    FamilyParams,
    VirtualStateData,
    carrier_one,
    classical_poly,
    phi_x,
    virtual_poly,
    x_shift,
)

Carrier = Union[Poly, LaurentPoly]

_ENTRY_RE = re.compile(r"^(I{1,2})(\d+)$")


# -- index sets ----------------------------------------------------------------


@dataclass(frozen=True)
class IndexSet:
    """Ordered list of virtual state labels; order matters only up to sign."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        for e in entries:
            if not isinstance(e, VirtualStateData):
                raise ConfigurationError(f"index set entries must be virtual state labels, got {e!r}")
        for t in ("I", "II"):
            degs = [e.v for e in entries if e.type == t]
            if len(degs) != len(set(degs)):
                raise ConfigurationError(f"duplicate type-{t} degrees in index set")

    @classmethod
    def parse(cls, text: str) -> "IndexSet":
        """Parse a compact label such as "I1,II2" or "" for the empty set.
        A nonempty set needs ell >= 1 here, where --D enters, and not in the
        constructor: each prefix of I0,II0 (ell = 1) must build."""
        text = text.strip()
        entries = []
        for tok in text.split(",") if text else ():
            m = _ENTRY_RE.match(tok.strip())
            if not m:
                raise ConfigurationError(f"cannot parse index entry {tok!r}")
            entries.append(VirtualStateData(m.group(1), int(m.group(2))))
        D = cls(tuple(entries))
        if D.M and D.ell < 1:
            raise ConfigurationError(f"index set {D.label()} has ell = {D.ell} < 1")
        return D

    @property
    def M(self) -> int:
        return len(self.entries)

    @property
    def M1(self) -> int:
        return sum(1 for e in self.entries if e.type == "I")

    @property
    def M2(self) -> int:
        return sum(1 for e in self.entries if e.type == "II")

    @property
    def ell(self) -> int:
        total = sum(e.v for e in self.entries)
        return total - self.M * (self.M - 1) // 2 + 2 * self.M1 * self.M2

    def prefix(self, s: int) -> "IndexSet":
        return IndexSet(self.entries[:s])

    def permute(self, perm) -> "IndexSet":
        if sorted(perm) != list(range(self.M)):
            raise ConfigurationError(f"{perm!r} is not a permutation of 0..{self.M - 1}")
        return IndexSet(tuple(self.entries[i] for i in perm))

    def label(self) -> str:
        return ",".join(f"{e.type}{e.v}" for e in self.entries)

    def to_json(self) -> list:
        return [[e.type, e.v] for e in self.entries]


# -- result container ----------------------------------------------------------


@dataclass
class MultiIndexedPair:
    """Xi_D plus the map n -> P_{D,n}, with any detached scale radicands.

    The verbatim objects are sqrt(xi_radicand) * Xi and
    sqrt(p_radicand) * P[n]; both radicands are 1 except for AW index sets
    whose alpha prefactors leave an irreducible rational square root.
    """

    fp: FamilyParams
    D: IndexSet
    Xi: Poly
    P: dict
    xi_radicand: Fraction = Fraction(1)
    p_radicand: Fraction = Fraction(1)

    @property
    def n_max(self) -> int:
        return max(self.P)

    def P_of(self, n: int) -> Poly:
        if n < 0:
            return Poly.zero()
        got = self.P.get(n)
        if got is None:
            raise ConfigurationError(
                f"P_{{D,{n}}} not built (n_max = {self.n_max})"
            )
        return got

    def to_json(self) -> dict:
        obj = self.fp.to_json()
        obj["D"] = self.D.to_json()
        obj["ell"] = self.D.ell
        obj["Xi"] = format_coeffs(self.Xi)
        obj["P"] = {str(n): format_coeffs(p) for n, p in sorted(self.P.items())}
        obj["norm_sqrt"] = {
            "Xi": format_scalar(self.xi_radicand),
            "P": format_scalar(self.p_radicand),
        }
        return obj


# -- L/J: gauge-factored Wronskians ---------------------------------------------


def _ladder(p: Poly, depth: int, eps: int = 0, base: Optional[Poly] = None, c0=0) -> list:
    """Polynomial parts of the first `depth` derivatives of a column
    exp(eps*eta) p (no base) or base^c0 p: derivative r is
    exp(eps*eta) entry_r or base^(c0-r) entry_r."""
    rows = [p]
    for r in range(1, depth):
        p = rows[-1]
        if base is None:
            rows.append(p * eps + p.derivative())
        else:
            rows.append(p * ((c0 - r + 1) * base.derivative()) + base * p.derivative())
    return rows


def _wronskian(fp: FamilyParams, D: IndexSet):
    """The L/J picture: R -> (block, row factors, ladder, finish, radicand)
    of the size-R Wronskian in eta.  Row r of a power-gauge column is
    scaled by base^(R-1-r), so all its rows share base^(c0-(R-1)); finish
    divides by the closed-form divisor of the module docstring."""
    half, eta = Fraction(1, 2), Poly.variable()
    if fp.family == "L":
        gauges = {"I": dict(eps=1), "II": dict(base=eta, c0=half - fp.g)}
    else:
        gauges = {"I": dict(base=(1 + eta) * half, c0=half - fp.h),
                  "II": dict(base=(1 - eta) * half, c0=half - fp.g)}
    cols = [(virtual_poly(fp, e), gauges[t]) for t in ("I", "II") for e in D.entries if e.type == t]
    divisor = Poly.one()
    for t, m in (("I", D.M1), ("II", D.M2)):
        if "base" in gauges[t]:
            divisor = divisor * gauges[t]["base"] ** (m * (m - 1))

    def finish(d: Poly) -> Poly:
        return d.exact_div(divisor)

    def size(R: int):
        entries = []  # column by column
        for p, gauge in cols:
            ladder = _ladder(p, R, **gauge)
            if "base" in gauge:
                ladder = [e * gauge["base"] ** (R - 1 - r) for r, e in enumerate(ladder)]
            entries.append(ladder)

        def ladder(n: int) -> list:
            return _ladder(classical_poly(fp, n), R)

        return list(zip(*entries)), [1] * R, ladder, finish, Fraction(1)

    return size


# -- W/AW: Casoratian-style determinants ----------------------------------------


def _pochhammers(fp: FamilyParams, R: int, ks) -> dict:
    """k -> (up, down) for each k in ks, the Pochhammer ladders of parameter
    k in a size-R Casoratian, t = 0..R-1: up[t] = (a + ix)_t = (a - y)_t and
    down[t] = (a - ix)_t = (a + y)_t with a = a_k - (R-1)/2 for W, and
    (uz;q)_t and (u/z;q)_t with u = a_k q^(-(R-1)/2) for AW.  Each linear
    factor is built once; each entry extends the one before by one factor."""
    table = {}
    for k in ks:
        a = fp.lam[k - 1]
        if fp.family == "W":
            a -= Fraction(R - 1, 2)
            steps = [(Poly([a + t, -1], var="x"), Poly([a + t, 1], var="x")) for t in range(R - 1)]
        else:
            u = a * fp.qpow(-(R - 1), 2)
            steps = [(LaurentPoly(0, [1, -v]), LaurentPoly(-1, [-v, 1]))
                     for v in (u * fp.qpow(t) for t in range(R - 1))]
        up, down = [carrier_one(fp)], [carrier_one(fp)]
        for f, g in steps:
            up.append(up[-1] * f)
            down.append(down[-1] * g)
        table[k] = up, down
    return table


def _scale(fp: FamilyParams, R: int, m1: int, m2: int) -> tuple:
    """(scalar, radicand) of a size-R Casoratian with m1 type-I and m2
    type-II columns, applied once per determinant.

    The scalar is the i-phase i^(R(R-1)/2), all of it for W.  For AW it
    also holds the alpha prefactors (a1 a2 q^-R)^(-(R-1) m2/2)
    (a3 a4 q^-R)^(-(R-1) m1/2) and the row constants' kappa^(sum_j e_j) =
    q^((R(R-1)(R-2)/3 - R(R-1)^2)/2), over the normalization's
    (a1 a2)^-T(m2-1) (a3 a4)^-T(m1-1) q^(S(m2-1) + S(m1-1)), with
    T(L) = L(L+1)/2 and S(L) = L(L+1)(L+2)/6.  An odd alpha exponent puts
    its base in the rational rad: sqrt(rad), or else sqrt(rad/q), folds into
    the scalar when rational; otherwise rad is the radicand.
    """
    scalar = I ** ((R * (R - 1) // 2) % 4)
    if fp.family == "W":
        return scalar, Fraction(1)
    a, q = fp.lam, fp.q
    scalar = scalar * q_pow(q, R * (R - 1) * (R - 2) // 3 - R * (R - 1) ** 2, 2)
    rad = Fraction(1)
    for pair, m in ((a[0] * a[1], m2), (a[2] * a[3], m1)):
        u, e = Fraction(pair * q ** -R), -(R - 1) * m  # u^(e/2) with pair^T(m-1) q^-S(m-1)
        scalar = scalar * u ** (e // 2) * pair ** ((m - 1) * m // 2) / q ** ((m - 1) * m * (m + 1) // 6)
        if e % 2:
            rad *= u
    root = rational_sqrt(rad)
    if root is not None:
        return scalar * root, Fraction(1)
    root = rational_sqrt(rad / q)
    if root is not None:
        return scalar * root * sqrt_q(q), Fraction(1)
    return scalar, rad


def phi_M(fp: FamilyParams, M: int) -> Carrier:
    """The auxiliary product phi_M; identically 1 for M <= 1."""
    if M < 0:
        raise ConfigurationError("phi_M needs M >= 0")
    if M <= 1:
        return carrier_one(fp)
    out = phi_x(fp) ** (M // 2)
    for k in range(1, M - 1):
        pair = phi_x(fp, Fraction(-k, 2)) * phi_x(fp, Fraction(k, 2))
        out = out * pair ** ((M - k) // 2)
    return out


def _casoratian(fp: FamilyParams, D: IndexSet):
    """The W/AW picture: R -> the size-R Casoratian over the point ladder
    x_j = x + i((R+1)/2 - j) gamma, as (block, row factors, ladder,
    finish, radicand).

    The columns are the virtual polynomials xi in eta: the entry of column
    xi in row j is xi at x_j, x_shift(fp, xi, (R+1)/2 - j), times r^II
    (type I) or r^I (type II), without AW's row constant c_j.  The last
    column, P_n(x_j), carries r^II r^I c_j, so it counts as one column of
    each type in the normalization.  finish divides by the printed
    normalization's polynomial and phi_R, applies _scale's scalar and
    reduces to eta; the radicand is what the scale leaves.

    A type whose m columns fill the block (m = R) has its r-factor in every
    entry of row j, and each k of its pair gives prod_j up_k[j-1]
    down_k[R-j] = prod_{t=1..R-1} up_k[t] down_k[t], that pair's part of
    the divisor: both leave, and the last column keeps the other pair's.
    """
    from .families import reduce_to_eta

    v1 = [virtual_poly(fp, e) for e in D.entries if e.type == "I"]
    v2 = [virtual_poly(fp, e) for e in D.entries if e.type == "II"]

    def size(R: int):
        m1, m2 = D.M1 + R - D.M, D.M2 + R - D.M
        # the r-factor pair of each type that does not fill the block, with its column count
        kept = {ks: m for ks, m in (((3, 4), m1), ((1, 2), m2)) if m < R}
        table = _pochhammers(fp, R, [k for ks in kept for k in ks])

        def r(ks: tuple, j: int) -> Optional[Carrier]:  # row j's r-factor, no row constant; None if it left
            if ks not in kept:
                return None
            (up1, down1), (up2, down2) = (table[k] for k in ks)
            return up1[j - 1] * down1[R - j] * up2[j - 1] * down2[R - j]

        def times(f: Optional[Carrier], cols: list) -> list:
            return cols if f is None else [f * e for e in cols]

        shifts = [Fraction(R + 1, 2) - j for j in range(1, R + 1)]
        rows, r21 = [], []
        for j, c in enumerate(shifts, 1):
            r1, r2 = r((1, 2), j), r((3, 4), j)
            rows.append(times(r2, [x_shift(fp, p, c) for p in v1])
                        + times(r1, [x_shift(fp, p, c) for p in v2]))
            factors = [f for f in (r2, r1) if f is not None]
            if fp.family == "AW":  # the one copy of c_j left in the determinant
                e2 = 2 * (j - 1) * (R - j) - (R - 1) ** 2  # -2 e_j
                factors.append(LaurentPoly.monomial(R + 1 - 2 * j, fp.qpow(e2, 2)))
            r21.append(prod(factors[1:], start=factors[0]) if factors else carrier_one(fp))
        divisor = phi_M(fp, R)
        for ks, m in kept.items():
            for up, down in (table[k] for k in ks):
                for j in range(1, m):
                    divisor = divisor * up[j] * down[j]
        factor, rad = _scale(fp, R, m1, m2)

        def finish(d: Carrier) -> Poly:
            return reduce_to_eta(fp, d.exact_div(divisor) * factor)

        def ladder(n: int) -> list:
            last = classical_poly(fp, n)
            return [x_shift(fp, last, c) for c in shifts]

        return rows, r21, ladder, finish, rad

    return size


# -- the construction -------------------------------------------------------------


def _nonzero(d: Carrier, fp: FamilyParams, D: IndexSet, name: str) -> Carrier:
    """d, unless it is zero: then the point is non-generic for D."""
    if not d:
        raise GenericityError(f"{name} is the zero polynomial at {fp.label()} D={{{D.label()}}}")
    return d


def build_xi(fp: FamilyParams, D: IndexSet) -> tuple:
    """(Xi_D, its radicand, the family's picture of D), the Xi half of build.

    Xi_D is finish(det) of the size-M block; for M = 0 it is 1 and there
    is no picture (None).
    """
    if D.M == 0:
        return Poly.one(), Fraction(1), None
    picture = (_casoratian if fp.is_difference else _wronskian)(fp, D)
    block, _, _, finish, xi_rad = picture(D.M)
    return finish(_nonzero(det(block), fp, D, "Xi_D")), xi_rad, picture


def build(fp: FamilyParams, D: IndexSet, n_max: int = 8) -> MultiIndexedPair:
    """(Xi_D, P_{D,0..n_max}) for any family, by one last-column expansion.

    Xi_D comes from build_xi.  The size-(M+1) block's cofactors times the
    row factors give weights w_j once per build, and
    P_{D,n} = finish(sum_j ladder_j(n) w_j).
    """
    Xi, xi_rad, picture = build_xi(fp, D)
    if picture is None:
        return MultiIndexedPair(fp, D, Xi, {n: classical_poly(fp, n) for n in range(n_max + 1)})
    block, row_factors, ladder, finish, p_rad = picture(D.M + 1)
    weights = [r * w for r, w in zip(row_factors, last_column_cofactors(block))]
    P = {}
    for n in range(n_max + 1):
        d = _dot(zip(ladder(n), weights))
        P[n] = finish(_nonzero(d, fp, D, f"P_{{D,{n}}}"))
    return MultiIndexedPair(fp, D, Xi, P, xi_rad, p_rad)
