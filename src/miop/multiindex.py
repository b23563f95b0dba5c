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
once per build.  Every determinant is exact.det (Bareiss elimination).

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
(_casoratian).  Entries combine r-factors (products of _pochs, the
Pochhammer pairs (a +- ix) of W or q-Pochhammer pairs (uz, u/z; q) of AW,
with z and kappa powers for AW) and virtual polynomials evaluated on the
symmetric point ladder x + i((R+1)/2 - j) gamma; the ladder is P_n on the
same points, with row factors r^II r^I.  The determinant is multiplied
by its i-phase, divided exactly by the printed normalization and by
phi_R, and reduced to a polynomial in eta.  InexactDivision or
ReductionFailure signal implementation errors, never expected states.

A zero Xi_D or P_{D,n} marks a point that is not generic for D (a
virtual state of zero energy, say) and raises GenericityError.

For AW the alpha prefactors contribute (a1 a2 q^-R)^e (a3 a4 q^-R)^e'
with half-integer exponents.  The part representable in the scalar tower
is folded into the coefficients; a residual square root of a rational,
when present, is detached and recorded on the pair as a radicand
(norm tag): the verbatim object is sqrt(radicand) times the stored
polynomial.  The tag is independent of n, so every identity checked
downstream is insensitive to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import ConfigurationError, GenericityError
from .exact import (
    I,
    LaurentPoly,
    Poly,
    Scalar,
    det,
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
    classical_poly_x,
    phi_x,
    poly_to_x,
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
        if self.M >= 1 and self.ell < 1:
            raise ConfigurationError(
                f"index set {self.label()} has ell = {self.ell} < 1"
            )

    @classmethod
    def parse(cls, text: str) -> "IndexSet":
        """Parse a compact label such as "I1,II2" or "" for the empty set."""
        text = text.strip()
        if not text:
            return cls(())
        entries = []
        for tok in text.split(","):
            m = _ENTRY_RE.match(tok.strip())
            if not m:
                raise ConfigurationError(f"cannot parse index entry {tok!r}")
            entries.append(VirtualStateData(m.group(1), int(m.group(2))))
        return cls(tuple(entries))

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
        obj["Xi"] = [format_scalar(c) for c in self.Xi.coeffs]
        obj["P"] = {
            str(n): [format_scalar(c) for c in p.coeffs]
            for n, p in sorted(self.P.items())
        }
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


def _pochs(fp: FamilyParams, k: int, R: int, up: int, down: int) -> Carrier:
    """The Pochhammer pair of parameter k in a size-R Casoratian:
    (a + ix)_up (a - ix)_down with a = a_k - (R-1)/2 for W, and
    (uz;q)_up (u/z;q)_down with u = a_k q^(-(R-1)/2) for AW."""
    if fp.family == "W":
        a = fp.lam[k - 1] - Fraction(R - 1, 2)
        factors = [Poly([a + t, I], var="x") for t in range(up)]
        factors += [Poly([a + t, -I], var="x") for t in range(down)]
    else:
        u = fp.lam[k - 1] * q_pow(fp.q, -(R - 1), 2)
        factors = [LaurentPoly(0, [1, -u * q_pow(fp.q, t)]) for t in range(up)]
        factors += [LaurentPoly(-1, [-u * q_pow(fp.q, t), 1]) for t in range(down)]
    out = carrier_one(fp)
    for f in factors:
        out = out * f
    return out


def _r_poly(fp: FamilyParams, ks: tuple, j: int, R: int) -> Carrier:
    """Polynomial content of an r-factor for row j of a size-R determinant.

    Includes the z power and the kappa power (half-integer power of 1/q)
    for AW but not the alpha prefactor, which is handled once per
    determinant.
    """
    out = carrier_one(fp) if fp.family == "W" else LaurentPoly.monomial(R + 1 - 2 * j)
    for k in ks:
        out = out * _pochs(fp, k, R, j - 1, R - j)
    if fp.family == "W":
        return out
    # kappa = 1/q: exponent (R-1)^2/2 - (j-1)(R-j)
    e_num = -((R - 1) ** 2) + 2 * (j - 1) * (R - j)
    return out * q_pow(fp.q, e_num, 2)


def _alpha_scale(fp: FamilyParams, R: int, e1: Fraction, e2: Fraction):
    """(a1 a2 q^-R)^e1 (a3 a4 q^-R)^e2 split into tower scalar and radicand."""
    if fp.family == "W":
        return Fraction(1), Fraction(1)
    a = fp.lam
    qR = fp.q ** (-R)
    rational = Fraction(1)
    rad = Fraction(1)
    for u, e in ((a[0] * a[1] * qR, Fraction(e1)), (a[2] * a[3] * qR, Fraction(e2))):
        n = e.numerator // e.denominator
        rational *= Fraction(u) ** n
        if e - n:
            rad *= Fraction(u)
    root = rational_sqrt(rad)
    if root is not None:
        return rational * root, Fraction(1)
    root = rational_sqrt(rad / fp.q)
    if root is not None:
        return rational * root * sqrt_q(fp.q), Fraction(1)
    return rational, rad


def _norm_divisor(fp: FamilyParams, R: int, lim34: int, lim12: int):
    """The printed normalization (A or B): carrier polynomial and scalar."""
    poly = carrier_one(fp)
    scalar: Scalar = Fraction(1)
    for ks, lim in (((3, 4), lim34), ((1, 2), lim12)):
        for k in ks:
            for j in range(1, lim + 1):
                poly = poly * _pochs(fp, k, R, j, j)
                if fp.family == "AW":
                    scalar = scalar * fp.lam[k - 1] ** (-j) * q_pow(fp.q, j * (j + 1) // 2, 2)
    return poly, scalar


def phi_M(fp: FamilyParams, M: int) -> Carrier:
    """The auxiliary product phi_M; identically 1 for M <= 1."""
    if M < 0:
        raise ConfigurationError("phi_M needs M >= 0")
    if M <= 1:
        return carrier_one(fp)
    phi = phi_x(fp)
    out = phi ** (M // 2)
    for k in range(1, M - 1):
        pair = x_shift(fp, phi, Fraction(-k, 2)) * x_shift(fp, phi, Fraction(k, 2))
        out = out * pair ** ((M - k) // 2)
    return out


def _casoratian(fp: FamilyParams, D: IndexSet):
    """The W/AW picture: R -> the size-R Casoratian over the point ladder
    x_j = x + i((R+1)/2 - j) gamma, as (block, row factors, ladder,
    finish, radicand).

    Row j holds the type-I columns times r^II and the type-II columns
    times r^I, all at x_j; the last column, P_n(x_j), carries r^II r^I,
    so it counts as one column of each type in the normalization.  finish
    applies the i-phase, divides by the printed normalization and phi_R
    and reduces to eta; the radicand is what the alpha scale leaves.
    """
    from .families import reduce_to_eta

    x1 = [poly_to_x(fp, virtual_poly(fp, e)) for e in D.entries if e.type == "I"]
    x2 = [poly_to_x(fp, virtual_poly(fp, e)) for e in D.entries if e.type == "II"]

    def size(R: int):
        shifts = [Fraction(R + 1, 2) - j for j in range(1, R + 1)]
        rows, r21 = [], []
        for j, c in enumerate(shifts, 1):
            r1 = _r_poly(fp, (1, 2), j, R)
            r2 = _r_poly(fp, (3, 4), j, R)
            rows.append([r2 * x_shift(fp, p, c) for p in x1] + [r1 * x_shift(fp, p, c) for p in x2])
            r21.append(r2 * r1)
        m1, m2 = D.M1 + R - D.M, D.M2 + R - D.M
        norm_poly, norm_scalar = _norm_divisor(fp, R, max(m1 - 1, 0), max(m2 - 1, 0))
        half = Fraction(1, 2)
        scale, rad = _alpha_scale(fp, R, -(R - 1) * m2 * half, -(R - 1) * m1 * half)
        phase = I ** ((R * (R - 1) // 2) % 4)
        divisor, factor = norm_poly * phi_M(fp, R), scale / norm_scalar

        def finish(d: Carrier) -> Poly:
            return reduce_to_eta(fp, (d * phase).exact_div(divisor) * factor)

        def ladder(n: int) -> list:
            last = classical_poly_x(fp, n)
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
