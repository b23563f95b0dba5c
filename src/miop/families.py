"""Family data for the four classical orthogonal polynomial families.

Four families are supported, identified by short tags:

  L   Laguerre-type:      eta = x^2      on (0, inf),   lam = (g,)
  J   Jacobi-type:        eta = cos 2x   on (0, pi/2),  lam = (g, h)
  W   Wilson:             eta = x^2,     gamma = 1,     lam = (a1..a4)
  AW  Askey-Wilson:       eta = cos x,   gamma = log q, lam = (a1..a4), q

L and J are differential families; W and AW are difference families with
pure imaginary shifts.  For AW the stored parameters are the multiplicative
a_i (the base-q exponentials of the additive parameters), so additive
half-integer shifts act by multiplying with q^(1/2).

This module owns:
  * FamilyParams and its curated presets,
  * the three-term recurrence coefficients (A_n, B_n, C_n),
  * classical polynomials in eta and in the x-picture,
  * virtual state polynomials, twists and energies,
  * spectral energies E_n,
  * the eta shift-sum and shift-product closed forms for W/AW,
  * x-picture carrier helpers (shift, eta at a shifted point, phi,
    reduction back to eta) shared by the recurrence and determinant code.

Everything here is exact; float data (weights, norms) lives in miop.quad.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import ConfigurationError, LeadingCoefficientZero, SingularCoefficient
from .exact import (
    GaussianRational,
    I,
    LaurentPoly,
    Poly,
    Scalar,
    downcast,
    even_poly_to_eta,
    format_scalar,
    imag_shift,
    laurent_shift,
    laurent_to_eta,
    q_pow,
    scalar_sign,
)

FAMILIES = ("L", "J", "W", "AW")
_LAM_LEN = {"L": 1, "J": 2, "W": 4, "AW": 4}

Carrier = Union[Poly, LaurentPoly]


@dataclass(frozen=True)
class FamilyParams:
    """Immutable parameter point of one family.

    lam entries may leave the base rational field after half-integer q-shifts
    (AW); they must stay real.  Range enforcement can be switched off with
    check_range=False for algebraic-identity runs at twisted parameters.
    """

    family: str
    lam: tuple
    q: Optional[Fraction] = None
    check_range: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        lam = tuple(downcast(x) for x in self.lam)
        object.__setattr__(self, "lam", lam)
        if len(lam) != _LAM_LEN[self.family]:
            raise ConfigurationError(
                f"family {self.family} takes {_LAM_LEN[self.family]} parameters, "
                f"got {len(lam)}"
            )
        for x in lam:
            if isinstance(x, GaussianRational) and not x.is_real:
                raise ConfigurationError("parameters must be real")
        if self.family == "AW":
            if self.q is None:
                raise ConfigurationError("AW requires q")
            object.__setattr__(self, "q", Fraction(self.q))
            if not (0 < self.q < 1):
                raise ConfigurationError("AW requires 0 < q < 1")
        elif self.q is not None:
            raise ConfigurationError(f"family {self.family} takes no q")
        if self.check_range:
            self._check_ranges()

    def _check_ranges(self):
        half = Fraction(1, 2)
        if self.family == "L":
            if scalar_sign(self.lam[0] - half) <= 0:
                raise ConfigurationError("L requires g > 1/2")
        elif self.family == "J":
            for x in self.lam:
                if scalar_sign(x - half) <= 0:
                    raise ConfigurationError("J requires g, h > 1/2")
        elif self.family == "W":
            for x in self.lam:
                if scalar_sign(x) <= 0:
                    raise ConfigurationError("W requires a_i > 0")
        else:
            for x in self.lam:
                if scalar_sign(x) <= 0 or scalar_sign(x - 1) >= 0:
                    raise ConfigurationError("AW requires 0 < a_i < 1")

    # -- convenience views ------------------------------------------------

    @property
    def is_difference(self) -> bool:
        return self.family in ("W", "AW")

    @property
    def g(self) -> Scalar:
        return self.lam[0]

    @property
    def h(self) -> Scalar:
        return self.lam[1]

    @property
    def b1(self) -> Scalar:
        """Sum of the four Wilson parameters."""
        a = self.lam
        return a[0] + a[1] + a[2] + a[3]

    @property
    def b4(self) -> Scalar:
        """Product of the four Askey-Wilson parameters."""
        a = self.lam
        return a[0] * a[1] * a[2] * a[3]

    def qpow(self, num: int, den: int = 1) -> Scalar:
        """q**(num/den) for this parameter point; den in {1, 2}."""
        return q_pow(self.q, num, den)

    # -- serialization -----------------------------------------------------

    def label(self) -> str:
        """The point as messages print it, e.g. "J lambda=(7/3,9/4)"."""
        return f"{self.family} lambda=({','.join(format_scalar(x) for x in self.lam)})"

    def to_json(self) -> dict:
        obj: dict = {"family": self.family}
        if self.family == "L":
            obj["g"] = format_scalar(self.lam[0])
        elif self.family == "J":
            obj["g"] = format_scalar(self.lam[0])
            obj["h"] = format_scalar(self.lam[1])
        else:
            obj["a"] = [format_scalar(x) for x in self.lam]
            if self.family == "AW":
                obj["q"] = format_scalar(self.q)
        return obj


PRESETS = {
    "l-default": FamilyParams("L", (Fraction(7, 3),)),
    "j-default": FamilyParams("J", (Fraction(7, 3), Fraction(9, 4))),
    "w-default": FamilyParams(
        "W", (Fraction(3, 4), Fraction(4, 5), Fraction(6, 5), Fraction(7, 5))
    ),
    "aw-default": FamilyParams(
        "AW",
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)),
        q=Fraction(1, 4),
    ),
    # Non-square q exercises the adjoined sqrt(q) arithmetic.
    "aw-q13": FamilyParams(
        "AW",
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)),
        q=Fraction(1, 3),
    ),
}


# -- parameter motion -------------------------------------------------------


def _moved(fp: FamilyParams, steps: tuple) -> FamilyParams:
    """Parameters moved by steps[k] unit steps each: +1 (L, J), +1/2 (W)
    or a factor q^(1/2) (AW)."""
    if fp.family == "AW":
        lam = tuple(a * fp.qpow(s, 2) for a, s in zip(fp.lam, steps))
    else:
        unit = Fraction(1, 2) if fp.family == "W" else 1
        lam = tuple(a + s * unit for a, s in zip(fp.lam, steps))
    return FamilyParams(fp.family, lam, fp.q, check_range=False)


def shifted(fp: FamilyParams, m: int = 1) -> FamilyParams:
    """Parameters displaced by m times the canonical shift delta."""
    return _moved(fp, (m,) * len(fp.lam))


def twisted(fp: FamilyParams, m1: int, m2: int) -> FamilyParams:
    """Parameters displaced by m1 type-I plus m2 type-II twist shifts.

    Type-I twist shift is +1 (L), (+1,-1) (J), (-1/2,-1/2,+1/2,+1/2) (W and
    AW, additively); type-II is its negative.  AW acts multiplicatively.
    """
    d = m1 - m2
    steps = {"L": (d,), "J": (d, -d)}.get(fp.family, (-d, -d, d, d))
    return _moved(fp, steps)


def virtual_params(fp: FamilyParams, vtype: str) -> FamilyParams:
    """Twisted parameter point at which the virtual polynomial is classical.

    L type I needs no twist (the argument is negated instead); L type II
    sends g to 1-g; J sends one of (g, h) to its reflection; W reflects the
    first (type I) or last (type II) parameter pair about 1/2, and AW does
    the multiplicative counterpart a -> q/a.
    """
    if vtype not in ("I", "II"):
        raise ConfigurationError(f"virtual state type must be I or II, got {vtype!r}")
    if fp.family == "L":
        lam: tuple = fp.lam if vtype == "I" else (1 - fp.lam[0],)
    elif fp.family == "J":
        g, h = fp.lam
        lam = (g, 1 - h) if vtype == "I" else (1 - g, h)
    elif fp.family == "W":
        a = fp.lam
        if vtype == "I":
            lam = (1 - a[0], 1 - a[1], a[2], a[3])
        else:
            lam = (a[0], a[1], 1 - a[2], 1 - a[3])
    else:
        a = fp.lam
        if vtype == "I":
            lam = (fp.q / a[0], fp.q / a[1], a[2], a[3])
        else:
            lam = (a[0], a[1], fp.q / a[2], fp.q / a[3])
    return FamilyParams(fp.family, lam, fp.q, check_range=False)


# -- three-term recurrence ---------------------------------------------------


def _nonzero_den(fp: FamilyParams, n: int, value: Scalar) -> Scalar:
    if not value:
        raise SingularCoefficient(
            f"three-term denominator vanishes at {fp.family}, n={n}"
        )
    return value


def three_term(fp: FamilyParams, n: int):
    """Coefficients (A_n, B_n, C_n) of eta*P_n = A_n P_{n+1} + B_n P_n + C_n P_{n-1}.

    Negative n returns (0, 0, 0); this is one valid instantiation of the
    free choice at out-of-range indices and pins A_{-1} = 0.
    """
    if n < 0:
        z = Fraction(0)
        return (z, z, z)
    half = Fraction(1, 2)
    if fp.family == "L":
        g = fp.g
        return (Fraction(-(n + 1)), 2 * n + g + half, -(n + g - half))
    if fp.family == "J":
        g, h = fp.lam
        s = 2 * n + g + h
        dp = _nonzero_den(fp, n, s + 1)
        if n == 0:
            # A_0 and B_0 at their removable limits (g+h and g+h-1 cancel);
            # C_0 multiplies P_{-1} = 0, so where its denominator
            # (g+h)(g+h-1) vanishes (twisted points only) it takes the free
            # value 0, as W/AW do at n = 0
            den = s * (s - 1)
            C = (2 * (g - half)) * (h - half) / den if den else Fraction(0)
            return (2 / dp, (h - g) / dp, C)
        d0 = _nonzero_den(fp, n, s)
        dm = _nonzero_den(fp, n, s - 1)
        A = (2 * (n + 1)) * (n + g + h) / (d0 * dp)
        B = (h - g) * (g + h - 1) / (dm * dp)
        C = (2 * (n + g - half)) * (n + h - half) / (dm * d0)
        return (A, B, C)
    # W and AW: (n + b1 - 1)/(2n + b1 - 1) and (1 - b4 q^(n-1))/(1 - b4 q^(2n-1))
    # are 1 at n = 0, and every term over dm2 carries a factor n (W) or
    # 1 - q^n (AW), so n = 0 needs neither dm1 nor dm2; they vanish there
    # for b1 = 1, 2 and b4 = q, q^2
    C = Fraction(0)
    a = fp.lam
    if fp.family == "W":
        b1 = fp.b1
        d0 = _nonzero_den(fp, n, 2 * n + b1)
        prod_1k = (n + a[0] + a[1]) * (n + a[0] + a[2]) * (n + a[0] + a[3])
        A, B = -1 / d0, prod_1k / d0
        if n:
            dm1 = _nonzero_den(fp, n, 2 * n + b1 - 1)
            dm2 = _nonzero_den(fp, n, 2 * n + b1 - 2)
            ratio = (n + b1 - 1) / dm1
            A, B = A * ratio, B * ratio
            prod_all = Fraction(1)
            for j in range(4):
                for k in range(j + 1, 4):
                    prod_all = prod_all * (n + a[j] + a[k] - 1)
            C = -(n * prod_all) / (dm2 * dm1)
            prod_jk = (n + a[1] + a[2] - 1) * (n + a[1] + a[3] - 1) * (n + a[2] + a[3] - 1)
            B = B + n * prod_jk / (dm2 * dm1)
        return (A, B - a[0] * a[0], C)
    b4 = fp.b4
    qn = fp.qpow(n)
    d0 = _nonzero_den(fp, n, 1 - b4 * fp.qpow(2 * n))
    prod_1k = (
        (1 - a[0] * a[1] * qn) * (1 - a[0] * a[2] * qn) * (1 - a[0] * a[3] * qn)
    )
    A, B = 1 / (2 * d0), prod_1k / (2 * a[0] * d0)
    if n:
        dm1 = _nonzero_den(fp, n, 1 - b4 * fp.qpow(2 * n - 1))
        dm2 = _nonzero_den(fp, n, 1 - b4 * fp.qpow(2 * n - 2))
        ratio = (1 - b4 * fp.qpow(n - 1)) / dm1
        A, B = A * ratio, B * ratio
        prod_all = Fraction(1)
        for j in range(4):
            for k in range(j + 1, 4):
                prod_all = prod_all * (1 - a[j] * a[k] * fp.qpow(n - 1))
        C = (1 - qn) * prod_all / (2 * dm2 * dm1)
        prod_jk = (
            (1 - a[1] * a[2] * fp.qpow(n - 1))
            * (1 - a[1] * a[3] * fp.qpow(n - 1))
            * (1 - a[2] * a[3] * fp.qpow(n - 1))
        )
        B = B + a[0] * (1 - qn) * prod_jk / (2 * dm2 * dm1)
    return (A, (a[0] + 1 / a[0]) / 2 - B, C)


# -- classical polynomials ---------------------------------------------------


# A full verify-sweep or export pass holds fewer than 100 entries.
_CLASSICAL_CACHE_SIZE = 1024


@lru_cache(maxsize=_CLASSICAL_CACHE_SIZE)
def classical_poly(fp: FamilyParams, n: int) -> Poly:
    """P_n(eta), normalized by the recurrence seed P_0 = 1; zero for n < 0."""
    if n < 0:
        return Poly.zero()
    if n == 0:
        return Poly.one()
    A, B, C = three_term(fp, n - 1)
    if not A:
        raise LeadingCoefficientZero(
            f"A_{n - 1} = 0 at {fp.family}; recurrence cannot advance"
        )
    eta = Poly.variable()
    num = (eta - B) * classical_poly(fp, n - 1) - classical_poly(fp, n - 2) * C
    return num * (1 / A)


def classical_poly_x(fp: FamilyParams, n: int) -> Carrier:
    """Classical polynomial through the coordinate map: W in x, AW in z."""
    return poly_to_x(fp, classical_poly(fp, n))


# -- virtual states -----------------------------------------------------------


@dataclass(frozen=True)
class VirtualStateData:
    """One virtual state label: type I or II plus non-negative degree v."""

    type: str
    v: int

    def __post_init__(self):
        if self.type not in ("I", "II"):
            raise ConfigurationError(f"virtual state type must be I or II, got {self.type!r}")
        if self.v < 0:
            raise ConfigurationError("virtual state degree must be >= 0")


def virtual_poly(fp: FamilyParams, vsd: VirtualStateData) -> Poly:
    """xi_v(eta): classical polynomial at twisted parameters.

    L type I is special: the parameters stay put and the argument is
    negated, xi^I_v(eta) = P_v(-eta).
    """
    if fp.family == "L" and vsd.type == "I":
        p = classical_poly(fp, vsd.v)
        return p.compose(-Poly.variable())
    return classical_poly(virtual_params(fp, vsd.type), vsd.v)


def virtual_energy(fp: FamilyParams, vsd: VirtualStateData) -> Scalar:
    """Energy of the virtual state labelled by vsd."""
    v = vsd.v
    half = Fraction(1, 2)
    if fp.family == "L":
        g = fp.g
        if vsd.type == "I":
            return -4 * (g + v + half)
        return -4 * (g - v - half)
    if fp.family == "J":
        g, h = fp.lam
        if vsd.type == "I":
            return -4 * (g + v + half) * (h - v - half)
        return -4 * (g - v - half) * (h + v + half)
    if fp.family == "W":
        a = fp.lam
        if vsd.type == "I":
            return -(a[0] + a[1] - v - 1) * (a[2] + a[3] + v)
        return -(a[2] + a[3] - v - 1) * (a[0] + a[1] + v)
    a = fp.lam
    if vsd.type == "I":
        return -(1 - a[0] * a[1] * fp.qpow(-v - 1)) * (1 - a[2] * a[3] * fp.qpow(v))
    return -(1 - a[2] * a[3] * fp.qpow(-v - 1)) * (1 - a[0] * a[1] * fp.qpow(v))


def energy(fp: FamilyParams, n: int) -> Scalar:
    """Spectral energy E_n; E_0 = 0 and E_n increases in the classical range."""
    if fp.family == "L":
        return Fraction(4 * n)
    if fp.family == "J":
        return 4 * n * (n + fp.g + fp.h)
    if fp.family == "W":
        return n * (n + fp.b1 - 1)
    return (fp.qpow(-n) - 1) * (1 - fp.b4 * fp.qpow(n - 1))


# -- x-picture carriers (difference families) ---------------------------------
#
# W works with Poly in x over Gaussian rationals; AW with LaurentPoly in
# z = e^{ix}.  A shift x -> x + i c gamma acts on W by the Taylor shift
# x -> x + ic (imag_shift, gamma = 1) and on AW by z -> z q^{-c}
# (gamma = log q), which is laurent_shift(p, -c).


def _require_difference(fp: FamilyParams):
    if not fp.is_difference:
        raise ConfigurationError("x-picture carriers exist for W and AW only")


def carrier_zero(fp: FamilyParams) -> Carrier:
    _require_difference(fp)
    return Poly.zero("x") if fp.family == "W" else LaurentPoly()


def carrier_one(fp: FamilyParams) -> Carrier:
    _require_difference(fp)
    return Poly.one("x") if fp.family == "W" else LaurentPoly.monomial(0)


def eta_x(fp: FamilyParams) -> Carrier:
    """eta as a carrier polynomial: x^2 (W) or (z + 1/z)/2 (AW)."""
    _require_difference(fp)
    if fp.family == "W":
        return Poly([0, 0, 1], var="x")
    half = Fraction(1, 2)
    return LaurentPoly(-1, [half, 0, half])


def phi_x(fp: FamilyParams) -> Carrier:
    """The auxiliary function phi: 2x (W) or 2 sin x = -i(z - 1/z) (AW)."""
    _require_difference(fp)
    if fp.family == "W":
        return Poly([0, 2], var="x")
    return LaurentPoly(-1, [I, 0, -I])


def poly_to_x(fp: FamilyParams, p: Poly) -> Carrier:
    """Substitute the coordinate map into a polynomial in eta."""
    _require_difference(fp)
    if p.var != "eta":
        raise ConfigurationError("poly_to_x expects a polynomial in eta")
    return p.compose(eta_x(fp))


def x_shift(fp: FamilyParams, p: Carrier, c) -> Carrier:
    """Evaluate the carrier at x + i c gamma; c may be a half-integer."""
    _require_difference(fp)
    if not c:
        return p
    if fp.family == "W":
        return imag_shift(p, c)
    return laurent_shift(p, -c, fp.q)


def eta_at(fp: FamilyParams, c) -> Carrier:
    """eta(x + i c gamma) as a carrier polynomial; c may be a half-integer."""
    _require_difference(fp)
    c = Fraction(c)
    if fp.family == "W":
        return Poly([-c * c, I * (2 * c), Fraction(1)], var="x")
    lo = q_pow(fp.q, c.numerator, c.denominator)
    hi = q_pow(fp.q, -c.numerator, c.denominator)
    return LaurentPoly(-1, [lo / 2, 0, hi / 2])


def reduce_to_eta(fp: FamilyParams, p: Carrier) -> Poly:
    """Rewrite a carrier known to be a polynomial in eta(x) back in eta."""
    _require_difference(fp)
    if fp.family == "W":
        return even_poly_to_eta(p)
    return laurent_to_eta(p)
