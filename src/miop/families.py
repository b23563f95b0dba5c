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
  * the three-term recurrence coefficients (A_n, B_n, C_n), virtual state
    polynomials, twists and energies, and the spectral energies E_n; W and
    AW write each of these once, in the bracket [e; js] (1-based js):
    e + the sum of a_j (W), or 1 - q^e * the product of a_j (AW),
  * classical polynomials in eta and in the x-picture,
  * x-picture carrier helpers (shift, phi, reduction back to eta) shared
    by the recurrence and determinant code.

Everything here is exact; float data (weights, norms) lives in miop.quad.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import prod
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

    @cached_property
    def _aggregates(self) -> dict:
        """W/AW: js -> the sum (W) or the product (AW) of a_j over j in js,
        for every increasing js in (1, 2, 3, 4); formed once per point for
        the bracket [e; js]."""
        combine = sum if self.family == "W" else prod
        return {js: combine(self.lam[j - 1] for j in js)
                for r in range(5) for js in combinations(_ALL, r)}

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


# -- the W/AW bracket ----------------------------------------------------------
#
# W is the q -> 1 image of AW (Koekoek, Lesky & Swarttouw (2010), 9.1, 14.1):
# each factor n + a_j + a_k of a Wilson formula is 1 - a_j a_k q^n for AW.
# FamilyParams._aggregates, _bracket and _reflect are the only code that
# tells the two apart.

_ALL = (1, 2, 3, 4)


def _bracket(fp: FamilyParams, e: int, js: tuple = ()) -> Scalar:
    """[e; js]: e + the sum (W) or 1 - q^e * the product (AW) of a_j, j in js."""
    if fp.family == "W":
        return e + fp._aggregates[js]
    return 1 - fp.qpow(e) * fp._aggregates[js]


def _reflect(fp: FamilyParams, a: Scalar) -> Scalar:
    """a -> 1 - a (W) or q/a (AW): [e; a'] is [-e-1; a] up to a unit."""
    return 1 - a if fp.family == "W" else fp.q / a


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
    else:
        pair = (0, 1) if vtype == "I" else (2, 3)
        lam = tuple(_reflect(fp, a) if j in pair else a for j, a in enumerate(fp.lam))
    return FamilyParams(fp.family, lam, fp.q, check_range=False)


# -- three-term recurrence ---------------------------------------------------


def _nonzero_den(fp: FamilyParams, n: int, value: Scalar) -> Scalar:
    if not value:
        raise SingularCoefficient(f"three-term denominator vanishes at {fp.label()}, n={n}")
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
    # W and AW in one body; only the last line, W's eta = x^2 against AW's
    # cos x, differs.  ratio is 1 at n = 0 and dn and C carry [n;], so n = 0
    # needs neither dm1 nor dm2 (zero there for b1 = 1, 2 or a1a2a3a4 = q, q^2)
    d0 = _nonzero_den(fp, n, _bracket(fp, 2 * n, _ALL))
    ratio, dn, C = 1, 0, Fraction(0)
    if n:
        dm1 = _nonzero_den(fp, n, _bracket(fp, 2 * n - 1, _ALL))
        dm2 = _nonzero_den(fp, n, _bracket(fp, 2 * n - 2, _ALL))
        ratio = _bracket(fp, n - 1, _ALL) / dm1
        pairs = [_bracket(fp, n - 1, jk) for jk in combinations(_ALL, 2)]  # 12 13 14 23 24 34
        over = _bracket(fp, n) / (dm2 * dm1)
        dn, C = over * prod(pairs[3:]), over * prod(pairs)
    A = ratio / d0
    up = prod(_bracket(fp, n, (1, k)) for k in (2, 3, 4)) * A
    a1 = fp.lam[0]
    if fp.family == "W":
        return (-A, up + dn - a1 * a1, -C)
    return (A / 2, (a1 + 1 / a1 - up / a1 - a1 * dn) / 2, C / 2)


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
        raise LeadingCoefficientZero(f"A_{n - 1} = 0 at {fp.label()}; recurrence cannot advance")
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
    own, other = ((1, 2), (3, 4)) if vsd.type == "I" else ((3, 4), (1, 2))
    return -_bracket(fp, -v - 1, own) * _bracket(fp, v, other)


def energy(fp: FamilyParams, n: int) -> Scalar:
    """Spectral energy E_n; E_0 = 0 and E_n increases in the classical range."""
    if fp.family == "L":
        return Fraction(4 * n)
    if fp.family == "J":
        return 4 * n * (n + fp.g + fp.h)
    # -[-n;] is n (W) and q^-n - 1 = q^-n (1 - q^n) (AW)
    return -_bracket(fp, -n) * _bracket(fp, n - 1, _ALL)


# -- x-picture carriers (difference families) ---------------------------------
#
# W works with Poly in x over Gaussian rationals; AW with LaurentPoly in
# z = e^{ix}.  A shift x -> x + i c gamma acts on W by the Taylor shift
# x -> x + ic (imag_shift, gamma = 1) and on AW by z -> z q^{-c}
# (gamma = log q), which is laurent_shift(p, -c).


def _require_difference(fp: FamilyParams):
    if not fp.is_difference:
        raise ConfigurationError("x-picture carriers exist for W and AW only")


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


def reduce_to_eta(fp: FamilyParams, p: Carrier) -> Poly:
    """Rewrite a carrier known to be a polynomial in eta(x) back in eta."""
    _require_difference(fp)
    if fp.family == "W":
        return even_poly_to_eta(p)
    return laurent_to_eta(p)
