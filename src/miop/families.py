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
  * classical polynomials in eta,
  * x-picture carrier helpers (eta and phi at a shifted point, an
    eta-polynomial at a shifted point, reduction back to eta) shared by
    the recurrence and determinant code.

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
    SqrtQRational,
    downcast,
    format_scalar,
    q_pow,
    scalar_sign,
    uncompose,
)

FAMILIES = ("L", "J", "W", "AW")
_LAM_LEN = {"L": 1, "J": 2, "W": 4, "AW": 4}
# each family's open parameter range lo < x < hi (hi None: unbounded) and its wording
_RANGES = {"L": (Fraction(1, 2), None, "g > 1/2"), "J": (Fraction(1, 2), None, "g, h > 1/2"),
           "W": (Fraction(0), None, "a_i > 0"), "AW": (Fraction(0), Fraction(1), "0 < a_i < 1")}
# each family's parameter names: its JSON keys and its CLI flags (--g, ...)
PARAM_NAMES = {"L": ("g",), "J": ("g", "h"), "W": ("a",), "AW": ("a", "q")}

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
            if isinstance(x, (GaussianRational, SqrtQRational)) and not x.is_real:
                raise ConfigurationError("parameters must be real")
        if self.family == "AW":
            if self.q is None:
                raise ConfigurationError("AW requires q")
            object.__setattr__(self, "q", Fraction(self.q))
            if not (0 < self.q < 1):
                raise ConfigurationError("AW requires 0 < q < 1")
        elif self.q is not None:
            raise ConfigurationError(f"family {self.family} takes no q")
        # hashed once for the lru_caches keyed by a point; the family as an index (str hashes are seeded)
        object.__setattr__(self, "_hash", hash((FAMILIES.index(self.family), lam, self.q,
                                                self.check_range)))
        if self.check_range:
            self._check_ranges()

    def __hash__(self):
        return self._hash

    def _check_ranges(self):
        lo, hi, text = _RANGES[self.family]
        for x in self.lam:
            if scalar_sign(x - lo) <= 0 or (hi is not None and scalar_sign(x - hi) >= 0):
                raise ConfigurationError(f"{self.family} requires {text}")

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

    @cached_property
    def _qpows(self) -> dict:
        """(num, den) -> q**(num/den), filled by qpow once per power and point."""
        return {}

    def qpow(self, num: int, den: int = 1) -> Scalar:
        """q**(num/den) for this parameter point; den in {1, 2}."""
        got = self._qpows.get((num, den))
        if got is None:
            got = self._qpows[num, den] = q_pow(self.q, num, den)
        return got

    # -- serialization -----------------------------------------------------

    def label(self) -> str:
        """The point as messages print it, e.g. "J lambda=(7/3,9/4)"."""
        return f"{self.family} lambda=({','.join(format_scalar(x) for x in self.lam)})"

    def to_json(self) -> dict:
        """{"family": tag} and the family's PARAM_NAMES: a as the list of four
        strings, each other parameter as one string."""
        lam = [format_scalar(x) for x in self.lam]
        values = dict(zip(("g", "h"), lam), a=lam, q=str(self.q))  # q is a Fraction
        return {"family": self.family, **{k: values[k] for k in PARAM_NAMES[self.family]}}


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


def shifted(fp: FamilyParams) -> FamilyParams:
    """Parameters displaced by the canonical shift delta."""
    return _moved(fp, (1,) * len(fp.lam))


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
# In the recurrence data, FamilyParams._aggregates, _bracket, _reflect and
# the last line of three_term are the only code that tells the two apart.
# Elsewhere the sites are _moved (additive or multiplicative steps), the
# x-picture carriers below, multiindex's Pochhammer table, _scale and AW
# row constant, and quad's weights.

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


# A full verify-sweep or export pass holds fewer than 100 entries in each of
# the three_term and classical_poly caches.
_CLASSICAL_CACHE_SIZE = 1024


@lru_cache(maxsize=_CLASSICAL_CACHE_SIZE)
def three_term(fp: FamilyParams, n: int):
    """Coefficients (A_n, B_n, C_n) of eta*P_n = A_n P_{n+1} + B_n P_n + C_n P_{n-1}.

    Negative n returns (0, 0, 0); this is one valid instantiation of the
    free choice at out-of-range indices and pins A_{-1} = 0.  Computed once
    per (point, n) in a process; a singular point raises on every call.
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


# classical_poly fills its cache upward at every multiple of this stride
# below n - 1 first, so no call recurses more than about two strides deep
_CLASSICAL_STRIDE = 32


@lru_cache(maxsize=_CLASSICAL_CACHE_SIZE)
def classical_poly(fp: FamilyParams, n: int) -> Poly:
    """P_n(eta), normalized by the recurrence seed P_0 = 1; zero for n < 0."""
    if n < 0:
        return Poly.zero()
    if n == 0:
        return Poly.one()
    for m in range(_CLASSICAL_STRIDE, n - 1, _CLASSICAL_STRIDE):
        classical_poly(fp, m)
    A, B, C = three_term(fp, n - 1)
    if not A:
        raise LeadingCoefficientZero(f"A_{n - 1} = 0 at {fp.label()}; recurrence cannot advance")
    eta = Poly.variable()
    num = (eta - B) * classical_poly(fp, n - 1) - classical_poly(fp, n - 2) * C
    return num * (1 / A)


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
# W works with Poly in y = -ix, tagged "x", so that eta = x^2 = -y^2 and the
# point x + ic gamma (gamma = 1) is y + c: a value that is real in eta has
# rational coefficients in y.  AW works with LaurentPoly in z = e^{ix}, where
# x + ic gamma (gamma = log q) is z q^{-c}.  eta_x and phi_x give eta and phi
# at the shifted point in closed form, so an eta-polynomial at the shifted
# point is one composition with eta_x (x_shift); the sqrt(q) of a half step
# comes from q_pow.  reduce_to_eta, the inverse of the unshifted lift, is
# exact.uncompose with eta_x, so eta_x alone holds each family's coordinates.

# the default verify sweep reads 28 (point, step) pairs, a depth-6 run about 20
_ETA_X_CACHE_SIZE = 256


def _require_difference(fp: FamilyParams):
    if not fp.is_difference:
        raise ConfigurationError("x-picture carriers exist for W and AW only")


def _step(fp: FamilyParams, c) -> Fraction:
    """c as a Fraction, checked to be a half-integer shift step."""
    _require_difference(fp)
    c = Fraction(c)
    if c.denominator not in (1, 2):
        raise ConfigurationError("shift step must be integer or half-integer")
    return c


def carrier_one(fp: FamilyParams) -> Carrier:
    _require_difference(fp)
    return Poly.one("x") if fp.family == "W" else LaurentPoly.monomial(0)


@lru_cache(maxsize=_ETA_X_CACHE_SIZE)
def eta_x(fp: FamilyParams, c) -> Carrier:
    """eta(x + ic gamma) as a carrier polynomial, c a half-integer:
    x^2 = -(y + c)^2 (W) or (q^c/z + q^-c z)/2 (AW); built once per
    (point, c), so every caller names c (the unshifted eta is c = 0)."""
    c = _step(fp, c)
    if fp.family == "W":
        return Poly([-c * c, -2 * c, -1], var="x")
    up, dn = fp.qpow(c.numerator, c.denominator), fp.qpow(-c.numerator, c.denominator)
    return LaurentPoly(-1, [up / 2, 0, dn / 2])


def phi_x(fp: FamilyParams, c=0) -> Carrier:
    """The auxiliary function phi at x + ic gamma, c a half-integer:
    2x = 2i(y + c) (W) or 2 sin x = -i(q^-c z - q^c/z) (AW)."""
    c = _step(fp, c)
    if fp.family == "W":
        return Poly([2 * I * c, 2 * I], var="x")
    up, dn = fp.qpow(c.numerator, c.denominator), fp.qpow(-c.numerator, c.denominator)
    return LaurentPoly(-1, [I * up, 0, -I * dn])


def x_shift(fp: FamilyParams, p: Poly, c=0) -> Carrier:
    """p(eta(x + ic gamma)) for a polynomial p in eta, c a half-integer: the
    carrier of p at the shifted point, one composition with eta_x(fp, c)."""
    if p.var != "eta":
        raise ConfigurationError("x_shift expects a polynomial in eta")
    return p.compose(eta_x(fp, c))


def reduce_to_eta(fp: FamilyParams, p: Carrier) -> Poly:
    """The f in eta with x_shift(fp, f) == p, as uncompose with eta_x(fp, 0):
    the inverse of the lift; ReductionFailure where p is no such lift."""
    return uncompose(p, eta_x(fp, 0))
