"""Float backend: weights, quadrature, and orthogonality checks.

Everything upstream is exact; this module is the one place binary64
enters.  Exact polynomials are mirrored into FloatPoly (compensated
Horner evaluation), integrands are summed pairwise in a deterministic
order, and expected norms are computed with mpmath at high working
precision before the final rounding to float.

The deformed weight is

    Psi_D(x)^2 = c_F^{2M} phi_0(x; lambda^[M_I,M_II])^2 / Xi_D(eta(x); lambda)^2

for L and J (c_F = 2 and -4).  For W and AW the same shape holds with
the alpha/kappa prefactor and the denominator Xi(x - i gamma/2) *
Xi(x + i gamma/2), which reduces exactly to a polynomial in eta before
being handed to the float side.  The orthogonality statement under test:

    integral Psi_D^2 P_{D,n} P_{D,m} dx
        = prod_j (E_n - Etilde_{d_j}) * h_n * delta_{nm}.

Quadrature uses Gauss-Legendre on finite intervals and tanh-sinh on
(0, cutoff) for semi-infinite ones, with a node-doubling acceptance
contract: the result is accepted once doubling moves it by less than
the target tolerance, and NonConvergent is raised otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import mpmath
import numpy as np

from .errors import ConfigurationError, NonConvergent, PoleEncountered
from .exact import Poly
from .families import (
    FamilyParams,
    energy,
    poly_to_x,
    reduce_to_eta,
    twisted,
    virtual_energy,
    x_shift,
)
from .multiindex import IndexSet, MultiIndexedPair, build

_MP_PREC = 120


# -- compensated float evaluation ------------------------------------------------

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a: float, b: float):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


class FloatPoly:
    """binary64 mirror of an exact Poly with compensated Horner evaluation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]

    @classmethod
    def from_exact(cls, p: Poly) -> "FloatPoly":
        return cls(p.coeffs if p.coeffs else [0.0])

    def __call__(self, x: float) -> float:
        cs = self.coeffs
        s = cs[-1]
        e = 0.0
        for c in reversed(cs[:-1]):
            p, pe = _two_prod(s, x)
            s, se = _two_sum(p, c)
            e = e * x + (pe + se)
        return s + e


def pairwise_sum(values) -> float:
    """Deterministic pairwise summation (reproducible across runs)."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


# -- quadrature engines -----------------------------------------------------------


@dataclass
class QuadratureSpec:
    """Scheme plus acceptance contract for the node-doubling loop."""

    scheme: str = "auto"  # "gauss-legendre" | "tanh-sinh" | "auto"
    nodes: int = 64
    rtol: float = 1e-11
    max_levels: int = 8

    def __post_init__(self):
        if self.scheme not in ("auto", "gauss-legendre", "tanh-sinh"):
            raise ConfigurationError(f"unknown quadrature scheme {self.scheme!r}")
        if self.nodes < 1:
            raise ConfigurationError(f"quadrature needs nodes >= 1, got {self.nodes}")
        if not self.rtol > 0:
            raise ConfigurationError(f"quadrature needs rtol > 0, got {self.rtol}")
        if self.max_levels < 1:
            raise ConfigurationError(f"quadrature needs max_levels >= 1, got {self.max_levels}")


@dataclass
class QuadResult:
    value: float
    err_estimate: float
    nodes: int


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _accept(cur: float, prev: Optional[float], rtol: float, floor: float) -> bool:
    if prev is None:
        return False
    return abs(cur - prev) <= rtol * max(abs(cur), floor)


def integrate_gl(f: Callable[[float], float], a: float, b: float, spec: QuadratureSpec, floor: float = 0.0) -> QuadResult:
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    n = spec.nodes
    prev = None
    for _ in range(spec.max_levels):
        xs, ws = _leggauss(n)
        cur = half * pairwise_sum(w * f(mid + half * x) for x, w in zip(xs, ws))
        if _accept(cur, prev, spec.rtol, floor):
            return QuadResult(cur, abs(cur - prev), n)
        prev = cur
        n *= 2
    raise NonConvergent(f"Gauss-Legendre did not settle below rtol={spec.rtol} at {n // 2} nodes")


def _ts_nodes(h: float, t_max: float):
    """tanh-sinh abscissas/weights on (-1, 1) at step h."""
    k = 0
    out = []
    while True:
        t = k * h
        if t > t_max:
            break
        s = math.pi / 2.0 * math.sinh(t)
        if s > 350.0:
            break
        x = math.tanh(s)
        w = h * math.pi / 2.0 * math.cosh(t) / math.cosh(s) ** 2
        if w < 1e-22 and k > 0:
            break
        out.append((x, w))
        if k > 0:
            out.append((-x, w))
        k += 1
    return out


def integrate_ts(f: Callable[[float], float], a: float, b: float, spec: QuadratureSpec, floor: float = 0.0) -> QuadResult:
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    h = 0.5
    prev = None
    for level in range(spec.max_levels):
        nodes = _ts_nodes(h, t_max=4.2)
        cur = half * pairwise_sum(w * f(mid + half * x) for x, w in nodes)
        if _accept(cur, prev, spec.rtol, floor):
            return QuadResult(cur, abs(cur - prev), len(nodes))
        prev = cur
        h /= 2.0
    raise NonConvergent(f"tanh-sinh did not settle below rtol={spec.rtol} at step {h * 2}")


# -- weights ----------------------------------------------------------------------


def _eta_of_x(fp: FamilyParams) -> Callable[[float], float]:
    return {
        "L": lambda x: x * x,
        "J": lambda x: math.cos(2.0 * x),
        "W": lambda x: x * x,
        "AW": math.cos,
    }[fp.family]


def _interval(fp: FamilyParams, cutoff: Optional[float] = None):
    if fp.family == "L":
        return (0.0, cutoff if cutoff else 12.0)
    if fp.family == "J":
        return (0.0, math.pi / 2.0)
    if fp.family == "W":
        return (0.0, cutoff if cutoff else 40.0)
    return (0.0, math.pi)


def _cutoff(fp: FamilyParams, D: IndexSet, n: int, m: int) -> Optional[float]:
    """Upper integration limit with integrand tail below 1e-24 of scale."""
    if fp.family == "L":
        # integrand ~ x^K e^{-x^2}, K = 2g + 2(n+m)
        K = 2.0 * float(fp.g) + 2.0 * (n + m) + 4.0
        x = 6.0
        while x * x - K * math.log(x) < 60.0:
            x += 1.0
        return x
    if fp.family == "W":
        # |Gamma(a+ix)|^2-type weights decay like e^{-2 pi x} x^K
        K = 2.0 * float(fp.b1) + 4.0 * (D.ell + max(n, m)) + 4.0
        x = 10.0
        while 2.0 * math.pi * x - K * math.log(x) < 60.0:
            x += 2.0
        return x
    return None


def _phi0_sq(fp: FamilyParams) -> Callable[[float], float]:
    """phi_0(x; lambda)^2 as a float function; mpmath for Gamma/q-products."""
    if fp.family == "L":
        g2 = 2.0 * float(fp.g)
        return lambda x: math.exp(-x * x) * x ** g2
    if fp.family == "J":
        g2, h2 = 2.0 * float(fp.g), 2.0 * float(fp.h)
        return lambda x: math.sin(x) ** g2 * math.cos(x) ** h2
    if fp.family == "W":
        avals = [complex(mpmath.mpf(a.numerator) / a.denominator) for a in fp.lam]

        def w_weight(x: float) -> float:
            ix = 1j * x
            num = mpmath.mpf(1)
            for a in avals:
                num *= abs(mpmath.gamma(a + ix)) ** 2
            den = abs(mpmath.gamma(2 * ix)) ** 2 if x != 0 else mpmath.inf
            return float(num / den)

        return w_weight
    q = mpmath.mpf(fp.q.numerator) / fp.q.denominator
    avals = [mpmath.mpf(a.numerator) / a.denominator for a in fp.lam]

    def aw_weight(x: float) -> float:
        z = mpmath.exp(1j * x)
        num = abs(_qpoch_inf(z * z, q)) ** 2
        den = mpmath.mpf(1)
        for a in avals:
            den *= abs(_qpoch_inf(a * z, q)) ** 2
        return float(num / den)

    return aw_weight


def _qpoch_inf(u, q):
    """(u; q)_infinity, truncated once the factors are 1 to working precision."""
    out = mpmath.mpf(1)
    t = u
    while abs(t) > mpmath.mpf(10) ** (-_MP_PREC // 4):
        out *= 1 - t
        t *= q
    return out


def _qpoch_fin(u, q, k: int):
    out = mpmath.mpf(1)
    for t in range(k):
        out *= 1 - u * q**t
    return out


def _difference_prefactor_sq(fp: FamilyParams, D: IndexSet) -> float:
    """Square of the alpha/kappa prefactor of Psi_D (1 for W)."""
    if fp.family == "W":
        return 1.0
    M1, M2 = D.M1, D.M2
    lam2 = twisted(fp, M1, M2).lam
    q = mpmath.mpf(fp.q.numerator) / fp.q.denominator
    # pairwise products collapse the half-integer q-powers of the twist
    a1 = float(lam2[0] * lam2[1]) / float(fp.q)
    a2 = float(lam2[2] * lam2[3]) / float(fp.q)
    kappa_exp = -Fraction(M1 * (M1 + 1), 4) - Fraction(M2 * (M2 + 1), 4) + Fraction(5, 2) * M1 * M2
    kexp2 = 2 * kappa_exp
    pref_sq = mpmath.mpf(a1) ** M1 * mpmath.mpf(a2) ** M2 * (1 / q) ** (
        mpmath.mpf(kexp2.numerator) / kexp2.denominator
    )
    return float(pref_sq)


@dataclass
class _WeightData:
    fp: FamilyParams
    D: IndexSet
    eta: Callable[[float], float]
    phi0_sq: Callable[[float], float]
    xi_den: FloatPoly
    scale: float
    squared_den: bool  # True: divide by xi_den(eta)^2; False: xi_den is already the shift product


def _weight_data(fp: FamilyParams, D: IndexSet, pair: Optional[MultiIndexedPair] = None) -> _WeightData:
    if pair is None:
        pair = build(fp, D, n_max=0)
    eta = _eta_of_x(fp)
    phi0_sq = _phi0_sq(twisted(fp, D.M1, D.M2))
    if fp.family in ("L", "J"):
        c_F = 2.0 if fp.family == "L" else -4.0
        return _WeightData(fp, D, eta, phi0_sq, FloatPoly.from_exact(pair.Xi), c_F ** (2 * D.M), True)
    # W/AW: denominator Xi(x - i gamma/2) Xi(x + i gamma/2) as an exact eta-poly
    xi_x = poly_to_x(fp, pair.Xi)
    half = Fraction(1, 2)
    prod = reduce_to_eta(fp, x_shift(fp, xi_x, -half) * x_shift(fp, xi_x, half))
    scale = _difference_prefactor_sq(fp, D) / float(pair.xi_radicand)
    return _WeightData(fp, D, eta, phi0_sq, FloatPoly.from_exact(prod), scale, False)


def _check_no_pole(wdata: _WeightData, a: float, b: float, samples: int = 2048):
    lo, hi = sorted((wdata.eta(a + 1e-9), wdata.eta(b - 1e-9)))
    vals = [wdata.xi_den(lo + (hi - lo) * i / (samples - 1)) for i in range(samples)]
    top = max(abs(v) for v in vals)
    if top == 0.0:
        raise PoleEncountered("denominator is identically zero on the interval")
    prev = vals[0]
    for v in vals[1:]:
        if v == 0.0 or (v < 0) != (prev < 0):
            raise PoleEncountered("denominator changes sign on the integration interval")
        prev = v
    if min(abs(v) for v in vals) < 1e-12 * top:
        raise PoleEncountered("denominator nearly vanishes on the integration interval")


def weight(fp: FamilyParams, D: IndexSet, x: float) -> float:
    """Psi_D(x)^2 at a single point; domain-checked."""
    a, b = _interval(fp)
    if fp.family in ("L", "W"):
        if x <= 0:
            raise ValueError(f"x = {x} outside the interval (0, infinity)")
    elif not a < x < b:
        raise ValueError(f"x = {x} outside the interval (0, {b})")
    wdata = _weight_data(fp, D)
    den = wdata.xi_den(wdata.eta(x))
    if den == 0.0:
        raise PoleEncountered(f"denominator vanishes at x = {x}")
    den = den * den if wdata.squared_den else den
    return wdata.scale * wdata.phi0_sq(x) / den


# -- expected norms ---------------------------------------------------------------


def _mpf(x) -> mpmath.mpf:
    f = Fraction(x)
    return mpmath.mpf(f.numerator) / f.denominator


def classical_norm(fp: FamilyParams, n: int) -> float:
    """h_n: the classical normalization constant, via mpmath."""
    with mpmath.workprec(_MP_PREC):
        if fp.family == "L":
            g = _mpf(fp.g)
            val = mpmath.gamma(n + g + mpmath.mpf(1) / 2) / (2 * mpmath.factorial(n))
        elif fp.family == "J":
            g, h = _mpf(fp.g), _mpf(fp.h)
            val = (
                mpmath.gamma(n + g + mpmath.mpf(1) / 2)
                * mpmath.gamma(n + h + mpmath.mpf(1) / 2)
                / (2 * mpmath.factorial(n) * (2 * n + g + h) * mpmath.gamma(n + g + h))
            )
        elif fp.family == "W":
            a = [_mpf(v) for v in fp.lam]
            b1 = sum(a)
            val = 2 * mpmath.pi * mpmath.factorial(n) * mpmath.rf(n + b1 - 1, n)
            for i in range(4):
                for j in range(i + 1, 4):
                    val *= mpmath.gamma(n + a[i] + a[j])
            val /= mpmath.gamma(2 * n + b1)
        else:
            q = _mpf(fp.q)
            a = [_mpf(v) for v in fp.lam]
            b4 = a[0] * a[1] * a[2] * a[3]
            val = 2 * mpmath.pi * _qpoch_fin(b4 * q ** (n - 1), q, n) * _qpoch_inf(b4 * q ** (2 * n), q)
            val /= _qpoch_inf(q ** (n + 1), q)
            for i in range(4):
                for j in range(i + 1, 4):
                    val /= _qpoch_inf(a[i] * a[j] * q**n, q)
        return float(val)


def expected_norm(fp: FamilyParams, D: IndexSet, n: int) -> float:
    """prod_j (E_n - Etilde_{d_j}) * h_n for the diagonal entry."""
    factor = Fraction(1)
    for e in D.entries:
        factor = factor * (energy(fp, n) - virtual_energy(fp, e))
    return float(factor) * classical_norm(fp, n)


# -- orthogonality ----------------------------------------------------------------


def _default_spec(fp: FamilyParams) -> QuadratureSpec:
    if fp.family in ("L", "W"):
        return QuadratureSpec(scheme="tanh-sinh", rtol=1e-12)
    return QuadratureSpec(scheme="gauss-legendre", nodes=64, rtol=1e-12)


def orthogonality_check(
    fp: FamilyParams,
    D: IndexSet,
    n: int,
    m: int,
    spec: Optional[QuadratureSpec] = None,
    pair: Optional[MultiIndexedPair] = None,
):
    """Quadrature of Psi_D^2 P_{D,n} P_{D,m} against the norm-product formula.

    Returns (integral, expected, rel_err); rel_err for off-diagonal entries
    is measured against the geometric mean of the two diagonal norms.
    """
    spec = spec or _default_spec(fp)
    if pair is None or pair.n_max < max(n, m):
        pair = build(fp, D, n_max=max(n, m))
    wdata = _weight_data(fp, D, pair)
    a, b = _interval(fp, cutoff=_cutoff(fp, D, n, m))
    _check_no_pole(wdata, a, b)
    pn = FloatPoly.from_exact(pair.P_of(n))
    pm = FloatPoly.from_exact(pair.P_of(m))
    # stored polynomials differ from verbatim ones by sqrt(p_radicand)
    scale = wdata.scale * float(pair.p_radicand)

    def f(x: float) -> float:
        e = wdata.eta(x)
        den = wdata.xi_den(e)
        den = den * den if wdata.squared_den else den
        return scale * wdata.phi0_sq(x) / den * pn(e) * pm(e)

    floor = abs(expected_norm(fp, D, max(n, m)))
    engine = integrate_ts if (spec.scheme == "tanh-sinh" or (spec.scheme == "auto" and fp.family in ("L", "W"))) else integrate_gl
    result = engine(f, a, b, spec, floor=floor)
    if n == m:
        expected = expected_norm(fp, D, n)
        rel = abs(result.value - expected) / abs(expected)
    else:
        expected = 0.0
        scale_ref = math.sqrt(abs(expected_norm(fp, D, n)) * abs(expected_norm(fp, D, m)))
        rel = abs(result.value) / scale_ref
    return result.value, expected, rel


def ortho_grid(
    fp: FamilyParams,
    D: IndexSet,
    n_max: int,
    spec: Optional[QuadratureSpec] = None,
):
    """All (n, m) with n <= m <= n_max; returns rows (n, m, integral, expected, rel_err)."""
    pair = build(fp, D, n_max=n_max)
    rows = []
    for n in range(n_max + 1):
        for m in range(n, n_max + 1):
            integral, expected, rel = orthogonality_check(fp, D, n, m, spec=spec, pair=pair)
            rows.append((n, m, integral, expected, rel))
    return rows


# Deformed W/AW quadrature is meaningful only where the deformation adds no
# discrete state: the continuous integral then accounts for the full norm.
# Each tuple below was checked against the product-formula norm to better
# than 1e-14 relative on the diagonal.  Outside such parameter ranges the
# check either trips PoleEncountered (denominator zero on the interval) or
# reports a genuine deficit equal to the missing bound-state mass.
DIFFERENCE_ORTHO_PRESETS = (
    ("W", (Fraction(5, 4), Fraction(13, 10), Fraction(6, 5), Fraction(7, 5)), None, "I1"),
    ("W", (Fraction(3, 4), Fraction(4, 5), Fraction(3, 2), Fraction(8, 5)), None, "II1"),
    ("W", (Fraction(7, 2), Fraction(13, 4), Fraction(6, 5), Fraction(7, 5)), None, "I1,I2"),
    ("AW", (Fraction(1, 20), Fraction(1, 12), Fraction(1, 3), Fraction(2, 5)), Fraction(1, 4), "I1"),
    ("AW", (Fraction(1, 3), Fraction(2, 5), Fraction(1, 20), Fraction(1, 12)), Fraction(1, 4), "II1"),
    ("AW", (Fraction(1, 20), Fraction(1, 12), Fraction(1, 18), Fraction(1, 10)), Fraction(1, 4), "I1,II1"),
)
