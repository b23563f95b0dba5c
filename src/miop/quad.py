"""Float backend: weights, quadrature, and orthogonality checks.

Everything upstream is exact; this module is the one place binary64
enters.  Exact polynomials are mirrored into FloatPoly (compensated
Horner evaluation), integrands are summed pairwise in a deterministic
order, and each expected norm is rounded to float once.  The three-term
recurrence fixes the classical norms up to one constant, A_n h_{n+1} =
C_{n+1} h_n, so h_n is h_0 (a Gamma or q-Pochhammer product, with mpmath
at 120 bits, once per parameter point) times the Fraction
prod_{k<n} C_{k+1} / A_k.  The weights phi_0^2 are binary64 kernels for
every family: W sums log |Gamma(a_j + ix)|^2 (a Stirling ratio to
Gamma(a_j)) and the closed form of 1/|Gamma(2ix)|^2, AW sums the logs of
the real q-product factors, and each exponentiates once.

Each quadrature level is one numpy array expression over its node set:
the weight array times the P_n and P_m arrays, summed by halving steps
that add in the order of the scalar pairwise sum.  eta = x^2, FloatPoly
and the sum use only +, - and *, which numpy rounds elementwise as
Python does.  phi_0^2 is one call per node set, on the abscissae not
seen before: its arithmetic runs elementwise in numpy, each
transcendental (log1p, log, atan2, expm1, exp, cos, sin) is a math call
per element, and each sum over parameters or factors is builtin sum per
node, so its bits are those of the per-node path (L and J call their
scalar kernel per abscissa, and eta = cos for J and AW is a math call per
abscissa too).  Every output bit is what the per-node scalar path gives.
An exact parameter, coefficient, radicand or norm factor, or a weight or
integrand value, that leaves binary64 range raises FloatRangeError.
mpmath serves h_0 (at 120 bits) and the AW alpha/kappa prefactor of
Psi_D^2 (at mpmath's default 53 bits), numpy the node tables and the
level sums of every grid.  Both are imported inside the functions that
use them, so importing this module (and with it miop.cli) loads neither:
the first `ortho` use pays for them, and `gen`, `rtable` and `verify`
never do.

The deformed weight is

    Psi_D(x)^2 = c_F^{2M} phi_0(x; lambda^[M_I,M_II])^2 / Xi_D(eta(x); lambda)^2

for L and J (c_F = 2 and -4).  For W and AW the same shape holds with
the alpha/kappa prefactor and the denominator Xi(x - i gamma/2) *
Xi(x + i gamma/2), which reduces exactly to a polynomial in eta before
being handed to the float side.  The orthogonality statement under test:

    integral Psi_D^2 P_{D,n} P_{D,m} dx
        = prod_j (E_n - Etilde_{d_j}) * h_n * delta_{nm}.

The family picks the rule: Gauss-Legendre for J and AW on their finite
periods (64, 128, ..., 8192 nodes), tanh-sinh for L and W on (0, cutoff)
(step 1/2, 1/4, ..., 1/256).  A result is accepted once a level moves it
by less than QuadratureSpec.rtol, and NonConvergent is raised otherwise.

A grid builds one pair, checks exactly that the energy factor
prod_j (E_n - Etilde_{d_j}) is positive for every n it covers (else
ConfigurationError: the norm formula has no positive norm to check), for
L and J that the twisted end exponents g' (and h') lie above -1/2 (else
Psi_D^2 diverges non-integrably at an end of the interval), and
builds one Weight: Psi_D^2 is derived once, and a Sturm count on the
exact denominator (a chain of Poly remainders, evaluated exactly)
refuses (PoleEncountered) any zero on the family's closed eta-domain,
[0, inf) for L/W and [-1, 1] for J/AW, so no entry meets a pole whatever
its interval.  Every (n, m) entry integrates
against that weight.  The Weight evaluates phi_0^2 once per distinct
abscissa, keeps one record per node set (the weight, eta and each P_n
asked for there) and computes each expected norm once per n, so entries
sharing an interval, tanh-sinh levels (each contains the nodes of the
one before) and repeated checks on one Weight reuse the values; the node
tables are built once per process.  An entry asks for an expected norm,
the floor of its acceptance test, only when it first compares two
levels, so a grid whose first node set leaves binary64 range computes
none, and no h_0.  The integrand's operation order, and so every output
bit, is what a fresh evaluation gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable

from .errors import ConfigurationError, FloatRangeError, NonConvergent, PoleEncountered
from .exact import Poly, Scalar, format_scalar, scalar_sign
from .families import (
    FamilyParams,
    energy,
    reduce_to_eta,
    three_term,
    twisted,
    virtual_energy,
    x_shift,
)
from .multiindex import IndexSet, MultiIndexedPair, build

_MP_PREC = 120


# -- compensated float evaluation ------------------------------------------------

_SPLITTER = 134217729.0  # 2^27 + 1


def _binary64(x, what: str) -> float:
    """float(x) of an exact scalar, or FloatRangeError naming what, never x's digits."""
    try:
        return float(x)
    except OverflowError:
        raise FloatRangeError(f"{what} leaves binary64 range") from None


class FloatPoly:
    """binary64 mirror of an exact Poly with compensated Horner evaluation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [_binary64(c, "a polynomial coefficient") for c in coeffs]

    @classmethod
    def from_exact(cls, p: Poly) -> "FloatPoly":
        return cls(p.coeffs if p.coeffs else [0.0])

    def __call__(self, x: float) -> float:
        # Horner's rule that carries each step's rounding errors in e: the
        # product's by Dekker's split of s and x into 26-bit halves, the sum's
        # by Knuth's two-sum
        cs = self.coeffs
        s = cs[-1]
        e = 0.0
        t = _SPLITTER * x
        xh = t - (t - x)
        xl = x - xh
        for c in reversed(cs[:-1]):
            p = s * x
            t = _SPLITTER * s
            sh = t - (t - s)
            sl = s - sh
            pe = ((sh * xh - p) + sh * xl + sl * xh) + sl * xl
            s = p + c
            bb = s - p
            e = e * x + (pe + ((p - (s - bb)) + (c - bb)))
        return s + e


def pairwise_sum(values) -> float:
    """Deterministic pairwise summation (reproducible across runs).

    Each halving step adds neighbours, v0 + v1, v2 + v3, ..., as one array
    operation.  An odd step writes its sums into an array one slot longer
    and carries its last element into that slot, to the next step.
    """
    import numpy as np

    vals = np.asarray(values, dtype=float)
    if not vals.size:
        return 0.0
    while vals.size > 1:
        if vals.size % 2:
            nxt = np.empty(vals.size // 2 + 1)
            np.add(vals[:-1:2], vals[1::2], out=nxt[:-1])
            nxt[-1] = vals[-1]
            vals = nxt
        else:
            vals = vals[::2] + vals[1::2]
    return float(vals[0])


# -- quadrature engines -----------------------------------------------------------


# Levels of the node-doubling loop: Gauss-Legendre doubles its order from
# 64 to 8192 nodes, tanh-sinh halves its step from h = 1/2 to 1/256.
MAX_LEVELS = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Acceptance contract for the node-doubling loop: its relative tolerance."""

    rtol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.rtol < math.inf:
            raise ConfigurationError(f"quadrature needs a finite rtol > 0, got {self.rtol}")


@dataclass
class QuadResult:
    value: float
    err_estimate: float


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple:
    """Gauss-Legendre nodes and weights (xs, ws) on (-1, 1) of order n, as arrays."""
    import numpy as np

    return np.polynomial.legendre.leggauss(n)


def _integrate(nodes_at: Callable[[int], tuple], f, a: float, b: float, spec: QuadratureSpec,
               floor: Callable[[], float], rule: str) -> QuadResult:
    """Node-doubling loop shared by both rules; nodes_at(level) gives the (xs, ws) arrays on (-1, 1).

    f maps an array of abscissae to an array of values.  A level whose sum
    is not finite raises FloatRangeError; numpy's floating-point warnings
    are off, since that check reports every overflow.  Two levels agree
    when they differ by at most rtol * max(|cur|, floor()); floor is first
    called at the first comparison, so a first level that fails never
    computes it.
    """
    import numpy as np

    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    prev = None
    with np.errstate(all="ignore"):
        for level in range(MAX_LEVELS):
            xs, ws = nodes_at(level)
            x = mid + half * xs
            terms = ws * f(x)
            cur = half * pairwise_sum(terms)
            if not math.isfinite(cur):
                bad = x[~np.isfinite(terms)].tolist()
                where = f"at x = {bad[0]!r}" if bad else "in its sum"
                raise FloatRangeError(f"{rule} integrand leaves binary64 range {where}")
            if prev is not None and abs(cur - prev) <= spec.rtol * max(abs(cur), floor()):
                return QuadResult(cur, abs(cur - prev))
            prev = cur
    raise NonConvergent(f"{rule} did not settle below rtol={spec.rtol} in {MAX_LEVELS} levels")


def integrate_gl(f: Callable, a: float, b: float, spec: QuadratureSpec,
                 floor: Callable[[], float] = lambda: 0.0) -> QuadResult:
    """Gauss-Legendre from 64 nodes, doubling the order at each level."""
    return _integrate(lambda level: _leggauss(64 << level), f, a, b, spec, floor, "Gauss-Legendre")


@lru_cache(maxsize=32)
def _ts_nodes(h: float, t_max: float) -> tuple:
    """tanh-sinh nodes and weights (xs, ws) on (-1, 1) at step h, as arrays."""
    import numpy as np

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
    return tuple(np.array(col) for col in zip(*out))


def integrate_ts(f: Callable, a: float, b: float, spec: QuadratureSpec,
                 floor: Callable[[], float] = lambda: 0.0) -> QuadResult:
    """tanh-sinh from step h = 1/2, halving h at each level."""
    return _integrate(lambda level: _ts_nodes(0.5 / 2**level, t_max=4.2),
                      f, a, b, spec, floor, "tanh-sinh")


# -- weights ----------------------------------------------------------------------


def _interval(fp: FamilyParams, D: IndexSet, n: int, m: int) -> tuple:
    """Integration interval of entry (n, m).

    J and AW integrate over a fixed period.  L and W are cut where the
    integrand tail falls below 1e-24 of scale, so their cutoff grows with
    n + m (L) and with max(n, m) (W).
    """
    if fp.family == "J":
        return (0.0, math.pi / 2.0)
    if fp.family == "AW":
        return (0.0, math.pi)
    if fp.family == "L":
        # integrand ~ x^K e^{-x^2}, K = 2g + 2(n+m)
        K = 2.0 * _binary64(fp.g, "the parameter g") + 2.0 * (n + m) + 4.0
        x = 6.0
        while x * x - K * math.log(x) < 60.0:
            x += 1.0
        return (0.0, x)
    # |Gamma(a+ix)|^2-type weights decay like e^{-2 pi x} x^K
    K = 2.0 * _binary64(fp.b1, "the parameter sum b1") + 4.0 * (D.ell + max(n, m)) + 4.0
    x = 10.0
    while 2.0 * math.pi * x - K * math.log(x) < 60.0:
        x += 2.0
    return (0.0, x)


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
# the series runs at Re z >= 16, where its ninth term is below 1e-21
_STIRLING_SHIFT = 16.0


def _mapped(f, *arrays):
    """f, a math function, called on each element of the broadcast arrays, as an array."""
    import numpy as np

    args = np.broadcast_arrays(*arrays)
    values = list(map(f, *(a.ravel().tolist() for a in args)))
    return np.array(values, dtype=float).reshape(args[0].shape)


# eta(x) on an array of abscissae: x^2 rounds the same elementwise, cos is a math call per element
_ETA = {"L": lambda x: x * x, "J": lambda x: _mapped(math.cos, 2.0 * x),
        "W": lambda x: x * x, "AW": lambda x: _mapped(math.cos, x)}


def _each(f, args: list, xs: list, family: str) -> list:
    """[f(a) for a in args]; an OverflowError names xs[i] for the first args[i] that overflows."""
    out = []
    try:
        for a in args:
            out.append(f(a))
    except OverflowError:
        raise FloatRangeError(f"phi_0^2 of the {family} weight leaves binary64 range "
                              f"at x = {xs[len(out)]!r}") from None
    return out


def _stirling_tail(u, x):
    """Re sum_k c_k z^(1-2k) at z = u + ix (arrays, u >= 16, x >= 0): log Gamma(z)
    less (z - 1/2) log z - z + log(2 pi)/2.

    Real arrays that round as CPython's complex arithmetic does, operation by
    operation: 1/z by Smith's quotient, then Horner's rule in 1/z^2 by the
    complex product, a float coefficient c entering as c + 0i.
    """
    import numpy as np

    big = u >= x
    ratio = np.minimum(u, x) / np.maximum(u, x)  # x/u where u >= x, else u/x
    den = np.where(big, u + x * ratio, u * ratio + x)
    inv_re = np.where(big, 1.0, ratio) / den
    inv_im = np.where(big, 0.0 - ratio, -1.0) / den
    inv2_re = inv_re * inv_re - inv_im * inv_im
    inv2_im = inv_re * inv_im + inv_im * inv_re
    s_re, s_im = _STIRLING[-1], 0.0
    for c in reversed(_STIRLING[:-1]):
        s_re, s_im = c + (inv2_re * s_re - inv2_im * s_im), inv2_re * s_im + inv2_im * s_re
    return inv_re * s_re - inv_im * s_im


def _log_gamma_sq(avals) -> Callable:
    """xs -> log |Gamma(a_j + ix)|^2 for each a_j (rows) and x > 0 (columns), in binary64.

    log Gamma(a)^2 plus the log of the ratio |Gamma(a + ix)|^2 / Gamma(a)^2:
    shift to u = a + N >= 16 and divide by prod_{k<N} (1 + (x / (a + k))^2);
    for the shifted ratio the large Stirling terms cancel inside log1p and
    atan2, never after an exp.  At a = -m (m = 0, 1, ...) Gamma(a) has a pole
    but |Gamma(a + ix)|^2 does not: the factor k = m is x^2 and the others
    leave 1/m!^2 in place of Gamma(a)^2.  Every a_j is a row of one array
    pass; a row with fewer shifts is padded with s = inf, whose factor
    1 + x^2/inf is exactly 1.
    """
    import numpy as np

    us, log_gamma_a_sq, shifts, poles = [], [], [], []
    for a in avals:
        n = max(0, math.ceil(_STIRLING_SHIFT - a))
        us.append(a + n)
        shifts.append([(a + k) ** 2 for k in range(n) if a + k != 0])
        poles.append(len(shifts[-1]) < n)
        log_gamma_a_sq.append(-2.0 * math.lgamma(1.0 - a) if poles[-1] else 2.0 * math.lgamma(a))
    width = max(map(len, shifts))
    u = np.array(us)[:, None]
    log_gamma_a_sq = np.array(log_gamma_a_sq)[:, None]
    shifts = np.array([s + [math.inf] * (width - len(s)) for s in shifts])
    poles = np.array(poles)[:, None]
    tail_u = _stirling_tail(u, 0.0)

    def log_gamma_sq(xs):
        x = np.asarray(xs, dtype=float)
        x2 = x * x
        prod = np.ones((len(us), x.size))
        for k in range(width):
            prod = prod * (1.0 + x2 / shifts[:, k:k + 1])
        out = (log_gamma_a_sq + (u - 0.5) * _mapped(math.log1p, x2 / (u * u))
               - 2.0 * x * _mapped(math.atan2, x, u)
               + 2.0 * (_stirling_tail(u, x) - tail_u)
               - _mapped(math.log, prod))
        return np.where(poles, out - 2.0 * _mapped(math.log, x), out)

    return log_gamma_sq


def _log_qpoch_abs_sq(t: float, q: float) -> Callable:
    """thetas -> log |(t e^(i theta); q)_inf|^2 for real t, in binary64, as an array.

    Factor k is |1 - r e^(i theta)|^2 with r = t q^k, and the product stops
    at the first |r| <= 10^-30, the cut of _qpoch_inf.  A factor with
    |r| < 1/2 is 1 + r (r - 2 cos theta) >= 1/4, and log1p keeps the bits
    that rounding it near 1 would lose; these form one (N x K) matrix,
    summed per theta.  One with |r| >= 1/2 is (1 - |r|)^2 + 4 |r| s^2, with
    s = sin(theta/2) for r > 0 and cos(theta/2) for r < 0, so no term
    cancels; each is added in turn.
    """
    import numpy as np

    small, large = [], []
    r = t
    while abs(r) > 1e-30:
        (small if abs(r) < 0.5 else large).append(r)
        r *= q
    small = np.array(small)
    large = [((1.0 - abs(r)) ** 2, 4.0 * abs(r), r > 0) for r in large]

    def log_abs_sq(theta):
        c = _mapped(math.cos, theta)
        factors = (small * (small - 2.0 * c[:, None])).tolist()
        out = np.array([sum(map(math.log1p, row)) for row in factors], dtype=float)
        for one_less_r_sq, four_r, positive in large:
            s = _mapped(math.sin if positive else math.cos, 0.5 * theta)
            out = out + _mapped(math.log, one_less_r_sq + four_r * s * s)
        return out

    return log_abs_sq


def _phi0_sq(fp: FamilyParams) -> Callable[[list], list]:
    """phi_0(x; lambda)^2 in binary64, from a list of abscissae to the list of their values.

    L and J call their scalar kernel on each abscissa, W and AW evaluate the
    list as arrays with the bits of a per-node evaluation.  A value that
    leaves binary64 range raises FloatRangeError naming the first such
    abscissa.
    """
    if fp.family == "L":
        g2 = 2.0 * _binary64(fp.g, "the parameter g")

        def l_weight(x: float) -> float:
            try:
                return math.exp(-x * x) * x ** g2
            except OverflowError:  # x ** 2g alone leaves range: one exp of the summed logs
                return math.exp(g2 * math.log(x) - x * x)
        return lambda xs: _each(l_weight, xs, xs, "L")
    if fp.family == "J":
        g2, h2 = 2.0 * _binary64(fp.g, "the parameter g"), 2.0 * _binary64(fp.h, "the parameter h")
        return lambda xs: _each(lambda x: math.sin(x) ** g2 * math.cos(x) ** h2, xs, xs, "J")
    import numpy as np

    if fp.family == "W":
        log_gamma_sq = _log_gamma_sq([_binary64(a, "a parameter a_j") for a in fp.lam])

        def w_weight(xs: list) -> list:
            # the closed end x = 0 of (0, cutoff): 1/|Gamma(2ix)|^2 vanishes like 4x^2
            pos = [x for x in xs if x != 0.0]
            x = np.array(pos, dtype=float)
            # prod_j |Gamma(a_j + ix)|^2 times 1/|Gamma(2ix)|^2 = 2x sinh(2 pi x)/pi,
            # summed as logs and exponentiated once
            logs = (_mapped(math.log, x / math.pi) + 2.0 * math.pi * x
                    + _mapped(math.log, -_mapped(math.expm1, -4.0 * math.pi * x))
                    + np.array(list(map(sum, log_gamma_sq(x).T.tolist())), dtype=float))
            vals = iter(_each(math.exp, logs.tolist(), pos, "W"))
            return [0.0 if x == 0.0 else next(vals) for x in xs]

        return w_weight
    # |(e^{2ix}; q)_inf|^2 / prod_j |(a_j e^{ix}; q)_inf|^2; float() also reads
    # the SqrtQRational parameters a twist by sqrt(q) leaves
    q = _binary64(fp.q, "the parameter q")
    num = _log_qpoch_abs_sq(1.0, q)
    dens = [_log_qpoch_abs_sq(_binary64(a, "a parameter a_j"), q) for a in fp.lam]

    def aw_weight(xs: list) -> list:
        x = np.array(xs, dtype=float)
        den_logs = list(map(sum, zip(*(f(x).tolist() for f in dens))))
        return _each(math.exp, (num(2.0 * x) - np.array(den_logs, dtype=float)).tolist(), xs, "AW")

    return aw_weight


def _qpoch_inf(u, q):
    """(u; q)_infinity, truncated at the first factor with |u q^k| <= 10^-30.

    The cut is fixed at any working precision.  It is computed once per
    call, at the caller's precision (_h0 runs under workprec(120)).
    """
    import mpmath

    tol = mpmath.mpf(10) ** (-_MP_PREC // 4)
    out = mpmath.mpf(1)
    t = u
    while abs(t) > tol:
        out *= 1 - t
        t *= q
    return out


def _difference_prefactor_sq(fp: FamilyParams, D: IndexSet) -> float:
    """Square of the alpha/kappa prefactor of Psi_D (1 for W)."""
    if fp.family == "W":
        return 1.0
    import mpmath

    M1, M2 = D.M1, D.M2
    lam2 = twisted(fp, M1, M2).lam
    q = mpmath.mpf(fp.q.numerator) / fp.q.denominator
    # pairwise products collapse the half-integer q-powers of the twist
    a1 = _binary64(lam2[0] * lam2[1], "a parameter product") / _binary64(fp.q, "the parameter q")
    a2 = _binary64(lam2[2] * lam2[3], "a parameter product") / _binary64(fp.q, "the parameter q")
    kappa_exp = -Fraction(M1 * (M1 + 1), 4) - Fraction(M2 * (M2 + 1), 4) + Fraction(5, 2) * M1 * M2
    kexp2 = 2 * kappa_exp
    pref_sq = mpmath.mpf(a1) ** M1 * mpmath.mpf(a2) ** M2 * (1 / q) ** (
        mpmath.mpf(kexp2.numerator) / kexp2.denominator
    )
    return float(pref_sq)


class Weight:
    """Psi_D(x)^2 of one pair: derived and cleared of poles once.

    Holds the pair, eta(x), phi_0^2 at the twisted point, the float
    denominator (Xi_D for L/J, squared at use; the shift product
    Xi(x - i gamma/2) Xi(x + i gamma/2) for W/AW), the scale and a
    FloatPoly of each P_{D,n} the pair holds.  Before
    any node is evaluated, a Sturm count on the exact denominator refuses
    a zero anywhere on the family's closed eta-domain, so no entry of any
    width meets a pole.  Values are kept for the life of the Weight: phi_0^2
    per abscissa, one record per node set (an array of abscissae) holding
    the weight, eta and each P_n asked for there, and each expected norm.
    """

    def __init__(self, pair: MultiIndexedPair):
        fp, D = pair.fp, pair.D
        self.pair = pair
        self.eta = _ETA[fp.family]
        self.phi0_sq = _phi0_sq(twisted(fp, D.M1, D.M2))
        self.squared_den = fp.family in ("L", "J")
        den = _denominator(pair)
        self.xi_den = FloatPoly.from_exact(den)
        if self.squared_den:
            c_F = 2.0 if fp.family == "L" else -4.0
            self.scale = c_F ** (2 * D.M)
        else:
            self.scale = _difference_prefactor_sq(fp, D) / _binary64(pair.xi_radicand, "the Xi radicand")
        _check_no_pole(self, den)
        # stored polynomials differ from verbatim ones by sqrt(p_radicand)
        self._integrand_scale = self.scale * _binary64(pair.p_radicand, "the P radicand")
        self._phi0 = {}  # x -> phi_0^2(x)
        self._sets = {}  # node-set bytes -> (weight(xs), eta(xs), {n: P_{D,n}(eta(xs))})
        self._polys = [FloatPoly.from_exact(pair.P_of(n)) for n in range(pair.n_max + 1)]
        self._norms = {}  # n -> expected_norm(fp, D, n)

    def den(self, e):
        """The denominator of Psi_D^2 at eta = e (a float or an array)."""
        d = self.xi_den(e)
        return d * d if self.squared_den else d

    def _node_set(self, xs) -> tuple:
        """(weight(xs), eta(xs), {n: P_{D,n}(eta(xs))}) of an array of abscissae, once per node set.

        phi_0^2 runs once, as one call, on the abscissae the Weight has not seen.
        """
        key = xs.tobytes()
        got = self._sets.get(key)
        if got is None:
            import numpy as np

            vals = xs.tolist()
            phi0 = self._phi0
            new = [x for x in dict.fromkeys(vals) if x not in phi0]
            if new:
                phi0.update(zip(new, self.phi0_sq(new)))
            eta = self.eta(xs)
            w = self._integrand_scale * np.array(list(map(phi0.__getitem__, vals))) / self.den(eta)
            bad = np.flatnonzero(~np.isfinite(w))
            if bad.size:
                raise FloatRangeError(f"the {self.pair.fp.family} weight is not finite "
                                      f"at x = {vals[bad[0]]!r}")
            got = self._sets[key] = (w, eta, {})
        return got

    def integrand(self, n: int, m: int) -> Callable:
        """xs -> p_radicand Psi_D^2 P_{D,n} P_{D,m} on an array of abscissae."""
        def f(xs):
            w, eta, p = self._node_set(xs)
            for k in (n, m):
                if k not in p:
                    p[k] = self._polys[k](eta)
            return (w * p[n]) * p[m]

        return f

    def norm(self, n: int) -> float:
        """The expected norm of entry (n, n), computed once per n."""
        h = self._norms.get(n)
        if h is None:
            h = self._norms[n] = expected_norm(self.pair.fp, self.pair.D, n)
        return h


def _denominator(pair: MultiIndexedPair) -> Poly:
    """The exact eta-polynomial whose zeros are the poles of Psi_D^2.

    Xi_D for L/J; for W/AW the shift product Xi(x - i gamma/2) Xi(x + i gamma/2),
    reduced exactly to eta.
    """
    fp = pair.fp
    if fp.family in ("L", "J"):
        return pair.Xi
    half = Fraction(1, 2)
    return reduce_to_eta(fp, x_shift(fp, pair.Xi, -half) * x_shift(fp, pair.Xi, half))


# -- pole exclusion ---------------------------------------------------------------

# the open eta-domain of each family, (lo, hi) with hi = None for +infinity:
# eta = x^2 on x > 0 (L, W), cos 2x on (0, pi/2) (J), cos x on (0, pi) (AW)
_ETA_DOMAIN = {"L": (0, None), "W": (0, None), "J": (-1, 1), "AW": (-1, 1)}


def _sturm_count(p: Poly, lo, hi) -> int:
    """Distinct real roots of p on (lo, hi), hi = None for +infinity.

    p is a nonzero real Poly over Q or Q(sqrt q), with p(lo) and p(hi)
    nonzero.  The Sturm chain p, p', -(p % p'), ... is built by the ring
    core's exact division, and the count is the drop in sign variations
    from lo to hi (Sturm's theorem; Basu, Pollack & Roy, Algorithms in Real
    Algebraic Geometry, ch. 2).
    """
    chain = [p]
    nxt = p.derivative()
    while nxt:
        chain.append(nxt)
        nxt = -(chain[-2] % nxt)

    def variations(values) -> int:
        signs = [s for s in map(scalar_sign, values) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_hi = [q.lc for q in chain] if hi is None else [q(hi) for q in chain]
    return variations(q(lo) for q in chain) - variations(at_hi)


def _check_no_pole(weight: Weight, den: Poly):
    """Refuse a weight whose exact denominator den vanishes on the family's closed eta-domain."""
    if den.is_zero:
        raise PoleEncountered("denominator is identically zero")
    lo, hi = _ETA_DOMAIN[weight.pair.fp.family]
    for end in (lo, hi):
        if end is not None and not den(end):
            raise PoleEncountered(f"denominator vanishes at the end eta = {end} of its domain")
    roots = _sturm_count(den, lo, hi)
    if roots:
        domain = f"({lo}, {'inf' if hi is None else hi})"
        raise PoleEncountered(f"denominator has {roots} real zero(s) on eta in {domain}")


# -- expected norms ---------------------------------------------------------------


def _mpf(x):
    import mpmath

    f = Fraction(x)
    return mpmath.mpf(f.numerator) / f.denominator


@lru_cache(maxsize=32)
def _h0(fp: FamilyParams):
    """h_0 of the classical family at fp, an mpf at 120 bits: the one
    transcendental factor of every h_n."""
    import mpmath

    with mpmath.workprec(_MP_PREC):
        if fp.family == "L":
            return mpmath.gamma(_mpf(fp.g) + 0.5) / 2
        if fp.family == "J":
            g, h = _mpf(fp.g), _mpf(fp.h)
            return mpmath.gamma(g + 0.5) * mpmath.gamma(h + 0.5) / (2 * mpmath.gamma(g + h + 1))
        a = [_mpf(v) for v in fp.lam]
        if fp.family == "W":
            pairs = mpmath.fprod(mpmath.gamma(x + y) for x, y in combinations(a, 2))
            return 2 * mpmath.pi * pairs / mpmath.gamma(sum(a))
        q = _mpf(fp.q)
        pairs = mpmath.fprod(_qpoch_inf(x * y, q) for x, y in combinations(a, 2))
        return 2 * mpmath.pi * _qpoch_inf(mpmath.fprod(a), q) / (_qpoch_inf(q, q) * pairs)


def classical_norm(fp: FamilyParams, n: int) -> float:
    """h_n = h_0 prod_{k<n} C_{k+1} / A_k (as A_k h_{k+1} = C_{k+1} h_k), rounded once to binary64."""
    import mpmath

    ratio = math.prod(three_term(fp, k + 1)[2] / three_term(fp, k)[0] for k in range(n))
    with mpmath.workprec(_MP_PREC):
        return float(_h0(fp) * _mpf(ratio))


def _energy_factor(fp: FamilyParams, D: IndexSet, n: int) -> Scalar:
    """prod_j (E_n - Etilde_{d_j}), exactly."""
    factor = Fraction(1)
    for e in D.entries:
        factor = factor * (energy(fp, n) - virtual_energy(fp, e))
    return factor


def expected_norm(fp: FamilyParams, D: IndexSet, n: int) -> float:
    """prod_j (E_n - Etilde_{d_j}) * h_n for the diagonal entry."""
    return _binary64(_energy_factor(fp, D, n), "the norm factor") * classical_norm(fp, n)


# -- orthogonality ----------------------------------------------------------------


def orthogonality_check(weight: Weight, n: int, m: int, spec: QuadratureSpec = QuadratureSpec()):
    """Quadrature of Psi_D^2 P_{D,n} P_{D,m} against the norm-product formula.

    Returns (integral, expected, rel_err); rel_err for off-diagonal entries
    is measured against the geometric mean of the two diagonal norms.  J and
    AW use Gauss-Legendre, L and W tanh-sinh.
    """
    pair = weight.pair
    fp, D = pair.fp, pair.D
    a, b = _interval(fp, D, n, m)
    integrate = integrate_ts if fp.family in ("L", "W") else integrate_gl
    # the floor is the larger index's norm, asked for only once two levels compare
    result = integrate(weight.integrand(n, m), a, b, spec,
                       floor=lambda: abs(weight.norm(max(n, m))))
    norm_n, norm_m = weight.norm(n), weight.norm(m)
    if n == m:
        return result.value, norm_n, abs(result.value - norm_n) / abs(norm_n)
    return result.value, 0.0, abs(result.value) / _geometric_mean(norm_n, norm_m)


def _geometric_mean(h_n: float, h_m: float) -> float:
    """sqrt(|h_n| |h_m|), from the two roots where the product leaves binary64 range."""
    prod = abs(h_n) * abs(h_m)
    if 0.0 < prod < math.inf:
        return math.sqrt(prod)
    return math.sqrt(abs(h_n)) * math.sqrt(abs(h_m))


def ortho_grid(fp: FamilyParams, D: IndexSet, n_max: int, spec: QuadratureSpec = QuadratureSpec()):
    """All (n, m) with n <= m <= n_max over one pair and one weight.

    Returns rows (n, m, integral, expected, rel_err).  A deformation whose
    energy factor prod_j (E_n - Etilde_{d_j}) is not positive at some
    n <= n_max, or for L/J one whose twisted end exponent g' (or h') is at
    most -1/2, raises ConfigurationError before the weight is built.
    """
    pair = build(fp, D, n_max=n_max)
    for n in range(n_max + 1):
        factor = _energy_factor(fp, D, n)
        if scalar_sign(factor) <= 0:
            raise ConfigurationError(
                f"D={{{D.label()}}} is not admissible at n = {n}: the energy factor "
                f"prod_j (E_n - Etilde_d_j) = {format_scalar(factor)} is not positive, "
                f"so the norm formula has no positive norm to check")
    if not fp.is_difference:
        for name, x in zip(("g", "h"), twisted(fp, D.M1, D.M2).lam):
            if x <= Fraction(-1, 2):
                raise ConfigurationError(
                    f"D={{{D.label()}}} is not admissible: the twisted exponent {name}' = "
                    f"{format_scalar(x)} is not above -1/2, so Psi_D^2 is not integrable at its end")
    weight = Weight(pair)
    return [
        (n, m, *orthogonality_check(weight, n, m, spec))
        for n in range(n_max + 1)
        for m in range(n, n_max + 1)
    ]
