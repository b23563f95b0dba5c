"""Float backend: weights, quadrature, and orthogonality checks.

Everything upstream is exact; this module is the one place binary64
enters.  Exact polynomials are mirrored into FloatPoly (compensated
Horner evaluation), integrands are summed pairwise in a deterministic
order, and expected norms are computed with mpmath at high working
precision before the final rounding to float.  The weights phi_0^2 are
binary64 kernels for every family: W sums log |Gamma(a_j + ix)|^2 (a
Stirling ratio to Gamma(a_j)) and the closed form of 1/|Gamma(2ix)|^2, AW
sums the logs of the real q-product factors, and each exponentiates once.

Each quadrature level is one numpy array expression over its node set:
the weight array times the P_n and P_m arrays, summed by halving steps
that add in the order of the scalar pairwise sum.  eta = x^2, FloatPoly
and the sum use only +, - and *, which numpy rounds elementwise as
Python does; phi_0^2 (lgamma, log1p, exp) and eta = cos (J, AW) stay
scalar libm calls per abscissa, so every output bit is what the per-node
scalar path gives.  A weight or integrand value that leaves binary64
range raises FloatRangeError.  mpmath serves only the norms, numpy the
node tables and the level sums of every grid.  Both are imported inside
the functions that use them, so importing this module (and with it
miop.cli) loads neither: the first `ortho` use pays for them, and `gen`,
`rtable` and `verify` never do.

The deformed weight is

    Psi_D(x)^2 = c_F^{2M} phi_0(x; lambda^[M_I,M_II])^2 / Xi_D(eta(x); lambda)^2

for L and J (c_F = 2 and -4).  For W and AW the same shape holds with
the alpha/kappa prefactor and the denominator Xi(x - i gamma/2) *
Xi(x + i gamma/2), which reduces exactly to a polynomial in eta before
being handed to the float side.  The orthogonality statement under test:

    integral Psi_D^2 P_{D,n} P_{D,m} dx
        = prod_j (E_n - Etilde_{d_j}) * h_n * delta_{nm}.

The family picks the rule: Gauss-Legendre for J and AW on their finite
periods, tanh-sinh for L and W on (0, cutoff).  Both share one
node-doubling acceptance contract (QuadratureSpec: rtol and the starting
Gauss-Legendre order): the result is accepted once doubling moves it by
less than the target tolerance, and NonConvergent is raised otherwise.

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
abscissa, the weight once per node set, each P_n once per (n, node set)
and each expected norm once per n, so entries sharing an interval,
tanh-sinh levels (each contains the nodes of the one before) and repeated
checks on one Weight reuse the values; the node tables are built once per
process.  An entry asks for an expected norm, the floor of its acceptance
test, only when it first compares two levels, so a grid whose first node
set leaves binary64 range computes none.  The integrand's operation order,
and so every output bit, is what a fresh evaluation gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import ConfigurationError, FloatRangeError, NonConvergent, PoleEncountered
from .exact import Poly, Scalar, format_scalar, scalar_sign
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


class FloatPoly:
    """binary64 mirror of an exact Poly with compensated Horner evaluation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]

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
    operation and carries an odd last element to the next step.
    """
    import numpy as np

    vals = np.asarray(values, dtype=float)
    if not vals.size:
        return 0.0
    while vals.size > 1:
        nxt = vals[:-1:2] + vals[1::2]
        vals = np.append(nxt, vals[-1]) if vals.size % 2 else nxt
    return float(vals[0])


# -- quadrature engines -----------------------------------------------------------


# The largest Gauss-Legendre order built (the default contract's last level);
# numpy's eigensolve for the nodes costs the cube of the order.
MAX_NODES = 8192


@dataclass(frozen=True)
class QuadratureSpec:
    """Acceptance contract for the node-doubling loop.

    nodes is the starting Gauss-Legendre order, at most MAX_NODES; tanh-sinh
    always starts at step h = 1/2 and does not read it.
    """

    nodes: int = 64
    rtol: float = 1e-12
    max_levels: int = 8

    def __post_init__(self):
        if not 1 <= self.nodes <= MAX_NODES:
            raise ConfigurationError(f"quadrature needs 1 <= nodes <= {MAX_NODES}, got {self.nodes}")
        if not 0 < self.rtol < math.inf:
            raise ConfigurationError(f"quadrature needs a finite rtol > 0, got {self.rtol}")
        if self.max_levels < 1:
            raise ConfigurationError(f"quadrature needs max_levels >= 1, got {self.max_levels}")


@dataclass
class QuadResult:
    value: float
    err_estimate: float
    nodes: int


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
        for level in range(spec.max_levels):
            xs, ws = nodes_at(level)
            x = mid + half * xs
            terms = ws * f(x)
            cur = half * pairwise_sum(terms)
            if not math.isfinite(cur):
                bad = x[~np.isfinite(terms)].tolist()
                where = f"at x = {bad[0]!r}" if bad else "in its sum"
                raise FloatRangeError(f"{rule} integrand leaves binary64 range {where}")
            if prev is not None and abs(cur - prev) <= spec.rtol * max(abs(cur), floor()):
                return QuadResult(cur, abs(cur - prev), xs.size)
            prev = cur
    raise NonConvergent(f"{rule} did not settle below rtol={spec.rtol} in {spec.max_levels} levels")


def integrate_gl(f: Callable, a: float, b: float, spec: QuadratureSpec,
                 floor: Callable[[], float] = lambda: 0.0) -> QuadResult:
    """Gauss-Legendre from spec.nodes nodes, doubling the order at each level
    up to MAX_NODES."""
    def nodes_at(level: int) -> tuple:
        # no first level is built without room for a second to compare it with
        if spec.nodes << max(level, 1) > MAX_NODES:
            raise NonConvergent(f"Gauss-Legendre did not settle below rtol={spec.rtol} by order {MAX_NODES}")
        return _leggauss(spec.nodes << level)

    return _integrate(nodes_at, f, a, b, spec, floor, "Gauss-Legendre")


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


def _eta_of_x(fp: FamilyParams) -> Callable[[float], float]:
    return {
        "L": lambda x: x * x,
        "J": lambda x: math.cos(2.0 * x),
        "W": lambda x: x * x,
        "AW": math.cos,
    }[fp.family]


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
        K = 2.0 * float(fp.g) + 2.0 * (n + m) + 4.0
        x = 6.0
        while x * x - K * math.log(x) < 60.0:
            x += 1.0
        return (0.0, x)
    # |Gamma(a+ix)|^2-type weights decay like e^{-2 pi x} x^K
    K = 2.0 * float(fp.b1) + 4.0 * (D.ell + max(n, m)) + 4.0
    x = 10.0
    while 2.0 * math.pi * x - K * math.log(x) < 60.0:
        x += 2.0
    return (0.0, x)


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
# the series runs at Re z >= 16, where its ninth term is below 1e-21
_STIRLING_SHIFT = 16.0


def _stirling_tail(z):
    """sum_k c_k z^(1-2k): log Gamma(z) less (z - 1/2) log z - z + log(2 pi)/2."""
    inv = 1 / z
    inv2 = inv * inv
    s = _STIRLING[-1]
    for c in reversed(_STIRLING[:-1]):
        s = c + inv2 * s
    return inv * s


def _log_gamma_sq(a: float) -> Callable[[float], float]:
    """x -> log |Gamma(a + ix)|^2 for x > 0, in binary64.

    log Gamma(a)^2 plus the log of the ratio |Gamma(a + ix)|^2 / Gamma(a)^2:
    shift to u = a + N >= 16 and divide by prod_{k<N} (1 + (x / (a + k))^2);
    for the shifted ratio the large Stirling terms cancel inside log1p and
    atan2, never after an exp.  At a = -m (m = 0, 1, ...) Gamma(a) has a pole
    but |Gamma(a + ix)|^2 does not: the factor k = m is x^2 and the others
    leave 1/m!^2 in place of Gamma(a)^2.
    """
    n = max(0, math.ceil(_STIRLING_SHIFT - a))
    u = a + n
    shifts = [(a + k) ** 2 for k in range(n) if a + k != 0]
    pole = len(shifts) < n
    log_gamma_a_sq = -2.0 * math.lgamma(1.0 - a) if pole else 2.0 * math.lgamma(a)
    tail_u = _stirling_tail(u)

    def log_gamma_sq(x: float) -> float:
        x2 = x * x
        out = (log_gamma_a_sq + (u - 0.5) * math.log1p(x2 / (u * u)) - 2.0 * x * math.atan2(x, u)
               + 2.0 * (_stirling_tail(complex(u, x)).real - tail_u)
               - math.log(math.prod(1.0 + x2 / s for s in shifts)))
        return out - 2.0 * math.log(x) if pole else out

    return log_gamma_sq


def _log_qpoch_abs_sq(t: float, q: float) -> Callable[[float], float]:
    """theta -> log |(t e^(i theta); q)_inf|^2 for real t, in binary64.

    Factor k is |1 - r e^(i theta)|^2 with r = t q^k, and the product stops
    at the first |r| <= 10^-30, the cut of _qpoch_inf.  A factor with
    |r| < 1/2 is 1 + r (r - 2 cos theta) >= 1/4, and log1p keeps the bits
    that rounding it near 1 would lose; one with |r| >= 1/2 is
    (1 - |r|)^2 + 4 |r| s^2, with s = sin(theta/2) for r > 0 and cos(theta/2)
    for r < 0, so no term cancels.
    """
    small, large = [], []
    r = t
    while abs(r) > 1e-30:
        (small if abs(r) < 0.5 else large).append(r)
        r *= q

    def log_abs_sq(theta: float) -> float:
        c = math.cos(theta)
        out = sum(math.log1p(r * (r - 2.0 * c)) for r in small)
        for r in large:
            s = math.sin(0.5 * theta) if r > 0 else math.cos(0.5 * theta)
            out += math.log((1.0 - abs(r)) ** 2 + 4.0 * abs(r) * s * s)
        return out

    return log_abs_sq


def _phi0_sq(fp: FamilyParams) -> Callable[[float], float]:
    """phi_0(x; lambda)^2 as a float function, in binary64 for every family.

    Each kernel raises OverflowError where its value leaves binary64 range.
    """
    if fp.family == "L":
        g2 = 2.0 * float(fp.g)

        def l_weight(x: float) -> float:
            try:
                return math.exp(-x * x) * x ** g2
            except OverflowError:  # x ** 2g alone leaves range: one exp of the summed logs
                return math.exp(g2 * math.log(x) - x * x)
        return l_weight
    if fp.family == "J":
        g2, h2 = 2.0 * float(fp.g), 2.0 * float(fp.h)
        return lambda x: math.sin(x) ** g2 * math.cos(x) ** h2
    if fp.family == "W":
        log_gammas = [_log_gamma_sq(float(a)) for a in fp.lam]

        def w_weight(x: float) -> float:
            if x == 0.0:
                # the closed end of (0, cutoff): 1/|Gamma(2ix)|^2 vanishes like 4x^2
                return 0.0
            # prod_j |Gamma(a_j + ix)|^2 times 1/|Gamma(2ix)|^2 = 2x sinh(2 pi x)/pi,
            # summed as logs and exponentiated once
            return math.exp(math.log(x / math.pi) + 2.0 * math.pi * x
                            + math.log(-math.expm1(-4.0 * math.pi * x)) + sum(f(x) for f in log_gammas))

        return w_weight
    # |(e^{2ix}; q)_inf|^2 / prod_j |(a_j e^{ix}; q)_inf|^2; float() also reads
    # the SqrtQRational parameters a twist by sqrt(q) leaves
    q = float(fp.q)
    num = _log_qpoch_abs_sq(1.0, q)
    dens = [_log_qpoch_abs_sq(float(a), q) for a in fp.lam]

    def aw_weight(x: float) -> float:
        return math.exp(num(2.0 * x) - sum(f(x) for f in dens))

    return aw_weight


def _qpoch_inf(u, q):
    """(u; q)_infinity, truncated at the first factor with |u q^k| <= 10^-30.

    The cut is fixed at any working precision.  It is computed once per
    call, at the caller's precision (classical_norm runs under workprec(120)).
    """
    import mpmath

    tol = mpmath.mpf(10) ** (-_MP_PREC // 4)
    out = mpmath.mpf(1)
    t = u
    while abs(t) > tol:
        out *= 1 - t
        t *= q
    return out


def _qpoch_fin(u, q, k: int):
    import mpmath

    out = mpmath.mpf(1)
    for t in range(k):
        out *= 1 - u * q**t
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
    a1 = float(lam2[0] * lam2[1]) / float(fp.q)
    a2 = float(lam2[2] * lam2[3]) / float(fp.q)
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
    Xi(x - i gamma/2) Xi(x + i gamma/2) for W/AW) and the scale.  Before
    any node is evaluated, a Sturm count on the exact denominator refuses
    a zero anywhere on the family's closed eta-domain, so no entry of any
    width meets a pole.  Values are kept for the life of the Weight: phi_0^2
    per abscissa, eta and the weight per node set (an array of abscissae),
    each P_n per (n, node set), and each expected norm.
    """

    def __init__(self, pair: MultiIndexedPair):
        fp, D = pair.fp, pair.D
        self.pair = pair
        self.eta = _eta_of_x(fp)
        self.phi0_sq = _phi0_sq(twisted(fp, D.M1, D.M2))
        self.squared_den = fp.family in ("L", "J")
        den = _denominator(pair)
        self.xi_den = FloatPoly.from_exact(den)
        if self.squared_den:
            c_F = 2.0 if fp.family == "L" else -4.0
            self.scale = c_F ** (2 * D.M)
        else:
            self.scale = _difference_prefactor_sq(fp, D) / float(pair.xi_radicand)
        _check_no_pole(self, den)
        # stored polynomials differ from verbatim ones by sqrt(p_radicand)
        self._integrand_scale = self.scale * float(pair.p_radicand)
        # eta = x^2 rounds the same elementwise; numpy's cos may not round as
        # libm's does, so J and AW take eta one node at a time
        self._eta_is_square = fp.family in ("L", "W")
        self._phi0 = {}  # x -> phi_0^2(x)
        self._sets = {}  # node-set bytes -> (eta(xs), integrand_scale * phi_0^2(xs) / den(eta(xs)))
        self._polys = {}  # n -> FloatPoly of P_{D,n}
        self._p = {}  # (n, node-set bytes) -> P_{D,n}(eta(xs))
        self._norms = {}  # n -> expected_norm(fp, D, n)

    def den(self, e):
        """The denominator of Psi_D^2 at eta = e (a float or an array)."""
        d = self.xi_den(e)
        return d * d if self.squared_den else d

    def _phi0_at(self, x: float) -> float:
        v = self._phi0.get(x)
        if v is None:
            try:
                v = self._phi0[x] = self.phi0_sq(x)
            except OverflowError:
                raise FloatRangeError(f"phi_0^2 of the {self.pair.fp.family} weight leaves "
                                      f"binary64 range at x = {x!r}") from None
        return v

    def _node_set(self, xs) -> tuple:
        """(key, eta(xs), weight(xs)) of an array of abscissae, computed once per node set."""
        key = xs.tobytes()
        got = self._sets.get(key)
        if got is None:
            import numpy as np

            vals = xs.tolist()
            eta = xs * xs if self._eta_is_square else np.array([self.eta(x) for x in vals])
            phi0 = np.array([self._phi0_at(x) for x in vals])
            w = self._integrand_scale * phi0 / self.den(eta)
            bad = np.flatnonzero(~np.isfinite(w))
            if bad.size:
                raise FloatRangeError(f"the {self.pair.fp.family} weight is not finite "
                                      f"at x = {vals[bad[0]]!r}")
            got = self._sets[key] = (eta, w)
        return key, *got

    def _p_at(self, n: int, key: bytes, eta):
        v = self._p.get((n, key))
        if v is None:
            poly = self._polys.get(n)
            if poly is None:
                poly = self._polys[n] = FloatPoly.from_exact(self.pair.P_of(n))
            v = self._p[n, key] = poly(eta)
        return v

    def integrand(self, n: int, m: int) -> Callable:
        """xs -> p_radicand Psi_D^2 P_{D,n} P_{D,m} on an array of abscissae."""
        def f(xs):
            key, eta, w = self._node_set(xs)
            return (w * self._p_at(n, key, eta)) * self._p_at(m, key, eta)

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
    xi_x = poly_to_x(fp, pair.Xi)
    half = Fraction(1, 2)
    return reduce_to_eta(fp, x_shift(fp, xi_x, -half) * x_shift(fp, xi_x, half))


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


def classical_norm(fp: FamilyParams, n: int) -> float:
    """h_n: the classical normalization constant, via mpmath."""
    import mpmath

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


def _energy_factor(fp: FamilyParams, D: IndexSet, n: int) -> Scalar:
    """prod_j (E_n - Etilde_{d_j}), exactly."""
    factor = Fraction(1)
    for e in D.entries:
        factor = factor * (energy(fp, n) - virtual_energy(fp, e))
    return factor


def expected_norm(fp: FamilyParams, D: IndexSet, n: int) -> float:
    """prod_j (E_n - Etilde_{d_j}) * h_n for the diagonal entry."""
    return float(_energy_factor(fp, D, n)) * classical_norm(fp, n)


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


# Deformed W/AW quadrature is meaningful only where the deformation adds no
# discrete state: the continuous integral then accounts for the full norm.
# Each tuple below was checked by ortho_grid at n <= 2, with the binary64
# weight kernels, against the product-formula norm to better than 1e-14
# relative: on the diagonal at most 1.2e-15 (W) and 6.3e-15 (AW), off it at
# most 6.6e-16.  Elsewhere ortho_grid refuses a deformation that is not
# admissible (ConfigurationError) or whose denominator vanishes on the
# eta-domain (PoleEncountered); an admissible, pole-free point can still
# fall short of the norm by the mass of a discrete state.
DIFFERENCE_ORTHO_PRESETS = (
    ("W", (Fraction(5, 4), Fraction(13, 10), Fraction(6, 5), Fraction(7, 5)), None, "I1"),
    ("W", (Fraction(3, 4), Fraction(4, 5), Fraction(3, 2), Fraction(8, 5)), None, "II1"),
    ("W", (Fraction(7, 2), Fraction(13, 4), Fraction(6, 5), Fraction(7, 5)), None, "I1,I2"),
    ("AW", (Fraction(1, 20), Fraction(1, 12), Fraction(1, 3), Fraction(2, 5)), Fraction(1, 4), "I1"),
    ("AW", (Fraction(1, 3), Fraction(2, 5), Fraction(1, 20), Fraction(1, 12)), Fraction(1, 4), "II1"),
    ("AW", (Fraction(1, 20), Fraction(1, 12), Fraction(1, 18), Fraction(1, 10)), Fraction(1, 4), "I1,II1"),
)
