"""Independent closed-form constructions used to cross-check the library.

Each oracle builds a polynomial from an explicit hypergeometric sum, never
from the three-term recurrence, so agreement with miop.families is a real
consistency check and not a tautology.  All arithmetic is exact.

Normalizations match the library: Laguerre L_n^(g-1/2), Jacobi
P_n^(g-1/2,h-1/2), Wilson W_n and Askey-Wilson p_n in their standard
hypergeometric normalizations.  eta_shift_identities gives the closed
forms of the sum and product of eta at two opposite shifted points, which
the R-table of the difference families reduces to.  wa_three_term,
wa_virtual_energy, wa_energy and wa_virtual_params are the Wilson and
Askey-Wilson formulas as two hand-written branches, the reference for the
single bracket that miop.families writes both with.

rtable_recursion is the level recursion that miop.rtable's closed form
replaced, with its x-picture for W and AW (each level s-1 entry shifted
to x + i*gamma/2, multiplied by the three-term coefficients and reduced
back to eta entry by entry), and half_shift_violations_x the two
half-shift laws checked on x-picture entries: the references for
build_rtable and check_rprop2_rprop3.

det_cofactor is the Laplace expansion that miop.exact.det (Bareiss
elimination) is checked against, on plain lists of rows.

reference_scalar, run_coords and dot_schoolbook read the integer form of
miop.exact from the scalars alone: a value in the reference tower, the
canonical (parts, den, q, lo) of a coefficient run, and that of a sum of
products formed coefficient by coefficient; the references for the
constructors and for _dot.

schoolbook_mul and long_division are the per-coefficient scalar loops of
polynomial multiplication and division, on bare coefficient runs, and
laurent_shift_scalar and laurent_to_eta_scalar those of the x-picture shift
z -> z*q**c and the Chebyshev peel, and x_shift_compose the Wilson shift
x -> x + i*c as a composition with x + i*c (Horner's rule), which the
integer Taylor shift imag_shift replaced: the references for the integer
coordinates of miop.exact.poly.

coeff, map_coeffs, parse_scalar and family_params_from_json read a value
back in the tests' terms: one coefficient, a coefficient-wise image, a
miop scalar from its format_scalar string, and a parameter point from its
JSON form.  conj_coeffs and star are the two conjugations
the x-picture values are tested against: every coefficient conjugated, and
for a Laurent value in z = e^{ix} also z -> 1/z (its conjugate at real x);
reflect and z_inverse are the mirrors x -> -x and z -> 1/z.

phi0_sq_mpmath is a float oracle: the W and AW weights phi_0^2 evaluated
through mpmath's complex Gamma function and q-products, the reference for
the binary64 kernels of miop.quad.  ortho_grid_scalar is the per-node path
that the array quadrature of miop.quad replaced: the integrand on one
abscissa at a time, summed by the list pairwise_sum_list inside the same
node-doubling loop; its rows are the bit-exact reference for ortho_grid.  The pole exclusion of miop.quad, an
exact Sturm count, has two references: pole_scan, the float scan it
replaced (2048 compensated-Horner samples over one integration interval
with a 1e-12 floor), and real_root_count, the distinct real roots that
mpmath's polyroots finds on an open interval.  node_weight reads a Weight's
weight factor on an array of abscissae.

GaussianRational, SqrtQRational, make_sqrtq, downcast and format_scalar at
the end of this module are the Fraction-pair scalar tower that the
one-column views of miop.exact.scalars replaced, kept verbatim as their
reference; miop's own classes are reached here as exact.GaussianRational
and exact.SqrtQRational.  conj conjugates a scalar of either tower.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial, lcm, sqrt

import mpmath

from miop import quad
from miop.errors import (
    ConfigurationError,
    NonConvergent,
    PoleEncountered,
    ReductionFailure,
    SingularCoefficient,
)
from miop import exact
from miop.exact import LaurentPoly, Poly, q_pow, rational_sqrt, scalar_sign
from miop.exact.scalars import power
from miop.families import (
    FamilyParams,
    carrier_one,
    eta_x,
    reduce_to_eta,
    three_term,
    x_shift,
)
from miop.multiindex import build
from miop.quad import FloatPoly, QuadratureSpec, _qpoch_inf


def coeff(p, k: int):
    """The coefficient of var**k in a Poly or LaurentPoly; 0 outside its run."""
    i = k - p.lo
    return p.coeffs[i] if 0 <= i < len(p.coeffs) else Fraction(0)


def map_coeffs(p, f):
    """p with f applied to every coefficient, on p's carrier and variable."""
    run = [f(c) for c in p.coeffs]
    return Poly(run, p.var) if type(p) is Poly else LaurentPoly(p.lo, run, p.var)


def conj_coeffs(p):
    """p with every coefficient conjugated: its i and i*r coordinates negated."""
    return p._new(p.lo, [[-x for x in part] if k & 1 else part
                         for k, part in enumerate(p._parts)], p._den, p._q)


def reflect(p: Poly) -> Poly:
    """p(-x) for a Poly p in x."""
    return p.compose(Poly([0, -1], p.var))


def z_inverse(p: LaurentPoly) -> LaurentPoly:
    """p(1/z) for a Laurent value p in z."""
    return LaurentPoly(-p.hi, p.coeffs[::-1], p.var)


def star(p: LaurentPoly) -> LaurentPoly:
    """The complex conjugate of a Laurent value at real x, z = e^{ix}."""
    return conj_coeffs(z_inverse(p))


_FRACTION_RE = r"[+-]?\d+(?:/\d+)?"


def _parse_gaussian(s: str) -> exact.GaussianRational:
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    if "i" not in s:
        return exact.GaussianRational(Fraction(s))
    m = re.fullmatch(rf"(?:(?P<re>{_FRACTION_RE})(?=[+-]))?(?P<im>{_FRACTION_RE})\*i", s)
    if not m:
        raise ValueError(f"malformed scalar string: {s!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    return exact.GaussianRational(re_part, Fraction(m.group("im")))


def parse_scalar(s: str):
    """Inverse of exact.format_scalar; returns the lowest member of miop's tower."""
    s = s.strip()
    if "sqrt" in s:
        m = re.fullmatch(
            r"(?P<a>.+?)\s*\+\s*\((?P<b>[^)]+)\)\*sqrt\((?P<q>[^)]+)\)", s)
        if not m:
            raise ValueError(f"malformed scalar string: {s!r}")
        return exact.make_sqrtq(_parse_gaussian(m.group("a")),
                                _parse_gaussian(m.group("b")),
                                Fraction(m.group("q")))
    return exact.downcast(_parse_gaussian(s))


def family_params_from_json(obj: dict) -> FamilyParams:
    """The inverse of FamilyParams.to_json."""
    family = obj["family"]
    if family == "L":
        lam: tuple = (parse_scalar(obj["g"]),)
    elif family == "J":
        lam = (parse_scalar(obj["g"]), parse_scalar(obj["h"]))
    elif family in ("W", "AW"):
        lam = tuple(parse_scalar(s) for s in obj["a"])
    else:
        raise ConfigurationError(f"unknown family {family!r}")
    q = Fraction(obj["q"]) if family == "AW" else None
    return FamilyParams(family, lam, q)


def rising(x, m: int):
    """Pochhammer symbol (x)_m with exact arithmetic."""
    out = Fraction(1)
    for j in range(m):
        out *= x + j
    return out


def q_rising(x, q, m: int):
    """q-Pochhammer symbol (x; q)_m with exact arithmetic."""
    out = Fraction(1)
    for j in range(m):
        out *= 1 - x * q**j
    return out


def binom_gen(x, k: int):
    """Generalized binomial coefficient C(x, k) for non-integer x."""
    out = Fraction(1)
    for j in range(k):
        out *= x - j
    return out / factorial(k)


def laguerre_poly(g, n: int) -> Poly:
    """L_n^(alpha)(eta) with alpha = g - 1/2, via the explicit finite sum."""
    alpha = g - Fraction(1, 2)
    coeffs = [
        binom_gen(n + alpha, n - k) * Fraction((-1) ** k, factorial(k))
        for k in range(n + 1)
    ]
    return Poly(coeffs)


def jacobi_poly(g, h, n: int) -> Poly:
    """P_n^(alpha,beta)(eta) with alpha = g - 1/2, beta = h - 1/2."""
    alpha = g - Fraction(1, 2)
    beta = h - Fraction(1, 2)
    eta = Poly.variable()
    lo = (eta - 1) * Fraction(1, 2)
    hi = (eta + 1) * Fraction(1, 2)
    total = Poly.zero()
    for s in range(n + 1):
        c = binom_gen(n + alpha, n - s) * binom_gen(n + beta, s)
        total = total + (lo**s) * (hi ** (n - s)) * c
    return total


def wilson_poly(a, n: int) -> Poly:
    """W_n(eta; a1..a4) from the terminating 4F3 sum.

    The x-dependent Pochhammer pair (a1+ix)_m (a1-ix)_m collapses to the
    polynomial prod_j ((a1+j)^2 + eta) because eta = x^2.
    """
    a1, a2, a3, a4 = a
    b1 = a1 + a2 + a3 + a4
    eta = Poly.variable()
    front = rising(a1 + a2, n) * rising(a1 + a3, n) * rising(a1 + a4, n)
    pair = Poly.one()
    total = Poly.zero()
    for m in range(n + 1):
        num = rising(Fraction(-n), m) * rising(n + b1 - 1, m)
        den = (
            rising(a1 + a2, m)
            * rising(a1 + a3, m)
            * rising(a1 + a4, m)
            * factorial(m)
        )
        total = total + pair * (num / den)
        pair = pair * (eta + (a1 + m) ** 2)
    return total * front


def askey_wilson_poly(a, q, n: int) -> Poly:
    """p_n(eta; a1..a4 | q) from the terminating 4phi3 sum.

    The pair (a1 e^{ix}; q)_m (a1 e^{-ix}; q)_m collapses to
    prod_j (1 - 2 a1 q^j eta + a1^2 q^{2j}) because eta = cos x.
    """
    a1, a2, a3, a4 = a
    b4 = a1 * a2 * a3 * a4
    eta = Poly.variable()
    front = (
        q_rising(a1 * a2, q, n) * q_rising(a1 * a3, q, n) * q_rising(a1 * a4, q, n)
    ) / a1**n
    pair = Poly.one()
    total = Poly.zero()
    for m in range(n + 1):
        num = q_rising(q**-n, q, m) * q_rising(b4 * q ** (n - 1), q, m) * q**m
        den = (
            q_rising(a1 * a2, q, m)
            * q_rising(a1 * a3, q, m)
            * q_rising(a1 * a4, q, m)
            * q_rising(q, q, m)
        )
        total = total + pair * (num / den)
        pair = pair * (eta * (-2 * a1 * q**m) + (1 + a1**2 * q ** (2 * m)))
    return total * front


def eta_shift_identities(fp, m: int):
    """Closed forms of eta(x-im*gamma/2) + and * eta(x+im*gamma/2), in eta.

    W:  sum = 2 eta - m^2/2,            product = (eta + m^2/4)^2
    AW: sum = (q^(m/2)+q^(-m/2)) eta,   product = eta^2 + ((q^(m/2)-q^(-m/2))/2)^2
    """
    eta = Poly.variable()
    if fp.family == "W":
        return (eta * 2 - Fraction(m * m, 2), (eta + Fraction(m * m, 4)) ** 2)
    qp, qm = fp.qpow(m, 2), fp.qpow(-m, 2)
    c = (qp - qm) / 2
    return (eta * (qp + qm), eta * eta + c * c)


# The Wilson and Askey-Wilson formulas as two hand-written branches, kept
# verbatim as the reference for the single bracket of miop.families (only
# b4 is now computed here, and _den stands for families._nonzero_den).


def _den(fp, n: int, value):
    if not value:
        raise SingularCoefficient(f"three-term denominator vanishes at {fp.family}, n={n}")
    return value


def wa_three_term(fp, n: int):
    """(A_n, B_n, C_n) of W or AW."""
    if n < 0:
        z = Fraction(0)
        return (z, z, z)
    C = Fraction(0)
    a = fp.lam
    if fp.family == "W":
        b1 = fp.b1
        d0 = _den(fp, n, 2 * n + b1)
        prod_1k = (n + a[0] + a[1]) * (n + a[0] + a[2]) * (n + a[0] + a[3])
        A, B = -1 / d0, prod_1k / d0
        if n:
            dm1 = _den(fp, n, 2 * n + b1 - 1)
            dm2 = _den(fp, n, 2 * n + b1 - 2)
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
    b4 = a[0] * a[1] * a[2] * a[3]
    qn = fp.qpow(n)
    d0 = _den(fp, n, 1 - b4 * fp.qpow(2 * n))
    prod_1k = (
        (1 - a[0] * a[1] * qn) * (1 - a[0] * a[2] * qn) * (1 - a[0] * a[3] * qn)
    )
    A, B = 1 / (2 * d0), prod_1k / (2 * a[0] * d0)
    if n:
        dm1 = _den(fp, n, 1 - b4 * fp.qpow(2 * n - 1))
        dm2 = _den(fp, n, 1 - b4 * fp.qpow(2 * n - 2))
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


def wa_virtual_energy(fp, vsd):
    """Energy of a W or AW virtual state."""
    v = vsd.v
    a = fp.lam
    if fp.family == "W":
        if vsd.type == "I":
            return -(a[0] + a[1] - v - 1) * (a[2] + a[3] + v)
        return -(a[2] + a[3] - v - 1) * (a[0] + a[1] + v)
    if vsd.type == "I":
        return -(1 - a[0] * a[1] * fp.qpow(-v - 1)) * (1 - a[2] * a[3] * fp.qpow(v))
    return -(1 - a[2] * a[3] * fp.qpow(-v - 1)) * (1 - a[0] * a[1] * fp.qpow(v))


def wa_energy(fp, n: int):
    """Spectral energy E_n of W or AW."""
    if fp.family == "W":
        return n * (n + fp.b1 - 1)
    b4 = fp.lam[0] * fp.lam[1] * fp.lam[2] * fp.lam[3]
    return (fp.qpow(-n) - 1) * (1 - b4 * fp.qpow(n - 1))


def wa_virtual_params(fp, vtype: str):
    """The W or AW point at which a type-vtype virtual polynomial is classical."""
    a = fp.lam
    if fp.family == "W":
        if vtype == "I":
            lam = (1 - a[0], 1 - a[1], a[2], a[3])
        else:
            lam = (a[0], a[1], 1 - a[2], 1 - a[3])
    else:
        if vtype == "I":
            lam = (fp.q / a[0], fp.q / a[1], a[2], a[3])
        else:
            lam = (a[0], a[1], fp.q / a[2], fp.q / a[3])
    return FamilyParams(fp.family, lam, fp.q, check_range=False)


# -- R-tables by the level recursion -------------------------------------------


def rtable_recursion(fp, M: int, window, coeffs=None) -> tuple:
    """(entries, xentries) of the depth-M table on window by the recursion

        Rx^[s]_{n,k}(x) = A_n Rx^[s-1]_{n+1,k-1}(x + i gamma/2)
                          + (B_n - eta(x - i s gamma/2)) Rx^[s-1]_{n,k}(x + i gamma/2)
                          + C_n Rx^[s-1]_{n-1,k+1}(x + i gamma/2),

    level s on the window widened by M - s rows on each side.  For W and AW
    xentries holds the x-picture values and entries their reductions to
    eta; for L and J the shift and the reduction are the identity and
    xentries is None.
    """
    lo, hi = window
    coeffs = coeffs or (lambda n: three_term(fp, n))
    abc = {n: coeffs(n) for n in range(lo - M, hi + M + 1)}
    half = Fraction(1, 2)
    if fp.is_difference:
        one = carrier_one(fp)
        zero = Poly.zero("x") if fp.family == "W" else LaurentPoly()
        shift = lambda p: x_shift(fp, p, half)
        reduce = lambda p: reduce_to_eta(fp, p)
        eta_arg = lambda s: x_shift(fp, eta_x(fp), Fraction(-s, 2))
    else:
        one, zero = Poly.one(), Poly.zero()
        shift = reduce = lambda p: p
        eta_arg = lambda s: Poly.variable()
    xentries = {(-1, n, 0): one for n in range(lo - M - 1, hi + M + 2)}
    entries = {(-1, n, 0): Poly.one() for n in range(lo - M - 1, hi + M + 2)}

    def up(key):
        return shift(xentries.get(key, zero))

    for s in range(M + 1):
        pad = M - s
        eta_s = eta_arg(s)
        for n in range(lo - pad, hi + pad + 1):
            A, B, C = abc[n]
            for k in range(-s - 1, s + 2):
                val = (up((s - 1, n + 1, k - 1)) * A + (B - eta_s) * up((s - 1, n, k))
                       + up((s - 1, n - 1, k + 1)) * C)
                xentries[(s, n, k)] = val
                entries[(s, n, k)] = reduce(val)
    return entries, (xentries if fp.is_difference else None)


def half_shift_violations_x(fp, M: int, window, abc: dict, xentries: dict) -> list:
    """Violations (s, n, k, law) of the two half-shift laws on x-picture
    entries of a depth-M W or AW table, in the order check_rprop2_rprop3
    lists them.

    half-difference: Rx^[s](x - i gamma/2) - Rx^[s](x + i gamma/2)
        + (eta(x - i(s+1) gamma/2) - eta(x + i(s+1) gamma/2)) Rx^[s-1](x) = 0;
    even-half-rebuild: with P the even half (p(x - i gamma/2) + p(x + i gamma/2))/2,
        A_n P(Rx^[s-1]_{n+1,k-1}) + (B_n - mid) P(Rx^[s-1]_{n,k})
        + C_n P(Rx^[s-1]_{n-1,k+1}) + corr Rx^[s-2]_{n,k} - Rx^[s]_{n,k} = 0,
    mid and corr the half sum and minus a quarter of the squared difference
    of eta(x - i s gamma/2) and eta(x + i s gamma/2).
    """
    lo, hi = window
    half = Fraction(1, 2)
    zero = Poly.zero("x") if fp.family == "W" else LaurentPoly()
    eta = eta_x(fp)

    def x(key):
        return xentries.get(key, zero)

    def plus(key):
        return (x_shift(fp, x(key), -half) + x_shift(fp, x(key), half)) * half

    bad = []
    for s in range(M + 1):
        pad = M - s
        e_up = x_shift(fp, eta, Fraction(s, 2))
        e_dn = x_shift(fp, eta, Fraction(-s, 2))
        odd = x_shift(fp, eta, Fraction(-(s + 1), 2)) - x_shift(fp, eta, Fraction(s + 1, 2))
        mid = (e_dn + e_up) * half
        corr = (e_dn - e_up) ** 2 * Fraction(-1, 4)
        for n in range(lo - pad, hi + pad + 1):
            A, B, C = abc[n]
            for k in range(-s - 1, s + 2):
                key = (s, n, k)
                if (x_shift(fp, x(key), -half) - x_shift(fp, x(key), half)
                        + odd * x((s - 1, n, k))):
                    bad.append((s, n, k, "half-difference"))
                if (plus((s - 1, n + 1, k - 1)) * A + (B - mid) * plus((s - 1, n, k))
                        + plus((s - 1, n - 1, k + 1)) * C + corr * x((s - 2, n, k)) - x(key)):
                    bad.append((s, n, k, "even-half-rebuild"))
    return bad


def schoolbook_mul(a, b) -> tuple:
    """Coefficient run of the product of the runs a and b (lowest first)."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def reference_scalar(x):
    """A miop scalar, int or Fraction as a value of the reference tower below
    (which it leaves as it is)."""
    if isinstance(x, (GaussianRational, SqrtQRational)):
        return x
    if isinstance(x, exact.SqrtQRational):
        return make_sqrtq(reference_scalar(x.a), reference_scalar(x.b), x.q)
    if isinstance(x, exact.GaussianRational):
        return GaussianRational(x.re, x.im)
    return Fraction(x)


def run_coords(run, lo: int = 0, both_ends: bool = False) -> tuple:
    """(parts, den, q, lo) of a coefficient run of either tower, from each
    scalar's own parts: coordinate k of entry j along (1, i, r, i*r), with
    r = sqrt(qn*qd) so that b*sqrt(q) = (b/qd)*r, over the lcm of their
    denominators; zero end entries dropped (the low ones too, moving lo,
    when both_ends), width 1, 2 or 4 as the entries need, q kept at width 4."""
    cols, q = [], None
    for c in map(reference_scalar, run):
        if isinstance(c, SqrtQRational):
            q, qd = c.q, c.q.denominator
            cols.append((c.a.re, c.a.im, c.b.re / qd, c.b.im / qd))
        elif isinstance(c, GaussianRational):
            cols.append((c.re, c.im, Fraction(0), Fraction(0)))
        else:
            cols.append((c, Fraction(0), Fraction(0), Fraction(0)))
    while cols and not any(cols[-1]):
        cols.pop()
    while both_ends and cols and not any(cols[0]):
        cols.pop(0)
        lo += 1
    if not cols:
        return [[]], 1, None, 0
    width = 4 if any(c[2] or c[3] for c in cols) else 2 if any(c[1] for c in cols) else 1
    den = lcm(*(x.denominator for c in cols for x in c))
    parts = [[int(c[k] * den) for c in cols] for k in range(width)]
    return parts, den, q if width == 4 else None, lo


def dot_schoolbook(terms) -> tuple:
    """run_coords of sum a*b over the pairs (a, b) of terms, each a a Poly or
    LaurentPoly and each b one of the same carrier or a scalar: every
    coefficient product formed in the reference tower and summed per
    exponent, the reference for miop.exact.poly._dot."""
    acc, laurent = {}, False
    for a, b in terms:
        laurent = isinstance(a, LaurentPoly)
        bs = (list(enumerate(b.coeffs, b.lo)) if isinstance(b, (Poly, LaurentPoly))
              else [(0, b)])
        for e, x in enumerate(a.coeffs, a.lo):
            for f, y in bs:
                acc[e + f] = acc.get(e + f, Fraction(0)) + reference_scalar(x) * reference_scalar(y)
    if not acc:
        return [[]], 1, None, 0
    lo = min(acc) if laurent else 0
    return run_coords([acc.get(e, 0) for e in range(lo, max(acc) + 1)], lo, laurent)


def long_division(num, den) -> tuple:
    """(quotient, remainder) runs of num by den; den's last entry nonzero."""
    rem = list(num)
    dc = den
    dd = len(dc) - 1
    dlc = dc[-1]
    quot = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = c / dlc
        quot[i - dd] = f
        for j, d in enumerate(dc):
            rem[i - dd + j] = rem[i - dd + j] - f * d
    return tuple(quot), tuple(rem)


def det_cofactor(rows):
    """Laplace expansion along the first row of a square list of rows: the
    reference for miop.exact.det, which eliminates instead (Bareiss)."""
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ConfigurationError("determinant of a non-square matrix")
    return _det_cofactor(rows)


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        c = rows[0][j]
        if not c:
            continue
        minor = tuple(tuple(row[k] for k in range(n) if k != j)
                      for row in rows[1:])
        term = c * _det_cofactor(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc if acc is not None else rows[0][0] * 0


def lj_gauge_divisor(fp, D, R: int) -> Poly:
    """The gauge divisor of the size-R L/J Wronskian by the exponent ledger.

    Each power-gauge column of type t leaves base^(1/2 - lambda_t - (R-1))
    and the printed prefactor adds base^((M_tbar + lambda_t + s) M_t) with
    s = R - M - 1/2; L's M_I type-I exp(eta) gauges cancel the printed
    exp(-M_I eta), so only the bases are tracked.  Every base exponent left
    must be a nonpositive integer, and the divisor is the product of the
    bases to minus those exponents.
    """
    half, eta = Fraction(1, 2), Poly.variable()
    M1, M2 = D.M1, D.M2
    s = R - D.M - half
    if fp.family == "L":
        gauges = {"II": ("eta", eta, half - fp.g)}
        exps = {"eta": (M1 + fp.g + s) * M2}
    else:
        gauges = {"I": ("jp", (eta + 1) * half, half - fp.h),
                  "II": ("jm", (1 - eta) * half, half - fp.g)}
        exps = {"jm": (M1 + fp.g + s) * M2, "jp": (M2 + fp.h + s) * M1}
    bases = {}
    for e in D.entries:
        if e.type in gauges:
            base_id, base, c0 = gauges[e.type]
            bases[base_id] = base
            exps[base_id] += c0 - (R - 1)
    divisor = Poly.one()
    for base_id, x in sorted(exps.items()):
        if x:
            assert x.denominator == 1 and x < 0, f"gauge base {base_id!r} leaves exponent {x}"
            divisor = divisor * bases[base_id] ** int(-x)
    return divisor


def laurent_shift_scalar(p, c, q):
    """Substitute z -> z*q**c exactly; c may be a half-integer."""
    c = Fraction(c)
    if c.denominator not in (1, 2):
        raise ConfigurationError("shift step must be integer or half-integer")
    if not p.coeffs:
        return p
    step = q_pow(q, c.numerator, c.denominator)
    e = c * p.lo
    factor = q_pow(q, e.numerator, e.denominator)  # q**(c*k) at k = lo, lo+1, ...
    out = []
    for coeff in p.coeffs:
        out.append(coeff * factor)
        factor = factor * step
    return LaurentPoly(p.lo, out)


def x_shift_compose(p: Poly, c) -> Poly:
    """p(x + i*c) for a Poly p in x, by composing with the polynomial x + i*c."""
    return p.compose(Poly([exact.GaussianRational(0, Fraction(c)), Fraction(1)], var=p.var))


def laurent_to_eta_scalar(p):
    """Express a symmetric self-conjugate Laurent value as a Poly in
    eta = (z + 1/z)/2, by peeling leading Chebyshev terms."""
    if star(p) != p:
        raise ReductionFailure("x-picture value is not self-conjugate")
    if z_inverse(p) != p:
        raise ReductionFailure("x-picture value is not symmetric under z -> 1/z")
    hi = max(p.hi, 0)
    rem = [coeff(p, k) for k in range(-hi, hi + 1)]  # rem[hi + k] multiplies z**k
    out = [Fraction(0)] * (hi + 1)
    for n in range(hi, 0, -1):
        a = rem[hi + n]
        if not a:
            continue
        out[n] = exact.downcast(a * 2 ** n)  # a*(z+1/z)^n = a*2^n*eta^n
        for j in range(n + 1):  # (z + 1/z)^n = sum_j C(n, j) z^(n-2j)
            rem[hi + n - 2 * j] -= a * comb(n, j)
        if rem[hi + n]:
            raise ReductionFailure("Chebyshev peel failed to lower degree")
    if any(c for k, c in enumerate(rem) if k != hi):
        raise ReductionFailure("asymmetric residue after Chebyshev peel")
    out[0] = exact.downcast(rem[hi])
    return Poly(out, "eta")


def phi0_sq_mpmath(fp):
    """phi_0(x; lambda)^2 of a W or AW point through mpmath Gamma/q-products."""
    if fp.family == "W":
        avals = [complex(float(a)) for a in fp.lam]

        def w_weight(x: float) -> float:
            ix = 1j * x
            num = mpmath.mpf(1)
            for a in avals:
                num *= abs(mpmath.gamma(a + ix)) ** 2
            den = abs(mpmath.gamma(2 * ix)) ** 2 if x != 0 else mpmath.inf
            return float(num / den)

        return w_weight
    # float() also reads the SqrtQRational parameters a twist by sqrt(q) leaves
    q = mpmath.mpf(float(fp.q))
    avals = [mpmath.mpf(float(a)) for a in fp.lam]

    def aw_weight(x: float) -> float:
        z = mpmath.exp(1j * x)
        num = abs(_qpoch_inf(z * z, q)) ** 2
        den = mpmath.mpf(1)
        for a in avals:
            den *= abs(_qpoch_inf(a * z, q)) ** 2
        return float(num / den)

    return aw_weight


def pairwise_sum_list(values) -> float:
    """Pairwise summation over a Python list: v0 + v1, v2 + v3, ..., an odd last value carried."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def integrate_scalar(pairs, f, a: float, b: float, spec: QuadratureSpec, floor: float) -> float:
    """The node-doubling loop of miop.quad with f called on one abscissa at a time.

    pairs(level) gives the (x, w) pairs on (-1, 1) of that level.
    """
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    prev = None
    for level in range(spec.max_levels):
        cur = half * pairwise_sum_list(w * f(mid + half * x) for x, w in pairs(level))
        if prev is not None and abs(cur - prev) <= spec.rtol * max(abs(cur), floor):
            return cur
        prev = cur
    raise NonConvergent(f"did not settle below rtol={spec.rtol} in {spec.max_levels} levels")


def ortho_grid_scalar(fp, D, n_max: int, spec: QuadratureSpec = QuadratureSpec()) -> list:
    """The rows of quad.ortho_grid, every weight and P_n evaluated per abscissa.

    Shares the binary64 kernels, the node tables, the intervals and the
    norms with miop.quad, so its rows are the bits an array evaluation of
    the same integrands must reproduce.
    """
    pair = build(fp, D, n_max=n_max)
    for n in range(n_max + 1):
        if scalar_sign(quad._energy_factor(fp, D, n)) <= 0:
            raise ConfigurationError(f"D={{{D.label()}}} is not admissible at n = {n}")
    if not fp.is_difference:  # L/J: the twisted end exponents g + d (and h - d) exceed -1/2
        d = D.M1 - D.M2
        ends = (fp.g + d,) if fp.family == "L" else (fp.g + d, fp.h - d)
        if min(ends) <= Fraction(-1, 2):
            raise ConfigurationError(f"D={{{D.label()}}} is not admissible: twisted exponents {ends}")
    weight = quad.Weight(pair)
    eta, polys = weight.eta, [FloatPoly.from_exact(pair.P_of(n)) for n in range(n_max + 1)]

    def node_weight(x: float) -> float:
        return weight._integrand_scale * weight.phi0_sq(x) / weight.den(eta(x))

    def pairs(level):
        if fp.family in ("L", "W"):
            xs, ws = quad._ts_nodes(0.5 / 2**level, t_max=4.2)
        elif spec.nodes << max(level, 1) > quad.MAX_NODES:  # the Gauss-Legendre order cap
            raise NonConvergent(f"no Gauss-Legendre order above {quad.MAX_NODES}")
        else:
            xs, ws = quad._leggauss(spec.nodes << level)
        return zip(xs.tolist(), ws.tolist())

    rows = []
    for n in range(n_max + 1):
        for m in range(n, n_max + 1):
            def f(x: float) -> float:
                return node_weight(x) * polys[n](eta(x)) * polys[m](eta(x))

            norm_n, norm_m = quad.expected_norm(fp, D, n), quad.expected_norm(fp, D, m)
            value = integrate_scalar(pairs, f, *quad._interval(fp, D, n, m), spec,
                                     floor=abs(norm_m if m > n else norm_n))
            if n == m:
                rows.append((n, m, value, norm_n, abs(value - norm_n) / abs(norm_n)))
            else:
                prod = abs(norm_n) * abs(norm_m)  # its two roots where it leaves binary64 range
                mean = (sqrt(prod) if 0.0 < prod < float("inf")
                        else sqrt(abs(norm_n)) * sqrt(abs(norm_m)))
                rows.append((n, m, value, 0.0, abs(value) / mean))
    return rows


def node_weight(weight: quad.Weight, xs):
    """p_radicand Psi_D(xs)^2 of a Weight on an array of abscissae: the
    weight factor of its integrand."""
    return weight._node_set(xs)[2]


def pole_scan(den: Poly, eta, a: float, b: float, samples: int = 2048):
    """Raise PoleEncountered where 2048 float samples of den over eta((a, b)) look like a pole.

    den is the exact eta-denominator, eta the map x -> eta; the scan refuses
    a sign change, a zero sample, an identically zero den and a sample below
    1e-12 of the largest one.
    """
    xi_den = FloatPoly.from_exact(den)
    lo, hi = sorted((eta(a + 1e-9), eta(b - 1e-9)))
    vals = [xi_den(lo + (hi - lo) * i / (samples - 1)) for i in range(samples)]
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


def _mp_real(c):
    """A real scalar of Q or Q(sqrt q) as an mpf at the working precision."""
    if type(c) is exact.SqrtQRational:
        q = c.q
        return _mp_real(c.a.re) + _mp_real(c.b.re) * mpmath.sqrt(mpmath.mpf(q.numerator) / q.denominator)
    c = Fraction(c)
    return mpmath.mpf(c.numerator) / c.denominator


def _trimmed(run) -> list:
    run = list(run)
    while run and not run[-1]:
        run.pop()
    return run


def squarefree_part(run) -> list:
    """run / gcd(run, run'), by Euclid's algorithm on long_division."""
    a, b = _trimmed(run), _trimmed(k * c for k, c in enumerate(run))[1:]
    while b:
        a, b = b, _trimmed(long_division(a, b)[1])
    return list(long_division(run, a)[0])


def real_root_count(den: Poly, lo, hi) -> int:
    """Distinct real roots of den on (lo, hi), hi = None for +inf, by mpmath polyroots.

    polyroots runs at 60 digits on the square-free part of den, so every root
    it seeks is simple; a root whose imaginary part is below 1e-30 of its size
    counts as real.
    """
    run = squarefree_part(den.coeffs)
    if len(run) < 2:
        return 0
    with mpmath.workdps(60):
        roots = mpmath.polyroots([_mp_real(c) for c in reversed(run)], maxsteps=200, extraprec=100)
        real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) <= 1e-30 * max(1, abs(r))]
        return sum(1 for r in real if r > lo and (hi is None or r < hi))


# -- the Fraction-pair scalar tower --------------------------------------------

# The tower classes as they stood before miop.exact.scalars made them views of
# the integer form, kept verbatim as the reference for the new ones.  In this
# module GaussianRational, SqrtQRational, make_sqrtq, downcast and
# format_scalar name these references; miop's own are reached as exact.*.

_RAT = (int, Fraction)


class GaussianRational:
    """re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- structure ---------------------------------------------------------
    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RAT):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- ring ops ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _RAT):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, *_RAT)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RAT):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re * other.re - self.im * other.im,
                                    self.re * other.im + self.im * other.re)
        if isinstance(other, _RAT):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RAT):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return GaussianRational(self.re / other, self.im / other)
        if isinstance(other, GaussianRational):
            n2 = other.re * other.re + other.im * other.im
            if n2 == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * other.conjugate() / n2
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RAT):
            return GaussianRational(other) / self
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / (self ** (-n))
        return power(self, n, GaussianRational(1))

    # -- real-value helpers --------------------------------------------------
    def sign(self) -> int:
        if self.im != 0:
            raise ConfigurationError("sign of a non-real scalar")
        return (self.re > 0) - (self.re < 0)

    def __float__(self) -> float:
        if self.im != 0:
            raise ConfigurationError("float() of a non-real scalar")
        return float(self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, _RAT):
        return GaussianRational(x)
    raise ConfigurationError(f"cannot lift {type(x).__name__} into the Gaussian layer")


def make_sqrtq(a, b, q) -> Scalar:
    """Canonical constructor for a + b*sqrt(q): collapses whenever it can."""
    a, b = _as_gaussian(a), _as_gaussian(b)
    q = Fraction(q)
    if q <= 0:
        raise ConfigurationError("sqrt adjunction needs q > 0")
    r = rational_sqrt(q)
    if r is not None:
        return _downcast_gaussian(a + b * r)
    if not b:
        return _downcast_gaussian(a)
    return SqrtQRational(a, b, q)


def _downcast_gaussian(g: GaussianRational):
    return g.re if g.im == 0 else g


class SqrtQRational:
    """a + b*sqrt(q), a and b Gaussian, q a fixed positive non-square rational.

    Built through make_sqrtq (never directly) so that b == 0 and square q
    always collapse to the Gaussian layer.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a: GaussianRational, b: GaussianRational, q: Fraction):
        self.a = a
        self.b = b
        self.q = q

    def _check_q(self, other: "SqrtQRational"):
        if self.q != other.q:
            raise ConfigurationError(
                f"mixing sqrt({self.q}) and sqrt({other.q}) in one expression")

    @property
    def is_real(self) -> bool:
        return self.a.is_real and self.b.is_real

    def conjugate(self):
        return make_sqrtq(self.a.conjugate(), self.b.conjugate(), self.q)

    def __bool__(self):
        return True  # b != 0 by construction, and sqrt(q) is irrational

    def __eq__(self, other):
        if isinstance(other, SqrtQRational):
            return self.q == other.q and self.a == other.a and self.b == other.b
        if isinstance(other, (GaussianRational, *_RAT)):
            return False  # nonzero sqrt part is irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __add__(self, other):
        if isinstance(other, SqrtQRational):
            self._check_q(other)
            return make_sqrtq(self.a + other.a, self.b + other.b, self.q)
        if isinstance(other, (GaussianRational, *_RAT)):
            return make_sqrtq(self.a + other, self.b, self.q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return make_sqrtq(-self.a, -self.b, self.q)

    def __sub__(self, other):
        if isinstance(other, (SqrtQRational, GaussianRational, *_RAT)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (GaussianRational, *_RAT)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, SqrtQRational):
            self._check_q(other)
            return make_sqrtq(self.a * other.a + self.b * other.b * self.q,
                              self.a * other.b + self.b * other.a, self.q)
        if isinstance(other, (GaussianRational, *_RAT)):
            return make_sqrtq(self.a * other, self.b * other, self.q)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self):
        # 1/(a+b sqrt q) = (a - b sqrt q)/(a^2 - b^2 q); denominator is a
        # nonzero Gaussian (a^2 = b^2 q would make q a rational square).
        den = self.a * self.a - self.b * self.b * self.q
        if not den:
            raise ZeroDivisionError("division by zero scalar")
        return make_sqrtq(self.a / den, -self.b / den, self.q)

    def __truediv__(self, other):
        if isinstance(other, SqrtQRational):
            self._check_q(other)
            return self * other._inverse()
        if isinstance(other, (GaussianRational, *_RAT)):
            return make_sqrtq(self.a / other, self.b / other, self.q)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (GaussianRational, *_RAT)):
            return self._inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        return power(self, n, Fraction(1))

    def sign(self) -> int:
        """Exact sign of a real value a + b*sqrt(q)."""
        if not self.is_real:
            raise ConfigurationError("sign of a non-real scalar")
        a, b = self.a.re, self.b.re
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        # opposite signs: compare a^2 against b^2 q
        diff = a * a - b * b * self.q
        if diff == 0:  # impossible for non-square q, kept as a guard
            return 0
        return sa if diff > 0 else sb

    def __float__(self) -> float:
        if not self.is_real:
            raise ConfigurationError("float() of a non-real scalar")
        return float(self.a.re) + float(self.b.re) * float(self.q) ** 0.5

    def __repr__(self):
        return f"SqrtQRational({self.a!r}, {self.b!r}, {self.q!r})"

    def __str__(self):
        return format_scalar(self)


def downcast(x: Scalar) -> Scalar:
    """Lowest tower member with the same value (SqrtQRational is already minimal)."""
    if isinstance(x, GaussianRational):
        return _downcast_gaussian(x)
    if isinstance(x, int):
        return Fraction(x)
    return x


def _format_gaussian(g: GaussianRational) -> str:
    if g.im == 0:
        return str(g.re)
    im_part = f"{g.im}*i"
    if g.re == 0:
        return im_part
    sign = "+" if g.im > 0 else "-"
    return f"{g.re}{sign}{abs(g.im)}*i"


def format_scalar(x: Scalar) -> str:
    x = downcast(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, GaussianRational):
        return _format_gaussian(x)
    if isinstance(x, SqrtQRational):
        return f"{_format_gaussian(x.a)} + ({_format_gaussian(x.b)})*sqrt({x.q})"
    raise ConfigurationError(f"cannot serialize {type(x).__name__}")


def conj(x):
    """The complex conjugate of a scalar of either tower (a rational is its own)."""
    return x.conjugate()
