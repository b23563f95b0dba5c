"""Dense exact polynomials in one variable, plus Laurent polynomials in z.

Both carriers share one ring core, _PolyBase, and one stored form: integer
coordinates over one positive denominator.  With r = sqrt(qn*qd) for
q = qn/qd, so that r*r is an integer and sqrt(q) = r/qd, `_parts[k][j] /
_den` is the coordinate along e[k] of the basis e = (1, i, r, i*r) of the
coefficient of var**(lo+j).  The form is canonical:

  * no zero end columns (LaurentPoly strips both ends and moves lo);
  * the least width: 1 over Q, 2 over Q(i), 4 over Q(i)(sqrt q), with the
    radicand `_q` set only at width 4;
  * gcd(_den, every coordinate) = 1;

so equality and hashing compare coordinates.  Poly fixes lo = 0 as a class
constant and is used in "eta" and "x"; LaurentPoly stores its own lo, for
z = e^{ix} expressions.  The zero polynomial is one empty column (degree
NEG_INF for Poly, lo = 0 for LaurentPoly).  Values are immutable.

Every ring operation works on these integers and builds no scalar: sums
of products by a polynomial (integer convolution) or by a scalar (whose
coordinates are read directly), aligned on one common denominator and
made canonical once (_dot; a sum or a product is the one-term case),
powers, exact division (pseudo-division after clearing the conjugates of
the divisor's leading coefficient), composition (Horner's rule), the
derivative, x -> -x, z -> 1/z, the x-picture shifts x -> x + i*c (an
integer Taylor shift) and z -> z*q**c and the reductions to eta.  Tower scalars
appear only at the boundary: constructors take a coefficient run, and
`coeffs` derives the canonical scalars (Fraction over Q, GaussianRational
across a run with any i part) on first use and caches them.  Mixing the
two carriers, two variables or two radicands raises ConfigurationError.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from typing import Iterable

from ..errors import ConfigurationError, InexactDivision, ReductionFailure
from .scalars import (GaussianRational, Scalar, SqrtQRational, format_scalar,
                      make_sqrtq, power)

NEG_INF = float("-inf")

_SCALARS = (int, Fraction, GaussianRational, SqrtQRational)

# e[k] * e[l] = sign * (r*r if s else 1) * e[dst], as _TIMES[k][l] = (dst, sign, s)
_TIMES = (((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)),
          ((1, 1, 0), (0, -1, 0), (3, 1, 0), (2, -1, 0)),
          ((2, 1, 0), (3, 1, 0), (0, 1, 1), (1, 1, 1)),
          ((3, 1, 0), (2, -1, 0), (1, 1, 1), (0, -1, 1)))

_F0 = Fraction(0)


# -- scalars in and out ------------------------------------------------------------

def _scalar_coords(c) -> tuple:
    """(coords, den, q): c = sum coords[k] * e[k] / den at c's least width."""
    if type(c) is Fraction:
        return (c._numerator,), c._denominator, None
    if isinstance(c, int):
        return (c,), 1, None
    if type(c) is GaussianRational:
        xs = (c.re, c.im) if c.im else (c.re,)
        nds = [(x._numerator, x._denominator) for x in xs]
        q = None
    elif type(c) is SqrtQRational:  # b*sqrt(q) = (b/qd)*r
        q = c.q
        nds = [(x._numerator, x._denominator) for x in (c.a.re, c.a.im)]
        nds += [(x._numerator, x._denominator * q._denominator) for x in (c.b.re, c.b.im)]
    else:
        raise ConfigurationError(f"cannot hold {type(c).__name__} in a polynomial")
    den = lcm(*(d for _, d in nds))
    return tuple(x * (den // d) for x, d in nds), den, q


def _coords(run: Iterable[Scalar]) -> tuple:
    """(parts, den, q) of a coefficient run, not yet in canonical form."""
    cs = [_scalar_coords(c) for c in run]
    qs = {q for _, _, q in cs if q is not None}
    if len(qs) > 1:
        raise ConfigurationError(
            f"mixing {' and '.join(f'sqrt({q})' for q in qs)} in one expression")
    width = max((len(x) for x, _, _ in cs), default=1)
    den = lcm(*(d for _, d, _ in cs))
    parts = [[0] * len(cs) for _ in range(width)]
    for j, (x, d, _) in enumerate(cs):
        m = den // d
        for k, v in enumerate(x):
            parts[k][j] = v * m
    return parts, den, (qs.pop() if qs else None)


def _from_ints(parts, den: int, q) -> list:
    """The coefficient run whose coordinates are parts / den (den > 0)."""
    if len(parts) == 4:  # r = qd*sqrt(q)
        parts = parts[:2] + [[x * q.denominator for x in part] for part in parts[2:]]
    rats = [[Fraction(x, den) if x else _F0 for x in part] for part in parts]
    if len(rats) == 1:
        return rats[0]
    gauss = [GaussianRational(x, y) for x, y in zip(rats[0], rats[1])]
    if len(rats) == 2:
        return gauss
    return [make_sqrtq(a, GaussianRational(x, y), q)
            for a, x, y in zip(gauss, rats[2], rats[3])]


# -- the integer kernel ----------------------------------------------------------

def _normal(parts: list, den: int, q, both_ends: bool) -> tuple:
    """(lead, parts, den, q) in canonical form; lead counts the zero
    columns dropped at the low end (only when both_ends)."""
    n = hi = len(parts[0])
    nonzero = parts[0] if len(parts) == 1 else [any(col) for col in zip(*parts)]
    while hi and not nonzero[hi - 1]:
        hi -= 1
    lead = 0
    if both_ends:
        while lead < hi and not nonzero[lead]:
            lead += 1
    if not hi:
        return 0, [[]], 1, None
    if lead or hi < n:
        parts = [part[lead:hi] for part in parts]
    if len(parts) == 4 and not (any(parts[2]) or any(parts[3])):
        parts = parts[:2]
    if len(parts) == 2 and not any(parts[1]):
        parts = parts[:1]
    if len(parts) < 4:
        q = None
    if den < 0:
        den = -den
        parts = [[-x for x in part] for part in parts]
    g = den
    for part in parts:
        g = gcd(g, *part)
        if g == 1:
            break
    if g != 1:
        den //= g
        parts = [[x // g for x in part] for part in parts]
    return lead, parts, den, q


def _radicand(p, q):
    """The one radicand of two operands (None below width 4)."""
    if p is None:
        return q
    if q is not None and q != p:
        raise ConfigurationError(f"mixing sqrt({p}) and sqrt({q}) in one expression")
    return p


def _r2(q) -> int:
    return q.numerator * q.denominator if q is not None else 0


def _widen(parts: list, width: int) -> list:
    return parts + [[0] * len(parts[0]) for _ in range(width - len(parts))]


def _conv(a: list, b: list) -> list:
    """Coefficients of the product of two integer runs."""
    if len(b) == 1:
        c = b[0]
        return [x * c for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mul_ints(a: list, b: list, r2: int) -> list:
    """Product of two runs in coordinates, at the larger width; r2 = r*r."""
    if len(b) == 1 and len(b[0]) == 1:  # a rational constant
        c = b[0][0]
        return [[x * c for x in part] for part in a]
    out = [None] * max(len(a), len(b))
    for k, ak in enumerate(a):
        if not any(ak):
            continue
        for j, bj in enumerate(b):
            if not any(bj):
                continue
            dst, sign, s = _TIMES[k][j]
            f = sign * r2 if s else sign
            v = _conv(ak, bj)
            acc = out[dst]
            if acc is not None:
                out[dst] = [x + f * y for x, y in zip(acc, v)]
            else:
                out[dst] = v if f == 1 else [f * y for y in v]
    n = len(a[0]) + len(b[0]) - 1
    return [acc if acc is not None else [0] * n for acc in out]


def _make(cls, var: str, lo: int, parts: list, den: int, q):
    """A cls value in var from coordinates parts/den starting at exponent lo."""
    out = object.__new__(cls)
    out.var = var
    out._set(lo, parts, den, q)
    return out


def _align(terms: list) -> tuple:
    """(lo, parts, den, q), not yet canonical: the sum of one or more nonzero
    terms (lo, parts, den, q) over their least common denominator."""
    lo = min(t[0] for t in terms)
    n = max(t[0] + len(t[1][0]) for t in terms) - lo
    den = lcm(*(t[2] for t in terms))
    q = None
    out = [[0] * n for _ in range(max(len(t[1]) for t in terms))]
    for tlo, parts, d, tq in terms:
        if tq is not None:
            q = _radicand(q, tq)
        m, a = den // d, tlo - lo
        for part, col in zip(parts, out):
            b = a + len(part)
            col[a:b] = [x + y * m for x, y in zip(col[a:b], part)]
    return lo, out, den, q


def _dot(terms) -> "_PolyBase":
    """sum a*b over the pairs (a, b) of terms, a nonempty iterable.

    Every a is a value of one carrier ring and every b a value of that ring
    or a scalar; the products are summed over one common denominator and
    the result is put in canonical form once.
    """
    ring, prods = None, []
    for a, b in terms:
        if ring is None:
            ring = a
        a = ring._operand(a)
        if isinstance(b, _PolyBase):
            b = ring._operand(b)
            blo, bparts, bden, bq = b.lo, b._parts, b._den, b._q
        else:
            x, bden, bq = _scalar_coords(b)
            blo, bparts = 0, [[v] for v in x]
        if a._parts[0] and any(map(any, bparts)):
            q = _radicand(a._q, bq)
            prods.append((a.lo + blo, _mul_ints(a._parts, bparts, _r2(q)), a._den * bden, q))
    if not prods:
        return ring._zero()
    return ring._new(*(prods[0] if len(prods) == 1 else _align(prods)))


class _PolyBase:
    """sum coeffs[j] * var**(lo+j); the ring operations of both carriers."""

    __slots__ = ("_parts", "_den", "_q", "_coeffs", "var")

    def _set(self, lo: int, parts: list, den: int, q):
        """Store parts/den, starting at exponent lo, in canonical form."""
        raise NotImplementedError

    def _new(self, lo: int, parts: list, den: int, q):
        """A value of self's type and variable from coordinates at lo."""
        return _make(type(self), self.var, lo, parts, den, q)

    def _zero(self):
        return self._new(0, [[]], 1, None)

    def _operand(self, other):
        """other as an element of self's ring, or None if it is not one."""
        if type(other) is type(self) and other.var == self.var:
            return other
        if isinstance(other, _SCALARS):
            x, d, q = _scalar_coords(other)
            return self._new(0, [[v] for v in x], d, q)
        if not isinstance(other, _PolyBase):
            return None
        raise ConfigurationError(
            f"mixing {type(self).__name__} in {self.var!r} and "
            f"{type(other).__name__} in {other.var!r}")

    # -- the scalar boundary ----------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        """The coefficient run as canonical tower scalars, lowest first."""
        out = self._coeffs
        if out is None:
            out = self._coeffs = tuple(_from_ints(self._parts, self._den, self._q))
        return out

    @property
    def is_zero(self) -> bool:
        return not self._parts[0]

    def __eq__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = self._operand(other)
        return (self.lo == other.lo and self.var == other.var and self._den == other._den
                and self._q == other._q and self._parts == other._parts)

    def __hash__(self):
        return hash((self.var, self.lo, self._den, self._q, tuple(map(tuple, self._parts))))

    def __bool__(self):
        return bool(self._parts[0])

    # -- ring ops --------------------------------------------------------------
    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if not other._parts[0]:
            return self
        if not self._parts[0]:
            return other
        return self._new(*_align([(self.lo, self._parts, self._den, self._q),
                                  (other.lo, other._parts, other._den, other._q)]))

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.lo, [[-x for x in part] for part in self._parts],
                         self._den, self._q)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _PolyBase) or isinstance(other, _SCALARS):
            return _dot([(self, other)])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, self._new(0, [[1]], 1, None))

    # -- evaluation ---------------------------------------------------------------
    def __call__(self, x: Scalar) -> Scalar:
        if isinstance(x, int):
            x = Fraction(x)
        acc: Scalar = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        lo = self.lo
        if not lo:
            return acc
        return acc * x ** lo if lo > 0 else acc / x ** (-lo)

    # -- division ------------------------------------------------------------------
    def exact_div(self, den):
        """self / den; InexactDivision if den does not divide self.

        Both runs are multiplied by the sqrt(q)- and then the i-conjugate of
        den's leading coefficient until that coefficient is an integer L;
        integer pseudo-division then gives S*A = Q*B + R with S a product of
        divisors of L, and the quotient is Q * d_B / (S * d_A).
        """
        den = self._operand(den)
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._parts[0]:
            return self
        q = _radicand(self._q, den._q)
        r2 = _r2(q)
        width = max(len(self._parts), len(den._parts))
        rem = _widen([list(part) for part in self._parts], width)
        b = _widen(den._parts, width)
        for k in (2, 1):  # clear the sqrt(q) parts of lc(den), then the i part
            lead = [part[-1] for part in b]
            if any(lead[k:]):
                conj = [[x if j < k else -x] for j, x in enumerate(lead)]
                rem, b = _mul_ints(rem, conj, r2), _mul_ints(b, conj, r2)
        L = b[0][-1]
        dd = len(b[0]) - 1
        quot = [[0] * max(len(rem[0]) - dd, 0) for _ in rem]
        scale = 1
        for i in range(len(rem[0]) - 1, dd - 1, -1):
            c = [part[i] for part in rem]
            if not any(c):
                continue
            g = gcd(L, *c)
            m = L // g
            if m != 1:  # scale so that L divides c
                scale *= m
                for part in rem:
                    part[:i + 1] = [x * m for x in part[:i + 1]]
                for part in quot:
                    part[i - dd + 1:] = [x * m for x in part[i - dd + 1:]]
            off = i - dd
            for k, t in enumerate(c):
                if not t:
                    continue
                t //= g
                quot[k][off] = t
                for j, bj in enumerate(b):
                    dst, sign, s = _TIMES[k][j]
                    f = sign * t * r2 if s else sign * t
                    part = rem[dst]
                    for e, y in enumerate(bj, off):
                        part[e] -= f * y
        if any(map(any, rem)):
            rdeg = max(i for part in rem for i, x in enumerate(part) if x)
            raise InexactDivision(
                f"nonzero remainder of degree {rdeg} dividing "
                f"deg {len(self._parts[0]) - 1} by deg {dd}")
        db = den._den
        quot = [[x * db for x in part] for part in quot]
        return self._new(self.lo - den.lo, quot, scale * self._den, q)

    def __repr__(self):
        name = type(self).__name__
        if self.is_zero:
            return f"{name}(0, {self.var!r})"
        terms = " + ".join(f"({format_scalar(c)})*{self.var}^{self.lo + i}"
                           if self.lo + i else f"({format_scalar(c)})"
                           for i, c in enumerate(self.coeffs) if c)
        return f"{name}[{terms}]"


class Poly(_PolyBase):
    """Dense univariate polynomial, coeffs[i] multiplying variable**i."""

    __slots__ = ()
    lo = 0

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "eta"):
        self.var = var
        self._set(0, *_coords(coeffs))

    def _set(self, lo, parts, den, q):
        _, self._parts, self._den, self._q = _normal(parts, den, q, False)
        self._coeffs = None

    @classmethod
    def zero(cls, var: str = "eta") -> "Poly":
        return _make(cls, var, 0, [[]], 1, None)

    @classmethod
    def one(cls, var: str = "eta") -> "Poly":
        return _make(cls, var, 0, [[1]], 1, None)

    @classmethod
    def variable(cls, var: str = "eta") -> "Poly":
        return _make(cls, var, 0, [[0, 1]], 1, None)

    @property
    def degree(self):
        return len(self._parts[0]) - 1 if self._parts[0] else NEG_INF

    @property
    def lc(self) -> Scalar:
        """Leading coefficient; zero polynomial has lc 0."""
        return self.coeffs[-1] if self._parts[0] else Fraction(0)

    def derivative(self) -> "Poly":
        return self._new(0, [[j * x for j, x in enumerate(part)][1:] for part in self._parts],
                         self._den, self._q)

    def reflect(self) -> "Poly":
        """Substitute var -> -var: every odd-degree coordinate changes sign."""
        return self._new(0, [[-x if j & 1 else x for j, x in enumerate(part)]
                             for part in self._parts], self._den, self._q)

    def compose(self, inner):
        """self(inner), a value in inner's ring (a Poly or a LaurentPoly).

        Horner's rule in integer coordinates: with self = C/dc and
        inner = I/di, T_n = C_n and T_k = T_(k+1)*I + C_k*di^(n-k) give
        self(inner) = T_0 / (dc * di^n).
        """
        c, dc = self._parts, self._den
        if not c[0]:
            return inner._zero()
        if not inner._parts[0]:
            return inner._new(0, [[x[0]] for x in c], dc, self._q)
        q = _radicand(self._q, inner._q)
        r2 = _r2(q)
        b, di = inner._parts, inner._den
        n = len(c[0]) - 1
        acc, lo, scale = [[x[n]] for x in c], 0, 1
        for k in range(n - 1, -1, -1):
            acc, lo, scale = _mul_ints(acc, b, r2), lo + inner.lo, scale * di
            if lo > 0:  # room for the constant term at exponent 0
                acc, lo = [[0] * lo + part for part in acc], 0
            if -lo >= len(acc[0]):
                acc = [part + [0] * (1 - lo - len(part)) for part in acc]
            for part, x in zip(acc, c):
                part[-lo] += x[k] * scale
        return inner._new(lo, acc, dc * scale, q)


class LaurentPoly(_PolyBase):
    """sum coeffs[i] * z**(lo+i); canonical with nonzero end coefficients."""

    __slots__ = ("lo",)

    def __init__(self, lo: int = 0, coeffs: Iterable[Scalar] = (), var: str = "z"):
        self.var = var
        self._set(lo, *_coords(coeffs))

    def _set(self, lo, parts, den, q):
        lead, self._parts, self._den, self._q = _normal(parts, den, q, True)
        self.lo = lo + lead if self._parts[0] else 0
        self._coeffs = None

    @classmethod
    def monomial(cls, k: int, c: Scalar = Fraction(1)) -> "LaurentPoly":
        return cls(k, (c,))

    @property
    def hi(self) -> int:
        return self.lo + len(self._parts[0]) - 1

    def z_inverse(self) -> "LaurentPoly":
        """Substitute z -> 1/z (exact involution)."""
        return self._new(-self.hi, [part[::-1] for part in self._parts], self._den, self._q)


def imag_shift(p: Poly, c) -> Poly:
    """Substitute x -> x + i*c exactly, for a rational c = u/v.

    With d = deg p, v**d * p(x + i*c) = sum_j p_j v**(d-j) (v*x + i*u)**j:
    coefficient j is scaled by v**(d-j), the run is Taylor-shifted by i*u
    (synthetic division, where a product by i maps the coordinate pairs
    (a, b) of a + b*i and of (a + b*i)*r to (-b, a)), coefficient k is
    scaled by v**k and the denominator by v**d.
    """
    c = Fraction(c)
    if not c or not p._parts[0]:
        return p
    u, v = c._numerator, c._denominator
    d = len(p._parts[0]) - 1
    vs = [v ** k for k in range(d + 1)]
    parts = [[x * f for x, f in zip(part, vs[::-1])]
             for part in _widen(p._parts, max(len(p._parts), 2))]
    for re, im in zip(parts[0::2], parts[1::2]):
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                re[j] -= u * im[j + 1]
                im[j] += u * re[j + 1]
    return p._new(0, [[x * f for x, f in zip(part, vs)] for part in parts],
                  p._den * vs[d], p._q)


def laurent_shift(p: LaurentPoly, c, q) -> LaurentPoly:
    """Substitute z -> z*q**c exactly; c may be a half-integer.

    The column of z**e gains q**(c*e) = qn**t * qd**(-t-h) * r**h, where
    2*c*e = 2*t + h with h in {0, 1}: an integer once the least powers of
    qn and qd move to one new numerator and denominator, times r where h is
    1 (an integer too when q is a square).
    """
    c, q = Fraction(c), Fraction(q)
    if c.denominator not in (1, 2):
        raise ConfigurationError("shift step must be integer or half-integer")
    if not p or not c:
        return p
    m = 2 * c.numerator // c.denominator
    qn, qd = q.numerator, q.denominator
    halves = [divmod(m * e, 2) for e in range(p.lo, p.hi + 1)]
    hs = [h for _, h in halves]
    tn = min(t for t, _ in halves)
    td = min(-t - h for t, h in halves)
    num = qn ** max(tn, 0) * qd ** max(td, 0)
    fs = [num * qn ** (t - tn) * qd ** (-t - h - td) for t, h in halves]
    den = p._den * qn ** max(-tn, 0) * qd ** max(-td, 0)
    parts, rq = p._parts, p._q
    r2 = qn * qd
    r = isqrt(r2)
    if r * r == r2:
        fs = [f * r if h else f for f, h in zip(fs, hs)]
    elif any(hs):
        rq = _radicand(rq, q)
        x0, x1, x2, x3 = _widen(parts, 4)  # r*(x0 + x1 i + x2 r + x3 ir)
        parts = [[b * r2 if h else a for a, b, h in zip(x0, x2, hs)],
                 [b * r2 if h else a for a, b, h in zip(x1, x3, hs)],
                 [a if h else b for a, b, h in zip(x0, x2, hs)],
                 [a if h else b for a, b, h in zip(x1, x3, hs)]]
    return p._new(p.lo, [[x * f for x, f in zip(part, fs)] for part in parts], den, rq)


# -- eta reductions ---------------------------------------------------------------

def even_poly_to_eta(p: Poly) -> Poly:
    """Map an even, real-coefficient Poly in x to a Poly in eta = x**2."""
    if p.var != "x":
        raise ConfigurationError("even reduction expects a Poly in x")
    if any(map(any, p._parts[1::2])):
        raise ReductionFailure("x-picture value is not self-conjugate")
    if any(any(part[1::2]) for part in p._parts):
        raise ReductionFailure("x-picture value has odd powers of x")
    return _make(Poly, "eta", 0, [part[::2] for part in p._parts], p._den, p._q)


def laurent_to_eta(p: LaurentPoly) -> Poly:
    """Express a symmetric self-conjugate Laurent value as a Poly in
    eta = (z + 1/z)/2, by peeling leading Chebyshev terms.

    p is self-conjugate (its coefficients conjugated, z -> 1/z, give p back)
    when the run mirrors onto itself with its i and i*r parts negated; then
    p is symmetric under z -> 1/z when those parts are zero."""
    if not p:
        return Poly.zero()
    if p.lo != -p.hi or any(part[::-1] != ([-x for x in part] if k & 1 else part)
                            for k, part in enumerate(p._parts)):
        raise ReductionFailure("x-picture value is not self-conjugate")
    if any(map(any, p._parts[1::2])):
        raise ReductionFailure("x-picture value is not symmetric under z -> 1/z")
    hi = p.hi
    rem = [list(part) for part in p._parts]  # rem[k][hi + e]: coordinate k of z**e
    out = [[0] * (hi + 1) for _ in rem]
    for n in range(hi, 0, -1):
        a = [part[hi + n] for part in rem]
        if not any(a):
            continue
        for part, x in zip(out, a):  # a*(z+1/z)^n = a*2^n*eta^n
            part[n] = x << n
        for j in range(n + 1):  # (z + 1/z)^n = sum_j C(n, j) z^(n-2j)
            b = comb(n, j)
            for part, x in zip(rem, a):
                part[hi + n - 2 * j] -= x * b
        if any(part[hi + n] for part in rem):
            raise ReductionFailure("Chebyshev peel failed to lower degree")
    if any(x for part in rem for k, x in enumerate(part) if k != hi):
        raise ReductionFailure("asymmetric residue after Chebyshev peel")
    for part, res in zip(out, rem):
        part[0] = res[hi]
    return _make(Poly, "eta", 0, out, p._den, p._q)
