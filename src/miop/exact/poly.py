"""Dense exact polynomials in one variable, plus Laurent polynomials in z.

Both carriers share one ring core, _PolyBase, and store the coefficient
run in the canonical integer form of exact.scalars, which owns the format
and its kernel: `_parts[k][j] / _den` is coordinate k of the coefficient of
var**(lo+j), so equality and hashing compare coordinates.  Poly fixes
lo = 0 as a class constant and is used in "eta" and "x"; LaurentPoly
stores its own lo, for z = e^{ix} expressions, and strips zero columns at
both ends.  The zero polynomial is one empty column (degree NEG_INF for
Poly, lo = 0 for LaurentPoly).  Values are immutable.

A tower scalar is one column of the same form, read as a run of length
one.  Every ring operation works on the integers: sums of products,
aligned on one common denominator and made canonical once (_dot; a
product is the one-term case, a sum or difference the two-term case with
factors 1 and +-1), in two lanes: the rational lane, where both factors
are width-1 runs (or one is an int or Fraction) and a sum of such
products is one integer pass, and the tower path over the basis
(1, i, r, i*r) for the rest.  A rational-lane result has the same
canonical (parts, den, q) as the tower path's.  Then powers, division
(one pseudo-division after clearing the conjugates of the divisor's
leading coefficient, as scalar division does, serves both exact_div and
Poly's remainder %), composition (Horner's rule), the derivative, the
x-picture shifts x -> x + i*c (an integer Taylor shift) and z -> z*q**c
and the reductions to eta.  `coeffs` views each column as its canonical
scalar (Fraction over Q, GaussianRational across a run with any i part)
on first use.  Mixing the two carriers, two variables or two radicands
raises ConfigurationError.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from typing import Iterable

from ..errors import ConfigurationError, InexactDivision, ReductionFailure
from .scalars import (_F0, _TIMES, Scalar, _Tower, _align, _clear_conjugates, _column, _conv,
                      _mul_ints, _normal, _r2, _radicand, _view, format_scalar, power)

NEG_INF = float("-inf")


# -- scalars in and out ------------------------------------------------------------

def _coords(run: Iterable[Scalar]) -> tuple:
    """(parts, den, q) of a coefficient run, not yet in canonical form.

    A run of ints and Fractions takes one lcm and one pass; any other run
    is aligned column by column.
    """
    run = tuple(run)
    if all(type(c) is int or type(c) is Fraction for c in run):
        den = lcm(*[c.denominator for c in run])
        return [[c.numerator * (den // c.denominator) for c in run]], den, None
    terms = []
    for j, c in enumerate(run):
        col = _column(c)
        if col is None:
            raise ConfigurationError(f"cannot hold {type(c).__name__} in a polynomial")
        terms.append((j, *col))
    return _align(terms)[1:]


def _from_ints(parts, den: int, q) -> list:
    """The coefficient run whose coordinates are parts / den (den > 0): the
    canonical scalar of each column, a GaussianRational across a width-2 run."""
    if len(parts) == 1:  # the rational layer: one Fraction per coefficient
        return [Fraction(x, den) if x else _F0 for x in parts[0]]
    level = len(parts) == 2
    return [_view([[x] for x in col], den, q, level) for col in zip(*parts)]


def _widen(parts: list, width: int) -> list:
    return parts + [[0] * len(parts[0]) for _ in range(width - len(parts))]


def _make(cls, var: str, lo: int, parts: list, den: int, q):
    """A cls value in var from coordinates parts/den starting at exponent lo."""
    out = object.__new__(cls)
    out.var = var
    out._set(lo, parts, den, q)
    return out


def _dot(terms) -> "_PolyBase":
    """sum a*b over the pairs (a, b) of terms, a nonempty iterable.

    Every a is a value of one carrier ring and every b a value of that ring
    or a scalar.  A product takes one of two lanes.  The rational lane
    takes a pair of width-1 runs (no i or sqrt(q) part, an int or Fraction
    b included, read in place): its product is one _conv, or none where
    one side has a single entry, which then rides in the term's alignment
    multiplier.  Every other product takes the tower path, _mul_ints over
    the basis (1, i, r, i*r).  A sum of rational terms alone is aligned in
    one integer pass; otherwise they join the tower terms in _align.  The
    result is made canonical once, so it has the same (parts, den, q)
    whichever lane each of its terms took.
    """
    ring, rats, prods = None, [], []
    for a, b in terms:
        if ring is None:
            ring, cls, var = a, type(a), a.var
        if type(a) is not cls or a.var != var:
            a = ring._operand(a)
        aparts = a._parts
        if type(b) is int or type(b) is Fraction:  # a rational scalar, read in place
            n, d = b.as_integer_ratio()
            if not (n and aparts[0]):
                continue
            if len(aparts) == 1:
                rats.append((a.lo, aparts[0], a._den * d, n))
                continue
            blo, bparts, bden, bq = 0, [[n]], d, None
        elif isinstance(b, _PolyBase):
            if type(b) is not cls or b.var != var:
                b = ring._operand(b)
            blo, bparts, bden, bq = b.lo, b._parts, b._den, b._q
        else:
            blo, (bparts, bden, bq) = 0, _column(b)
        if not (aparts[0] and bparts[0]):
            continue
        lo, den = a.lo + blo, a._den * bden
        if len(aparts) == 1 and len(bparts) == 1:  # (lo, run, den, multiplier)
            x, y = aparts[0], bparts[0]
            if len(y) == 1:
                rats.append((lo, x, den, y[0]))
            elif len(x) == 1:
                rats.append((lo, y, den, x[0]))
            else:
                rats.append((lo, _conv(x, y), den, 1))
        else:
            q = _radicand(a._q, bq)
            prods.append((lo, _mul_ints(aparts, bparts, _r2(q)), den, q))
    if not prods:
        if len(rats) == 1:
            lo, run, den, m = rats[0]
            return ring._new(lo, [run if m == 1 else [x * m for x in run]], den, None)
        if not rats:
            return ring._new(0, [[]], 1, None)
        lo = min(t[0] for t in rats)
        den = lcm(*[t[2] for t in rats])
        out = [0] * (max(t[0] + len(t[1]) for t in rats) - lo)
        for tlo, run, d, m in rats:
            m *= den // d
            for j, x in enumerate(run, tlo - lo):
                out[j] += x * m
        return ring._new(lo, [out], den, None)
    for lo, run, den, m in rats:
        prods.append((lo, [run if m == 1 else [x * m for x in run]], den, None))
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

    def _operand(self, other):
        """other as an element of self's ring, or None if it is not one."""
        if type(other) is type(self) and other.var == self.var:
            return other
        col = _column(other)
        if col is not None:
            return self._new(0, *col)
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
            col = _column(other)
            if col is None:
                return NotImplemented
            other = self._new(0, *col)
        return (self.lo == other.lo and self.var == other.var and self._den == other._den
                and self._q == other._q and self._parts == other._parts)

    def __hash__(self):
        return hash((self.var, self.lo, self._den, self._q, tuple(map(tuple, self._parts))))

    def __bool__(self):
        return bool(self._parts[0])

    # -- ring ops --------------------------------------------------------------
    def __add__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return _dot([(self, 1), (other, 1)])

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.lo, [[-x for x in part] for part in self._parts],
                         self._den, self._q)

    def __sub__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return _dot([(self, 1), (other, -1)])

    def __rsub__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return _dot([(self, -1), (other, 1)])

    def __mul__(self, other):
        if isinstance(other, (_PolyBase, int, Fraction, _Tower)):
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
    def _divide(self, den) -> tuple:
        """(Q, R) for a nonzero den of self's ring: Q is the quotient of self
        by den over the tower field, and R holds integer coordinates that
        are zero exactly when den divides self.

        Both runs are multiplied by the sqrt(q)- and then the i-conjugate of
        den's leading coefficient until that coefficient is an integer L;
        integer pseudo-division then gives S*A = Q*B + R with S a product of
        divisors of L, and the quotient is Q * d_B / (S * d_A).
        """
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._parts[0]:
            return self, self._parts
        q = _radicand(self._q, den._q)
        r2 = _r2(q)
        width = max(len(self._parts), len(den._parts))
        rem = _widen([list(part) for part in self._parts], width)
        b = _widen(den._parts, width)
        rem, b = _clear_conjugates(rem, b, r2)
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
        db = den._den
        quot = [[x * db for x in part] for part in quot]
        return self._new(self.lo - den.lo, quot, scale * self._den, q), rem

    def exact_div(self, den):
        """self / den; InexactDivision if den does not divide self."""
        den = self._operand(den)
        quot, rem = self._divide(den)
        if any(map(any, rem)):
            rdeg = max(i for part in rem for i, x in enumerate(part) if x)
            raise InexactDivision(
                f"nonzero remainder of degree {rdeg} dividing "
                f"deg {len(self._parts[0]) - 1} by deg {len(den._parts[0]) - 1}")
        return quot

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

    def __mod__(self, den) -> "Poly":
        """The remainder of self by den over the tower field, of degree below den's."""
        den = self._operand(den)
        return self - self._divide(den)[0] * den

    def derivative(self) -> "Poly":
        return self._new(0, [[j * x for j, x in enumerate(part)][1:] for part in self._parts],
                         self._den, self._q)

    def compose(self, inner):
        """self(inner), a value in inner's ring (a Poly or a LaurentPoly).

        Horner's rule in integer coordinates: with self = C/dc and
        inner = I/di, T_n = C_n and T_k = T_(k+1)*I + C_k*di^(n-k) give
        self(inner) = T_0 / (dc * di^n).
        """
        c, dc = self._parts, self._den
        if not c[0]:
            return inner._new(0, [[]], 1, None)
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
