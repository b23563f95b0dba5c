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
Poly's remainder %), composition (Horner's rule), its inverse uncompose
(a value read back as a polynomial in eta) and the derivative.  `coeffs`
views each column as its canonical scalar (Fraction over Q,
GaussianRational across a run with any i part) on first use, and
format_coeffs prints a run, a rational one straight from its integers.
Mixing the two carriers, two variables or two radicands raises
ConfigurationError.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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
    or a scalar; a rational b may also be an (n, d) pair of ints, d > 0,
    read as n/d with no Fraction formed.  A product takes one of two lanes.
    The rational lane takes a pair of width-1 runs (no i or sqrt(q) part,
    a rational b included, read in place): its product is one _conv, or
    none where one side has a single entry, which then rides in the term's
    alignment multiplier.  Every other product takes the tower path,
    _mul_ints over the basis (1, i, r, i*r).  A sum of rational terms alone is aligned in
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
        if type(b) is int or type(b) is Fraction or type(b) is tuple:  # a rational, read in place
            n, d = b if type(b) is tuple else b.as_integer_ratio()
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


# -- text ---------------------------------------------------------------------------

def format_coeffs(p) -> list:
    """format_scalar of each coefficient of p, lowest first.  A rational run
    is read from its integer coordinates, one gcd per coefficient and no
    Fraction; a tower run formats its canonical scalars."""
    parts, den = p._parts, p._den
    if len(parts) > 1:
        return [format_scalar(c) for c in p.coeffs]
    out = []
    for x in parts[0]:
        g = gcd(x, den)
        out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return out


# -- the inverse of composition ---------------------------------------------------

@lru_cache(maxsize=256)
def _sparse_powers(inner, n: int) -> tuple:
    """pows[k], k = 0..n: the nonzero (exponent, entry) pairs of I^k, for a
    rational inner = I/d; kept per (inner, n), since reduce_to_eta passes
    one eta_x value per point."""
    pairs = [(e, x) for e, x in enumerate(inner._parts[0], inner.lo) if x]
    pows = [((0, 1),)]
    for _ in range(n):
        acc = {}
        for e, x in pows[-1]:
            for s, y in pairs:
                acc[e + s] = acc.get(e + s, 0) + x * y
        pows.append(tuple(t for t in acc.items() if t[1]))
    return tuple(pows)


def uncompose(p, inner) -> Poly:
    """The Poly f in eta with real coefficients and f.compose(inner) == p.

    inner is rational, I/d with I led by lead = +-1 at exponent h >= 1.  Each
    coordinate of p = P/dp is peeled from the top: with inner^k = I^k/d^k
    (its nonzero (exponent, entry) pairs), the entry c left at exponent k*h
    gives f_k = c * lead^k * d^k / dp, and c * lead^k * I^k leaves the run.
    An i or i*r coordinate in p, or a remainder (p is no polynomial in
    inner), raises ReductionFailure.
    """
    run = inner._parts
    h = inner.lo + len(run[0]) - 1
    if len(run) != 1 or h < 1 or run[0][-1] not in (1, -1):
        raise ConfigurationError("uncompose needs a rational inner value led by +-1 at h >= 1")
    p = inner._operand(p)
    if any(map(any, p._parts[1::2])):
        raise ReductionFailure("value is not real in eta")
    lead, d, top = run[0][-1], inner._den, p.lo + len(p._parts[0]) - 1
    n = max(top // h, 0)
    pows = _sparse_powers(inner, n)
    lo = min(p.lo, 0, n * inner.lo)
    out = [[0] * (n + 1) for _ in p._parts]
    for part, f in zip(p._parts, out):
        rem = [0] * (p.lo - lo) + part + [0] * (max(top, 0) - top)
        lk, dk = lead ** n, d ** n
        for k in range(n, -1, -1):
            c = rem[k * h - lo]
            if c:
                f[k] = c * lk * dk
                c *= lk
                for e, y in pows[k]:
                    rem[e - lo] -= c * y
            lk, dk = lk * lead, dk // d
        if any(rem):
            raise ReductionFailure("value is not a polynomial in eta")
    return _make(Poly, "eta", 0, out, p._den, p._q)
