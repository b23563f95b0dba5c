"""Exact verification of the recurrence structure of multi-indexed polynomials.

Every check here is an identity between exact polynomials: a failure is a
bug (or a non-generic parameter point), never a tolerance question.  The
central statement is the (3+2M)-term recurrence

    sum_{k=-M-1}^{M+1} R^[M]_{n,k}(eta) P_{D,n+k}(eta) = 0   for all n in Z,

with P_{D,m} = 0 for m < 0.  Rows with n < 0 hold for structural reasons
(the coefficient table vanishes where it must) and are reported with
status "structural"; they are asserted under the default out-of-range
coefficient convention only.  Rows with n >= 0 must also survive the
override probe that redefines B_{-1} := 7, which certifies that the
verified identity does not depend on the convention.

Genericity of a parameter point is an explicit, checkable hypothesis:
the leading recurrence coefficient R^[M]_{n,M+1} (a constant) must be
nonzero and deg P_{D,n} must equal ell + n over the tested range.  The
probe raises GenericityError with a diagnostic instead of letting a
downstream check fail obscurely.

run_all builds the pair (Xi_D, P_{D,n}) and the depth-M table R^[s]_{n,k}
once per (family, D) and hands them to every check.  Level s of that table
is the depth-s table, so the prefix chain reads it too.  Only four objects
are built apart: the override table, which takes from that table every
entry whose recursion misses row -1 and computes the rest, Xi_D alone at
shifted parameters for the seed, the prefix pairs of depth s < M and the
permuted pair, unless the drawn permutation is the identity.

Each check returns one VerificationReport, and the CLI prints it as it is:
one_line() or the stream() rows, and a FAIL verdict from its fields.
rtable-shift and vanishing report the first (s, n, k) violation at each level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ConfigurationError, GenericityError, LeadingCoefficientZero
from .exact import Poly, format_scalar
from .exact.poly import _dot
from .families import FamilyParams, shifted, three_term
from .multiindex import IndexSet, MultiIndexedPair, build, build_xi
from .rtable import (
    RTable,
    build_rtable,
    check_rprop,
    check_rprop2_rprop3,
    check_vanishing_region,
)

IDENTITY_TAGS = (
    "rrp",
    "rrp-override",
    "rtable-shift",
    "vanishing",
    "regeneration",
    "seed-proportionality",
    "prefix-chain",
    "permutation",
    "degrees",
)


@dataclass
class VerificationReport:
    """Outcome of one identity over one index set: per-n rows plus summary."""

    identity: str
    fp: FamilyParams
    D: IndexSet
    n_range: Optional[tuple]
    rows: list = field(default_factory=list)

    def add(self, status: str, n: Optional[int] = None, witness: Optional[str] = None, **extra):
        row = {"n": n, "status": status, "witness": witness}
        row.update(extra)
        self.rows.append(row)

    @property
    def passed(self) -> bool:
        return all(r["status"] != "fail" for r in self.rows)

    @property
    def witness(self) -> Optional[str]:
        for r in self.rows:
            if r["status"] == "fail":
                return r["witness"] if r["n"] is None else f"n={r['n']}: {r['witness']}"
        return None

    def stream(self):
        """One JSON-ready object per check row, deterministic order."""
        base = {
            "identity": self.identity,
            "family": self.fp.family,
            "D": self.D.label(),
        }
        for r in sorted(self.rows, key=lambda r: (r.get("s", -1), r["n"] if r["n"] is not None else -(10**9))):
            obj = dict(base)
            obj.update(r)
            yield obj

    def one_line(self) -> str:
        tail = "" if self.passed else f"  [{self.witness}]"
        rng = f" n={self.n_range[0]}..{self.n_range[1]}" if self.n_range else ""
        head = "PASS" if self.passed else "FAIL"
        return f"{head} {self.identity} {self.fp.family} D={{{self.D.label()}}}{rng}{tail}"


def _first_bad_coeff(p: Poly) -> str:
    for i, c in enumerate(p.coeffs):
        if c:
            return f"eta^{i} coefficient {format_scalar(c)}"
    return "zero"


def _rrp_residual(table: RTable, P_of, M: int, n: int) -> Poly:
    """sum_k R^[M]_{n,k} P_{n+k}, reading each P_m through P_of(m)."""
    return _dot([(table.entry(M, n, k), P_of(n + k)) for k in range(-M - 1, M + 2)])


def shared_objects(fp: FamilyParams, D: IndexSet, n_range: tuple) -> tuple:
    """The pair and the depth-M table that every check of run_all reads.

    The table covers rows min(lo, -M-1)..hi, so the vanishing triangle is
    inside it; the pair reaches n = hi + M + 1 for the recurrence and at
    least n = 3 for the permutation probe.  The table is built first, so a
    singular three-term coefficient is reported at the smallest n where it
    occurs.
    """
    M = D.M
    lo, hi = n_range
    table = build_rtable(fp, M, (min(lo, -M - 1), hi))
    pair = build(fp, D, n_max=max(hi + M + 1, 3))
    return pair, table


def check_rrp(
    pair: MultiIndexedPair, table: RTable, n_range: tuple, identity: str = "rrp"
) -> VerificationReport:
    """The (3+2M)-term recurrence as an exact zero polynomial for each n.

    M is the depth of the pair; the table may be deeper, since its level M
    is the depth-M table.  For M = 0 this is the classical three-term
    recurrence itself.  Rows with n < 0 are reported as "structural" when
    they hold.
    """
    M = pair.D.M
    report = VerificationReport(identity, pair.fp, pair.D, n_range)
    for n in range(n_range[0], n_range[1] + 1):
        res = _rrp_residual(table, pair.P_of, M, n)
        if res.is_zero:
            report.add("structural" if n < 0 else "pass", n=n)
        else:
            report.add("fail", n=n, witness=_first_bad_coeff(res))
    return report


def check_rrp_override(pair: MultiIndexedPair, table: RTable, n_range: tuple) -> VerificationReport:
    """RRP for n >= 0 with the out-of-range convention altered (B_-1 := 7).

    A_-1 = 0 is kept: it is what makes the table, and hence the identity,
    insensitive to the rest of the convention for nonnegative n.  table, the
    depth-M table under the default convention over a window that covers
    n >= 0 of n_range, lends every entry whose recursion misses row -1.
    """
    fp = pair.fp
    window = (max(0, n_range[0]), n_range[1])

    def coeffs(n):
        if n == -1:
            zero = Fraction(0)
            return (zero, Fraction(7), zero)
        return three_term(fp, n)

    override = build_rtable(fp, pair.D.M, window, coeffs=coeffs, base=table)
    return check_rrp(pair, override, window, identity="rrp-override")


def regenerate_from_initial(pair: MultiIndexedPair, table: RTable, N: int) -> VerificationReport:
    """Rebuild P_{D,M+1..N} from the first M+1 members via the recurrence.

    Each step divides by the constant R^[M]_{n,M+1}; a zero there means
    the parameter point is non-generic and raises LeadingCoefficientZero.
    """
    M = pair.D.M
    report = VerificationReport("regeneration", pair.fp, pair.D, (M + 1, N))
    regenerated = {n: pair.P_of(n) for n in range(M + 1)}
    for n in range(0, N - M):
        lead = table.entry(M, n, M + 1)
        if lead.degree > 0:
            raise LeadingCoefficientZero(f"leading entry at n={n} is not constant")
        c = lead(0)
        if not c:
            raise LeadingCoefficientZero(
                f"R^[{M}]_{{{n},{M + 1}}} = 0 at this parameter point"
            )
        # P_{n+M+1} is not regenerated yet, so the residual omits its term
        acc = _rrp_residual(table, lambda m: regenerated.get(m, Poly.zero()), M, n)
        cand = acc * (Fraction(-1) / c)
        regenerated[n + M + 1] = cand
        if cand == pair.P_of(n + M + 1):
            report.add("pass", n=n + M + 1)
        else:
            diff = cand - pair.P_of(n + M + 1)
            report.add("fail", n=n + M + 1, witness=_first_bad_coeff(diff))
    return report


def check_seed_proportionality(pair: MultiIndexedPair) -> VerificationReport:
    """P_{D,0}(eta; lambda) = c * Xi_D(eta; lambda + delta), c recorded."""
    report = VerificationReport("seed-proportionality", pair.fp, pair.D, None)
    xi_s, xi_rad, _ = build_xi(shifted(pair.fp), pair.D)
    p0 = pair.P_of(0)
    if p0.degree != xi_s.degree:
        report.add("fail", witness=f"deg P_0 = {p0.degree} vs deg Xi(shifted) = {xi_s.degree}")
        return report
    c = p0.lc / xi_s.lc
    if not c:
        report.add("fail", witness="proportionality constant is zero")
    elif p0 == xi_s * c:
        note = f"c = {format_scalar(c)}"
        if pair.p_radicand != 1 or xi_rad != 1:
            note += (
                f" (stored-scale; radicands {format_scalar(pair.p_radicand)}"
                f" / {format_scalar(xi_rad)})"
            )
        report.add("pass", witness=note)
    else:
        report.add("fail", witness=_first_bad_coeff(p0 - xi_s * c))
    return report


def check_prefix_chain(pair: MultiIndexedPair, table: RTable, n_range: tuple) -> VerificationReport:
    """RRP at every prefix depth s = 0..M with level s of the depth-M table.

    Level s of the table does not depend on M, so only the prefix pairs
    for s < M are built; s = M reuses the full pair.
    """
    fp, D = pair.fp, pair.D
    report = VerificationReport("prefix-chain", fp, D, n_range)
    for s in range(D.M + 1):
        Ds = D.prefix(s)
        sub_pair = pair if s == D.M else build(fp, Ds, n_max=n_range[1] + s + 1)
        for row in check_rrp(sub_pair, table, n_range).rows:
            report.add(row["status"], n=row["n"], witness=row["witness"], s=s, prefix=Ds.label())
    return report


def check_degrees(pair: MultiIndexedPair, n_range: tuple) -> VerificationReport:
    """deg Xi = ell and deg P_{D,n} = ell + n over the tested range."""
    D = pair.D
    report = VerificationReport("degrees", pair.fp, D, n_range)
    if pair.Xi.degree == D.ell:
        report.add("pass", witness=f"deg Xi = {D.ell}")
    else:
        report.add("fail", witness=f"deg Xi = {pair.Xi.degree}, expected ell = {D.ell}")
    for n in range(max(0, n_range[0]), n_range[1] + 1):
        d = pair.P_of(n).degree
        if d == D.ell + n:
            report.add("pass", n=n)
        else:
            report.add("fail", n=n, witness=f"deg P = {d}, expected {D.ell + n}")
    return report


def genericity_probe(pair: MultiIndexedPair, table: RTable, n_range: tuple) -> None:
    """Abort (GenericityError) unless the parameter point behaves generically.

    Checks the two hypotheses the identity statements rely on: the
    leading table entries R^[M]_{n,M+1} are nonzero constants and the
    degree law deg P_{D,n} = ell + n holds.
    """
    fp, D, M = pair.fp, pair.D, pair.D.M
    lo, hi = max(0, n_range[0]), n_range[1]
    for n in range(lo, hi + 1):
        lead = table.entry(M, n, M + 1)
        if lead.is_zero:
            raise GenericityError(
                f"R^[{M}]_{{{n},{M + 1}}} vanishes at {fp.label()};"
                " pick a different parameter point"
            )
    deg = check_degrees(pair, (lo, hi))
    if not deg.passed:
        raise GenericityError(
            f"degree law fails at {fp.label()} D={{{D.label()}}}:"
            f" {deg.witness}; pick a different parameter point"
        )


def check_permutation(pair: MultiIndexedPair, n_max: int = 3, seed: int = 0) -> VerificationReport:
    """A random column permutation changes the pair by a global sign only;
    the identity permutation (always so at M = 1) compares the pair with itself."""
    fp, D = pair.fp, pair.D
    report = VerificationReport("permutation", fp, D, (0, n_max))
    rng = random.Random(seed)
    perm = list(range(D.M))
    rng.shuffle(perm)
    other = pair if perm == sorted(perm) else build(fp, D.permute(tuple(perm)), n_max=n_max)
    if pair.Xi.lc == other.Xi.lc:
        sign = Fraction(1)
    elif pair.Xi.lc == -other.Xi.lc:
        sign = Fraction(-1)
    else:
        report.add("fail", witness=f"perm {perm}: |leading coefficient| changed")
        return report
    objects = [("Xi", pair.Xi, other.Xi)] + [
        (f"P_{n}", pair.P_of(n), other.P_of(n)) for n in range(n_max + 1)
    ]
    for name, a, b in objects:
        if a == b * sign:
            report.add("pass", witness=f"perm {perm}, sign {'+' if sign > 0 else '-'}1 ({name})")
        else:
            report.add("fail", witness=f"perm {perm}: {name} not matched by global sign")
    return report


def _level_report(identity: str, table: RTable, D: IndexSet, bad: list,
                  fail, ok) -> VerificationReport:
    """One row per level s = 0..M: the first violation (s, n, k, ...) in bad
    at level s, worded by fail, or a pass row worded by ok(s)."""
    report = VerificationReport(identity, table.fp, D, table.window)
    for s in range(table.M + 1):
        first = next((v for v in bad if v[0] == s), None)
        if first is None:
            report.add("pass", s=s, witness=ok(s))
        else:
            report.add("fail", n=first[1], s=s, witness=fail(*first))
    return report


def check_rtable_shift(table: RTable, D: IndexSet) -> VerificationReport:
    """Derivative law of the R-table (L/J) or the two half-shift laws (W/AW).

    Both reduce level s to level s-1, so a single depth-M table exercises
    every level at once; one row per level is reported.
    """
    bad = check_rprop2_rprop3(table) if table.fp.is_difference else check_rprop(table)

    def fail(s, n, k, *law):
        return f"level {s} entry (n={n}, k={k})" + (f" [{law[0]}]" if law else "")

    return _level_report("rtable-shift", table, D, bad, fail,
                         lambda s: f"level {s} reduces to level {s - 1}")


def check_vanishing(table: RTable, D: IndexSet) -> VerificationReport:
    """R^[s]_{n,k} = 0 on the triangle -s-1 <= n <= -1, -n <= k <= s+1,
    which holds 1 + 2 + ... + (s+1) entries at level s."""
    return _level_report("vanishing", table, D, check_vanishing_region(table),
                         lambda s, n, k: f"nonzero entry at level {s}, (n={n}, k={k})",
                         lambda s: f"{(s + 1) * (s + 2) // 2} entries vanish at level {s}")


def run_all(
    fp: FamilyParams,
    D: IndexSet,
    n_range: tuple,
    seed: int = 0,
    identities: Optional[list] = None,
) -> list:
    """All identity checks for one (fp, D), preceded by the genericity probe."""
    wanted = identities or list(IDENTITY_TAGS)
    if n_range[1] < 0:
        raise ConfigurationError(f"--n-range upper end must be >= 0, got {n_range[1]}")
    pair, table = shared_objects(fp, D, n_range)
    genericity_probe(pair, table, n_range)
    reports = []
    if "rrp" in wanted:
        reports.append(check_rrp(pair, table, n_range))
    if "rrp-override" in wanted:
        reports.append(check_rrp_override(pair, table, n_range))
    if "rtable-shift" in wanted:
        reports.append(check_rtable_shift(table, D))
    if "vanishing" in wanted:
        reports.append(check_vanishing(table, D))
    if "regeneration" in wanted:
        reports.append(regenerate_from_initial(pair, table, max(n_range[1], D.M + 1)))
    if "seed-proportionality" in wanted:
        reports.append(check_seed_proportionality(pair))
    if "prefix-chain" in wanted:
        reports.append(check_prefix_chain(pair, table, n_range))
    if "permutation" in wanted:
        reports.append(check_permutation(pair, seed=seed))
    if "degrees" in wanted:
        reports.append(check_degrees(pair, n_range))
    reports.sort(key=lambda r: (r.fp.family, r.D.label(), r.identity))
    return reports
