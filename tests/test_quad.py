"""Tests for the float backend: weights, quadrature, norms, orthogonality."""

import math
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miop import quad
from miop.errors import ConfigurationError, FloatRangeError, MiopError, NonConvergent, PoleEncountered
from miop.exact import Poly
from miop.families import PRESETS, FamilyParams, energy, twisted, virtual_energy
from miop.multiindex import IndexSet, build
from miop.quad import (
    DIFFERENCE_ORTHO_PRESETS,
    FloatPoly,
    QuadratureSpec,
    Weight,
    classical_norm,
    expected_norm,
    integrate_gl,
    integrate_ts,
    ortho_grid,
    orthogonality_check,
    pairwise_sum,
)

from .oracles import (node_weight, ortho_grid_scalar, pairwise_sum_list, phi0_sq_mpmath,
                      pole_scan, real_root_count)
from .strategies import family_params, index_sets, polys

EMPTY = IndexSet.parse("")


class TestFloatPoly:
    def test_mirrors_exact(self):
        p = Poly([F(1, 3), F(-2), F(5, 7)])
        fpoly = FloatPoly.from_exact(p)
        assert fpoly(0.0) == pytest.approx(1 / 3, rel=1e-15)
        assert fpoly(2.0) == pytest.approx(1 / 3 - 4 + 20 / 7, rel=1e-14)

    def test_compensated_horner_beats_naive(self):
        # (x-1)^4 evaluated just off 1: condition number ~1e17, so plain
        # Horner loses every digit while the compensated loop keeps ~1e-12.
        coeffs = [F(1), F(-4), F(6), F(-4), F(1)]
        x = 1.0001
        exact = float((F(x) - 1) ** 4)
        fpoly = FloatPoly.from_exact(Poly(list(coeffs)))
        naive = 0.0
        for c in reversed(coeffs):
            naive = naive * x + float(c)
        assert abs(fpoly(x) - exact) <= 1e-12 * abs(exact)
        assert abs(naive - exact) > 1e-4 * abs(exact)

    @given(polys(max_deg=6), st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40))
    @example(Poly([F(5, 2)]), [1.0, -3.0])
    @settings(max_examples=60, deadline=None)
    def test_array_matches_scalar_calls(self, p, xs):
        # the compensated loop uses only +, - and *, which numpy rounds as Python does
        fpoly = FloatPoly.from_exact(p)
        got = fpoly(np.array(xs))
        if len(fpoly.coeffs) == 1:
            # a constant never meets x: the array call returns the scalar itself
            assert type(got) is float and got.hex() == fpoly(xs[0]).hex()
        else:
            assert [v.hex() for v in got.tolist()] == [fpoly(x).hex() for x in xs]


class TestPairwiseSum:
    def test_matches_fsum_and_is_deterministic(self):
        vals = [((-1) ** k) * (1.0 + k) * 10.0 ** ((k * 7) % 13) for k in range(200)]
        total = pairwise_sum(vals)
        assert total == pairwise_sum(list(vals))
        assert total == pytest.approx(math.fsum(vals), rel=1e-12)

    def test_small_lists(self):
        assert pairwise_sum([]) == 0.0
        assert pairwise_sum([3.5]) == 3.5
        assert pairwise_sum([1.0, 2.0, 3.0, 4.0]) == 10.0

    def test_array_halving_matches_list_pairing(self):
        # every length up to 257 pairs and carries as the list version does, bit for bit
        rng = np.random.default_rng(15)
        for n in range(258):
            vals = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)).tolist()
            got = pairwise_sum(np.array(vals))
            assert type(got) is float and got.hex() == pairwise_sum_list(vals).hex(), n


class TestQuadratureSpec:
    @pytest.mark.parametrize("bad", [{"nodes": 0}, {"nodes": -3}, {"rtol": 0.0},
                                     {"rtol": -1e-9}, {"max_levels": 0}, {"rtol": math.inf}])
    def test_nonpositive_contract_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            QuadratureSpec(**bad)

    def test_doubling_contract_reported(self):
        spec = QuadratureSpec(nodes=8, rtol=1e-12)
        res = integrate_gl(np.cos, 0.0, 1.0, spec)
        assert res.value == pytest.approx(math.sin(1.0), rel=1e-14)
        assert res.err_estimate <= spec.rtol * abs(res.value)

    def test_nonconvergent_when_levels_exhausted(self):
        spec = QuadratureSpec(nodes=2, rtol=1e-15, max_levels=1)
        with pytest.raises(NonConvergent):
            integrate_gl(lambda x: np.exp(-x) * np.sin(40 * x), 0.0, 6.0, spec)

    def test_gauss_legendre_order_capped(self, monkeypatch):
        # a non-settling integral stops before an order above MAX_NODES
        orders = []

        def fake_leggauss(n):
            orders.append(n)
            return np.array([0.0]), np.array([float(n)])

        monkeypatch.setattr(quad, "_leggauss", fake_leggauss)
        with pytest.raises(NonConvergent, match="8192"):
            integrate_gl(np.cos, 0.0, 1.0, QuadratureSpec(nodes=3000))
        assert orders == [3000, 6000]
        orders.clear()
        with pytest.raises(NonConvergent, match="8192"):  # one level alone cannot settle
            integrate_gl(np.cos, 0.0, 1.0, QuadratureSpec(nodes=5000))
        assert orders == []
        with pytest.raises(ConfigurationError, match="8192"):
            QuadratureSpec(nodes=quad.MAX_NODES + 1)

    def test_tanh_sinh_gaussian(self):
        spec = QuadratureSpec(rtol=1e-12)
        res = integrate_ts(lambda x: np.exp(-x * x), 0.0, 12.0, spec)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)

    @pytest.mark.parametrize("f", [lambda x: np.full_like(x, np.inf), lambda x: np.log(x - 0.5),
                                   lambda x: 1e300 * np.exp(x) * 1e300])
    def test_non_finite_integrand_raises(self, f, recwarn):
        # an inf, a nan or an overflow is reported as such, with no numpy warning
        with pytest.raises(FloatRangeError, match="binary64"):
            integrate_gl(f, 0.0, 1.0, QuadratureSpec(nodes=8))
        assert not recwarn.list


def weight_of(fp, D, n_max=0):
    return Weight(build(fp, D, n_max=n_max))


class TestWeight:
    def test_laguerre_frozen_point(self):
        fp = FamilyParams("L", (F(3, 2),))
        assert node_weight(weight_of(fp, EMPTY), np.array([1.0]))[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_deformed_laguerre_positive_on_interval(self):
        fp = PRESETS["l-default"]
        w = weight_of(fp, IndexSet.parse("I1"))
        assert (node_weight(w, 0.2 * np.arange(1, 60)) > 0.0).all()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_weight_names_family_and_abscissa(self, value):
        weight = weight_of(PRESETS["w-default"], EMPTY)
        weight.phi0_sq = lambda x: value if x > 2.0 else 1.0
        with pytest.raises(FloatRangeError, match=r"W weight is not finite at x = 2\.5$"):
            node_weight(weight, np.array([1.5, 2.5, 3.5]))

    def test_pole_refused(self):
        # Xi_D has a root inside the eta-domain: the weight must refuse rather than integrate
        for fp, root in ((FamilyParams("L", (F(7, 6),)), F(1, 3)),
                         (FamilyParams("J", (F(11, 10), F(3))), F(31, 39))):
            pair = build(fp, IndexSet.parse("II1"), n_max=0)
            assert pair.Xi(root) == 0
            with pytest.raises(PoleEncountered):
                Weight(pair)

    @pytest.mark.parametrize("a", [
        (F(2), F(7, 4), F(8, 5), F(17, 10)),
        (F(1), F(7, 3), F(7), F(7, 3)),
    ], ids=["2,7/4,8/5,17/10", "1,7/3,7,7/3"])
    def test_pole_free_wilson_accepted(self, a):
        # the shift-product denominator spans more than 12 decades over the
        # integration interval but has no root on eta > 0
        for n, m, integral, expected, rel in ortho_grid(FamilyParams("W", a), IndexSet.parse("I1,II1"), 2):
            assert rel < (1e-7 if n == m else 1e-8), (n, m, integral, expected)

    @given(family_params(), st.sampled_from(["I1", "II1", "I1,II1", "I1,I2"]))
    @settings(max_examples=40, deadline=None)
    def test_sturm_count_against_scan_and_polyroots(self, fp, label):
        try:
            pair = build(fp, IndexSet.parse(label), n_max=1)
        except MiopError:
            return
        den = quad._denominator(pair)
        try:
            Weight(pair)
            refused = False
        except PoleEncountered:
            refused = True
        if refused:
            # the float scan over the widest interval refuses every point the count refuses
            with pytest.raises(PoleEncountered):
                pole_scan(den, quad._eta_of_x(fp), *quad._interval(fp, pair.D, 1, 1))
        lo, hi = quad._ETA_DOMAIN[fp.family]
        if den.is_zero or den(lo) == 0 or (hi is not None and den(hi) == 0):
            assert refused
            return
        count = quad._sturm_count(den, lo, hi)
        assert count == real_root_count(den, lo, hi)
        assert refused == (count > 0)


def abscissas(fp, D, n):
    """The abscissas of entry (n, n)'s first two node-doubling levels."""
    xs = []

    def record(x):
        xs.extend(x.tolist())
        return 0.0

    # a zero integrand settles at the second level
    integrate = quad.integrate_ts if fp.family == "W" else quad.integrate_gl
    integrate(record, *quad._interval(fp, D, n, n), QuadratureSpec())
    return xs


def kernel_and_oracle(fp, D):
    """phi_0^2 at the twisted point of (fp, D): the binary64 kernel and the mpmath oracle."""
    twist = twisted(fp, D.M1, D.M2)
    return quad._phi0_sq(twist), phi0_sq_mpmath(twist)


KERNEL_POINTS = [(FamilyParams(fam, lam, q=q), label) for fam, lam, q, label in DIFFERENCE_ORTHO_PRESETS]
KERNEL_POINTS.append((PRESETS["aw-q13"], "II1"))
# negative a_j, one of them above 1/2 in size, outside the AW range
KERNEL_POINTS.append((FamilyParams("AW", (F(-1, 2), F(1, 3), F(-3, 4), F(1, 5)), q=F(1, 3),
                                   check_range=False), "II1"))
KERNEL_IDS = [f"{fam}-{label}" for fam, _, _, label in DIFFERENCE_ORTHO_PRESETS]
KERNEL_IDS += ["aw-q13-II1", "AW-negative-II1"]


class TestDifferenceKernels:
    @pytest.mark.parametrize("fp,label", KERNEL_POINTS, ids=KERNEL_IDS)
    def test_matches_mpmath_at_nodes(self, fp, label):
        D = IndexSet.parse(label)
        kernel, oracle = kernel_and_oracle(fp, D)
        for x in abscissas(fp, D, 2):
            assert kernel(x) == pytest.approx(oracle(x), rel=1e-12, abs=0), x

    @pytest.mark.parametrize("fp,label", KERNEL_POINTS, ids=KERNEL_IDS)
    def test_finite_on_widest_interval(self, fp, label):
        D = IndexSet.parse(label)
        kernel = quad._phi0_sq(twisted(fp, D.M1, D.M2))
        for x in abscissas(fp, D, 12):
            assert 0.0 <= kernel(x) < math.inf, x

    @given(family_params(("W", "AW")), st.sampled_from(["I1", "II1", "I1,II1"]))
    @settings(max_examples=16, deadline=None)
    def test_matches_mpmath_at_random_points(self, fp, label):
        # twisted a_j may be negative, a nonpositive integer (W) or carry sqrt(q) (AW)
        D = IndexSet.parse(label)
        kernel, oracle = kernel_and_oracle(fp, D)
        for x in abscissas(fp, D, 12):
            assert 0.0 <= kernel(x) < math.inf, x
        # the oracle meets the pole of Gamma(a_j) at x = 0 when a_j is 0, -1, ...
        for x in [x for x in abscissas(fp, D, 2) if x > 0.0][::12]:
            assert kernel(x) == pytest.approx(oracle(x), rel=1e-12, abs=0), x

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gamma_pole_matches_closed_form(self, m):
        # Gamma(-m) is a pole, |Gamma(-m + ix)|^2 = pi / (x sinh(pi x) prod_{k<=m} (k^2 + x^2)) is not
        log_gamma_sq = quad._log_gamma_sq(float(-m))
        for x in (0.05 * k for k in range(1, 200)):
            ref = math.pi / (x * math.sinh(math.pi * x) * math.prod(k * k + x * x for k in range(1, m + 1)))
            assert math.exp(log_gamma_sq(x)) == pytest.approx(ref, rel=1e-14, abs=0), x

    def test_node_weight_makes_no_mpmath_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath Gamma or q-product on the weight path")

        monkeypatch.setattr(mpmath, "gamma", refuse)
        monkeypatch.setattr(quad, "_qpoch_inf", refuse)
        for fp, label in (KERNEL_POINTS[0], KERNEL_POINTS[3]):
            D = IndexSet.parse(label)
            weight = weight_of(fp, D, n_max=1)
            assert (node_weight(weight, np.array(abscissas(fp, D, 1))) >= 0.0).all()


class TestClassicalNorms:
    def test_laguerre_h0_frozen(self):
        assert classical_norm(FamilyParams("L", (F(3, 2),)), 0) == pytest.approx(0.5, rel=1e-14)

    def test_jacobi_h0_gamma_formula(self):
        fp = PRESETS["j-default"]
        g, h = [float(v) for v in fp.lam]
        ref = (
            mpmath.gamma(g + 0.5)
            * mpmath.gamma(h + 0.5)
            / (2 * (g + h) * mpmath.gamma(g + h))
        )
        assert classical_norm(fp, 0) == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.parametrize("key", ["l-default", "j-default"])
    def test_classical_quadrature_norms(self, key):
        w = weight_of(PRESETS[key], EMPTY, n_max=8)
        for n in range(9):
            integral, expected, rel = orthogonality_check(w, n, n)
            assert rel < 1e-9, (key, n, integral, expected)

    @pytest.mark.parametrize("key", ["w-default", "aw-default"])
    def test_difference_quadrature_norms(self, key):
        w = weight_of(PRESETS[key], EMPTY, n_max=3)
        for n in range(4):
            integral, expected, rel = orthogonality_check(w, n, n)
            assert rel < 1e-10, (key, n, integral, expected)

    def test_classical_offdiagonal(self):
        for key in ("l-default", "j-default"):
            _, _, rel = orthogonality_check(weight_of(PRESETS[key], EMPTY, n_max=4), 1, 4)
            assert rel < 1e-10


class TestExpectedNorm:
    def test_single_deletion_product(self):
        fp = PRESETS["l-default"]  # g = 7/3
        D = IndexSet.parse("I1")
        gap = energy(fp, 1) - virtual_energy(fp, D.entries[0])
        g = F(7, 3)
        assert gap == 4 + 4 * (g + 1 + F(1, 2))
        assert expected_norm(fp, D, 1) == pytest.approx(
            float(gap) * classical_norm(fp, 1), rel=1e-14
        )

    def test_empty_set_reduces_to_classical(self):
        fp = PRESETS["j-default"]
        assert expected_norm(fp, EMPTY, 3) == classical_norm(fp, 3)


class TestDeformedOrthogonality:
    # Virtual energies must stay below the ground state (type I: h > v + 1/2
    # for J, any v for L; type II: g > v + 1/2), so the v = 2 rows move h or g
    # above 5/2 where the defaults sit below it.
    @pytest.mark.parametrize(
        "fp,label",
        [
            (PRESETS["l-default"], "I1"),
            (PRESETS["l-default"], "II1"),
            (PRESETS["l-default"], "I1,I2"),
            (PRESETS["l-default"], "I1,II1"),
            (PRESETS["j-default"], "I1"),
            (FamilyParams("J", (F(11, 4), F(9, 4))), "II2"),
            (FamilyParams("J", (F(7, 3), F(11, 4))), "I1,I2"),
            (PRESETS["j-default"], "I1,II1"),
        ],
    )
    def test_lj_product_formula(self, fp, label):
        w = weight_of(fp, IndexSet.parse(label), n_max=4)
        diag = {}
        for n in range(3):
            integral, expected, rel = orthogonality_check(w, n, n)
            assert rel < 1e-7, (fp.family, label, n, integral, expected)
            diag[n] = integral
        for n, m in [(0, 1), (0, 2), (1, 2)]:
            integral, _, rel = orthogonality_check(w, n, m)
            assert rel < 1e-8, (fp.family, label, n, m, integral)

    def test_difference_presets(self):
        # Shipped parameter points where the deformed W/AW weight carries no
        # discrete mass, so the continuous integral equals the full norm.
        for fam, lam, q, label in DIFFERENCE_ORTHO_PRESETS:
            w = weight_of(FamilyParams(fam, lam, q=q), IndexSet.parse(label), n_max=2)
            for n in range(2):
                integral, expected, rel = orthogonality_check(w, n, n)
                assert rel < 1e-10, (fam, label, n, integral, expected)
            _, _, rel = orthogonality_check(w, 0, 2)
            assert rel < 1e-10, (fam, label, "offdiag")

    def test_missing_bound_state_is_detected_as_deficit(self):
        # At these parameters the type-I deformation owns a bound state
        # outside the continuous band; the continuous integral must fall
        # short of the product formula by a visible margin (not fail noisily).
        fp = FamilyParams("AW", (F(1, 4), F(1, 5), F(1, 3), F(1, 2)), q=F(1, 4))
        integral, expected, rel = orthogonality_check(weight_of(fp, IndexSet.parse("I1")), 0, 0)
        assert rel > 1e-3
        assert integral < expected


class TestOrthoGrid:
    def test_grid_shape_and_pass(self):
        rows = ortho_grid(PRESETS["l-default"], IndexSet.parse("I1"), 2)
        assert len(rows) == 6
        for n, m, integral, expected, rel in rows:
            assert rel < (1e-7 if n == m else 1e-8)

    def test_builds_pair_weight_and_scan_once(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("build", "Weight", "_check_no_pole", "expected_norm"):
            monkeypatch.setattr(quad, name, counting(name, getattr(quad, name)))
        fp, D = PRESETS["l-default"], IndexSet.parse("I1,II1")
        rows = quad.ortho_grid(fp, D, 2)
        assert len(rows) == 6
        # one norm per n, shared by the diagonal entry and every off-diagonal one
        assert counts == {"build": 1, "Weight": 1, "_check_no_pole": 1, "expected_norm": 3}
        # the tanh-sinh node tables are built once per process
        misses = quad._ts_nodes.cache_info().misses
        assert quad.ortho_grid(fp, D, 2) == rows
        assert quad._ts_nodes.cache_info().misses == misses

    @pytest.mark.parametrize("fp,label,n_max", [
        (PRESETS["l-default"], "I1,II1", 2),
        (FamilyParams("W", DIFFERENCE_ORTHO_PRESETS[0][1]), "I1", 1),
    ], ids=["L", "W"])
    def test_each_node_evaluated_once(self, monkeypatch, fp, label, n_max):
        # phi_0^2 runs once per distinct abscissa the integrands receive, across
        # entries and node-doubling levels; each P_n is mirrored to float once
        weight_calls, abscissas, mirrored = Counter(), set(), []

        def counting_phi0_sq(fp):
            phi0_sq = phi0_sq_of(fp)

            def wrapper(x):
                weight_calls[x] += 1
                return phi0_sq(x)
            return wrapper

        def recording(integrate):
            def wrapper(f, *args, **kwargs):
                def g(x):
                    abscissas.update(x.tolist())
                    return f(x)
                return integrate(g, *args, **kwargs)
            return wrapper

        def counting_from_exact(p):
            mirrored.append(p)
            return from_exact(p)

        phi0_sq_of, from_exact = quad._phi0_sq, FloatPoly.from_exact
        monkeypatch.setattr(quad, "_phi0_sq", counting_phi0_sq)
        for name in ("integrate_ts", "integrate_gl"):
            monkeypatch.setattr(quad, name, recording(getattr(quad, name)))
        monkeypatch.setattr(FloatPoly, "from_exact", counting_from_exact)
        rows = quad.ortho_grid(fp, IndexSet.parse(label), n_max)
        assert len(rows) == (n_max + 1) * (n_max + 2) // 2
        assert set(weight_calls) == abscissas
        assert set(weight_calls.values()) == {1}
        # the Xi denominator, then P_0 .. P_{n_max} once each
        pair = build(fp, IndexSet.parse(label), n_max=n_max)
        assert mirrored[1:] == [pair.P_of(n) for n in range(n_max + 1)]


class _WeightReached(Exception):
    pass


class TestAdmissibility:
    @given(family_params(("L", "J")), index_sets(max_m=4))
    @example(FamilyParams("J", (F(1), F(6, 5))), IndexSet.parse("I1,II1"))
    @example(FamilyParams("J", (F(2), F(1))), IndexSet.parse("I1,I2"))
    @example(FamilyParams("L", (F(1),)), IndexSet.parse("II1,II2"))
    @settings(max_examples=60, deadline=None)
    def test_refused_exactly_at_low_twisted_exponent(self, fp, D):
        """Past the energy-factor check, ortho_grid refuses an L/J set exactly
        when a twisted end exponent g' (or h' for J) is at most -1/2.  A set
        whose factors E_0 - Etilde_{d_j} are all positive never is: then g > v + 1/2
        for type II and, for J, h > v + 1/2 for type I, and the largest degree of
        type t is at least M_t - 1."""
        low = min(twisted(fp, D.M1, D.M2).lam) <= F(-1, 2)
        if all(energy(fp, 0) > virtual_energy(fp, e) for e in D.entries):
            assert not low
        try:
            build(fp, D, n_max=0)
        except MiopError:
            return
        if math.prod(energy(fp, 0) - virtual_energy(fp, e) for e in D.entries) <= 0:
            return
        with mock.patch.object(quad, "Weight", side_effect=_WeightReached):
            if low:
                with pytest.raises(ConfigurationError, match="twisted exponent"):
                    ortho_grid(fp, D, 0)
            else:
                with pytest.raises(_WeightReached):
                    ortho_grid(fp, D, 0)


class TestScalarOracle:
    """ortho_grid sums each node set as one array; its rows keep every bit of the per-node path."""

    @staticmethod
    def assert_same_rows(fp, D, n_max):
        try:
            want = ortho_grid_scalar(fp, D, n_max)
        except MiopError as exc:
            with pytest.raises(type(exc)):
                ortho_grid(fp, D, n_max)
            return
        got = ortho_grid(fp, D, n_max)
        assert got == want
        # repr also tells -0.0 from 0.0 and a numpy scalar from a Python float
        assert [repr(row) for row in got] == [repr(row) for row in want]

    @given(family_params(("L", "J")), st.sampled_from(["", "I1", "II1", "I1,II1", "I1,I2"]),
           st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_random_lj_points(self, fp, label, n_max):
        self.assert_same_rows(fp, IndexSet.parse(label), n_max)

    @pytest.mark.parametrize("fam,lam,q,label", DIFFERENCE_ORTHO_PRESETS,
                             ids=[f"{fam}-{label}" for fam, _, _, label in DIFFERENCE_ORTHO_PRESETS])
    def test_difference_presets(self, fam, lam, q, label):
        self.assert_same_rows(FamilyParams(fam, lam, q=q), IndexSet.parse(label), 2)
