"""Tests for denominator / multi-indexed polynomial construction."""

from collections import Counter
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError, GenericityError, LeadingCoefficientZero, SingularCoefficient
from miop import multiindex as mi
from miop.exact import I, GaussianRational, LaurentPoly, Poly, det, q_pow, rational_sqrt
from miop.families import PRESETS, FamilyParams, classical_poly, shifted, twisted, virtual_poly, x_shift
from miop.multiindex import IndexSet, build, build_xi, phi_M
from miop.quad import Weight, _phi0_sq
from miop.rtable import build_rtable

from .oracles import (alpha_scale, bareiss_det, casoratian_all_factors, cofactors_by_minors, det_cofactor,
                      lj_gauge_divisor, norm_scalar, pochs, r_poly, star)
from .strategies import family_params, index_sets

ETA = Poly.variable()

ACCEPTANCE_SETS = ["I1", "II1", "I1,I2", "I1,II1", "I1,I2,I3", "I1,I2,II1"]
ALL_PRESETS = ["l-default", "j-default", "w-default", "aw-default"]
DIFFERENCE_PRESETS = ["w-default", "aw-default", "aw-q13"]


class TestIndexSet:
    def test_parse_and_label(self):
        D = IndexSet.parse("I1,II2")
        assert D.M == 2 and D.M1 == 1 and D.M2 == 1
        assert [(e.type, e.v) for e in D.entries] == [("I", 1), ("II", 2)]
        assert D.label() == "I1,II2"
        assert IndexSet.parse("").M == 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            IndexSet.parse("I1,X2")
        with pytest.raises(ConfigurationError):
            IndexSet.parse("III1")

    def test_duplicate_degrees_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexSet.parse("I1,I1")
        # same degree in different types is fine
        assert IndexSet.parse("I1,II1").M == 2

    def test_ell_examples(self):
        assert IndexSet.parse("I1").ell == 1
        assert IndexSet.parse("I1,I2").ell == 2
        assert IndexSet.parse("I1,II1").ell == 3
        assert IndexSet.parse("I1,I2,II1").ell == 5
        assert IndexSet.parse("I1,II2").ell == 1 + 2 - 1 + 2
        assert IndexSet.parse("").ell == 0

    def test_ell_rule_binds_parsed_sets_only(self):
        for label in ("I0", "II0"):
            with pytest.raises(ConfigurationError, match="ell = 0 < 1"):
                IndexSet.parse(label)
        for label, ells in (("II0,I2", [0, 0, 3]), ("I0,II0", [0, 0, 1])):
            D = IndexSet.parse(label)  # its first entry alone has ell = 0, and builds
            assert [D.prefix(s).ell for s in range(D.M + 1)] == ells
            assert D.permute((1, 0)).ell == D.ell

    def test_prefix_and_permute(self):
        D = IndexSet.parse("I1,II2,I3")
        assert D.prefix(2).label() == "I1,II2"
        assert D.permute((2, 0, 1)).label() == "I3,I1,II2"
        with pytest.raises(ConfigurationError):
            D.permute((0, 1))

    def test_json(self):
        assert IndexSet.parse("I1,II2").to_json() == [["I", 1], ["II", 2]]


class TestFrozenValues:
    def test_laguerre_single_type1(self):
        fp = FamilyParams("L", (F(3, 2),))
        pair = build(fp, IndexSet.parse("I1"), n_max=1)
        assert pair.Xi == ETA + 2
        assert pair.P_of(0) == -(ETA + 3)

    def test_laguerre_general_g(self):
        fp = FamilyParams("L", (F(7, 3),))
        pair = build(fp, IndexSet.parse("I1"), n_max=0)
        assert pair.Xi == ETA + fp.g + F(1, 2)
        assert pair.P_of(0) == -(ETA + fp.g + F(3, 2))

    def test_wilson_single_type1_xi(self):
        # one type-I state: the denominator is the virtual polynomial itself
        from miop.families import virtual_poly, VirtualStateData

        fp = PRESETS["w-default"]
        pair = build(fp, IndexSet.parse("I1"), n_max=0)
        assert pair.Xi == virtual_poly(fp, VirtualStateData("I", 1))

    def test_askey_wilson_seed_tag(self):
        # aw-default, D={I1}: stored seed ratio -5/8 with radicand 8/3
        fp = PRESETS["aw-default"]
        pair = build(fp, IndexSet.parse("I1"), n_max=0)
        pair_s = build(shifted(fp), IndexSet.parse("I1"), n_max=0)
        assert pair.p_radicand == F(8, 3)
        assert pair.xi_radicand == 1
        assert pair.P_of(0) * F(8) == pair_s.Xi * F(-5)


class TestEmptyIndexSet:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_classical_reduction(self, name):
        fp = PRESETS[name]
        pair = build(fp, IndexSet.parse(""), n_max=4)
        assert pair.Xi == Poly.one()
        for n in range(5):
            assert pair.P_of(n) == classical_poly(fp, n)
        assert pair.xi_radicand == 1 and pair.p_radicand == 1

    def test_negative_index_zero(self):
        pair = build(PRESETS["l-default"], IndexSet.parse("I1"), n_max=0)
        assert pair.P_of(-1).is_zero
        assert pair.P_of(-5).is_zero

    def test_beyond_n_max_raises(self):
        pair = build(PRESETS["l-default"], IndexSet.parse("I1"), n_max=2)
        with pytest.raises(ConfigurationError):
            pair.P_of(3)


class TestDegreeLaws:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    @pytest.mark.parametrize("lbl", ACCEPTANCE_SETS)
    def test_degrees(self, name, lbl):
        fp = PRESETS[name]
        D = IndexSet.parse(lbl)
        pair = build(fp, D, n_max=3)
        assert pair.Xi.degree == D.ell
        for n in range(4):
            assert pair.P_of(n).degree == D.ell + n


class TestRecurrence:
    """Xi/P pairs satisfy the order-(3+2M) recurrence with the level-M table."""

    @pytest.mark.parametrize(
        "name,lbl",
        [
            ("l-default", "I1,II1"),
            ("j-default", "I1,I2"),
            ("w-default", "I1,II1"),
            ("aw-default", "I1,II1"),
            ("aw-q13", "I1,I2"),
        ],
    )
    def test_rrp_small(self, name, lbl):
        fp = PRESETS[name]
        D = IndexSet.parse(lbl)
        M = D.M
        table = build_rtable(fp, M, (-M - 1, 3))
        pair = build(fp, D, n_max=3 + M + 1)
        for n in range(-M - 1, 4):
            acc = Poly.zero()
            for k in range(-M - 1, M + 2):
                acc = acc + table.entry(M, n, k) * pair.P_of(n + k)
            assert acc.is_zero, (name, lbl, n)


class TestSeedProportionality:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    @pytest.mark.parametrize("lbl", ["I1", "II1", "I1,II1"])
    def test_p0_proportional_to_shifted_xi(self, name, lbl):
        fp = PRESETS[name]
        D = IndexSet.parse(lbl)
        pair = build(fp, D, n_max=0)
        pair_s = build(shifted(fp), D, n_max=0)
        p0, xi_s = pair.P_of(0), pair_s.Xi
        assert p0.degree == xi_s.degree
        assert p0 * xi_s.lc == xi_s * p0.lc

    @pytest.mark.parametrize("name", ALL_PRESETS)
    @pytest.mark.parametrize("lbl", ["", "I1", "I1,II1"])
    def test_build_xi_is_the_xi_half_of_build(self, name, lbl):
        fp, D = PRESETS[name], IndexSet.parse(lbl)
        pair = build(fp, D, n_max=0)
        xi, rad, picture = build_xi(fp, D)
        assert (xi, rad) == (pair.Xi, pair.xi_radicand)
        assert (picture is None) == (D.M == 0)

    def test_constant_minus_one_for_laguerre_type1(self):
        fp = PRESETS["l-default"]
        pair = build(fp, IndexSet.parse("I1"), n_max=0)
        pair_s = build(shifted(fp), IndexSet.parse("I1"), n_max=0)
        assert pair.P_of(0) == pair_s.Xi * F(-1)


class TestPermutation:
    def test_same_type_swap_flips_sign(self):
        fp = PRESETS["j-default"]
        D = IndexSet.parse("I1,I2")
        base = build(fp, D, n_max=2)
        swapped = build(fp, D.permute((1, 0)), n_max=2)
        assert swapped.Xi == base.Xi * F(-1)
        for n in range(3):
            assert swapped.P_of(n) == base.P_of(n) * F(-1)

    def test_mixed_swap_is_identity(self):
        # type-I and type-II entries occupy separate blocks, so reordering
        # across types leaves the determinants unchanged
        fp = PRESETS["w-default"]
        D = IndexSet.parse("I1,II1")
        base = build(fp, D, n_max=1)
        swapped = build(fp, D.permute((1, 0)), n_max=1)
        assert swapped.Xi == base.Xi
        assert swapped.P_of(1) == base.P_of(1)

    def test_three_cycle_even_sign(self):
        fp = PRESETS["l-default"]
        D = IndexSet.parse("I1,I2,I3")
        base = build(fp, D, n_max=0)
        cycled = build(fp, D.permute((1, 2, 0)), n_max=0)
        assert cycled.Xi == base.Xi
        assert cycled.P_of(0) == base.P_of(0)


class TestSharedBlock:
    """Every P_{D,n} comes from one n-independent block and its cofactors."""

    @pytest.mark.parametrize("name", ALL_PRESETS)
    @pytest.mark.parametrize("lbl", ["I1", "I1,II1", "I1,I2,II1"])
    @pytest.mark.parametrize("n_max", [1, 4])
    def test_det_calls_independent_of_n_max(self, monkeypatch, name, lbl, n_max):
        """Two eliminations per build whatever n_max: the P block's
        cofactors and the Xi determinant's (det expands its last column)."""
        from miop import multiindex
        from miop.exact import matrix

        calls = []
        real = matrix.last_column_cofactors

        def counting(block):
            calls.append(len(block))
            return real(block)

        monkeypatch.setattr(matrix, "last_column_cofactors", counting)
        monkeypatch.setattr(multiindex, "last_column_cofactors", counting)
        M = IndexSet.parse(lbl).M
        build(PRESETS[name], IndexSet.parse(lbl), n_max=n_max)
        assert sorted(calls) == [M, M + 1]

    @pytest.mark.parametrize("name", ALL_PRESETS)
    @pytest.mark.parametrize("lbl", ["I1", "I1,II1"])
    def test_matches_full_determinant_oracle(self, name, lbl):
        """Xi_D and P_{D,n} equal the full determinants by det_cofactor."""
        assert_matches_full_determinants(build(PRESETS[name], IndexSet.parse(lbl), n_max=2))

    @given(family_params(), st.sampled_from(["I1", "II1", "I1,I2", "I1,II1", "II1,II2"]))
    @settings(max_examples=16, deadline=None)
    def test_random_points_match_full_determinants(self, fp, lbl):
        """The same oracle at random in-range points of all four families;
        a point may be non-generic for D, never inexact."""
        try:
            pair = build(fp, IndexSet.parse(lbl), n_max=2)
        except (GenericityError, SingularCoefficient):
            return
        assert_matches_full_determinants(pair)

    @given(family_params(), st.sampled_from(["I1,I2,I3", "I1,I2,II1", "I1,II1,II2", "II1,II2,II3",
                                             "I1,I2,I3,II1", "I1,I2,II1,II2", "I1,II1,II2,II3"]))
    @settings(max_examples=25, deadline=None)
    def test_random_points_past_depth_2_match_replaced_paths(self, fp, lbl):
        """build equals a build through the Bareiss det and the per-minor
        cofactors it replaced, at random in-range points for depth-3 and
        depth-4 sets; non-genericity on both sides agrees."""
        from miop import multiindex

        def outcome():
            try:
                pair = build(fp, IndexSet.parse(lbl), n_max=2)
            except (GenericityError, SingularCoefficient) as exc:
                return type(exc)
            return pair.Xi, pair.P, pair.xi_radicand, pair.p_radicand

        got = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multiindex, "det", bareiss_det)
            mp.setattr(multiindex, "last_column_cofactors", cofactors_by_minors)
            assert outcome() == got



def assert_matches_full_determinants(pair):
    """Xi_D and every P_{D,n} of a pair against det_cofactor of the full
    M x M and (M+1) x (M+1) matrices read from the family's picture."""
    from miop import multiindex as mi

    fp, D = pair.fp, pair.D
    picture = (mi._casoratian if fp.is_difference else mi._wronskian)(fp, D)
    block, _, _, finish, _ = picture(D.M)
    assert pair.Xi == finish(det_cofactor(block))
    block, row_factors, ladder, finish, _ = picture(D.M + 1)
    for n in range(pair.n_max + 1):
        rows = [[*row, r * e] for row, r, e in zip(block, row_factors, ladder(n))]
        assert pair.P_of(n) == finish(det_cofactor(rows))


class TestGaugeDivisor:
    @given(family_params(("L", "J")), index_sets(max_m=4), st.integers(0, 1), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_exponent_ledger(self, fp, D, extra, n):
        """finish divides by the ledger's divisor at R = M (Xi_D) and R = M+1 (P_{D,n})."""
        from miop import multiindex as mi

        R = D.M + extra
        try:
            block, row_factors, ladder, finish, _ = mi._wronskian(fp, D)(R)
        except (LeadingCoefficientZero, SingularCoefficient):  # no virtual polynomial by recurrence
            return
        if extra:
            block = [[*row, r * e] for row, r, e in zip(block, row_factors, ladder(n))]
        d = det(block)
        assert finish(d) == d.exact_div(lj_gauge_divisor(fp, D, R))


class TestPhiM:
    def test_low_orders_are_one(self):
        for name in ("w-default", "aw-default"):
            fp = PRESETS[name]
            assert phi_M(fp, 0) == phi_M(fp, 1)

    def test_wilson_frozen(self):
        fp = PRESETS["w-default"]
        # 2x and 2x + 8x^3 at x = iy
        assert phi_M(fp, 2) == Poly([0, GaussianRational(0, 2)], var="x")
        assert phi_M(fp, 3) == Poly([0, GaussianRational(0, 2), 0, GaussianRational(0, -8)], var="x")

    def test_askey_wilson_self_conjugate(self):
        fp = PRESETS["aw-default"]
        for M in range(2, 5):
            p = phi_M(fp, M)
            assert star(p) == p

    def test_negative_M_rejected(self):
        with pytest.raises(ConfigurationError):
            phi_M(PRESETS["w-default"], -1)


class TestNormTags:
    def test_wilson_always_trivial(self):
        fp = PRESETS["w-default"]
        for lbl in ("I1", "I1,II1"):
            pair = build(fp, IndexSet.parse(lbl), n_max=0)
            assert pair.xi_radicand == 1 and pair.p_radicand == 1

    def test_askey_wilson_mixed_xi_tag(self):
        # M=2 mixed: Xi carries sqrt((a1 a2 q^-2)(a3 a4 q^-2))
        fp = PRESETS["aw-default"]
        pair = build(fp, IndexSet.parse("I1,II1"), n_max=0)
        assert pair.xi_radicand == F(32, 15)
        assert pair.p_radicand == 1

    def test_tags_independent_of_n(self):
        fp = PRESETS["aw-default"]
        a = build(fp, IndexSet.parse("I1"), n_max=0)
        b = build(fp, IndexSet.parse("I1"), n_max=3)
        assert a.p_radicand == b.p_radicand


class TestCasoratianTable:
    """The per-size Pochhammer table, the block without AW's row constant and
    the closed-form _scale, against the row-by-row pieces they replaced."""

    @pytest.mark.parametrize("name", DIFFERENCE_PRESETS)
    def test_table_at_presets(self, name):
        for R in range(1, 7):
            assert_table_matches_pochs(PRESETS[name], R)

    @given(family_params(("W", "AW")), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_table_at_random_points(self, fp, R):
        assert_table_matches_pochs(fp, R)

    @pytest.mark.parametrize("name", DIFFERENCE_PRESETS)
    @pytest.mark.parametrize("lbl", ["I1", "I1,II1", "I1,I2,II2", "I1,I2,I3,II1,II2"])
    def test_rows_at_presets(self, name, lbl):
        D = IndexSet.parse(lbl)
        for R in (D.M, D.M + 1):
            assert_rows_match_r_poly(PRESETS[name], D, R)

    @given(family_params(("W", "AW")), index_sets(max_m=4), st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_rows_at_random_points(self, fp, D, extra):
        try:
            assert_rows_match_r_poly(fp, D, D.M + extra)
        except (LeadingCoefficientZero, SingularCoefficient):  # no virtual polynomial by recurrence
            return

    @given(family_params(("W", "AW")),
           st.sampled_from(["I1", "I2", "I1,I2", "I1,I3", "I1,I2,I3", "II1", "II2", "II1,II2",
                            "II1,II2,II3", "I1,II1", "I1,I2,II1", "I1,II1,II2"]))
    @settings(max_examples=30, deadline=None)
    def test_build_matches_every_factor_kept(self, fp, lbl):
        """build, where a filled type's r-factors and its part of the
        normalization leave together, equals a build through the picture
        that keeps every r-factor, at random points: pure type I, pure
        type II and mixed sets; non-genericity on both sides agrees."""
        D = IndexSet.parse(lbl)

        def outcome():
            try:
                pair = build(fp, D, n_max=3)
            except (GenericityError, LeadingCoefficientZero, SingularCoefficient) as exc:
                return type(exc)
            return pair.Xi, pair.P, pair.xi_radicand, pair.p_radicand

        got = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mi, "_casoratian", casoratian_all_factors)
            assert outcome() == got

    def test_wilson_scale_is_the_phase(self):
        for R in range(1, 9):
            assert mi._scale(PRESETS["w-default"], R, R, 0) == (I ** (R * (R - 1) // 2 % 4), 1)

    def test_askey_wilson_scale_closed_form(self):
        """_scale is the phase times prod_j kappa^(e_j) times the alpha scale
        over the normalization scalar, in value and radicand, at plain and
        twisted points (sqrt(q) parameters) with every radicand outcome."""
        lams = [(F(1, 2), F(1, 3), F(1, 4), F(1, 5)),
                (F(1, 2), F(1, 8), F(1, 3), F(3, 4)),  # a1 a2 and a3 a4 squares
                (F(1, 2), F(2, 3), F(1, 3), F(1, 4))]  # a1 a2 = 1/3
        qs = [F(1, 4), F(1, 3), F(1, 9), F(2, 7), F(4, 9), F(1, 2)]
        points = [twisted(FamilyParams("AW", lam, q), *tw)
                  for lam in lams for q in qs for tw in ((0, 0), (1, 0), (0, 1))]
        grid = [(fp, R, m1, m2) for fp in points for R in range(1, 9)
                for m1 in range(R + 1) for m2 in range(R + 1)]
        outcomes = Counter()
        for fp, R, m1, m2 in grid[::30]:
            half = F(1, 2)
            alpha, rad = alpha_scale(fp, R, -(R - 1) * m2 * half, -(R - 1) * m1 * half)
            kappa = prod((row_constant(fp, R, j).coeffs[0] for j in range(1, R + 1)), start=F(1))
            want = I ** (R * (R - 1) // 2 % 4) * kappa * alpha / norm_scalar(fp, R, max(m1 - 1, 0),
                                                                              max(m2 - 1, 0))
            assert mi._scale(fp, R, m1, m2) == (want, rad)
            outcomes[_radicand_outcome(fp, R, m1, m2)] += 1
        assert set(outcomes) == {"no half power", "sqrt(rad)", "sqrt(rad/q)", "detached"}


def _radicand_outcome(fp, R, m1, m2) -> str:
    """Which way the alpha prefactors' half powers end at (R, m1, m2)."""
    a, q = fp.lam, fp.q
    half = [F(pair * q ** -R) for pair, m in ((a[0] * a[1], m2), (a[2] * a[3], m1)) if (R - 1) * m % 2]
    if not half:
        return "no half power"
    if rational_sqrt(prod(half)) is not None:
        return "sqrt(rad)"
    return "sqrt(rad/q)" if rational_sqrt(prod(half) / q) is not None else "detached"


def row_constant(fp, R: int, j: int):
    """AW's c_j = z^(R+1-2j) kappa^((R-1)^2/2 - (j-1)(R-j)), kappa = 1/q; 1 for W."""
    if fp.family == "W":
        return Poly.one("x")
    return LaurentPoly.monomial(R + 1 - 2 * j, q_pow(fp.q, 2 * (j - 1) * (R - j) - (R - 1) ** 2, 2))


def assert_table_matches_pochs(fp, R: int):
    """Every up[t] down[s] of the size-R table is the Pochhammer pair rebuilt
    from linear factors."""
    table = mi._pochhammers(fp, R, (1, 2, 3, 4))
    assert sorted(table) == [1, 2, 3, 4]
    for k, (up, down) in table.items():
        assert len(up) == len(down) == R
        for t in range(R):
            for s in range(R):
                assert up[t] * down[s] == pochs(fp, k, R, t, s)


def assert_rows_match_r_poly(fp, D, R: int):
    """Each block entry of the size-R Casoratian is the Pochhammer product
    times the shifted virtual polynomial, with no z or kappa power, and each
    last-column row factor times c_j is the row-by-row r^II r^I; the
    r-factor of a type whose columns fill the block (m1 or m2 = R, the last
    column counted) is left out of every entry and of the row factor."""
    block, r21, _, _, _ = mi._casoratian(fp, D)(R)
    m1, m2 = D.M1 + R - D.M, D.M2 + R - D.M
    for j, (row, r) in enumerate(zip(block, r21), 1):
        c, cj = F(R + 1, 2) - j, row_constant(fp, R, j)
        r1, r2 = (pochs(fp, k1, R, j - 1, R - j) * pochs(fp, k2, R, j - 1, R - j)
                  for k1, k2 in ((1, 2), (3, 4)))
        assert (r1 * cj, r2 * cj) == (r_poly(fp, (1, 2), j, R), r_poly(fp, (3, 4), j, R))
        (kept1, left1), (kept2, left2) = ((f, 1) if m < R else (1, f) for f, m in ((r1, m2), (r2, m1)))
        assert row == [(kept2 if t == "I" else kept1) * x_shift(fp, virtual_poly(fp, e), c)
                       for t in ("I", "II") for e in D.entries if e.type == t]
        assert r * cj * left2 * left1 == r_poly(fp, (3, 4), j, R) * r_poly(fp, (1, 2), j, R)


class TestWeightDescriptor:
    """The weight quad derives from a pair: c_F^{2M}, Xi_D, lambda^[M_I,M_II]."""

    def test_fields(self):
        fp = PRESETS["j-default"]
        D = IndexSet.parse("I1,II1")
        wd = Weight(build(fp, D, n_max=0))
        assert wd.scale == (-4.0) ** (2 * D.M)
        assert len(wd.xi_den.coeffs) - 1 == D.ell
        # lambda^[1,1] for J leaves (g, h) unchanged
        assert wd.phi0_sq([0.3]) == _phi0_sq(fp)([0.3])

    def test_laguerre_shift(self):
        fp = PRESETS["l-default"]
        wd = Weight(build(fp, IndexSet.parse("I1,I2"), n_max=0))
        assert wd.scale == 2.0 ** 4
        assert wd.phi0_sq([0.7]) == _phi0_sq(FamilyParams("L", (fp.g + 2,)))([0.7])

    def test_difference_family_has_no_cF(self):
        wd = Weight(build(PRESETS["w-default"], IndexSet.parse("I1"), n_max=0))
        assert wd.scale == 1.0 and not wd.squared_den


class TestJson:
    def test_round_trippable_layout(self):
        fp = PRESETS["l-default"]
        pair = build(fp, IndexSet.parse("I1"), n_max=1)
        obj = pair.to_json()
        assert obj["family"] == "L"
        assert obj["D"] == [["I", 1]]
        assert obj["ell"] == 1
        assert isinstance(obj["Xi"], list)
        assert set(obj["P"]) == {"0", "1"}
        assert obj["norm_sqrt"] == {"Xi": "1", "P": "1"}
