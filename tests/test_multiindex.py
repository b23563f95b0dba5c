"""Tests for denominator / multi-indexed polynomial construction."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError, GenericityError, LeadingCoefficientZero, SingularCoefficient
from miop.exact import GaussianRational, Poly, det
from miop.families import PRESETS, FamilyParams, classical_poly, shifted
from miop.multiindex import IndexSet, build, build_xi, phi_M
from miop.quad import Weight, _phi0_sq
from miop.rtable import build_rtable

from .oracles import det_cofactor, lj_gauge_divisor, star
from .strategies import family_params, index_sets

ETA = Poly.variable()

ACCEPTANCE_SETS = ["I1", "II1", "I1,I2", "I1,II1", "I1,I2,I3", "I1,I2,II1"]
ALL_PRESETS = ["l-default", "j-default", "w-default", "aw-default"]


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
        from miop import multiindex
        from miop.exact import matrix

        calls = []
        real_det = matrix.det

        def counting(rows):
            calls.append(len(rows))
            return real_det(rows)

        monkeypatch.setattr(matrix, "det", counting)
        monkeypatch.setattr(multiindex, "det", counting)
        M = IndexSet.parse(lbl).M
        build(PRESETS[name], IndexSet.parse(lbl), n_max=n_max)
        # M+1 last-column cofactors of the P block plus the Xi determinant
        assert sorted(calls) == [M] * (M + 2)

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


class TestWeightDescriptor:
    """The weight quad derives from a pair: c_F^{2M}, Xi_D, lambda^[M_I,M_II]."""

    def test_fields(self):
        fp = PRESETS["j-default"]
        D = IndexSet.parse("I1,II1")
        wd = Weight(build(fp, D, n_max=0))
        assert wd.scale == (-4.0) ** (2 * D.M)
        assert len(wd.xi_den.coeffs) - 1 == D.ell
        # lambda^[1,1] for J leaves (g, h) unchanged
        assert wd.phi0_sq(0.3) == _phi0_sq(fp)(0.3)

    def test_laguerre_shift(self):
        fp = PRESETS["l-default"]
        wd = Weight(build(fp, IndexSet.parse("I1,I2"), n_max=0))
        assert wd.scale == 2.0 ** 4
        assert wd.phi0_sq(0.7) == _phi0_sq(FamilyParams("L", (fp.g + 2,)))(0.7)

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
