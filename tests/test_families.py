"""Tests for family parameters, recurrences, virtual states, and carriers."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError, MiopError, SingularCoefficient
from miop.exact import GaussianRational, I, Poly, SqrtQRational, scalar_sign, sqrt_q
from miop.families import (
    PRESETS,
    FamilyParams,
    VirtualStateData,
    carrier_one,
    classical_poly,
    energy,
    phi_x,
    reduce_to_eta,
    shifted,
    three_term,
    twisted,
    virtual_energy,
    virtual_params,
    virtual_poly,
    x_shift,
)

from .oracles import (
    askey_wilson_poly,
    carrier_shift,
    coeff,
    conj_coeffs,
    eta_shift_identities,
    family_params_from_json,
    jacobi_poly,
    laguerre_poly,
    star,
    wa_energy,
    wa_three_term,
    wa_virtual_energy,
    wa_virtual_params,
    wilson_poly,
    z_inverse,
)
from .strategies import family_params
from .test_startup import _fresh

ALL_PRESETS = list(PRESETS.values())
DIFF_PRESETS = [PRESETS[k] for k in ("w-default", "aw-default", "aw-q13")]


class TestFamilyParams:
    def test_presets_valid(self):
        for fp in ALL_PRESETS:
            assert fp.family in ("L", "J", "W", "AW")

    def test_wrong_arity(self):
        with pytest.raises(ConfigurationError):
            FamilyParams("L", (F(1), F(2)))
        with pytest.raises(ConfigurationError):
            FamilyParams("W", (F(1),))

    def test_range_enforcement(self):
        with pytest.raises(ConfigurationError):
            FamilyParams("L", (F(1, 2),))
        with pytest.raises(ConfigurationError):
            FamilyParams("J", (F(2), F(1, 3)))
        with pytest.raises(ConfigurationError):
            FamilyParams("W", (F(-1), F(1), F(1), F(1)))
        with pytest.raises(ConfigurationError):
            FamilyParams("AW", (F(1, 2), F(1, 3), F(1, 4), F(6, 5)), q=F(1, 4))

    def test_nonreal_parameter_rejected(self):
        # i sqrt(q) lies in the sqrt layer, not in Q(i); both are refused as
        # non-real, with range checks on or off
        for check_range in (True, False):
            with pytest.raises(ConfigurationError, match="parameters must be real"):
                FamilyParams("W", (GaussianRational(1, 1), F(1), F(1), F(1)), check_range=check_range)
            with pytest.raises(ConfigurationError, match="parameters must be real"):
                FamilyParams("AW", (sqrt_q(F(1, 3)) * I, F(1, 3), F(1, 4), F(1, 5)), q=F(1, 3),
                             check_range=check_range)

    def test_range_override(self):
        fp = FamilyParams("L", (F(-3, 2),), check_range=False)
        assert fp.g == F(-3, 2)

    def test_q_rules(self):
        with pytest.raises(ConfigurationError):
            FamilyParams("AW", (F(1, 2), F(1, 3), F(1, 4), F(1, 5)))
        with pytest.raises(ConfigurationError):
            FamilyParams("AW", (F(1, 2), F(1, 3), F(1, 4), F(1, 5)), q=F(5, 4))
        with pytest.raises(ConfigurationError):
            FamilyParams("W", (F(1), F(1), F(1), F(1)), q=F(1, 4))

    def test_b1_b4(self):
        w = PRESETS["w-default"]
        assert w.b1 == F(3, 4) + F(4, 5) + F(6, 5) + F(7, 5)

    def test_json_roundtrip(self):
        for fp in ALL_PRESETS:
            assert family_params_from_json(fp.to_json()) == fp

    def test_shifted(self):
        assert shifted(PRESETS["l-default"]).g == F(7, 3) + 1
        assert shifted(PRESETS["w-default"]).lam[0] == F(3, 4) + F(1, 2)
        aw = shifted(PRESETS["aw-default"])
        assert aw.lam[0] == F(1, 2) * F(1, 2)  # q=1/4 has exact sqrt
        aw13 = shifted(PRESETS["aw-q13"])
        assert isinstance(aw13.lam[0], SqrtQRational)

    def test_twisted(self):
        j = twisted(PRESETS["j-default"], 1, 0)
        assert j.lam == (F(7, 3) + 1, F(9, 4) - 1)
        w = twisted(PRESETS["w-default"], 2, 1)
        assert w.lam[0] == F(3, 4) - F(1, 2)
        assert w.lam[3] == F(7, 5) + F(1, 2)
        aw = twisted(PRESETS["aw-default"], 1, 0)
        assert aw.lam[0] == F(1, 2) * 2  # times q^{-1/2} = 2
        assert aw.lam[2] == F(1, 4) * F(1, 2)

    def test_twist_round_trip(self):
        for fp in ALL_PRESETS:
            back = twisted(twisted(fp, 2, 1), -2, -1)
            assert back.lam == fp.lam


class TestThreeTerm:
    def test_laguerre_values(self):
        fp = FamilyParams("L", (F(3, 2),))
        assert three_term(fp, 0) == (F(-1), F(2), F(-1))

    def test_jacobi_symmetric_b_vanishes(self):
        fp = FamilyParams("J", (F(7, 3), F(7, 3)))
        for n in range(6):
            assert three_term(fp, n)[1] == 0

    def test_wilson_c0_vanishes(self):
        assert three_term(PRESETS["w-default"], 0)[2] == 0

    def test_wilson_removable_zero_at_n0(self):
        # b1 = 2 zeroes the n = 0 value of 2n + b1 - 2, but C_0 carries n;
        # b1 = 1 zeroes 2n + b1 - 1, but (n + b1 - 1)/(2n + b1 - 1) is 1 at n = 0
        for a in (F(1, 2), F(1, 4)):
            fp = FamilyParams("W", (a,) * 4)
            assert three_term(fp, 0)[2] == 0
            for n in range(6):
                assert classical_poly(fp, n) == wilson_poly(fp.lam, n)

    def test_askey_wilson_removable_zero_at_n0(self):
        # b4 = q^2 zeroes 1 - b4 q^(2n-2) at n = 0, but C_0 carries 1 - q^n;
        # b4 = q zeroes 1 - b4 q^(2n-1), but its ratio to 1 - b4 q^(n-1) is 1 at n = 0
        for q in (F(1, 4), F(1, 16)):
            fp = FamilyParams("AW", (F(1, 2),) * 4, q=q)
            assert three_term(fp, 0)[2] == 0
            for n in range(6):
                assert classical_poly(fp, n) == askey_wilson_poly(fp.lam, fp.q, n)

    @pytest.mark.parametrize("g, h", [(F(3, 4), F(1, 4)), (F(7, 5), F(-2, 5)),
                                      (F(5, 6), F(-5, 6)), (F(1, 3), F(-1, 3))])
    def test_jacobi_removable_zero_at_n0(self, g, h):
        # twisted g + h = 1 or 0: A_0 = 2(g+h)/((g+h)(g+h+1)) and
        # B_0 = (h-g)(g+h-1)/((g+h-1)(g+h+1)) are removable 0/0, and C_0
        # multiplies P_{-1} = 0
        fp = FamilyParams("J", (g, h), check_range=False)
        assert three_term(fp, 0) == (2 / (g + h + 1), (h - g) / (g + h + 1), 0)
        for n in range(6):
            assert classical_poly(fp, n) == jacobi_poly(g, h, n)

    def test_jacobi_pole_at_n0_still_rejected(self):
        # twisted g + h = -1 is a real pole of A_0: P_1 would lose its degree
        fp = FamilyParams("J", (F(3, 4), F(-7, 4)), check_range=False)
        with pytest.raises(SingularCoefficient):
            three_term(fp, 0)

    @given(family_params(("J",)))
    @settings(max_examples=40, deadline=None)
    def test_jacobi_n0_in_range_is_the_general_formula(self, fp):
        g, h = fp.lam
        s = g + h
        assert three_term(fp, 0) == (2 * s / (s * (s + 1)),
                                     (h - g) * (s - 1) / ((s - 1) * (s + 1)),
                                     2 * (g - F(1, 2)) * (h - F(1, 2)) / ((s - 1) * s))

    def test_negative_n_zero(self):
        for fp in ALL_PRESETS:
            assert three_term(fp, -1) == (0, 0, 0)
            assert three_term(fp, -3) == (0, 0, 0)

    def test_singular_denominator(self):
        fp = FamilyParams("J", (F(-3), F(1)), check_range=False)
        with pytest.raises(SingularCoefficient):
            three_term(fp, 1)

    @given(family_params(("W", "AW")))
    @example(FamilyParams("W", (F(1, 4),) * 4))  # b1 = 1
    @example(FamilyParams("W", (F(1, 2),) * 4))  # b1 = 2
    @example(FamilyParams("W", (F(2), F(5, 4), F(4), F(5, 4))))  # b1' = 0 at type II
    @example(FamilyParams("AW", (F(1, 2),) * 4, q=F(1, 4)))  # b4 = q^2
    @example(FamilyParams("AW", (F(1, 2),) * 4, q=F(1, 16)))  # b4 = q
    @example(FamilyParams("AW", (F(1, 2), F(1, 3), F(1, 4), F(1, 5)), q=F(1, 3)))
    @settings(max_examples=40, deadline=None)
    def test_bracket_matches_two_branches(self, fp):
        # the single W/AW bracket against the two hand-written branches, at
        # the point and at the shifted, twisted and virtual points it reaches
        def outcome(f, *args):
            try:
                return f(*args)
            except MiopError as e:
                return type(e)

        for p in (fp, shifted(fp), twisted(fp, 1, 0), twisted(fp, 0, 1),
                  virtual_params(fp, "I"), virtual_params(fp, "II")):
            for n in range(-1, 7):
                assert outcome(three_term, p, n) == outcome(wa_three_term, p, n)
                assert energy(p, n) == wa_energy(p, n)
            for vtype in ("I", "II"):
                assert virtual_params(p, vtype) == wa_virtual_params(p, vtype)
                for v in range(4):
                    vsd = VirtualStateData(vtype, v)
                    assert virtual_energy(p, vsd) == wa_virtual_energy(p, vsd)

    @pytest.mark.parametrize("fp", ALL_PRESETS, ids=list(PRESETS))
    def test_positivity_product(self, fp):
        for n in range(13):
            A = three_term(fp, n)[0]
            C1 = three_term(fp, n + 1)[2]
            assert scalar_sign(A * C1) > 0


class TestClassicalPoly:
    def test_cache_is_bounded(self):
        assert classical_poly.cache_info().maxsize is not None

    def test_laguerre_frozen(self):
        fp = FamilyParams("L", (F(3, 2),))
        assert classical_poly(fp, 0) == Poly.one()
        assert classical_poly(fp, 1) == Poly([2, -1])
        assert classical_poly(fp, 2) == Poly([3, -3, F(1, 2)])

    def test_negative_index_zero(self):
        assert classical_poly(PRESETS["l-default"], -1).is_zero

    def test_degree_above_recursion_limit(self):
        # a fresh cache, a recursion limit far below the degree: the cache is
        # filled in strides, so the build neither recurses n deep nor changes P_n
        n = 250
        probe = ("import sys\n"
                 "from miop.families import PRESETS, classical_poly\n"
                 "sys.setrecursionlimit(120)\n"
                 f"print(*classical_poly(PRESETS['l-default'], {n}).coeffs)\n")
        proc = _fresh("-c", probe)
        assert proc.returncode == 0, proc.stderr
        ref = laguerre_poly(PRESETS["l-default"].g, n)
        assert proc.stdout.split() == [str(c) for c in ref.coeffs]

    @pytest.mark.parametrize("fp", ALL_PRESETS, ids=list(PRESETS))
    def test_three_term_identity(self, fp):
        eta = Poly.variable()
        for n in range(13):
            A, B, C = three_term(fp, n)
            lhs = eta * classical_poly(fp, n)
            rhs = (
                classical_poly(fp, n + 1) * A
                + classical_poly(fp, n) * B
                + classical_poly(fp, n - 1) * C
            )
            assert lhs == rhs

    @pytest.mark.parametrize("fp", ALL_PRESETS, ids=list(PRESETS))
    def test_degree_and_leading(self, fp):
        for n in range(13):
            p = classical_poly(fp, n)
            assert p.degree == n
            assert p.lc

    def test_laguerre_oracle(self):
        fp = PRESETS["l-default"]
        for n in range(9):
            assert classical_poly(fp, n) == laguerre_poly(fp.g, n)

    def test_jacobi_oracle(self):
        fp = PRESETS["j-default"]
        for n in range(9):
            assert classical_poly(fp, n) == jacobi_poly(fp.g, fp.h, n)

    def test_wilson_oracle(self):
        fp = PRESETS["w-default"]
        for n in range(9):
            assert classical_poly(fp, n) == wilson_poly(fp.lam, n)

    @pytest.mark.parametrize("key", ["aw-default", "aw-q13"])
    def test_askey_wilson_oracle(self, key):
        fp = PRESETS[key]
        for n in range(9):
            assert classical_poly(fp, n) == askey_wilson_poly(fp.lam, fp.q, n)

    @given(family_params(("W", "AW")))
    @settings(max_examples=25, deadline=None)
    def test_difference_oracles_random(self, fp):
        for n in range(6):
            ref = (wilson_poly(fp.lam, n) if fp.family == "W"
                   else askey_wilson_poly(fp.lam, fp.q, n))
            assert classical_poly(fp, n) == ref

    @given(
        num=st.integers(min_value=1, max_value=40),
        den=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_laguerre_identity_random_g(self, num, den):
        fp = FamilyParams("L", (F(1, 2) + F(num, den),))
        eta = Poly.variable()
        for n in range(5):
            A, B, C = three_term(fp, n)
            assert eta * classical_poly(fp, n) == (
                classical_poly(fp, n + 1) * A
                + classical_poly(fp, n) * B
                + classical_poly(fp, n - 1) * C
            )

    @given(
        gn=st.integers(min_value=1, max_value=20),
        hn=st.integers(min_value=1, max_value=20),
        den=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_jacobi_oracle_random(self, gn, hn, den):
        fp = FamilyParams("J", (F(1, 2) + F(gn, den), F(1, 2) + F(hn, den)))
        assert classical_poly(fp, 4) == jacobi_poly(fp.g, fp.h, 4)


class TestClassicalPolyX:
    """Classical polynomials in the x-picture: x_shift(fp, P_n), the
    unshifted lift of P_n(eta)."""

    @pytest.mark.parametrize("fp", DIFF_PRESETS, ids=["w", "aw", "aw13"])
    def test_constant(self, fp):
        assert x_shift(fp, classical_poly(fp, 0)) == carrier_one(fp)

    def test_wilson_even_powers(self):
        fp = PRESETS["w-default"]
        for n in range(7):
            px = x_shift(fp, classical_poly(fp, n))
            assert px.degree == 2 * n
            assert all(coeff(px, i) == 0 for i in range(1, 2 * n, 2))

    @pytest.mark.parametrize("key", ["aw-default", "aw-q13"])
    def test_askey_wilson_symmetric(self, key):
        fp = PRESETS[key]
        for n in range(7):
            px = x_shift(fp, classical_poly(fp, n))
            assert z_inverse(px) == px
            assert star(px) == px

    @pytest.mark.parametrize("fp", DIFF_PRESETS, ids=["w", "aw", "aw13"])
    def test_reduction_roundtrip(self, fp):
        for n in range(7):
            assert reduce_to_eta(fp, x_shift(fp, classical_poly(fp, n))) == classical_poly(fp, n)

    def test_rejects_continuous_families(self):
        with pytest.raises(ConfigurationError):
            x_shift(PRESETS["l-default"], classical_poly(PRESETS["l-default"], 1))
        with pytest.raises(ConfigurationError, match="polynomial in eta"):
            x_shift(PRESETS["w-default"], Poly.one("x"))


class TestVirtualStates:
    def test_vsd_validation(self):
        with pytest.raises(ConfigurationError):
            VirtualStateData("III", 0)
        with pytest.raises(ConfigurationError):
            VirtualStateData("I", -1)

    def test_l1_frozen(self):
        fp = FamilyParams("L", (F(3, 2),))
        assert virtual_poly(fp, VirtualStateData("I", 0)) == Poly.one()
        assert virtual_poly(fp, VirtualStateData("I", 1)) == Poly([2, 1])

    def test_j2_frozen(self):
        fp = FamilyParams("J", (F(3, 2), F(5, 2)))
        tw = virtual_params(fp, "II")
        assert tw.lam == (F(-1, 2), F(5, 2))
        assert virtual_poly(fp, VirtualStateData("II", 1)) == Poly([F(-3, 2), F(3, 2)])

    def test_energies_frozen(self):
        fp = FamilyParams("L", (F(3, 2),))
        assert virtual_energy(fp, VirtualStateData("I", 1)) == -12
        assert virtual_energy(fp, VirtualStateData("II", 0)) == -4
        aw = PRESETS["aw-default"]
        assert virtual_energy(aw, VirtualStateData("I", 0)) == F(-19, 60)

    @pytest.mark.parametrize("fp", ALL_PRESETS, ids=list(PRESETS))
    @pytest.mark.parametrize("vtype", ["I", "II"])
    def test_degree_matches_v(self, fp, vtype):
        for v in range(5):
            p = virtual_poly(fp, VirtualStateData(vtype, v))
            assert p.degree == v

    @pytest.mark.parametrize("fp", ALL_PRESETS, ids=list(PRESETS))
    @pytest.mark.parametrize("vtype", ["I", "II"])
    def test_energies_generic(self, fp, vtype):
        """Virtual energies stay off the physical spectrum at the presets."""
        spectrum = [energy(fp, n) for n in range(9)]
        for v in range(4):
            e = virtual_energy(fp, VirtualStateData(vtype, v))
            assert scalar_sign(e) != 0
            assert all(e != En for En in spectrum)

    def test_wilson_twist(self):
        fp = PRESETS["w-default"]
        assert virtual_params(fp, "I").lam == (F(1, 4), F(1, 5), F(6, 5), F(7, 5))
        aw = PRESETS["aw-default"]
        assert virtual_params(aw, "I").lam == (F(1, 2), F(3, 4), F(1, 4), F(1, 5))


class TestEnergy:
    @pytest.mark.parametrize("fp", ALL_PRESETS, ids=list(PRESETS))
    def test_ground_and_monotone(self, fp):
        assert energy(fp, 0) == 0
        for n in range(12):
            assert scalar_sign(energy(fp, n + 1) - energy(fp, n)) > 0

    def test_values(self):
        assert energy(PRESETS["l-default"], 3) == 12
        fp = PRESETS["j-default"]
        assert energy(fp, 2) == 8 * (2 + fp.g + fp.h)
        w = PRESETS["w-default"]
        assert energy(w, 2) == 2 * (2 + w.b1 - 1)
        aw = PRESETS["aw-default"]
        assert energy(aw, 1) == (4 - 1) * (1 - F(1, 2) * F(1, 3) * F(1, 4) * F(1, 5))


class TestEtaShiftIdentities:
    def test_wilson_m0_m2(self):
        fp = PRESETS["w-default"]
        s, p = eta_shift_identities(fp, 0)
        assert s == Poly([0, 2]) and p == Poly([0, 0, 1])
        s, p = eta_shift_identities(fp, 2)
        assert s == Poly([-2, 2]) and p == Poly([1, 2, 1])

    def test_askey_wilson_m2(self):
        fp = PRESETS["aw-default"]
        s, p = eta_shift_identities(fp, 2)
        assert s == Poly([0, F(17, 4)])
        assert p == Poly([F(225, 64), 0, 1])

    @pytest.mark.parametrize("fp", DIFF_PRESETS, ids=["w", "aw", "aw13"])
    def test_against_carriers(self, fp):
        eta = Poly.variable()
        for m in range(5):
            s_id, p_id = eta_shift_identities(fp, m)
            lo = x_shift(fp, eta, F(-m, 2))
            hi = x_shift(fp, eta, F(m, 2))
            assert reduce_to_eta(fp, lo + hi) == s_id
            assert reduce_to_eta(fp, lo * hi) == p_id


class TestCarriers:
    @pytest.mark.parametrize("fp", DIFF_PRESETS, ids=["w", "aw", "aw13"])
    def test_shift_composition(self, fp):
        """Shifted points add up: P_2 at x + i gamma is P_2 at x + i gamma/2
        moved on by the carrier shift of i gamma/2, and the carrier shift
        of -3i gamma/2 takes P_2 at x + 3i gamma/2 back to x."""
        p = classical_poly(fp, 2)
        half = x_shift(fp, p, F(1, 2))
        assert carrier_shift(fp, half, F(1, 2)) == x_shift(fp, p, 1)
        assert carrier_shift(fp, x_shift(fp, p, F(3, 2)), F(-3, 2)) == x_shift(fp, p)

    @pytest.mark.parametrize("fp", DIFF_PRESETS, ids=["w", "aw", "aw13"])
    def test_phi_real_and_odd(self, fp):
        phi = phi_x(fp)
        if fp.family == "W":  # 2x = 2iy in y = -ix: imaginary coefficients
            assert conj_coeffs(phi) == -phi
            assert coeff(phi, 0) == 0 and coeff(phi, 1) == GaussianRational(0, 2)
        else:
            assert star(phi) == phi
            assert z_inverse(phi) == -phi
