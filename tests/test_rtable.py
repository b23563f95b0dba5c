"""Tests for the recurrence coefficient tables."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError, MiopError
from miop.exact import LaurentPoly, Poly
from miop.families import (
    PRESETS,
    FamilyParams,
    three_term,
    x_shift,
)
from miop.rtable import (
    RTable,
    build_rtable,
    check_rprop,
    check_rprop2_rprop3,
    check_vanishing_region,
)

from .oracles import conj_coeffs, eta_shift_identities, star
from .strategies import family_params

ETA = Poly.variable()


def l32():
    return FamilyParams("L", (F(3, 2),))


class TestConstruction:
    def test_family_dispatch(self):
        assert build_rtable(PRESETS["l-default"], 0, (0, 2)).xentries is None
        assert build_rtable(PRESETS["w-default"], 0, (0, 2)).xentries is not None

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            build_rtable(PRESETS["l-default"], 1, (3, 1))
        with pytest.raises(ConfigurationError):
            build_rtable(PRESETS["l-default"], -1, (0, 2))

    def test_seed_row(self):
        t = build_rtable(PRESETS["l-default"], 1, (0, 3))
        for n in range(-2, 6):
            assert t.entry(-1, n, 0) == Poly.one()
        assert t.entry(-1, 0, 1).is_zero

    def test_band_is_zero_outside(self):
        t = build_rtable(PRESETS["l-default"], 1, (0, 3))
        assert t.entry(0, 1, 2).is_zero
        assert t.entry(1, 1, 5).is_zero

    def test_level_zero_row(self):
        for fp in (PRESETS["l-default"], PRESETS["j-default"]):
            t = build_rtable(fp, 0, (-1, 4))
            for n in range(-1, 5):
                A, B, C = three_term(fp, n)
                assert t.entry(0, n, 1) == Poly([A])
                assert t.entry(0, n, 0) == B - ETA
                assert t.entry(0, n, -1) == Poly([C])

    def test_level_zero_row_difference(self):
        for fp in (PRESETS["w-default"], PRESETS["aw-default"]):
            t = build_rtable(fp, 0, (0, 3))
            for n in range(4):
                A, B, C = three_term(fp, n)
                assert t.entry(0, n, 1) == Poly([A])
                assert t.entry(0, n, 0) == B - ETA
                assert t.entry(0, n, -1) == Poly([C])

    def test_s1_k0_display(self):
        fp = l32()
        t = build_rtable(fp, 1, (0, 4))
        for n in range(5):
            A, B, C = three_term(fp, n)
            C1 = three_term(fp, n + 1)[2]
            Am = three_term(fp, n - 1)[0]
            assert t.entry(1, n, 0) == Poly([A * C1 + Am * C]) + (B - ETA) ** 2

    def test_s1_top_corner_frozen(self):
        t = build_rtable(l32(), 1, (0, 2))
        assert t.entry(1, 0, 2) == Poly([F(2)])

    def test_leading_entry_is_A_product(self):
        for key in ("l-default", "j-default"):
            fp = PRESETS[key]
            t = build_rtable(fp, 2, (0, 4))
            for n in range(5):
                prod = F(1)
                for i in range(n, n + 3):
                    prod *= three_term(fp, i)[0]
                assert t.entry(2, n, 3) == Poly([prod])

    def test_xentry_requires_difference(self):
        t = build_rtable(PRESETS["l-default"], 0, (0, 1))
        with pytest.raises(ConfigurationError):
            t.xentry(0, 0, 0)


class TestDegreeLaw:
    @pytest.mark.parametrize(
        "key,M", [("l-default", 2), ("j-default", 2), ("w-default", 2), ("aw-default", 2)]
    )
    def test_bound_and_generic_equality(self, key, M):
        fp = PRESETS[key]
        t = build_rtable(fp, M, (-M - 1, 6))
        for (s, n, k), p in t.entries.items():
            if s < 0:
                continue
            assert p.is_zero or p.degree <= s + 1 - abs(k)
            if n >= s + 1:
                assert p.degree == s + 1 - abs(k)
            if n >= 0 and k == s + 1:
                assert not p.is_zero


class TestRprop:
    @pytest.mark.parametrize("key", ["l-default", "j-default"])
    def test_derivative_lowers_level(self, key):
        t = build_rtable(PRESETS[key], 3, (-4, 6))
        assert check_rprop(t) == []

    def test_rejects_difference_tables(self):
        t = build_rtable(PRESETS["w-default"], 0, (0, 1))
        with pytest.raises(ConfigurationError):
            check_rprop(t)

    def test_s1_k0_by_hand(self):
        fp = l32()
        t = build_rtable(fp, 1, (1, 1))
        B1 = three_term(fp, 1)[1]
        assert t.entry(1, 1, 0).derivative() == (B1 - ETA) * F(-2)

    def test_holds_under_coefficient_override(self):
        # The level-lowering identity never depends on the out-of-range
        # coefficient choice, only on its constancy.
        fp = PRESETS["j-default"]

        def coeffs(n):
            if n == -1:
                return (F(0), F(7), F(5))
            return three_term(fp, n)

        t = build_rtable(fp, 2, (-3, 4), coeffs=coeffs)
        assert check_rprop(t) == []

    @given(num=st.integers(min_value=1, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_random_g(self, num):
        fp = FamilyParams("L", (F(1, 2) + F(num, 7),))
        t = build_rtable(fp, 2, (-3, 3))
        assert check_rprop(t) == []


class TestRprop23:
    @pytest.mark.parametrize("key", ["w-default", "aw-default", "aw-q13"])
    def test_half_shift_identities(self, key):
        fp = PRESETS[key]
        assert check_rprop2_rprop3(build_rtable(fp, 2, (-3, 3))) == []

    def test_reuses_prebuilt_table(self):
        fp = PRESETS["w-default"]
        t = build_rtable(fp, 1, (-2, 3))
        assert check_rprop2_rprop3(t) == []

    def test_rejects_continuous(self):
        with pytest.raises(ConfigurationError):
            check_rprop2_rprop3(build_rtable(PRESETS["l-default"], 1, (0, 2)))


def b_minus_one_7(fp):
    """The coefficients of the override probe: B_-1 := 7, the rest as usual."""
    return lambda n: (F(0), F(7), F(0)) if n == -1 else three_term(fp, n)


def assert_shared_override_exact(fp, M, lo, hi):
    """The B_-1 := 7 table built on the default table over rows lo..hi equals
    the one built from scratch, on the window n >= 0 that verify uses."""
    base = build_rtable(fp, M, (min(lo, -M - 1), hi))
    window = (max(0, lo), hi)
    shared = build_rtable(fp, M, window, coeffs=b_minus_one_7(fp), base=base)
    fresh = build_rtable(fp, M, window, coeffs=b_minus_one_7(fp))
    assert shared.entries == fresh.entries
    assert shared.xentries == fresh.xentries
    assert shared.abc == fresh.abc


class TestSharedOverride:
    @pytest.mark.parametrize(
        "key,M",
        [("l-default", 3), ("j-default", 3), ("w-default", 2), ("aw-default", 2)],
    )
    def test_presets(self, key, M):
        for m in range(M + 1):
            assert_shared_override_exact(PRESETS[key], m, -4, 6)

    @given(fp=family_params(), M=st.integers(0, 2), lo=st.integers(-4, 3))
    @settings(max_examples=15, deadline=None)
    def test_random_points(self, fp, M, lo):
        try:
            build_rtable(fp, M, (min(lo, -M - 1), 4))
        except MiopError:
            return  # a singular coefficient: neither table exists
        assert_shared_override_exact(fp, M, lo, 4)

    def test_base_must_cover(self):
        fp = PRESETS["l-default"]
        base = build_rtable(fp, 1, (0, 3))
        for fp1, M, window in [(fp, 1, (0, 4)), (fp, 2, (0, 3)), (l32(), 1, (0, 3))]:
            with pytest.raises(ConfigurationError):
                build_rtable(fp1, M, window, coeffs=b_minus_one_7(fp1), base=base)


class TestXPicture:
    @pytest.mark.parametrize("key", ["w-default", "aw-default", "aw-q13"])
    def test_self_conjugate(self, key):
        fp = PRESETS[key]
        t = build_rtable(fp, 2, (-2, 3))
        for _, xp in t.xentries.items():
            assert (conj_coeffs(xp) if fp.family == "W" else star(xp)) == xp

    @pytest.mark.parametrize("key", ["w-default", "aw-default", "aw-q13"])
    def test_stored_shifts_and_coefficients(self, key):
        """What the half-shift checks read back: the +1/2 shift of every
        x-entry below level M, and the three-term coefficients."""
        fp = PRESETS[key]
        t = build_rtable(fp, 2, (-2, 3))
        assert {s for s, _, _ in t.ups} == {-1, 0, 1}
        for key3, xp in t.xentries.items():
            if key3[0] < 2:
                assert t.ups[key3] == x_shift(fp, xp, F(1, 2))
        assert t.abc == {n: three_term(fp, n) for n in range(-4, 6)}
        assert build_rtable(PRESETS["l-default"], 1, (0, 2)).ups is None

    @given(fp=family_params(("W", "AW")))
    @settings(max_examples=10, deadline=None)
    def test_minus_half_shift_is_mirror(self, fp):
        """The half-shift checks take p(x - i gamma/2) as the mirror x -> -x
        (z -> 1/z) of p(x + i gamma/2), for every stored x-entry."""
        try:
            t = build_rtable(fp, 2, (-2, 2))
        except MiopError:
            return
        mirror = Poly.reflect if fp.family == "W" else LaurentPoly.z_inverse
        for xp in t.xentries.values():
            assert mirror(x_shift(fp, xp, F(1, 2))) == x_shift(fp, xp, F(-1, 2))

    def test_wilson_s1_matches_shift_identities(self):
        fp = PRESETS["w-default"]
        t = build_rtable(fp, 1, (-2, 3))
        s_id, p_id = eta_shift_identities(fp, 1)
        for n in range(-2, 4):
            A, B, C = three_term(fp, n)
            B1 = three_term(fp, n + 1)[1]
            Bm = three_term(fp, n - 1)[1]
            C1 = three_term(fp, n + 1)[2]
            Am = three_term(fp, n - 1)[0]
            assert t.entry(1, n, 1) == (Poly([B + B1]) - s_id) * A
            assert t.entry(1, n, -1) == (Poly([B + Bm]) - s_id) * C
            assert t.entry(1, n, 0) == (
                Poly([A * C1 + Am * C]) + Poly([B * B]) - s_id * B + p_id
            )

    def test_askey_wilson_s1_matches_shift_identities(self):
        fp = PRESETS["aw-q13"]
        t = build_rtable(fp, 1, (0, 2))
        s_id, p_id = eta_shift_identities(fp, 1)
        for n in range(3):
            A, B, C = three_term(fp, n)
            B1 = three_term(fp, n + 1)[1]
            assert t.entry(1, n, 1) == (Poly([B + B1]) - s_id) * A


class TestVanishingRegion:
    @pytest.mark.parametrize(
        "key,M",
        [("l-default", 3), ("j-default", 3), ("w-default", 2), ("aw-default", 2)],
    )
    def test_region_vanishes(self, key, M):
        fp = PRESETS[key]
        t = build_rtable(fp, M, (-M - 1, 4))
        assert check_vanishing_region(t) == []

    def test_window_must_cover_region(self):
        t = build_rtable(PRESETS["l-default"], 1, (0, 4))
        with pytest.raises(ConfigurationError):
            check_vanishing_region(t)

    def test_region_survives_coefficient_override(self):
        # The triangle is protected by A_{-1} = 0 alone; overriding the
        # other out-of-range coefficients moves entries outside the
        # triangle but never inside it.
        fp = PRESETS["l-default"]

        def coeffs(n):
            if n == -1:
                return (F(0), F(7), F(5))
            return three_term(fp, n)

        t = build_rtable(fp, 1, (-2, 2), coeffs=coeffs)
        assert check_vanishing_region(t) == []
        assert t.entry(1, -1, 0) == (F(7) - ETA) ** 2
        plain = build_rtable(fp, 1, (-2, 2))
        assert plain.entry(1, -1, 0) == ETA**2


class TestExport:
    def test_rows_deterministic_and_complete(self):
        t = build_rtable(l32(), 1, (0, 2))
        rows = t.to_rows()
        assert rows == t.to_rows()
        # every level: s = 0 has k in -1..1, s = 1 has k in -2..2
        assert len(rows) == 3 * 3 + 3 * 5
        assert [r["s"] for r in rows] == [0] * 9 + [1] * 15
        top = [r for r in rows if r["n"] == 0 and r["k"] == 2]
        assert top == [{"s": 1, "n": 0, "k": 2, "coeffs": ["2"]}]
