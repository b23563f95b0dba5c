"""Tests for the recurrence coefficient tables."""

import contextlib
import hashlib
import io
import re
from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop.cli import main
from miop.errors import ConfigurationError, MiopError
from miop.exact import Poly
from miop.exact.scalars import _column
from miop.families import (
    PRESETS,
    FamilyParams,
    shifted,
    three_term,
    x_shift,
)
from miop.rtable import (
    _ladder,
    build_rtable,
    check_rprop,
    check_rprop2_rprop3,
    check_vanishing_region,
)

from .oracles import (
    carrier_shift,
    conj_coeffs,
    eta_shift_identities,
    fraction_powers,
    half_shift_violations_x,
    reflect,
    rtable_recursion,
    star,
    z_inverse,
)
from .strategies import family_params, polys

ETA = Poly.variable()


def l32():
    return FamilyParams("L", (F(3, 2),))


class TestConstruction:
    def test_family_dispatch(self):
        """The family enters only through the ladder coefficients of
        prod_t (y - eta(x - i(s-2t) gamma/2)): (y - eta)^(s+1) for L and J,
        y^2 - (sum) y + (product) of the two shifted etas at W/AW level 1."""
        for key in ("l-default", "j-default"):
            for s in range(4):
                assert _ladder(PRESETS[key], s) == [
                    (-ETA) ** (s + 1 - j) * comb(s + 1, j) for j in range(s + 2)]
        for key in ("w-default", "aw-default", "aw-q13"):
            s_id, p_id = eta_shift_identities(PRESETS[key], 1)
            assert _ladder(PRESETS[key], 1) == [p_id, -s_id, Poly.one()]
        assert rtable_recursion(PRESETS["l-default"], 0, (0, 2))[1] is None
        assert rtable_recursion(PRESETS["w-default"], 0, (0, 2))[1] is not None

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
        assert t.entry(-2, 0, 0).is_zero

    def test_unbuilt_key_in_band_raises(self):
        # a level past the depth, or a row past the widened window, is not zero
        t = build_rtable(PRESETS["l-default"], 1, (0, 3))
        with pytest.raises(ConfigurationError, match=r"R\^\[2\]_\{0,1\}.*depth 1 on window \(0, 3\)"):
            t.entry(2, 0, 1)
        assert not t.entry(0, 4, 0).is_zero  # level 0 reaches one row past the window
        with pytest.raises(ConfigurationError):
            t.entry(0, 5, 0)
        with pytest.raises(ConfigurationError):
            t.entry(-1, -3, 0)

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
        """An entry lifts to the x-picture for W and AW only."""
        t = build_rtable(PRESETS["l-default"], 0, (0, 1))
        with pytest.raises(ConfigurationError):
            x_shift(t.fp, t.entry(0, 0, 0))
        w = build_rtable(PRESETS["w-default"], 0, (0, 1))
        assert x_shift(w.fp, w.entry(0, 0, 0)).var == "x"


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


def assert_override_region(fp, M, window):
    """The B_-1 := 7 table equals the default one at every entry (s, n, k)
    with n >= 0 and n + k >= 0: a product of J's reaching row -1 from
    there cannot come back, as A_-1 = 0.  On a window from n = 0 with
    M >= 1 the padded row n = -1 holds B_-1 itself, so the two tables
    differ there."""
    default = build_rtable(fp, M, window)
    override = build_rtable(fp, M, window, coeffs=b_minus_one_7(fp))
    assert override.entries.keys() == default.entries.keys()
    differ = {key for key, p in default.entries.items() if override.entries[key] != p}
    assert not {(s, n, k) for s, n, k in differ if n >= 0 and n + k >= 0}
    if M >= 1:
        assert any(n == -1 for _, n, _ in differ)


class TestOverrideTable:
    @pytest.mark.parametrize("key", sorted(PRESETS))
    def test_presets(self, key):
        for M in range(4):
            assert_override_region(PRESETS[key], M, (0, 4))

    @given(fp=family_params(), M=st.integers(0, 3), hi=st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_random_points(self, fp, M, hi):
        try:
            build_rtable(fp, M, (0, hi))
        except MiopError:
            return  # a singular coefficient: neither table exists
        assert_override_region(fp, M, (0, hi))


class TestXPicture:
    @pytest.mark.parametrize("key", ["w-default", "aw-default", "aw-q13"])
    def test_self_conjugate(self, key):
        """Every x-entry of the level recursion is self-conjugate, and so
        is the lift of every stored eta entry."""
        fp = PRESETS[key]
        t = build_rtable(fp, 2, (-2, 3))
        _, xentries = rtable_recursion(fp, 2, (-2, 3))
        lifts = [x_shift(fp, p) for p in t.entries.values()]
        for xp in list(xentries.values()) + lifts:
            assert (conj_coeffs(xp) if fp.family == "W" else star(xp)) == xp

    @pytest.mark.parametrize("key", ["w-default", "aw-default", "aw-q13"])
    def test_stored_shifts_and_coefficients(self, key):
        """What the half-shift laws stand for: every x-entry of the level
        recursion is the lift of the stored eta entry, and abc holds the
        three-term coefficients."""
        fp = PRESETS[key]
        t = build_rtable(fp, 2, (-2, 3))
        _, xentries = rtable_recursion(fp, 2, (-2, 3))
        assert xentries.keys() == t.entries.keys()
        for key3, xp in xentries.items():
            assert x_shift(fp, t.entries[key3]) == xp
        assert t.abc == {n: three_term(fp, n) for n in range(-4, 6)}

    @given(fp=family_params(("W", "AW")))
    @settings(max_examples=10, deadline=None)
    def test_minus_half_shift_is_mirror(self, fp):
        """p(x - i gamma/2) is the mirror x -> -x (z -> 1/z) of
        p(x + i gamma/2) for every x-entry of the level recursion, which is
        why the average and the divided difference of an eta entry are
        again eta polynomials."""
        try:
            _, xentries = rtable_recursion(fp, 2, (-2, 2))
        except MiopError:
            return
        mirror = reflect if fp.family == "W" else z_inverse
        for xp in xentries.values():
            assert mirror(carrier_shift(fp, xp, F(1, 2))) == carrier_shift(fp, xp, F(-1, 2))

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


class TestClosedForm:
    """build_rtable's closed form against the level recursion of the oracles."""

    @given(fp=family_params(), M=st.integers(0, 3), lo=st.integers(-5, 3),
           width=st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_entries_match_recursion(self, fp, M, lo, width):
        window = (lo, lo + width)
        try:
            expected, _ = rtable_recursion(fp, M, window)
        except MiopError as exc:  # a singular coefficient, raised at the same row
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                build_rtable(fp, M, window)
            return
        t = build_rtable(fp, M, window)
        assert t.entries == expected
        assert [repr(p) for p in t.entries.values()] == [repr(expected[k]) for k in t.entries]
        # the B_-1 := 7 table, built the same way from its own coefficients
        override = build_rtable(fp, M, window, coeffs=b_minus_one_7(fp))
        assert override.entries == rtable_recursion(fp, M, window, b_minus_one_7(fp))[0]

    @given(fp=family_params(("W", "AW")), M=st.integers(1, 3), lo=st.integers(-4, 2),
           data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_bumped_entry_same_violations(self, fp, M, lo, data):
        """After one stored entry changes by an eta polynomial, the eta laws
        and the x-picture laws on the lifted entries list the same
        violations."""
        window = (lo, lo + 2)
        try:
            t = build_rtable(fp, M, window)
        except MiopError:
            return
        key = data.draw(st.sampled_from(sorted(t.entries)))
        bump = data.draw(polys(max_deg=M + 1)) + ETA ** data.draw(st.integers(0, M + 2))
        t.entries[key] = t.entries[key] + bump
        xentries = {k: x_shift(fp, p) for k, p in t.entries.items()}
        assert check_rprop2_rprop3(t) == half_shift_violations_x(fp, M, window, t.abc, xentries)


class TestIntegerBand:
    """build_rtable on the integer band (each row of J^j as ints over its
    least common denominator) against the same build on the Fraction band
    it replaced, and the band itself against that band."""

    @staticmethod
    def fraction_band(abc, M, lo, hi):
        """fraction_powers in _powers' layout: every row over 1, in Fractions."""
        return [{n: (1, {k: v for (m, k), v in band.items() if m == n})
                 for n in range(lo - M - 1 + j, hi + M + 2 - j)}
                for j, band in enumerate(fraction_powers(abc, M, lo, hi))]

    def fraction_built(self, *args, **kwargs):
        from miop import rtable

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rtable, "_powers", self.fraction_band)
            return build_rtable(*args, **kwargs)

    def assert_same(self, fp, M, window):
        t = build_rtable(fp, M, window)
        ref = self.fraction_built(fp, M, window)
        assert t.entries == ref.entries and t.abc == ref.abc
        assert t.to_rows() == ref.to_rows()
        # the B_-1 := 7 table on verify's window n >= 0
        lo = max(0, window[0])
        over = build_rtable(fp, M, (lo, window[1]), coeffs=b_minus_one_7(fp))
        ref = self.fraction_built(fp, M, (lo, window[1]), coeffs=b_minus_one_7(fp))
        assert over.entries == ref.entries

    def assert_band(self, fp, M, lo, hi):
        from miop.rtable import _powers

        abc = {n: three_term(fp, n) for n in range(lo - M, hi + M + 1)}
        want = self.fraction_band(abc, M, lo, hi)
        for got_j, want_j in zip(_powers(abc, M, lo, hi), want, strict=True):
            assert sorted(got_j) == sorted(want_j)
            for n, (den, row) in got_j.items():
                assert {k: x * F(1, den) for k, x in row.items()} == want_j[n][1]
                if all(type(x) is int for x in row.values()):
                    assert gcd(den, *row.values()) == 1  # the least denominator

    @pytest.mark.parametrize("key", sorted(PRESETS))
    def test_presets(self, key):
        self.assert_same(PRESETS[key], 3, (-4, 6))
        self.assert_band(PRESETS[key], 3, -4, 6)

    def test_tower_valued_point(self):
        """shifted(aw-q13): a_j sqrt(q), so A_n, B_n, C_n leave Q and the
        band holds tower values."""
        fp = shifted(PRESETS["aw-q13"])
        assert any(len(_column(c)[0]) > 1 for n in range(4) for c in three_term(fp, n))
        self.assert_same(fp, 2, (-3, 4))
        self.assert_band(fp, 2, -3, 4)

    @given(fp=family_params(), M=st.integers(0, 3), lo=st.integers(-4, 2))
    @settings(max_examples=15, deadline=None)
    def test_random_points(self, fp, M, lo):
        try:
            build_rtable(fp, M, (lo, lo + 4))
        except MiopError:
            return  # a singular coefficient: neither table exists
        self.assert_same(fp, M, (lo, lo + 4))
        self.assert_band(fp, M, lo, lo + 4)


# SHA-256 of `miop rtable --preset P --M M --format csv` on the default
# window -M-1..8, recorded with the level recursion that the closed form
# replaced: depths past the benchmark's M <= 3 stay byte-identical.
DEEP_CSV_SHA256 = {
    ("l-default", 4): "96fa5db32bb3a30a062488abde9151a458f80957c4e4e906b5ab939f5de1b78d",
    ("l-default", 6): "8c4087ebf5081bd7b0703d670eb3feb975bbc695add241de70afb9645363afb4",
    ("l-default", 8): "63e9aa3a546ce9534205d3bd658885f82b26c65351fa7b4b0733e835025a80ae",
    ("j-default", 4): "9c2da579ff05052945be571ae1f60dcb264542092ce37ad6ce69a0d69dace3c2",
    ("j-default", 6): "ff8642e83e01ddf00727ffa1c26c5fd8273d27b978d4a046838df27f73246cfe",
    ("j-default", 8): "7001ed50b2b4e02c0b6f055f60f0fae8e139477c47822e7e3503cadc87aeba94",
    ("w-default", 4): "a41d23bc61ccd12d029dc02ad55cb2a1c019240e1cb6a0652418bac6b7c8aea1",
    ("w-default", 6): "d0288bb77b596b9ccc83240ffb35028612a9f559b580ad412c7f9bd3dacf2afa",
    ("w-default", 8): "9141455011f6e2109f3ace910f3aaf3edb6f0e78b4e84b69b031101cbf51b320",
    ("aw-default", 4): "a94a661625b9c451cd5586f9e4dda269fd8a4fe7c479a60bd7666a9200714ce6",
    ("aw-default", 6): "9dd48167d12d0c3ee0fc878b00bec5daba2106bb5c72a3a49ea71fb300f0ccb9",
    ("aw-default", 8): "55e2fc32269e7a57c6c811d7c2ff208f89125d8dedb09067a3fd56c0d53956f6",
    ("aw-q13", 4): "f037c624bbeec6da98b79730230a4f70ed7aec791c87a6cc3193df02669505e1",
    ("aw-q13", 6): "24e9acecdd9b3c76248daff0a10eaa07a4e8c413f178a76625e6f1a697bee709",
    ("aw-q13", 8): "41b0ce6f5e26cd77d3053b5a62706341afffcec3c03b737960e4ccc1805d0f2f",
}


@pytest.mark.parametrize("preset,M", sorted(DEEP_CSV_SHA256))
def test_deep_csv_digest(preset, M):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["rtable", "--preset", preset, "--M", str(M), "--format", "csv"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DEEP_CSV_SHA256[preset, M]


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
