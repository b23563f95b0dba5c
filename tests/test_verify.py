"""Tests for the identity-verification layer."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miop.rtable as rtable_mod
import miop.verify as verify_mod
from miop.errors import ConfigurationError, GenericityError, LeadingCoefficientZero, MiopError
from miop.exact import Poly
from miop.families import PRESETS, FamilyParams, three_term
from miop.multiindex import IndexSet, build
from miop.rtable import build_rtable
from miop.verify import (
    IDENTITY_TAGS,
    check_degrees,
    check_permutation,
    check_prefix_chain,
    check_rrp,
    check_rtable_shift,
    check_vanishing,
    check_rrp_override,
    check_seed_proportionality,
    genericity_probe,
    regenerate_from_initial,
    run_all,
    shared_objects,
)

from .strategies import family_params

ETA = Poly.variable()


def rrp(fp, D, n_range):
    pair, table = shared_objects(fp, D, n_range)
    return check_rrp(pair, table, n_range)


def regenerate(fp, D, N):
    table = build_rtable(fp, D.M, (0, max(N - D.M - 1, 0)))
    return regenerate_from_initial(build(fp, D, n_max=N), table, N)


class TestCheckRrp:
    def test_m0_is_three_term(self):
        fp = PRESETS["l-default"]
        rep = rrp(fp, IndexSet.parse(""), (-1, 8))
        assert rep.passed
        assert {r["status"] for r in rep.rows} == {"pass", "structural"}

    def test_negative_rows_marked_structural(self):
        fp = PRESETS["j-default"]
        D = IndexSet.parse("I1,II1")
        rep = rrp(fp, D, (-D.M - 1, 2))
        by_n = {r["n"]: r["status"] for r in rep.rows}
        assert by_n[-3] == by_n[-1] == "structural"
        assert by_n[0] == by_n[2] == "pass"

    def test_corrupted_pair_fails_with_witness(self):
        fp = PRESETS["l-default"]
        D = IndexSet.parse("I1")
        pair = build(fp, D, n_max=6)
        pair.P[3] = pair.P[3] + 1
        rep = check_rrp(pair, build_rtable(fp, D.M, (0, 2)), (0, 2))
        assert not rep.passed
        assert "eta^" in rep.witness

    def test_table_short_of_the_checked_rows_raises(self):
        # a table lacking the pair's depth, or the rows checked, once read as
        # zero coefficients, and the corrupted pair passed
        fp = PRESETS["l-default"]
        D = IndexSet.parse("I1,II1")
        pair = build(fp, D, n_max=24)
        bad = dataclasses.replace(pair, P={**pair.P, 3: pair.P[3] * 3})
        with pytest.raises(ConfigurationError, match=r"R\^\[2\].*depth 1 on window \(-3, 8\)"):
            check_rrp(bad, build_rtable(fp, 1, (-3, 8)), (-3, 5))
        deep = build_rtable(fp, 2, (-3, 8))
        with pytest.raises(ConfigurationError, match=r"R\^\[2\]_\{9,-3\}.*depth 2"):
            check_rrp(bad, deep, (9, 20))
        assert not check_rrp(bad, deep, (-3, 5)).passed

    @pytest.mark.parametrize("name,lbl", [("w-default", "II1"), ("aw-q13", "I1,II1")])
    def test_difference_families(self, name, lbl):
        D = IndexSet.parse(lbl)
        rep = rrp(PRESETS[name], D, (-D.M - 1, 3))
        assert rep.passed

    @settings(max_examples=10, deadline=None)
    @given(num=st.integers(2, 40), den=st.integers(1, 12))
    def test_laguerre_random_g(self, num, den):
        g = F(num, den) + F(1, 2)
        fp = FamilyParams("L", (g,))
        rep = rrp(fp, IndexSet.parse("I1"), (-2, 2))
        assert rep.passed


class TestOverrideProbe:
    @pytest.mark.parametrize("name", ["l-default", "j-default", "w-default", "aw-default"])
    def test_rrp_unchanged_for_nonnegative_n(self, name):
        fp = PRESETS[name]
        D = IndexSet.parse("I1,II1")
        pair, table = shared_objects(fp, D, (-3, 4))
        rep = check_rrp_override(pair, table, (-3, 4))
        assert rep.passed
        assert all(r["n"] >= 0 for r in rep.rows)
        assert rep.identity == "rrp-override"


class TestRegeneration:
    def test_m0_regenerates_classical(self):
        fp = PRESETS["aw-default"]
        rep = regenerate(fp, IndexSet.parse(""), 8)
        assert rep.passed and len(rep.rows) == 8

    def test_laguerre_single(self):
        fp = PRESETS["l-default"]
        rep = regenerate(fp, IndexSet.parse("I1"), 8)
        assert rep.passed
        assert [r["n"] for r in rep.rows] == list(range(2, 9))

    def test_jacobi_pair(self):
        fp = PRESETS["j-default"]
        rep = regenerate(fp, IndexSet.parse("I1,I2"), 8)
        assert rep.passed
        assert [r["n"] for r in rep.rows] == list(range(3, 9))

    def test_leading_zero_raises(self):
        # a table whose A_1 vanishes makes the n=1 division impossible
        fp = PRESETS["l-default"]

        def coeffs(n):
            A, B, C = three_term(fp, n)
            return (F(0), B, C) if n == 1 else (A, B, C)

        table = build_rtable(fp, 0, (0, 3), coeffs=coeffs)
        with pytest.raises(LeadingCoefficientZero):
            regenerate_from_initial(build(fp, IndexSet.parse(""), n_max=4), table, 4)

    def test_nonconstant_leading_entry_raises(self):
        fp, D = PRESETS["l-default"], IndexSet.parse("I1")
        table = build_rtable(fp, D.M, (0, 2))
        table.entries[D.M, 0, D.M + 1] = table.entries[D.M, 0, D.M + 1] + ETA
        with pytest.raises(LeadingCoefficientZero, match="leading entry at n=0 is not constant"):
            regenerate_from_initial(build(fp, D, n_max=4), table, 4)


class TestSeedProportionality:
    @pytest.mark.parametrize("name", ["l-default", "j-default", "w-default", "aw-default"])
    @pytest.mark.parametrize("lbl", ["", "I1", "II1", "I1,II1"])
    def test_presets(self, name, lbl):
        rep = check_seed_proportionality(build(PRESETS[name], IndexSet.parse(lbl), n_max=0))
        assert rep.passed
        assert "c = " in rep.rows[0]["witness"]

    def test_laguerre_constant_recorded(self):
        rep = check_seed_proportionality(build(PRESETS["l-default"], IndexSet.parse("I1"), n_max=0))
        assert rep.rows[0]["witness"].startswith("c = -1")

    def test_empty_set_ratio_one(self):
        rep = check_seed_proportionality(build(PRESETS["j-default"], IndexSet.parse(""), n_max=0))
        assert rep.passed
        assert rep.rows[0]["witness"].startswith("c = 1")

    def test_builds_only_the_shifted_xi(self, monkeypatch):
        pair = build(PRESETS["aw-default"], IndexSet.parse("I1,II1"), n_max=0)

        def no_build(*args, **kwargs):
            raise AssertionError("the seed check built a whole pair")

        monkeypatch.setattr(verify_mod, "build", no_build)
        assert check_seed_proportionality(pair).passed

    @pytest.mark.parametrize("corrupt,witness", [
        (lambda p0: p0 * ETA, "deg P_0 = 2 vs deg Xi(shifted) = 1"),
        (lambda p0: p0 + 1, "eta^0 coefficient 1"),
    ], ids=["degree", "coefficient"])
    def test_corrupted_seed_fails_with_witness(self, corrupt, witness):
        pair = build(PRESETS["l-default"], IndexSet.parse("I1"), n_max=0)
        bad = dataclasses.replace(pair, P={**pair.P, 0: corrupt(pair.P_of(0))})
        rep = check_seed_proportionality(bad)
        assert not rep.passed
        assert rep.witness == witness


class TestPrefixChain:
    def test_depths_present(self):
        fp = PRESETS["l-default"]
        D = IndexSet.parse("I1,II1")
        rep = check_prefix_chain(*shared_objects(fp, D, (-1, 3)), (-1, 3))
        assert rep.passed
        assert {r["s"] for r in rep.rows} == {0, 1, 2}
        assert {r["prefix"] for r in rep.rows} == {"", "I1", "I1,II1"}

    def test_difference_family(self):
        fp = PRESETS["aw-default"]
        rep = check_prefix_chain(*shared_objects(fp, IndexSet.parse("II1,I2"), (0, 2)), (0, 2))
        assert rep.passed


class TestDegreesAndGenericity:
    def test_degrees_pass(self):
        rep = check_degrees(build(PRESETS["w-default"], IndexSet.parse("I1,I2"), n_max=4), (0, 4))
        assert rep.passed

    def test_probe_passes_presets(self):
        for name in ("l-default", "j-default", "w-default", "aw-default"):
            genericity_probe(*shared_objects(PRESETS[name], IndexSet.parse("I1"), (0, 4)), (0, 4))

    def test_probe_rejects_nongeneric(self):
        # at g = -1/2 the type-II deformation annihilates P_{D,2}
        fp = FamilyParams("L", (F(-1, 2),), check_range=False)
        with pytest.raises(GenericityError):
            genericity_probe(*shared_objects(fp, IndexSet.parse("II1"), (0, 4)), (0, 4))

    def test_probe_rejects_vanishing_leading_entry(self):
        fp, D = PRESETS["l-default"], IndexSet.parse("I1")
        table = build_rtable(fp, D.M, (0, 4))
        table.entries[D.M, 2, D.M + 1] = Poly.zero()
        with pytest.raises(GenericityError, match=r"R\^\[1\]_\{2,2\} vanishes at"):
            genericity_probe(build(fp, D, n_max=4), table, (0, 4))


class TestRandomParameters:
    """In-range points off the presets: the pair passes the recurrence and
    the degree law, or the pipeline stops with a typed MiopError."""

    @given(family_params(), st.sampled_from(["I1", "II1", "I1,I2", "I1,II1", "II1,II2"]))
    @settings(max_examples=12, deadline=None)
    def test_rrp_and_degrees_or_typed_error(self, fp, lbl):
        n_range = (0, 2)
        try:
            pair, table = shared_objects(fp, IndexSet.parse(lbl), n_range)
            genericity_probe(pair, table, n_range)
        except MiopError:
            return
        assert check_rrp(pair, table, n_range).passed
        assert check_degrees(pair, n_range).passed


class TestPermutation:
    def test_seeded_and_passing(self):
        fp = PRESETS["j-default"]
        D = IndexSet.parse("I1,I2,II1")
        rep = check_permutation(build(fp, D, n_max=2), n_max=2, seed=7)
        assert rep.passed
        rep2 = check_permutation(build(fp, D, n_max=2), n_max=2, seed=7)
        assert [r["witness"] for r in rep.rows] == [r["witness"] for r in rep2.rows]

    def test_single_entry_trivial(self):
        rep = check_permutation(build(PRESETS["l-default"], IndexSet.parse("I1"), n_max=1), n_max=1)
        assert rep.passed

    @pytest.mark.parametrize("corrupt,witness", [
        (lambda p: dataclasses.replace(p, Xi=p.Xi * 3), "perm [0, 2, 1]: |leading coefficient| changed"),
        (lambda p: dataclasses.replace(p, P={**p.P, 2: p.P_of(2) + 1}),
         "perm [0, 2, 1]: P_2 not matched by global sign"),
    ], ids=["leading-coefficient", "P_2"])
    def test_wrong_permuted_pair_fails_with_witness(self, monkeypatch, corrupt, witness):
        # seed 0 shuffles three columns to [0, 2, 1]
        real_build = verify_mod.build
        monkeypatch.setattr(verify_mod, "build", lambda *args, **kwargs: corrupt(real_build(*args, **kwargs)))
        fp, D = PRESETS["j-default"], IndexSet.parse("I1,I2,II1")
        rep = check_permutation(build(fp, D, n_max=2), n_max=2, seed=0)
        assert not rep.passed
        assert rep.witness == witness


class TestTableLaws:
    def test_shift_law_passes_both_calculi(self):
        for key, lab in [("j-default", "I1,II1"), ("aw-default", "I1")]:
            fp = PRESETS[key]
            D = IndexSet.parse(lab)
            rep = check_rtable_shift(build_rtable(fp, D.M, (-D.M - 1, 4)), D)
            assert rep.passed
            assert len(rep.rows) == D.M + 1

    def test_vanishing_triangle(self):
        fp = PRESETS["w-default"]
        D = IndexSet.parse("I1,I2")
        rep = check_vanishing(build_rtable(fp, D.M, (-D.M - 1, 4)), D)
        assert rep.passed
        # level s carries (s+1)(s+2)/2 forced zeros
        assert "6 entries vanish" in rep.rows[-1]["witness"]

    def test_vanishing_catches_corruption(self):
        fp, D = PRESETS["l-default"], IndexSet.parse("I1")
        table = build_rtable(fp, D.M, (-D.M - 1, 4))
        table.entries[1, -1, 1] = Poly.one()
        rep = check_vanishing(table, D)
        assert not rep.passed
        assert [r["status"] for r in rep.rows] == ["pass", "fail"]
        assert rep.witness == "n=-1: nonzero entry at level 1, k=1"

    def test_shift_law_catches_corruption(self):
        fp = PRESETS["l-default"]
        D = IndexSet.parse("I1")
        table = build_rtable(fp, 1, (-2, 4))
        key = (1, 2, 0)
        # derivative law is blind to constants, so corrupt with +eta
        table.entries[key] = table.entries[key] + Poly([F(0), F(1)])
        rep = check_rtable_shift(table, D)
        assert not rep.passed
        assert rep.witness == "n=2: level 1 entry k=0"

    @pytest.mark.parametrize("key", ["w-default", "aw-default", "aw-q13"])
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_shift_laws_catch_xentry_corruption(self, key, s):
        """The half-shift laws read the stored eta entries through the
        average and the divided difference; an entry changed after the
        build, by a constant or by a term of degree 1 or 2 in eta (its
        x-picture lift changed by the same polynomial in eta(x)), fails them
        first at its own level."""
        fp = PRESETS[key]
        D = IndexSet.parse("I1,I2")
        for bump in (Poly.one(), ETA, ETA * ETA * F(1, 7)):
            table = build_rtable(fp, D.M, (-3, 3))
            entry = (s, 1, 0)
            table.entries[entry] = table.entries[entry] + bump
            rep = check_rtable_shift(table, D)
            assert not rep.passed
            assert [r["s"] for r in rep.rows if r["status"] == "fail"][0] == s


class TestRunAll:
    def test_laguerre_full(self):
        fp = PRESETS["l-default"]
        D = IndexSet.parse("I1,I2")
        reports = run_all(fp, D, (-D.M - 1, 5), seed=3)
        assert {r.identity for r in reports} == set(IDENTITY_TAGS)
        assert all(r.passed for r in reports)
        tags = [r.identity for r in reports]
        assert tags == sorted(tags) == list(IDENTITY_TAGS)

    @pytest.mark.parametrize("name", ["l-default", "aw-default"])
    def test_one_identity_streams_as_in_full_run(self, name):
        fp = PRESETS[name]
        D = IndexSet.parse("I1,II1")
        full = {r.identity: list(r.stream()) for r in run_all(fp, D, (-3, 3), seed=3)}
        for tag in IDENTITY_TAGS:
            (rep,) = run_all(fp, D, (-3, 3), seed=3, identities=[tag])
            assert rep.identity == tag
            assert list(rep.stream()) == full[tag]

    def test_aborts_on_nongeneric(self):
        fp = FamilyParams("L", (F(-1, 2),), check_range=False)
        with pytest.raises(GenericityError):
            run_all(fp, IndexSet.parse("II1"), (0, 4))

    @pytest.mark.parametrize("identities", [["rpp"], ["rrp", "vanishng"]])
    def test_unknown_identity_rejected(self, identities):
        # a misspelt tag would otherwise run no check and read as a pass
        bad = identities[-1]
        with pytest.raises(ConfigurationError, match=rf"unknown identity '{bad}': the identities are "
                                                     rf"{', '.join(IDENTITY_TAGS)}$"):
            run_all(PRESETS["l-default"], IndexSet.parse("I1"), (0, 2), identities=identities)

    def test_negative_upper_end_rejected(self):
        with pytest.raises(ConfigurationError, match="--n-range"):
            run_all(PRESETS["l-default"], IndexSet.parse("I1"), (-4, -1))

    def test_builds_pair_and_table_once(self, monkeypatch):
        fp = PRESETS["w-default"]
        D = IndexSet.parse("I1,II1")
        pairs, tables, laws = [], [], []
        real_build, real_build_rtable = verify_mod.build, rtable_mod.build_rtable
        real_laws = verify_mod.check_rprop2_rprop3

        def counting_build(fp1, D1, n_max=8):
            pairs.append((fp1, D1))
            return real_build(fp1, D1, n_max)

        def counting_build_rtable(fp1, M, window, coeffs=None):
            tables.append((M, window, coeffs is None))
            return real_build_rtable(fp1, M, window, coeffs)

        def counting_laws(table):
            laws.append((table.M, table.window))
            return real_laws(table)

        monkeypatch.setattr(verify_mod, "build", counting_build)
        # the shared table is built in rtable, the override table in verify
        monkeypatch.setattr(rtable_mod, "build_rtable", counting_build_rtable)
        monkeypatch.setattr(verify_mod, "build_rtable", counting_build_rtable)
        monkeypatch.setattr(verify_mod, "check_rprop2_rprop3", counting_laws)
        # seed 3 swaps the two entries, so the permuted pair is built for another D
        reports = run_all(fp, D, (-3, 1), seed=3)
        assert all(r.passed for r in reports)
        assert pairs.count((fp, D)) == 1
        # seed 3 swaps the two entries: the permuted pair is built
        assert (fp, D.permute((1, 0))) in pairs
        # the shared depth-M table, then the B_-1 := 7 override table kept with it
        once = [(D.M, (-3, 1), True), (D.M, (0, 1), False)]
        assert tables == once
        assert laws == [(D.M, (-3, 1))]
        # another index set of the same depth and window builds its own pair
        # but reads the same table, override table and law violations
        other = IndexSet.parse("I1,I2")
        again = run_all(fp, other, (-3, 1), seed=3)
        assert all(r.passed for r in again)
        assert pairs.count((fp, other)) == 1
        assert tables == once
        assert laws == [(D.M, (-3, 1))]
        # a range from n = 1 reads the same table through another override window
        run_all(fp, other, (1, 1), seed=3)
        assert tables[2:] == [(D.M, (1, 1), False)]
        # another window is another table
        run_all(fp, other, (-3, 2), seed=3)
        assert tables[3:] == [(D.M, (-3, 2), True), (D.M, (0, 2), False)]
        assert laws == [(D.M, (-3, 1)), (D.M, (-3, 2))]

    def test_identity_permutation_reuses_pair(self, monkeypatch):
        fp = PRESETS["w-default"]
        D = IndexSet.parse("I1")
        pairs = []
        real_build = verify_mod.build

        def counting_build(fp1, D1, n_max=8):
            pairs.append((fp1, D1))
            return real_build(fp1, D1, n_max)

        monkeypatch.setattr(verify_mod, "build", counting_build)
        reports = run_all(fp, D, (-2, 3), seed=3)
        assert all(r.passed for r in reports)
        # at M = 1 the drawn permutation is the identity
        assert pairs.count((fp, D)) == 1


class TestReportShape:
    def test_summary_and_stream(self):
        fp = PRESETS["l-default"]
        rep = rrp(fp, IndexSet.parse("I1"), (-2, 2))
        assert rep.passed and rep.witness is None
        assert rep.fp is fp and rep.D == IndexSet.parse("I1")
        rows = list(rep.stream())
        assert len(rows) == 5
        assert all(row["identity"] == "rrp" for row in rows)
        assert [row["n"] for row in rows] == list(range(-2, 3))

    def test_one_line_contains_status(self):
        rep = check_seed_proportionality(build(PRESETS["w-default"], IndexSet.parse("I1"), n_max=0))
        assert rep.one_line().startswith("PASS seed-proportionality W")
