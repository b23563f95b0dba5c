"""Acceptance gate: every stated criterion, one test and one verdict line each.

Criteria are checked at their stated tolerances and runtime limits.  Pair
construction is shared through a module cache; its full cost lands inside
criterion 3, whose budget covers construction plus the recurrence sweep.
"""

import random
import time
from fractions import Fraction as F

import pytest

from miop.errors import InexactDivision, ReductionFailure
from miop.exact import GaussianRational, LaurentPoly, Poly
from miop.exact.matrix import det
from miop.families import PRESETS, FamilyParams, classical_poly, reduce_to_eta, three_term
from miop.multiindex import IndexSet, build
from miop.quad import Weight, orthogonality_check
from miop.rtable import (
    build_rtable,
    check_rprop,
    check_rprop2_rprop3,
    check_vanishing_region,
)
from miop.verify import (
    check_degrees,
    check_permutation,
    check_rrp,
    check_seed_proportionality,
    regenerate_from_initial,
)

from .oracles import det_cofactor

ETA = Poly.variable()

SWEEP_PRESETS = ("l-default", "j-default", "w-default", "aw-default")
# two index sets per depth M = 1..3; the mixed type I+II cases sit at M = 2, 3
SWEEP_SETS = ("I1", "II1", "I1,I2", "I1,II1", "I1,I2,I3", "I1,I2,II1")
COMBOS = [(key, label) for key in SWEEP_PRESETS for label in SWEEP_SETS]

_PAIR_CACHE = {}


def get_pair(key: str, label: str):
    """Shared (Xi, P) construction, deep enough for every criterion below."""
    cache_key = (key, label)
    if cache_key not in _PAIR_CACHE:
        D = IndexSet.parse(label)
        _PAIR_CACHE[cache_key] = build(PRESETS[key], D, n_max=9 + D.M)
    return _PAIR_CACHE[cache_key]


def _verdict(num: int, name: str, t0: float) -> None:
    print(f"criterion {num} ({name}): PASS in {time.perf_counter() - t0:.2f}s")


def test_criterion_1_three_term_base():
    t0 = time.perf_counter()
    for key, fp in PRESETS.items():
        for n in range(13):
            A, B, C = three_term(fp, n)
            lhs = classical_poly(fp, n + 1) * A + classical_poly(fp, n) * (B - ETA)
            if n > 0:
                lhs = lhs + classical_poly(fp, n - 1) * C
            assert lhs.is_zero, (key, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict(1, "three-term base", t0)


def test_criterion_2_rtable_structure():
    t0 = time.perf_counter()
    for key in SWEEP_PRESETS:
        fp = PRESETS[key]
        table = build_rtable(fp, 3, (-4, 12))
        if fp.is_difference:
            assert check_rprop2_rprop3(table) == []
        else:
            assert check_rprop(table) == []
        assert check_vanishing_region(table) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _verdict(2, "R-table structure", t0)


def test_criterion_3_recurrence_main_theorem():
    t0 = time.perf_counter()
    for key, label in COMBOS:
        fp = PRESETS[key]
        D = IndexSet.parse(label)
        table = build_rtable(fp, D.M, (-D.M - 1, 8))
        rep = check_rrp(get_pair(key, label), table, (-D.M - 1, 8))
        assert rep.passed, rep.one_line()
        assert len(rep.rows) == 8 + D.M + 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _verdict(3, "3+2M-term recurrence", t0)


def test_criterion_4_degrees():
    t0 = time.perf_counter()
    for key, label in COMBOS:
        rep = check_degrees(get_pair(key, label), (0, 8))
        assert rep.passed, rep.one_line()
    _verdict(4, "degrees", t0)


def test_criterion_5_regeneration():
    t0 = time.perf_counter()
    for key, label in COMBOS:
        fp = PRESETS[key]
        D = IndexSet.parse(label)
        table = build_rtable(fp, D.M, (0, 7 - D.M))
        rep = regenerate_from_initial(get_pair(key, label), table, 8)
        assert rep.passed, rep.one_line()
        assert len(rep.rows) == 8 - D.M
    _verdict(5, "regeneration from initial data", t0)


def test_criterion_6_seed_proportionality():
    t0 = time.perf_counter()
    for key, label in COMBOS:
        rep = check_seed_proportionality(get_pair(key, label))
        assert rep.passed, rep.one_line()
    _verdict(6, "shape-invariance seed", t0)


def test_criterion_7_order_independence():
    t0 = time.perf_counter()
    for key, label in COMBOS:
        D = IndexSet.parse(label)
        if D.M < 2:
            continue
        rep = check_permutation(get_pair(key, label), n_max=2, seed=11)
        assert rep.passed, rep.one_line()
    _verdict(7, "order independence", t0)


def test_criterion_8_orthogonality():
    t0 = time.perf_counter()
    empty = IndexSet.parse("")
    for key in ("l-default", "j-default"):
        weight = Weight(build(PRESETS[key], empty, n_max=8))
        for n in range(9):
            _, _, rel = orthogonality_check(weight, n, n)
            assert rel < 1e-9, (key, n, rel)
    deformed = [
        (PRESETS["l-default"], "I1"),
        (PRESETS["l-default"], "II1"),
        (PRESETS["l-default"], "I1,I2"),
        (PRESETS["l-default"], "I1,II1"),
        (PRESETS["j-default"], "I1"),
        (PRESETS["j-default"], "I1,II1"),
        (FamilyParams("J", (F(11, 4), F(9, 4))), "II2"),
        (FamilyParams("J", (F(7, 3), F(11, 4))), "I1,I2"),
    ]
    for fp, label in deformed:
        weight = Weight(build(fp, IndexSet.parse(label), n_max=4))
        for n in range(3):
            _, _, rel = orthogonality_check(weight, n, n)
            assert rel < 1e-7, (fp.family, label, n, rel)
        for n, m in [(0, 1), (0, 2), (1, 2)]:
            _, _, rel = orthogonality_check(weight, n, m)
            assert rel < 1e-8, (fp.family, label, n, m, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _verdict(8, "orthogonality", t0)


def _random_poly(rng: random.Random, gaussian: bool) -> Poly:
    deg = rng.randrange(0, 3)
    coeffs = []
    for _ in range(deg + 1):
        c = F(rng.randrange(-9, 10), rng.randrange(1, 7))
        if gaussian and rng.random() < 0.4:
            c = GaussianRational(c, F(rng.randrange(-5, 6), rng.randrange(1, 4)))
        coeffs.append(c)
    return Poly(coeffs)


def test_criterion_9_exactness_oracles():
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    for trial in range(200):
        size = rng.randrange(1, 6)
        gaussian = trial % 3 == 0
        m = [[_random_poly(rng, gaussian) for _ in range(size)] for _ in range(size)]
        assert det(m) == det_cofactor(m), f"trial {trial}"

    # fault injection: force each guarded failure path to fire
    with pytest.raises(InexactDivision):
        Poly([F(0), F(1)]).exact_div(Poly([F(1), F(1)]))
    # the one reduction (uncompose with eta_x) has two guards, both reachable
    # from either family: an i coordinate, and a remainder after the peel
    w, aw = PRESETS["w-default"], PRESETS["aw-default"]
    i = GaussianRational(F(0), F(1))
    with pytest.raises(ReductionFailure, match="not real"):
        reduce_to_eta(w, Poly([i], "x"))
    with pytest.raises(ReductionFailure, match="not a polynomial in eta"):
        reduce_to_eta(w, Poly([F(0), F(1)], "x"))
    with pytest.raises(ReductionFailure, match="not real"):
        reduce_to_eta(aw, LaurentPoly(-1, (i, F(0), i)))
    with pytest.raises(ReductionFailure, match="not real"):
        reduce_to_eta(aw, LaurentPoly(-1, (-i, F(0), i)))
    with pytest.raises(ReductionFailure, match="not a polynomial in eta"):
        reduce_to_eta(aw, LaurentPoly(-2, (F(1), F(0), F(3), F(0), F(2))))

    _verdict(9, "exactness oracles", t0)
