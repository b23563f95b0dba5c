"""Determinant kernels: Bareiss vs cofactor oracle, conjugation, pivoting."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop.errors import ConfigurationError
from miop.exact import GaussianRational, LaurentPoly, Poly, det, last_column_cofactors

from .oracles import conj, det_cofactor, map_coeffs
from .strategies import laurents, polys


def random_poly(rng, max_deg=2, var="eta"):
    return Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(rng.randint(0, max_deg + 1))], var)


def random_matrix(rng, n, max_deg=2):
    return [[random_poly(rng, max_deg) for _ in range(n)] for _ in range(n)]


class TestBasics:
    def test_1x1(self):
        p = Poly([1, 2], "eta")
        assert det([[p]]) == p

    def test_rank_one_vanishes(self):
        eta = Poly.variable("eta")
        m = [[Poly.one("eta"), eta], [eta, eta * eta]]
        assert det(m).is_zero
        assert det_cofactor(m).is_zero

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            det([[Poly.one("eta"), Poly.one("eta")]])

    def test_mixed_carriers_rejected(self):
        # the ring's own arithmetic refuses to mix carriers
        p, z = Poly.one("eta"), LaurentPoly.monomial(0)
        with pytest.raises(ConfigurationError):
            det([[p, z], [p, p]])

    def test_zero_pivot_needs_row_swap(self):
        eta = Poly.variable("eta")
        z = Poly.zero("eta")
        one = Poly.one("eta")
        m = [[z, eta, one],
             [eta, z, one],
             [one, one, z]]
        assert det(m) == det_cofactor(m)

    def test_zero_column_gives_zero(self):
        z = Poly.zero("eta")
        one = Poly.one("eta")
        m = [[z, one, one], [z, one, z], [z, z, one]]
        assert det(m).is_zero


class TestOracle:
    # det is Bareiss at every size, so each test also draws sizes 1-3
    def test_random_4x4_against_cofactor(self):
        rng = random.Random(20240817)
        for n in (4, 1, 2, 3):
            for _ in range(25):
                m = random_matrix(rng, n)
                assert det(m) == det_cofactor(m)

    def test_random_5x5_against_cofactor(self):
        rng = random.Random(411)
        for n in (5, 1, 2, 3):
            for _ in range(5):
                m = random_matrix(rng, n, max_deg=1)
                assert det(m) == det_cofactor(m)

    def test_laurent_entries(self):
        rng = random.Random(7)
        for n in (4, 1, 2, 3):
            for _ in range(10):
                m = [[LaurentPoly(rng.randint(-2, 0),
                                  [Fraction(rng.randint(-4, 4))
                                   for _ in range(rng.randint(1, 3))])
                      for _ in range(n)] for _ in range(n)]
                assert det(m) == det_cofactor(m)

    @given(polys(max_deg=2), polys(max_deg=2), polys(max_deg=2),
           polys(max_deg=2))
    @settings(max_examples=40)
    def test_2x2_formula(self, a, b, c, d):
        assert det([[a, b], [c, d]]) == a * d - b * c


class TestConjugation:
    def test_det_commutes_with_conj(self):
        i = GaussianRational(0, 1)
        rng = random.Random(99)
        for _ in range(10):
            entries = [[random_poly(rng, 2, "x") + random_poly(rng, 2, "x") * i
                        for _ in range(3)] for _ in range(3)]
            conj_entries = [[map_coeffs(e, conj) for e in row] for row in entries]
            lhs = det(conj_entries)
            rhs = map_coeffs(det(entries), conj)
            assert lhs == rhs


@st.composite
def blocks_with_column(draw):
    """An R x (R-1) block (R = 2..5) of Poly or LaurentPoly entries and a
    last column; with some probability one block column is zeroed, so every
    cofactor vanishes."""
    size = draw(st.integers(1, 4))
    entries = draw(st.sampled_from([polys(max_deg=2), laurents(max_span=2)]))
    block = [[draw(entries) for _ in range(size)] for _ in range(size + 1)]
    column = [draw(entries) for _ in range(size + 1)]
    zero = block[0][0] * 0
    if draw(st.booleans()):
        k = draw(st.integers(0, size - 1))
        for row in block:
            row[k] = zero
    return block, column, zero


class TestLastColumnCofactors:
    @given(blocks_with_column())
    @settings(max_examples=60, deadline=None)
    def test_expansion_matches_cofactor_oracle(self, case):
        block, column, zero = case
        cofs = last_column_cofactors(block)
        assert len(cofs) == len(block)
        full = [row + [c] for row, c in zip(block, column)]
        expansion = zero
        for c, w in zip(column, cofs):
            expansion = expansion + c * w
        assert det_cofactor(full) == expansion

    def test_zero_column_gives_zero_cofactors(self):
        z = Poly.zero("eta")
        eta = Poly.variable("eta")
        cofs = last_column_cofactors([[z, eta], [z, eta + 1], [z, 2 * eta]])
        assert all(w.is_zero for w in cofs)

    def test_signs(self):
        # block (a, b)^T: det([[a, x], [b, y]]) = a y - b x, cofactors (-b, a)
        a, b = Poly([1, 2], "eta"), Poly([3], "eta")
        assert last_column_cofactors([[a], [b]]) == [-b, a]

    def test_shape_rejected(self):
        one = Poly.one("eta")
        with pytest.raises(ConfigurationError):
            last_column_cofactors([[one, one], [one, one]])
