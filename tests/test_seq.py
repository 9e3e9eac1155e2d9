"""Tests for the coefficient-sequence algebra and dense LTT oracle."""

import math

import numpy as np
import pytest

from bltnoise.seq import (
    DENSE_CAP,
    ToeplitzSeq,
    ltt_apply_dense,
    ltt_dense,
    optimal_coeffs,
)

from helpers import cauchy_product, series_reciprocal


class TestOptimalCoeffs:
    def test_first_four(self):
        f = optimal_coeffs(4)
        np.testing.assert_allclose(f.coeffs, [1.0, 0.5, 0.375, 0.3125], rtol=0, atol=0)

    def test_base_case(self):
        np.testing.assert_array_equal(optimal_coeffs(1).coeffs, [1.0])

    def test_f19_bracket(self):
        """f_k lies in [1/sqrt(pi*(k+1)), 1/sqrt(pi*k)]."""
        f19 = optimal_coeffs(20).coeffs[19]
        assert 1.0 / math.sqrt(math.pi * 20) <= f19 <= 1.0 / math.sqrt(math.pi * 19)

    def test_bracket_all_k(self):
        f = optimal_coeffs(2000).coeffs
        k = np.arange(1, 2000)
        lo = 1.0 / np.sqrt(np.pi * (k + 1))
        hi = 1.0 / np.sqrt(np.pi * k)
        assert np.all(f[1:] >= lo) and np.all(f[1:] <= hi)

    def test_matches_binomial_closed_form(self):
        """Recurrence output equals 4^-k * binom(2k, k) while that is exact."""
        f = optimal_coeffs(31).coeffs
        for k in range(31):
            closed = math.comb(2 * k, k) / 4.0**k
            np.testing.assert_allclose(f[k], closed, rtol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            optimal_coeffs(0)


class TestCauchyProduct:
    def test_optimal_squared_is_ones(self):
        f = optimal_coeffs(4)
        np.testing.assert_allclose(cauchy_product(f, f).coeffs, np.ones(4), atol=1e-12)

    def test_optimal_squared_is_ones_n64(self):
        f = optimal_coeffs(64)
        np.testing.assert_allclose(cauchy_product(f, f).coeffs, np.ones(64), atol=1e-10)

    def test_identity_element(self):
        rng = np.random.default_rng(7)
        b = ToeplitzSeq(rng.standard_normal(3))
        out = cauchy_product(ToeplitzSeq([1.0, 0.0, 0.0]), b)
        np.testing.assert_allclose(out.coeffs, b.coeffs, rtol=1e-15)

    def test_hand_product(self):
        out = cauchy_product(ToeplitzSeq([1.0, 1.0]), ToeplitzSeq([1.0, -1.0]))
        np.testing.assert_array_equal(out.coeffs, [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cauchy_product(ToeplitzSeq([1.0, 2.0]), ToeplitzSeq([1.0]))


class TestSeriesReciprocal:
    def test_ones_inverts_to_one_minus_x(self):
        out = series_reciprocal(ToeplitzSeq([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(out.coeffs, [1.0, -1.0, 0.0, 0.0])

    def test_degree_one(self):
        out = series_reciprocal(ToeplitzSeq([1.0, 0.5]))
        np.testing.assert_array_equal(out.coeffs, [1.0, -0.5])

    def test_remultiplies_to_unit(self):
        a = optimal_coeffs(6)
        r = series_reciprocal(a)
        e0 = np.zeros(6)
        e0[0] = 1.0
        np.testing.assert_allclose(cauchy_product(a, r).coeffs, e0, atol=1e-10)

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs = rng.standard_normal(24)
            coeffs[0] = 1.0
            a = ToeplitzSeq(coeffs)
            back = series_reciprocal(series_reciprocal(a))
            np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-9, atol=1e-9)

    def test_zero_constant_term(self):
        with pytest.raises(ValueError):
            series_reciprocal(ToeplitzSeq([0.0, 1.0]))


class TestLttApplyDense:
    def test_prefix_sums(self):
        out = ltt_apply_dense(ToeplitzSeq([1.0, 1.0, 1.0]), np.ones((3, 1)))
        np.testing.assert_array_equal(out, [[1.0], [2.0], [3.0]])

    def test_identity(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((3, 4))
        out = ltt_apply_dense(ToeplitzSeq([1.0, 0.0, 0.0]), Z)
        np.testing.assert_allclose(out, Z, rtol=1e-15)

    def test_columns_are_shifted_coeffs(self):
        f = optimal_coeffs(3)
        out = ltt_apply_dense(f, np.eye(3))
        expected = np.zeros((3, 3))
        for j in range(3):
            expected[j:, j] = f.coeffs[: 3 - j]
        np.testing.assert_array_equal(out, expected)

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(5)
        a = ToeplitzSeq(rng.standard_normal(16))
        Z = rng.standard_normal((16, 3))
        np.testing.assert_allclose(ltt_apply_dense(a, Z), ltt_dense(a) @ Z, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ltt_apply_dense(ToeplitzSeq([1.0, 1.0]), np.ones((3, 1)))

    def test_composition_matches_cauchy_product(self):
        """LTT(a) @ LTT(b) acting on Z equals LTT(a*b) acting on Z."""
        rng = np.random.default_rng(19)
        for _ in range(5):
            a = ToeplitzSeq(rng.standard_normal(32))
            b = ToeplitzSeq(rng.standard_normal(32))
            Z = rng.standard_normal((32, 2))
            lhs = ltt_apply_dense(cauchy_product(a, b), Z)
            rhs = ltt_apply_dense(a, ltt_apply_dense(b, Z))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestToeplitzSeq:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ToeplitzSeq([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ToeplitzSeq([1.0, np.nan])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            ToeplitzSeq(np.ones((2, 2)))

    def test_dense_cap(self):
        with pytest.raises(ValueError):
            ltt_apply_dense(ToeplitzSeq(np.ones(DENSE_CAP + 1)), np.ones((DENSE_CAP + 1, 1)))
