"""Tests for the explicit rational approximation of sqrt(1-x) and the
factorization factory built on it."""

import math

import mpmath
import numpy as np
import pytest

from bltnoise.error_eval import max_err, opt_lt_toe, sensitivity_of
from bltnoise.params import blt_coeffs
from bltnoise.rational import (
    degree_for_error,
    newman_error_bound,
    newman_sqrt,
    ra_blt_build,
    rational_sqrt_free,
    rational_sqrt_free_bound,
    weighted_parseval_check,
)
from bltnoise.seq import ToeplitzSeq, ltt_apply_dense, optimal_coeffs, series_reciprocal


def unit_circle(num):
    phi = np.linspace(0.0, 2.0 * np.pi, num, endpoint=False)
    return np.exp(1j * phi)


class TestNewmanSqrt:
    def test_structure(self):
        for d in (3, 4, 9, 30):
            t = newman_sqrt(d)
            assert t.d_plus == (d - 1) // 2
            assert t.d_minus == d - 1 - t.d_plus
            assert t.degree == d
            np.testing.assert_allclose(t.h, math.pi / math.sqrt(2 * t.d_plus), rtol=1e-15)
            centers = np.array([c for c, _ in t.terms])
            assert np.all(centers > 1.0)

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            newman_sqrt(2)

    def test_bound_value_d30(self):
        np.testing.assert_allclose(
            newman_error_bound(30), 8.0 * math.exp(-0.5 * math.pi * math.sqrt(28)), rtol=1e-15
        )
        assert newman_error_bound(30) < 1.98e-3

    def test_error_at_zero(self):
        t = newman_sqrt(30)
        assert abs(t.evaluate(0.0) - 1.0) <= newman_error_bound(30)

    def test_unit_circle_sweep(self):
        """max |r(x) - sqrt(1-x)| over the unit circle stays under the bound."""
        x = unit_circle(512)
        target = np.sqrt(1.0 - x)
        for d in (8, 16, 30):
            t = newman_sqrt(d)
            err = np.max(np.abs(t.evaluate(x) - target))
            assert err <= newman_error_bound(d), f"d={d}: {err}"

    def test_interior_points(self):
        rng = np.random.default_rng(44)
        pts = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
        pts = pts[np.abs(pts) <= 1.0]
        t = newman_sqrt(16)
        err = np.max(np.abs(t.evaluate(pts) - np.sqrt(1.0 - pts)))
        assert err <= newman_error_bound(16)


class TestDegreeForError:
    def test_reference_values(self):
        assert degree_for_error(1000, 0.1) == 162
        assert degree_for_error(5, 0.999) == 37

    def test_monotone_in_accuracy(self):
        for n in (10, 10**3, 10**6):
            degs = [degree_for_error(n, mu) for mu in (0.9, 0.5, 0.1, 0.01)]
            assert degs == sorted(degs)

    def test_monotone_in_horizon(self):
        for mu in (0.5, 0.1):
            degs = [degree_for_error(n, mu) for n in (5, 100, 10**4, 10**8)]
            assert degs == sorted(degs)

    def test_validation(self):
        with pytest.raises(ValueError):
            degree_for_error(4, 0.5)
        with pytest.raises(ValueError):
            degree_for_error(100, 0.0)
        with pytest.raises(ValueError):
            degree_for_error(100, 1.0)


class TestRaBltBuild:
    def test_dense_validity_small(self):
        """B C = A for the degree-3 construction at n = 10."""
        n = 10
        fact = ra_blt_build(3, n)
        r = blt_coeffs(fact.rational(), n)
        b = ToeplitzSeq(np.cumsum(r.coeffs))
        c = series_reciprocal(r)
        prod = ltt_apply_dense(b, ltt_apply_dense(c, np.eye(n)))
        np.testing.assert_allclose(prod, np.tril(np.ones((n, n))), atol=1e-8)

    def test_roots_interlace(self):
        fact = ra_blt_build(9, 100)
        th = np.sort(fact.theta)
        thh = np.sort(fact.theta_hat)
        assert np.all(th > 0) and np.all(th < 1)
        assert np.all(thh > 0) and np.all(thh <= 1)
        assert thh[-1] == 1.0
        # strict interlacing: theta_i < theta_hat_i < theta_{i+1}
        assert np.all(th < thh)
        assert np.all(thh[:-1] < th[1:])

    def test_generator_is_horizon_free(self):
        """Only the stored target n differs between builds at different n."""
        a = ra_blt_build(9, 100)
        b = ra_blt_build(9, 10**6)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
        np.testing.assert_array_equal(a.omega, b.omega)
        assert a.n == 100 and b.n == 10**6

    def test_degree9_ratio(self):
        fact = ra_blt_build(9, 1000)
        rep = max_err(fact, 1000)
        assert rep.max_err / opt_lt_toe(1000) <= 1.2

    def test_near_optimality_additive(self):
        """MaxErr is within mu of the Toeplitz optimum at the certified degree."""
        n, mu = 1000, 0.5
        d = degree_for_error(n, mu)
        fact = ra_blt_build(d, n)
        rep = max_err(fact, n)
        assert rep.max_err <= opt_lt_toe(n) + mu

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            ra_blt_build(2, 100)

    def test_high_degree_poles_stay_distinct(self):
        """Degree 162 hits the float64 pole-collapse regime; the nudge keeps
        both root vectors strictly sorted and distinct."""
        fact = ra_blt_build(162, 1000)
        assert np.unique(fact.theta).size == 162
        assert np.unique(fact.theta_hat).size == 162
        assert np.all(np.diff(np.sort(fact.theta)) > 0)

    @staticmethod
    def _mp_sensitivity(degree, n):
        """Column-norm of C via the reciprocal recurrence in 50-digit arithmetic."""
        mpmath.mp.dps = 50
        t = newman_sqrt(degree)
        h = mpmath.pi / mpmath.sqrt(2 * t.d_plus)
        scale = 2 * h * mpmath.sqrt(2) / mpmath.pi
        ks = range(-t.d_minus, t.d_plus + 1)
        centers = [1 + 2 * mpmath.e ** (2 * h * k) for k in ks]
        weights = [scale * 2 * mpmath.e ** (3 * h * k) for k in ks]
        A = scale * mpmath.fsum(mpmath.e ** (h * k) for k in ks)
        r0 = A - mpmath.fsum(w / c for w, c in zip(weights, centers))
        theta = [1 / c for c in centers] + [mpmath.mpf(0)]
        v = [-(w / c) / r0 for w, c in zip(weights, centers)]
        v = v + [1 - mpmath.fsum(v)]
        # reciprocal recurrence on the exact poles: s_k = -theta.y, y <- theta*y - v (theta.y)
        y = list(v)
        ssq = mpmath.mpf(1)
        for _ in range(1, n):
            ty = [tt * yy for tt, yy in zip(theta, y)]
            c = mpmath.fsum(ty)
            ssq += c * c
            y = [t1 - v1 * c for t1, v1 in zip(ty, v)]
        return float(mpmath.sqrt(ssq))

    def test_sensitivity_matches_mpmath_midrange_degree(self):
        """Float pole-space recurrence vs 50-digit arithmetic at degree 54."""
        d, n = 54, 1000
        got = sensitivity_of(ra_blt_build(d, n), n)
        np.testing.assert_allclose(got, self._mp_sensitivity(d, n), rtol=1e-8)

    def test_sensitivity_matches_mpmath_at_high_degree(self):
        # At degree 162 the quadrature weights span ~e^60, so forming the
        # residue vector in float64 cancels down to an absolute coefficient
        # floor near 1e-6; the recurrence itself is stable (the floor does
        # not grow with n).  2e-5 relative on the column norm is what the
        # float64 parametrization genuinely delivers here.
        d, n = 162, 500
        got = sensitivity_of(ra_blt_build(d, n), n)
        np.testing.assert_allclose(got, self._mp_sensitivity(d, n), rtol=2e-5)


class TestFreeStepApproximant:
    def test_reduction_identity(self):
        """The fixed construction is sqrt(2) * r((1-x)/2) with the same ladder."""
        d = 11
        t = newman_sqrt(d)
        x = unit_circle(64)
        lhs = t.evaluate(x)
        rhs = math.sqrt(2.0) * rational_sqrt_free((1.0 - x) / 2.0, t.d_plus, t.d_minus, t.h)
        # atol covers x = 1, where both sides vanish analytically
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_free_bound_on_right_half_plane(self):
        """|r(x) - sqrt(x)| <= bound(x) on Re(x) >= 0 for several ladders."""
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 2, 300) + 1j * rng.uniform(-2, 2, 300)
        pts = pts[np.real(pts) >= 0]
        for d_plus, d_minus in ((6, 6), (10, 14), (20, 20)):
            h = math.pi / math.sqrt(2 * d_plus)
            got = rational_sqrt_free(pts, d_plus, d_minus, h)
            err = np.abs(got - np.sqrt(pts))
            bound = rational_sqrt_free_bound(pts, d_plus, d_minus, h)
            assert np.all(err <= bound + 1e-15)


class TestWeightedParseval:
    def test_equal_functions(self):
        f = lambda x: 1.0 / (1.0 - 0.5 * x)
        coeffs = 0.5 ** np.arange(50)
        quad, csum = weighted_parseval_check(f, f, coeffs, coeffs, tau=0.3, M=64)
        assert quad == 0.0 and csum == 0.0

    def test_constant_vs_linear(self):
        """f = 1, g = x at tau = 1/2: the sum is 1 + e^{-1}."""
        f = lambda x: np.ones_like(x)
        g = lambda x: x
        quad, csum = weighted_parseval_check(
            f, g, [1.0], [0.0, 1.0], tau=0.5, M=1024
        )
        want = 1.0 + math.exp(-1.0)
        np.testing.assert_allclose(csum, want, rtol=1e-12)
        np.testing.assert_allclose(quad, want, atol=1e-6)

    def test_identity_for_rational_pair(self):
        """Quadrature equals the coefficient sum for two analytic generators."""
        t1 = newman_sqrt(9)
        f = lambda x: t1.evaluate(x)
        g = lambda x: np.sqrt(1.0 - x)
        fc = blt_coeffs(ra_blt_build(9, 4000).rational(), 4000).coeffs
        # sqrt(1-x) has coefficients of 1/sqrt(1-x) pushed through (1-x): c_k = f_k - f_{k-1}
        opt = optimal_coeffs(4000).coeffs
        gc = np.r_[1.0, opt[1:] - opt[:-1]]
        r0 = t1.constant - sum(w / c for c, w in t1.terms)
        quad, csum = weighted_parseval_check(
            lambda x: f(x) / r0, g, fc, gc, tau=0.005, M=2048
        )
        np.testing.assert_allclose(quad, csum, rtol=1e-5)

    def test_truncated_factor_sum_bounded(self):
        """Coefficient distance between the built B-generator and the optimal
        one obeys the quadrature bound max|diff|^2 / (1 - e^{-2 tau})."""
        n = 1000
        d = 30
        tau = 1.0 / (2.0 * n)
        N = 10**4
        fact = ra_blt_build(d, n)
        b = np.cumsum(blt_coeffs(fact.rational(), N).coeffs)
        f = optimal_coeffs(N).coeffs
        k = np.arange(N)
        csum = float(np.sum((b - f) ** 2 * np.exp(-2.0 * tau * k)))
        gamma = newman_error_bound(d)
        assert csum <= (2.0 * math.sqrt(n) * gamma) ** 2

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            weighted_parseval_check(lambda x: x, lambda x: x, [1.0], [1.0], tau=0.5, M=8)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            weighted_parseval_check(lambda x: x, lambda x: x, [1.0], [1.0], tau=0.0, M=64)
