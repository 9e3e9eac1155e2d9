"""Tests for the closed-form error norms and the reference bound table.

The closed forms are checked three ways: hand-computed small cases, direct
O(n d) coefficient summation, and a high-precision oracle (mpmath) aimed at
the series branch near theta = 1 where naive evaluation loses all digits.
"""

import math

import mpmath
import numpy as np
import pytest

from bltnoise.error_eval import (
    EULER_GAMMA,
    _gsum1,
    _gsum2,
    bounds_table,
    bounds_csv,
    BOUNDS_CSV_HEADER,
    geometric_prefix,
    matousek_lb,
    max_err,
    opt_lt_toe,
    rownorm_closed,
    sensitivity_closed,
    sensitivity_of,
)
from bltnoise.params import BltFactorization, blt_coeffs, degree1_closed_form
from bltnoise.rational import ra_blt_build
from bltnoise.seq import series_reciprocal

from helpers import random_factorization, random_rational, reciprocal_coeffs_direct


def mp_gamma_n(theta, n):
    theta = mpmath.mpf(theta)
    return (1 - theta**n) / (1 - theta) if theta != 1 else mpmath.mpf(n)


def mp_gsum1(theta, n):
    """sum_{k<n} gamma_k(theta) = (n - gamma_n(theta)) / (1 - theta)."""
    theta = mpmath.mpf(theta)
    return (n - mp_gamma_n(theta, n)) / (1 - theta)


def mp_gsum2(t1, t2, n):
    """sum_{k<n} gamma_k(t1) gamma_k(t2) expanded into four geometric sums."""
    t1, t2 = mpmath.mpf(t1), mpmath.mpf(t2)
    total = n - mp_gamma_n(t1, n) - mp_gamma_n(t2, n) + mp_gamma_n(t1 * t2, n)
    return total / ((1 - t1) * (1 - t2))


class TestGeometricPrefix:
    def test_hand_value(self):
        assert geometric_prefix(0.5, 3) == 1.75

    def test_theta_one(self):
        assert geometric_prefix(1.0, 100) == 100.0

    def test_zero_terms(self):
        assert geometric_prefix(0.7, 0) == 0.0

    def test_near_one_against_mpmath(self):
        mpmath.mp.dps = 60
        for theta, n in [
            (1.0 - 1e-12, 10**6),
            (1.0 - 1e-9, 10**6),
            (1.0 - 1e-7, 10**5),
            (1.0 - 4.9e-7, 10**6),   # just inside the series branch
            (1.0 - 5.1e-7, 10**6),   # just outside, direct formula
        ]:
            got = geometric_prefix(theta, n)
            want = float(mp_gamma_n(theta, n))
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_small_n_series_is_exact(self):
        """In the series zone with tiny integer n the binomial series terminates."""
        theta = 1.0 - 1e-9
        got = geometric_prefix(theta, 3)
        want = 1.0 + theta + theta * theta
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            geometric_prefix(-0.2, 5)
        with pytest.raises(ValueError):
            geometric_prefix(1.2, 5)


class TestGsumOracles:
    """Closed-form coefficient sums vs the high-precision reference."""

    def test_gsum1_plain_and_series(self):
        mpmath.mp.dps = 60
        for theta, n in [
            (0.5, 64),
            (0.99, 1000),
            (1.0 - 1e-12, 10**6),
            (1.0 - 1e-8, 10**4),
            (1.0 - 2.0e-7, 10**6),
        ]:
            got = _gsum1(theta, n)
            want = float(mp_gsum1(theta, n))
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_gsum1_theta_one(self):
        # sum_{k<n} k = n(n-1)/2
        assert _gsum1(1.0, 5) == 10.0

    def test_gsum2_all_branches(self):
        mpmath.mp.dps = 80
        cases = [
            (0.5, 0.5, 3),                       # both plain: hand value 3.25
            (0.3, 0.9, 4096),                    # both plain
            (1.0 - 1e-12, 1.0 - 2e-12, 10**6),   # both in series zone
            (1.0 - 1e-10, 0.5, 10**6),           # mixed: one series, one plain
            (0.5, 1.0 - 1e-10, 10**6),           # mixed, swapped order
            (1.0 - 4.0e-7, 0.999999, 10**6),     # mixed near the zone boundary
            (1.0, 0.5, 1000),                    # theta exactly one
            (1.0, 1.0, 3),                       # both one: sum k^2 = 5
        ]
        for t1, t2, n in cases:
            got = _gsum2(t1, t2, n)
            if t1 == 1.0 and t2 == 1.0:
                want = sum(k * k for k in range(n))
            elif t1 == 1.0:
                want = float((mpmath.mpf(n) * (n - 1) / 2 - mp_gsum1(t2, n) * mpmath.mpf(t2) + 0) )
                # gamma_k(1) gamma_k(t2) = k gamma_k(t2); just sum directly instead
                want = float(mpmath.fsum(k * mp_gamma_n(t2, k) for k in range(n))) if n <= 2000 else None
            else:
                want = float(mp_gsum2(t1, t2, n))
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=2e-9, err_msg=f"{t1}, {t2}, {n}")

    def test_gsum2_hand_value(self):
        # gamma = [0, 1, 1.5]; sum of squares = 0 + 1 + 2.25
        np.testing.assert_allclose(_gsum2(0.5, 0.5, 3), 3.25, rtol=1e-15)

    def test_gsum2_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t1, t2 = rng.uniform(0.01, 1.0, 2)
            n = int(rng.integers(2, 10**5))
            np.testing.assert_allclose(_gsum2(t1, t2, n), _gsum2(t2, t1, n), rtol=1e-12)


class TestSensitivityClosed:
    def test_hand_value(self):
        got = sensitivity_closed([0.5], [0.5], 3)
        np.testing.assert_allclose(got, math.sqrt(1.3125), rtol=1e-15)

    def test_degree_zero(self):
        for n in (1, 10, 10**6):
            assert sensitivity_closed([], [], n) == 1.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(77)
        for n in (16, 256, 4096):
            for _ in range(5):
                fact = random_factorization(rng, 3, n)
                got = sensitivity_closed(fact.omega_hat, fact.theta_hat, n)
                s = series_reciprocal(blt_coeffs(fact.rational(), n)).coeffs
                np.testing.assert_allclose(got, math.sqrt(np.sum(s * s)), rtol=1e-10)

    def test_negative_radicand_rejected(self):
        """The guard fires when cancellation drives the quadratic form below -1.

        For exact arithmetic the radicand is a Gram form and stays >= 1, so
        the only way to reach the error path is float cancellation: two nearly
        equal theta_hat with huge opposite residues amplify the rounding noise
        of the three geometric sums by 1e300.
        """
        with pytest.raises(ValueError):
            sensitivity_closed([1e150, -1e150], [0.3, 0.3 + 3e-13], 100)


class TestSensitivityOf:
    """The doubling evaluator against mpmath, the O(n) oracle and the residue form."""

    # ||C||_{1->2} of ra_blt_build(5, n) at n: the exact-pole reciprocal
    # recurrence of test_rational.TestRaBltBuild._mp_sensitivity summed
    # term by term in 30-digit mpmath arithmetic (about a minute at 10^6).
    MP_RA5 = {10**6: 47.359358944748934, 2 * 10**4: 6.9047166871394055}

    def test_ra_long_horizon_matches_mpmath(self):
        n = 10**6
        got = sensitivity_of(ra_blt_build(5, n), n)
        np.testing.assert_allclose(got, self.MP_RA5[n], rtol=1e-10)

    def test_ra_mid_horizon_matches_mpmath(self):
        n = 2 * 10**4
        got = sensitivity_of(ra_blt_build(5, n), n)
        np.testing.assert_allclose(got, self.MP_RA5[n], rtol=1e-11)

    def test_degree1_matches_closed(self):
        for n in (10**2, 10**4, 10**5):
            fact = degree1_closed_form(n)
            want = sensitivity_closed(fact.omega_hat, fact.theta_hat, n)
            np.testing.assert_allclose(sensitivity_of(fact, n), want, rtol=1e-12)

    def test_random_factorizations_match_closed(self):
        rng = np.random.default_rng(77)
        for n in (1, 2, 3, 16, 255, 256, 4096, 10**5):
            for d in (1, 3, 5):
                fact = random_factorization(rng, d, n)
                want = sensitivity_closed(fact.omega_hat, fact.theta_hat, n)
                np.testing.assert_allclose(sensitivity_of(fact, n), want, rtol=1e-12)

    def test_matches_pole_space_oracle(self):
        for d, n in ((3, 1), (3, 2), (5, 777), (9, 1024), (9, 1025), (54, 1000)):
            fact = ra_blt_build(d, 1000)
            s = reciprocal_coeffs_direct(fact, n)
            got = sensitivity_of(fact, n)
            np.testing.assert_allclose(got, math.sqrt(np.dot(s, s)), rtol=1e-12)

    def test_rejects_empty_horizon(self):
        facts = [
            ra_blt_build(5, 100),
            degree1_closed_form(100),
            BltFactorization([0.5], [0.7], 100),
            BltFactorization([], [], 100),
        ]
        for fact in facts:
            for n in (0, -1):
                with pytest.raises(ValueError, match="n must be >= 1"):
                    sensitivity_of(fact, n)


class TestRownormClosed:
    def test_hand_value(self):
        got = rownorm_closed([0.5], [0.5], 3)
        np.testing.assert_allclose(got, math.sqrt(6.3125), rtol=1e-15)

    def test_degree_zero(self):
        for n in (1, 9, 10**4):
            assert rownorm_closed([], [], n) == math.sqrt(n)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(78)
        for n in (16, 256, 2048):
            for _ in range(5):
                r = random_rational(rng, 3, omega_scale=0.3)
                got = rownorm_closed(r.omega, r.theta, n)
                t = np.cumsum(blt_coeffs(r, n).coeffs)
                np.testing.assert_allclose(got, math.sqrt(np.sum(t * t)), rtol=1e-9)

    def test_pole_at_one(self):
        """theta = 1 exactly is routed through the limit branch."""
        got = rownorm_closed([1.0], [1.0], 4)
        # r = [1,1,1,1], prefix sums t = [1,2,3,4]
        np.testing.assert_allclose(got, math.sqrt(1 + 4 + 9 + 16), rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rownorm_closed([0.5], [1.5], 4)


class TestMonotonicity:
    def test_norms_nondecreasing_in_n(self):
        rng = np.random.default_rng(5)
        fact = random_factorization(rng, 3, 64)
        ns = [2, 4, 8, 64, 256, 1024, 4096]
        sens = [sensitivity_closed(fact.omega_hat, fact.theta_hat, n) for n in ns]
        rown = [rownorm_closed(fact.omega, fact.theta, n) for n in ns]
        assert all(b >= a - 1e-12 for a, b in zip(sens, sens[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(rown, rown[1:]))


class TestLinearGrowthCoeff:
    def test_value_is_limit_slope(self):
        """alpha_1 = (1 + sum w/(1-theta))^2 is the limiting per-step growth
        of the squared row norm."""
        fact = degree1_closed_form(64)
        alpha1 = (1.0 + np.sum(fact.omega / (1.0 - fact.theta))) ** 2
        n = 200000
        a = rownorm_closed(fact.omega, fact.theta, n) ** 2
        b = rownorm_closed(fact.omega, fact.theta, n + 1) ** 2
        np.testing.assert_allclose(b - a, alpha1, rtol=1e-6)


class TestMaxErrReport:
    def test_identity_factorization(self):
        fact = BltFactorization([], [], 100)
        rep = max_err(fact)
        assert rep.max_err == 10.0
        assert rep.sensitivity == 1.0 and rep.row_norm == 10.0

    def test_product_identity_and_ratio(self):
        rng = np.random.default_rng(4)
        fact = random_factorization(rng, 2, 256)
        rep = max_err(fact, 256)
        assert rep.max_err == rep.sensitivity * rep.row_norm
        np.testing.assert_allclose(
            rep.as_dict()["ratio_to_opt_lt_toe"], rep.max_err / opt_lt_toe(256), rtol=1e-15
        )

    def test_above_lower_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            fact = random_factorization(rng, 3, 512)
            rep = max_err(fact, 512)
            assert rep.max_err >= matousek_lb(512) - 1e-9

    def test_ra_factorization_uses_direct_sensitivity(self):
        from bltnoise.rational import ra_blt_build

        fact = ra_blt_build(9, 1000)
        got = sensitivity_of(fact, 1000)
        s = series_reciprocal(blt_coeffs(fact.rational(), 1000)).coeffs
        np.testing.assert_allclose(got, math.sqrt(np.sum(s * s)), rtol=1e-12)


class TestBoundsTable:
    def test_n1(self):
        b = bounds_table(1)
        assert b["opt_lt_toe"] == 1.0
        np.testing.assert_allclose(b["matousek_lb"], 1.0, rtol=1e-12)
        assert b["bintree"] == 1.0

    def test_n3(self):
        b = bounds_table(3)
        assert b["opt_lt_toe"] == 1.390625

    def test_bintree_values(self):
        assert bounds_table(8)["bintree"] == 4.0
        assert bounds_table(9)["bintree"] == 5.0
        assert bounds_table(1024)["bintree"] == 11.0

    def test_gap_to_lower_bound(self):
        """Toeplitz optimum exceeds the general lower bound by at most 0.365."""
        for n in list(range(1, 200)) + [500, 1000, 5000, 10000]:
            gap = opt_lt_toe(n) - matousek_lb(n)
            assert -1e-12 <= gap <= 0.365, f"n={n}: gap={gap}"

    def test_log_upper_bound(self):
        for n in (10, 100, 10**4, 10**6):
            assert opt_lt_toe(n) <= 1.0 + (EULER_GAMMA + math.log(n)) / math.pi

    def test_mathias_hand_value(self):
        # n=2: 0.5 + (1/4)(1/sin(pi/4) + 1/sin(3 pi/4)) = 0.5 + sqrt(2)/2
        np.testing.assert_allclose(
            bounds_table(2)["mathias_ub"], 0.5 + math.sqrt(2) / 2, rtol=1e-12
        )

    def test_cache_growth_consistency(self):
        """Asking for a large n then a small one returns identical values."""
        big = opt_lt_toe(2**15)
        small = opt_lt_toe(3)
        assert small == 1.390625
        assert big == opt_lt_toe(2**15)


class TestCsvEmission:
    def test_bounds_csv_header_and_rows(self):
        text = bounds_csv([1, 2, 3])
        lines = text.strip().split("\n")
        assert lines[0] == BOUNDS_CSV_HEADER
        assert len(lines) == 4
        assert lines[1].startswith("1,")
