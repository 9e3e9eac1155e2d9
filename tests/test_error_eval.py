"""Tests for the closed-form error norms and the reference bound table.

Both norms are Gram forms over one geometric-sum kernel.  They are checked
three ways:
hand-computed small cases, direct O(n d) coefficient summation, and
high-precision residue-form oracles (mpmath, ``tests/helpers.py``) aimed at
poles next to 1, where the textbook geometric-sum ratio loses all digits.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from bltnoise.error_eval import (
    _CSC_HALF,
    _EXACT_MAX,
    _LANDAU_A,
    EULER_GAMMA,
    bounds_table,
    bounds_csv,
    BOUNDS_CSV_HEADER,
    geometric_prefix,
    mathias_ub,
    matousek_lb,
    max_err,
    opt_lt_toe,
    rownorm_closed,
    rownorm_of,
    sensitivity_closed,
    sensitivity_of,
)
from bltnoise.params import _N_MAX, BltFactorization, blt_coeffs, degree1_closed_form
from bltnoise.rational import ra_blt_build
from bltnoise.seq import optimal_coeffs

from helpers import (
    CLUSTERED_ROOTS,
    matousek_lb_direct,
    mp_csc_sum,
    mp_opt_lt_toe,
    mp_residues,
    mp_rownorm,
    mp_sensitivity,
    opt_lt_toe_direct,
    optimized_d5,
    random_factorization,
    random_rational,
    reciprocal_coeffs_direct,
    series_reciprocal,
)


def mp_geometric(e, N, dps=60):
    """``sum_{j<N} (1 - e)^j`` in mpmath, for real or complex ``e``, and its
    derivative in ``e``."""
    with mpmath.workdps(dps):
        e = mpmath.mpmathify(e)
        q = 1 - e
        value = (1 - q**N) / e
        return value, N * q ** (N - 1) / e - value / e


class TestStein:
    """``geometric_prefix(e, N)``, the elementwise geometric sum both norms
    are Gram forms of."""

    def test_hand_value(self):
        # 1 + 1/2 + 1/4, and a zero ratio sums to its first term
        np.testing.assert_allclose(geometric_prefix(0.5, 3), 1.75, rtol=1e-15)
        assert geometric_prefix(1.0, 3) == 1.0

    def test_zero_terms(self):
        G = geometric_prefix(np.full((3, 3), 0.25), 0)
        assert G.shape == (3, 3) and not G.any()

    def test_exactly_n_at_zero(self):
        for N in (1, 2, 7, 10**6, 2**53 + 1, _N_MAX):
            got = geometric_prefix(np.array([0.0, 0.0j]), N)
            assert got[0] == float(N) and got[1] == float(N)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(12)
        e = rng.uniform(0.0, 1.0, 20)
        for N in (1, 2, 3, 7, 64, 1000):
            direct = np.sum((1.0 - e[:, None]) ** np.arange(N), axis=1)
            np.testing.assert_allclose(geometric_prefix(e, N), direct, rtol=1e-13)

    @pytest.mark.parametrize("N", [10**3, 10**6, 10**12, 2**50])
    def test_matches_mpmath_next_to_one(self, N):
        for k in range(3, 15):
            e = 10.0**-k
            want, _ = mp_geometric(e, N)
            assert abs(geometric_prefix(e, N) - want) <= 1e-15 * want, (e, N)

    def test_batch_matches_each_slice(self):
        rng = np.random.default_rng(13)
        e = rng.uniform(0.0, 1.0, (3, 2, 4))
        G = geometric_prefix(e, 777)
        for idx in np.ndindex(3, 2, 4):
            assert G[idx] == geometric_prefix(e[idx], 777)

    def test_complex_step_is_not_conjugated(self):
        """A 1e-20 imaginary step gives the derivative of the real sum, also
        at |e| = 1e-14, where numpy's complex log1p would lose it.  Both parts
        match the complex sum; it differs from the derivative by the step's
        own (h/e)^2 term, 1e-12 relative at e = 1e-14."""
        for N, k in itertools.product((10**3, 10**6, 10**12, 2**50), range(3, 15)):
            e = 10.0**-k
            want, _ = mp_geometric(mpmath.mpc(e, 1e-20), N)
            _, slope = mp_geometric(e, N)
            got = geometric_prefix(e + 1e-20j, N)
            assert abs(got.real - want.real) <= 1e-15 * abs(want.real), (e, N)
            assert abs(got.imag - want.imag) <= 1e-15 * abs(want.imag), (e, N)
            assert abs(got.imag / 1e-20 - slope) <= 1e-13 * abs(slope) + (1e-20 / e) ** 2 * abs(slope), (e, N)


class TestGeometricPrefix:
    """Poles next to 1 in both norms: far inside the row norm's series zone
    ``n log(1/theta) < 1``, and on both sides of ``n |1 - theta| = 1/2`` and
    of its edge."""

    REGIMES = [
        (1.0 - 1e-12, 10**6),
        (1.0 - 1e-9, 10**6),
        (1.0 - 1e-7, 10**5),
        (1.0 - 4.9e-7, 10**6),   # n |1 - theta| = 0.49
        (1.0 - 5.1e-7, 10**6),   # n |1 - theta| = 0.51
        (1.0 - 9.9e-7, 10**6),   # n log(1/theta) just below 1
        (1.0 - 1.01e-6, 10**6),  # and just above
    ]

    def test_hand_value(self):
        # r = [1, 0.5, 0.25], prefix sums b = [1, 1.5, 1.75]
        got = rownorm_closed([0.5], [0.5], 3)
        assert got == math.sqrt(1.0 + 1.5**2 + 1.75**2)

    def test_theta_one(self):
        # r = [1, 1, 1, ...], so b_i = i + 1 and sum_{i<100} b_i^2 = 338350
        assert rownorm_closed([1.0], [1.0], 100) == math.sqrt(338350)
        # C-side pole at 1: 1/r = (1 - x/2)/(1 - x) = 1 + x/2 + x^2/2 + ...
        assert sensitivity_closed([0.5], [1.0], 100) == math.sqrt(1.0 + 0.25 * 99)

    def test_zero_terms(self):
        assert rownorm_closed([0.3], [0.7], 0) == 0.0

    def test_near_one_against_mpmath(self):
        for theta, n in self.REGIMES:
            for w in (0.5, -(1.0 - theta) / 2, -1.0):
                got = rownorm_closed([w], [theta], n)
                np.testing.assert_allclose(got, mp_rownorm([w], [theta], n, dps=60), rtol=1e-9)
            # the same regimes as C's pole theta_hat; for d=1 its residue is
            # the exact root difference
            theta_hat = theta
            for pole in (0.5, theta_hat - 1e-3, theta_hat - 1e-8):
                got = sensitivity_closed([theta_hat - pole], [theta_hat], n)
                want = mp_sensitivity([theta_hat - pole], [theta_hat], n, dps=60)
                np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_small_n_series_is_exact(self):
        """With tiny n next to 1 both norms are their few terms, to rounding."""
        theta = 1.0 - 1e-9
        got = rownorm_closed([0.25], [theta], 3)
        b = np.cumsum([1.0, 0.25, 0.25 * theta])
        np.testing.assert_allclose(got, math.sqrt(np.sum(b * b)), rtol=1e-15)
        got = sensitivity_closed([0.25], [theta], 3)
        # 1/r = 1 + 0.25 x + 0.25 theta x^2 + ...
        np.testing.assert_allclose(got, math.sqrt(1.0 + 0.0625 * (1.0 + theta * theta)), rtol=1e-15)


class TestGsumOracles:
    """Row norms of one and two poles vs the high-precision residue form."""

    def test_gsum1_plain_and_series(self):
        for theta, n in [
            (0.5, 64),
            (0.99, 1000),
            (1.0 - 1e-12, 10**6),
            (1.0 - 1e-8, 10**4),
            (1.0 - 2.0e-7, 10**6),
        ]:
            for w in (0.5, -(1.0 - theta) / 2, -1.0):
                got = rownorm_closed([w], [theta], n)
                np.testing.assert_allclose(got, mp_rownorm([w], [theta], n, dps=60), rtol=1e-10)

    def test_gsum1_theta_one(self):
        # b_i = 1 + i: sum_{i<5} (1 + i)^2 = 55
        assert rownorm_closed([1.0], [1.0], 5) == math.sqrt(55)

    def test_gsum2_all_branches(self):
        cases = [
            (0.5, 0.5, 3),                       # both plain
            (0.3, 0.9, 4096),                    # both plain
            (1.0 - 1e-12, 1.0 - 2e-12, 10**6),   # both next to 1
            (1.0 - 1e-10, 0.5, 10**6),           # mixed: one next to 1, one plain
            (0.5, 1.0 - 1e-10, 10**6),           # mixed, swapped order
            (1.0 - 4.0e-7, 0.999999, 10**6),     # mixed near the old zone boundary
            (1.0, 0.5, 1000),                    # theta exactly one
            (1.0, 1.0, 3),                       # both one
        ]
        for t1, t2, n in cases:
            for w in ((0.3, -0.2), (-0.5, 0.25)):
                got = rownorm_closed(list(w), [t1, t2], n)
                want = mp_rownorm(w, [t1, t2], n, dps=80)
                np.testing.assert_allclose(got, want, rtol=2e-9, err_msg=f"{t1}, {t2}, {n}")

    def test_gsum2_hand_value(self):
        # two poles at 1 with residues 1 and 2: b = [1, 4, 7], sum of squares 66
        assert rownorm_closed([1.0, 2.0], [1.0, 1.0], 3) == math.sqrt(66)

    def test_gsum2_symmetry(self):
        """The order of the poles does not change either norm."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            fact = random_factorization(rng, 2, 64)
            n = int(rng.integers(2, 10**5))
            w, t = fact.omega, fact.theta
            np.testing.assert_allclose(
                rownorm_closed(w, t, n), rownorm_closed(w[::-1], t[::-1], n), rtol=1e-12
            )
            w, t = fact.omega_hat, fact.theta_hat
            np.testing.assert_allclose(
                sensitivity_closed(w, t, n), sensitivity_closed(w[::-1], t[::-1], n), rtol=1e-12
            )


class TestSensitivityClosed:
    def test_hand_value(self):
        # omega_hat = theta_hat = 1/2: 1/r = 1 + x/2 + x^2/4 + ...
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
        equal poles with huge opposite residues amplify the rounding noise of
        the Gram form past the 1 it is added to.
        """
        with pytest.raises(ValueError, match="negative or non-finite squared sensitivity"):
            sensitivity_closed([1e9, -1e9], [0.3, 0.3 + 3e-13], 100)
        with pytest.raises(ValueError, match="negative or non-finite squared row norm"):
            rownorm_closed([1e9, -1e9], [0.3, 0.3 + 3e-13], 100)

    def test_non_finite_radicand_rejected(self):
        for norm in (sensitivity_closed, rownorm_closed):
            with pytest.raises(ValueError, match="negative or non-finite"):
                norm([1.0], [math.nan], 5)

    def test_batch_matches_each_row(self):
        rng = np.random.default_rng(79)
        facts = [random_factorization(rng, 3, 100) for _ in range(4)]
        for norm, w, t in ((sensitivity_closed, "omega_hat", "theta_hat"), (rownorm_closed, "omega", "theta")):
            got = norm(np.array([getattr(f, w) for f in facts]), np.array([getattr(f, t) for f in facts]), 1000)
            assert got.shape == (4,)
            for i, f in enumerate(facts):
                assert got[i] == norm(getattr(f, w), getattr(f, t), 1000)


class TestSensitivityOf:
    """The closed form against mpmath, the O(n) oracle and the residue form."""

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
            omega_hat = mp_residues(fact.theta_hat, fact.theta)
            want = mp_sensitivity(omega_hat, fact.theta_hat, n)
            np.testing.assert_allclose(sensitivity_of(fact, n), want, rtol=1e-12)

    def test_random_factorizations_match_closed(self):
        rng = np.random.default_rng(77)
        for n in (1, 2, 3, 16, 255, 256, 4096, 10**5):
            for d in (1, 3, 5):
                fact = random_factorization(rng, d, n)
                omega_hat = mp_residues(fact.theta_hat, fact.theta)
                want = mp_sensitivity(omega_hat, fact.theta_hat, n)
                np.testing.assert_allclose(sensitivity_of(fact, n), want, rtol=1e-12)

    def test_matches_pole_space_oracle(self):
        for d, n in ((3, 1), (3, 2), (5, 777), (9, 1024), (9, 1025), (54, 1000)):
            fact = ra_blt_build(d, 1000)
            s = reciprocal_coeffs_direct(fact, n)
            got = sensitivity_of(fact, n)
            np.testing.assert_allclose(got, math.sqrt(np.dot(s, s)), rtol=1e-12)


class TestFarHorizon:
    """Both norms far past a factorization's n, against 60-digit sums."""

    @pytest.mark.parametrize("n", [10**6, 10**9, 10**12, 2**50])
    def test_matches_mpmath(self, n):
        """The optimized d=5, n=10^5 factorization."""
        fact = optimized_d5()
        omega = mp_residues(fact.theta, fact.theta_hat)
        omega_hat = mp_residues(fact.theta_hat, fact.theta)
        want_sens = mp_sensitivity(omega_hat, fact.theta_hat, n)
        want_row = mp_rownorm(omega, fact.theta, n)
        np.testing.assert_allclose(sensitivity_of(fact, n), want_sens, rtol=1e-10)
        np.testing.assert_allclose(rownorm_of(fact, n), want_row, rtol=1e-10)

    @pytest.mark.parametrize("degree", [5, 9])
    @pytest.mark.parametrize("n", [10**12, 2**50])
    def test_ra_matches_mpmath(self, degree, n):
        """``ra`` with its exact zero at x = 1, from the residues it carries:
        its stored roots define residues up to 1.3e-12 away at d=9."""
        fact = ra_blt_build(degree, 10**6)
        want_sens = mp_sensitivity(fact.omega_hat, fact.theta_hat, n, dps=60)
        want_row = mp_rownorm(fact.omega, fact.theta, n, dps=60)
        np.testing.assert_allclose(sensitivity_of(fact, n), want_sens, rtol=1e-12)
        np.testing.assert_allclose(rownorm_of(fact, n), want_row, rtol=1e-12)

    @pytest.mark.parametrize("degree, rtol", [(12, 1e-12), (16, 1e-11)])
    def test_clustered_row_norm_matches_mpmath(self, degree, rtol):
        """Optimized roots that agree to 9-12 digits next to 1, at 10^12.  The
        Gram form cancels between the poles' terms; at d=16 it reads 5.1e-12,
        the worst case measured."""
        n = 10**12
        fact = BltFactorization(*CLUSTERED_ROOTS[degree], n=10**6)
        want = mp_rownorm(mp_residues(fact.theta, fact.theta_hat, dps=60), fact.theta, n, dps=60)
        np.testing.assert_allclose(rownorm_of(fact, n), want, rtol=rtol)


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
        """theta = 1 exactly is a pole like any other."""
        got = rownorm_closed([1.0], [1.0], 4)
        # r = [1,1,1,1], prefix sums t = [1,2,3,4]
        np.testing.assert_allclose(got, math.sqrt(1 + 4 + 9 + 16), rtol=1e-12)


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

    @pytest.mark.parametrize("n", [True, 2.5, "5", 10**20, 0])
    def test_horizon_rule(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer in \[1, 9223372036854775807\], got "):
            max_err(ra_blt_build(5, 100), n)


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
        large = [5000, 10000, 10**6, 10**9, 2**62, _N_MAX]
        for n in list(range(1, 200)) + [500, 1000] + _AROUND + large:
            gap = opt_lt_toe(n) - matousek_lb(n)
            assert -1e-12 <= gap <= 0.365, f"n={n}: gap={gap}"
        for n in _AROUND[_AROUND.index(_EXACT_MAX) + 1 :] + large:
            assert matousek_lb(n) < mathias_ub(n) < opt_lt_toe(n), n

    def test_log_upper_bound(self):
        for n in (10, 100, 10**4, 10**6, 10**12, _N_MAX):
            assert opt_lt_toe(n) <= 1.0 + (EULER_GAMMA + math.log(n)) / math.pi

    def test_mathias_hand_value(self):
        # n=2: 0.5 + (1/4)(1/sin(pi/4) + 1/sin(3 pi/4)) = 0.5 + sqrt(2)/2
        np.testing.assert_allclose(
            bounds_table(2)["mathias_ub"], 0.5 + math.sqrt(2) / 2, rtol=1e-12
        )


_AROUND = [4000, 4095, 4096, 4097, 4098, 4200]


def _mp_landau_expansion(n, terms):
    """``pi * opt_lt_toe(n)`` from the first ``terms`` of the module's
    expansion coefficients, in mpmath."""
    n = mpmath.mpf(n)
    tail = mpmath.fsum(mpmath.mpf(a) * n ** -(j + 1) for j, a in enumerate(_LANDAU_A[:terms]))
    return mpmath.log(n) + mpmath.euler + 4 * mpmath.log(2) + tail


def _mp_csc_expansion(N, terms):
    """``T(N) / N`` from the module's first ``terms`` coefficients, in mpmath."""
    N = mpmath.mpf(N)
    tail = mpmath.fsum(2 * mpmath.mpf(c) * N ** (-2 * (k + 1)) for k, c in enumerate(_CSC_HALF[:terms]))
    return 2 / mpmath.pi * (mpmath.log(8 * N / mpmath.pi) + mpmath.euler) + tail


def _mp_bounds(n):
    """(opt_lt_toe, mathias_ub, matousek_lb) at n in 45-digit mpmath: direct
    sums up to 10^4, the full expansions beyond (tested against the sums)."""
    with mpmath.workdps(45):
        if n <= 10**4:
            opt, t_n, t_2n1 = mp_opt_lt_toe(n), mp_csc_sum(n) / n, mp_csc_sum(2 * n + 1) / (2 * n + 1)
        else:
            opt = _mp_landau_expansion(n, len(_LANDAU_A)) / mpmath.pi
            t_n, t_2n1 = _mp_csc_expansion(n, len(_CSC_HALF)), _mp_csc_expansion(2 * n + 1, len(_CSC_HALF))
        return opt, 0.5 + t_n / 2, ((2 * n + 1) * t_2n1 - 1) / (4 * n)


class TestBoundsAtAnyHorizon:
    """At or below ``_EXACT_MAX`` the bounds are exact float sums: those of
    ``opt_lt_toe`` and ``matousek_lb`` equal the ``tests/helpers.py`` oracles
    bit for bit, and ``mathias_ub``'s is within 2 ulp of 45-digit values.
    Above it, O(1) asymptotic expansions that must stay within a few ulp of
    45-digit values."""

    def test_exact_sums_up_to_threshold(self):
        # every n, in an order that asks for a large n first: the prefix sums
        # are sequential, so no value depends on the table it came from
        opt_lt_toe(2**15)
        f = optimal_coeffs(_EXACT_MAX).coeffs
        table = np.cumsum(f * f)
        for n in range(_EXACT_MAX, 0, -1):
            assert opt_lt_toe(n) == table[n - 1] == opt_lt_toe_direct(n), n
            assert matousek_lb(n) == matousek_lb_direct(n), n

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 64, 1000, 2048, 2733, 4095, _EXACT_MAX] + list(range(5, _EXACT_MAX, 293))
    )
    def test_mathias_ub_exact_sum_within_2_ulp(self, n):
        # summed over the half of the midpoint angles below pi/2; over all of
        # them, float pi's error near pi put it 330 ulp off at n = 4095.  The
        # largest error over every n <= 4096 is 1.56 ulp, at n = 2733.
        with mpmath.workdps(45):
            ref = 0.5 + mp_csc_sum(n) / (2 * n)
        assert abs(mpmath.mpf(mathias_ub(n)) - ref) <= 2 * math.ulp(float(ref))

    def test_expansion_coefficients(self):
        """With k terms kept, the residual against the exact sums falls like
        the first dropped term, n^-(k+1) (Landau) and N^-(2k+2) (cosecants):
        any wrong coefficient would leave a far larger residual."""
        with mpmath.workdps(45):
            for n in (64, 128, 256):
                resid = mpmath.pi * mp_opt_lt_toe(n) - _mp_landau_expansion(n, len(_LANDAU_A))
                assert abs(resid) <= 0.01 * mpmath.mpf(n) ** -(len(_LANDAU_A) + 1), n
            for N in (64, 129, 256):
                resid = mp_csc_sum(N) / N - _mp_csc_expansion(N, len(_CSC_HALF))
                assert abs(resid) <= 0.01 * mpmath.mpf(N) ** -(2 * len(_CSC_HALF) + 2), N

    @pytest.mark.parametrize(
        "n", [_EXACT_MAX + 1, 4100, 5000, 8192, 10**4, 10**6, 10**9, 2**40, 2**53 + 1, 2**62, _N_MAX]
    )
    def test_expansion_within_4_ulp(self, n):
        got = (opt_lt_toe(n), mathias_ub(n), matousek_lb(n))
        for name, g, ref in zip(("opt_lt_toe", "mathias_ub", "matousek_lb"), got, _mp_bounds(n)):
            assert abs(mpmath.mpf(g) - ref) <= 4 * math.ulp(float(ref)), (name, n)

    def test_monotone_across_threshold(self):
        for bound in (opt_lt_toe, mathias_ub, matousek_lb):
            vals = [bound(n) for n in range(_EXACT_MAX - 64, _EXACT_MAX + 65)]
            assert all(a < b for a, b in zip(vals, vals[1:])), bound.__name__


class TestCsvEmission:
    def test_bounds_csv_header_and_rows(self):
        text = bounds_csv([1, 2, 3])
        lines = text.strip().split("\n")
        assert lines[0] == BOUNDS_CSV_HEADER
        assert len(lines) == 4
        assert lines[1].startswith("1,")
