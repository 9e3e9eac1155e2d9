"""Acceptance criteria, one test per criterion.

Each test prints a single `acceptance NN [name]: PASS|FAIL` line outside of
pytest's capture so a full run always yields the 13-line scorecard, and
asserts its own wall-clock budget.
"""

import math
import os
import time
import tracemalloc
from contextlib import contextmanager
from itertools import islice

import numpy as np
import pytest

from bltnoise.error_eval import (
    matousek_lb,
    max_err,
    opt_lt_toe,
    rownorm_of,
    sensitivity_of,
)
from bltnoise.optimizer import OptConfig, gradient, loss, optimize_blt
from bltnoise.params import blt_coeffs, degree1_closed_form
from bltnoise.rational import (
    degree_for_error,
    newman_sqrt,
    ra_blt_build,
)
from bltnoise.recursive import blt_base_factory, comb_dense, recursive_stream
from bltnoise.seq import ltt_apply_dense, ltt_dense, optimal_coeffs
from bltnoise.streaming import (
    PER_STEP,
    NoiseStreamConfig,
    _noise_chunks,
    noise_stream,
    stream_init,
)

from helpers import (
    comc_dense,
    consumption_perm,
    random_factorization,
    reference_normals,
    series_reciprocal,
    weighted_parseval_check,
)


@contextmanager
def criterion(capfd, num, name, budget_s):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"criterion {num} overran: {elapsed:.1f}s >= {budget_s}s"
    except BaseException:
        with capfd.disabled():
            print(f"acceptance {num:02d} [{name}]: FAIL", flush=True)
        raise
    with capfd.disabled():
        print(f"acceptance {num:02d} [{name}]: PASS ({elapsed:.1f}s)", flush=True)


def test_criterion_01_streaming_matches_dense(capfd):
    with criterion(capfd, 1, "streaming vs dense oracle", 10):
        rng = np.random.default_rng(20260814)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(2, 513))
            m = int(rng.integers(1, 9))
            fact = random_factorization(rng, d, n=n)
            seed = int(rng.integers(2**31))
            cfg = NoiseStreamConfig(fact, n, m, seed, 1.0, PER_STEP)
            got = np.vstack(list(noise_stream(cfg)))
            z = reference_normals(seed, n, m) * cfg.sigma
            r = blt_coeffs(fact.rational(), n).coeffs
            want = ltt_apply_dense(r, z)
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert rel <= 1e-10, f"d={d} n={n} m={m}: rel={rel:.2e}"


def test_criterion_02_closed_forms_match_direct_sums(capfd):
    with criterion(capfd, 2, "closed-form norms vs direct summation", 30):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            fact = random_factorization(rng, d)
            for n in (16, 256, 4096):
                r = blt_coeffs(fact.rational(), n).coeffs
                sens_direct = float(np.linalg.norm(series_reciprocal(r).coeffs))
                rown_direct = float(np.linalg.norm(np.cumsum(r)))
                sens = sensitivity_of(fact, n)
                rown = rownorm_of(fact, n)
                assert abs(sens - sens_direct) / sens_direct <= 1e-8
                assert abs(rown - rown_direct) / rown_direct <= 1e-8


def test_criterion_03_optimal_coefficient_identities(capfd):
    with criterion(capfd, 3, "optimal-coefficient identities", 5):
        f64 = optimal_coeffs(65).coeffs
        conv = np.convolve(f64, f64)[:65]
        np.testing.assert_allclose(conv, 1.0, rtol=0, atol=1e-10)

        f = optimal_coeffs(10**6).coeffs
        opt_vec = np.cumsum(f * f)
        ns = np.arange(1, 10**6 + 1)
        bound = 1.0 + (0.57722 + np.log(ns)) / np.pi
        assert np.all(opt_vec <= bound)
        for n in (1, 10, 1000, 10**6):
            assert opt_lt_toe(n) == pytest.approx(opt_vec[n - 1], rel=1e-12)


def test_criterion_04_toeplitz_vs_general_gap(capfd):
    with criterion(capfd, 4, "gap to the general lower bound", 10):
        f = optimal_coeffs(10**4).coeffs
        opt_vec = np.cumsum(f * f)
        worst = -math.inf
        for n in range(1, 10**4 + 1):
            gap = opt_vec[n - 1] - matousek_lb(n)
            assert gap >= -1e-12            # evaluation consistency
            worst = max(worst, gap)
        assert worst <= 0.365, f"worst gap {worst:.6f}"


def test_criterion_05_rational_approximation_bound(capfd):
    with criterion(capfd, 5, "unit-circle approximation bound", 5):
        x = np.exp(2j * np.pi * np.arange(512) / 512)
        target = np.sqrt(1.0 - x)
        for d in (8, 16, 30):
            err = np.max(np.abs(newman_sqrt(d).evaluate(x) - target))
            assert err <= 8.0 * math.exp(-(math.pi / 2.0) * math.sqrt(d - 2))


def test_criterion_06_ra_blt_near_optimality(capfd):
    with criterion(capfd, 6, "rational-approximation mechanism quality", 60):
        n0 = 1000
        d = degree_for_error(n0, 0.5)
        fact = ra_blt_build(d, n0)
        assert max_err(fact, n0).max_err <= opt_lt_toe(n0) + 0.5

        # fixed degree-9 curve: the generator's reciprocal has a pole at
        # x = 1 with residue ~0.0156, so the column norm grows like
        # 0.0156 * sqrt(n) once n is large; at n = 10^6 the measured ratio
        # is ~5.1, far above this bound
        for n in (100, 10_000, 1_000_000):
            f9 = ra_blt_build(9, n)
            ratio = max_err(f9, n).max_err / opt_lt_toe(n)
            assert ratio <= 1.3, f"degree 9, n={n}: ratio {ratio:.4f} > 1.3"


def test_criterion_07_optimized_blt_headline(capfd):
    with criterion(capfd, 7, "optimized mechanism near-optimality", 300):
        res = optimize_blt(OptConfig(degree=4, n=10**4))
        assert res.final_max_err / opt_lt_toe(10**4) <= 1.01
        res = optimize_blt(OptConfig(degree=5, n=10**5))
        assert res.final_max_err / opt_lt_toe(10**5) <= 1.02


@pytest.mark.skipif(
    not os.environ.get("BLT_ACCEPT_SLOW"),
    reason="optional large-scale point; set BLT_ACCEPT_SLOW=1 to run",
)
def test_criterion_07_optional_large_scale():
    res = optimize_blt(OptConfig(degree=7, n=10**7))
    assert res.final_max_err / opt_lt_toe(10**7) <= 1.05


def test_criterion_08_extrapolation_degrades_asymmetrically(capfd):
    with criterion(capfd, 8, "optimized mechanism extrapolation", 60):
        res = optimize_blt(OptConfig(degree=2, n=100))
        fact = res.factorization
        assert max_err(fact, 100).max_err / opt_lt_toe(100) <= 1.05
        assert max_err(fact, 10_000).max_err / opt_lt_toe(10_000) >= 1.5


def test_criterion_09_gradient_vs_finite_differences(capfd):
    with criterion(capfd, 9, "gradient vs central differences", 60):
        rng = np.random.default_rng(9)
        w = 1e-7
        h = 1e-6
        for i in range(20):
            d = (1, 2, 4)[i % 3]
            n = (100, 10_000)[i % 2]
            fact = random_factorization(rng, d, n=n)
            g = gradient(fact.theta, fact.theta_hat, n, w)
            params = np.concatenate([fact.theta, fact.theta_hat])
            fd = np.empty_like(g)
            for j in range(2 * d):
                up, dn = params.copy(), params.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (
                    loss(up[:d], up[d:], n, w) - loss(dn[:d], dn[d:], n, w)
                ) / (2 * h)
            rel = np.max(np.abs(g - fd)) / np.max(np.abs(g))
            assert rel <= 1e-4, f"point {i} (d={d}, n={n}): rel={rel:.2e}"


def test_criterion_10_recursive_construction(capfd):
    with criterion(capfd, 10, "recursive combine and streamer", 30):
        rng = np.random.default_rng(10)
        for n1 in (2, 3):
            fact = random_factorization(rng, 2, n=n1)
            r = blt_coeffs(fact.rational(), n1).coeffs
            B1 = ltt_dense(np.cumsum(r))
            C1 = ltt_dense(series_reciprocal(r).coeffs)
            norm_c1 = np.sqrt(np.max(np.sum(C1 * C1, axis=0)))
            B, C = B1, C1
            for lv in (2, 3):
                B = comb_dense(B1, B)
                C = comc_dense(C1, C)
                n = n1**lv
                np.testing.assert_allclose(
                    B @ C, np.tril(np.ones((n, n))), atol=1e-8
                )
                norm_c = np.sqrt(np.max(np.sum(C * C, axis=0)))
                assert norm_c == pytest.approx(math.sqrt(lv) * norm_c1, rel=1e-10)

            # streaming vs the dense product at two ambient dimensions
            lv = 2
            B2 = comb_dense(B1, B1)
            perm = consumption_perm(n1, lv)
            for m in (1, 4):
                Z = rng.normal(size=(B2.shape[1], m))
                source = iter([Z[p] for p in perm])
                gen = recursive_stream(blt_base_factory(fact, m), n1, lv, m, source)
                got = np.vstack(list(islice(gen, n1**lv)))
                np.testing.assert_allclose(got, B2 @ Z, atol=1e-9)


def test_criterion_11_degree_one_closed_form(capfd):
    with criterion(capfd, 11, "single-buffer closed form", 30):
        for n in (100, 10_000):
            fact = degree1_closed_form(n)
            lam = 1.0 - n ** (-2.0 / 3.0)
            a2 = n ** (-1.0 / 3.0) * (1.0 - n ** (-1.0 / 3.0))
            sens = sensitivity_of(fact, n)
            assert sens**2 <= 1.0 + a2**2 / (1.0 - lam**2) + 1e-12

        ns = np.array([100, 1000, 10_000, 100_000])
        errs = [max_err(degree1_closed_form(int(n)), int(n)).max_err for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 0.12 <= slope <= 0.22, f"log-log slope {slope:.4f}"


def test_criterion_12_weighted_parseval(capfd):
    with criterion(capfd, 12, "weighted Parseval identity", 5):
        coeffs = 0.5 ** np.arange(64)
        f_eval = lambda x: 1.0 / (1.0 - 0.5 * x)
        quad, csum = weighted_parseval_check(f_eval, f_eval, coeffs, coeffs, 0.3, 1024)
        assert quad == 0.0 and csum == 0.0

        quad, csum = weighted_parseval_check(
            lambda x: np.ones_like(x), lambda x: x, [1.0], [0.0, 1.0], 0.5, 1024
        )
        assert csum == pytest.approx(1.0 + math.exp(-1.0), rel=1e-15)
        assert abs(quad - csum) <= 1e-6


def test_criterion_13_scale_performance(capfd):
    with criterion(capfd, 13, "million-step noise generation", 60):
        d, n, m = 5, 10**6, 100
        fact = ra_blt_build(d, n)
        state = stream_init(fact.rational(), m)
        # recurrence buffer plus the per-step accumulator stay within budget
        assert state.S.nbytes + m * 8 <= (d + 1) * m * 8

        cfg = NoiseStreamConfig(fact, n, m, 13, 1.0, PER_STEP)
        tracemalloc.start()
        rows = 0
        checksum = 0.0
        for _, block in _noise_chunks(cfg):
            rows += block.shape[0]
            checksum += float(block[-1, 0])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert rows == n
        assert np.isfinite(checksum)
        # transient chunk buffers only; nothing scales with n
        assert peak < 32 * 1024 * 1024, f"peak allocation {peak/1e6:.1f} MB"
