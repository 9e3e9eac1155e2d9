"""Tests for the quasi-Newton MaxErr minimizer and its exact gradients."""

import itertools
import math
import warnings

import numpy as np
import pytest

from bltnoise import error_eval, optimizer
from bltnoise.error_eval import matousek_lb, max_err, opt_lt_toe
from bltnoise.optimizer import (
    OptConfig,
    _loss_core,
    geometric_ladder,
    gradient,
    loss,
    optimize_blt,
)
from bltnoise.seq import ltt_dense
from bltnoise.params import blt_coeffs, degree1_closed_form
from bltnoise.rational import ra_blt_build

from helpers import optimized_d5, random_factorization, series_reciprocal

W = OptConfig.barrier_weight


def fd_gradient(theta, theta_hat, n, w, h=1e-6):
    """Central finite differences on the loss, for cross-checking."""
    params = np.concatenate([theta, theta_hat])
    d = len(theta)
    out = np.empty(2 * d)
    for i in range(2 * d):
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (loss(up[:d], up[d:], n, w) - loss(dn[:d], dn[d:], n, w)) / (2 * h)
    return out


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for degree in (1, 2, 4):
            for n in (100, 10_000):
                for _ in range(4):
                    fact = random_factorization(rng, degree, n=n)
                    g = gradient(fact.theta, fact.theta_hat, n, W)
                    fd = fd_gradient(fact.theta, fact.theta_hat, n, W)
                    scale = max(np.max(np.abs(g)), 1.0)
                    np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-4 * scale)

    def test_barrier_term_linear_in_weight(self):
        rng = np.random.default_rng(11)
        fact = random_factorization(rng, 3, n=500)
        g0 = gradient(fact.theta, fact.theta_hat, 500, 0.0)
        g1 = gradient(fact.theta, fact.theta_hat, 500, 1e-7)
        g2 = gradient(fact.theta, fact.theta_hat, 500, 2e-7)
        np.testing.assert_allclose(g2 - g1, g1 - g0, rtol=1e-6, atol=1e-15)

    def test_degree_one_barrier_gradient_analytic(self):
        # for d=1 the C-side residue is theta_hat - theta, so the barrier is
        # -w(log theta + log(theta_hat - theta)) with an elementary gradient
        theta, theta_hat, n, w = 0.6, 0.75, 200, 1e-5
        g = gradient([theta], [theta_hat], n, w)
        g0 = gradient([theta], [theta_hat], n, 0.0)
        want = w * np.array(
            [-1.0 / theta + 1.0 / (theta_hat - theta), -1.0 / (theta_hat - theta)]
        )
        np.testing.assert_allclose(g - g0, want, rtol=1e-8)

    def test_stable_next_to_one(self):
        theta = np.array([1.0 - 1e-9])
        theta_hat = np.array([1.0 - 5e-10])
        val = loss(theta, theta_hat, 1000, W)
        g = gradient(theta, theta_hat, 1000, W)
        assert np.isfinite(val) and np.all(np.isfinite(g))
        fd = fd_gradient(theta, theta_hat, 1000, W, h=1e-11)
        np.testing.assert_allclose(g, fd, rtol=1e-3)

    @pytest.mark.parametrize("degree", [1, 5])
    def test_one_batched_call_per_norm(self, degree, monkeypatch):
        calls = []
        real = error_eval.geometric_prefix

        def counting(e, N):
            calls.append(e.shape)
            return real(e, N)

        monkeypatch.setattr(error_eval, "geometric_prefix", counting)
        theta, theta_hat = geometric_ladder(degree, 10**4)
        gradient(theta, theta_hat, 10**4, W)
        # one kernel call per norm, each over all 2d imaginary steps at once:
        # the C-side roots' products, then the B-side poles' and 1's
        assert calls == [(2 * degree, degree, degree), (2 * degree, degree + 1, degree + 1)]

    def test_roots_next_to_zero(self):
        # a pole and a zero below 1e-16: their complements round to 1, and
        # the gradient stays finite and exact in the other coordinates
        theta, theta_hat, n = np.array([0.9, 4.3e-17]), np.array([0.95, 4.4e-17]), 10**6
        g = gradient(theta, theta_hat, n, W)
        assert np.all(np.isfinite(g))
        fd = fd_gradient(theta, theta_hat, n, W, h=1e-9)
        np.testing.assert_allclose(g[[0, 2]], fd[[0, 2]], rtol=1e-6)

    def test_crossed_ladder_raises(self):
        # theta_hat below theta makes the C-side residue negative, which the
        # barrier maps to an infinite loss
        with pytest.raises(ValueError):
            gradient([0.5], [0.25], 100, W)

    def test_boundary_raises(self):
        with pytest.raises(ValueError):
            gradient([1.0], [0.5], 100, W)


class TestLoss:
    def test_boundary_infinite(self):
        assert loss([0.0], [0.5], 100, W) == math.inf
        assert loss([0.5], [1.0], 100, W) == math.inf

    def test_crossed_ladder_infinite_with_barrier(self):
        assert loss([0.5], [0.25], 100, W) == math.inf

    def test_crossed_ladder_finite_without_barrier(self):
        assert np.isfinite(loss([0.5], [0.25], 100, 0.0))

    def test_matches_max_err_report(self):
        rng = np.random.default_rng(3)
        fact = random_factorization(rng, 3, n=256)
        report = max_err(fact, 256)
        got = loss(fact.theta, fact.theta_hat, 256, 0.0)
        np.testing.assert_allclose(got, report.max_err, rtol=1e-12)

    def test_scores_what_eval_reports(self):
        """The optimizer minimizes exactly the MaxErr that `blt eval` prints."""
        for fact in (optimized_d5(), degree1_closed_form(10**4)):
            assert loss(fact.theta, fact.theta_hat, fact.n, 0.0) == max_err(fact, fact.n).max_err

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss([0.5, 0.6], [0.7], 100, W)


class TestSanitize:
    """How ``optimize_blt`` screens its start: nothing moves a root, so a
    start the loss scores +inf is refused by name."""

    def test_colliding_init_is_infeasible(self):
        # a repeated pole divides the residues by zero, and the loss is +inf
        cfg = OptConfig(
            degree=2,
            n=100,
            max_iters=60,
            init=([0.3, 0.3], [0.3 + 5e-10, 0.6]),
        )
        with pytest.raises(ValueError, match="^init is infeasible"):
            optimize_blt(cfg)

    def test_collision_that_breaks_interlacing_is_rejected(self):
        # a repeated pole, and both poles below both roots: the loss is +inf,
        # so the start point is infeasible
        cfg = OptConfig(degree=2, n=100, init=([0.3, 0.3], [0.35, 0.36]))
        with pytest.raises(ValueError, match="infeasible"):
            optimize_blt(cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_init_outside_open_interval_names_the_entry(self):
        # ra's zero at x = 1 is an exact theta_hat of 1.0, a pole of the logit
        ra = ra_blt_build(5, 1000)
        with pytest.raises(ValueError, match=r"^init theta_hat\[0\] = 1\.0 is not strictly inside"):
            optimize_blt(OptConfig(degree=5, n=1000, init=(ra.theta, ra.theta_hat)))
        for bad, shown in ((1.5, "1.5"), (math.nan, "nan"), (0.0, "0.0"), (-math.inf, "-inf")):
            with pytest.raises(ValueError, match=rf"^init theta_hat\[1\] = {shown} "):
                optimize_blt(OptConfig(degree=2, n=100, init=([0.3, 0.5], [0.4, bad])))
            with pytest.raises(ValueError, match=rf"^init theta\[0\] = {shown} "):
                optimize_blt(OptConfig(degree=2, n=100, init=([bad, 0.5], [0.4, 0.6])))
        # no init passed: the default start's theta[23] = 1 - 0.25**23 / sqrt(10**6)
        # rounds to 1.0, and the message names the start, degree and n
        with pytest.raises(
            ValueError,
            match=r"^the default start geometric_ladder\(degree=26, n=1000000\): theta\[23\] = 1\.0 ",
        ):
            optimize_blt(OptConfig(degree=26, n=10**6))


class TestOptimizeBlt:
    def test_degree_one_matches_grid_oracle(self):
        """A 200x200 grid search is an independent oracle for the d=1 minimum."""
        n = 100
        grid = np.linspace(0.0025, 0.9975, 200)
        # every feasible grid point (thh > th) as one batched loss call
        th, thh = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
        feasible = thh > th
        th, thh = th[feasible], thh[feasible]
        vals = _loss_core(th[:, None], thh[:, None], n, 0.0)
        assert np.all(np.isfinite(vals))
        k = int(np.argmin(vals))
        best_val, best_pt = vals[k], (th[k], thh[k])

        res = optimize_blt(OptConfig(degree=1, n=n))
        # the optimizer must do at least as well as the coarse grid, and the
        # refinement gain is bounded by the grid resolution
        assert res.final_max_err <= best_val + 1e-9
        assert best_val - res.final_max_err < 5e-3
        # same basin: the argmin agrees with the grid point to its spacing
        assert abs(res.factorization.theta[0] - best_pt[0]) < 0.01
        assert abs(res.factorization.theta_hat[0] - best_pt[1]) < 0.01
        g = gradient(
            res.factorization.theta, res.factorization.theta_hat, n, W
        )
        assert np.max(np.abs(g)) < 1e-3

    def test_monotone_improvement_over_init(self):
        n = 1000
        theta0, theta_hat0 = geometric_ladder(2, n)
        init_err = loss(theta0, theta_hat0, n, 0.0)
        res = optimize_blt(OptConfig(degree=2, n=n))
        assert res.final_max_err <= init_err + 1e-12
        assert res.final_max_err >= matousek_lb(n) - 1e-9

    def test_small_problem_near_optimal(self):
        res = optimize_blt(OptConfig(degree=2, n=100))
        assert res.final_max_err / opt_lt_toe(100) <= 1.05

    def test_zero_barrier_weight_runs(self, monkeypatch):
        monkeypatch.setattr(OptConfig, "barrier_weight", 0.0)
        res = optimize_blt(OptConfig(degree=1, n=100))
        assert np.isfinite(res.final_max_err)
        assert res.final_max_err >= matousek_lb(100) - 1e-9

    def test_returned_factorization_is_valid(self):
        res = optimize_blt(OptConfig(degree=3, n=500, max_iters=120))
        fact = res.factorization
        assert fact.method == "opt"
        assert "final_ratio" in fact.meta
        m = 48
        r = blt_coeffs(fact.rational(), m).coeffs
        prod = ltt_dense(np.cumsum(r)) @ ltt_dense(series_reciprocal(r))
        np.testing.assert_allclose(prod, np.tril(np.ones((m, m))), atol=1e-8)

    def test_max_iters_respected(self):
        res = optimize_blt(OptConfig(degree=4, n=10_000, max_iters=3))
        assert res.iterations <= 3
        assert not res.converged
        assert np.isfinite(res.final_max_err)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptConfig(degree=0, n=100)
        with pytest.raises(ValueError):
            OptConfig(degree=1, n=1)
        with pytest.raises(ValueError):
            optimize_blt(OptConfig(degree=2, n=100, init=([0.5], [0.6])))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("degree", True),
            ("degree", 2.0),
            ("n", 1000.5),
            ("n", True),
            ("n", 2**63),
            ("max_iters", True),
            ("max_iters", 2.5),
            ("max_iters", "3"),
            ("grad_tol", float("nan")),
            ("barrier_weight", -1.0),
            ("barrier_weight", float("inf")),
        ],
    )
    def test_config_names_the_field(self, field, value):
        # the gradient tolerance and the barrier weight are constants, not
        # settings: the constructor refuses them by name
        if field in ("grad_tol", "barrier_weight"):
            expected = pytest.raises(TypeError, match=field)
        else:
            expected = pytest.raises(ValueError, match=f"^{field} must")
        with expected:
            OptConfig(**{"degree": 3, "n": 1000, field: value})

    def test_barrier_weight_is_the_one_loss_gets(self, monkeypatch):
        # the benchmark reads OptConfig(...).barrier_weight to score the points
        # the search passed through
        weights = set()

        def recording_loss(theta, theta_hat, n, w):
            weights.add(w)
            return loss(theta, theta_hat, n, w)

        monkeypatch.setattr(optimizer, "loss", recording_loss)
        optimize_blt(OptConfig(degree=5, n=10**5, max_iters=2))
        assert weights == {OptConfig(degree=5, n=10**5).barrier_weight}

    def test_numpy_integers_read_as_int(self):
        # the horizon reaches int-only code (bintree_value's bit_length) and
        # the saved file's meta, which JSON must encode
        cfg = OptConfig(degree=np.int64(3), n=np.int64(1000))
        assert type(cfg.degree) is int and type(cfg.n) is int


class TestStopReason:
    @pytest.mark.parametrize(
        "degree, n, iterations, ratio",
        [
            (3, 10**4, 40, 1.0088147136953318),
            (4, 10**4, 129, 1.001277279525536),
            (5, 10**5, 106, 1.0011540182543202),
        ],
    )
    def test_stops_at_the_plateau(self, degree, n, iterations, ratio):
        res = optimize_blt(OptConfig(degree=degree, n=n))
        assert res.stop_reason == "no_decrease"
        assert not res.converged
        assert res.iterations == iterations
        assert res.factorization.meta["stop_reason"] == "no_decrease"
        assert res.factorization.meta["iterations"] == iterations
        assert res.factorization.meta["final_ratio"] == pytest.approx(ratio, rel=1e-12)

    def test_degree_10_still_descends_at_max_iters(self):
        # the d=10 search still lowers the loss at the default 500 iterations;
        # with max_iters=3000 it stops for no_decrease at 602, at 1.0000042103
        res = optimize_blt(OptConfig(degree=10, n=10**5))
        assert res.stop_reason == "max_iters"
        assert res.iterations == 500
        assert res.factorization.meta["final_ratio"] == pytest.approx(1.000018414930232, rel=1e-12)

    def test_max_iters(self):
        res = optimize_blt(OptConfig(degree=4, n=10_000, max_iters=3))
        assert res.stop_reason == "max_iters"
        assert res.iterations == len(res.trace) == 3
        # the third step was taken, so the result lies past the last entry
        assert res.trace[-1][2] > 0.0

    def test_grad_tol_is_the_converged_stop(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_GRAD_TOL", 1e9)
        res = optimize_blt(OptConfig(degree=2, n=100))
        assert res.stop_reason == "grad_tol" and res.converged
        assert res.iterations == len(res.trace) == 1

    def test_line_search_failed(self, monkeypatch):
        # the start point scores 1, every trial point after it scores 2
        calls = itertools.count()
        monkeypatch.setattr(optimizer, "loss", lambda *args: 1.0 if next(calls) == 0 else 2.0)
        res = optimize_blt(OptConfig(degree=2, n=100))
        assert res.stop_reason == "line_search_failed"
        assert res.iterations == 1
        assert res.trace[0][0] == 1.0
        assert res.trace[0][2:] == (0.0, 60)

    def test_gradient_failed(self, monkeypatch):
        def fail(*args):
            raise ValueError("loss is infinite at the evaluation point")

        monkeypatch.setattr(optimizer, "gradient", fail)
        res = optimize_blt(OptConfig(degree=2, n=100))
        assert res.stop_reason == "gradient_failed"
        assert res.iterations == len(res.trace) == 1
        assert math.isnan(res.trace[0][1])

    def test_trace(self):
        res = optimize_blt(OptConfig(degree=3, n=10**4))
        losses = [entry[0] for entry in res.trace]
        assert len(res.trace) == res.iterations
        assert all(b < a for a, b in zip(losses, losses[1:]))
        grads, steps, backtracks = zip(*[entry[1:] for entry in res.trace])
        assert all(g > 0.0 for g in grads)
        assert all(s > 0.0 for s in steps[:-1]) and steps[-1] == 0.0
        assert all(isinstance(b, int) and 0 <= b < 60 for b in backtracks)

    def test_trial_points_raise_no_numpy_warnings(self):
        # some line-search probes at this point drive theta to ~1e-59, where
        # the residue products overflow; the loss there is simply +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_blt(OptConfig(degree=6, n=10**6))
        assert np.isfinite(res.final_max_err)
