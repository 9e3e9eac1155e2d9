"""Direct minimization of MaxErr over the 2d root parameters for a fixed n.

The objective is the product of the two closed-form norms as a function of
(theta, theta_hat), plus a small log-barrier keeping theta and the derived
C-side residues strictly positive (residues change sign exactly when roots
collide or cross, so the barrier also keeps the two root ladders interlaced).

One loss costs O(d^2): the residues of both sides and the two norms' Gram
forms, the C side's from (omega_hat, theta_hat) and the B side's from
(omega, theta).  Gradients are exact: the residues and both norms are
complex-safe, so a 1e-20 imaginary step gives the derivative to machine
precision with none of the cancellation of finite differences; the 2d steps
are one batch.  The search runs in logit space (an unconstrained
reparameterization of (0,1)) with a dense BFGS inverse-Hessian estimate and
Armijo backtracking from alpha = 1.  A trial point whose C-side residues are
not finite, or not positive, scores +inf before either norm runs.  alpha = 1
is tried alone; when it fails, the next ``_BATCH`` halvings are screened in
one call and their feasible points scored in order, one at a time, up to the
first that passes, so the step is the one a serial search takes.  Every step
it takes strictly lowers the loss, so the last iterate is the best one.  It
stops at the first of:

- ``"grad_tol"``: the largest gradient component in logit space, the one
  ``trace`` records, is at most ``_GRAD_TOL`` (the only stop reported as
  ``converged``);
- ``"no_decrease"``: the line search accepts a step that does not lower the
  loss, i.e. the step has shrunk to rounding (the loss plateau);
- ``"line_search_failed"``: no step passes Armijo within the backtrack budget;
- ``"gradient_failed"``: the gradient is not finite at the current point;
- ``"max_iters"``: ``max_iters`` iterations ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .error_eval import max_err, rownorm_closed, sensitivity_closed
from .params import BltFactorization, _int_arg, _residues_one_side

_CSTEP = 1e-20
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_BATCH = 8  # halvings screened per call once alpha = 1 fails
_GRAD_TOL = 1e-9


@dataclass
class OptConfig:
    degree: int
    n: int
    max_iters: int = 500
    init: object = None  # (theta, theta_hat), or None for ``geometric_ladder``
    barrier_weight = 1e-7  # the loss's log-barrier weight; a constant, not a field

    def __post_init__(self):
        self.degree = _int_arg("degree", self.degree)
        self.n = _int_arg("n", self.n, least=2)
        self.max_iters = _int_arg("max_iters", self.max_iters)


@dataclass
class OptResult:
    factorization: BltFactorization
    final_max_err: float
    iterations: int
    stop_reason: str
    # per iteration: (loss and max |gradient| in logit coordinates at its
    # start, step taken (0.0 where it stopped), backtracks)
    trace: list

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"


def geometric_ladder(degree: int, n: int):
    """Default initialization: poles approach 1 on a ratio-1/4 ladder with the
    C-side roots offset a fraction 1/(2 sqrt(n)) of each pole's gap to 1, which
    interlaces the two ladders (all derived C-side residues positive).  Where
    an offset rounds away (a root on its pole, or on 1), the ratio widens until
    the deepest offset is 16 ulps of 1, keeping the last pole's gap to 1 at
    most half the first one's, so the poles stay apart."""
    i = np.arange(degree)
    c = 1.0 / math.sqrt(n)
    for ratio in (0.25, min(32 * 2.0**-53 * n, 0.5) ** (1 / max(1, degree - 1))):
        theta = 1.0 - c * ratio**i
        theta_hat = theta + (1.0 - theta) / (2.0 * math.sqrt(n))
        if np.all((theta < theta_hat) & (theta_hat < 1.0)):
            break
    return theta, theta_hat


def _screen(theta, theta_hat, barrier_weight: float):
    """The C-side residues of each row, and whether the row is feasible: every
    root strictly inside (0, 1) (the real part, under a complex step), its
    residues finite and, with the barrier on, positive.  The optimizer's one
    check of a point; ``loss``, ``gradient`` and the line search all read it."""
    omega_hat = _residues_one_side(theta_hat, theta)
    p = np.concatenate([theta.real, theta_hat.real], axis=-1)
    keep = ((p > 0.0) & (p < 1.0)).all(axis=-1) & np.isfinite(omega_hat).all(axis=-1)
    if barrier_weight != 0.0:
        keep &= (omega_hat.real > 0.0).all(axis=-1)
    return omega_hat, keep


def _feasible_loss(theta, theta_hat, omega_hat, n: int, barrier_weight: float):
    """Both norms' product plus the barrier, for rows ``_screen`` kept."""
    omega = _residues_one_side(theta, theta_hat)
    value = sensitivity_closed(omega_hat, theta_hat, n) * rownorm_closed(omega, theta, n)
    if barrier_weight != 0.0:
        value = value + barrier_weight * (-np.log(theta).sum(axis=-1) - np.log(omega_hat).sum(axis=-1))
    return value


def _loss_core(theta, theta_hat, n: int, barrier_weight: float):
    """Loss on (possibly complex) parameters of equal shape.

    1-d parameters give one value, 2-d ones a value per row.  A row that
    ``_screen`` refuses, outside (0, 1) or infeasible, is +inf, and the norms
    run only on the other rows.  A trial point far outside the basin
    overflows the residue products, and a repeated root divides by zero; the
    loss there is +inf, so the warnings carry nothing.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega_hat, keep = _screen(theta, theta_hat, barrier_weight)
        if keep.all():
            return _feasible_loss(theta, theta_hat, omega_hat, n, barrier_weight)
        if theta.ndim == 1:
            return math.inf
        value = np.full(keep.shape, math.inf, dtype=omega_hat.dtype)
        if keep.any():
            value[keep] = _feasible_loss(theta[keep], theta_hat[keep], omega_hat[keep], n, barrier_weight)
    return value


def _trial_point(theta, theta_hat):
    """``(theta, theta_hat)`` as 1-d float arrays of equal length."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=np.float64))
    if theta.shape != theta_hat.shape or theta.ndim != 1:
        raise ValueError("theta and theta_hat must be 1-d arrays of equal length")
    return theta, theta_hat


def loss(theta, theta_hat, n: int, barrier_weight: float) -> float:
    """Barrier-augmented MaxErr; +inf outside the feasible region."""
    theta, theta_hat = _trial_point(theta, theta_hat)
    try:
        value = float(_loss_core(theta, theta_hat, n, barrier_weight).real)
    except ValueError:
        return math.inf
    return value if math.isfinite(value) else math.inf


def gradient(theta, theta_hat, n: int, barrier_weight: float) -> np.ndarray:
    """Gradient of ``loss`` in the concatenated (theta, theta_hat) parameters.

    Computed by a 1e-20 imaginary step per coordinate, all 2d steps in one
    batched loss evaluation; exact to roundoff.
    """
    theta, theta_hat = _trial_point(theta, theta_hat)
    d = theta.size
    params = np.concatenate([theta, theta_hat]) + 1j * _CSTEP * np.eye(2 * d)
    val = _loss_core(params[:, :d], params[:, d:], n, barrier_weight)
    if not np.isfinite(val.real).all():
        raise ValueError("loss is infinite at the evaluation point")
    return val.imag / _CSTEP


def _line_search(x, direction, slope, f_cur, n: int, barrier_weight: float):
    """Armijo backtracking along ``direction`` from the logit-space point ``x``.

    Tries ``alpha = 0.5**k`` for k = 0, 1, ... below ``_MAX_BACKTRACKS`` and
    returns the first ``(k, alpha, point, loss)`` whose loss passes Armijo, or
    None.  k = 0 is tried alone and later halvings ``_BATCH`` at a time: one
    ``_screen`` call refuses a batch's infeasible rows (+inf, as ``loss``
    scores them) before any norm runs, and its feasible rows are scored one
    at a time in order, up to the first that passes.  One row at a time keeps
    each loss equal to ``loss`` at that point bit for bit: the norms' power
    series go through one matrix product over every near entry of a batch,
    whose rounding depends on how many entries it holds.
    """
    d = x.size // 2
    k = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while k < _MAX_BACKTRACKS:
            stop = min(k + _BATCH, _MAX_BACKTRACKS) if k else 1
            alphas = 0.5 ** np.arange(k, stop)
            points = x + alphas[:, None] * direction
            p = _sigmoid(points)
            theta, theta_hat = p[:, :d], p[:, d:]
            omega_hat, keep = _screen(theta, theta_hat, barrier_weight)
            for i in np.flatnonzero(keep):
                try:
                    f = float(_feasible_loss(theta[i], theta_hat[i], omega_hat[i], n, barrier_weight))
                except ValueError:
                    continue
                alpha = float(alphas[i])
                if math.isfinite(f) and f <= f_cur + _ARMIJO_C1 * alpha * slope:
                    return k + int(i), alpha, points[i], f
            k = stop
    return None


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def optimize_blt(cfg: OptConfig) -> OptResult:
    """Quasi-Newton minimization of the barrier-augmented MaxErr.

    Runs BFGS in logit space with monotone Armijo backtracking and returns the
    last iterate, which is the best one.  The search stops at the first
    accepted step that does not lower the loss (``"no_decrease"``), or for one
    of the other reasons listed in the module docstring; ``stop_reason`` says
    which, and ``fact.meta`` records it next to ``iterations``.  Stopping for
    any reason but ``"grad_tol"`` gives ``converged=False`` and is not an error.
    """
    d, n, w = cfg.degree, cfg.n, cfg.barrier_weight
    if cfg.init is None:
        theta0, theta_hat0 = geometric_ladder(d, n)
        start = f"the default start geometric_ladder(degree={d}, n={n})"
        entry = f"{start}: "
    else:
        theta0, theta_hat0 = _trial_point(*cfg.init)
        start, entry = "init", "init "
    if theta0.size != d or theta_hat0.size != d:
        raise ValueError("initialization size does not match degree")
    for name, p0 in (("theta", theta0), ("theta_hat", theta_hat0)):
        outside = np.flatnonzero(~((p0 > 0.0) & (p0 < 1.0)))
        if outside.size:
            i = int(outside[0])
            raise ValueError(f"{entry}{name}[{i}] = {float(p0[i])} is not strictly inside (0, 1)")

    x = _logit(np.concatenate([theta0, theta_hat0]))
    p = _sigmoid(x)
    f_cur = loss(p[:d], p[d:], n, w)
    if not math.isfinite(f_cur):
        raise ValueError(f"{start} is infeasible (infinite loss)")

    H = np.eye(2 * d)
    prev_x = prev_g = None
    stop_reason = "max_iters"
    trace = []
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        p = _sigmoid(x)
        try:
            g_p = gradient(p[:d], p[d:], n, w)
        except ValueError:
            trace.append((f_cur, math.nan, 0.0, 0))
            stop_reason = "gradient_failed"
            break
        g_x = g_p * p * (1.0 - p)
        g_max = float(np.abs(g_x).max())
        if g_max <= _GRAD_TOL:
            trace.append((f_cur, g_max, 0.0, 0))
            stop_reason = "grad_tol"
            break
        if prev_x is not None:
            s = x - prev_x
            yv = g_x - prev_g
            sy = s @ yv
            if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
                rho = 1.0 / sy
                V = np.eye(2 * d) - rho * np.outer(s, yv)
                H = V @ H @ V.T + rho * np.outer(s, s)
        direction = -H @ g_x
        slope = direction @ g_x
        if slope >= 0.0:
            H = np.eye(2 * d)
            direction = -g_x
            slope = -(g_x @ g_x)
        step = _line_search(x, direction, slope, f_cur, n, w)
        if step is None:
            trace.append((f_cur, g_max, 0.0, _MAX_BACKTRACKS))
            stop_reason = "line_search_failed"
            break
        backtracks, alpha, x_new, f_new = step
        # with slope < 0, Armijo accepts f_new >= f_cur only once the step
        # is lost to rounding: the loss has reached its plateau
        if f_new >= f_cur:
            trace.append((f_cur, g_max, 0.0, backtracks))
            stop_reason = "no_decrease"
            break
        trace.append((f_cur, g_max, alpha, backtracks))
        prev_x, prev_g = x, g_x
        x, f_cur = x_new, f_new

    p = _sigmoid(x)
    meta = {"n_target": n, "iterations": iterations, "stop_reason": stop_reason}
    fact = BltFactorization(p[:d], p[d:], n, method="opt", meta=meta)
    # the evaluator of `blt eval`, so a saved file reports the same ratio
    rep = max_err(fact, n)
    fact.meta["final_ratio"] = rep.ratio
    if rep.max_err < rep.bounds["matousek_lb"] - 1e-9:
        raise RuntimeError("MaxErr below the lower bound; evaluation is inconsistent")
    return OptResult(
        factorization=fact,
        final_max_err=float(rep.max_err),
        iterations=iterations,
        stop_reason=stop_reason,
        trace=trace,
    )
