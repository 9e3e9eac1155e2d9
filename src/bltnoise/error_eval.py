"""Closed-form evaluation of sensitivity, row norm, MaxErr, and reference bounds.

The factorization quality objective is MaxErr = ||B||_{2->inf} * ||C||_{1->2}.
Neither norm walks the n coefficients: each is a Gram form of geometric
sequences, O(d^2), whose entries are elementwise geometric sums
``geometric_prefix(e, N)`` of exact complements ``e = 1 - theta_i theta_k``,
so a root at exactly 1 (``ra``'s zero at x = 1) is summed exactly at any n.
Both evaluators batch over leading axes and never conjugate, so complex
parameters carry the exact derivatives the optimizer's complex-step gradient
reads, and ``blt eval`` scores a factorization with the same arithmetic as
the optimizer.

The reference bounds of every report (``opt_lt_toe``, ``mathias_ub``,
``matousek_lb``, ``bintree``) cost O(1) time and memory at any n: exact
float sums up to ``_EXACT_MAX``, asymptotic expansions within a few ulp of
40-digit values above it, so a report at n = 2^62 allocates nothing of size n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import BltFactorization, _check_horizon
from .seq import optimal_coeffs

EULER_GAMMA = 0.5772156649015329


# Where ``x = N log(1/q)`` is below this, a sum over N powers of q is taken
# as a power series in x, to this order: no closed form with 1 - q in a
# denominator keeps its digits, or a complex step's, there.
_SERIES_X = 1.0
_SERIES_ORDER = 24
_LOG_TINY = -745.0  # below log of the least positive float64


@functools.lru_cache(maxsize=16)
def _series_weights(N: int):
    """Weights of the power series in ``x = N log(1/q)``, from the power sums
    ``S_k = sum_{j<N} j^k`` (exact, by ``sum_{i<=k} C(k+1, i) S_i = N^(k+1)``):
    ``S_m / (N^m m!)`` for ``sum_{j<N} q^j``, and ``S_{m+1} / (N^m (m+1)!)``
    and ``S_{m+p+2} / (N^(m+p) (m+1)! (p+1)!)`` for ``rownorm_closed``."""
    M, S, f = _SERIES_ORDER, [N], math.factorial
    for k in range(1, M + 3):
        S.append((N ** (k + 1) - sum(math.comb(k + 1, i) * S[i] for i in range(k))) // (k + 1))
    k0 = np.array([S[m] / (N**m * f(m)) for m in range(M + 1)])
    w1 = np.array([S[m + 1] / (N**m * f(m + 1)) for m in range(M + 1)])
    W2 = np.array([[S[m + p + 2] / (N ** (m + p) * f(m + 1) * f(p + 1)) if m + p <= M else 0.0
                    for p in range(M + 1)] for m in range(M + 1)])
    return k0, w1, W2


def _log_q(e):
    """``log(1 - e)``, held at -745 or above, where ``1 - e`` is 0 to float64
    (also where a complement of a tiny product rounds to 1), so that ``N``
    times it stays finite.  For complex ``e = a + ib`` the real part is
    ``0.5 log1p(a(a - 2) + b^2)``, since numpy's complex ``log1p`` loses its
    digits at small |e|, and ``log|1 - e|`` from |a| = 1/2 up, where ``a(a -
    2)`` would round ``|1 - e|^2`` away; the imaginary part is ``atan2(-b, 1 - a)``."""
    with np.errstate(divide="ignore"):
        if e.dtype.kind != "c":
            return np.maximum(np.log1p(-e), _LOG_TINY)
        a, b = e.real, e.imag
        mag = np.where(np.abs(a) < 0.5, 0.5 * np.log1p(a * (a - 2.0) + b * b), np.log(np.abs(1.0 - e)))
        return np.maximum(mag, _LOG_TINY) + 1j * np.arctan2(-b, 1.0 - a)


def geometric_prefix(e, N: int):
    """``sum_{j<N} (1 - e)^j`` elementwise, O(1) each: ``-expm1(-x) / e`` with
    ``x = -N log(1 - e)``, and below ``_SERIES_X`` the power series in x, which
    is exactly N at e = 0.  A complex step carries the exact derivative."""
    if N < 0:
        raise ValueError("N must be >= 0")
    e = np.asarray(e)
    if N == 0:
        return np.zeros_like(e)
    x = -N * _log_q(e)
    near = np.abs(x.real) < _SERIES_X
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(-np.expm1(-x) / e)
    if near.any():
        out[near] = (-x[near])[:, None] ** np.arange(_SERIES_ORDER + 1) @ _series_weights(N)[0]
    return out


def _gram(e, N: int):
    """``G_ik = sum_{j<N} (theta_i theta_k)^j`` from ``e = 1 - theta``."""
    return geometric_prefix(e[..., :, None] + e[..., None, :] - e[..., :, None] * e[..., None, :], N)


def _quad(G, u, v):
    """``u^T G v`` over leading axes, never conjugated."""
    return ((G * v[..., None, :]).sum(axis=-1) * u).sum(axis=-1)


def _norm_from_square(square, what: str):
    """Square root of a squared norm; a real one must be finite and >= 0."""
    if square.dtype.kind != "c" and not (np.isfinite(square) & (square >= 0.0)).all():
        raise ValueError(f"negative or non-finite squared {what}; invalid parameters")
    return np.sqrt(square)


def sensitivity_closed(omega_hat, theta_hat, n: int):
    """``||C||_{1->2}`` over ``n >= 1`` steps from C-side residues and roots:
    C's generator is ``1/r = 1 + x sum_k omega_hat_k / (1 - theta_hat_k x)``,
    so ``||C||^2 = 1 + omega_hat^T G(theta_hat, n - 1) omega_hat``."""
    omega_hat = np.asarray(omega_hat)
    G = _gram(1.0 - np.asarray(theta_hat), n - 1)
    return _norm_from_square(1.0 + _quad(G, omega_hat, omega_hat), "sensitivity")


def rownorm_closed(omega, theta, n: int):
    """``||B||_{2->inf}`` over ``n`` steps from B-side residues and poles.

    B's coefficients are ``b_j = 1 + sum_i omega_i K_i(j)``, ``K_i(j) =
    sum_{k<j} theta_i^k``.  A pole with ``x = n log(1/theta) >= 1`` enters as
    ``K_i(j) = (1 - theta_i^j) / e_i``: with ``beta = omega / e`` and ``alpha =
    1 + sum beta``, the constant alpha is one more pole, at 1, of one Gram
    form.  A pole nearer 1 (at 1 included), where dividing by e would cancel
    every digit, keeps ``K_s(j) = ell_s sum_m (-x_s)^m j^(m+1) / (n^m (m+1)!)``,
    ``ell_s = log(1/theta_s) / e_s``: its sums against 1 and the near poles
    are series in x, and against a far pole b, ``sum_j K_s(j) theta_b^j =
    (theta_b K_b(n) - theta_b^n K_s(n)) / (e_s + e_b - e_s e_b)``.
    """
    omega = np.asarray(omega)
    theta = np.asarray(theta)
    if theta.dtype.kind != "c" and theta.size:
        if theta.min() < 0.0 or theta.max() > 1.0:
            raise ValueError("theta entries must lie in [0, 1]")
    e = 1.0 - theta
    log_q = _log_q(e)
    near = ((-n * log_q).real < _SERIES_X) if n else np.zeros(e.shape, bool)
    beta = np.where(near, 0.0, omega / np.where(near, 1.0, e))
    alpha = 1.0 + beta.sum(axis=-1)
    v = np.concatenate([-beta, alpha[..., None]], axis=-1)
    G = _gram(np.concatenate([e, np.zeros(alpha.shape + (1,))], axis=-1), n)
    square = _quad(G, v, v)
    if near.any():
        _, w1, W2 = _series_weights(n)
        unit = e == 0
        u = np.where(near, omega * np.where(unit, 1.0, -log_q / np.where(unit, 1.0, e)), 0.0)
        X = np.where(near, n * log_q, 0.0)[..., None] ** np.arange(_SERIES_ORDER + 1)
        square = square + 2.0 * alpha * (u * (X @ w1)).sum(axis=-1) + _quad(X @ W2 @ X.swapaxes(-1, -2), u, u)
        far = near[..., :, None] & ~near[..., None, :]
        K = G[..., :-1, -1]
        cross = (np.exp(log_q) * K)[..., None, :] - np.exp(n * log_q)[..., None, :] * K[..., :, None]
        e_sb = e[..., :, None] + e[..., None, :] - e[..., :, None] * e[..., None, :]
        cross = np.where(far, cross / np.where(far, e_sb, 1.0), 0.0)
        square = square - 2.0 * _quad(cross, np.where(near, omega, 0.0), beta)
    return _norm_from_square(square, "row norm")


@dataclass(frozen=True)
class MaxErrReport:
    """Sensitivity, row norm, their product, and the reference bounds at n."""

    n: int
    sensitivity: float
    row_norm: float
    max_err: float
    bounds: dict

    @property
    def ratio(self) -> float:
        """``max_err`` relative to ``opt_lt_toe``, the best Toeplitz value."""
        return self.max_err / self.bounds["opt_lt_toe"]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "sensitivity": self.sensitivity,
            "row_norm": self.row_norm,
            "max_err": self.max_err,
            "bounds": dict(self.bounds),
            "ratio_to_opt_lt_toe": self.ratio,
        }


def sensitivity_of(fact: BltFactorization, n: int) -> float:
    """``||C||_{1->2}`` of ``fact`` over ``n`` steps, O(d^2).

    Reads the C-side residues ``fact.omega_hat``, which for the rational
    approximation are exact where its stored roots are not.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(sensitivity_closed(fact.omega_hat, fact.theta_hat, n))


def rownorm_of(fact: BltFactorization, n: int) -> float:
    """``||B||_{2->inf}`` of ``fact`` over ``n`` steps, O(d^2)."""
    return float(rownorm_closed(fact.omega, fact.theta, n))


def max_err(fact: BltFactorization, n: int | None = None) -> MaxErrReport:
    """MaxErr report for a factorization evaluated over ``n`` steps."""
    if n is None:
        n = fact.n
    _check_horizon(n)
    sens = sensitivity_of(fact, n)
    rn = rownorm_of(fact, n)
    return MaxErrReport(
        n=n,
        sensitivity=sens,
        row_norm=rn,
        max_err=sens * rn,
        bounds=bounds_table(n),
    )


# --- reference bounds ---------------------------------------------------------
#
# Each bound is an exact O(n) sum up to _EXACT_MAX and an asymptotic expansion
# above it, so one value costs O(1) time and memory at any n.  The expansions'
# first omitted terms are below 1e-24 relative at n > _EXACT_MAX.

_EXACT_MAX = 4096

# opt_lt_toe is the Landau constant G_{n-1} (Watson 1930, "The constants of
# Landau and Lebesgue"): pi * G_{n-1} = ln n + gamma + 4 ln 2 + sum_j a_j n^-j.
_LANDAU_CONST = EULER_GAMMA + 4.0 * math.log(2.0)
_LANDAU_A = (-1 / 4, 5 / 192, 3 / 128, -341 / 122880, -75 / 8192, 7615 / 8257536)

# Both sine bounds use the midpoint sum T(N) = sum_{j=1}^N csc(pi (2j-1) / (2N)),
# T(N) / N = (2/pi)(ln(8N/pi) + gamma) + sum_k c_k N^-2k, where T(N) is
# S(2N) - S(N) for the cosecant sum S(N) = sum_{k<N} csc(k pi / N), so
# c_k = (2^(1-2k) - 1) (-1)^k B_2k^2 (2^2k - 2) pi^(2k-1) / (k (2k)!).
# _CSC_HALF holds c_k / 2 for k = 1..3.
_CSC_CONST = math.log(8.0 / math.pi) + EULER_GAMMA
_CSC_HALF = (math.pi / 144, -49 * math.pi**3 / 345600, 961 * math.pi**5 / 121927680)


def _poly(coeffs, x: float) -> float:
    """``sum_j coeffs[j] x^(j+1)`` by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = (acc + c) * x
    return acc


def _csc_half_mean(N: int) -> float:
    """``T(N) / (2N)`` for ``N > _EXACT_MAX``, from the expansion of T."""
    return (math.log(N) + _CSC_CONST) / math.pi + _poly(_CSC_HALF, 1.0 / (N * N))


def opt_lt_toe(n: int) -> float:
    """Optimal Toeplitz MaxErr ``sum_{k<n} f_k^2``, O(1) at any n.

    ``f`` are the coefficients of ``1/sqrt(1-x)``.  Summed exactly up to
    ``_EXACT_MAX``; above it, the Landau-constant expansion.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= _EXACT_MAX:
        f = optimal_coeffs(n).coeffs
        return float(np.cumsum(f * f)[-1])
    return (math.log(n) + _LANDAU_CONST + _poly(_LANDAU_A, 1.0 / n)) / math.pi


def mathias_ub(n: int) -> float:
    """Upper bound on the general (non-Toeplitz) optimum, ``1/2 + T(n) / (2n)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _EXACT_MAX:
        return 0.5 + _csc_half_mean(n)
    # T(n) is twice its first half by the symmetry j <-> n + 1 - j, plus
    # csc(pi/2) = 1 for odd n: angles near pi would carry float pi's error
    j = np.arange(1, n // 2 + 1)
    half = math.fsum(1.0 / np.sin(np.pi * (2 * j - 1) / (2 * n)))
    return 0.5 + (2.0 * half + n % 2) / (2 * n)


def matousek_lb(n: int) -> float:
    """Lower bound on any factorization's MaxErr, ``(T(2n+1) - 1) / (4n)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _EXACT_MAX:
        # T(N) = 2N h with N = 2n + 1, so (T(N) - 1) / (4n) = h + (2h - 1) / (4n)
        h = _csc_half_mean(2 * n + 1)
        return h + (2.0 * h - 1.0) / (4 * n)
    j = np.arange(1, n + 1)
    return float(np.sum(1.0 / np.sin(np.pi * (2 * j - 1) / (4 * n + 2))) / (2 * n))


def bintree_value(n: int) -> float:
    """MaxErr of the classical binary-tree mechanism, ceil(log2 n) + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float((n - 1).bit_length() + 1)


def bounds_table(n: int) -> dict:
    return {
        "opt_lt_toe": opt_lt_toe(n),
        "mathias_ub": mathias_ub(n),
        "matousek_lb": matousek_lb(n),
        "bintree": bintree_value(n),
    }


BOUNDS_CSV_HEADER = "n,opt_lt_toe,mathias_ub,matousek_lb,bintree"
MECH_CSV_HEADER = BOUNDS_CSV_HEADER + ",mechanism_maxerr,ratio"


def bounds_row(n: int, b: dict) -> str:
    """The ``BOUNDS_CSV_HEADER`` fields of ``n`` and its ``bounds_table`` ``b``."""
    return (
        f"{n},{b['opt_lt_toe']:.12g},{b['mathias_ub']:.12g},"
        f"{b['matousek_lb']:.12g},{b['bintree']:.12g}"
    )


def bounds_csv(ns) -> str:
    lines = [BOUNDS_CSV_HEADER]
    lines += (bounds_row(int(n), bounds_table(int(n))) for n in ns)
    return "\n".join(lines) + "\n"
