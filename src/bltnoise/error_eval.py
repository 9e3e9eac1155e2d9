"""Closed-form evaluation of sensitivity, row norm, MaxErr, and reference bounds.

The factorization quality objective is MaxErr = ||B||_{2->inf} * ||C||_{1->2}.
Neither norm walks the n coefficients.  Each is one entry of a finite Stein
sum ``sum_{j<n} M^j v v^T (M^j)^T`` over a (d+1)-dimensional linear
recurrence -- the pole space of C's generator 1/r for the sensitivity, the
state of B's prefix-summed generator for the row norm -- evaluated by binary
doubling in O(d^3 log n) (``geometric_prefix``).  Both evaluators batch over
leading axes and never conjugate, so complex parameters carry the exact
derivatives the optimizer's complex-step gradient reads, and ``blt eval``
scores a factorization with the same arithmetic as the optimizer.

The reference bounds of every report (``opt_lt_toe``, ``mathias_ub``,
``matousek_lb``, ``bintree``) cost O(1) time and memory at any n: exact
float sums up to ``_EXACT_MAX``, asymptotic expansions within a few ulp of
40-digit values above it, so a report at n = 2^62 allocates nothing of size n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import BltFactorization, _check_horizon
from .seq import optimal_coeffs

EULER_GAMMA = 0.5772156649015329


def geometric_prefix(M, v, n: int):
    """Finite Stein sum ``sum_{j<n} M^j v v^T (M^j)^T``, O(k^3 log n).

    ``M`` is ``(..., k, k)`` and ``v`` is ``(..., k)``; leading axes are a
    batch.  The sum is built over the bits of ``n`` with the pair
    ``(G_L, M^L)``, starting from ``(v v^T, M)`` at the leading bit:
    ``G_2L = G_L + M^L G_L (M^L)^T``, and a set bit makes it
    ``v v^T + M G M^T``.  Transposes are plain, never conjugate.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    vv = v[..., :, None] * v[..., None, :]
    if n == 0:
        return np.zeros_like(vv)
    G, P = vv, M
    for bit in bin(n)[3:]:
        G = G + P @ G @ P.swapaxes(-1, -2)
        P = P @ P
        if bit == "1":
            G = vv + M @ G @ M.swapaxes(-1, -2)
            P = M @ P
    return G


def _norm_from_square(square, what: str):
    """Square root of a squared norm; a real one must be finite and >= 0."""
    if not np.iscomplexobj(square) and not np.all(np.isfinite(square) & (square >= 0.0)):
        raise ValueError(f"negative or non-finite squared {what}; invalid parameters")
    return np.sqrt(square)


def sensitivity_closed(omega, theta, n: int):
    """``||C||_{1->2}`` over ``n >= 1`` steps from B-side residues and poles.

    Works in the pole space of C's generator 1/r.  With ``tb = (theta, 0)``,
    ``v = (omega/theta, 1 - sum omega/theta) / r0`` (r0 the sum of the
    unnormalized v, 1 up to rounding) and ``M = diag(tb) - v tb^T``, the
    coefficients of 1/r are ``1/r0`` and ``-tb^T M^j v / r0``, so
    ``||C||^2 = (1 + tb^T G tb) / r0^2`` with
    ``G = geometric_prefix(M, v, n - 1)``.  Batches over leading axes.
    """
    omega = np.asarray(omega)
    theta = np.asarray(theta)
    ratio = omega / theta
    tb = np.concatenate([theta, np.zeros(theta.shape[:-1] + (1,))], axis=-1)
    v = np.concatenate([ratio, 1.0 - ratio.sum(axis=-1, keepdims=True)], axis=-1)
    r0 = v.sum(axis=-1)
    v = v / r0[..., None]
    M = tb[..., None, :] * np.eye(tb.shape[-1]) - v[..., :, None] * tb[..., None, :]
    G = geometric_prefix(M, v, n - 1)
    quad = (tb[..., None, :] @ G @ tb[..., :, None])[..., 0, 0]
    # r0 = 1 up to rounding, so dividing by it rather than abs(r0) changes
    # nothing for real parameters and keeps complex steps analytic
    return _norm_from_square(1.0 + quad, "sensitivity") / r0


def rownorm_closed(omega, theta, n: int):
    """``||B||_{2->inf}`` over ``n`` steps from B-side residues and poles.

    B's generator is the prefix sum of ``r``: ``b_j = e_d^T A^j 1`` with
    ``A = [[diag theta, 0], [omega^T, 1]]``, so ``||B||^2`` is the last
    diagonal entry of ``geometric_prefix(A, 1, n)``.  The unit entry and the
    zero block of A stay exact under squaring, so theta = 1 is evaluated like
    any other pole.  Batches over leading axes.
    """
    omega = np.asarray(omega)
    theta = np.asarray(theta)
    if not np.iscomplexobj(theta) and theta.size:
        if theta.min() < 0.0 or theta.max() > 1.0:
            raise ValueError("theta entries must lie in [0, 1]")
    d = theta.shape[-1]
    A = np.zeros(theta.shape[:-1] + (d + 1, d + 1), dtype=np.result_type(omega, theta))
    A[..., range(d), range(d)] = theta
    A[..., d, :d] = omega
    A[..., d, d] = 1.0
    G = geometric_prefix(A, np.ones(A.shape[:-1]), n)
    return _norm_from_square(G[..., d, d], "row norm")


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
    """``||C||_{1->2}`` of ``fact`` over ``n`` steps, O(d^3 log n).

    Uses the pole-space parameters the streamer uses, which for the rational
    approximation are exact where its C-side roots are not.  Accuracy is
    about n ulp relative when the pole-space matrix has a unit eigenvalue
    (``ra``'s zero at x=1), whose one-ulp error powering carries: 3.3e-11 at
    d=5, n=10^6 vs mpmath.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(sensitivity_closed(fact.omega, fact.theta, n))


def rownorm_of(fact: BltFactorization, n: int) -> float:
    """``||B||_{2->inf}`` of ``fact`` over ``n`` steps, O(d^3 log n)."""
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
