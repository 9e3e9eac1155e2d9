"""Closed-form evaluation of sensitivity, row norm, MaxErr, and reference bounds.

The factorization quality objective is MaxErr = ||B||_{2->inf} * ||C||_{1->2}.
Neither norm walks the n coefficients.  The row norm reduces to geometric
prefix sums gamma_n(t) = sum_{i<n} t^i of the root parameters, O(d^2).  The
sensitivity of every construction is a finite Stein sum over the d+1
dimensional pole-space recurrence of 1/r, evaluated by binary doubling in
O(d^3 log n) (``sensitivity_of``); its residue form ``sensitivity_closed``
stays for the optimizer's complex-step gradient.  The geometric sums are the
numerically delicate part: near t = 1 the textbook ratio form loses all
precision, so every building block switches to a binomial series in
eps = 1 - t once n*|eps| < 1/2.  The series are exact for small integer n
(the C(n, .) factors terminate) and complex-safe, which step-differentiation
in the optimizer relies on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import BltFactorization

EULER_GAMMA = 0.5772156649015329

# n*|1-theta| below this uses the series branches.
_ZONE = 0.5
_SERIES_TOL = 1e-17
_MAX_TERMS = 120
# Fixed truncation of the double series; terms carry (n*eps)^(a+b) / (a+b)!-ish
# decay, so 16 orders at n*eps < 1/2 is far below double precision.
_DOUBLE_J = 16


def geometric_prefix(theta, n: int):
    """Geometric prefix sum ``gamma_n(theta) = 1 + theta + ... + theta^(n-1)``.

    Evaluates ``(1 - theta^n)/(1 - theta)`` away from 1 and an adaptive
    binomial series ``sum_j C(n, j+1) (-eps)^j`` when ``n*|1-theta| < 1/2``
    (which covers theta = 1 exactly).  Accepts complex ``theta``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not np.iscomplexobj(theta):
        theta = float(theta)
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
    else:
        theta = complex(theta)
    if n == 0:
        return 0.0 * theta
    eps = 1.0 - theta
    if n * abs(eps) < _ZONE:
        term = float(n)
        acc = term
        for j in range(_MAX_TERMS):
            term *= -eps * (n - j - 1) / (j + 2)
            acc += term
            if abs(term) <= _SERIES_TOL * abs(acc):
                break
        return acc
    return (1.0 - theta**n) / eps


@dataclass(frozen=True)
class GeometricSum:
    """A geometric prefix sum with its arguments, for reporting/inspection."""

    theta: float
    n: int
    value: float

    @classmethod
    def of(cls, theta, n: int) -> "GeometricSum":
        return cls(theta, n, geometric_prefix(theta, n))


def _gsum1(theta, n: int):
    """``sum_{i<n} gamma_i(theta)``, the linear-in-i accumulation of prefixes."""
    if n <= 1:
        return 0.0 * theta
    eps = 1.0 - theta
    if n * abs(eps) < _ZONE:
        term = 0.5 * n * (n - 1)
        acc = term
        for j in range(_MAX_TERMS):
            term *= -eps * (n - j - 2) / (j + 3)
            acc += term
            if abs(term) <= _SERIES_TOL * abs(acc):
                break
        return acc
    return (n - geometric_prefix(theta, n)) / eps


@lru_cache(maxsize=None)
def _pascal(rows: int) -> np.ndarray:
    tri = np.zeros((rows, rows))
    tri[:, 0] = 1.0
    for i in range(1, rows):
        tri[i, 1 : i + 1] = tri[i - 1, : i] + tri[i - 1, 1 : i + 1]
    return tri


def _binom_n_range(n: int, kmax: int) -> np.ndarray:
    """``C(n, k)`` for ``k = 0..kmax`` by the exact-terminating product rule."""
    out = np.empty(kmax + 1)
    out[0] = 1.0
    for k in range(1, kmax + 1):
        out[k] = out[k - 1] * (n - k + 1) / k
    return out


@lru_cache(maxsize=64)
def _cross_table(n: int) -> np.ndarray:
    """``T[a, b] = sum_{i<n} C(i, a+1) C(i, b+1)`` for ``a, b <= _DOUBLE_J``.

    Uses the all-positive expansion
    ``sum_{i<n} C(i,r) C(i,s) = sum_K C(K,r) C(r, r+s-K) C(n, K+1)``,
    which terminates exactly for small integer n.
    """
    J = _DOUBLE_J
    kmax = 2 * J + 3
    tri = _pascal(kmax + 1)
    cn = _binom_n_range(n, kmax + 1)
    T = np.zeros((J + 1, J + 1))
    for a in range(J + 1):
        r = a + 1
        for b in range(J + 1):
            s = b + 1
            total = 0.0
            for K in range(max(r, s), r + s + 1):
                total += tri[K, r] * tri[r, r + s - K] * cn[K + 1]
            T[a, b] = total
    return T


def _gsum2_series2(eps1, eps2, n: int):
    T = _cross_table(n)
    j = np.arange(_DOUBLE_J + 1)
    p1 = (-eps1) ** j
    p2 = (-eps2) ** j
    return p1 @ T @ p2


def _gsum2_mixed(eps, phi, n: int):
    """One root in the series zone (eps = 1-theta), the other (phi) outside.

    Expands the in-zone factor only: the a-th term couples C(n, a+2) with
    ``D_r = sum_{i<n} C(i, r) phi^i`` (r = a+1), evaluated in closed form.
    Because 0 <= D_r <= C(n, a+2), terms are bounded by the pure series and
    the stop test can use that bound instead of the (cancellation-noisy)
    computed term.
    """
    e2 = 1.0 - phi
    cn = 0.5 * n * (n - 1)  # C(n, a+2) at a = 0
    acc = 0.0 * (eps + phi)
    powe = 1.0 + 0.0 * eps
    small_phi = abs(phi) < 1e-50
    if not small_phi:
        lead = phi / (e2 * e2)  # phi^r / (1-phi)^(r+1)
        ratio = phi / e2
        term = phi**n  # t = 0 term of the finite tail correction
        S = term
    for a in range(60):
        r = a + 1
        if small_phi:
            D = 0.0
        else:
            if term != 0.0:
                term *= (n - r + 1) / r * (e2 / phi)
                S += term
            D = lead * (1.0 - S)
            lead *= ratio
        acc += powe * (cn - D) / e2
        powe *= -eps
        cn *= (n - a - 2) / (a + 3)
        if abs(powe) * abs(cn) <= 0.5 * _SERIES_TOL * abs(acc) * abs(e2):
            break
    return acc


def _gsum2(theta, phi, n: int):
    """``sum_{i<n} gamma_i(theta) gamma_i(phi)``, the cross term of the row norm."""
    if n <= 1:
        return 0.0 * theta
    e1 = 1.0 - theta
    e2 = 1.0 - phi
    in1 = n * abs(e1) < _ZONE
    in2 = n * abs(e2) < _ZONE
    if in1 and in2:
        return _gsum2_series2(e1, e2, n)
    if in1:
        return _gsum2_mixed(e1, phi, n)
    if in2:
        return _gsum2_mixed(e2, theta, n)
    g1 = geometric_prefix(theta, n)
    g2 = geometric_prefix(phi, n)
    g12 = geometric_prefix(theta * phi, n)
    return (n - g1 - g2 + g12) / (e1 * e2)


def sensitivity_closed(omega_hat, theta_hat, n: int):
    """``||C||_{1->2}`` from C-side residues/roots.

    The squared column norm is ``1 + sum_{j,k} w_j w_k gamma_{n-1}(t_j t_k)``.
    Raises if the radicand comes out negative (invalid parameters).
    """
    omega_hat = np.atleast_1d(np.asarray(omega_hat))
    theta_hat = np.atleast_1d(np.asarray(theta_hat))
    om = omega_hat.tolist()
    th = theta_hat.tolist()
    d = len(om)
    total = 0.0
    for j in range(d):
        for k in range(j, d):
            scale = 2.0 if k > j else 1.0
            total += scale * om[j] * om[k] * geometric_prefix(th[j] * th[k], n - 1)
    radicand = 1.0 + total
    if not np.iscomplexobj(radicand):
        if radicand < 0.0:
            raise ValueError("negative squared sensitivity; invalid parameters")
        return float(np.sqrt(radicand))
    return radicand**0.5


def rownorm_closed(omega, theta, n: int):
    """``||B||_{2->inf}`` (last-row 2-norm of the prefix-sum side).

    With ``t_i = 1 + sum_j w_j gamma_i(theta_j)`` the squared norm is
    ``n + 2 sum_j w_j G1(theta_j) + sum_{j,k} w_j w_k G2(theta_j, theta_k)``
    where G1/G2 accumulate gamma_i and gamma_i*gamma_i over ``i < n``.
    """
    omega = np.atleast_1d(np.asarray(omega))
    theta = np.atleast_1d(np.asarray(theta))
    if not np.iscomplexobj(theta) and theta.size:
        if theta.min() < 0.0 or theta.max() > 1.0:
            raise ValueError("theta entries must lie in [0, 1]")
    om = omega.tolist()
    th = theta.tolist()
    d = len(om)
    total = float(n)
    for j in range(d):
        total += 2.0 * om[j] * _gsum1(th[j], n)
    for j in range(d):
        for k in range(j, d):
            scale = 2.0 if k > j else 1.0
            total += scale * om[j] * om[k] * _gsum2(th[j], th[k], n)
    if not np.iscomplexobj(total):
        if total < 0.0:
            raise ValueError("negative squared row norm; invalid parameters")
        return float(np.sqrt(total))
    return total**0.5


def linear_growth_coeff(omega, theta) -> float:
    """Coefficient of the eventual linear growth of the squared row norm.

    Equals ``(1 + sum_j w_j/(1-theta_j))^2`` and is therefore nonnegative for
    any parameters with theta < 1.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    base = 1.0 + np.sum(omega / (1.0 - theta)) if omega.size else 1.0
    return float(base * base)


@dataclass(frozen=True)
class MaxErrReport:
    """Sensitivity, row norm, their product, and the reference bounds at n."""

    n: int
    sensitivity: float
    row_norm: float
    max_err: float
    bounds: dict

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "sensitivity": self.sensitivity,
            "row_norm": self.row_norm,
            "max_err": self.max_err,
            "bounds": dict(self.bounds),
            "ratio_to_opt_lt_toe": self.max_err / self.bounds["opt_lt_toe"],
        }


def sensitivity_of(fact: BltFactorization, n: int) -> float:
    """``||C||_{1->2}`` over ``n`` steps, O(d^3 log n) for every construction.

    Works on the pole-space parameters the streamer uses, which for the
    rational approximation are exact where its C-side roots are not.  With
    ``tb = (theta, 0)``, ``v = (omega/theta, 1 - sum omega/theta) / r0`` (r0
    the sum of the unnormalized v) and ``M = diag(tb) - v tb^T``, the
    coefficients of ``1/r`` are ``1/r0`` and ``-tb^T M^j v / r0``, so
    ``||C||^2 = (1 + tb^T G tb) / r0^2`` with ``G = sum_{j<n-1} M^j v v^T M^jT``.
    G is built by doubling over the bits of ``n - 1`` with the pair
    ``(G_L, M^L)``, the squaring scheme for finite Stein sums.  Accuracy is
    about n ulp relative when M has a unit eigenvalue (``ra``'s zero at x=1),
    whose one-ulp error powering carries: 3.3e-11 at d=5, n=10^6 vs mpmath.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ratio = fact.omega / fact.theta
    tb = np.append(fact.theta, 0.0)
    v = np.append(ratio, 1.0 - ratio.sum())
    r0 = float(v.sum())
    v = v / r0
    M = np.diag(tb) - np.outer(v, tb)
    G = np.zeros_like(M)
    P = np.eye(tb.size)
    for bit in bin(n - 1)[2:]:
        G = G + P @ G @ P.T
        P = P @ P
        if bit == "1":
            G = np.outer(v, v) + M @ G @ M.T
            P = M @ P
    return float(np.sqrt(1.0 + tb @ G @ tb)) / abs(r0)


def rownorm_of(fact: BltFactorization, n: int) -> float:
    return rownorm_closed(fact.omega, fact.theta, n)


def max_err(fact: BltFactorization, n: int | None = None) -> MaxErrReport:
    """MaxErr report for a factorization evaluated over ``n`` steps."""
    if n is None:
        n = fact.n
    if n < 1:
        raise ValueError("n must be >= 1")
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

_f2_lock = threading.Lock()
_f2_cumsum = np.ones(1)


def opt_lt_toe(n: int) -> float:
    """Optimal Toeplitz MaxErr ``1 + sum_{k=1}^{n-1} f_k^2`` (cached prefix sums)."""
    global _f2_cumsum
    if n < 1:
        raise ValueError("n must be >= 1")
    with _f2_lock:
        if n > _f2_cumsum.size:
            size = max(n, 2 * _f2_cumsum.size)
            f = np.ones(size)
            f[1:] = np.cumprod(1.0 - 0.5 / np.arange(1, size))
            _f2_cumsum = np.cumsum(f * f)
        return float(_f2_cumsum[n - 1])


def mathias_ub(n: int) -> float:
    """Upper bound on the general (non-Toeplitz) optimum via the sine sum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(1, n + 1)
    return float(0.5 + np.sum(1.0 / np.sin(np.pi * (2 * j - 1) / (2 * n))) / (2 * n))


def matousek_lb(n: int) -> float:
    """Lower bound on any factorization's MaxErr (full sine-sum form)."""
    if n < 1:
        raise ValueError("n must be >= 1")
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


def bounds_csv(ns) -> str:
    lines = [BOUNDS_CSV_HEADER]
    for n in ns:
        b = bounds_table(int(n))
        lines.append(
            f"{int(n)},{b['opt_lt_toe']:.12g},{b['mathias_ub']:.12g},"
            f"{b['matousek_lb']:.12g},{b['bintree']:.12g}"
        )
    return "\n".join(lines) + "\n"


def mechanism_csv(fact: BltFactorization, ns) -> str:
    lines = [MECH_CSV_HEADER]
    for n in ns:
        rep = max_err(fact, int(n))
        b = rep.bounds
        lines.append(
            f"{int(n)},{b['opt_lt_toe']:.12g},{b['mathias_ub']:.12g},"
            f"{b['matousek_lb']:.12g},{b['bintree']:.12g},"
            f"{rep.max_err:.12g},{rep.max_err / b['opt_lt_toe']:.12g}"
        )
    return "\n".join(lines) + "\n"
