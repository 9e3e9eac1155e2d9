"""Coefficient-sequence algebra for lower-triangular Toeplitz (LTT) operators.

A streaming linear operator is identified with the generating function
``f(x) = sum_k f_k x^k`` of its Toeplitz coefficients; multiplying generating
functions multiplies the operators.  This module holds the coefficient
container, the square-root generator coefficients, series multiplication /
inversion, and the dense O(n^2 m) reference oracle used by tests.

Everything here is float64; the closed-form evaluators elsewhere depend on
that (single precision is not enough past n ~ 1e6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

# Dense/reference routines refuse to run past these sizes; they exist for
# testing, not production streaming.
DENSE_CAP = 1 << 16
MATRIX_CAP = 1 << 12


@dataclass(frozen=True)
class ToeplitzSeq:
    """The first ``n`` Toeplitz coefficients ``c_0 .. c_{n-1}`` of an LTT operator."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coeffs contain NaN/Inf")
        object.__setattr__(self, "coeffs", arr)

    @property
    def n(self) -> int:
        return self.coeffs.size

    def __len__(self) -> int:
        return self.coeffs.size


def optimal_coeffs(n: int) -> ToeplitzSeq:
    """First ``n`` coefficients of ``1/sqrt(1-x)``, the optimal Toeplitz generator.

    Uses the multiplicative recurrence ``f_k = f_{k-1} * (1 - 1/(2k))`` with
    ``f_0 = 1`` rather than the binomial closed form ``4^-k * C(2k, k)``,
    which overflows long before useful ``n``.

    Parameters
    ----------
    n : int
        Number of coefficients, ``n >= 1``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = np.ones(n)
    if n > 1:
        f[1:] = np.cumprod(1.0 - 0.5 / np.arange(1, n))
    return ToeplitzSeq(f)


def _as_seq(a) -> ToeplitzSeq:
    return a if isinstance(a, ToeplitzSeq) else ToeplitzSeq(a)


def cauchy_product(a, b) -> ToeplitzSeq:
    """Truncated product ``h_k = sum_{i<=k} a_i b_{k-i}`` of two coefficient sequences.

    Equals the first column of ``LTT(a) @ LTT(b)``.
    """
    a, b = _as_seq(a), _as_seq(b)
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} != {b.n}")
    return ToeplitzSeq(np.convolve(a.coeffs, b.coeffs)[: a.n])


def series_reciprocal(a: ToeplitzSeq) -> ToeplitzSeq:
    """Coefficients of ``1/a(x)`` by long division.

    ``r_0 = 1/a_0`` and ``r_k = -(1/a_0) * sum_{j=1..k} a_j r_{k-j}``; requires
    ``a_0 != 0``.
    """
    c = _as_seq(a).coeffs
    if c[0] == 0.0:
        raise ValueError("constant term is zero; series has no reciprocal")
    n = c.size
    r = np.zeros(n)
    r[0] = 1.0 / c[0]
    for k in range(1, n):
        r[k] = -np.dot(c[1 : k + 1], r[k - 1 :: -1]) / c[0]
    return ToeplitzSeq(r)


def ltt_apply_dense(a, Z: np.ndarray) -> np.ndarray:
    """Reference ``LTT(a) @ Z`` for an ``n x m`` input block, O(n^2 m).

    Row ``k`` of the output is ``sum_{j<=k} a_{k-j} Z_j``.
    """
    a = _as_seq(a)
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("Z must be a 2-d array")
    if Z.shape[0] != a.n:
        raise ValueError(f"row count {Z.shape[0]} does not match sequence length {a.n}")
    if a.n > DENSE_CAP:
        raise ValueError(f"dense apply capped at n = {DENSE_CAP}")
    out = np.empty_like(Z)
    for j in range(Z.shape[1]):
        out[:, j] = np.convolve(a.coeffs, Z[:, j])[: a.n]
    return out


def ltt_dense(a) -> np.ndarray:
    """Materialize the ``n x n`` lower-triangular Toeplitz matrix of ``a``."""
    a = _as_seq(a)
    if a.n > MATRIX_CAP:
        raise ValueError(f"dense materialization capped at n = {MATRIX_CAP}")
    first_row = np.zeros(a.n)
    first_row[0] = a.coeffs[0]
    return toeplitz(a.coeffs, first_row)
