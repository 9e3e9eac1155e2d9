"""Kronecker-recursive factorizations of the all-ones lower-triangular matrix.

A factor pair (B1, C1) for n1 steps combines with a pair (B2, C2) for n2
steps into a pair for n1*n2 steps:

    comb(B1, B2) = [ I (x) B2  |  (S B1) (x) 1 ]        (block columns)
    comc(C1, C2) = [ I (x) C2  ;  C1 (x) 1^T ]          (block rows)

where S is the down-shift matrix.  Iterating with the same base gives
horizon n1^l with squared column norms adding exactly (sensitivity grows as
sqrt(l)) and row norms bounded the same way.  The streaming form runs one
lazily-stepped base streamer for the outer factor plus one fully-nested inner
streamer at a time, so live state is l times the base state plus a carried
m-vector.
"""

from __future__ import annotations

import math

import numpy as np

from .params import BltFactorization, diagonal_power_form
from .streaming import stream_init, stream_step

_DENSE_ROW_CAP = 1 << 12


def _shift(n: int) -> np.ndarray:
    S = np.zeros((n, n))
    S[np.arange(1, n), np.arange(n - 1)] = 1.0
    return S


def comb_dense(B1, B2) -> np.ndarray:
    """Dense combined B factor [I (x) B2 | (S B1) (x) 1] (test-scale only)."""
    B1 = np.atleast_2d(np.asarray(B1, dtype=np.float64))
    B2 = np.atleast_2d(np.asarray(B2, dtype=np.float64))
    n1 = B1.shape[0]
    n2 = B2.shape[0]
    if n1 * n2 > _DENSE_ROW_CAP:
        raise ValueError(f"combined row count {n1 * n2} exceeds cap {_DENSE_ROW_CAP}")
    left = np.kron(np.eye(n1), B2)
    right = np.kron(_shift(n1) @ B1, np.ones((n2, 1)))
    return np.hstack([left, right])


def comc_dense(C1, C2) -> np.ndarray:
    """Dense combined C factor [I (x) C2 ; C1 (x) 1^T] (test-scale only)."""
    C1 = np.atleast_2d(np.asarray(C1, dtype=np.float64))
    C2 = np.atleast_2d(np.asarray(C2, dtype=np.float64))
    n1 = C1.shape[1]
    rows = n1 * C2.shape[0] + C1.shape[0]
    if rows > _DENSE_ROW_CAP:
        raise ValueError(f"combined row count {rows} exceeds cap {_DENSE_ROW_CAP}")
    top = np.kron(np.eye(n1), C2)
    bottom = np.kron(C1, np.ones((1, C2.shape[1])))
    return np.vstack([top, bottom])


def recursive_norms(base_sens: float, base_rownorm: float, levels: int):
    """(sqrt(l) * sensitivity, sqrt(l) * row norm); the latter is an upper
    bound because the shift matrix drops the base factor's last row."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    root = math.sqrt(levels)
    return root * base_sens, root * base_rownorm


def _next_noise(noise_source, m: int) -> np.ndarray:
    try:
        row = next(noise_source)
    except StopIteration:
        raise RuntimeError("noise source exhausted") from None
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (m,):
        raise ValueError(f"noise rows must have shape ({m},)")
    return row


def recursive_stream(base_factory, n1: int, levels: int, m: int, noise_source):
    """Iterate the n1^levels rows of B_levels @ Z, drawing Z on demand.

    ``base_factory()`` must return a fresh step callable mapping one consumed
    noise row to one output row of the base factor (called exactly n1 times
    per instance).  Noise order is fixed: each block's inner recursion draws
    first, then the outer carry streamer draws one row — including after the
    final block, where the output is discarded (the shift matrix drops it).
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if n1 < 1:
        raise ValueError("n1 must be >= 1")
    noise_source = iter(noise_source)

    def run(level):
        if level == 1:
            step = base_factory()
            for _ in range(n1):
                yield step(_next_noise(noise_source, m))
            return
        carry_step = base_factory()
        zp = np.zeros(m)
        for _ in range(n1):
            for row in run(level - 1):
                yield row + zp
            zp = carry_step(_next_noise(noise_source, m))

    return run(levels)


def blt_base_factory(fact: BltFactorization, m: int):
    """Factory of fresh B-side streamers (prefix-summed r stream) for a BLT base."""
    form = diagonal_power_form(fact.rational())

    def factory():
        state = stream_init(form, m)
        acc = np.zeros(m)

        def step(z_row):
            nonlocal acc
            acc = acc + stream_step(state, z_row)
            return acc.copy()

        return step

    return factory


def theorem2_params(n: int):
    """Horizon-robust parameter choice (n1, d, levels) for a recursive RA base.

    Base size n1 ~ ln(n) (clamped to >= 5), base degree sufficient for
    horizon n1, and enough levels to cover n: levels = ceil(ln n / ln n1).
    """
    if n < 25:
        raise ValueError("n must be >= 25")
    ln_n = math.log(n)
    n1 = max(5, math.ceil(ln_n))
    d = math.ceil(2.0 + ((12.0 + 4.0 * math.log(n1)) / math.pi) ** 2)
    levels = math.ceil(ln_n / math.log(n1) - 1e-12)
    return n1, d, levels
