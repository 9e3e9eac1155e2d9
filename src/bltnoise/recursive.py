"""Kronecker-recursive factorizations of the all-ones lower-triangular matrix.

A factor pair (B1, C1) for n1 steps combines with a pair (B2, C2) for n2
steps into a pair for n1*n2 steps:

    comb(B1, B2) = [ I (x) B2  |  (S B1) (x) 1 ]        (block columns)
    comc(C1, C2) = [ I (x) C2  ;  C1 (x) 1^T ]          (block rows)

where S is the down-shift matrix.  Iterating with the same base gives
horizon n1^l with squared column norms adding exactly (sensitivity grows as
sqrt(l)) and row norms bounded the same way.  The streaming form is the
recursion that comb defines: a level-l block runs n1 level-(l-1) blocks and
draws one carry row after each, whose B1 output offsets the blocks after it.
The bottom lb levels are one batched block, as many as fit the noise engine's
``_TILE_VALUES`` budget of n1^lb x m values: it draws its noise in one call
and computes its rows by reshapes and stacked n1 x n1 products.  Live state is
the n1 x n1 base, (levels - lb) n1 carry rows of width m and one block.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .params import BltFactorization, _check_horizon, _is_int, blt_coeffs
from .seq import MATRIX_CAP, ltt_dense
from .streaming import _TILE_VALUES


def comb_dense(B1, B2) -> np.ndarray:
    """Dense combined B factor [I (x) B2 | (S B1) (x) 1] (test-scale only)."""
    B1 = np.atleast_2d(np.asarray(B1, dtype=np.float64))
    B2 = np.atleast_2d(np.asarray(B2, dtype=np.float64))
    n1 = B1.shape[0]
    n2 = B2.shape[0]
    if n1 * n2 > MATRIX_CAP:
        raise ValueError(f"combined row count {n1 * n2} exceeds cap {MATRIX_CAP}")
    left = np.kron(np.eye(n1), B2)
    right = np.kron(np.eye(n1, k=-1) @ B1, np.ones((n2, 1)))  # S B1
    return np.hstack([left, right])


def comc_dense(C1, C2) -> np.ndarray:
    """Dense combined C factor [I (x) C2 ; C1 (x) 1^T] (test-scale only)."""
    C1 = np.atleast_2d(np.asarray(C1, dtype=np.float64))
    C2 = np.atleast_2d(np.asarray(C2, dtype=np.float64))
    n1 = C1.shape[1]
    rows = n1 * C2.shape[0] + C1.shape[0]
    if rows > MATRIX_CAP:
        raise ValueError(f"combined row count {rows} exceeds cap {MATRIX_CAP}")
    top = np.kron(np.eye(n1), C2)
    bottom = np.kron(C1, np.ones((1, C2.shape[1])))
    return np.vstack([top, bottom])


def recursive_norms(base_sens: float, base_rownorm: float, levels: int):
    """(sqrt(l) * sensitivity, sqrt(l) * row norm); the latter is an upper
    bound because the shift matrix drops the base factor's last row."""
    _check_level_count(levels)
    root = math.sqrt(levels)
    return root * base_sens, root * base_rownorm


def _draws(n1: int, level: int) -> int:
    """Noise rows a level block reads, its trailing carries included:
    cnt(1) = n1 and cnt(l) = n1 * (cnt(l - 1) + 1), so cnt(l) = n1 + ... + n1^l."""
    return n1 * (n1**level - 1) // (n1 - 1) if n1 > 1 else level


def _check_level_count(levels) -> None:
    """``levels`` in [1, 63]: the batched block adds an array axis a level, and
    numpy stops at 64."""
    if not (_is_int(levels) and 1 <= levels <= 63):
        raise ValueError(f"levels must be an integer in [1, 63], got {levels!r}")


def _check_levels(n1: int, levels) -> int:
    """The one rule for a composition's size: ``_check_level_count``, and the
    noise rows it draws, at least n1**levels, a horizon.  Returns that count."""
    _check_level_count(levels)
    draws = _draws(n1, levels)
    try:
        _check_horizon(draws)
    except ValueError:
        raise ValueError(f"levels = {levels} of a {n1}-step base draw {draws} rows, past 2**63 - 1") from None
    return draws


def _block_level(n1: int, levels: int, m: int) -> int:
    """The level computed as one batched block: the highest, up to ``levels``,
    whose n1**level x m output holds at most ``_TILE_VALUES`` values, and at
    least 1."""
    level = 1
    while level < levels and n1 ** (level + 1) * m <= _TILE_VALUES:
        level += 1
    return level


def _block_apply(B1, z, level, out):
    """Write B_level @ z into ``out`` (..., n1**level, m), for z (..., rows, m)
    in draw order; leading axes are a batch of blocks.

    A block's rows split into n1 groups of (inner block, carry row); group k
    of the output is the inner result plus row k - 1 of B1 @ carries.  z holds
    every row of each block, or all but the level - 1 trailing carries, which
    no output row uses; then only the last group is short, and it recurses on
    its own.
    """
    n1 = B1.shape[0]
    if level == 1:
        np.matmul(B1, z, out=out)
        return
    inner = _draws(n1, level - 1)
    lead, m = z.shape[:-2], z.shape[-1]
    full = z.shape[-2] // (inner + 1)  # n1, or n1 - 1 without the trailing carries
    groups = z[..., : full * (inner + 1), :].reshape(*lead, full, inner + 1, m)
    grouped = out.reshape(*lead, n1, n1 ** (level - 1), m)  # a view: only the row axis splits
    _block_apply(B1, groups[..., :inner, :], level - 1, grouped[..., :full, :, :])
    if full < n1:
        _block_apply(B1, z[..., full * (inner + 1) :, :], level - 1, grouped[..., full, :, :])
    grouped[..., 1:, :, :] += (B1[:-1, :-1] @ groups[..., : n1 - 1, inner, :])[..., None, :]


class _ArraySource:
    """A 2-D noise array read as consecutive row slices."""

    def __init__(self, z):
        self.z, self.pos = z, 0


def _next_noise(noise_source, rows: int, m: int) -> np.ndarray:
    """The next ``rows`` rows of ``noise_source`` as a rows x m array: a view
    of an array source, or the rows of an iterator, each checked for shape."""
    if isinstance(noise_source, _ArraySource):
        start = noise_source.pos
        drawn = noise_source.z[start : start + rows]
        noise_source.pos = start + len(drawn)
    else:
        drawn = [np.asarray(row, dtype=np.float64) for row in islice(noise_source, rows)]
        if any(row.shape != (m,) for row in drawn):
            raise ValueError(f"noise rows must have shape ({m},)")
    if len(drawn) < rows:
        raise RuntimeError("noise source exhausted")
    return np.asarray(drawn)


def recursive_stream(base_factory, n1: int, levels: int, m: int, noise_source):
    """Iterate the n1^levels rows of B_levels @ Z, drawing Z on demand.

    ``base_factory(n1)`` returns the column ``b`` of the base factor B1, which
    is n1 x n1 lower-triangular Toeplitz.  ``noise_source`` is a 2-D array of
    m columns, read by slices, or any iterable of (m,) rows.  The rows follow
    ``comb``.  The bottom ``lb`` levels form one block, the largest whose
    n1^lb x m output holds at most ``_TILE_VALUES`` values (at least one
    level): it draws its rows but the lb - 1 trailing carries in one call,
    computes them by batched products and yields them, and only then draws
    those carries, whose outputs the shift matrix drops.  A level-l block
    above it runs n1 level-(l-1) blocks, draws one carry row after each, and
    passes ``offset + b[k::-1] @ carries[:k+1]`` to the next.  Live state is
    the base, (levels - lb) n1 carry rows and one block; each block is a fresh
    array, since the rows yielded are views into it.
    """
    for name, value in (("n1", n1), ("m", m)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    n1, m = int(n1), int(m)  # Python ints, so that the draw count cannot wrap
    _check_levels(n1, levels)
    if isinstance(noise_source, np.ndarray):
        if noise_source.ndim != 2 or noise_source.shape[1] != m:
            raise ValueError(f"noise array must have shape (rows, {m}), got {noise_source.shape}")
        noise_source = _ArraySource(np.asarray(noise_source, dtype=np.float64))
    else:
        noise_source = iter(noise_source)
    lb = _block_level(n1, levels, m)
    head = _draws(n1, lb) - (lb - 1)

    def rows():
        b = np.asarray(base_factory(n1), dtype=np.float64)
        if b.shape != (n1,) or not np.isfinite(b).all():
            raise ValueError(f"base column must be {n1} finite values, got shape {b.shape}")
        B1 = ltt_dense(b)

        def block(level, offset):
            if level == lb:
                out = np.empty((n1**lb, m))
                _block_apply(B1, _next_noise(noise_source, head, m), lb, out)
                out += offset
                yield out
                if lb > 1:  # the trailing carries, drawn once the rows are out
                    _next_noise(noise_source, lb - 1, m)
                return
            carries = np.empty((n1, m))
            inner = offset
            for k in range(n1):
                yield from block(level - 1, inner)
                carries[k] = _next_noise(noise_source, 1, m)
                inner = offset + b[k::-1] @ carries[: k + 1]

        for out in block(levels, np.zeros(m)):
            yield from out

    return rows()


def blt_base_factory(fact: BltFactorization, m: int):
    """``n1 -> cumsum(r)[:n1]``, the base column of a BLT factorization for
    ``recursive_stream``; ``m`` is the stream width, which the column ignores."""
    r = fact.rational()
    return lambda n1: np.cumsum(blt_coeffs(r, n1).coeffs)


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
