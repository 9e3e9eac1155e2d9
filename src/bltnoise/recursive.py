"""Kronecker-recursive factorizations of the all-ones lower-triangular matrix.

A factor pair (B1, C1) for n1 steps combines with a pair (B2, C2) for n2
steps into a pair for n1*n2 steps:

    comb(B1, B2) = [ I (x) B2  |  (S B1) (x) 1 ]        (block columns)
    comc(C1, C2) = [ I (x) C2  ;  C1 (x) 1^T ]          (block rows)

where S is the down-shift matrix.  Iterating with the same base gives
horizon n1^l with squared column norms adding exactly (sensitivity grows as
sqrt(l)).  The streaming form is the recursion that comb defines: a level-l
block runs n1 level-(l-1) blocks and draws one carry row after each, whose B1
output offsets the blocks after it.  The bottom lb levels are one batched
block, as many as fit the noise engine's ``_TILE_VALUES`` budget of n1^lb x m
values: it draws its noise in one call and computes its rows by reshapes and
stacked n1 x n1 products.  Live state is the n1 x n1 base, (levels - lb) n1
carry rows of width m and one block.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .error_eval import rownorm_of, sensitivity_of
from .params import _N_MAX, BltFactorization, _int_arg, blt_coeffs
from .rational import _degree_a
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


def recursive_norms(fact: BltFactorization, n1: int, levels: int):
    """Exact (sensitivity, row norm) of ``levels`` compositions of ``fact``'s
    n1-step base, the factors ``recursive_stream(blt_base_factory(fact, m),
    n1, levels, m, Z)`` streams.  Squared column norms add, so sensitivity
    is sqrt(l) times the base's.  A row of comb(B1, B) is a row of B next to
    row k - 1 of B1, or zeros at k = 0, and B1's row norms grow with the row,
    so each level above the first adds the squared row norm of n1 - 1 steps."""
    _check_levels(n1, levels)
    row_sq = rownorm_of(fact, n1) ** 2 + (levels - 1) * rownorm_of(fact, n1 - 1) ** 2
    return math.sqrt(levels) * sensitivity_of(fact, n1), math.sqrt(row_sq)


def _draws(n1: int, level: int) -> int:
    """Noise rows a level block reads, its trailing carries included:
    cnt(1) = n1 and cnt(l) = n1 * (cnt(l - 1) + 1), so cnt(l) = n1 + ... + n1^l."""
    return n1 * (n1**level - 1) // (n1 - 1) if n1 > 1 else level


def _check_levels(n1, levels) -> int:
    """The one rule for a composition's size, checked where
    ``recursive_norms`` and ``recursive_stream`` are called: ``n1`` and
    ``levels`` pass ``_int_arg``, ``levels`` up to 63 (the batched block adds
    an array axis a level, and numpy stops at 64), and the noise rows the
    composition draws, at least n1**levels, are at most 2**63 - 1, the
    largest horizon.  Returns that count."""
    n1 = _int_arg("n1", n1)
    levels = _int_arg("levels", levels, most=63)
    draws = _draws(n1, levels)
    if draws > _N_MAX:
        raise ValueError(f"levels = {levels} of a {n1}-step base draw {draws} rows, past 2**63 - 1")
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
    _check_levels(n1, levels)
    n1, m = int(n1), _int_arg("m", m)
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
    horizon n1, and the fewest levels that cover n, the least with
    n1**levels >= n.  Where that composition draws past 2**63 - 1 noise rows,
    n1 grows to the least that fits with fewer levels, down to two; n above
    3037000499**2 (about 2**62.99999999) fits none and is refused, as
    ``recursive_stream`` and ``blt recursive`` would refuse it.
    """
    n = _int_arg("n", n, least=25)
    n1, levels = max(5, math.ceil(math.log(n))), 1
    while n1**levels < n:
        levels += 1
    while levels > 2 and _draws(n1, levels) > _N_MAX:
        levels -= 1
        n1 = max(n1, round(n ** (1.0 / levels)) - 1)
        while n1**levels < n:
            n1 += 1
    try:
        _check_levels(n1, levels)
    except ValueError as exc:
        raise ValueError(f"n = {n}: {exc}") from None
    return n1, _degree_a(n1), levels
