"""Streaming multiplication by a BLT matrix and seeded DP noise generation.

The per-step noise stream is C^{-1} z where C^{-1} is lower-triangular
Toeplitz with generator r.  In one-row form each output row is t*z_k + u^T S
with the d x m buffer updated as S <- diag(theta) S + v z_k;
``stream_init``/``stream_step`` are that form.  The noise streams run the
same recurrence L rows at a time, as the chunked scan of Dao & Gu 2024
("Transformers are SSMs", arXiv 2405.21060).  For a block Z of L rows,

    Y = T Z + P S,    S <- diag(theta^L) S + Q Z,

where T is the L x L lower-triangular Toeplitz matrix of r, P[i,k] =
theta_k^{i+1} and Q[k,j] = v_k theta_k^{L-1-j}.  Blocks are aligned to
absolute row indices and batched 1024 rows at a time, so every row costs a
few GEMM rows and the live state is still the d x m buffer.  Prefix-sum
noise (B z, with b(x) = r(x)/(1-x)) is the running sum of the per-step rows,
kept in one extra width-m buffer rather than folding a pole at 1 into the
factorization.

Noise values are reproducible by construction: a Philox counter RNG keyed by
the seed produces one uint64 per value in row-major order, mapped through the
inverse normal CDF.  The GEMMs run on column tiles of fixed width, aligned to
absolute column indices.  A column shard regenerates the full-width uniform
draws, computes the tiles that cover its columns and slices them, so a
sharded run is bitwise identical to slicing an unsharded run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .error_eval import sensitivity_of
from .params import BltFactorization, MatrixPowerForm, blt_coeffs, diagonal_power_form
from .seq import ltt_dense

RNG_NAME = "philox-u64-ndtri"

_BLOCK = 64  # L, rows per Toeplitz block
_TILE = 128  # W, columns per GEMM tile
_CHUNK_ROWS = 1024  # rows per batch of blocks; a multiple of _BLOCK
ENGINE = f"block-toeplitz-L{_BLOCK}-W{_TILE}"

PER_STEP = "per_step_noise"
PREFIX = "prefix_noise"


@dataclass
class StreamState:
    """Mutable state of a running BLT multiplication (single-owner)."""

    S: np.ndarray
    k: int
    form: MatrixPowerForm
    m: int
    diag: np.ndarray  # the diagonal of W


def stream_init(form: MatrixPowerForm, m: int) -> StreamState:
    """Zero d x m buffers of the one-row form of the streaming multiplier.

    ``form.W`` must be diagonal, as ``diagonal_power_form`` builds it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    diag = np.diagonal(form.W).copy()
    if np.any(form.W - np.diag(diag)):
        raise ValueError("W must be diagonal")
    return StreamState(S=np.zeros((form.dim, m)), k=0, form=form, m=m, diag=diag)


def stream_step(state: StreamState, z_row: np.ndarray) -> np.ndarray:
    """One row of the streaming multiplier: S <- diag(W) S + v z, out t*z + u^T S."""
    z = np.asarray(z_row, dtype=np.float64)
    if z.shape != (state.m,):
        raise ValueError(f"z_row must have shape ({state.m},)")
    f = state.form
    state.S *= state.diag[:, None]
    state.S += np.outer(f.v, z)
    state.k += 1
    return f.t * z + f.u @ state.S


@dataclass(frozen=True)
class NoiseStreamConfig:
    """Parameters of a reproducible DP noise stream; frozen, so the cached sigma holds."""

    factorization: BltFactorization
    n: int
    m: int
    seed: int
    zeta: float
    output_kind: str = PER_STEP

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not (math.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError(f"zeta must be a finite number >= 0, got {self.zeta!r}")
        if self.output_kind not in (PER_STEP, PREFIX):
            raise ValueError(f"output_kind must be '{PER_STEP}' or '{PREFIX}'")

    @cached_property
    def sigma(self) -> float:
        """Noise scale zeta * ||C||_{1->2}."""
        return float(self.zeta) * sensitivity_of(self.factorization, self.n)


def _uniform_chunk(bitgen, count: int) -> np.ndarray:
    """Open-interval uniforms, one per raw uint64, as (x>>11 + 0.5) * 2^-53."""
    raw = bitgen.random_raw(count)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of ``u``, elementwise.

    ``scipy.special`` is imported on the first call: only commands that draw
    noise need it, and importing it costs about 0.3 s.
    """
    from scipy.special import ndtri as inverse_normal_cdf

    return inverse_normal_cdf(u)


def lfilter(T, P, Q, decay, z, S):
    """Run the rows ``z`` of one column tile through the block recurrence.

    Block after block of L = ``T.shape[0]`` rows, Y = T Z + P S and then
    S <- decay * S + Q Z; the blocks are batched through one ``matmul`` per
    product.  ``S`` (d x width) is updated in place.  A trailing partial block
    uses ``T[:rem, :rem]`` and leaves ``S`` stale, so it must end the stream.

    The name is kept from the per-pole ``scipy.signal.lfilter`` pass this
    kernel replaced: ``perfbench/tracing.py`` times the filter stage under it.
    """
    L = T.shape[0]
    nb, rem = divmod(z.shape[0], L)
    y = np.empty_like(z)
    if nb:
        zb = z[: nb * L].reshape(nb, L, -1)
        yb = y[: nb * L].reshape(nb, L, -1)
        np.matmul(T, zb, out=yb)
        qz = Q @ zb
        starts = np.empty_like(qz)
        for b in range(nb):
            starts[b] = S
            S *= decay[:, None]
            S += qz[b]
        yb += P @ starts
    if rem:
        y[nb * L :] = T[:rem, :rem] @ z[nb * L :] + P[:rem] @ S
    return y


def _engine_rows(cfg: NoiseStreamConfig, columns):
    """Yield (start_row, rows) batches of ``_CHUNK_ROWS`` per-step rows of ``columns``."""
    r = cfg.factorization.rational()
    theta, v = r.theta, diagonal_power_form(r).v
    d = theta.size
    T = ltt_dense(blt_coeffs(r, _BLOCK))
    powers = theta ** np.arange(_BLOCK + 1)[:, None]  # powers[i, k] = theta_k^i
    P, decay = powers[1:], powers[_BLOCK]
    Q = (v * powers[_BLOCK - 1 :: -1]).T
    if columns is None:
        tiles, sel = range(0, cfg.m, _TILE), None
    else:
        cols = np.asarray(columns, dtype=np.intp)
        if cols.size and (cols.min() < 0 or cols.max() >= cfg.m):
            raise ValueError("column indices out of range")
        tiles = np.unique(cols // _TILE) * _TILE
        # position of each requested column among the computed tiles' columns
        sel = np.searchsorted(tiles, cols - cols % _TILE) * _TILE + cols % _TILE
    spans = [(c0, min(c0 + _TILE, cfg.m)) for c0 in tiles]
    width = sum(c1 - c0 for c0, c1 in spans)
    states = [np.zeros((d, c1 - c0)) for c0, c1 in spans]
    sigma = cfg.sigma
    bitgen = np.random.Philox(key=int(cfg.seed))
    for start in range(0, cfg.n, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, cfg.n - start)
        y = np.zeros((rows, width))
        if sigma != 0.0:
            u = _uniform_chunk(bitgen, rows * cfg.m).reshape(rows, cfg.m)
            at = 0
            for (c0, c1), S in zip(spans, states):
                z = ndtri(u[:, c0:c1]) * sigma
                y[:, at : at + c1 - c0] = lfilter(T, P, Q, decay, z, S)
                at += c1 - c0
        yield start, (y if sel is None else y[:, sel])


def _noise_chunks(cfg: NoiseStreamConfig, columns=None):
    """Yield the stream as (start_row, rows) batches of the block engine's
    ``_CHUNK_ROWS`` rows; prefix noise adds the running sum of the per-step rows."""
    prefix = 0.0
    for start, y in _engine_rows(cfg, columns):
        if cfg.output_kind == PREFIX:
            y[0] += prefix
            np.cumsum(y, axis=0, out=y)
            prefix = y[-1].copy()
        yield start, y


def noise_stream(cfg: NoiseStreamConfig, columns=None):
    """Iterate the n noise rows of the configured stream.

    ``columns`` restricts output to those columns (a shard); the values are
    bitwise identical to the same columns of the full stream.
    """
    for _, block in _noise_chunks(cfg, columns=columns):
        yield from block


def write_noise_csv(cfg: NoiseStreamConfig, path) -> None:
    """Write the stream as CSV with header step,dim0,...,dim{m-1}."""
    header = "step," + ",".join(f"dim{j}" for j in range(cfg.m))
    line = "%d," + ",".join(["%.17g"] * cfg.m) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start, block in _noise_chunks(cfg):
            for i, row in enumerate(block.tolist(), start):
                fh.write(line % (i, *row))


def write_noise_f64(cfg: NoiseStreamConfig, path, factorization_path: str = "") -> str:
    """Write raw little-endian float64 rows plus a JSON sidecar; returns sidecar path."""
    with open(path, "wb") as fh:
        for _, block in _noise_chunks(cfg):
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
    sidecar = str(path) + ".json"
    meta = {
        "n": cfg.n,
        "m": cfg.m,
        "zeta": cfg.zeta,
        "sigma": cfg.sigma,
        "seed": int(cfg.seed),
        "rng": RNG_NAME,
        "engine": ENGINE,
        "factorization_path": str(factorization_path),
        "output_kind": cfg.output_kind,
    }
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
