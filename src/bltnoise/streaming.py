"""Streaming multiplication by a BLT matrix and seeded DP noise generation.

The per-step noise stream is C^{-1} z where C^{-1} is lower-triangular
Toeplitz with generator r, so each output row is t*z_k + u^T S with the d x m
buffer updated as S <- diag(theta) S + v z_k.  Prefix-sum noise (B z, with
b(x) = r(x)/(1-x)) is the running sum of the per-step rows, kept in one extra
width-m buffer rather than folding a pole at 1 into the factorization.  The
noise streams run this multiplier in chunks; ``stream_init``/``stream_step``
are its public one-row form.

Noise values are reproducible by construction: a Philox counter RNG keyed by
the seed produces one uint64 per value in row-major order, mapped through the
inverse normal CDF.  Column shards regenerate the full-width uniform draws
and slice their columns, so a sharded run is bitwise identical to slicing an
unsharded run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri

from .error_eval import sensitivity_of
from .params import BltFactorization, MatrixPowerForm, diagonal_power_form

RNG_NAME = "philox-u64-ndtri"

_CHUNK_ROWS = 1024

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
        if self.zeta < 0:
            raise ValueError("zeta must be >= 0")
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


def _noise_chunks(cfg: NoiseStreamConfig, columns=None, chunk_rows: int = _CHUNK_ROWS):
    """Yield successive (start_row, rows) blocks of the noise stream.

    The state recurrence runs per pole as a first-order IIR filter with
    carried initial conditions, so each block costs O(d * rows * m) in
    vectorized passes.
    """
    r = cfg.factorization.rational()
    form = diagonal_power_form(r)
    theta, v, t = r.theta, form.v, form.t
    d = theta.size
    if columns is None:
        cols = None
        width = cfg.m
    else:
        cols = np.asarray(columns, dtype=np.intp)
        if cols.size and (cols.min() < 0 or cols.max() >= cfg.m):
            raise ValueError("column indices out of range")
        width = cols.size
    sigma = cfg.sigma
    bitgen = np.random.Philox(key=int(cfg.seed))
    zi = np.zeros((d, 1, width))
    prefix = np.zeros(width)
    done = 0
    while done < cfg.n:
        rows = min(chunk_rows, cfg.n - done)
        if sigma == 0.0:
            z = np.zeros((rows, width))
        else:
            u = _uniform_chunk(bitgen, rows * cfg.m).reshape(rows, cfg.m)
            z = ndtri(u) * sigma
            if cols is not None:
                z = z[:, cols]
        y = t * z
        for i in range(d):
            si, zi[i] = lfilter(
                [v[i]], [1.0, -theta[i]], z, axis=0, zi=zi[i]
            )
            y += si
        if cfg.output_kind == PREFIX:
            y = np.cumsum(y, axis=0)
            y += prefix
            prefix = y[-1].copy()
        yield done, y
        done += rows


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
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start, block in _noise_chunks(cfg):
            for i, row in enumerate(block):
                fh.write(str(start + i) + "," + ",".join(f"{x:.17g}" for x in row) + "\n")


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
        "factorization_path": str(factorization_path),
        "output_kind": cfg.output_kind,
    }
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
