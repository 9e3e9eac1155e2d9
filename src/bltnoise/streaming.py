"""Streaming multiplication by a BLT matrix and seeded DP noise generation.

The per-step noise stream is C^{-1} z where C^{-1} is lower-triangular
Toeplitz with generator r = 1 + x * sum_k omega_k / (1 - theta_k x).  With
v = omega/theta, row k is z_k + theta^T S before the d x m buffer steps as
S <- diag(theta) S + v z_k.  ``stream_init``/``stream_step`` run that one-row
form, the reference ``blt verify`` checks every streamed row against.  The
noise streams run the same recurrence L rows at a time, as the chunked scan
of Dao & Gu 2024 ("Transformers are SSMs", arXiv 2405.21060).  For a block Z
of L rows,

    Y = T Z + P S,    S <- diag(theta^L) S + Q Z,

where T is the L x L lower-triangular Toeplitz matrix of r, P[i,k] =
theta_k^{i+1} and Q[k,j] = v_k theta_k^{L-1-j}.  Blocks are aligned to
absolute row indices and batched about ``_TILE_VALUES`` values per column
tile at a time (32768 rows at m = 1, 256 at m >= 128), so every row costs a
few GEMM rows.  One generator, ``_noise_chunks``, runs the stream; its live
state is one d x m array S, each column tile filtered against its own columns
of S, plus two batches.  Prefix-sum noise (B z, with b(x) = r(x)/(1-x)) is
the running sum of the per-step rows, kept in one extra width-m buffer rather
than folding a pole at 1 into the factorization.

Noise values are reproducible by construction: a Philox counter RNG keyed by
the seed produces one uint64 per value in row-major order, mapped through the
inverse normal CDF ``ndtri`` (AS 241, in numpy, so the package needs no
scipy).  The GEMMs run on column tiles of fixed width, aligned to
absolute column indices.  A column shard regenerates the full-width uniform
draws, computes the tiles that cover its columns against a state as wide
as those tiles and slices them, so a sharded run is bitwise identical to
slicing an unsharded run.

Two threads share each stream, and two normals buffers allocated once per
stream take turns between them.  A worker thread draws the next batch's
normals (Philox, ``ndtri``, times sigma) into one buffer while the calling
thread owns the other: the kernel and the prefix stage overwrite the current
batch's normals in place and the consumer takes the buffer.  A batch is valid
until the next one is requested, when the worker starts drawing into its
buffer; ``noise_stream`` copies each batch, so the rows it yields stay valid.
One draw is in flight at a time and only the worker touches the generator,
in batch order, so the values do not depend on scheduling.  The package
loads numpy's BLAS with one thread (see ``bltnoise/__init__.py``), so the
kernel's GEMMs run on the calling thread and no idle BLAS pool spins beside
the worker; a pool the caller asks for leaves the values as they are.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .error_eval import sensitivity_of
from .params import BltFactorization, RationalBlt, _check_horizon, _is_int, blt_coeffs
from .seq import ltt_dense

RNG_NAME = "philox-u64-as241"

_BLOCK = 64  # L, rows per Toeplitz block
_TILE = 128  # W, columns per GEMM tile
_TILE_VALUES = 32768  # values per column tile in one batch of blocks
ENGINE = f"block-toeplitz-L{_BLOCK}-W{_TILE}"

PER_STEP = "per_step_noise"
PREFIX = "prefix_noise"


@dataclass
class StreamState:
    """Mutable state of the one-row form (single-owner): the d x m buffer
    and the generator."""

    S: np.ndarray
    r: RationalBlt


def stream_init(r: RationalBlt, m: int) -> StreamState:
    """Zero d x m buffer of the one-row form of the streaming multiplier."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return StreamState(S=np.zeros((r.degree, m)), r=r)


def stream_step(state: StreamState, z_row: np.ndarray) -> np.ndarray:
    """One row of the streaming multiplier: out z + theta^T S, then
    S <- diag(theta) S + (omega/theta) z."""
    z = np.asarray(z_row, dtype=np.float64)
    if z.shape != state.S.shape[1:]:
        raise ValueError(f"z_row must have shape {state.S.shape[1:]}")
    r = state.r
    out = z + r.theta @ state.S
    state.S *= r.theta[:, None]
    state.S += np.outer(r.omega / r.theta, z)
    return out


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
        for name in ("n", "m", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        _check_horizon(self.n)
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        real = _is_int(self.zeta) or isinstance(self.zeta, (float, np.floating))
        if not (real and math.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError(f"zeta must be a finite number >= 0, got {self.zeta!r}")
        if self.output_kind not in (PER_STEP, PREFIX):
            raise ValueError(f"output_kind must be '{PER_STEP}' or '{PREFIX}'")

    @cached_property
    def sigma(self) -> float:
        """Noise scale zeta * ||C||_{1->2}."""
        return float(self.zeta) * sensitivity_of(self.factorization, self.n)


def _uniform_chunk(bitgen, count: int, out=None) -> np.ndarray:
    """Uniforms (x>>11 + 0.5) * 2^-53, one per raw uint64, in (0, 1], written
    to ``out`` (``count`` float64 values) when given.

    The top raw values round to exactly 1.0 (one draw in 2^53); ``ndtri``
    maps that to a finite value.
    """
    raw = bitgen.random_raw(count)
    raw >>= np.uint64(11)
    if out is None:
        out = np.empty(count)
    np.copyto(out, raw, casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    return out


# AS 241 (Wichura 1988, "The percentage points of the normal distribution",
# Appl. Stat. 37:477), PPND16: three rational minimax approximations R = P/Q,
# good to about 1e-16 relative.  Each table is the numerator and the
# denominator coefficients from the constant term up.
_CENTRAL = (  # |u - 1/2| <= 0.425: (u - 1/2) * R(0.180625 - (u - 1/2)^2)
    [3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3],
    [1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3],
)
_INNER = (  # s = sqrt(-log(min(u, 1 - u))) <= 5: R(s - 1.6)
    [1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4],
    [1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9],
)
_OUTER = (  # s > 5: R(s - 5)
    [6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7],
    [1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15],
)
_NDTRI_CHUNK = 32768  # values per pass; the temporaries stay in a core's L2
_P_MIN = 2.0**-54  # the smallest uniform, so u = 1 maps to -ndtri(2^-54)


def _horner(coefs, t, out):
    """Write the polynomial with ``coefs``, constant term first, at ``t`` to ``out``."""
    np.multiply(t, coefs[-1], out=out)
    out += coefs[-2]
    for c in coefs[-3::-1]:
        out *= t
        out += c
    return out


def _ratio(table, t):
    """P(t) / Q(t) of one table."""
    num, den = (_horner(coefs, t, np.empty_like(t)) for coefs in table)
    num /= den
    return num


def ndtri(u: np.ndarray, out=None) -> np.ndarray:
    """Inverse normal CDF of ``u`` in (0, 1], elementwise, by AS 241.

    A tail probability min(u, 1 - u) below 2^-54 is read as 2^-54, so u = 1
    gives +8.29, the mirror of the smallest uniform, not inf.
    ``ndtri(1 - u) == -ndtri(u)`` wherever 1 - u is exact.

    The result is written to ``out`` and returned when it is given: a
    C-contiguous float64 array of ``u``'s size that does not overlap ``u``;
    it keeps its own shape.

    The central region runs in flat chunks of about ``_NDTRI_CHUNK`` values
    through two reused buffers; the tails of all chunks, about 15% of the
    values, then run as one batch.
    """
    x = np.ascontiguousarray(u, dtype=np.float64).reshape(-1)
    if out is None:
        out = np.empty(np.shape(u))
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.size == x.size
    ):
        raise ValueError("out must be a C-contiguous float64 array of u's size")
    result, out = out, out.reshape(-1)
    chunks = max(1, round(x.size / _NDTRI_CHUNK))
    step = max(1, -(-x.size // chunks))
    q_buf, r_buf = np.empty((2, min(step, x.size)))
    tails = [np.empty(0, dtype=np.intp)]
    for i in range(0, x.size, step):
        o = out[i : i + step]
        q = np.subtract(x[i : i + step], 0.5, out=q_buf[: o.size])
        r = np.multiply(q, q, out=r_buf[: o.size])
        np.subtract(0.180625, r, out=r)
        tail = (r < 0.0).nonzero()[0]  # |q| > 0.425
        tail += i
        tails.append(tail)
        _horner(_CENTRAL[0], r, o)
        o *= q
        o /= _horner(_CENTRAL[1], r, q)
    tail = np.concatenate(tails)
    if tail.size:
        p = x.take(tail)
        s = np.minimum(p, 1.0 - p)
        np.maximum(s, _P_MIN, out=s)
        np.log(s, out=s)
        np.negative(s, out=s)
        np.sqrt(s, out=s)
        z = _ratio(_INNER, s - 1.6)
        far = (s > 5.0).nonzero()[0]  # min(u, 1 - u) < e^-25
        if far.size:
            z[far] = _ratio(_OUTER, s[far] - 5.0)
        p -= 0.5
        np.copysign(z, p, out=z)
        out.put(tail, z)
    return result


def lfilter(T, P, Q, decay, z, S):
    """Run the rows ``z`` of one column tile through the block recurrence, in place.

    Block after block of L = ``T.shape[0]`` rows, Y = T Z + P S and then
    S <- decay * S + Q Z; the blocks are batched through one ``matmul`` per
    product.  ``S`` (d x width) is updated in place.  A trailing partial block
    uses ``T[:rem, :rem]`` and leaves ``S`` stale, so it must end the stream.
    Y is written over ``z``, which may be a column slice of a wider batch:
    both products of Z are formed before the first store.

    The name is kept from the per-pole ``scipy.signal.lfilter`` pass this
    kernel replaced: ``perfbench/tracing.py`` times the filter stage under it.
    """
    L = T.shape[0]
    nb, rem = divmod(z.shape[0], L)
    if nb:
        zb = z[: nb * L].reshape(nb, L, -1)
        qz = Q @ zb
        y = T @ zb
        starts = np.empty_like(qz)
        for b in range(nb):
            starts[b] = S
            S *= decay[:, None]
            S += qz[b]
        y += P @ starts
        zb[...] = y
    if rem:
        tail = z[nb * L :]
        tail[...] = T[:rem, :rem] @ tail + P[:rem] @ S


def _batch_rows(m: int) -> int:
    """Rows per batch of an m-column stream: about ``_TILE_VALUES`` values per
    column tile, in whole blocks.  Draws are full-row, so a shard sizes its
    batches by the full width m too."""
    return max(_BLOCK, _TILE_VALUES // min(m, _TILE) // _BLOCK * _BLOCK)


def _normals(bitgen, rows: int, m: int, keep, sigma: float, out, chunk) -> np.ndarray:
    """Write the next ``rows`` full-width rows of ``bitgen``'s draws, as
    normals times ``sigma`` in the columns ``keep`` (all of them when None),
    to ``out`` (C-contiguous, ``rows`` x the kept width) and return it.

    The uniforms are drawn ``chunk.size // m`` whole rows at a time into the
    float64 buffer ``chunk``, and each chunk's normals go straight to their
    rows of ``out``.
    """
    step = chunk.size // m
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        u = _uniform_chunk(bitgen, (r1 - r0) * m, chunk[: (r1 - r0) * m]).reshape(-1, m)
        ndtri(u if keep is None else u[:, keep], out=out[r0:r1])
    out *= sigma
    return out


class _Draw(threading.Thread):
    """``_normals(*args)`` on a thread of its own, started at construction."""

    def __init__(self, *args):
        super().__init__(name="bltnoise-normals")
        self._args = args
        self._out = self._exc = None
        self.start()

    def run(self):
        try:
            self._out = _normals(*self._args)
        except BaseException as exc:  # re-raised by result() on the consumer's thread
            self._exc = exc

    def result(self) -> np.ndarray:
        """Wait for the draw; return its normals or raise what it raised."""
        self.join()
        if self._exc is not None:
            raise self._exc
        return self._out


def _noise_chunks(cfg: NoiseStreamConfig, columns=None):
    """Yield the stream as (start_row, rows) batches of ``_batch_rows(cfg.m)``
    rows of ``columns``; the last batch may be shorter.

    This one generator runs the stream, and its state is one d x width array:
    width is m, or for a shard the columns of the tiles that cover it.  The
    batches live in two normals buffers allocated once per stream, which take
    turns.  The worker thread owns one while it draws a batch into it:
    full-width uniforms, a chunk of rows at a time through the uniforms
    buffer (also allocated once, and only the worker's), the computed
    columns through ``ndtri``, times sigma.  The calling thread owns the
    other: the kernel filters each column tile in place against its columns
    of the state, a shard's requested columns are copied out, prefix noise
    adds the running sum of the per-step rows in place, and the batch is
    yielded.  A yielded batch is valid until the next one is requested, when
    the worker starts drawing into its buffer; a consumer that keeps one
    copies it.  One draw is in flight at a time, and the draws run in order,
    so the values do not depend on scheduling.
    """
    r = cfg.factorization.rational()
    theta, v = r.theta, r.omega / r.theta
    T = ltt_dense(blt_coeffs(r, _BLOCK))
    powers = theta ** np.arange(_BLOCK + 1)[:, None]  # powers[i, k] = theta_k^i
    P, decay = powers[1:], powers[_BLOCK]
    Q = (v * powers[_BLOCK - 1 :: -1]).T
    keep = sel = None
    if columns is not None:
        cols = np.asarray(columns, dtype=np.intp)
        if cols.size and (cols.min() < 0 or cols.max() >= cfg.m):
            raise ValueError("column indices out of range")
        # the requested tiles, sorted and deduped (np.unique would load numpy.ma)
        tiles = np.sort(cols // _TILE, axis=None)
        tiles = tiles[np.diff(tiles, prepend=-1) != 0] * _TILE
        # the computed tiles' columns, and each requested column's place among them
        keep = (tiles[:, None] + np.arange(_TILE)).ravel()
        keep = keep[keep < cfg.m]
        sel = np.searchsorted(keep, cols)
    width = cfg.m if keep is None else keep.size
    sigma = cfg.sigma
    batch = _batch_rows(cfg.m)
    S = np.zeros((theta.size, width))
    bitgen = np.random.Philox(key=int(cfg.seed))
    buffers = np.empty((2, min(batch, cfg.n), width))
    # the worker's uniforms: about 4 * _TILE_VALUES values, in whole rows
    chunk = np.empty(min(max(1, 4 * _TILE_VALUES // cfg.m), batch, cfg.n) * cfg.m)

    def draw(start) -> _Draw | None:
        """The worker drawing the batch at ``start`` into its buffer, or None past the end."""
        if start >= cfg.n:
            return None
        rows = min(batch, cfg.n - start)
        out = buffers[start // batch % 2, :rows]
        return _Draw(bitgen, rows, cfg.m, keep, sigma, out, chunk)

    prefix = 0.0
    pending = draw(0)
    try:
        for start in range(0, cfg.n, batch):
            y = pending.result()
            pending = draw(start + batch)
            # tile c fills columns c on of the batch and of S; only the last can be narrower
            for c in range(0, width, _TILE):
                lfilter(T, P, Q, decay, y[:, c : c + _TILE], S[:, c : c + _TILE])
            if sel is not None:
                y = y[:, sel]
            if cfg.output_kind == PREFIX:
                y[0] += prefix
                np.cumsum(y, axis=0, out=y)
                prefix = y[-1].copy()
            yield start, y
    finally:
        if pending is not None:
            pending.join()


def noise_stream(cfg: NoiseStreamConfig, columns=None):
    """Iterate the n noise rows of the configured stream.

    ``columns`` restricts output to those columns (a shard); the values are
    bitwise identical to the same columns of the full stream.  The rows are
    views of a copy of each batch, so they never change once handed out.
    """
    for _, block in _noise_chunks(cfg, columns=columns):
        yield from block.copy()


def write_noise_csv(cfg: NoiseStreamConfig, path) -> None:
    """Write the stream as CSV with header step,dim0,...,dim{m-1}."""
    with open(path, "w") as fh, closing(_noise_chunks(cfg)) as chunks:
        first = next(chunks)  # before the m-wide header: a width too large to allocate fails here
        fh.write("step," + ",".join(f"dim{j}" for j in range(cfg.m)) + "\n")
        line = "%d," + ",".join(["%.17g"] * cfg.m) + "\n"
        for start, block in itertools.chain([first], chunks):
            for i, row in enumerate(block.tolist(), start):
                fh.write(line % (i, *row))


def write_noise_f64(cfg: NoiseStreamConfig, path, factorization_path: str = "") -> str:
    """Write raw little-endian float64 rows plus a JSON sidecar; returns sidecar path."""
    with open(path, "wb") as fh:
        for _, block in _noise_chunks(cfg):
            fh.write(np.ascontiguousarray(block, dtype="<f8"))
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
