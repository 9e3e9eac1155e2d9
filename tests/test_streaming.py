"""Tests for buffered streaming multiplication and seeded noise generation."""

import dataclasses
import json
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from bltnoise import streaming
from bltnoise.params import BltFactorization, RationalBlt, blt_coeffs
from bltnoise.seq import ltt_apply_dense
from bltnoise.streaming import (
    ENGINE,
    PER_STEP,
    PREFIX,
    RNG_NAME,
    NoiseStreamConfig,
    _batch_rows,
    _noise_chunks,
    _uniform_chunk,
    ndtri,
    noise_stream,
    stream_init,
    stream_step,
    write_noise_csv,
    write_noise_f64,
)
from bltnoise.error_eval import rownorm_of, sensitivity_of

from helpers import random_factorization, random_rational, reference_normals, serial_noise_chunks


class TestStreamStep:
    def test_impulse_response(self):
        r = random_rational(np.random.default_rng(0), 1)
        r = type(r)(theta=[0.5], omega=[0.5])
        state = stream_init(r, 1)
        outs = [stream_step(state, np.array([z])) for z in (1.0, 0.0, 0.0)]
        np.testing.assert_allclose(np.concatenate(outs), [1.0, 0.5, 0.25], rtol=1e-15)

    def test_prefix_sums(self):
        r = type(random_rational(np.random.default_rng(0), 1))([1.0], [1.0])
        state = stream_init(r, 1)
        outs = [stream_step(state, np.array([1.0])) for _ in range(3)]
        np.testing.assert_array_equal(np.concatenate(outs), [1.0, 2.0, 3.0])

    def test_init_shape_and_first_output(self):
        rng = np.random.default_rng(1)
        r = random_rational(rng, 2)
        state = stream_init(r, 3)
        assert state.S.shape == (2, 3)
        assert not state.S.any()
        z = rng.standard_normal(3)
        out = stream_step(state, z)
        r0 = blt_coeffs(r, 1).coeffs[0]
        np.testing.assert_allclose(out, r0 * z, rtol=1e-14)

    def test_degree_zero(self):
        state = stream_init(RationalBlt(np.zeros(0), np.zeros(0)), 2)
        assert state.S.shape == (0, 2)
        z = np.array([3.0, -1.0])
        np.testing.assert_array_equal(stream_step(state, z), z)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        n, m = 32, 4
        for _ in range(5):
            r = random_rational(rng, 3)
            rc = blt_coeffs(r, n)
            Z = rng.standard_normal((n, m))
            state = stream_init(r, m)
            got = np.vstack([stream_step(state, Z[k]) for k in range(n)])
            np.testing.assert_allclose(got, ltt_apply_dense(rc, Z), rtol=1e-10, atol=1e-12)

    def test_buffer_state_identity(self):
        """After k steps the buffer equals sum_j W^{k-1-j} v Z_j."""
        rng = np.random.default_rng(7)
        r = random_rational(rng, 2)
        Z = rng.standard_normal((5, 1))
        state = stream_init(r, 1)
        for k in range(5):
            stream_step(state, Z[k])
        W, v = np.diag(r.theta), r.omega / r.theta
        expected = sum(
            np.linalg.matrix_power(W, 4 - j) @ np.outer(v, Z[j]) for j in range(5)
        )
        np.testing.assert_allclose(state.S, expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        r = type(random_rational(np.random.default_rng(0), 1))([0.5], [0.5])
        state = stream_init(r, 2)
        with pytest.raises(ValueError):
            stream_step(state, np.ones(3))


class TestNoiseStreamConfig:
    def test_sigma_scaling(self):
        rng = np.random.default_rng(3)
        fact = random_factorization(rng, 2, 64)
        cfg = NoiseStreamConfig(fact, 64, 2, seed=0, zeta=2.5)
        np.testing.assert_allclose(cfg.sigma, 2.5 * sensitivity_of(fact, 64), rtol=1e-15)

    def test_validation(self):
        fact = BltFactorization([0.5], [0.75], 8)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 0, 1, seed=0, zeta=1.0)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 2**63, 1, seed=0, zeta=1.0)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 0, seed=0, zeta=1.0)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 1, seed=-1, zeta=1.0)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 1, seed=2**64, zeta=1.0)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 1, seed=0, zeta=-0.1)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 1, seed=0, zeta=1.0, output_kind="bogus")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 10.5),
            ("n", 8.0),
            ("m", 2.5),
            ("m", "3"),
            ("seed", 1.5),
            ("seed", None),
            ("seed", True),
        ],
    )
    def test_non_integer_rejected(self, field, value):
        kwargs = dict(factorization=BltFactorization([0.5], [0.75], 8), n=8, m=1, seed=0, zeta=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            NoiseStreamConfig(**kwargs)

    @pytest.mark.parametrize("value", [True, "1", None])
    def test_zeta_must_be_a_number(self, value):
        fact = BltFactorization([0.5], [0.75], 8)
        with pytest.raises(ValueError, match=r"^zeta must be a finite number >= 0, got "):
            NoiseStreamConfig(fact, 8, 1, seed=0, zeta=value)

    def test_numpy_integers_read_as_int(self):
        fact = BltFactorization([0.5], [0.75], 8)
        cfg = NoiseStreamConfig(fact, np.int64(8), np.int32(2), seed=np.uint64(3), zeta=1.0)
        assert (cfg.n, cfg.m, cfg.seed) == (8, 2, 3)
        assert all(type(v) is int for v in (cfg.n, cfg.m, cfg.seed))
        want = np.vstack(list(noise_stream(NoiseStreamConfig(fact, 8, 2, seed=3, zeta=1.0))))
        assert np.array_equal(np.vstack(list(noise_stream(cfg))), want)

    @pytest.mark.parametrize("zeta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_zeta_rejected(self, zeta):
        fact = BltFactorization([0.5], [0.75], 8)
        with pytest.raises(ValueError, match="zeta"):
            NoiseStreamConfig(fact, 8, 1, seed=0, zeta=zeta)

    def test_frozen_so_sigma_cannot_go_stale(self):
        cfg = NoiseStreamConfig(BltFactorization([0.5], [0.75], 8), 8, 1, seed=0, zeta=1.0)
        sigma = cfg.sigma
        for field, value in (("n", 9), ("zeta", 2.0), ("seed", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field, value)
        assert cfg.sigma == sigma


class TestNoiseStream:
    def test_matches_dense(self):
        rng = np.random.default_rng(11)
        n, m = 200, 3
        fact = random_factorization(rng, 3, n)
        cfg = NoiseStreamConfig(fact, n, m, seed=5, zeta=1.0)
        got = np.vstack(list(noise_stream(cfg)))
        z = reference_normals(5, n, m) * cfg.sigma
        want = ltt_apply_dense(blt_coeffs(fact.rational(), n), z)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_prefix_is_cumsum_of_per_step(self):
        rng = np.random.default_rng(13)
        n, m = 150, 2
        fact = random_factorization(rng, 2, n)
        per = np.vstack(list(noise_stream(NoiseStreamConfig(fact, n, m, seed=9, zeta=1.0))))
        pre = np.vstack(
            list(noise_stream(NoiseStreamConfig(fact, n, m, seed=9, zeta=1.0, output_kind=PREFIX)))
        )
        np.testing.assert_allclose(pre, np.cumsum(per, axis=0), rtol=1e-12, atol=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(17)
        fact = random_factorization(rng, 2, 64)
        cfg = NoiseStreamConfig(fact, 2100, 2, seed=123, zeta=1.0)
        a = np.vstack(list(noise_stream(cfg)))
        b = np.vstack(list(noise_stream(cfg)))
        assert np.array_equal(a, b)

    def test_column_shards_bitwise_identical(self):
        """Sharding by columns reproduces the unsharded stream exactly."""
        rng = np.random.default_rng(19)
        fact = random_factorization(rng, 3, 64)
        cfg = NoiseStreamConfig(fact, 130, 5, seed=77, zeta=1.0)
        full = np.vstack(list(noise_stream(cfg)))
        shards = [
            np.vstack(list(noise_stream(cfg, columns=cols)))
            for cols in ([0, 1], [], [2], [3, 4])
        ]
        assert shards[1].shape == (130, 0)
        assert np.array_equal(np.hstack(shards), full)

    def test_zeta_zero_rows(self):
        fact = BltFactorization([0.5], [0.75], 8)
        cfg = NoiseStreamConfig(fact, 8, 3, seed=1, zeta=0.0)
        rows = list(noise_stream(cfg))
        assert len(rows) == 8
        assert all(not row.any() for row in rows)

    def test_identity_factorization_row_variance(self):
        """With C = I the prefix noise at step k sums k+1 i.i.d. normals."""
        fact = BltFactorization([], [], 64)
        cfg = NoiseStreamConfig(fact, 64, 1, seed=3, zeta=1.0, output_kind=PREFIX)
        got = np.vstack(list(noise_stream(cfg))).ravel()
        z = reference_normals(3, 64, 1).ravel()
        np.testing.assert_allclose(got, np.cumsum(z), rtol=1e-12)

    def test_monte_carlo_last_row_variance(self):
        """Empirical variance of the final prefix row approaches sigma^2 * ||B row||^2."""
        rng = np.random.default_rng(23)
        fact = random_factorization(rng, 2, 64)
        n, trials = 64, 4000
        target = rownorm_of(fact, n) ** 2
        acc = np.empty(trials)
        for s in range(trials):
            cfg = NoiseStreamConfig(fact, n, 1, seed=s, zeta=1.0, output_kind=PREFIX)
            last = None
            for row in noise_stream(cfg):
                last = row
            acc[s] = last[0]
        sigma2 = sensitivity_of(fact, n) ** 2
        got = np.var(acc) / sigma2
        assert abs(got - target) / target < 0.08


class _RawStub:
    """Bit generator stub whose every raw draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random_raw(self, count):
        return np.full(count, self.value, dtype=np.uint64)


def _mp_ndtri(u):
    with mpmath.workdps(40):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(u)) - 1))


class TestNdtri:
    """The in-tree AS 241 inverse normal CDF that maps uniforms to draws."""

    def test_matches_mpmath(self):
        edges = [0.075, 0.925, float(np.exp(-25))]
        u = np.concatenate([
            [np.nextafter(c, 0.0) for c in edges], edges, [np.nextafter(c, 1.0) for c in edges],
            [2.0**-54, 1 - 2.0**-53],
            _uniform_chunk(np.random.Philox(key=2024), 2000),
        ])
        want = np.array([_mp_ndtri(x) for x in u])
        rel = np.abs(ndtri(u) - want) / np.abs(want)
        assert rel.max() <= 2e-15
        assert ndtri(np.array([0.5]))[0] == 0.0

    def test_mirror_is_exact(self):
        tails = np.array([1.0, 2.0**-53, 3 * 2.0**-53, 1000 * 2.0**-53, 2.0**-33, 2.0**-10, 0.0625])
        u = np.concatenate([tails, _uniform_chunk(np.random.Philox(key=7), 20_000)])
        exact = 1.0 - (1.0 - u) == u
        assert exact[: tails.size].all() and exact.sum() > 9_000
        np.testing.assert_array_equal(ndtri(1.0 - u[exact]), -ndtri(u[exact]))

    def test_top_raw_draw_is_finite(self):
        """(2^53 - 1/2) * 2^-53 rounds to u = 1; it maps to the mirror of the
        smallest uniform 2^-54, and the raw value below it is unchanged."""
        top = _uniform_chunk(_RawStub(2**64 - 1), 3)
        below = _uniform_chunk(_RawStub(2**64 - 2**11 - 1), 1)
        smallest = _uniform_chunk(_RawStub(0), 1)
        assert np.all(top == 1.0) and below[0] == 1 - 2.0**-52 and smallest[0] == 2.0**-54
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = ndtri(top)
        np.testing.assert_array_equal(z, -ndtri(smallest)[0])
        assert 8.29 < z[0] < 8.30
        assert ndtri(below)[0] == -ndtri(np.array([2.0**-52]))[0]

    def test_shapes_and_strided_tiles(self):
        u = _uniform_chunk(np.random.Philox(key=3), 300 * 70).reshape(300, 70)
        flat = ndtri(u.ravel())
        np.testing.assert_array_equal(ndtri(u[:, 10:50]), flat.reshape(300, 70)[:, 10:50])
        assert ndtri(np.empty((0, 4))).shape == (0, 4)
        assert ndtri(0.5) == 0.0

    def test_out_is_bitwise_the_allocating_call(self):
        far = float(np.exp(-30))
        u = np.concatenate([
            [0.5, 0.3, 0.925, 0.075, far, 1 - 2.0**-40, 2.0**-54, 1.0],  # central, tail, far, top
            _uniform_chunk(np.random.Philox(key=5), 70_000),
        ])
        out = np.full(u.size, np.nan)
        assert ndtri(u, out=out) is out
        assert out.tobytes() == ndtri(u).tobytes()
        assert np.isfinite(out).all() and out[4] < -7.3 and out[7] > 8.29
        # a shard's non-contiguous column pick, into rows of a wider buffer
        grid = u[: 300 * 70].reshape(300, 70)
        keep = np.r_[3:40, 60:70]
        buf = np.full((310, keep.size), np.nan)
        ndtri(grid[:, keep], out=buf[5:305])
        assert buf[5:305].tobytes() == ndtri(grid[:, keep]).tobytes()
        assert np.isnan(buf[:5]).all() and np.isnan(buf[305:]).all()
        # out keeps its own shape; only the size has to match
        flat = np.empty(grid.size)
        assert ndtri(grid, out=flat).tobytes() == ndtri(grid).tobytes()


class TestBlockEngine:
    """Contracts of the block-Toeplitz engine: 64-row blocks aligned to
    absolute rows, 128-column tiles aligned to absolute columns."""

    @pytest.mark.parametrize("kind", [PER_STEP, PREFIX])
    def test_shards_across_tile_edges_bitwise(self, kind):
        rng = np.random.default_rng(41)
        fact = random_factorization(rng, 3, 64)
        cfg = NoiseStreamConfig(fact, 200, 300, seed=43, zeta=1.0, output_kind=kind)
        full = np.vstack(list(noise_stream(cfg)))
        for cols in ([127, 128], [250, 3], [270], list(range(3, 300))):
            shard = np.vstack(list(noise_stream(cfg, columns=cols)))
            assert np.array_equal(shard, full[:, cols]), cols

    @pytest.mark.parametrize("degree, zeta", [(0, 1.0), (2, 0.0)])
    def test_prefix_crosses_the_batch_edge(self, degree, zeta):
        n, m = 332, 200  # 5 blocks of 64 and a tail of 12, in 256-row batches
        fact = random_factorization(np.random.default_rng(47), degree, 64)
        cfg = NoiseStreamConfig(fact, n, m, seed=53, zeta=zeta, output_kind=PREFIX)
        chunks = [(s, blk.copy()) for s, blk in _noise_chunks(cfg)]
        starts = list(range(0, n, _batch_rows(m)))
        assert len(starts) > 1 and [s for s, _ in chunks] == starts
        a = np.vstack([blk for _, blk in chunks])
        per = np.vstack(list(noise_stream(dataclasses.replace(cfg, output_kind=PER_STEP))))
        assert np.array_equal(a, np.cumsum(per, axis=0))
        if zeta == 0.0:
            assert not a.any()

    @pytest.mark.parametrize("kind", [PER_STEP, PREFIX])
    @pytest.mark.parametrize("degree, zeta", [(3, 1.0), (0, 1.0), (2, 0.0)])
    def test_batch_size_is_bitwise_invisible(self, monkeypatch, kind, degree, zeta):
        fact = random_factorization(np.random.default_rng(83), degree, 64)
        n, m = 300, 300
        cfg = NoiseStreamConfig(fact, n, m, seed=89, zeta=zeta, output_kind=kind)
        shards = (None, [127, 128], [270])

        def run():
            # every batch is collected before any is compared, so a batch
            # buffer reused under the yielded rows would show
            rows = [list(noise_stream(cfg, columns=cols)) for cols in shards]
            return [np.vstack(r) for r in rows]

        want = run()
        # one block per batch; 192-row batches, the last one 108 rows with a
        # partial block; a single batch
        for tile_values, rows in ((1, 64), (192 * 128, 192), (10**9, n)):
            monkeypatch.setattr(streaming, "_TILE_VALUES", tile_values)
            assert min(_batch_rows(m), n) == rows
            assert [s for s, _ in _noise_chunks(cfg)] == list(range(0, n, rows))
            for cols, a, b in zip(shards, want, run()):
                assert np.array_equal(a, b), (tile_values, cols)

    @pytest.mark.parametrize("kind", [PER_STEP, PREFIX])
    @pytest.mark.parametrize("degree", [3, 0])
    @pytest.mark.parametrize(
        "m, n, shards, several",
        [
            # 4096-row superblocks (K = 64); n ends 2 blocks and 17 rows into the sixth
            (1, 5 * 4096 + 2 * 64 + 17, (None,), 2),
            # 1344-row superblocks (K = 21); n ends 5 blocks and 9 rows into the fifth
            (3, 4 * 1344 + 5 * 64 + 9, (None, [1]), 3),
            # one-block superblocks (K = 1); n ends 44 rows into the fifth block
            (63, 300, (None, [0], [62]), 3),
        ],
    )
    def test_narrow_batch_size_is_bitwise_invisible(self, monkeypatch, kind, degree, m, n, shards, several):
        fact = random_factorization(np.random.default_rng(137), degree, 64)
        cfg = NoiseStreamConfig(fact, n, m, seed=139, zeta=1.0, output_kind=kind)
        superblock = max(1, 64 // m) * 64
        assert n % superblock and n % 64

        def run():
            rows = [list(noise_stream(cfg, columns=cols)) for cols in shards]
            return [np.vstack(r) for r in rows]

        want = run()
        # one superblock per batch; several per batch, the last batch ending
        # inside a superblock; a single batch for the whole stream
        for tile_values, rows in ((1, superblock), (several * superblock * m, several * superblock), (10**9, n)):
            monkeypatch.setattr(streaming, "_TILE_VALUES", tile_values)
            assert min(_batch_rows(m), n) == rows
            assert [s for s, _ in _noise_chunks(cfg)] == list(range(0, n, rows))
            for cols, a, b in zip(shards, want, run()):
                assert a.tobytes() == b.tobytes(), (tile_values, cols)

    def test_prefix_is_the_exact_running_sum(self):
        fact = random_factorization(np.random.default_rng(73), 3, 64)
        cfg = NoiseStreamConfig(fact, 2100, 2, seed=79, zeta=1.0)
        per = np.vstack(list(noise_stream(cfg)))
        pre = np.vstack(list(noise_stream(dataclasses.replace(cfg, output_kind=PREFIX))))
        assert np.array_equal(pre, np.cumsum(per, axis=0))

    def test_matches_stream_step_loop(self):
        rng = np.random.default_rng(59)
        n, m = 600, 200  # two full batches and a tail
        assert 2 * _batch_rows(m) < n < 3 * _batch_rows(m)
        fact = random_factorization(rng, 4, n)
        cfg = NoiseStreamConfig(fact, n, m, seed=61, zeta=1.0)
        got = np.vstack(list(noise_stream(cfg)))
        z = reference_normals(61, n, m) * cfg.sigma
        state = stream_init(fact.rational(), m)
        want = np.vstack([stream_step(state, z[k]) for k in range(n)])
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


class TestPipeline:
    """The next batch's normals are drawn on the stream's one worker thread
    while the kernel and the consumer run the current one."""

    @pytest.mark.parametrize("kind", [PER_STEP, PREFIX])
    @pytest.mark.parametrize(
        "m, n, columns",
        [
            (1, 70_001, None),  # two 32768-row batches and a tail
            (130, 600, None),  # 256-row batches, the tail a partial block
            (130, 600, [127, 128]),  # a shard across the tile edge
            (1000, 300, None),
            (1000, 300, [5, 127, 128, 999]),
        ],
    )
    def test_matches_the_serial_oracle_bitwise(self, kind, m, n, columns):
        fact = random_factorization(np.random.default_rng(97), 3, 64)
        cfg = NoiseStreamConfig(fact, n, m, seed=101, zeta=1.5, output_kind=kind)
        assert n % _batch_rows(m)
        starts = []
        # in lockstep: an engine batch is valid until the next one is requested
        for (s, a), (t, b) in zip(_noise_chunks(cfg, columns), serial_noise_chunks(cfg, columns)):
            starts.append((s, t))
            assert a.tobytes() == b.tobytes()
        assert starts == [(s, s) for s in range(0, n, _batch_rows(m))]

    @pytest.mark.parametrize("kind", [PER_STEP, PREFIX])
    def test_rows_outlive_the_batch_buffers(self, kind):
        fact = random_factorization(np.random.default_rng(109), 3, 64)
        cfg = NoiseStreamConfig(fact, 4 * 256 + 7, 130, seed=113, zeta=1.0, output_kind=kind)
        it = noise_stream(cfg)
        kept = [next(it) for _ in range(256)]  # batch 0
        assert sum(1 for _ in it) == cfg.n - 256  # four more batches
        fresh = noise_stream(cfg)
        for row in kept:
            assert row.tobytes() == next(fresh).tobytes()

    @pytest.mark.parametrize("kind", [PER_STEP, PREFIX])
    def test_memory_holds_two_batches_whatever_n(self, kind):
        m = 1000
        batch = _batch_rows(m)
        fact = random_factorization(np.random.default_rng(127), 5, 64)
        peaks = []
        for batches in (12, 48):
            cfg = NoiseStreamConfig(fact, batches * batch, m, seed=131, zeta=1.0, output_kind=kind)
            cfg.sigma  # computed before tracing: the engine's memory is measured
            tracemalloc.start()
            try:
                for _ in _noise_chunks(cfg):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert batch == 256 and max(peaks) < 4 * batch * m * 8, peaks
        assert peaks[1] - peaks[0] < 2**20, peaks

    @staticmethod
    def _cfg():
        fact = random_factorization(np.random.default_rng(103), 2, 64)
        return NoiseStreamConfig(fact, 1000, 200, seed=107, zeta=1.0)  # four batches

    def test_one_draw_in_flight_and_joined_on_close(self, monkeypatch):
        lock, go = threading.Lock(), threading.Event()
        live, peak, done = [0], [0], []
        normals = streaming._normals

        def gated_normals(*args):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            if done:  # every draw after the first waits for the test
                assert go.wait(10)
            time.sleep(0.005)  # so that two draws in flight would overlap
            out = normals(*args)
            with lock:
                live[0] -= 1
                done.append(out.shape[0])
            return out

        monkeypatch.setattr(streaming, "_normals", gated_normals)
        before = threading.active_count()
        it = noise_stream(self._cfg())
        next(it)
        assert threading.active_count() == before + 1  # the second batch is being drawn
        go.set()
        it.close()
        assert done == [256, 256] and threading.active_count() == before
        assert len(list(noise_stream(self._cfg()))) == 1000
        assert peak[0] == 1 and threading.active_count() == before

    def test_worker_error_reaches_the_consumer(self, monkeypatch):
        calls = []

        def ndtri_failing_second(u, out=None):
            calls.append(threading.current_thread().name)
            if len(calls) == 2:
                raise RuntimeError("draw failed")
            return ndtri(u, out=out)

        monkeypatch.setattr(streaming, "ndtri", ndtri_failing_second)
        before = threading.active_count()
        it = _noise_chunks(self._cfg())
        assert next(it)[0] == 0
        with pytest.raises(RuntimeError, match="draw failed"):
            next(it)
        assert threading.active_count() == before
        assert calls[1] != threading.current_thread().name

    @pytest.mark.parametrize("end", ["exhausted", "closed", "draw error", "kernel error"])
    def test_one_worker_per_stream(self, monkeypatch, end):
        """Every draw of a stream runs on one thread, not the caller's, and
        that thread is gone however the stream ends."""
        threads, kernel_calls = [], []
        normals, kernel = streaming._normals, streaming.lfilter

        def recorded_normals(*args):
            threads.append(threading.current_thread())  # kept alive, so no two threads compare equal
            if end == "draw error" and len(threads) == 3:
                raise RuntimeError("draw failed")
            return normals(*args)

        def failing_kernel(*args):
            kernel_calls.append(args)
            if len(kernel_calls) == 5:  # the third batch's first tile, the fourth batch's draw in flight
                raise RuntimeError("kernel failed")
            return kernel(*args)

        monkeypatch.setattr(streaming, "_normals", recorded_normals)
        if end == "kernel error":
            monkeypatch.setattr(streaming, "lfilter", failing_kernel)
        before = threading.active_count()
        it = _noise_chunks(self._cfg())  # four batches
        if end == "exhausted":
            assert len(list(it)) == 4
        elif end == "closed":
            next(it)
            next(it)
            it.close()
        else:
            next(it)
            with pytest.raises(RuntimeError, match="failed"):
                for _ in it:
                    pass
        assert threading.active_count() == before
        assert len(threads) >= 2 and len(set(threads)) == 1
        assert threads[0] is not threading.current_thread()

    def test_concurrent_streams_under_a_short_switch_interval(self, monkeypatch):
        """Four streams consumed at once from four threads, eight threads on
        the cores with the interpreter switching between them every
        microsecond, each give the serial oracle's rows."""
        monkeypatch.setattr(streaming, "_TILE_VALUES", 1)  # one superblock per batch
        fact = random_factorization(np.random.default_rng(151), 3, 64)
        cfgs = [
            NoiseStreamConfig(fact, 3000, m, seed=157 + i, zeta=1.0, output_kind=kind)
            for i, (m, kind) in enumerate([(3, PER_STEP), (200, PER_STEP), (3, PREFIX), (200, PREFIX)])
        ]
        want = [np.vstack([rows for _, rows in serial_noise_chunks(cfg)]) for cfg in cfgs]
        got = [None] * len(cfgs)

        def consume(i):
            got[i] = np.vstack(list(noise_stream(cfgs[i])))

        threads = [threading.Thread(target=consume, args=(i,)) for i in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for cfg, a, b in zip(cfgs, got, want):
            assert a is not None and a.tobytes() == b.tobytes(), (cfg.m, cfg.output_kind)

    @pytest.mark.parametrize("degree", [0, 2])
    @pytest.mark.parametrize("kind", [PER_STEP, PREFIX])
    def test_zeta_zero_gives_positive_zeros(self, kind, degree):
        """A zero sigma runs the general engine: normals times 0 are +-0.0, and
        adding the state term turns each -0.0 into +0.0, the bytes of np.zeros."""
        fact = random_factorization(np.random.default_rng(103), degree, 64)
        cfg = NoiseStreamConfig(fact, 1000, 200, seed=107, zeta=0.0, output_kind=kind)
        for columns in (None, [3, 127, 128, 199]):  # full width, and a shard across a tile edge
            rows = np.vstack(list(noise_stream(cfg, columns=columns)))
            assert rows.shape == (1000, 200 if columns is None else 4)
            assert not rows.any() and not np.signbit(rows).any()


class TestWriters:
    def test_csv_writer(self, tmp_path):
        fact = BltFactorization([0.5], [0.75], 4)
        cfg = NoiseStreamConfig(fact, 4, 2, seed=2, zeta=1.0)
        path = tmp_path / "noise.csv"
        write_noise_csv(cfg, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,dim0,dim1"
        assert len(lines) == 5
        row0 = lines[1].split(",")
        assert row0[0] == "0"
        got = np.vstack(list(noise_stream(cfg)))
        np.testing.assert_allclose(float(row0[1]), got[0, 0], rtol=1e-15)

    def test_csv_bytes_match_per_value_format(self, tmp_path):
        rng = np.random.default_rng(67)
        fact = random_factorization(rng, 2, 64)
        cfg = NoiseStreamConfig(fact, 70, 4, seed=71, zeta=3.0, output_kind=PREFIX)
        path = tmp_path / "noise.csv"
        write_noise_csv(cfg, path)
        rows = np.vstack(list(noise_stream(cfg)))
        want = "step,dim0,dim1,dim2,dim3\n" + "".join(
            str(i) + "," + ",".join(f"{x:.17g}" for x in row) + "\n" for i, row in enumerate(rows)
        )
        assert path.read_bytes() == want.encode()

    def test_f64_writer_and_sidecar(self, tmp_path):
        fact = BltFactorization([0.5], [0.75], 6)
        cfg = NoiseStreamConfig(fact, 6, 3, seed=8, zeta=2.0)
        path = tmp_path / "noise.f64"
        sidecar = write_noise_f64(cfg, path, factorization_path="f.json")
        raw = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(6, 3)
        got = np.vstack(list(noise_stream(cfg)))
        np.testing.assert_array_equal(raw, got)
        meta = json.loads((tmp_path / "noise.f64.json").read_text())
        assert sidecar == str(tmp_path / "noise.f64.json")
        assert meta["n"] == 6 and meta["m"] == 3 and meta["zeta"] == 2.0
        assert meta["seed"] == 8 and meta["rng"] == RNG_NAME
        assert meta["engine"] == ENGINE
        assert meta["factorization_path"] == "f.json"
        assert meta["output_kind"] == PER_STEP
        np.testing.assert_allclose(meta["sigma"], cfg.sigma, rtol=1e-15)


class TestStateSize:
    def test_per_step_buffer_is_d_by_m(self):
        """The only live state is the d x m buffer (plus O(d) parameters)."""
        rng = np.random.default_rng(37)
        r = random_rational(rng, 5)
        state = stream_init(r, 7)
        assert state.S.nbytes == 5 * 7 * 8
        for _ in range(100):
            stream_step(state, np.zeros(7))
        assert state.S.shape == (5, 7)
