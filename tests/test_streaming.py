"""Tests for buffered streaming multiplication and seeded noise generation."""

import dataclasses
import json
import warnings

import mpmath
import numpy as np
import pytest

from bltnoise import streaming
from bltnoise.params import (
    BltFactorization,
    MatrixPowerForm,
    blt_coeffs,
    diagonal_power_form,
)
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

from helpers import random_factorization, random_rational, reference_normals


class TestStreamStep:
    def test_impulse_response(self):
        r = random_rational(np.random.default_rng(0), 1)
        r = type(r)(theta=[0.5], omega=[0.5], t=1.0)
        state = stream_init(diagonal_power_form(r), 1)
        outs = [stream_step(state, np.array([z])) for z in (1.0, 0.0, 0.0)]
        np.testing.assert_allclose(np.concatenate(outs), [1.0, 0.5, 0.25], rtol=1e-15)

    def test_prefix_sums(self):
        r = type(random_rational(np.random.default_rng(0), 1))([1.0], [1.0], 1.0)
        state = stream_init(diagonal_power_form(r), 1)
        outs = [stream_step(state, np.array([1.0])) for _ in range(3)]
        np.testing.assert_array_equal(np.concatenate(outs), [1.0, 2.0, 3.0])

    def test_init_shape_and_first_output(self):
        rng = np.random.default_rng(1)
        r = random_rational(rng, 2)
        form = diagonal_power_form(r)
        state = stream_init(form, 3)
        assert state.S.shape == (2, 3)
        assert not state.S.any() and state.k == 0
        z = rng.standard_normal(3)
        out = stream_step(state, z)
        r0 = form.t + form.u @ form.v
        np.testing.assert_allclose(out, r0 * z, rtol=1e-14)

    def test_degree_zero(self):
        form = MatrixPowerForm(np.zeros(0), np.zeros((0, 0)), np.zeros(0), 1.0)
        state = stream_init(form, 2)
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
            state = stream_init(diagonal_power_form(r), m)
            got = np.vstack([stream_step(state, Z[k]) for k in range(n)])
            np.testing.assert_allclose(got, ltt_apply_dense(rc, Z), rtol=1e-10, atol=1e-12)

    def test_buffer_state_identity(self):
        """After k steps the buffer equals sum_j W^{k-1-j} v Z_j."""
        rng = np.random.default_rng(7)
        r = random_rational(rng, 2)
        form = diagonal_power_form(r)
        Z = rng.standard_normal((5, 1))
        state = stream_init(form, 1)
        for k in range(5):
            stream_step(state, Z[k])
        W = form.W
        expected = sum(
            np.linalg.matrix_power(W, 4 - j) @ np.outer(form.v, Z[j]) for j in range(5)
        )
        np.testing.assert_allclose(state.S, expected, rtol=1e-12)
        assert state.k == 5

    def test_non_diagonal_w_rejected(self):
        form = MatrixPowerForm(np.ones(2), [[0.5, 0.1], [0.0, 0.25]], np.ones(2), 0.0)
        with pytest.raises(ValueError, match="W must be diagonal"):
            stream_init(form, 1)

    def test_dimension_mismatch(self):
        r = type(random_rational(np.random.default_rng(0), 1))([0.5], [0.5], 1.0)
        state = stream_init(diagonal_power_form(r), 2)
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
            NoiseStreamConfig(fact, 8, 0, seed=0, zeta=1.0)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 1, seed=-1, zeta=1.0)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 1, seed=2**64, zeta=1.0)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 1, seed=0, zeta=-0.1)
        with pytest.raises(ValueError):
            NoiseStreamConfig(fact, 8, 1, seed=0, zeta=1.0, output_kind="bogus")

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
            for cols in ([0, 1], [2], [3, 4])
        ]
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
        chunks = list(_noise_chunks(cfg))
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
        state = stream_init(diagonal_power_form(fact.rational()), m)
        want = np.vstack([stream_step(state, z[k]) for k in range(n)])
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


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
        state = stream_init(diagonal_power_form(r), 7)
        assert state.S.nbytes == 5 * 7 * 8
        for _ in range(100):
            stream_step(state, np.zeros(7))
        assert state.S.shape == (5, 7)
