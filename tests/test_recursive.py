"""Tests for the Kronecker-recursive factorization and its lazy streamer."""

from itertools import islice

import numpy as np
import pytest

from bltnoise.error_eval import (
    bintree_value,
    opt_lt_toe,
    rownorm_of,
    sensitivity_of,
)
from bltnoise.optimizer import OptConfig, optimize_blt
from bltnoise.params import blt_coeffs, degree1_closed_form
from bltnoise.rational import ra_blt_build
from bltnoise import recursive
from bltnoise.recursive import (
    _block_level,
    _check_levels,
    blt_base_factory,
    comb_dense,
    recursive_norms,
    recursive_stream,
    theorem2_params,
)
from bltnoise.seq import ltt_dense

from helpers import (
    comc_dense,
    bintree_dense,
    blt_dense_pair,
    consumption_perm,
    dense_norms,
    dense_recursion,
    random_factorization,
)


def ones_lt(n):
    return np.tril(np.ones((n, n)))


# The largest n with a composition of at least two levels that draws at most
# 2**63 - 1 rows: 3037000499 + 3037000499**2 fits, 3037000500 + 3037000500**2 does not
LARGEST_COMPOSED = 3037000499**2


class TestCombineIdentities:
    def test_worked_six_step_example(self):
        # trivial bases (B = A, C = I) for 2 and 3 steps combine into the
        # 6-step all-ones lower-triangular matrix
        B1, C1 = ones_lt(2), np.eye(2)
        B2, C2 = ones_lt(3), np.eye(3)
        B = comb_dense(B1, B2)
        C = comc_dense(C1, C2)
        assert B.shape == (6, 8) and C.shape == (8, 6)
        np.testing.assert_allclose(B @ C, ones_lt(6), atol=1e-14)

    def test_product_identity_blt_bases(self):
        rng = np.random.default_rng(5)
        f1 = random_factorization(rng, 2, n=4)
        f2 = random_factorization(rng, 1, n=3)
        B1, C1 = blt_dense_pair(f1, 4)
        B2, C2 = blt_dense_pair(f2, 3)
        prod = comb_dense(B1, B2) @ comc_dense(C1, C2)
        np.testing.assert_allclose(prod, ones_lt(12), atol=1e-10)

    def test_product_identity_mixed_bases(self):
        rng = np.random.default_rng(6)
        f1 = random_factorization(rng, 2, n=4)
        B1, C1 = blt_dense_pair(f1, 4)
        B2, C2 = bintree_dense(1)
        prod = comb_dense(B1, B2) @ comc_dense(C1, C2)
        np.testing.assert_allclose(prod, ones_lt(8), atol=1e-10)

    def test_column_norms_add_exactly(self):
        rng = np.random.default_rng(7)
        C1 = rng.normal(size=(5, 3))
        C2 = rng.normal(size=(4, 6))
        combined = comc_dense(C1, C2)

        def max_col_sq(M):
            return np.max(np.sum(M * M, axis=0))

        np.testing.assert_allclose(
            max_col_sq(combined), max_col_sq(C1) + max_col_sq(C2), rtol=1e-15
        )

    def test_scalar_ones_stack(self):
        combined = comc_dense([[1.0]], [[1.0]])
        np.testing.assert_array_equal(combined, [[1.0], [1.0]])
        assert np.linalg.norm(combined[:, 0]) == pytest.approx(np.sqrt(2.0))

    def test_dense_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            comb_dense(np.eye(70), np.eye(70))


# (construction, degree, n1, levels); each composition's dense factors fit
# under comb_dense's row cap
NORM_BASES = [
    ("ra", 5, 12, 3),
    ("ra", 3, 8, 3),
    ("degree1", 1, 16, 2),
    ("opt", 4, 10, 3),
    ("ra", 3, 2, 10),
    ("ra", 3, 1, 3),
]


def build_base(method, degree, n1):
    if method == "ra":
        return ra_blt_build(degree, n1)
    if method == "degree1":
        return degree1_closed_form(n1)
    return optimize_blt(OptConfig(degree=degree, n=n1)).factorization


class TestRecursiveNorms:
    """``recursive_norms`` is exact: it equals the dense composed factors' norms."""

    def test_single_level_is_identity(self):
        fact = random_factorization(np.random.default_rng(3), 2, n=6)
        assert recursive_norms(fact, 6, 1) == (sensitivity_of(fact, 6), rownorm_of(fact, 6))

    def test_four_levels_double(self):
        # the sensitivity doubles; the row norm adds three shifted base rows
        fact = random_factorization(np.random.default_rng(4), 2, n=6)
        sens, rown = recursive_norms(fact, 6, 4)
        assert sens == pytest.approx(2.0 * sensitivity_of(fact, 6), rel=1e-15)
        want = np.hypot(rownorm_of(fact, 6), np.sqrt(3.0) * rownorm_of(fact, 5))
        assert rown == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("method, degree, n1, levels", NORM_BASES)
    def test_exact_against_dense(self, method, degree, n1, levels):
        fact = build_base(method, degree, n1)
        B, C = dense_recursion(*blt_dense_pair(fact, n1), levels)
        np.testing.assert_allclose(recursive_norms(fact, n1, levels), dense_norms(B, C), rtol=1e-12)

    def test_one_step_base_row_norm_is_one(self):
        # every level of a one-step base is the one row b0 = 1
        assert recursive_norms(ra_blt_build(3, 1), 1, 3)[1] == 1.0

    def test_levels_validated(self):
        fact = random_factorization(np.random.default_rng(2), 2, n=4)
        for levels in (0, 64, 10**20, 2.5):
            with pytest.raises(ValueError, match="levels"):
                recursive_norms(fact, 4, levels)

    def test_dense_norms_match(self):
        """Dense column and row norms both realize the formula."""
        rng = np.random.default_rng(8)
        fact = random_factorization(rng, 2, n=4)
        B1, C1 = blt_dense_pair(fact, 4)
        levels = 3
        B, C = dense_recursion(B1, C1, levels)
        want_sens, want_rown = recursive_norms(fact, 4, levels)
        got_sens, got_rown = dense_norms(B, C)
        np.testing.assert_allclose(got_sens, want_sens, rtol=1e-10)
        np.testing.assert_allclose(got_rown, want_rown, rtol=1e-12)


class TestRecursiveStream:
    def run_stream(self, fact, n1, levels, m, Z, perm):
        source = iter([Z[p] for p in perm])
        gen = recursive_stream(blt_base_factory(fact, m), n1, levels, m, source)
        return np.vstack(list(islice(gen, n1**levels)))

    @pytest.mark.parametrize("n1", [2, 3, 4])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 4])
    def test_matches_dense(self, n1, levels, m):
        rng = np.random.default_rng(100 * n1 + 10 * levels + m)
        fact = random_factorization(rng, 2, n=n1)
        B1, C1 = blt_dense_pair(fact, n1)
        B, _ = dense_recursion(B1, C1, levels)
        Z = rng.normal(size=(B.shape[1], m))
        perm = consumption_perm(n1, levels)
        got = self.run_stream(fact, n1, levels, m, Z, perm)
        np.testing.assert_allclose(got, B @ Z, atol=1e-9)

    def test_discarded_carry_columns_are_zero(self):
        # draws the streamer never consumes correspond to dense columns the
        # shift matrix zeroed out, so their noise values cannot matter
        rng = np.random.default_rng(9)
        fact = random_factorization(rng, 2, n=3)
        B1, C1 = blt_dense_pair(fact, 3)
        levels = 3
        B, _ = dense_recursion(B1, C1, levels)
        perm = consumption_perm(3, levels)
        consumed = len(perm) - (levels - 1)
        unused_cols = perm[consumed:]
        assert len(unused_cols) == levels - 1
        np.testing.assert_array_equal(B[:, unused_cols], 0.0)

    def test_consumption_count(self):
        n1, levels, m = 3, 3, 2
        rng = np.random.default_rng(10)
        fact = random_factorization(rng, 2, n=n1)
        n_prime = n1 * (n1**levels - 1) // (n1 - 1)  # columns of the combined B

        count = 0

        def counted():
            nonlocal count
            while True:
                count += 1
                yield np.zeros(m)

        gen = recursive_stream(blt_base_factory(fact, m), n1, levels, m, counted())
        rows = list(islice(gen, n1**levels))
        assert len(rows) == n1**levels
        assert count == n_prime - (levels - 1)
        with pytest.raises(StopIteration):
            next(gen)
        assert count == n_prime

    def test_exhausted_source_raises(self):
        n1, levels, m = 2, 2, 1
        rng = np.random.default_rng(11)
        fact = random_factorization(rng, 1, n=n1)
        needed = consumption_perm(n1, levels)
        source = [np.zeros(m)] * (len(needed) - (levels - 1) - 1)
        gen = recursive_stream(blt_base_factory(fact, m), n1, levels, m, source)
        with pytest.raises(RuntimeError, match="exhausted"):
            list(islice(gen, n1**levels))

    def test_bad_noise_shape_rejected(self):
        rng = np.random.default_rng(12)
        fact = random_factorization(rng, 1, n=2)
        gen = recursive_stream(
            blt_base_factory(fact, 2), 2, 1, 2, iter([np.zeros(3)])
        )
        with pytest.raises(ValueError, match="shape"):
            next(gen)

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            recursive_stream(lambda: None, 2, 0, 1, iter([]))

    def test_one_step_base_levels_capped_at_call(self):
        # a one-step base draws one row a level, so only the level cap binds:
        # 64 levels would pass numpy's 64 array axes, and 10**12 levels must
        # be refused before anything counts up to them
        base = blt_base_factory(random_factorization(np.random.default_rng(25), 1, n=2), 2)
        for levels in (64, 10**12):
            with pytest.raises(ValueError, match=rf"^levels must be an integer in \[1, 63\], got {levels}$"):
                recursive_stream(base, 1, levels, 2, iter([]))


class TestBlockStream:
    """The streamer computes its bottom levels one batched block at a time."""

    @pytest.mark.parametrize("levels", [2, 3])
    def test_theorem2_base_matches_dense(self, levels):
        # theorem2_params(10**5) base: n1 = 12 steps, degree 51
        n1, m = 12, 3
        fact = ra_blt_build(51, n1)
        B1 = ltt_dense(np.cumsum(blt_coeffs(fact.rational(), n1).coeffs))
        B = B1
        for _ in range(levels - 1):
            B = comb_dense(B1, B)
        rng = np.random.default_rng(levels)
        Z = rng.normal(size=(B.shape[1], m))
        source = iter([Z[p] for p in consumption_perm(n1, levels)])
        gen = recursive_stream(blt_base_factory(fact, m), n1, levels, m, source)
        got = np.vstack(list(islice(gen, n1**levels)))
        np.testing.assert_allclose(got, B @ Z, rtol=0, atol=1e-12)

    @staticmethod
    def first_row_draws(n1, levels, m):
        fact = random_factorization(np.random.default_rng(14), 2, n=n1)
        count = 0

        def counted():
            nonlocal count
            while True:
                count += 1
                yield np.ones(m)

        gen = recursive_stream(blt_base_factory(fact, m), n1, levels, m, counted())
        next(gen)
        return count

    def test_first_row_draws_one_base_block(self):
        # 16 * 2049 values exceed the block budget, so the block is one level
        n1, levels, m = 4, 3, 2049
        assert _block_level(n1, levels, m) == 1
        assert self.first_row_draws(n1, levels, m) == n1

    def test_first_row_draws_one_level_block(self):
        # the first row draws one level block but its trailing carries
        n1, levels, m = 4, 3, 2
        lb = _block_level(n1, levels, m)
        assert lb > 1
        want = len(consumption_perm(n1, lb)) - (lb - 1)
        assert self.first_row_draws(n1, levels, m) == want

    def test_width_validated_at_call(self):
        fact = random_factorization(np.random.default_rng(15), 1, n=2)
        with pytest.raises(ValueError, match=r"^m must be an integer in \[1, 9223372036854775807\], got 0$"):
            recursive_stream(blt_base_factory(fact, 0), 2, 2, 0, iter([]))

    @pytest.mark.parametrize("name, value", [("n1", 4.0), ("n1", True), ("n1", "4"), ("m", 2.5), ("m", True)])
    def test_sizes_must_be_integers(self, name, value):
        fact = random_factorization(np.random.default_rng(15), 1, n=4)
        args = {"n1": 4, "m": 2}
        args[name] = value
        z = np.zeros((20, 2))
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[1, 9223372036854775807\], got {value!r}$"):
            recursive_stream(blt_base_factory(fact, 2), args["n1"], 2, args["m"], z)


def comb_apply(B1, B_inner, zd):
    """comb(B1, B_inner) @ zd without forming the combined matrix: zd's inner
    columns run through n1 copies of B_inner, its n1 carry columns through
    S B1, whose rows repeat over each inner block."""
    n1, (rows, cols) = B1.shape[0], B_inner.shape
    inner = (B_inner @ zd[: n1 * cols].reshape(n1, cols, -1)).reshape(n1 * rows, -1)
    return inner + np.repeat(np.eye(n1, k=-1) @ B1 @ zd[n1 * cols :], rows, axis=0)


class TestBatchedBlocks:
    """Level blocks sized by the shared value budget, from array or iterator sources."""

    @staticmethod
    def setup(n1, levels, m, seed):
        rng = np.random.default_rng(seed)
        fact = random_factorization(rng, 2, n=n1)
        n_prime = len(consumption_perm(n1, levels))
        return fact, rng.normal(size=(n_prime, m))

    @staticmethod
    def stream(fact, n1, levels, m, source):
        gen = recursive_stream(blt_base_factory(fact, m), n1, levels, m, source)
        return np.vstack(list(islice(gen, n1**levels)))

    @pytest.mark.parametrize("budget", [1, recursive._TILE_VALUES, 10**9])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("n1", [2, 3, 12])
    def test_matches_dense_at_any_budget(self, monkeypatch, n1, levels, budget):
        monkeypatch.setattr(recursive, "_TILE_VALUES", budget)
        m = 3
        fact, z = self.setup(n1, levels, m, 1000 * n1 + levels)
        B1, _ = blt_dense_pair(fact, n1)
        # z is in draw order; the dense product takes it in column order
        zd = np.empty_like(z)
        zd[consumption_perm(n1, levels)] = z
        if levels == 1:
            want = B1 @ zd
        else:
            # comb_dense up to levels - 1; the top step would pass its row cap at n1 = 12
            B = B1
            for _ in range(levels - 2):
                B = comb_dense(B1, B)
            want = comb_apply(B1, B, zd)
        got = self.stream(fact, n1, levels, m, z)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("budget", [1, recursive._TILE_VALUES, 10**9])
    def test_array_and_iterator_sources_agree_bitwise(self, monkeypatch, budget):
        monkeypatch.setattr(recursive, "_TILE_VALUES", budget)
        n1, levels, m = 3, 4, 5
        fact, z = self.setup(n1, levels, m, 20)
        from_array = self.stream(fact, n1, levels, m, z)
        from_iter = self.stream(fact, n1, levels, m, iter(list(z)))
        assert np.array_equal(from_array, from_iter)

    def test_array_without_trailing_carries_streams_every_row(self):
        n1, levels, m = 12, 3, 4
        fact, z = self.setup(n1, levels, m, 21)
        short = z[: len(z) - (levels - 1)]
        assert len(self.stream(fact, n1, levels, m, short)) == n1**levels

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
    def test_one_step_base(self, levels):
        """At n1 = 1 every level has the one row b0 * z0, from either source."""
        m = 3
        fact, z = self.setup(1, levels, m, 24)
        base = blt_base_factory(fact, m)
        for source in (z, iter(list(z))):
            rows = list(recursive_stream(base, 1, levels, m, source))
            np.testing.assert_array_equal(np.vstack(rows), base(1)[0] * z[:1])

    def test_short_array_raises(self):
        n1, levels, m = 3, 3, 2
        fact, z = self.setup(n1, levels, m, 22)
        with pytest.raises(RuntimeError, match="exhausted"):
            self.stream(fact, n1, levels, m, z[: len(z) - levels])

    @pytest.mark.parametrize("column", [np.ones(3), np.ones((4, 1)), [1.0, np.nan, 1.0, 1.0]])
    def test_bad_base_column_rejected(self, column):
        with pytest.raises(ValueError, match="base column must be 4 finite values"):
            next(recursive_stream(lambda n1: column, 4, 2, 2, np.zeros((20, 2))))

    @pytest.mark.parametrize("shape", [(39,), (39, 3), (39, 2, 1)])
    def test_bad_array_shape_rejected(self, shape):
        fact = random_factorization(np.random.default_rng(23), 1, n=3)
        with pytest.raises(ValueError, match="shape"):
            next(recursive_stream(blt_base_factory(fact, 2), 3, 3, 2, np.zeros(shape)))


class TestRecursiveFactorization:
    """l levels of an n1 x n1' base give B of n1^l x n1' (n1^l - 1)/(n1 - 1)."""

    def test_shape_properties(self):
        rng = np.random.default_rng(13)
        fact = random_factorization(rng, 2, n=3)
        B1, C1 = blt_dense_pair(fact, 3)
        B, C = dense_recursion(B1, C1, 2)
        assert B.shape == (9, 12)
        assert C.shape == (12, 9)

    def test_dense_pair_base(self):
        B1, C1 = bintree_dense(1)
        assert B1.shape == (2, 3)
        B, C = dense_recursion(B1, C1, 3)
        assert B.shape == (8, 3 * 7) and C.shape == (3 * 7, 8)


class TestTheorem2Params:
    def test_worked_examples(self):
        assert theorem2_params(10**6) == (14, 54, 6)
        assert theorem2_params(25) == (5, 37, 2)

    def test_levels_cover_horizon(self):
        for n in (25, 10**3, 10**4, 10**6, 10**8):
            n1, d, levels = theorem2_params(n)
            assert n1**levels >= n
            assert n1 ** (levels - 1) < n
            assert d >= 3

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            theorem2_params(24)

    @pytest.mark.parametrize("n", [25.5, 2**63 - 1, 2**63])
    def test_unbuildable_n_rejected(self, n):
        # 2**63 - 1 gives compositions that draw past 2**63 - 1 rows
        with pytest.raises(ValueError, match=rf"^n( = {n}:| must be an integer in \[25, )"):
            theorem2_params(n)

    @pytest.mark.parametrize(
        "n, n1, levels",
        [(round(2**58.94), 42, 11), (2**59, 42, 11), (2**60, 44, 11), (2**62, 50, 11), (LARGEST_COMPOSED, 3037000499, 2)],
    )
    def test_base_grows_to_fit_the_draw_cap(self, n, n1, levels):
        # n1 = ceil(ln n) draws past 2**63 - 1 rows here: at 2**62, n1 = 43-49
        # are refused too, and n1 = 50 with 11 levels draws 4.98e18 rows
        got = theorem2_params(n)
        assert (got[0], got[2]) == (n1, levels)
        assert _check_levels(n1, levels) <= 2**63 - 1

    def test_largest_composed_n(self):
        with pytest.raises(ValueError, match=rf"^n = {LARGEST_COMPOSED + 1}: levels = 2 of a 3037000500-step base"):
            theorem2_params(LARGEST_COMPOSED + 1)

    def test_every_returned_composition_is_buildable(self):
        # 16 points per octave up to 2**62.9375, and the largest composed n
        ns = [round(2 ** (k / 16)) for k in range(16 * 5, 16 * 63)] + [LARGEST_COMPOSED]
        for n in ns:
            n1, _, levels = theorem2_params(n)
            assert n1**levels >= n
            _check_levels(n1, levels)

    def test_bound_at_ten_thousand(self):
        """The recursive MaxErr stays within the additive/multiplicative
        budget l * base <= opt * (1 + 3 pi / ln n1) + 4 + 3 / ln n1 + ln(n1) / pi."""
        n = 10**4
        n1, d, levels = theorem2_params(n)
        base = ra_blt_build(d, n1)
        max_err_rec = levels * sensitivity_of(base, n1) * rownorm_of(base, n1)
        ln_n1 = np.log(n1)
        budget = (
            opt_lt_toe(n) * (1.0 + 3.0 * np.pi / ln_n1)
            + 4.0
            + 3.0 / ln_n1
            + ln_n1 / np.pi
        )
        assert max_err_rec <= budget


class TestBinaryTree:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5, 6])
    def test_factorizes_and_max_err(self, levels):
        B, C = bintree_dense(levels)
        n = 2**levels
        np.testing.assert_allclose(B @ C, ones_lt(n), atol=1e-12)
        sens, rown = dense_norms(B, C)
        assert rown * sens == pytest.approx(levels + 1)
        assert rown * sens == pytest.approx(bintree_value(n))
