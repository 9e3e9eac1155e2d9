"""Tests for rational generator parameterizations and conversions."""

import json

import numpy as np
import pytest

from bltnoise.optimizer import OptConfig
from bltnoise.params import (
    BltFactorization,
    RationalBlt,
    blt_coeffs,
    degree1_closed_form,
    load_factorization,
    residues_from_roots,
    save_factorization,
)
from bltnoise.seq import ToeplitzSeq, ltt_apply_dense, series_reciprocal
from bltnoise.streaming import NoiseStreamConfig

from helpers import cauchy_product, random_factorization, random_rational


def power_coeffs(theta, omega, n):
    """``r_k = 1^T W^k v + (1 - 1^T v) * [k == 0]`` by explicit powers of
    ``W = diag(theta)``, with ``v = omega/theta``."""
    W = np.diag(theta)
    v = np.asarray(omega) / np.asarray(theta)
    rk = np.array([np.ones(len(theta)) @ np.linalg.matrix_power(W, k) @ v for k in range(n)])
    rk[0] += 1.0 - v.sum()
    return rk


def poly_from_roots(roots):
    """Coefficients of prod_i (1 - root_i * x), ascending powers."""
    coeffs = np.array([1.0])
    for r in roots:
        coeffs = np.convolve(coeffs, [1.0, -r])
    return coeffs


class TestResiduesFromRoots:
    def test_hand_example(self):
        omega, omega_hat = residues_from_roots([0.5], [0.25])
        np.testing.assert_allclose(omega, [0.25], rtol=1e-15)
        np.testing.assert_allclose(omega_hat, [-0.25], rtol=1e-15)

    def test_equal_roots_give_zero(self):
        omega, omega_hat = residues_from_roots([0.5, 0.8], [0.5, 0.8])
        np.testing.assert_array_equal(omega, [0.0, 0.0])
        np.testing.assert_array_equal(omega_hat, [0.0, 0.0])

    def test_series_identity(self):
        """r with these residues satisfies p = q * r as formal power series."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            theta = rng.uniform(0.05, 0.95, 3)
            theta_hat = rng.uniform(0.05, 0.95, 3)
            omega, _ = residues_from_roots(theta, theta_hat)
            n = 64
            r = blt_coeffs(RationalBlt(theta, omega), n)
            p = np.zeros(n)
            p[:4] = poly_from_roots(theta_hat)
            q = np.zeros(n)
            q[:4] = poly_from_roots(theta)
            np.testing.assert_allclose(
                cauchy_product(ToeplitzSeq(q), r).coeffs, p, rtol=1e-9, atol=1e-9
            )

    def test_repeated_roots_rejected(self):
        with pytest.raises(ValueError):
            residues_from_roots([0.5, 0.5], [0.2, 0.3])

    def test_zero_root_rejected(self):
        with pytest.raises(ValueError):
            residues_from_roots([0.0, 0.5], [0.2, 0.3])

    def test_logspace_matches_direct_at_high_degree(self):
        """The log-space branch (d > 32) agrees with plain products."""
        rng = np.random.default_rng(3)
        d = 40
        theta = np.sort(rng.uniform(0.02, 0.98, d))
        theta_hat = theta + 0.5 * np.diff(np.append(theta, 1.0))
        omega, omega_hat = residues_from_roots(theta, theta_hat)
        # force the direct branch via a complex view with zero imaginary part
        om_c, omh_c = residues_from_roots(theta + 0j, theta_hat + 0j)
        np.testing.assert_allclose(omega, om_c.real, rtol=1e-9)
        np.testing.assert_allclose(omega_hat, omh_c.real, rtol=1e-9)


class TestBltCoeffs:
    def test_geometric(self):
        r = RationalBlt([0.5], [0.5])
        np.testing.assert_allclose(
            blt_coeffs(r, 4).coeffs, [1.0, 0.5, 0.25, 0.125], rtol=1e-15
        )

    def test_all_ones_generator(self):
        r = RationalBlt([1.0], [1.0])
        np.testing.assert_array_equal(blt_coeffs(r, 3).coeffs, [1.0, 1.0, 1.0])

    def test_matches_matrix_power_form(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            r = random_rational(rng, 2)
            np.testing.assert_allclose(
                blt_coeffs(r, 64).coeffs, power_coeffs(r.theta, r.omega, 64), rtol=1e-12
            )

    def test_reciprocal_multiplies_to_unit(self):
        """blt_coeffs(r) * series_reciprocal(r) == e0 for n <= 128.

        Uses interlaced-root generators: those keep the zeros of r outside the
        unit disk, so 1/r has bounded coefficients (an arbitrary residue
        vector can put a zero inside the disk and make 1/r blow up, which is a
        property of the generator, not an arithmetic defect).
        """
        rng = np.random.default_rng(15)
        n = 128
        for _ in range(5):
            fact = random_factorization(rng, 3, n)
            r = blt_coeffs(fact.rational(), n)
            s = series_reciprocal(r)
            e0 = np.zeros(n)
            e0[0] = 1.0
            np.testing.assert_allclose(cauchy_product(r, s).coeffs, e0, atol=1e-9)


class TestMatrixPowerForm:
    def test_diagonal_form_coeffs(self):
        r = RationalBlt([0.5, 0.25], [0.375, 0.125])
        rk = power_coeffs(r.theta, r.omega, 5)
        expected = [1.0] + [0.375 * 0.5 ** (k - 1) + 0.125 * 0.25 ** (k - 1) for k in range(1, 5)]
        np.testing.assert_allclose(rk, expected, rtol=1e-14)

    def test_dimension_zero(self):
        r = RationalBlt(np.zeros(0), np.zeros(0))
        assert r.degree == 0
        np.testing.assert_array_equal(power_coeffs(r.theta, r.omega, 3), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(blt_coeffs(r, 3).coeffs, [1.0, 0.0, 0.0])


class TestBltFactorization:
    def test_validity_dense(self):
        """B and C coefficient sequences multiply to the all-ones matrix."""
        rng = np.random.default_rng(31)
        n = 64
        for _ in range(5):
            fact = random_factorization(rng, 3, n)
            r = blt_coeffs(fact.rational(), n)
            b = np.cumsum(r.coeffs)
            c = series_reciprocal(r).coeffs
            prod = ltt_apply_dense(ToeplitzSeq(b), ltt_apply_dense(ToeplitzSeq(c), np.eye(n)))
            np.testing.assert_allclose(prod, np.tril(np.ones((n, n))), atol=1e-8)

    def test_rejects_out_of_range_roots(self):
        with pytest.raises(ValueError):
            BltFactorization([1.5], [0.5], 10)
        with pytest.raises(ValueError):
            BltFactorization([-0.1], [0.5], 10)

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            BltFactorization([0.5, 0.5], [0.2, 0.3], 10)

    def test_rejects_boolean_n(self):
        with pytest.raises(ValueError, match="n must be"):
            BltFactorization([0.5], [0.75], True)

    def test_n_must_fit_an_array_dimension(self):
        assert BltFactorization([0.5], [0.75], 2**63 - 1).n == 2**63 - 1
        with pytest.raises(ValueError, match="n must be"):
            BltFactorization([0.5], [0.75], 2**63)

    def test_omega_from_roots(self):
        fact = BltFactorization([0.5], [0.25], 8)
        np.testing.assert_allclose(fact.omega, [0.25])


class TestDegree1ClosedForm:
    def test_n64_parameters(self):
        fact = degree1_closed_form(64)
        lam = fact.theta_hat[0]
        a2 = lam - fact.theta[0]
        assert lam == 0.9375
        assert a2 == 0.1875

    def test_n64_inverse_coefficient(self):
        """Second coefficient of the C-inverse generator is -a^2 (lam - a^2)."""
        fact = degree1_closed_form(64)
        r = blt_coeffs(fact.rational(), 3)
        np.testing.assert_allclose(r.coeffs[2], -0.140625, rtol=1e-15)

    def test_sensitivity_bound(self):
        from bltnoise.error_eval import sensitivity_closed

        for n in (100, 10000):
            fact = degree1_closed_form(n)
            lam = fact.theta_hat[0]
            a2 = lam - fact.theta[0]
            sens = sensitivity_closed(fact.omega, fact.theta, n)
            assert sens**2 <= 1.0 + a2**2 / (1.0 - lam**2) + 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            degree1_closed_form(1)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        fact = BltFactorization([0.5, 0.8], [0.6, 0.9], 128, method="opt", meta={"n_target": 128})
        path = tmp_path / "f.json"
        save_factorization(fact, path)
        back = load_factorization(path)
        np.testing.assert_array_equal(back.theta, fact.theta)
        np.testing.assert_array_equal(back.theta_hat, fact.theta_hat)
        assert back.n == 128 and back.method == "opt"
        assert back.meta["n_target"] == 128

    def test_residues_not_serialized(self, tmp_path):
        import json

        fact = degree1_closed_form(64)
        path = tmp_path / "f.json"
        save_factorization(fact, path)
        payload = json.loads(path.read_text())
        assert "omega" not in payload and "omega_hat" not in payload
        assert payload["meta"]["method"] == "degree1"
        assert payload["meta"]["version"] == 1

    def test_ra_reload_restores_exact_residues(self, tmp_path):
        from bltnoise.rational import ra_blt_build

        fact = ra_blt_build(40, 1000)
        path = tmp_path / "ra.json"
        save_factorization(fact, path)
        back = load_factorization(path)
        np.testing.assert_allclose(back.omega, fact.omega, rtol=1e-12)
        np.testing.assert_array_equal(back.theta, fact.theta)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"degree": 1, "theta": [0.5]}')
        with pytest.raises(ValueError):
            load_factorization(path)

    @pytest.mark.parametrize(
        "content",
        [b"", b'{"degree": 1, "theta": [0.5', np.random.default_rng(0).bytes(100)],
        ids=["empty", "truncated", "random-bytes"],
    )
    def test_unparsable_file_is_named(self, tmp_path, content):
        path = tmp_path / "f.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^factorization file {path}: "):
            load_factorization(path)


class TestOneOwner:
    """``BltFactorization`` owns the checks on n, the method and the roots:
    a bad value gives the same message from the constructor and from a file,
    the file's prefixed with its path."""

    GOOD = {"theta": [0.5, 0.8], "theta_hat": [0.6, 0.9], "n": 128, "method": "opt"}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", True),
            ("n", 0),
            ("n", 2**63),
            ("n", "1000"),
            ("method", "x"),
            ("theta", [1.5, 0.5]),
            ("theta", [0.5, 0.5]),
            ("theta", [float("nan"), 0.5]),
            ("theta_hat", [0.0, 0.9]),
            ("theta_hat", [0.9, 0.9]),
            ("theta_hat", [0.6, float("nan")]),
        ],
    )
    def test_constructor_and_file_say_the_same(self, tmp_path, field, value):
        args = {**self.GOOD, field: value}
        with pytest.raises(ValueError) as direct:
            BltFactorization(**args)
        path = tmp_path / "f.json"
        payload = {key: args[key] for key in ("theta", "theta_hat", "n")}
        path.write_text(json.dumps({**payload, "degree": 2, "meta": {"method": args["method"]}}))
        with pytest.raises(ValueError) as loaded:
            load_factorization(path)
        assert str(loaded.value) == f"factorization file {path}: {direct.value}"

    @pytest.mark.parametrize("n", [0, 1, -5, 2**63, 10**30])
    def test_one_horizon_rule(self, n):
        """Every owner of a horizon words its error the same way; degree1 and
        opt, tuned to n, start the range at 2."""
        fact = BltFactorization(**self.GOOD)
        owners = {
            1: [
                lambda: BltFactorization(**{**self.GOOD, "n": n}),
                lambda: NoiseStreamConfig(fact, n, 1, seed=0, zeta=1.0),
            ],
            2: [lambda: degree1_closed_form(n), lambda: OptConfig(degree=3, n=n)],
        }
        for least, calls in owners.items():
            if least <= n < 2**63:
                continue
            for call in calls:
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"n must be a positive integer in [{least}, 2**63 - 1], got {n}"
