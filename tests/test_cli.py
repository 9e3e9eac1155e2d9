"""End-to-end tests of the command-line interface (in-process via main)."""

import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bltnoise
from bltnoise import cli, streaming
from bltnoise.cli import main
from bltnoise.error_eval import bounds_csv, max_err, opt_lt_toe
from bltnoise.optimizer import OptConfig, optimize_blt
from bltnoise.params import load_factorization, save_factorization

from helpers import blt_dense_pair, dense_norms, dense_recursion, optimized_d5


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    return lines[0], [ln.split(",") for ln in lines[1:]]


class TestBounds:
    def test_full_grid(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n-max", "8")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "n,opt_lt_toe,mathias_ub,matousek_lb,bintree"
        assert len(rows) == 8
        assert [r[0] for r in rows] == [str(i) for i in range(1, 9)]
        last = rows[-1]
        assert float(last[4]) == 4.0  # binary tree at n=8: log2(8) + 1
        n3 = rows[2]
        assert float(n3[1]) == pytest.approx(1.390625, rel=1e-12)

    def test_log_grid(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n-max", "1000", "--log-grid", "5")
        assert code == 0
        _, rows = csv_rows(out)
        ns = [int(r[0]) for r in rows]
        assert len(ns) <= 5
        assert ns == sorted(ns)
        assert ns[0] == 1 and ns[-1] == 1000

    def test_negative_log_grid(self, capsys):
        code, out, err = run(capsys, "bounds", "--n-max", "10", "--log-grid", "-3")
        assert code == 2 and out == ""
        assert "--log-grid must be >= 0" in err
        # 0 keeps meaning every n
        code, out, _ = run(capsys, "bounds", "--n-max", "10", "--log-grid", "0")
        assert code == 0 and len(csv_rows(out)[1]) == 10

    def test_bad_n_max(self, capsys):
        code, _, err = run(capsys, "bounds", "--n-max", "0")
        assert code == 2
        assert "error" in err


class TestBuildEval:
    def test_build_degree1_and_eval(self, capsys, tmp_path):
        out_path = str(tmp_path / "d1.json")
        code, out, _ = run(
            capsys, "build", "--method", "degree1", "--steps", "64", "--out", out_path
        )
        assert code == 0
        info = json.loads(out)
        assert info["method"] == "degree1" and info["degree"] == 1 and info["n"] == 64
        fact = load_factorization(out_path)
        assert fact.theta_hat[0] == pytest.approx(0.9375)

        code, out, _ = run(capsys, "eval", "--blt", out_path)
        assert code == 0
        rep = json.loads(out)
        assert rep["max_err"] == pytest.approx(
            rep["sensitivity"] * rep["row_norm"], rel=1e-12
        )
        assert rep["ratio_to_opt_lt_toe"] >= 1.0

    def test_build_ra_requires_degree(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "build", "--method", "ra", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "--degree" in err

    def test_build_degree1_rejects_other_degrees(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "build",
            "--method",
            "degree1",
            "--degree",
            "2",
            "--out",
            str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_build_ra_and_eval_ratio(self, capsys, tmp_path):
        out_path = str(tmp_path / "ra.json")
        code, _, _ = run(
            capsys,
            "build",
            "--method",
            "ra",
            "--degree",
            "9",
            "--steps",
            "1000",
            "--out",
            out_path,
        )
        assert code == 0
        code, out, _ = run(capsys, "eval", "--blt", out_path, "--steps", "1000")
        assert code == 0
        rep = json.loads(out)
        assert rep["max_err"] / opt_lt_toe(1000) <= 1.3

    def test_eval_identity_factorization(self, capsys, tmp_path):
        # hand-written degree-0 file: B = A, C = I, so MaxErr = sqrt(n)
        path = tmp_path / "identity.json"
        path.write_text(
            json.dumps(
                {
                    "degree": 0,
                    "theta": [],
                    "theta_hat": [],
                    "n": 100,
                    "meta": {"method": "manual", "version": 1},
                }
            )
        )
        code, out, _ = run(capsys, "eval", "--blt", str(path), "--steps", "100")
        assert code == 0
        assert json.loads(out)["max_err"] == pytest.approx(10.0, rel=1e-12)

    def test_eval_rejects_boolean_n(self, capsys, tmp_path):
        path = tmp_path / "bool_n.json"
        path.write_text(
            json.dumps(
                {
                    "degree": 1,
                    "theta": [0.5],
                    "theta_hat": [0.75],
                    "n": True,
                    "meta": {"method": "manual", "version": 1},
                }
            )
        )
        code, out, err = run(capsys, "eval", "--blt", str(path))
        assert code == 2 and out == ""
        assert "n must be a positive integer" in err

    def test_eval_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--blt", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in err

    def test_eval_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"degree\": 1}")
        code, _, _ = run(capsys, "eval", "--blt", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda p: [1], "JSON object"),
            (lambda p: {**p, "meta": [1]}, "meta"),
            (lambda p: {**p, "n": "1000"}, "n must"),
            (lambda p: {**p, "n": 0}, "n must"),
            (lambda p: {**p, "degree": 5.0}, "degree"),
            (lambda p: {**p, "theta": None}, "theta must"),
            (lambda p: {**p, "theta": [[x] for x in p["theta"]]}, "theta must"),
            (lambda p: {**p, "theta_hat": p["theta_hat"][:-1] + ["0.5"]}, "theta_hat"),
            (lambda p: {**p, "theta_hat": p["theta_hat"][:-1] + [float("nan")]}, "theta_hat"),
        ],
    )
    def test_malformed_field_is_named(self, capsys, tmp_path, edit, field):
        path = tmp_path / "ra5.json"
        assert main(["build", "--method", "ra", "--degree", "5", "--steps", "1000", "--out", str(path)]) == 0
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        code, out, err = run(capsys, "eval", "--blt", str(path))
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert str(path) in err and field in err


class TestNoisegen:
    @pytest.fixture()
    def blt_file(self, capsys, tmp_path):
        path = str(tmp_path / "base.json")
        assert (
            main(["build", "--method", "degree1", "--steps", "64", "--out", path]) == 0
        )
        capsys.readouterr()
        return path

    def test_csv_output(self, capsys, tmp_path, blt_file):
        out_path = tmp_path / "noise.csv"
        code, out, _ = run(
            capsys,
            "noisegen",
            "--blt",
            blt_file,
            "--steps",
            "32",
            "--dim",
            "2",
            "--seed",
            "3",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert json.loads(out)["sigma"] > 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "step,dim0,dim1"
        assert len(lines) == 33
        assert lines[1].split(",")[0] == "0"

    def test_f64_output_with_sidecar(self, capsys, tmp_path, blt_file):
        out_path = tmp_path / "noise.f64"
        code, out, _ = run(
            capsys,
            "noisegen",
            "--blt",
            blt_file,
            "--steps",
            "32",
            "--dim",
            "2",
            "--seed",
            "3",
            "--format",
            "f64",
            "--out",
            str(out_path),
        )
        assert code == 0
        sidecar = json.loads(out)["sidecar"]
        assert out_path.stat().st_size == 32 * 2 * 8
        meta = json.loads(open(sidecar).read())
        assert meta["n"] == 32 and meta["m"] == 2

        # binary and CSV paths hold the same stream
        csv_path = tmp_path / "noise.csv"
        run(
            capsys,
            "noisegen",
            "--blt",
            blt_file,
            "--steps",
            "32",
            "--dim",
            "2",
            "--seed",
            "3",
            "--out",
            str(csv_path),
        )
        from_bin = np.fromfile(out_path, dtype="<f8").reshape(32, 2)
        from_csv = np.loadtxt(csv_path, delimiter=",", skiprows=1)[:, 1:]
        np.testing.assert_allclose(from_bin, from_csv, rtol=0, atol=0)

    def test_sigma_evaluated_once(self, capsys, tmp_path, monkeypatch):
        """The summary, the stream and the sidecar share one sensitivity call."""
        import bltnoise.streaming

        ra_path = str(tmp_path / "ra.json")
        build = ["build", "--method", "ra", "--degree", "5", "--steps", "500", "--out", ra_path]
        assert main(build) == 0
        capsys.readouterr()
        calls = []
        real = bltnoise.streaming.sensitivity_of

        def counting(fact, n):
            calls.append(n)
            return real(fact, n)

        monkeypatch.setattr(bltnoise.streaming, "sensitivity_of", counting)
        out_path = tmp_path / "noise.f64"
        code, out, _ = run(
            capsys,
            "noisegen",
            "--blt",
            ra_path,
            "--steps",
            "500",
            "--dim",
            "2",
            "--format",
            "f64",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert calls == [500]
        summary = json.loads(out)
        meta = json.loads(open(summary["sidecar"]).read())
        assert meta["sigma"] == summary["sigma"] == real(load_factorization(ra_path), 500)

    def test_prefix_mode_is_cumsum_of_per_step(self, capsys, tmp_path, blt_file):
        paths = {}
        for mode in ("per-step", "prefix"):
            paths[mode] = tmp_path / f"{mode}.csv"
            code, _, _ = run(
                capsys,
                "noisegen",
                "--blt",
                blt_file,
                "--steps",
                "40",
                "--dim",
                "3",
                "--seed",
                "11",
                "--mode",
                mode,
                "--out",
                str(paths[mode]),
            )
            assert code == 0
        per = np.loadtxt(paths["per-step"], delimiter=",", skiprows=1)[:, 1:]
        pre = np.loadtxt(paths["prefix"], delimiter=",", skiprows=1)[:, 1:]
        np.testing.assert_allclose(pre, np.cumsum(per, axis=0), atol=1e-12)

    def test_zeta_zero_writes_zeros(self, capsys, tmp_path, blt_file):
        out_path = tmp_path / "zero.csv"
        code, _, _ = run(
            capsys,
            "noisegen",
            "--blt",
            blt_file,
            "--steps",
            "8",
            "--dim",
            "1",
            "--zeta",
            "0.0",
            "--out",
            str(out_path),
        )
        assert code == 0
        vals = np.loadtxt(out_path, delimiter=",", skiprows=1)[:, 1:]
        np.testing.assert_array_equal(vals, 0.0)

    @pytest.mark.parametrize("zeta", ["nan", "inf"])
    def test_non_finite_zeta_exits_2(self, capsys, tmp_path, blt_file, zeta):
        out_path = tmp_path / "bad.csv"
        code, out, err = run(
            capsys, "noisegen", "--blt", blt_file, "--steps", "8", "--dim", "1",
            "--zeta", zeta, "--out", str(out_path),
        )
        assert code == 2
        assert "zeta" in err and out == ""
        assert not out_path.exists()


class TestVerify:
    @pytest.fixture()
    def blt_file(self, capsys, tmp_path):
        path = str(tmp_path / "base.json")
        assert (
            main(["build", "--method", "degree1", "--steps", "256", "--out", path]) == 0
        )
        capsys.readouterr()
        return path

    def test_passes(self, capsys, blt_file):
        code, out, _ = run(
            capsys, "verify", "--blt", blt_file, "--steps", "256", "--dim", "2"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "ok"
        assert rep["max_abs_deviation"] <= 1e-9

    def test_mismatch_exit_code(self, capsys, blt_file):
        code, out, _ = run(
            capsys,
            "verify",
            "--blt",
            blt_file,
            "--steps",
            "256",
            "--dim",
            "2",
            "--tol",
            "1e-18",
        )
        assert code == 3
        assert json.loads(out)["status"] == "mismatch"

    def test_past_the_old_cap(self, capsys, blt_file):
        code, out, _ = run(
            capsys, "verify", "--blt", blt_file, "--steps", "20000", "--dim", "2"
        )
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    @pytest.mark.parametrize(
        "steps, factor, code, status",
        [(16384, 1.0 + 1e-6, 0, "ok"), (20000, 1.0 + 1e-6, 3, "mismatch"), (20000, np.nan, 3, "mismatch")],
    )
    def test_state_defect_past_the_first_batch(self, capsys, monkeypatch, blt_file, steps, factor, code, status):
        # at m=2 a batch is 16,384 rows: the defect first shows at row 16,384
        assert streaming._batch_rows(2) == 16384
        kernel = streaming.lfilter

        def planted(T, P, Q, decay, z, S):
            if S.any():  # every batch but the first carries a nonzero state in
                S *= factor
            kernel(T, P, Q, decay, z, S)

        monkeypatch.setattr(streaming, "lfilter", planted)
        got, out, _ = run(
            capsys, "verify", "--blt", blt_file, "--steps", str(steps), "--dim", "2"
        )
        assert (got, json.loads(out)["status"]) == (code, status)

    @pytest.mark.parametrize("build", ["ra", "opt"])
    def test_long_stream(self, capsys, tmp_path, build):
        path = str(tmp_path / f"{build}.json")
        if build == "ra":
            argv = ["build", "--method", "ra", "--degree", "5", "--steps", "100000"]
            assert main(argv + ["--out", path]) == 0
        else:
            save_factorization(optimized_d5(), path)
        capsys.readouterr()
        code, out, _ = run(
            capsys, "verify", "--blt", path, "--steps", "100000", "--dim", "2"
        )
        assert code == 0
        rep = json.loads(out)
        assert (rep["n"], rep["status"]) == (100000, "ok")


class TestCompare:
    def test_methods_and_degrees(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--methods",
            "degree1,ra",
            "--degrees",
            "4,9",
            "--n-grid",
            "100,1000",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == (
            "method,degree,n,opt_lt_toe,mathias_ub,matousek_lb,bintree,"
            "mechanism_maxerr,ratio"
        )
        assert len(rows) == 6  # degree1 x 2 ns + ra x 2 degrees x 2 ns
        for r in rows:
            assert float(r[8]) == pytest.approx(float(r[7]) / float(r[3]), rel=1e-9)
        d1 = [r for r in rows if r[0] == "degree1"]
        assert {r[2] for r in d1} == {"100", "1000"}
        # the bounds fields are the `blt bounds` rows, character for character
        bounds = bounds_csv([100, 1000]).splitlines()[1:]
        assert {",".join(r[2:7]) for r in rows} == set(bounds)

    def test_opt_row_is_eval_of_optimized_factorization(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--methods", "opt", "--degrees", "1", "--n-grid", "100"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[:3] for r in rows] == [["opt", "1", "100"]]
        want = max_err(optimize_blt(OptConfig(degree=1, n=100)).factorization, 100)
        assert rows[0][7] == f"{want.max_err:.12g}"
        assert rows[0][8] == f"{want.max_err / want.bounds['opt_lt_toe']:.12g}"

    def test_low_degree_ra_skipped(self, capsys):
        code, out, err = run(
            capsys, "compare", "--methods", "ra", "--degrees", "2", "--n-grid", "100"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows == []
        assert "skipping" in err

    def test_unknown_method(self, capsys):
        code, _, _ = run(
            capsys, "compare", "--methods", "magic", "--degrees", "1", "--n-grid", "10"
        )
        assert code == 2


class TestRecursive:
    def make_base(self, capsys, tmp_path, steps):
        path = str(tmp_path / f"base{steps}.json")
        assert (
            main(["build", "--method", "degree1", "--steps", str(steps), "--out", path])
            == 0
        )
        capsys.readouterr()
        return path

    def test_dense_checked(self, capsys, tmp_path):
        base = self.make_base(capsys, tmp_path, 8)
        code, out, _ = run(capsys, "recursive", "--base", base, "--levels", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["n1"] == 8 and rep["n"] == 512
        assert rep["n_prime"] == 8 * 511 // 7
        B, C = dense_recursion(*blt_dense_pair(load_factorization(base), 8), 3)
        sens, row_norm = dense_norms(B, C)
        assert rep["sensitivity"] == pytest.approx(sens, rel=1e-12)
        assert rep["row_norm"] == pytest.approx(row_norm, rel=1e-12)
        assert rep["max_err"] == pytest.approx(sens * row_norm, rel=1e-12)

    def test_one_step_base_draws_one_row_per_level(self, capsys, tmp_path):
        base = str(tmp_path / "ra3.json")
        assert main(["build", "--method", "ra", "--degree", "3", "--steps", "1", "--out", base]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "recursive", "--base", base, "--levels", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["n1"] == 1 and rep["n"] == 1
        assert rep["n_prime"] == 3
        assert rep["row_norm"] == 1.0

    def test_bad_levels(self, capsys, tmp_path):
        base = self.make_base(capsys, tmp_path, 8)
        code, _, _ = run(capsys, "recursive", "--base", base, "--levels", "0")
        assert code == 2


class TestOptimize:
    def test_printed_ratio_is_eval_of_saved_file(self, capsys, tmp_path):
        out_path = str(tmp_path / "opt.json")
        code, out, _ = run(
            capsys, "optimize", "--degree", "3", "--steps", "10000",
            "--max-iters", "40", "--out", out_path,
        )
        assert code == 0
        info = json.loads(out)
        rep = max_err(load_factorization(out_path), 10_000)
        assert info["max_err"] == rep.max_err
        assert info["ratio"] == rep.max_err / opt_lt_toe(10_000)
        code, out, _ = run(capsys, "eval", "--blt", out_path)
        assert code == 0
        assert json.loads(out)["ratio_to_opt_lt_toe"] == info["ratio"]
        # compare's row for the same degree and horizon, to its printed digits
        code, out, _ = run(capsys, "compare", "--methods", "opt", "--degrees", "3", "--n-grid", "10000")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[-2:] == [f"{info['max_err']:.12g}", f"{info['ratio']:.12g}"]

    def test_stop_reason_printed_and_saved(self, capsys, tmp_path):
        out_path = str(tmp_path / "opt.json")
        code, out, _ = run(
            capsys, "optimize", "--degree", "3", "--steps", "10000", "--out", out_path
        )
        assert code == 0
        info = json.loads(out)
        assert info["stop_reason"] == "no_decrease"
        assert info["converged"] is False
        meta = load_factorization(out_path).meta
        assert meta["stop_reason"] == info["stop_reason"]
        assert meta["iterations"] == info["iterations"]

    def test_default_start_widens_where_the_ladder_collapses(self, capsys, tmp_path):
        # the ratio-1/4 ladder's theta_hat[17] rounds onto theta[17] at n = 10**6
        code, out, _ = run(
            capsys, "optimize", "--degree", "18", "--steps", "1000000",
            "--max-iters", "5", "--out", str(tmp_path / "opt.json"),
        )
        assert code == 0
        assert json.loads(out)["iterations"] == 5


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["bounds"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["bounds", "--n-max", "4", "--frobnicate"]) == 1
        # optimize is deterministic and takes no seed
        assert main(["optimize", "--degree", "1", "--steps", "8", "--seed", "0", "--out", "x"]) == 1


def _cap_address_space():
    """Cap a child's address space, so that a size that should fail at once
    and does not fails fast instead of filling the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


# the option that names the factorization file, for commands that read one
_FILE_FLAG = {"eval": "--blt", "noisegen": "--blt", "verify": "--blt", "recursive": "--base"}


class TestMalformedInputs:
    """Bad files and values exit with one ``error:`` line that names the
    field, never a traceback; run as a fresh interpreter, as a user runs it,
    under a 4 GiB address-space cap."""

    @pytest.mark.parametrize(
        "argv, edit, code, named",
        [
            (["eval"], lambda p: [1], 2, "JSON object"),
            (["eval"], lambda p: {**p, "meta": [1]}, 2, "meta must"),
            (["eval"], lambda p: {**p, "meta": {"method": ["ra"]}}, 2, "meta.method"),
            (["eval"], lambda p: {**p, "n": "1000"}, 2, "n must"),
            (["eval"], lambda p: {**p, "theta": None}, 2, "theta must"),
            (["eval"], lambda p: {**p, "theta": "abc"}, 2, "theta must"),
            (
                ["eval"],
                lambda p: {**p, "degree": 2, "theta": p["theta"][:2], "theta_hat": p["theta_hat"][:2]},
                2,
                "degree must be >= 3",
            ),
            (["noisegen", "--steps", "5", "--dim", "2"], lambda p: {**p, "degree": 2.0}, 2, "degree must"),
            # one past the largest horizon
            (["eval", "--steps", str(2**63)], None, 2, "--steps"),
            (["noisegen", "--steps", "5", "--dim", "0"], None, 2, "m must"),
            (["noisegen", "--steps", "5", "--dim", "2", "--seed", "-1"], None, 2, "seed must"),
            (["noisegen", "--steps", "5", "--dim", "2", "--zeta", "nan"], None, 2, "zeta must"),
            (["verify", "--steps", str(2**63), "--dim", "1"], None, 2, "--steps"),
            (["noisegen", "--steps", "abc", "--dim", "2"], None, 1, "--steps"),
            (["eval", "--steps"], None, 1, "--steps"),
            # an n that no array dimension can hold
            (["eval"], lambda p: {**p, "n": 10**30}, 2, "n must"),
            # a (5, 10**15) state array for the noise engine: fails at once too
            (["noisegen", "--steps", "10", "--dim", str(10**15), "--format", "f64"], None, 2, "Unable to allocate"),
            # csv too: the engine allocates before the m-wide header is built
            (["noisegen", "--steps", "10", "--dim", str(10**15)], None, 2, "Unable to allocate"),
            (["verify", "--steps", "8", "--dim", "1", "--tol", "-1"], None, 2, "--tol"),
            (["verify", "--steps", "8", "--dim", "1", "--tol", "nan"], None, 2, "--tol"),
            (["optimize", "--degree", "2", "--steps", "100", "--max-iters", "0"], None, 2, "max_iters"),
            (["optimize", "--degree", "2", "--steps", "100", "--max-iters", "-3"], None, 2, "max_iters"),
            (["bounds", "--n-max", str(2**63), "--log-grid", "3"], None, 2, "--n-max"),
            # a 1000-step base composed 7 times: a 10^21-step horizon
            (["recursive", "--levels", "7"], None, 2, "--levels"),
            (["optimize", "--degree", "2", "--steps", str(2**63)], None, 2, "n must"),
            (["compare", "--methods", "ra", "--degrees", "3", "--n-grid", "1000,0"], None, 2, "--n-grid"),
            (["compare", "--methods", "ra", "--degrees", "3", "--n-grid", str(2**63)], None, 2, "--n-grid"),
            (["compare", "--methods", "opt", "--degrees", "0", "--n-grid", "100"], None, 2, "--degrees"),
            # the default start's C-side roots round onto their poles even on
            # the widened ladder; the caller passed no init
            (["optimize", "--degree", "26", "--steps", str(10**16)], None, 2, f"geometric_ladder(degree=26, n={10**16})"),
            # a horizon below a construction's minimum names the flag
            (["optimize", "--degree", "2", "--steps", "1"], None, 2, "--steps"),
            (["build", "--method", "degree1", "--steps", "1"], None, 2, "--steps"),
            (["build", "--method", "ra", "--degree", "5", "--steps", "0"], None, 2, "--steps"),
            (["compare", "--methods", "opt", "--degrees", "3", "--n-grid", "1"], None, 2, "--n-grid"),
            (["compare", "--methods", "degree1", "--degrees", "1", "--n-grid", "1"], None, 2, "--n-grid"),
            (["noisegen", "--steps", "0", "--dim", "1"], None, 2, "--steps"),
            (["verify", "--steps", "0", "--dim", "1"], None, 2, "--steps"),
            (["noisegen", "--steps", str(2**63), "--dim", "1"], None, 2, "--steps"),
            # a one-step base: each level adds one draw, so only the level cap binds
            (
                ["recursive", "--levels", str(10**20)],
                lambda p: {"degree": 1, "theta": [0.5], "theta_hat": [0.75], "n": 1, "meta": {"method": "manual"}},
                2,
                "--levels",
            ),
            # at n = 10**16 even degree 1's root rounds onto its pole: the loss is +inf
            (["optimize", "--degree", "18", "--steps", str(10**16)], None, 2, f"geometric_ladder(degree=18, n={10**16})"),
        ],
    )
    def test_exit_code_and_named_field(self, tmp_path, argv, edit, code, named):
        path = tmp_path / "ra5.json"
        assert main(["build", "--method", "ra", "--degree", "5", "--steps", "1000", "--out", str(path)]) == 0
        if edit is not None:
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        if argv[0] in ("optimize", "build"):
            argv += ["--out", str(tmp_path / "out.json")]
        elif argv[0] in _FILE_FLAG:
            argv = [argv[0], _FILE_FLAG[argv[0]], str(path), *argv[1:]]
        if argv[0] == "noisegen":
            argv += ["--out", str(tmp_path / "noise.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(bltnoise.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bltnoise.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=_cap_address_space,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr
        if code == 2:
            assert proc.stdout == "" and proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1
            if edit is not None:
                assert str(path) in proc.stderr

    @pytest.mark.parametrize(
        "exc, line",
        [
            (TypeError("len() of unsized object"), "error: len() of unsized object"),
            (MemoryError("Unable to allocate 8 EiB"), "error: Unable to allocate 8 EiB"),
            (MemoryError(), "error: MemoryError"),
        ],
    )
    def test_type_and_memory_errors_exit_2(self, capsys, monkeypatch, tmp_path, exc, line):
        def failing(*args):
            raise exc

        monkeypatch.setattr(cli, "max_err", failing)
        path = tmp_path / "d1.json"
        assert main(["build", "--method", "degree1", "--steps", "8", "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(capsys, "eval", "--blt", str(path)) == (2, "", line + "\n")


class TestAnyHorizon:
    """The reference bounds cost O(1) at any n: ``eval`` and ``bounds`` at
    n = 2^62 run in a fresh interpreter under a 1 GiB address-space cap,
    where any length-n array fails to allocate."""

    @staticmethod
    def _cap_1gib():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def test_eval_and_bounds_at_2_62(self, tmp_path):
        path = tmp_path / "ra5.json"
        assert main(["build", "--method", "ra", "--degree", "5", "--steps", "1000", "--out", str(path)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(bltnoise.__file__).parents[1])}
        for argv in (
            ["eval", "--blt", str(path), "--steps", str(2**62)],
            ["bounds", "--n-max", str(2**62), "--log-grid", "40"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "bltnoise.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
                preexec_fn=self._cap_1gib,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1].startswith(f"{2**62},")

    def test_log_grid_keeps_both_ends_at_the_cap(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bounds", "--n-max", str(2**63 - 1), "--log-grid", "3")
        assert code == 0, err
        ns = [int(r[0]) for r in csv_rows(out)[1]]
        assert ns == [1, 3037000500, 2**63 - 1]


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            ["blt", "bounds", "--n-max", "3"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,opt_lt_toe")


class TestRoundTrip:
    def test_build_eval_noisegen_verify(self, capsys, tmp_path):
        blt_path = str(tmp_path / "ra5.json")
        assert (
            main(
                [
                    "build",
                    "--method",
                    "ra",
                    "--degree",
                    "5",
                    "--steps",
                    "2000",
                    "--out",
                    blt_path,
                ]
            )
            == 0
        )
        capsys.readouterr()

        code, out, _ = run(capsys, "eval", "--blt", blt_path, "--steps", "2000")
        assert code == 0
        assert json.loads(out)["ratio_to_opt_lt_toe"] < 2.5

        noise_path = str(tmp_path / "noise.csv")
        code, _, _ = run(
            capsys,
            "noisegen",
            "--blt",
            blt_path,
            "--steps",
            "64",
            "--dim",
            "3",
            "--out",
            noise_path,
        )
        assert code == 0

        code, out, _ = run(
            capsys, "verify", "--blt", blt_path, "--steps", "64", "--dim", "3"
        )
        assert code == 0
        assert json.loads(out)["status"] == "ok"
