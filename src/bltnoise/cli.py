"""Command-line front end: build, optimize, evaluate, stream, verify, compare.

Exit codes: 0 success, 1 usage error, 2 bad input or numerical failure,
3 verification mismatch.  Analysis outputs are CSV on stdout; factorizations
and noise go to files named by --out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .error_eval import (
    MECH_CSV_HEADER,
    bounds_csv,
    bounds_row,
    max_err,
    rownorm_of,
    sensitivity_of,
)
from .optimizer import OptConfig, optimize_blt
from .params import (
    _check_horizon,
    blt_coeffs,
    degree1_closed_form,
    load_factorization,
    save_factorization,
)
from .rational import ra_blt_build
from .recursive import _check_levels, comb_dense, comc_dense, recursive_norms
from .seq import MATRIX_CAP, ltt_apply_dense, ltt_dense, series_reciprocal
from .streaming import (
    PER_STEP,
    PREFIX,
    NoiseStreamConfig,
    _uniform_chunk,
    ndtri,
    noise_stream,
    write_noise_csv,
    write_noise_f64,
)

_VERIFY_CAP = 1 << 14


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _str_list(text: str):
    vals = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty list")
    return vals


def _int_list(text: str):
    return [int(tok) for tok in _str_list(text)]


def _check_flag(flag: str, n: int, tuned: bool = False) -> None:
    """The library's horizon rule on an option's value; the error names the option."""
    try:
        _check_horizon(n, tuned)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _cmd_bounds(args) -> int:
    _check_flag("--n-max", args.n_max)
    if args.log_grid < 0:
        raise ValueError("--log-grid must be >= 0")
    if args.log_grid:
        # rounded in float, clipped as Python ints: near 2**63 the float of
        # n_max exceeds any int64
        grid = np.round(np.geomspace(1, args.n_max, args.log_grid))
        ns = sorted({min(max(int(x), 1), args.n_max) for x in grid})
    else:
        ns = np.arange(1, args.n_max + 1)
    sys.stdout.write(bounds_csv(ns))
    return 0


def _cmd_build(args) -> int:
    if args.method == "ra":
        if args.degree is None:
            raise ValueError("--degree is required for --method ra")
        _check_flag("--steps", args.steps)
        fact = ra_blt_build(args.degree, args.steps)
    else:  # degree1
        if args.degree not in (None, 1):
            raise ValueError("--method degree1 only supports --degree 1")
        _check_flag("--steps", args.steps, tuned=True)
        fact = degree1_closed_form(args.steps)
    save_factorization(fact, args.out)
    print(
        json.dumps(
            {"out": args.out, "method": fact.method, "degree": fact.degree, "n": fact.n}
        )
    )
    return 0


def _cmd_optimize(args) -> int:
    _check_flag("--steps", args.steps, tuned=True)
    cfg = OptConfig(degree=args.degree, n=args.steps, max_iters=args.max_iters)
    res = optimize_blt(cfg)
    save_factorization(res.factorization, args.out)
    print(
        json.dumps(
            {
                "out": args.out,
                "degree": args.degree,
                "n": args.steps,
                "max_err": res.final_max_err,
                "ratio": res.factorization.meta["final_ratio"],
                "iterations": res.iterations,
                "converged": res.converged,
                "stop_reason": res.stop_reason,
            }
        )
    )
    return 0


def _cmd_eval(args) -> int:
    if args.steps is not None:
        _check_flag("--steps", args.steps)
    fact = load_factorization(args.blt)
    n = args.steps if args.steps is not None else fact.n
    rep = max_err(fact, n)
    print(json.dumps(rep.as_dict(), indent=2))
    return 0


def _cmd_noisegen(args) -> int:
    _check_flag("--steps", args.steps)
    fact = load_factorization(args.blt)
    kind = PER_STEP if args.mode == "per-step" else PREFIX
    cfg = NoiseStreamConfig(
        factorization=fact,
        n=args.steps,
        m=args.dim,
        seed=args.seed,
        zeta=args.zeta,
        output_kind=kind,
    )
    summary = {
        "out": args.out,
        "n": cfg.n,
        "m": cfg.m,
        "sigma": cfg.sigma,
        "mode": args.mode,
        "format": args.format,
    }
    if args.format == "csv":
        write_noise_csv(cfg, args.out)
    else:
        summary["sidecar"] = write_noise_f64(cfg, args.out, factorization_path=args.blt)
    print(json.dumps(summary))
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    _check_flag("--steps", args.steps)
    if args.steps > _VERIFY_CAP:
        raise ValueError(f"--steps is capped at {_VERIFY_CAP} for dense verification")
    fact = load_factorization(args.blt)
    n, m = args.steps, args.dim
    streamed = {}
    for kind in (PER_STEP, PREFIX):
        cfg = NoiseStreamConfig(fact, n, m, args.seed, 1.0, kind)
        streamed[kind] = np.vstack(list(noise_stream(cfg)))
    sigma = cfg.sigma
    bitgen = np.random.Philox(key=int(args.seed))
    z = ndtri(_uniform_chunk(bitgen, n * m)).reshape(n, m) * sigma
    r = blt_coeffs(fact.rational(), n).coeffs
    dense_per = ltt_apply_dense(r, z)
    dense_prefix = np.cumsum(dense_per, axis=0)
    dev = max(
        float(np.max(np.abs(streamed[PER_STEP] - dense_per))),
        float(np.max(np.abs(streamed[PREFIX] - dense_prefix))),
    )
    ok = dev <= args.tol
    print(
        json.dumps(
            {
                "n": n,
                "m": m,
                "seed": args.seed,
                "sigma": sigma,
                "max_abs_deviation": dev,
                "tol": args.tol,
                "status": "ok" if ok else "mismatch",
            }
        )
    )
    return 0 if ok else 3


def _cmd_compare(args) -> int:
    methods = args.methods
    for meth in methods:
        if meth not in ("ra", "opt", "degree1"):
            raise ValueError(f"unknown method {meth!r}")
    ns = args.n_grid
    tuned = "opt" in methods or "degree1" in methods
    for n in ns:
        _check_flag("--n-grid", n, tuned)
    if "opt" in methods and min(args.degrees) < 1:
        raise ValueError(f"--degrees must be >= 1 for --methods opt, got {min(args.degrees)}")
    lines = ["method,degree," + MECH_CSV_HEADER]

    def add_row(meth, d, n, fact):
        rep = max_err(fact, n)
        lines.append(f"{meth},{d},{bounds_row(n, rep.bounds)},{rep.max_err:.12g},{rep.ratio:.12g}")

    for meth in methods:
        if meth == "ra":
            for d in args.degrees:
                if d < 3:
                    print(f"compare: skipping ra degree {d} (needs >= 3)", file=sys.stderr)
                    continue
                fact = ra_blt_build(d, max(ns))
                for n in ns:
                    add_row(meth, d, n, fact)
        elif meth == "opt":
            for d in args.degrees:
                for n in ns:
                    add_row(meth, d, n, optimize_blt(OptConfig(degree=d, n=n)).factorization)
        else:
            for n in ns:
                add_row(meth, 1, n, degree1_closed_form(n))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_recursive(args) -> int:
    fact = load_factorization(args.base)
    levels, n1 = args.levels, fact.n
    try:
        n_prime = _check_levels(n1, levels)
    except ValueError as exc:
        raise ValueError(f"--levels with base {args.base}: {exc}") from None
    n_total = n1**levels
    sens1 = sensitivity_of(fact, n1)
    rn1 = rownorm_of(fact, n1)
    sens, rn_bound = recursive_norms(sens1, rn1, levels)
    out = {
        "base": args.base,
        "n1": n1,
        "levels": levels,
        "n": n_total,
        "n_prime": n_prime,
        "sensitivity": float(sens),
        "rownorm_bound": float(rn_bound),
        "max_err_bound": float(sens * rn_bound),
    }
    # the stacked C factor has n_prime rows, which is what the dense cap binds
    if max(n_total, n_prime) <= MATRIX_CAP:
        r = blt_coeffs(fact.rational(), n1).coeffs
        B = B1 = ltt_dense(np.cumsum(r))
        C = C1 = ltt_dense(series_reciprocal(r))
        for _ in range(levels - 1):
            B = comb_dense(B1, B)
            C = comc_dense(C1, C)
        prod = B @ C
        prod -= np.tri(n_total)
        dev = float(np.abs(prod, out=prod).max())
        out["checked_steps"] = n_total
        out["max_abs_deviation"] = dev
        out["status"] = "ok" if dev <= 1e-8 else "mismatch"
    else:
        out["status"] = "unchecked (dense size cap)"
    print(json.dumps(out, indent=2))
    return 3 if out["status"] == "mismatch" else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="blt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="CSV table of reference bounds over an n grid")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--log-grid", type=int, default=0, help="number of geometric grid points (default: every n)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("build", help="construct a factorization and write JSON")
    p.add_argument("--method", choices=("ra", "degree1"), required=True)
    p.add_argument("--degree", type=int)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("optimize", help="numerically minimize MaxErr for fixed n")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("eval", help="MaxErr report for a stored factorization")
    p.add_argument("--blt", required=True)
    p.add_argument("--steps", type=int)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("noisegen", help="generate the correlated noise stream")
    p.add_argument("--blt", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--mode", choices=("per-step", "prefix"), default="per-step")
    p.add_argument("--format", choices=("csv", "f64"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_noisegen)

    p = sub.add_parser("verify", help="streaming vs dense comparison (exit 3 on mismatch)")
    p.add_argument("--blt", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="ratio-to-optimal curves as CSV")
    p.add_argument("--degrees", type=_int_list, required=True)
    p.add_argument("--methods", type=_str_list, required=True)
    p.add_argument("--n-grid", type=_int_list, required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("recursive", help="recursive-composition norms and validity check")
    p.add_argument("--base", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.set_defaults(func=_cmd_recursive)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, TypeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
