"""Command-line front end: build, optimize, evaluate, stream, verify, compare.

Exit codes: 0 success, 1 usage error, 2 bad input or numerical failure,
3 verification mismatch (``blt verify``).  Analysis outputs are CSV on
stdout; factorizations and noise go to files named by --out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .error_eval import MECH_CSV_HEADER, bounds_csv, bounds_row, max_err
from .optimizer import OptConfig, optimize_blt
from .params import _int_arg, degree1_closed_form, load_factorization, save_factorization
from .rational import ra_blt_build
from .recursive import _draws, recursive_norms
from .streaming import (
    PER_STEP,
    PREFIX,
    NoiseStreamConfig,
    _noise_chunks,
    _uniform_chunk,
    ndtri,
    stream_init,
    stream_step,
    write_noise_csv,
    write_noise_f64,
)


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


def _cmd_bounds(args) -> int:
    _int_arg("--n-max", args.n_max)
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
        _int_arg("--steps", args.steps)
        fact = ra_blt_build(args.degree, args.steps)
    else:  # degree1
        if args.degree not in (None, 1):
            raise ValueError("--method degree1 only supports --degree 1")
        _int_arg("--steps", args.steps, least=2)
        fact = degree1_closed_form(args.steps)
    save_factorization(fact, args.out)
    print(
        json.dumps(
            {"out": args.out, "method": fact.method, "degree": fact.degree, "n": fact.n}
        )
    )
    return 0


def _cmd_optimize(args) -> int:
    _int_arg("--steps", args.steps, least=2)
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
        _int_arg("--steps", args.steps)
    fact = load_factorization(args.blt)
    n = args.steps if args.steps is not None else fact.n
    rep = max_err(fact, n)
    print(json.dumps(rep.as_dict(), indent=2))
    return 0


def _cmd_noisegen(args) -> int:
    _int_arg("--steps", args.steps)
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
    """Check every per-step and prefix row against the one-row form run over
    the seed's normals, batch by batch.  The reference shares only the draw
    and (theta, omega) with the engine, none of its block kernel."""
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    _int_arg("--steps", args.steps)
    fact = load_factorization(args.blt)
    n, m = args.steps, args.dim
    per, pre = (NoiseStreamConfig(fact, n, m, args.seed, 1.0, kind) for kind in (PER_STEP, PREFIX))
    bitgen = np.random.Philox(key=int(args.seed))
    state = stream_init(fact.rational(), m)
    dev, total = 0.0, np.zeros((1, m))
    # a batch stays valid until its own generator's next one is requested
    for (_, y), (_, p) in zip(_noise_chunks(per), _noise_chunks(pre)):
        z = ndtri(_uniform_chunk(bitgen, y.size)).reshape(y.shape) * per.sigma
        ref = np.array([stream_step(state, row) for row in z])
        total = total[-1] + np.cumsum(ref, axis=0)
        dev = float(np.max([dev, np.abs(y - ref).max(), np.abs(p - total).max()]))  # keeps a NaN
    ok = dev <= args.tol
    print(
        json.dumps(
            {
                "n": n,
                "m": m,
                "seed": args.seed,
                "sigma": per.sigma,
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
    least = 2 if "opt" in methods or "degree1" in methods else 1
    for n in ns:
        _int_arg("--n-grid", n, least)
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
        sens, row_norm = recursive_norms(fact, n1, levels)
    except ValueError as exc:
        raise ValueError(f"--levels with base {args.base}: {exc}") from None
    out = {
        "base": args.base,
        "n1": n1,
        "levels": levels,
        "n": n1**levels,
        "n_prime": _draws(n1, levels),
        "sensitivity": sens,
        "row_norm": row_norm,
        "max_err": sens * row_norm,
    }
    print(json.dumps(out, indent=2))
    return 0


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

    p = sub.add_parser("verify", help="check every streamed row against the one-row form (exit 3 on mismatch)")
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

    p = sub.add_parser("recursive", help="recursive-composition norms")
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
