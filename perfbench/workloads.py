"""The four workloads: seeded inputs, the child's arguments, and output checks.

Every check compares the program's output with a reference computed here from
public dense calls (``blt_coeffs``, ``ltt_apply_dense``, ``ltt_dense``,
``comb_dense``) or with a recorded constant.  Oracle time is spent in the
benchmark's own process and never enters a metric.

Each workload also names its per-layer metrics, read from one traced sample.
Times are self times in seconds; counts repeat exactly at one seed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import ndtri

import child

# sigma = zeta * ||C||_{1->2} of ra_blt_build(5, n) at zeta = 1, recorded from
# the direct O(n) sum.  It does not depend on the seed.
SIGMA_REF = {20_000: 6.904716687139125, 1_000_000: 47.35935894474876}
ABS_TOL = 1e-9  # noise values, as `blt verify` checks them
REL_TOL = 1e-9
OPT_RATIO_MAX = 1.02

# (name, unit, better, source): source "self K" / "calls K" reads the trace's
# self time or count K; "sample K" reads a value the checks or derive() set.
COMMON_LAYERS = [
    ("cli.import_s", "s", "lower", "self cli.import"),
    ("trace.overhead_s", "s", "lower", "sample overhead_s"),
    ("trace.gap_s", "s", "lower", "sample gap_s"),
]


def _uniforms(seed: int, count: int) -> np.ndarray:
    """Philox uniforms as the stream documents them: ((x >> 11) + 0.5) * 2^-53."""
    raw = np.random.Philox(key=seed).random_raw(count)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _max_dev(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


class Workload:
    values = None  # noise values per sample, for noise_values_per_s
    layers = []

    def derive(self, trace, sample):
        """Add per-layer values computed from the trace, untimed."""


class Noise(Workload):
    """``blt noisegen`` on an ``ra`` d=5 file built for n; f64 output."""

    degree = 5
    layers = [
        ("streaming.philox_s", "s", "lower", "self streaming.philox"),
        ("streaming.ndtri_s", "s", "lower", "self streaming.ndtri"),
        ("streaming.filter_s", "s", "lower", "self streaming.filter"),
        ("streaming.filter_calls", "count", "lower", "calls streaming.filter"),
        ("streaming.blocks", "count", "lower", "calls streaming.blocks"),
        ("streaming.other_s", "s", "lower", "self streaming.other"),
        ("streaming.write_s", "s", "lower", "self streaming.write"),
        ("streaming.bytes_written", "bytes", "lower", "sample bytes_written"),
        ("error_eval.sensitivity_calls", "count", "lower", "calls error_eval.sensitivity"),
        ("error_eval.sensitivity_s", "s", "lower", "self error_eval.sensitivity"),
        ("params.load_s", "s", "lower", "self params.load"),
        ("rational.build_s", "s", "lower", "self rational.build"),
        ("cli.self_s", "s", "lower", "self cli"),
    ]

    def __init__(self, name, n, m, mode, check_rows, why):
        self.name, self.n, self.m, self.mode = name, n, m, mode
        self.check_rows, self.why = check_rows, why
        self.values = n * m

    def params(self):
        return {"command": "noisegen", "method": "ra", "degree": self.degree,
                "steps": self.n, "dim": self.m, "mode": self.mode, "format": "f64",
                "checked_rows": self.check_rows}

    def prepare(self, seed, work):
        from bltnoise.params import blt_coeffs, load_factorization, save_factorization
        from bltnoise.rational import ra_blt_build
        from bltnoise.seq import ltt_apply_dense

        self.seed = seed
        self.blt = work / f"{self.name}.json"
        self.out = work / f"{self.name}.f64"
        save_factorization(ra_blt_build(self.degree, self.n), self.blt)
        # reference rows at sigma = 1; the stream is linear in sigma
        k, m = self.check_rows, self.m
        z = ndtri(_uniforms(seed, k * m)).reshape(k, m)
        r = blt_coeffs(load_factorization(self.blt).rational(), k).coeffs
        ref = ltt_apply_dense(r, z)
        self.ref = np.cumsum(ref, axis=0) if self.mode == "prefix" else ref

    def argv(self):
        return ["cli", "noisegen", "--blt", str(self.blt), "--steps", str(self.n),
                "--dim", str(self.m), "--mode", self.mode, "--format", "f64",
                "--seed", str(self.seed), "--out", str(self.out)]

    def check(self, sample):
        """Errors in the written stream; deletes it."""
        sidecar = self.out.with_name(self.out.name + ".json")
        try:
            meta = json.loads(sidecar.read_text())
            size = self.out.stat().st_size
            head = np.fromfile(self.out, dtype="<f8", count=self.check_rows * self.m)
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        finally:
            for path in (self.out, sidecar):
                if path.exists():
                    path.unlink()
        sample["bytes_written"] = size
        errors = []
        ref_sigma = SIGMA_REF[self.n]
        if abs(meta["sigma"] - ref_sigma) > REL_TOL * ref_sigma:
            errors.append(f"sigma {meta['sigma']!r} != recorded {ref_sigma!r}")
        if (meta["n"], meta["m"], meta["seed"]) != (self.n, self.m, self.seed):
            errors.append(f"sidecar n/m/seed {meta['n']}/{meta['m']}/{meta['seed']}")
        if size != self.values * 8:
            errors.append(f"file has {size} bytes, expected {self.values * 8}")
        elif (dev := _max_dev(head.reshape(-1, self.m), meta["sigma"] * self.ref)) > ABS_TOL:
            errors.append(f"first {self.check_rows} rows deviate by {dev:.3g} from the dense oracle")
        return errors


class Optimize(Workload):
    """``blt optimize --degree 5 --steps 100000``; deterministic, no seeded input."""

    name = "optimize"
    degree, n = 5, 100_000
    why = ("only optimizer and the closed forms of error_eval run, no streaming; "
           "opt_ratio guards quality")
    layers = [
        ("error_eval.sensitivity_calls", "count", "lower", "calls error_eval.sensitivity"),
        ("error_eval.sensitivity_s", "s", "lower", "self error_eval.sensitivity"),
        ("error_eval.rownorm_calls", "count", "lower", "calls error_eval.rownorm"),
        ("error_eval.rownorm_s", "s", "lower", "self error_eval.rownorm"),
        ("error_eval.geometric_prefix_calls", "count", "lower", "calls error_eval.geometric_prefix"),
        ("optimizer.iterations", "count", "lower", "sample iterations"),
        ("optimizer.loss_calls", "count", "lower", "calls optimizer.loss"),
        ("optimizer.loss_s", "s", "lower", "self optimizer.loss"),
        ("optimizer.gradient_calls", "count", "lower", "calls optimizer.gradient"),
        ("optimizer.gradient_s", "s", "lower", "self optimizer.gradient"),
        ("optimizer.search_s", "s", "lower", "self optimizer.search"),
        ("optimizer.backtracks", "count", "lower", "sample backtracks"),
        ("optimizer.useful_iter_frac", "frac", "higher", "sample useful_iter_frac"),
        ("optimizer.opt_ratio", "ratio", "lower", "sample opt_ratio"),
        ("cli.self_s", "s", "lower", "self cli"),
    ]

    def params(self):
        return {"command": "optimize", "degree": self.degree, "steps": self.n}

    def prepare(self, seed, work):
        self.out = work / "optimize.json"

    def argv(self):
        return ["cli", "optimize", "--degree", str(self.degree), "--steps", str(self.n),
                "--out", str(self.out)]

    def check(self, sample):
        from bltnoise.error_eval import max_err
        from bltnoise.params import load_factorization

        try:
            fact = load_factorization(self.out)
            printed = json.loads(sample["stdout"])
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        finally:
            if self.out.exists():
                self.out.unlink()
        rep = max_err(fact, self.n)
        ratio = rep.max_err / rep.bounds["opt_lt_toe"]
        sample["opt_ratio"] = ratio
        sample["iterations"] = printed["iterations"]
        errors = []
        if not ratio <= OPT_RATIO_MAX:
            errors.append(f"opt_ratio {ratio!r} > {OPT_RATIO_MAX}")
        if abs(printed["ratio"] - ratio) > REL_TOL * ratio:
            errors.append(f"printed ratio {printed['ratio']!r} != recomputed {ratio!r}")
        return errors

    def derive(self, trace, sample):
        from bltnoise.optimizer import OptConfig, loss

        events = trace["opt_events"]
        # a barrier-on loss call followed by another one was a rejected step;
        # the first call is the initial point
        sample["backtracks"] = sum(1 for a, b in zip(events[1:], events[2:]) if a == b == "L")
        # untimed: the loss at each point the search passed to gradient
        w = OptConfig(degree=self.degree, n=self.n).barrier_weight
        values = [loss(np.array(th), np.array(thh), self.n, w) for th, thh in trace["grad_points"]]
        useful = sum(1 for a, b in zip(values, values[1:]) if b < a)
        sample["useful_iter_frac"] = useful / max(1, len(values) - 1)


def consumption_perm(n1, levels):
    """Dense combined-B column of each noise row, in the order the stream draws them."""
    if levels == 1:
        return list(range(n1))
    inner = consumption_perm(n1, levels - 1)
    perm = []
    for b in range(n1):
        perm.extend(b * len(inner) + j for j in inner)
        perm.append(n1 * len(inner) + b)
    return perm


def recursive_oracle(B1, z, levels):
    """B_levels @ z for z in draw order, by the block recursion on dense B1.

    Level l splits z into n1 blocks of (inner draws, one carry draw); block b
    of the output is the inner result plus row b-1 of B1 @ carries.
    """
    n1 = B1.shape[0]
    if levels == 1:
        return B1 @ z
    lead, m = z.shape[:-2], z.shape[-1]
    blocks = z.reshape(*lead, n1, -1, m)
    out = recursive_oracle(B1, blocks[..., :-1, :], levels - 1)
    carry = B1 @ blocks[..., -1, :]
    out[..., 1:, :, :] += carry[..., :-1, None, :]
    return out.reshape(*lead, -1, m)


class Recursive(Workload):
    """``recursive_stream`` at theorem2_params(10**5) = (12, 51, 5), m = 64."""

    name = "recursive"
    n1, degree, levels, m = child.N1, child.DEGREE, child.LEVELS, child.M
    rows = n1**levels
    draws = n1 * (n1**levels - 1) // (n1 - 1)
    values = rows * m
    why = ("row-at-a-time stream_init/stream_step path that the chunked noise "
           "workloads never touch; no CLI command streams recursively")
    layers = [
        ("streaming.stream_step_calls", "count", "lower", "calls streaming.stream_step"),
        ("streaming.stream_step_s", "s", "lower", "self streaming.stream_step"),
        ("recursive.rows", "count", "higher", "calls recursive.rows"),
        ("recursive.noise_rows", "count", "lower", "calls recursive.noise_rows"),
        ("recursive.self_s", "s", "lower", "self recursive.self"),
        ("rational.build_s", "s", "lower", "self rational.build"),
    ]

    def params(self):
        return {"call": "recursive_stream", "n1": self.n1, "degree": self.degree,
                "levels": self.levels, "m": self.m, "rows": self.rows, "noise_rows": self.draws}

    def prepare(self, seed, work):
        from bltnoise.params import blt_coeffs
        from bltnoise.rational import ra_blt_build
        from bltnoise.recursive import blt_base_factory, comb_dense, recursive_stream
        from bltnoise.seq import ltt_dense

        z = np.random.default_rng(seed).standard_normal((self.draws, self.m))
        self.z_path, self.rows_path = work / "z.npy", work / "rows.npy"
        np.save(self.z_path, z)
        fact = ra_blt_build(self.degree, self.n1)
        B1 = ltt_dense(np.cumsum(blt_coeffs(fact.rational(), self.n1).coeffs))
        dense = {1: B1}
        for lv in (2, 3):
            dense[lv] = comb_dense(B1, dense[lv - 1])

        def dense_apply(lv):
            zs = z[: dense[lv].shape[1]]
            zd = np.empty_like(zs)
            zd[consumption_perm(self.n1, lv)] = zs
            return dense[lv] @ zd

        # the library stream and this oracle, each against comb_dense
        got = np.vstack(list(recursive_stream(blt_base_factory(fact, self.m), self.n1, 2, self.m, z)))
        self.errors = []
        for what, g, lv in (("levels-2 stream", got, 2),
                            ("levels-3 oracle", recursive_oracle(B1, z[: dense[3].shape[1]], 3), 3)):
            want = dense_apply(lv)
            if (dev := _max_dev(g, want)) > REL_TOL * max(1.0, float(np.max(np.abs(want)))):
                self.errors.append(f"{what} deviates by {dev:.3g} from comb_dense")
        self.idx = list(range(0, self.rows, child.SAMPLE_EVERY)) + [self.rows - 1]
        sumsq, kept = 0.0, []
        for c in range(0, self.m, 16):
            out = recursive_oracle(B1, z[:, c : c + 16], self.levels)
            sumsq += float(np.einsum("ij,ij->", out, out))
            kept.append(out[self.idx])
        self.ref_norm, self.ref_rows = math.sqrt(sumsq), np.hstack(kept)

    def argv(self):
        return ["recursive", str(self.z_path), str(self.rows_path)]

    def check(self, sample):
        try:
            rows = np.load(self.rows_path)
        except (OSError, ValueError) as exc:
            return list(self.errors) + [f"unreadable output: {exc}"]
        finally:
            if self.rows_path.exists():
                self.rows_path.unlink()
        rec = sample["report"]
        errors = list(self.errors)
        if rec.get("rows") != self.rows:
            errors.append(f"streamed {rec.get('rows')} rows, expected {self.rows}")
            return errors
        norm = math.sqrt(rec["sumsq"])
        if abs(norm - self.ref_norm) > REL_TOL * self.ref_norm:
            errors.append(f"output norm {norm!r} != oracle {self.ref_norm!r}")
        scale = max(1.0, float(np.max(np.abs(self.ref_rows))))
        if (dev := _max_dev(rows, self.ref_rows)) > REL_TOL * scale:
            errors.append(f"sampled rows deviate by {dev:.3g} from the oracle")
        return errors


WORKLOADS = {
    wl.name: wl
    for wl in (
        Noise("noise_wide", 20_000, 1_000, "prefix", 1_030,
              "chunked streaming engine dominates: Philox, ndtri, per-pole lfilter, "
              "prefix stage and f64 writer on 2e7 values; sigma is small"),
        Noise("noise_long", 1_000_000, 1, "per-step", 4_096,
              "sigma dominates: the O(n) ra sensitivity loop runs 3 times per command; "
              "one column, so column parallelism is bypassed"),
        Optimize(),
        Recursive(),
    )
}


def layer_values(wl, trace, sample):
    """Per-layer metrics of one traced sample, by unprefixed name."""
    wl.derive(trace, sample)
    tables = {"self": trace["self_s"], "calls": trace["calls"], "sample": sample}
    out = {}
    for name, _, _, source in wl.layers + COMMON_LAYERS:
        kind, key = source.split()
        out[name] = tables[kind].get(key, 0)
    return out


def layer_names():
    """Every per-layer metric as (name, unit, better), prefixed by workload."""
    return [(f"{wl.name}.{name}", unit, better)
            for wl in WORKLOADS.values() for name, unit, better, _ in wl.layers + COMMON_LAYERS]
