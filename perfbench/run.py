"""bltnoise benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample is a fresh interpreter running the
program from ``src`` (see child.py), so import cost, memory and the program's
caches are what a user's first run sees.  Samples run one at a time until
--seconds of sampling is used; the metrics are medians over them.  Each
sample's output is checked against a reference (see workloads.py).

--workload all interleaves samples of every workload, so that host drift hits
all of them alike, for --seconds per workload.  --trace 1 runs one untraced
and one traced sample of every workload, because each per-layer metric belongs
to one workload, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it describe the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # a run must end within 180 s
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


def run_sample(wl, work, trace, timeout):
    """One child process; returns its timings, rusage, report and check errors."""
    report = work / "report.json"
    if report.exists():
        report.unlink()
    cmd = [sys.executable, str(HERE / "child.py"), str(report), str(trace), *wl.argv()]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout", "w+") as out, open(work / "stderr", "w+") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    sample = {
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rc": proc.returncode,
        "stdout": stdout,
        "t_spawn": t0,
        "t_exit": t1,
    }
    try:
        rec = json.loads(report.read_text())
    except (OSError, ValueError):
        rec = {}
    sample["report"] = rec
    if proc.returncode != 0 or not rec.get("t_first"):
        tail = stderr.strip().splitlines()[-3:]
        sample["errors"] = [f"exit code {proc.returncode}: {' | '.join(tail)}"]
        return sample
    sample["setup_s"] = rec["t_first"] - t0
    sample["peak_rss_mb"] = rec["peak_rss_mb"]
    if wl.values:
        sample["noise_values_per_s"] = wl.values / (sample["wall_s"] - sample["setup_s"])
    sample["errors"] = wl.check(sample)
    return sample


def high_percentile(values):
    """(label, value) of the highest percentile with ten samples beyond it, else the max."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    q = 1.0 - 10.0 / n
    pct = int(q * 100)
    return f"p{pct}", statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(samples):
    """Median, high percentile and count of every end-to-end metric."""
    rows = {}
    for name, unit in END_TO_END + [("noise_values_per_s", "1/s"), ("opt_ratio", "ratio")]:
        vals = [s[name] for s in samples if name in s]
        if vals:
            label, high = high_percentile(vals)
            rows[name] = {"median": statistics.median(vals), "high": high,
                          "high_label": label, "n": len(vals), "unit": unit}
    failed = sum(1 for s in samples if s["errors"])
    rows["failed_frac"] = {"median": failed / len(samples), "n": len(samples), "unit": "frac"}
    return rows


def print_summary(name, rows, samples):
    for metric, row in rows.items():
        high = f"  {row['high_label']} {row['high']:.8g}" if "high" in row else ""
        print(f"{name:<11} {metric:<19} median {row['median']:.8g} {row['unit']}{high}  n={row['n']}")
    for s in samples:
        for err in s["errors"]:
            print(f"{name:<11} FAILED: {err}")


def trace_metrics(wl, plain, traced):
    """Per-layer metrics of one workload from a traced and an untraced sample."""
    from workloads import layer_values

    rec = traced["report"]
    tr = rec["trace"]
    traced["overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # outside every span: interpreter start-up and exit, then whatever the
    # child's Python did between spans (the coverage gap)
    startup = rec["t_start"] - traced["t_spawn"]
    teardown = traced["t_exit"] - rec["t_done"]
    traced["gap_s"] = gap = traced["wall_s"] - startup - teardown - tr["top_s"]
    flag = "  (GAP: a layer boundary is missing)" if abs(gap) > 0.02 * traced["wall_s"] else ""
    print(f"coverage {wl.name}: traced wall_s {traced['wall_s']:.4f} = interpreter start "
          f"{startup:.4f} + spans {tr['top_s']:.4f} + exit {teardown:.4f} + gap {gap:.4f}{flag}")
    return layer_values(wl, tr, traced)


def machine_config(args, workloads):
    def git_commit():
        if not (ROOT / ".git").exists():
            return "unknown (not a git checkout)"
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return res.stdout.strip() or "unknown"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": {wl.name: wl.params() for wl in workloads},
        "git_commit": git_commit(), "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.monotonic()
    # on SIGTERM, unwind so that the running sample is killed and the work
    # directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "bltnoise" / "__init__.py").is_file():
        print(f"error: no bltnoise package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        workloads = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        workloads = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.trace:
        workloads = list(WORKLOADS.values())
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")

    print("config " + json.dumps(machine_config(args, workloads)))
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    samples = {wl.name: [] for wl in workloads}
    layer, traced_samples = {}, []
    try:
        for wl in workloads:
            wl.prepare(args.seed, work)

        def timeout():
            return max(5.0, DEADLINE_S - (time.monotonic() - t_begin))

        if args.trace:
            for wl in workloads:
                plain = run_sample(wl, work, 0, timeout())
                traced = run_sample(wl, work, 1, timeout())
                samples[wl.name].append(plain)
                traced_samples.append((wl.name, traced))
                if not (plain["errors"] or traced["errors"]):
                    for name, value in trace_metrics(wl, plain, traced).items():
                        layer[f"{wl.name}.{name}"] = value
        else:
            # round-robin until another round would overrun the budget
            budget = min(args.seconds * len(workloads), DEADLINE_S)
            while True:
                for wl in workloads:
                    samples[wl.name].append(run_sample(wl, work, 0, timeout()))
                longest = sum(max(s["wall_s"] for s in samples[w.name]) for w in workloads)
                if time.monotonic() - t_begin + longest > budget:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = [s for v in samples.values() for s in v] + [s for _, s in traced_samples]
    attempted, failed = len(everything), sum(1 for s in everything if s["errors"])
    for name, sample in traced_samples:
        for err in sample["errors"]:
            print(f"{name:<11} FAILED (traced): {err}")
    metrics = {}
    for wl in workloads:
        rows = summarize(samples[wl.name])
        print_summary(wl.name, rows, samples[wl.name])
        if not args.trace:
            prefix = "" if len(workloads) == 1 else f"{wl.name}."
            for name, unit in END_TO_END:
                if name in rows:
                    metrics[prefix + name] = {"value": rows[name]["median"], "unit": unit}
    if args.trace:
        from workloads import layer_names

        for name, unit, _ in layer_names():
            if name in layer:
                metrics[name] = {"value": layer[name], "unit": unit}
                print(f"layer {name:<44} {layer[name]:.8g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
