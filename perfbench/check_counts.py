"""Self-check: per-layer counts repeat exactly, and BENCHMARK.json matches the code.

    python3 perfbench/check_counts.py [--seed N]

Makes two traced runs at one seed (about three minutes) and fails if any
per-layer metric that is not a time differs between them, or is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def traced_metrics(seed):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("traced run failed its output checks:\n" + res.stdout)
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    from run import END_TO_END
    from workloads import layer_names

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    problems = []
    if declared != layer_names():
        problems.append("BENCHMARK.json per_layer differs from workloads.layer_names()")
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")

    first, second = traced_metrics(args.seed), traced_metrics(args.seed)
    counts = [name for name, unit, _ in layer_names() if unit != "s"]
    for name in counts:
        a, b = first.get(name, {}).get("value"), second.get(name, {}).get("value")
        if a is None or a != b:
            problems.append(f"{name}: {a!r} then {b!r}")
        else:
            print(f"ok {name} = {a!r}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
