"""Check that this checkout's ``blt`` output is byte-identical to a revision's.

    python tools/samecheck.py --against REV [--changed NAME ...]

REV is checked out with ``git worktree add`` into a temporary directory, and
the worktree is removed on exit.  Each command in ``COMMANDS`` runs from both
trees, as ``python -m bltnoise.cli`` (or ``python -c`` for the in-process
shard) with that tree's ``src`` on ``PYTHONPATH``, in a per-tree work
directory.  The check compares the exit code and the sha256 of stdout, of
stderr (with the tree's root path replaced by ``<tree>``) and of every file
the command writes, sidecars included.  A command that runs past
``TIMEOUT`` seconds is killed; a side that timed out is listed under
``timed_out`` and the command is never reported the same.  It prints one JSON
line per command and exits 1 when a command differs that ``--changed`` does
not mark.
``--changed NAME`` marks a command whose output the change means to move,
such as a bad-input command whose error line is reworded; the report names
every marked command, and a marked command does not fail the check.

The noise bytes depend on the BLAS kernel and on numpy's SIMD ``log``, so
compare two revisions on one machine, never against stored digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# seconds per command run, well above the slowest row (a few seconds)
TIMEOUT = 60

SHARD = """
import sys
from bltnoise import NoiseStreamConfig, load_factorization, noise_stream
import numpy as np
cfg = NoiseStreamConfig(load_factorization("ra5.json"), n=3000, m=300, seed=11, zeta=1.0)
rows = np.array(list(noise_stream(cfg, columns=[3, 127, 128, 250, 299])))
sys.stdout.buffer.write(rows.tobytes())
"""

# the library's recursive streamer at sizes where both the batched block
# (levels 1-2) and the carry recursion (level 3) run, from an array and from
# an iterator over the same rows
RECURSIVE_STREAM = """
import sys
import numpy as np
from bltnoise import blt_base_factory, ra_blt_build, recursive_stream
base = blt_base_factory(ra_blt_build(5, 12), 64)
z = np.random.default_rng(7).standard_normal((1884, 64))
for source in (z, iter(z)):
    rows = np.array(list(recursive_stream(base, 12, 3, 64, source)))
    sys.stdout.buffer.write(rows.tobytes())
"""

# a factorization file with one bad field, then ``blt eval`` on it
BAD_FILE = """
import json, sys
from bltnoise.cli import main
bad = {"degree": 1, "theta": [0.5], "theta_hat": [0.75], "n": 100, "meta": {"method": "x"}}
with open("bad.json", "w") as fh:
    json.dump(bad, fh)
sys.exit(main(["eval", "--blt", "bad.json"]))
"""

# a one-step manual base, then ``blt recursive`` composing it 10**20 times
ONE_STEP_BASE = """
import json, sys
from bltnoise.cli import main
base = {"degree": 1, "theta": [0.5], "theta_hat": [0.75], "n": 1, "meta": {"method": "manual"}}
with open("n1.json", "w") as fh:
    json.dump(base, fh)
sys.exit(main(["recursive", "--base", "n1.json", "--levels", str(10**20)]))
"""

# a two-step degree1 base composed 11 times: n = 2048, n_prime = 4094 rows
DEGREE1_2X11 = """
import sys
from bltnoise.cli import main
main(["build", "--method", "degree1", "--steps", "2", "--out", "d1-2.json"])
sys.exit(main(["recursive", "--base", "d1-2.json", "--levels", "11"]))
"""

# (name, argv): argv for ``blt``, or ("-c", source) for a Python snippet.
# The build commands write the factorization files that later commands read.
COMMANDS = [
    ("build-ra5", ["build", "--method", "ra", "--degree", "5", "--steps", "20000", "--out", "ra5.json"]),
    ("build-ra9", ["build", "--method", "ra", "--degree", "9", "--steps", "1000000", "--out", "ra9.json"]),
    ("build-ra3", ["build", "--method", "ra", "--degree", "3", "--steps", "12", "--out", "ra3.json"]),
    ("build-degree1", ["build", "--method", "degree1", "--steps", "300", "--out", "d1.json"]),
    ("noisegen-f64-prefix-20000x1000",
     ["noisegen", "--blt", "ra5.json", "--steps", "20000", "--dim", "1000", "--mode", "prefix",
      "--format", "f64", "--out", "wide.f64"]),
    ("noisegen-f64-prefix-20000x130",
     ["noisegen", "--blt", "ra5.json", "--steps", "20000", "--dim", "130", "--mode", "prefix",
      "--format", "f64", "--out", "w130.f64"]),
    ("noisegen-f64-per-step-1000000x1",
     ["noisegen", "--blt", "ra9.json", "--steps", "1000000", "--dim", "1", "--format", "f64",
      "--out", "long.f64"]),
    ("noisegen-csv-per-step-300x3",
     ["noisegen", "--blt", "d1.json", "--steps", "300", "--dim", "3", "--out", "ps.csv"]),
    ("noisegen-csv-prefix-300x3",
     ["noisegen", "--blt", "d1.json", "--steps", "300", "--dim", "3", "--mode", "prefix", "--out", "pf.csv"]),
    ("noisegen-csv-zeta0",
     ["noisegen", "--blt", "d1.json", "--steps", "300", "--dim", "3", "--zeta", "0", "--out", "z0.csv"]),
    ("noisegen-f64-zeta0",
     ["noisegen", "--blt", "ra5.json", "--steps", "2000", "--dim", "130", "--zeta", "0", "--format", "f64",
      "--out", "z0.f64"]),
    ("noisegen-f64-seed-max",
     ["noisegen", "--blt", "ra5.json", "--steps", "2000", "--dim", "130", "--seed", str(2**64 - 1),
      "--format", "f64", "--out", "smax.f64"]),
    ("noisegen-csv-seed-max",
     ["noisegen", "--blt", "d1.json", "--steps", "300", "--dim", "3", "--seed", str(2**64 - 1),
      "--out", "smax.csv"]),
    ("shard-300", ["-c", SHARD]),
    ("eval-ra5-2**50", ["eval", "--blt", "ra5.json", "--steps", str(2**50)]),
    ("verify", ["verify", "--blt", "ra5.json", "--steps", "2000", "--dim", "3"]),
    ("verify-past-cap", ["verify", "--blt", "ra5.json", "--steps", "20000", "--dim", "2"]),
    ("recursive", ["recursive", "--base", "ra3.json", "--levels", "3"]),
    ("recursive-stream", ["-c", RECURSIVE_STREAM]),
    ("recursive-degree1-2x11", ["-c", DEGREE1_2X11]),
    ("bounds-4096", ["bounds", "--n-max", "4096"]),
    ("bounds-log-grid", ["bounds", "--n-max", str(10**12), "--log-grid", "60"]),
    ("compare", ["compare", "--methods", "opt,ra,degree1", "--degrees", "3,5", "--n-grid", "1000,100000"]),
    ("optimize-d3", ["optimize", "--degree", "3", "--steps", "2000", "--out", "opt3.json"]),
    ("optimize-d5", ["optimize", "--degree", "5", "--steps", "100000", "--out", "opt5.json"]),
    ("optimize-d10", ["optimize", "--degree", "10", "--steps", "100000", "--out", "opt10.json"]),
    # a high-degree search whose line search backtracks past one batch
    ("optimize-d12", ["optimize", "--degree", "12", "--steps", "1000000", "--max-iters", "60", "--out", "opt12.json"]),
    # a start whose ratio-1/4 ladder collapses: the widened ladder runs
    ("optimize-d18", ["optimize", "--degree", "18", "--steps", "1000000", "--max-iters", "20", "--out", "opt18.json"]),
    # bad input: exit 2 and one error line on stderr
    ("bad-file-eval", ["-c", BAD_FILE]),
    ("optimize-max-iters-0", ["optimize", "--degree", "2", "--steps", "100", "--max-iters", "0", "--out", "x.json"]),
    ("noisegen-dim-0", ["noisegen", "--blt", "d1.json", "--steps", "5", "--dim", "0", "--out", "x.csv"]),
    # even one root rounds onto its pole
    ("optimize-ladder-collapse", ["optimize", "--degree", "1", "--steps", str(10**16), "--out", "x.json"]),
    ("compare-degree1-n-1", ["compare", "--methods", "degree1", "--degrees", "1", "--n-grid", "1"]),
    # one past the largest horizon; an unbounded stream goes to /dev/null
    ("noisegen-steps-2**63",
     ["noisegen", "--blt", "ra5.json", "--steps", str(2**63), "--dim", "1", "--out", "/dev/null"]),
    ("eval-empty-file", ["eval", "--blt", "/dev/null"]),
    ("recursive-n1-levels", ["-c", ONE_STEP_BASE]),
    # a degree whose theta_hat moves if the zeros' bisection uses numpy's exp
    ("build-ra22", ["build", "--method", "ra", "--degree", "22", "--steps", "1000", "--out", "ra22.json"]),
]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run(tree: Path, work: Path, argv: list) -> dict:
    """Run one command from ``tree`` in ``work``; return the digests of its
    exit code, stdout, stderr and the files it wrote.  Files that no build
    command wrote are deleted after hashing, so the large noise files do not
    pile up."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    before = {p.name: p.stat().st_mtime_ns for p in work.iterdir()}
    cmd = [sys.executable] + (argv if argv[0] == "-c" else ["-m", "bltnoise.cli"] + argv)
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=TIMEOUT)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = "timeout", exc.stdout or b"", exc.stderr or b""
    digests = {
        "exit": code,
        "stdout": hashlib.sha256(stdout).hexdigest(),
        "stderr": hashlib.sha256(stderr.replace(str(tree).encode(), b"<tree>")).hexdigest(),
    }
    for p in sorted(work.iterdir()):
        if before.get(p.name) != p.stat().st_mtime_ns:
            digests[p.name] = _sha256(p)
            if argv[0] != "build":
                p.unlink()
    return digests


def compare(rev_tree: Path, head_tree: Path, work: Path, changed: set) -> bool:
    """Run every command from both trees and print one JSON line each; return
    whether every unmarked command was identical."""
    rev_work, head_work = work / "rev", work / "head"
    rev_work.mkdir()
    head_work.mkdir()
    ok = True
    for name, argv in COMMANDS:
        rev = run(rev_tree, rev_work, argv)
        head = run(head_tree, head_work, argv)
        differs = sorted(k for k in rev.keys() | head.keys() if rev.get(k) != head.get(k))
        timed_out = [side for side, d in (("rev", rev), ("head", head)) if d["exit"] == "timeout"]
        same = not differs and not timed_out
        marked = name in changed
        ok &= marked or same
        line = {"command": name, "same": same, "marked": marked, "differs": differs, "exit": head["exit"]}
        if timed_out:
            line["timed_out"] = timed_out
        print(json.dumps(line), flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--changed", action="append", default=[], metavar="NAME",
                        help="a command whose output the change means to move (repeatable)")
    args = parser.parse_args(argv)
    names = {name for name, _ in COMMANDS}
    unknown = sorted(set(args.changed) - names)
    if unknown:
        parser.error(f"--changed: unknown command(s) {', '.join(unknown)}; known: {', '.join(sorted(names))}")
    with tempfile.TemporaryDirectory(prefix="samecheck-") as tmp:
        rev_tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(rev_tree),
                        args.against], check=True)
        try:
            ok = compare(rev_tree, ROOT, Path(tmp), set(args.changed))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(rev_tree)], check=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
