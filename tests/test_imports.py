"""Which heavy modules each entry point loads, in a fresh interpreter.

The package runs on numpy alone: the inverse normal CDF of the noise draws is
in-tree, so neither importing the package nor running a command, including
the ones that draw noise, may load any scipy module.  scipy is a test-only
dependency, the independent oracle of ``helpers.reference_normals``.

The noise engine's worker thread is built on ``threading``, which the
interpreter has loaded already; importing the package and running
``optimize`` load no ``concurrent.futures``, so they pay nothing for it.

Importing the package loads numpy's BLAS with one thread, so the process has
no idle BLAS pool: on Linux, ``/proc/self/status`` then reads ``Threads: 1``.
A BLAS thread variable the caller set, or a numpy the caller imported first,
keeps its pool, and ``os.environ`` is the same after the import as before.
The noise bytes do not depend on the number of BLAS threads.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

PROBE = """
import json, os, sys
environ = dict(os.environ)
{body}
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as f:
        threads = next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
print(json.dumps({{
    "modules": sorted(m for m in sys.modules if m.startswith(("scipy.", "bltnoise.", "concurrent."))),
    "threads": threads,
    "environ_unchanged": dict(os.environ) == environ,
}}))
"""

needs_proc_status = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="thread count is read from /proc/self/status"
)
needs_two_cpus = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="a BLAS pool of 2 threads needs 2 CPUs"
)


def probe(body, tmp_path, **blas_env):
    """Run ``body`` in a fresh interpreter whose only BLAS thread variables are
    ``blas_env``; return its loaded modules, thread count and whether
    ``os.environ`` came out of ``body`` unchanged."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(body, tmp_path):
    return set(probe(body, tmp_path)["modules"])


def test_imports_load_no_scipy(tmp_path):
    mods = loaded("import bltnoise.cli\nimport bltnoise", tmp_path)
    assert not any(m.startswith("scipy.") for m in mods)
    assert "concurrent.futures" not in mods
    assert {"bltnoise.streaming", "bltnoise.rational", "bltnoise.recursive"} <= mods


def test_optimize_loads_no_scipy(tmp_path):
    body = (
        "from bltnoise import cli\n"
        "assert cli.main(['optimize', '--degree', '2', '--steps', '100', '--out', 'o.json']) == 0"
    )
    mods = loaded(body, tmp_path)
    assert not any(m.startswith("scipy.") for m in mods)
    assert "concurrent.futures" not in mods


def test_noisegen_and_verify_load_no_scipy(tmp_path):
    body = (
        "from bltnoise import cli\n"
        "assert cli.main(['build', '--method', 'degree1', '--steps', '16', '--out', 'b.json']) == 0\n"
        "assert cli.main(['noisegen', '--blt', 'b.json', '--steps', '16', '--dim', '2', "
        "'--out', 'n.csv']) == 0\n"
        "assert cli.main(['verify', '--blt', 'b.json', '--steps', '16', '--dim', '2']) == 0"
    )
    mods = loaded(body, tmp_path)
    assert "bltnoise.streaming" in mods
    assert not any(m.startswith("scipy.") for m in mods)


@needs_proc_status
def test_import_loads_blas_single_threaded(tmp_path):
    rec = probe("import bltnoise", tmp_path)
    assert rec["threads"] == 1
    assert rec["environ_unchanged"]


@needs_proc_status
@needs_two_cpus
@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_caller_blas_thread_variable_wins(tmp_path, var):
    rec = probe("import bltnoise", tmp_path, **{var: "2"})
    assert rec["threads"] == 2
    assert rec["environ_unchanged"]


@needs_proc_status
@needs_two_cpus
def test_numpy_imported_first_keeps_its_pool(tmp_path):
    alone = probe("import numpy", tmp_path)
    rec = probe("import numpy\nimport bltnoise", tmp_path)
    assert rec["threads"] == alone["threads"] >= 2
    assert rec["environ_unchanged"]


def test_noise_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 3001 x 300 runs the kernel's 64 x 64 by 64 x 128 GEMMs, which OpenBLAS
    # splits across a pool of 2
    body = (
        "from bltnoise import cli\n"
        "assert cli.main(['build', '--method', 'ra', '--degree', '5', '--steps', '3001', "
        "'--out', 'b.json']) == 0\n"
        "assert cli.main(['noisegen', '--blt', 'b.json', '--steps', '3001', '--dim', '300', "
        "'--mode', 'prefix', '--format', 'f64', '--out', 'n.f64']) == 0"
    )
    digests = []
    for threads in ("1", "2"):
        run = tmp_path / threads
        run.mkdir()
        probe(body, run, OPENBLAS_NUM_THREADS=threads)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run.iterdir()})
    assert set(digests[0]) == {"b.json", "n.f64", "n.f64.json"}
    assert digests[0] == digests[1]
