"""Which heavy modules each entry point loads, in a fresh interpreter.

The package runs on numpy alone: the inverse normal CDF of the noise draws is
in-tree, so neither importing the package nor running a command, including
the ones that draw noise, may load any scipy module.  scipy is a test-only
dependency, the independent oracle of ``helpers.reference_normals``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("scipy.", "bltnoise.")))))
"""


def loaded(body, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_imports_load_no_scipy(tmp_path):
    mods = loaded("import bltnoise.cli\nimport bltnoise", tmp_path)
    assert not any(m.startswith("scipy.") for m in mods)
    assert {"bltnoise.streaming", "bltnoise.rational", "bltnoise.recursive"} <= mods


def test_optimize_loads_no_scipy(tmp_path):
    body = (
        "from bltnoise import cli\n"
        "assert cli.main(['optimize', '--degree', '2', '--steps', '100', '--out', 'o.json']) == 0"
    )
    assert not any(m.startswith("scipy.") for m in loaded(body, tmp_path))


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
