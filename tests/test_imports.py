"""Which heavy modules each entry point loads, in a fresh interpreter.

scipy is only needed for the inverse normal CDF of the noise draws, so
importing the package or running a command that draws no noise must not load
any of it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY = ("scipy.signal", "scipy.linalg", "scipy.special")

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
    assert mods.isdisjoint(SCIPY)
    assert {"bltnoise.streaming", "bltnoise.rational", "bltnoise.recursive"} <= mods


def test_optimize_loads_no_scipy(tmp_path):
    body = (
        "from bltnoise import cli\n"
        "assert cli.main(['optimize', '--degree', '2', '--steps', '100', '--out', 'o.json']) == 0"
    )
    assert loaded(body, tmp_path).isdisjoint(SCIPY)


def test_noisegen_loads_scipy_special(tmp_path):
    body = (
        "from bltnoise import cli\n"
        "assert cli.main(['build', '--method', 'degree1', '--steps', '16', '--out', 'b.json']) == 0\n"
        "assert cli.main(['noisegen', '--blt', 'b.json', '--steps', '16', '--dim', '2', "
        "'--out', 'n.csv']) == 0"
    )
    mods = loaded(body, tmp_path)
    assert "scipy.special" in mods
    assert mods.isdisjoint({"scipy.signal", "scipy.linalg"})
