"""``tools/samecheck.py`` tells a moved error line from an identical run.

Two trees run the same two cheap commands: this checkout's ``src`` and a
copy with one error message reworded.  No git revision is checked out.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("samecheck", ROOT / "tools" / "samecheck.py")
samecheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samecheck)

COMMANDS = [
    ("bounds-3", ["bounds", "--n-max", "3"]),
    ("bad-log-grid", ["bounds", "--n-max", "3", "--log-grid", "-1"]),
]


@pytest.fixture()
def edited_tree(tmp_path):
    tree = tmp_path / "edited"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tree / "src" / "bltnoise" / "cli.py"
    text = cli.read_text()
    assert "--log-grid must be >= 0" in text
    cli.write_text(text.replace("--log-grid must be >= 0", "--log-grid must not be negative"))
    return tree


@pytest.mark.parametrize("changed, ok", [(set(), False), ({"bad-log-grid"}, True)])
def test_compare_reports_a_moved_error_line(monkeypatch, capsys, tmp_path, edited_tree, changed, ok):
    monkeypatch.setattr(samecheck, "COMMANDS", COMMANDS)
    work = tmp_path / "work"
    work.mkdir()
    assert samecheck.compare(ROOT, edited_tree, work, changed) is ok
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    marked = "bad-log-grid" in changed
    assert lines == [
        {"command": "bounds-3", "same": True, "marked": False, "differs": [], "exit": 0},
        {"command": "bad-log-grid", "same": False, "marked": marked, "differs": ["stderr"], "exit": 2},
    ]


def test_unknown_changed_name_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        samecheck.main(["--against", "HEAD", "--changed", "no-such-command"])
    assert exc.value.code == 2
    assert "--changed: unknown command(s) no-such-command" in capsys.readouterr().err
