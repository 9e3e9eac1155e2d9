"""The README's library quick start runs as written, and it names every
name the package root exports."""

import re
from pathlib import Path

import bltnoise

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_verbatim():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_export_is_documented():
    text = README.read_text(encoding="utf-8")
    assert [name for name in bltnoise.__all__ if not re.search(rf"`{name}\b", text)] == []
