"""The README's Python examples run as written against the package in ``src/``."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def python_blocks() -> list[tuple[int, str]]:
    """(line number, source) of every fenced ``python`` block in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start()) + 1, m.group(1)) for m in FENCE.finditer(text)]


def test_readme_has_python_examples():
    assert python_blocks()


@pytest.mark.parametrize("source", [pytest.param(source, id=f"README.md:{line}")
                                    for line, source in python_blocks()])
def test_example_runs(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
