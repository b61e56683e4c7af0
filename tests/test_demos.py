"""Golden demos: each script in demos/ runs cleanly and prints the same bytes.

The sha256 digests below were taken from the package before the exhaustive
oracle's N! enumeration was replaced by a subset recursion.  Demos 01 and 04
call that oracle; all four print floats that any change to a reported value
or its formatting would alter.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trialorder

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOLDEN = {
    "01_optimal_ordering.py": "0b24d300d9a21dc7fb02638aee71ccb197c2d35973ee5e85784b2ec97f45be49",
    "02_swap_penalties.py": "8b1396d97468b41069fb46ba8094375f9c3e39ab430757b9ad77d30a4201141c",
    "03_penalty_bounds.py": "a9d78ef4ab1e4b007c1302b3eab3a2ab2bd11793ef430666ac3454a38333e96a",
    "04_simulation_and_verification.py":
        "2bfc6ec4850497e80dfe34413494a9e25467b3f7e0b400a12e07269530d1df6d",
}


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_output_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(trialorder.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[demo]
