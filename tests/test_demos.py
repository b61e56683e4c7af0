"""Golden demos: each script in demos/ runs cleanly and prints the same bytes.

The sha256 digests below were taken from the package before the exhaustive
oracle's N! enumeration was replaced by a subset recursion.  Demos 01 and 04
call that oracle; all four print floats that any change to a reported value
or its formatting would alter.  LINES pins each stdout line beside the
whole, taken at the same bytes, so a failure names the lines that moved.
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

LINES = {  # demo -> 16-hex sha256 prefix of each stdout line, in order
    "01_optimal_ordering.py": [
        "7f4d2d08badcaa54", "ebe04b6d6bf2853a", "5f7c7e707e7b69bf", "7f4250e4e4f0e244",
        "e3b0c44298fc1c14", "91847f28b6357001", "10e456694150cec2", "00530d4ed93cd82f",
        "e3b0c44298fc1c14", "0233f5ca02f81d84",
    ],
    "02_swap_penalties.py": [
        "68b63d79f8c42665", "ff915b978216b107", "e3b0c44298fc1c14", "1dc468f115c53925",
        "582fd41180a1306d", "e3b0c44298fc1c14", "3b5c28f4e23c3bfe", "8ffc4ab63375490d",
        "e3b0c44298fc1c14", "4190193963c98902", "5953153756386c0e",
    ],
    "03_penalty_bounds.py": [
        "5922800404c6589e", "e3b0c44298fc1c14", "d41645ce5f1f128e", "8e1ae6053ea0c658",
        "71e1a62818cda9e8", "e3b0c44298fc1c14", "aa529cd5a4f14380", "6efc6f2190e7e08d",
        "e3b0c44298fc1c14", "4a0f86fb365eabdc", "bb03553dacbe6869", "9a24dcec6ecc48aa",
        "e3b0c44298fc1c14", "dbf89af875464995",
    ],
    "04_simulation_and_verification.py": [
        "6b8829f14ae8404e", "3110e395a13325a4", "65c64733eb94a97b", "43f32fe757af4741",
        "e3b0c44298fc1c14", "e4842445161a3c7f", "bcc3b8a61b419bfb", "fcabf55dbdf8352e",
        "7a75ec2e4fa8b56c", "871632625eccb1ae", "89cb27b89a1afc45", "8fcd658a2ef16598",
        "b89d08fd8bc1dd5c", "0ddc796be70142b8", "9a53fe495877c553", "780d0d6f749aac1c",
        "568ddb678c170fc2", "e3b0c44298fc1c14", "71b35b3452a3e717", "891c1f3483697f02",
    ],
}


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == sorted(LINES) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_output_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(trialorder.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = [hashlib.sha256(line).hexdigest()[:16] for line in proc.stdout.splitlines()]
    moved = [i for i in range(1, max(len(lines), len(LINES[demo])) + 1)
             if lines[i - 1:i] != LINES[demo][i - 1:i]]
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[demo] and not moved, (
        f"{demo}: stdout lines moved: {', '.join(map(str, moved)) or 'none, only line ends'}")
