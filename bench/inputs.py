"""Seeded candidate files for the benchmark, each with its reference values.

Floats are written with ``repr``, so the file round-trips exactly and the
reference sees the same numbers the program reads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import reference

MAX_SAMPLES = 3
T_RANGE = (0.1, 10.0)


@dataclass(frozen=True)
class Instance:
    """One candidate file and what the reference says about it."""

    path: Path
    digest: str
    ids: list[str]
    p: list[float]
    t: list[float]
    perm: list[int]
    E: float

    @property
    def N(self) -> int:
        return len(self.ids)


def records(rng: random.Random, n: int, p_range: tuple[float, float]) -> list[dict]:
    return [
        {"id": f"c{i + 1}", "p": rng.uniform(*p_range),
         "times": [rng.uniform(*T_RANGE) for _ in range(rng.randint(1, MAX_SAMPLES))]}
        for i in range(n)
    ]


def _encode(recs: list[dict], fmt: str) -> bytes:
    if fmt == "json":
        return json.dumps({"candidates": recs}).encode()
    lines = [["id", "p"] + [f"t{j + 1}" for j in range(MAX_SAMPLES)]]
    for r in recs:
        cells = [repr(x) for x in r["times"]]
        lines.append([r["id"], repr(r["p"])] + cells + [""] * (MAX_SAMPLES - len(cells)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    return buf.getvalue().encode()


def write(path: Path, recs: list[dict]) -> Instance:
    """Write ``recs`` as JSON or CSV, by the file's suffix, and compute its reference."""
    raw = _encode(recs, "csv" if path.suffix == ".csv" else "json")
    path.write_bytes(raw)
    p = [r["p"] for r in recs]
    t = reference.mean_times([r["times"] for r in recs])
    perm = reference.order(p, t)
    return Instance(path=path, digest=hashlib.sha256(raw).hexdigest(),
                    ids=[r["id"] for r in recs], p=p, t=t, perm=perm,
                    E=reference.expected_time(p, t, perm))
