"""Self-test of the benchmark: its reference, its failure counting and its refusal
to run without the package.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from trialorder import excess, oracle  # noqa: E402
from trialorder import (  # noqa: E402
    CandidateSet, ExpectationOptions, Ordering, expected_time, solomonoff_order,
)
from trialorder.excess import ExcessReport  # noqa: E402


def perturbed(real):
    """``general_swap_excess`` with ``total + 1e-3``, the mutation of acceptance criterion 9."""
    def wrapper(*args):
        rep = real(*args)
        return ExcessReport(k=rep.k, n=rep.n, q1=rep.q1, q2=rep.q2, q3=rep.q3,
                            total=rep.total + 1e-3, method=rep.method)
    return wrapper


def test_reference_matches_the_library_at_n8():
    recs = inputs.records(random.Random(7), 8, workloads.P_SMALL)
    p = [r["p"] for r in recs]
    t = reference.mean_times([r["times"] for r in recs])
    cset = CandidateSet.from_records(recs)
    order = solomonoff_order(cset)
    assert list(order.perm) == reference.order(p, t)
    no_tail = ExpectationOptions(include_failure_tail=False)
    for perm in (order.perm, tuple(reversed(order.perm))):
        ordering = Ordering(perm)
        assert reference.close(expected_time(cset, ordering),
                               reference.expected_time(p, t, perm), 1e-12)
        assert reference.close(expected_time(cset, ordering, no_tail),
                               reference.expected_time(p, t, perm, tail=False), 1e-12)
    assert reference.close(oracle.brute_force_best_order(cset).best_expected_time,
                           reference.optimum(p, t), 1e-12)


def test_large_n_counts_a_perturbed_excess_as_failed(tmp_path, monkeypatch):
    wl = workloads.LargeN(0, tmp_path, ROOT, pool=1)
    wl.setup()
    assert wl.op(1, None)[1] is None
    monkeypatch.setattr(excess, "general_swap_excess", perturbed(excess.general_swap_excess))
    problem = wl.op(2, None)[1]
    assert problem is not None and "general_swap_excess" in problem


def test_cli_cold_counts_a_perturbed_excess_as_failed(tmp_path):
    wl = workloads.CliCold(0, tmp_path, ROOT)
    wl.setup()
    i = next(i for i, op in enumerate(wl.ops) if op.label == "excess")
    assert wl.op(i, None)[1] is None
    stdout = wl.first_stdout[tuple(wl.ops[i].args)]
    doc = json.loads(stdout)
    doc["results"]["total"] += 1e-3
    problem = workloads.check_cli_output(wl.ops[i], json.dumps(doc).encode())
    assert problem is not None and "total" in problem


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "large_n", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
