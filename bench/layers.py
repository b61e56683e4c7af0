"""Per-layer metrics of a traced run, measured from outside the package.

Each timing is the median over repeated calls of a public function, on inputs
generated from the run's seed:

* a grid of model/schedule/excess/bounds/cli functions at N in {8, 1e2, 1e4, 1e5};
* the exhaustive oracle at N = 8, 9, 10, the simulator, one check instance;
* cold start: bare interpreter, ``import trialorder.cli``, numpy's share of
  that import, and in-process ``cli.main`` for each cli_cold invocation;
* the spans of traced large_n ops.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from spans import Spans
from workloads import Lib, OpScope, analyse, child_env, cli_ops, p_range

SIZES = {"N8": 8, "N1e2": 100, "N1e4": 10_000, "N1e5": 100_000}
BUDGET_S = 0.25  # repeat a call until this much time is spent, at least MIN_REPS times
MIN_REPS = 3
COLD_REPS = 7  # fresh interpreters per cold-start metric
LARGE_N_SPANS = (
    "cli.ingest", "schedule.solomonoff_order", "schedule.expected_time",
    "schedule.expected_time_no_tail", "excess.general_swap_excess",
    "excess.exact_excess_direct", "excess.adjacent_swap_excess",
    "bounds.swap_excess_upper_general", "bounds.adjacent_excess_bounds", "cli.emit",
    "model.validate", "model.CandidateSet.from_records",
)


def median_s(fn, *args, min_reps: int = MIN_REPS, budget_s: float = BUDGET_S) -> float:
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def grid(lib: Lib, workdir: Path, seed: int):
    bounds, cli, excess, model, schedule = lib.bounds, lib.cli, lib.excess, lib.model, lib.schedule
    for tag, n in SIZES.items():
        rng = random.Random(f"grid-{seed}-{n}")
        recs = inputs.records(rng, n, p_range(n))
        inst = inputs.write(workdir / f"grid-{tag}.json", recs)
        cset = model.CandidateSet.from_records(recs)
        order = schedule.solomonoff_order(cset)
        band = bounds.BoundAssumptions(c=min(inst.p), d=max(inst.p), t_min=min(inst.t),
                                       t_max=max(inst.t), profile="general-upper")
        report, _ = analyse(lib, OpScope(None, "", 0), str(inst.path))
        calls = {
            "model.from_records": (model.CandidateSet.from_records, recs),
            "model.validate": (model.validate, recs),
            "schedule.solomonoff_order": (schedule.solomonoff_order, cset),
            "schedule.expected_time": (schedule.expected_time, cset, order),
            "schedule.failure_tail_term": (schedule.failure_tail_term, cset, order),
            "excess.general_swap_excess": (excess.general_swap_excess, cset, order, 1, n - 1),
            "excess.exact_excess_direct": (excess.exact_excess_direct, cset, order, 1, n - 1),
            "excess.adjacent_swap_excess": (excess.adjacent_swap_excess, cset, order, n - 1),
            "bounds.swap_excess_upper_general": (bounds.swap_excess_upper_general,
                                                 cset, order, 1, n - 1, band),
            "bounds.adjacent_excess_bounds": (bounds.adjacent_excess_bounds, cset, order, n - 1),
            "cli.ingest": (cli.ingest, str(inst.path), "json"),
            "cli.emit": (cli.emit, report, "json"),
        }
        for name, (fn, *args) in calls.items():
            yield f"{name}.{tag}_ms", median_s(fn, *args) * 1e3, "ms"


def oracle_layers(lib: Lib, seed: int):
    model, oracle = lib.model, lib.oracle
    rng = random.Random(f"oracle-{seed}")
    for n in (8, 9, 10):
        cset = model.CandidateSet.from_records(inputs.records(rng, n, p_range(n)))
        yield (f"oracle.brute_force_best_order.N{n}_ms",
               median_s(oracle.brute_force_best_order, cset) * 1e3, "ms")
    for tag, n, trials in (("N8", 8, 1_000_000), ("N1e2", 100, 100_000)):
        cset = model.CandidateSet.from_records(inputs.records(rng, n, p_range(n)))
        order = lib.schedule.solomonoff_order(cset)
        yield (f"oracle.simulate.{tag}_trials_per_s",
               trials / median_s(oracle.simulate, cset, order, trials, seed), "1/s")
    instances = 200
    config = oracle.VerificationConfig(instances=instances, seed=seed)
    yield ("oracle.verify_bounds_random.instance_ms",
           median_s(oracle.verify_bounds_random, config) * 1e3 / instances, "ms")


def _child(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-300:]}")
    return dt, proc


def cold_start(root: Path):
    env = child_env(root)
    py = sys.executable
    yield ("cli.interp_start_ms", statistics.median(
        _child([py, "-c", "pass"], env)[0] for _ in range(COLD_REPS)) * 1e3, "ms")
    probe = ("import sys, time; t = time.perf_counter(); import trialorder.cli; "
             "print(time.perf_counter() - t, int('numpy' in sys.modules))")
    runs = [_child([py, "-c", probe], env)[1].stdout.split() for _ in range(COLD_REPS)]
    yield "cli.import_ms", statistics.median(float(r[0]) for r in runs) * 1e3, "ms"
    yield "cli.numpy_loaded", max(int(r[1]) for r in runs), "count"
    numpy_us = []
    for _ in range(COLD_REPS):
        err = _child([py, "-X", "importtime", "-c", "import trialorder.cli"], env)[1].stderr
        # lines read "import time: <self us> | <cumulative us> | <indented name>"
        numpy_us.append(sum(int(line.split("|")[1]) for line in err.splitlines()
                            if line.startswith("import time:") and line.split("|")[2].strip()
                            == "numpy"))
    yield "cli.import_numpy_ms", statistics.median(numpy_us) / 1e3, "ms"


def cli_main(lib: Lib, workdir: Path, seed: int):
    """In-process ``cli.main`` for each cli_cold invocation on the JSON file."""
    for op in cli_ops(workdir, seed)[:9]:
        def run(args=op.args):
            with contextlib.redirect_stdout(io.StringIO()):
                code = lib.cli.main(args)
            if code != 0:
                raise RuntimeError(f"cli.main {args} exited {code}")
        yield f"cli.main.{op.label}_ms", median_s(run) * 1e3, "ms"


def large_n_spans(spans: Spans):
    for name in LARGE_N_SPANS:
        yield f"large_n.{name}.ms_per_op", spans.median_ms(name), "ms"
    yield "large_n.op.ms_per_op", spans.median_ms("large_n.op"), "ms"
    yield "large_n.op_self.ms_per_op", spans.median_self_ms("large_n.op"), "ms"


def measure(root: Path, workdir: Path, seed: int):
    workdir.mkdir()
    lib = Lib()
    yield from cold_start(root)
    yield from cli_main(lib, workdir, seed)
    yield from oracle_layers(lib, seed)
    yield from grid(lib, workdir, seed)
