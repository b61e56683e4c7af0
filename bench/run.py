"""trialorder benchmark: two seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload cli_cold|large_n --seed N --seconds S --trace 0|1

Workloads (see workloads.py):

* cli_cold  one ``python -m trialorder.cli ... --format json`` process per op,
            on seeded N=8 inputs;
* large_n   one in-process analysis of a seeded N=10^4 file per op.

Every output is checked against the benchmark's own reference; an op that
fails, raises or disagrees counts in ``failed``.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
``--trace 0`` gives the end-to-end metrics, measured with tracing off;
``--trace 1`` gives the per-layer metrics of layers.py, the workload's
median latency of its untraced ops, its tracing overhead and the spans of
a traced large_n sample, which are also written to .bench_out/.  A summary
goes to stderr.
"""

from __future__ import annotations

import os

# BLAS threads would blur timings on a small machine; children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5  # set-ups per untraced run: this process's own, plus fresh processes
LARGE_N_SPAN_OPS = 5  # traced large_n ops sampled by traced runs of other workloads


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Phase:
    """Latencies and failures of timed ops, and the wall and CPU time they took."""

    def __init__(self) -> None:
        self.lat: list[float] = []
        self.problems: list[str] = []
        self.wall = 0.0
        self.cpu = 0.0

    def record(self, dt: float, problem: str | None) -> None:
        self.lat.append(dt)
        if problem:
            self.problems.append(problem)


def timed_phase(wl, seconds: float) -> Phase:
    """Run ops back to back for ``seconds``, tracing off."""
    phase = Phase()
    i = 1
    cpu0 = wl.cpu_s()
    start = time.perf_counter()
    while i == 1 or time.perf_counter() < start + seconds:
        phase.record(*wl.op(i, None))
        i += 1
    phase.wall = time.perf_counter() - start
    phase.cpu = wl.cpu_s() - cpu0
    return phase


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of ``workload`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.splitlines()[-1])


def end_to_end(wl, args, phase: Phase, setup_s: float) -> dict:
    samples = [setup_s] + [setup_probe(wl.name, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    n = len(phase.lat)
    lat_ms = [x * 1e3 for x in phase.lat]
    # The median is not an end-to-end metric: on a host whose speed switches
    # between two levels every few seconds, a run's median op latency jumps
    # between them, while the mean (ops_per_s, cpu_ms_per_op) and p90 do not.
    print(f"bench: {wl.name} seed {args.seed}: {n} ops in {phase.wall:.2f} s, "
          f"p50 {statistics.median(lat_ms):.1f} ms, "
          f"p90 over {n} samples ({n - int(0.9 * n)} beyond it), "
          f"set-up samples {[round(s, 4) for s in samples]}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (n / phase.wall, "1/s"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "cpu_ms_per_op": (phase.cpu * 1e3 / n, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }


def traced(wl, args, workdir: Path) -> tuple[dict, Phase]:
    import layers
    from spans import Spans
    from workloads import LargeN

    # Traced and untraced ops alternate in blocks of one op rotation, so that the
    # machine's drift during the run falls on both sides of the overhead.
    spans = Spans()
    lat: dict[bool, list[float]] = {False: [], True: []}
    both = Phase()
    i = 1
    deadline = time.perf_counter() + args.seconds
    while not lat[True] or time.perf_counter() < deadline:  # both sides get ops
        on = (i // wl.cycle) % 2 == 1
        dt, problem = wl.op(i, spans if on else None)
        lat[on].append(dt)
        both.record(dt, problem)
        i += 1
    overhead = (statistics.median(lat[True]) / statistics.median(lat[False]) - 1.0) * 100.0

    if wl.name != "large_n":
        sample = LargeN(args.seed, workdir / "large_n", ROOT, pool=1)
        (workdir / "large_n").mkdir()
        sample.setup()
        for j in range(1, LARGE_N_SPAN_OPS + 1):
            both.record(*sample.op(j, spans))
    metrics = {name: (value, unit) for name, value, unit in layers.large_n_spans(spans)}
    metrics["latency_p50_ms"] = (statistics.median(lat[False]) * 1e3, "ms")
    metrics["tracing_overhead_pct"] = (overhead, "%")
    metrics["error_rate"] = (len(both.problems) / len(both.lat), "ratio")
    for name, value, unit in layers.measure(ROOT, workdir / "layers", args.seed):
        metrics[name] = (value, unit)

    out = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.json"
    spans.write(out)
    print(f"bench: {wl.name} seed {args.seed}: traced {len(lat[True])} ops, untraced "
          f"{len(lat[False])}; {len(spans.rows)} spans written to {out}", file=sys.stderr)
    return metrics, both


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time in seconds and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trialorder" / "__init__.py").is_file():
        print(f"bench: no src/trialorder under {ROOT}; run it from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        wl.setup()
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            metrics, phase = traced(wl, args, workdir)
        else:
            phase = timed_phase(wl, args.seconds)
            metrics = end_to_end(wl, args, phase, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in phase.problems[:10]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not phase.problems,
        "attempted": len(phase.lat),
        "failed": len(phase.problems),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
