"""The two workloads: seeded set-up, one operation, and the check of its output.

Load comes from one process, closed loop, one client: the next operation
starts when the previous one has returned.  ``op`` returns the operation's
wall time and ``None``, or a description of what went wrong.  A failure is a
non-zero exit, an exception, or an output that disagrees with the
benchmark's own reference (``reference.py``).

The trialorder package is imported inside ``setup``, so that its import
counts in set-up time; ``cli_cold`` never imports it in this process.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import reference
from spans import OpScope, Spans

REL_SMALL = 1e-12  # relative tolerance against the reference at N = 8
REL_LARGE = 1e-9  # ... and at N = 10^4
SLACK = 1e-9  # bound inequalities may miss by SLACK * max(1, E), as in the library
P_SMALL = (0.05, 0.95)
P_LARGE = (1e-4, 1e-3)  # keeps Q_N = prod(1 - p) far from underflow at N = 10^5
CHILD_TIMEOUT_S = 60


def p_range(n: int) -> tuple[float, float]:
    return P_SMALL if n <= 10 else P_LARGE


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _failed(label: str, checks: dict[str, bool]) -> str | None:
    bad = [name for name, ok in checks.items() if not ok]
    return f"{label}: {', '.join(bad)} disagree with the reference" if bad else None


# ---------------------------------------------------------------------------
# cli_cold: one `python -m trialorder.cli ... --format json` process per op.
# ---------------------------------------------------------------------------


def cli_templates(inst: inputs.Instance, rng: random.Random, sim_seed: int, check_seed: int):
    """The nine CLI invocations on one N=8 file: (label, argv tail, results check)."""
    p, t, perm, E = inst.p, inst.t, inst.perm, inst.E
    ids_opt = [inst.ids[i] for i in perm]
    given = rng.sample(range(inst.N), inst.N)
    e_given = reference.expected_time(p, t, given, tail=False)
    exc13 = reference.swap_excess(p, t, perm, 1, 3)
    exc31 = reference.swap_excess(p, t, perm, 3, 1)
    best = reference.optimum(p, t)
    c, d = min(p), max(p)
    slack = SLACK * max(1.0, E)

    def close(value, ref):
        return reference.close(value, ref, REL_SMALL, scale=E)

    def order(r):
        return {"order": r["order"] == ids_opt, "perm": r["perm"] == perm,
                "table": all(close(row["mean_time"], t[i]) for row, i in zip(r["table"], perm))}

    def expect(r):
        return {"ordering": r["ordering"] == ids_opt, "tail": r["include_failure_tail"] is True,
                "expected_time": close(r["expected_time"], E)}

    def expect_given(r):
        return {"ordering": r["ordering"] == [inst.ids[i] for i in given],
                "tail": r["include_failure_tail"] is False,
                "expected_time": close(r["expected_time"], e_given)}

    def excess(r):
        return {"total": close(r["total"], exc13), "direct": close(r["direct_oracle"], exc13),
                "agrees": r["oracle_agrees"] is True}

    def upper(r):
        return {"exact": close(r["exact_excess"], exc13), "premises": r["assumptions_ok"] is True,
                "upper": r["upper"] >= exc13 - slack}

    def adjacent(r):
        return {"exact": close(r["exact_excess"], exc31), "premises": r["assumptions_ok"] is True,
                "sandwich": r["lower"] - slack <= exc31 <= r["upper"] + slack}

    def verify_optimal(r):
        return {"best": close(r["best_expected_time"], best),
                "rule": close(r["rule_expected_time"], E), "agree": r["agree"] is True,
                "evaluated": r["evaluated"] == 40320}

    def simulate(r):
        return {"trials": r["trials"] == 10_000,
                "mean": abs(r["mean_time"] - E) <= 5.0 * r["std_error"]}

    def check(r):
        return {"passed": r["passed"] is True, "instances": r["instances"] == 10}

    return [
        ("order", ["order"], order),
        ("expect", ["expect"], expect),
        ("expect_no_tail", ["expect", "--no-tail", "--order",
                            ",".join(inst.ids[i] for i in given)], expect_given),
        ("excess", ["excess", "--k", "1", "--n", "3"], excess),
        ("bounds_general_upper", ["bounds", "--profile", "general-upper", "--k", "1", "--n", "3",
                                  "--c", repr(c), "--d", repr(d)], upper),
        ("bounds_adjacent", ["bounds", "--profile", "adjacent", "--k", "3"], adjacent),
        ("verify_optimal", ["verify-optimal"], verify_optimal),
        ("simulate", ["simulate", "--trials", "10000", "--seed", str(sim_seed)], simulate),
        ("check", ["check", "--instances", "10", "--seed", str(check_seed)], check),
    ]


@dataclass(frozen=True)
class CliOp:
    label: str
    args: list[str]  # trialorder.cli arguments
    digest: str | None  # sha256 of the input file, None for `check`
    check: object


def cli_ops(workdir: Path, seed: int) -> list[CliOp]:
    """The cli_cold rotation: nine templates on a JSON file, then on a CSV file."""
    rng = random.Random(f"cli_cold-{seed}")
    sim_seed, check_seed = rng.randrange(2**31), rng.randrange(2**31)
    ops = []
    for name in ("cands.json", "cands.csv"):
        inst = inputs.write(workdir / name, inputs.records(rng, 8, P_SMALL))
        for label, args, check in cli_templates(inst, rng, sim_seed, check_seed):
            if label == "check":
                ops.append(CliOp(label, args + ["--format", "json"], None, check))
            else:
                ops.append(CliOp(label, args + ["-i", str(inst.path), "--format", "json"],
                                 inst.digest, check))
    return ops


def check_cli_output(op: CliOp, stdout: bytes) -> str | None:
    doc = json.loads(stdout)
    checks = {"command": doc["command"] == op.args[0], "digest": doc["input_sha256"] == op.digest}
    checks.update(op.check(doc["results"]))
    return _failed(op.label, checks)


class CliCold:
    name = "cli_cold"

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.seed, self.workdir, self.root = seed, workdir, root

    def setup(self) -> None:
        self.env = child_env(self.root)
        self.ops = cli_ops(self.workdir, self.seed)
        self.cycle = len(self.ops)  # ops in one rotation
        self.first_stdout: dict[tuple, bytes] = {}
        problem = self.op(0, None)[1]  # compiles the package's bytecode once
        if problem:
            raise RuntimeError(f"warm-up failed: {problem}")

    def cpu_s(self) -> float:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def op(self, i: int, spans: Spans | None):
        op = self.ops[i % len(self.ops)]
        argv = [sys.executable, "-m", "trialorder.cli", *op.args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=self.workdir,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, f"{op.label}: no exit within {CHILD_TIMEOUT_S} s"
        dt = time.perf_counter() - t0
        if spans is not None:
            spans.add(f"cli_cold.{op.label}", t0, t0 + dt, i)
        if proc.returncode != 0:
            return dt, f"{op.label}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
        if self.first_stdout.setdefault(tuple(op.args), proc.stdout) != proc.stdout:
            return dt, f"{op.label}: stdout differs from an identical earlier run"
        try:
            return dt, check_cli_output(op, proc.stdout)
        except (ValueError, KeyError, TypeError) as e:
            return dt, f"{op.label}: unreadable report: {e!r}"


# ---------------------------------------------------------------------------
# large_n: an in-process analysis of one N = 10^4 file per op.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LargeRef:
    inst: inputs.Instance
    E_no_tail: float
    exc_general: float  # k = 1, n = N - 1
    exc_adjacent: float  # k = N - 1, n = 1


def large_ref(inst: inputs.Instance) -> LargeRef:
    p, t, perm = inst.p, inst.t, inst.perm
    return LargeRef(inst, reference.expected_time(p, t, perm, tail=False),
                    reference.swap_excess(p, t, perm, 1, inst.N - 1),
                    reference.swap_excess(p, t, perm, inst.N - 1, 1))


def analyse(lib, scope: OpScope, path: str) -> tuple[dict, str]:
    """The large_n op: read, validate, order, evaluate, bound and emit one file."""
    cli, schedule, excess, bounds = lib.cli, lib.schedule, lib.excess, lib.bounds
    cset, digest = scope.call("cli.ingest", cli.ingest, path, "json")
    N = cset.N
    order = scope.call("schedule.solomonoff_order", schedule.solomonoff_order, cset)
    e = scope.call("schedule.expected_time", schedule.expected_time, cset, order)
    e_nt = scope.call("schedule.expected_time_no_tail", schedule.expected_time, cset, order,
                      schedule.ExpectationOptions(include_failure_tail=False))
    gen = scope.call("excess.general_swap_excess", excess.general_swap_excess,
                     cset, order, 1, N - 1)
    direct = scope.call("excess.exact_excess_direct", excess.exact_excess_direct,
                        cset, order, 1, N - 1)
    adj = scope.call("excess.adjacent_swap_excess", excess.adjacent_swap_excess,
                     cset, order, N - 1)
    ps = [c.p for c in cset]
    mts = [lib.model.mean_time(c) for c in cset]
    band = bounds.BoundAssumptions(c=min(ps), d=max(ps), t_min=min(mts), t_max=max(mts),
                                   profile="general-upper")
    up = scope.call("bounds.swap_excess_upper_general", bounds.swap_excess_upper_general,
                    cset, order, 1, N - 1, band)
    ab = scope.call("bounds.adjacent_excess_bounds", bounds.adjacent_excess_bounds,
                    cset, order, N - 1)
    report = {
        "command": "analyse",
        "version": lib.version,
        "input_sha256": digest,
        "results": {
            "order": [cset[i].id for i in order], "perm": list(order.perm),
            "expected_time": e, "expected_time_no_tail": e_nt,
            "k": gen.k, "n": gen.n, "q1": gen.q1, "q2": gen.q2, "q3": gen.q3,
            "total": gen.total, "direct_oracle": direct, "adjacent_excess": adj,
            "upper_general": up.upper, "A": up.A, "B": up.B,
            "upper_assumptions_ok": up.assumptions_ok,
            "adjacent_lower": ab.lower, "adjacent_upper": ab.upper,
            "adjacent_assumptions_ok": ab.assumptions_ok,
        },
    }
    return report, scope.call("cli.emit", cli.emit, report, "json")


class Lib:
    """The trialorder modules, imported when a workload sets up."""

    def __init__(self) -> None:
        import trialorder
        from trialorder import bounds, cli, excess, model, oracle, schedule

        self.version = trialorder.__version__
        self.bounds, self.cli, self.excess = bounds, cli, excess
        self.model, self.oracle, self.schedule = model, oracle, schedule


class LargeN:
    name = "large_n"
    N = 10_000
    POOL = 3
    cycle = 1  # alternating single ops already gives both sides the same op mix

    def __init__(self, seed: int, workdir: Path, root: Path, pool: int = POOL) -> None:
        self.seed, self.workdir, self.pool_size = seed, workdir, pool

    def setup(self) -> None:
        self.lib = Lib()
        rng = random.Random(f"large_n-{self.seed}")
        self.pool = [large_ref(inputs.write(self.workdir / f"pool{j}.json",
                                            inputs.records(rng, self.N, P_LARGE)))
                     for j in range(self.pool_size)]
        self.first_text: dict[int, str] = {}
        problem = self.op(0, None)[1]
        if problem:
            raise RuntimeError(f"warm-up failed: {problem}")

    def cpu_s(self) -> float:
        return time.process_time()  # this process does the work itself

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op(self, i: int, spans: Spans | None):
        j = i % len(self.pool)
        ref = self.pool[j]
        t0 = time.perf_counter()
        scope = OpScope(spans, "large_n.op", i)
        try:
            report, text = analyse(self.lib, scope, str(ref.inst.path))
        except Exception as e:  # any exception is a failed op, reported by the run
            return time.perf_counter() - t0, f"large_n: {type(e).__name__}: {e}"
        finally:
            scope.close()
        dt = time.perf_counter() - t0
        if spans is not None:
            self.model_siblings(ref.inst.path, spans, i)
        return dt, self.check(j, ref, report, text)

    def model_siblings(self, path: Path, spans: Spans, i: int) -> None:
        """Time model.validate and CandidateSet.from_records alone, outside the op."""
        records = [{"id": r["id"], "p": r["p"], "times": r["times"]}
                   for r in json.loads(path.read_bytes())["candidates"]]
        model = self.lib.model
        sid = spans.start("model.validate", i)
        model.validate(records)
        spans.end(sid)
        sid = spans.start("model.CandidateSet.from_records", i)
        model.CandidateSet.from_records(records)
        spans.end(sid)

    def check(self, j: int, ref: LargeRef, report: dict, text: str) -> str | None:
        r, inst = report["results"], ref.inst
        E = inst.E
        slack = SLACK * max(1.0, E)

        def close(value, want):
            return reference.close(value, want, REL_LARGE, scale=E)

        if j not in self.first_text:
            self.first_text[j] = text
            emitted = json.loads(text)["results"]["expected_time"] == r["expected_time"]
        else:
            emitted = text == self.first_text[j]
        checks = {
            "digest": report["input_sha256"] == inst.digest,
            "order": r["perm"] == inst.perm,
            "expected_time": close(r["expected_time"], E),
            "expected_time_no_tail": close(r["expected_time_no_tail"], ref.E_no_tail),
            "general_swap_excess": close(r["total"], ref.exc_general),
            "exact_excess_direct": close(r["direct_oracle"], ref.exc_general),
            "adjacent_swap_excess": close(r["adjacent_excess"], ref.exc_adjacent),
            "upper_general": (r["upper_assumptions_ok"] is True
                              and r["upper_general"] >= ref.exc_general - slack),
            "adjacent_bounds": (r["adjacent_assumptions_ok"] is True and r["adjacent_lower"]
                                - slack <= ref.exc_adjacent <= r["adjacent_upper"] + slack),
            "emit": emitted,
        }
        return _failed("large_n", checks)


WORKLOADS = {w.name: w for w in (CliCold, LargeN)}
