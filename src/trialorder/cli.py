"""Command-line interface: ingest candidate files, run computations, emit reports.

Input is a JSON document {"candidates": [{"id": str, "p": num, "times": [num, ...]}]}
or a CSV file with header ``id,p,<time columns...>`` (one or more time cells per
row; empty trailing cells are ignored).  ``-`` reads standard input.

Positions ``--k``/``--n`` are 1-based, matching how the closed forms are
written: the swap exchanges the k-th and (k+n)-th candidates of the chosen
ordering.  ``--order`` is either ``optimal`` (the p/t rule, the default) or an
explicit comma-separated permutation of candidate ids.

Exit codes: 0 success; 1 invalid input or usage; 2 assumption violation (always
for unsatisfiable ones such as the equal-time profile on unequal times, and for
flagged ones only under --strict); 3 internal cross-check failure (a closed
form disagreed with its oracle).
"""

from __future__ import annotations

import argparse
import csv as _csv
import hashlib
import io
import json
import sys
from pathlib import Path

from . import __version__
from . import bounds, excess, model, schedule
from .errors import AssumptionError
from .model import CandidateSet, Ordering

__all__ = ["main", "build_parser", "ingest", "emit", "CliInputError"]

ORACLE_REL_TOL = 1e-9


class CliInputError(Exception):
    """Unreadable, unparsable, or invalid input; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _read_source(source: str) -> bytes:
    if source == "-":
        return sys.stdin.buffer.read()
    try:
        return Path(source).read_bytes()
    except OSError as e:
        raise CliInputError(f"cannot read {source!r}: {e}") from e


def _records_from_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliInputError(f"JSON parse error: {e}") from e
    if not isinstance(doc, dict) or "candidates" not in doc:
        raise CliInputError('JSON parse error: expected an object with a "candidates" list')
    items = doc["candidates"]
    if not isinstance(items, list):
        raise CliInputError('JSON parse error: "candidates" must be a list')
    records, labels = [], []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise CliInputError(f"JSON parse error: candidates[{i}] is not an object")
        records.append((str(item.get("id", f"#{i}")), item.get("p"), item.get("times", ())))
        labels.append(f"candidates[{i}]")
    return records, labels


def _records_from_csv(text: str):
    rows = list(_csv.reader(io.StringIO(text)))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise CliInputError("CSV parse error: empty file")
    header = [cell.strip().lower() for cell in rows[0]]
    if len(header) < 3 or header[0] != "id" or header[1] != "p":
        raise CliInputError(
            "CSV parse error: header must be 'id,p,<time columns...>', got "
            + ",".join(rows[0])
        )
    records, labels = [], []
    for rownum, row in enumerate(rows[1:], start=2):
        rid = row[0].strip() if row else ""
        p = row[1].strip() if len(row) > 1 else None
        times = [cell.strip() for cell in row[2:] if cell.strip()]
        records.append((rid, p, times))
        labels.append(f"row {rownum}")
    return records, labels


def ingest(source: str, fmt: str) -> tuple[CandidateSet, str]:
    """Read and validate a candidate file; returns (set, sha256 of raw bytes).

    Every violation is reported at once, each naming the row/element and the
    offending field.
    """
    raw = _read_source(source)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CliInputError(f"input is not valid UTF-8: {e}") from e
    if fmt == "json":
        records, labels = _records_from_json(text)
    elif fmt == "csv":
        records, labels = _records_from_csv(text)
    else:  # pragma: no cover - argparse restricts choices
        raise CliInputError(f"unknown input format {fmt!r}")

    if not records:
        raise CliInputError("empty set: no candidates in input")
    problems = model._checked_rows(records, labels)
    if problems:
        raise CliInputError("\n".join(str(v) for v in problems))
    return CandidateSet._from_rows(records), digest


def _infer_format(source: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    if source.lower().endswith(".csv"):
        return "csv"
    return "json"


def _resolve_ordering(spec: str | None, cset: CandidateSet) -> Ordering:
    if spec is None or spec == "optimal":
        return schedule.solomonoff_order(cset)
    ids = [s.strip() for s in spec.split(",")]
    index = {c.id: i for i, c in enumerate(cset)}
    unknown = [s for s in ids if s not in index]
    if unknown:
        raise CliInputError(f"unknown candidate id(s) in --order: {', '.join(unknown)}")
    if len(ids) != cset.N or len(set(ids)) != cset.N:
        raise CliInputError("--order must list every candidate id exactly once")
    return Ordering(tuple(index[s] for s in ids))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            out[prefix] = ";".join(str(v) for v in value)
        # tables are handled separately in CSV mode; skip them here
    else:
        out[prefix] = value


def _emit_csv(report: dict) -> str:
    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    results = report.get("results", {})
    table = None
    for key in ("table", "checks"):
        rows = results.get(key)
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            table = rows
            break
    if table is not None:
        headers = list(table[0].keys())
        w.writerow(headers)
        for row in table:
            w.writerow([row.get(h) for h in headers])
    else:
        flat: dict = {}
        for k in ("command", "version", "input_sha256", "seed"):
            if report.get(k) is not None:
                flat[k] = report[k]
        _flatten("", results, flat)
        w.writerow(list(flat.keys()))
        w.writerow([flat[k] for k in flat])
    return buf.getvalue()


def _render_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_text(report: dict) -> str:
    lines: list[str] = []
    for k in ("command", "version", "input_sha256", "seed"):
        if report.get(k) is not None:
            lines.append(f"{k}: {report[k]}")
    results = report.get("results", {})
    for k, v in results.items():
        if isinstance(v, list) and v and isinstance(v[0], dict):
            headers = list(v[0].keys())
            cells = [[_render_value(row.get(h)) for h in headers] for row in v]
            widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
            lines.append(f"{k}:")
            lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
            for r in cells:
                lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
        elif isinstance(v, (list, tuple)):
            lines.append(f"{k}: {', '.join(str(x) for x in v)}")
        else:
            lines.append(f"{k}: {_render_value(v)}")
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str) -> str:
    """Serialize a report; identical reports yield byte-identical output.

    JSON is stable-key-ordered and round-trips losslessly; text is a
    human-readable rendering; CSV flattens the numeric payload (or emits the
    table for tabular results).
    """
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _emit_csv(report)
    return _emit_text(report)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_order(args, cset: CandidateSet):
    ordering = schedule.solomonoff_order(cset)
    table = []
    for pos, idx in enumerate(ordering, start=1):
        p, t = cset.ps[idx], cset.ts[idx]
        table.append({"position": pos, "id": cset[idx].id, "p": p,
                      "mean_time": t, "ratio": p / t})
    results = {
        "order": [cset[i].id for i in ordering],
        "perm": list(ordering.perm),
        "ratio_sorted": True,
        "table": table,
    }
    return results, 0


def _cmd_expect(args, cset: CandidateSet):
    ordering = _resolve_ordering(args.order, cset)
    opts = schedule.ExpectationOptions(include_failure_tail=not args.no_tail)
    value = schedule.expected_time(cset, ordering, opts)
    results = {
        "ordering": [cset[i].id for i in ordering],
        "include_failure_tail": opts.include_failure_tail,
        "expected_time": value,
    }
    return results, 0


def _cmd_excess(args, cset: CandidateSet):
    ordering = _resolve_ordering(args.order, cset)
    rep = excess.general_swap_excess(cset, ordering, args.k, args.n)
    direct = excess.exact_excess_direct(cset, ordering, args.k, args.n)
    diff = abs(rep.total - direct)
    agree = diff <= ORACLE_REL_TOL * max(1.0, abs(direct))
    results = {
        "ordering": [cset[i].id for i in ordering],
        "k": rep.k,
        "n": rep.n,
        "q1": rep.q1,
        "q2": rep.q2,
        "q3": rep.q3,
        "total": rep.total,
        "method": rep.method,
        "direct_oracle": direct,
        "oracle_abs_diff": diff,
        "oracle_agrees": agree,
    }
    return results, (0 if agree else 3)


def _cmd_bounds(args, cset: CandidateSet):
    ordering = _resolve_ordering(args.order, cset)
    k, n = args.k, args.n
    assumptions = None
    if args.profile == "adjacent":
        if n != 1:
            raise CliInputError("--profile adjacent is defined for --n 1")
        band = [f"--{f}" for f in ("c", "d", "tmin", "tmax") if getattr(args, f) is not None]
        if band:
            raise CliInputError("--profile adjacent reads no --c, --d, --tmin or --tmax; "
                                f"got {', '.join(band)}")
        res = bounds.adjacent_excess_bounds(cset, ordering, k)
    else:
        if args.c is None or args.d is None:
            raise CliInputError(f"--profile {args.profile} requires --c and --d")
        assumptions = bounds.BoundAssumptions(
            c=args.c,
            d=args.d,
            t_min=args.tmin if args.tmin is not None else min(cset.ts),
            t_max=args.tmax if args.tmax is not None else max(cset.ts),
            profile=args.profile,
        )
        if args.profile == "general-upper":
            res = bounds.swap_excess_upper_general(cset, ordering, k, n, assumptions)
        elif args.profile == "general-lower":
            res = bounds.swap_excess_lower_general(cset, ordering, k, n, assumptions)
        elif args.profile == "equal-t-upper":
            res = bounds.swap_excess_upper_equal_t(cset, ordering, k, n, assumptions)
        else:
            res = bounds.swap_excess_lower_equal_t(cset, ordering, k, n, assumptions)
    exact = excess.exact_excess_direct(cset, ordering, k, n)
    results = {
        "ordering": [cset[i].id for i in ordering],
        "profile": args.profile,
        "k": k,
        "n": n,
        "c": assumptions.c if assumptions else None,
        "d": assumptions.d if assumptions else None,
        "t_min": assumptions.t_min if assumptions else None,
        "t_max": assumptions.t_max if assumptions else None,
        "lower": res.lower,
        "upper": res.upper,
        "A": res.A,
        "B": res.B,
        "assumptions_ok": res.assumptions_ok,
        "violations": [str(v) for v in res.violations],
        "exact_excess": exact,
    }
    code = 2 if (args.strict and not res.assumptions_ok) else 0
    return results, code


def _cmd_verify_optimal(args, cset: CandidateSet):
    from . import oracle

    bf = oracle.brute_force_best_order(cset)
    rule_order = schedule.solomonoff_order(cset)
    rule_value = schedule.expected_time(cset, rule_order)
    agree = abs(rule_value - bf.best_expected_time) <= ORACLE_REL_TOL * max(
        1.0, abs(bf.best_expected_time)
    )
    results = {
        "evaluated": bf.evaluated,
        "best_order": [cset[i].id for i in bf.best_order],
        "best_expected_time": bf.best_expected_time,
        "rule_order": [cset[i].id for i in rule_order],
        "rule_expected_time": rule_value,
        "agree": agree,
    }
    return results, (0 if agree else 3)


def _cmd_simulate(args, cset: CandidateSet):
    from . import oracle

    ordering = _resolve_ordering(args.order, cset)
    res = oracle.simulate(cset, ordering, args.trials, args.seed)
    results = {
        "ordering": [cset[i].id for i in ordering],
        "trials": res.trials,
        "mean_time": res.mean_time,
        "std_error": res.std_error,
        "success_rate": res.success_rate,
        "generator": res.generator,
    }
    return results, 0


def _cmd_check(args, cset=None):
    from . import oracle

    cfg = oracle.VerificationConfig(
        instances=args.instances, seed=args.seed, equal_p_only=args.equal_p
    )
    rep = oracle.verify_bounds_random(cfg)
    return rep.to_dict(), (0 if rep.passed else 3)


_COMMANDS = {
    "order": (_cmd_order, True),
    "expect": (_cmd_expect, True),
    "excess": (_cmd_excess, True),
    "bounds": (_cmd_bounds, True),
    "verify-optimal": (_cmd_verify_optimal, True),
    "simulate": (_cmd_simulate, True),
    "check": (_cmd_check, False),
}


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Every command takes --format; all but check also read a candidate file.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv", "text"), default="text",
                        help="output format (default: text)")
    with_input = argparse.ArgumentParser(add_help=False, parents=[output])
    with_input.add_argument("-i", "--input", default="-",
                            help="candidate file, or - for standard input (default)")
    with_input.add_argument("--input-format", choices=("json", "csv"),
                            help="input format (default: by file extension, else json)")

    parser = argparse.ArgumentParser(
        prog="trialorder",
        description="Optimal candidate ordering, exact swap penalties, verified bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("order", parents=[with_input],
                   help="optimal trial order by descending p/mean-time ratio")

    p_expect = sub.add_parser("expect", parents=[with_input],
                              help="expected solving time of an ordering")
    p_expect.add_argument("--order", default="optimal",
                          help="'optimal' or comma-separated candidate ids")
    p_expect.add_argument("--no-tail", action="store_true",
                          help="drop the all-candidates-fail time term")

    p_excess = sub.add_parser("excess", parents=[with_input],
                              help="exact penalty of swapping positions k and k+n (1-based)")
    p_excess.add_argument("--k", type=int, required=True, help="earlier position, 1-based")
    p_excess.add_argument("--n", type=int, default=1, help="positional distance (default 1)")
    p_excess.add_argument("--order", default="optimal")

    p_bounds = sub.add_parser("bounds", parents=[with_input],
                              help="closed-form bounds on the swap penalty")
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--n", type=int, default=1)
    p_bounds.add_argument("--c", type=float, help="lower probability bound in (0,1)")
    p_bounds.add_argument("--d", type=float, help="upper probability bound in (0,1)")
    p_bounds.add_argument("--tmin", type=float, help="lower time bound (default: min mean time)")
    p_bounds.add_argument("--tmax", type=float, help="upper time bound (default: max mean time)")
    p_bounds.add_argument("--profile", choices=bounds.PROFILES, default="general-upper",
                          help="adjacent takes no --c, --d, --tmin or --tmax")
    p_bounds.add_argument("--order", default="optimal")
    p_bounds.add_argument("--strict", action="store_true",
                          help="exit 2 when a bound's assumptions are violated")

    sub.add_parser("verify-optimal", parents=[with_input],
                   help="exact optimum over all orders vs the ordering rule (N <= 10)")

    p_sim = sub.add_parser("simulate", parents=[with_input],
                           help="seeded Monte Carlo estimate of the expected solving time")
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--order", default="optimal")

    p_check = sub.add_parser("check", parents=[output],
                             help="randomized cross-validation of every closed form")
    p_check.add_argument("--instances", type=int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--equal-p", action="store_true",
                         help="pin the generator to equal-probability instances")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    handler, needs_input = _COMMANDS[args.command]
    digest = None
    try:
        if needs_input:
            fmt = _infer_format(args.input, args.input_format)
            cset, digest = ingest(args.input, fmt)
            results, code = handler(args, cset)
        else:
            results, code = handler(args)
    except CliInputError as e:
        print(f"trialorder: error: {e}", file=sys.stderr)
        return 1
    except AssumptionError as e:
        print(f"trialorder: assumption violation: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"trialorder: error: {e}", file=sys.stderr)
        return 1

    report = {
        "command": args.command,
        "version": __version__,
        "input_sha256": digest,
        "results": results,
    }
    seed = getattr(args, "seed", None)
    if seed is not None:
        report["seed"] = seed
    sys.stdout.write(emit(report, args.format))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
