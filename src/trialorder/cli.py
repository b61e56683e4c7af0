"""Command-line interface: ingest candidate files, run computations, emit reports.

Input is a JSON document {"candidates": [{"id": str, "p": num, "times": [num, ...]}]}
or a CSV file with header ``id,p,<time columns...>`` (one or more time cells per
row; empty trailing cells are ignored).  ``-`` reads standard input.

Positions ``--k``/``--n`` are 1-based, matching how the closed forms are
written: the swap exchanges the k-th and (k+n)-th candidates of the chosen
ordering.  ``--order`` is either ``optimal`` (the p/t rule, the default) or an
explicit comma-separated permutation of candidate ids.

Exit codes: 0 success; 1 invalid input or usage, a result that is not finite
(inf or nan; no report is printed), or a report that could not be written (a
full disk, a closed pipe); 2 assumption violation (always for unsatisfiable
ones such as the equal-time profile on unequal times, and for flagged ones only
under --strict); 3 internal cross-check failure (a closed form disagreed with
its oracle).
"""

from __future__ import annotations

import argparse
import atexit
import functools
import io
import json
import math
import os
import re
import sys
import threading
from contextlib import suppress
from pathlib import Path

from . import __version__
from . import model, schedule  # csv, hashlib, excess, bounds, search, checks, montecarlo: on use
from .errors import AssumptionError
from .model import CandidateSet, Ordering

__all__ = ["main", "run_process", "build_parser", "ingest", "emit", "CliInputError"]


class CliInputError(ValueError):
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
        raise CliInputError(f"cannot read {model._shown(source)}: {e.strerror or e}") from e


def _json_items(text: str) -> list:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # a RecursionError: nested too deeply
        raise CliInputError(f"JSON parse error: {e}") from e
    if not isinstance(doc, dict) or "candidates" not in doc:
        raise CliInputError('JSON parse error: expected an object with a "candidates" list')
    items = doc["candidates"]
    if not isinstance(items, list):
        raise CliInputError('JSON parse error: "candidates" must be a list')
    return items


def _records_from_json(items: list, label):
    # json.loads makes every object a plain dict; any other item is listed in
    # its place among the other records' problems.  Each item is dropped from
    # the document as it is read, so the document shrinks while the set grows.
    for i, item in enumerate(items):
        items[i] = None
        yield ((str(item["id"]) if "id" in item else f"#{i}", item.get("p"), item.get("times", ()))
               if type(item) is dict else model.Violation(label(i), "record", "not an object"))


def _records_from_csv(raw: bytes):
    import csv

    # BytesIO splits at b"\n" as StringIO's default does at "\n", and shares
    # raw's buffer where StringIO would hold four bytes per character.
    reader = csv.reader(map(bytes.decode, io.BytesIO(raw)))
    try:
        for first in reader:  # the header is the first row that is not blank
            header = [cell.strip().lower() for cell in first]
            if any(header):
                break
        else:
            raise CliInputError("CSV parse error: empty file")
        if len(header) < 3 or header[0] != "id" or header[1] != "p":
            raise CliInputError("CSV parse error: header must be 'id,p,<time columns...>', got "
                                + model._clipped(",".join(first)))
        # Each cell is stripped once; blank rows are skipped, so record i is non-blank row i + 2.
        for row in filter(any, ([cell.strip() for cell in r] for r in reader)):
            yield row[0], row[1] if len(row) > 1 else None, [cell for cell in row[2:] if cell]
    except csv.Error as e:  # a field past csv's size limit, a bare carriage return, ...
        raise CliInputError(f"CSV parse error: line {reader.line_num}: {e}") from e


def _parsed(source: str, fmt: str):
    """Read, hash, decode and check ``source``: ``(set or None, violations, sha256)``.

    Each copy of the input is freed once the next exists: the bytes once
    hashed and decoded, the text once parsed, each JSON item once read.  A
    CSV file's rows are read from its bytes, one line at a time.  ingest
    pauses the collector around the call, so that it meets only the set.
    """
    import hashlib

    raw = _read_source(source)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CliInputError(f"input is not valid UTF-8: {e}") from e
    if fmt == "json":
        del raw
        label = "candidates[{}]".format
        records = _records_from_json(_json_items(text), label)
        del text
    elif fmt == "csv":  # decoded only to be checked: each line of valid UTF-8 decodes alone
        del text
        records, label = _records_from_csv(raw), (lambda i: f"row {i + 2}")
        del raw  # the reader holds it until its last line
    else:  # pragma: no cover - argparse restricts choices
        raise CliInputError(f"unknown input format {fmt!r}")
    return (*model._checked_rows(records, label), digest)


def ingest(source: str, fmt: str) -> tuple[CandidateSet, str]:
    """Read and validate a candidate file; returns (set, sha256 of raw bytes).

    Every violation is reported at once, each naming the row/element and the
    offending field.
    """
    cset, problems, digest = model._gc_paused(_parsed, source, fmt)
    if problems:
        raise CliInputError("\n".join(str(v) for v in problems))
    return cset, digest


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
        raise CliInputError("unknown candidate id(s) in --order: "
                            + model._clipped(", ".join(map(repr, unknown))))
    if len(ids) != cset.N or len(set(ids)) != cset.N:
        raise CliInputError("--order must list every candidate id exactly once")
    return Ordering(tuple(index[s] for s in ids))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


_HEAD = ("command", "version", "input_sha256", "seed")  # a report's keys before its results


def _head(report: dict) -> dict:
    """The report's head: each _HEAD key that is set, in _HEAD order."""
    return {k: report[k] for k in _HEAD if report.get(k) is not None}


def _is_table(value) -> bool:
    """Whether a result is a table: a non-empty list of dicts, the first one's keys its columns."""
    return isinstance(value, list) and bool(value) and isinstance(value[0], dict)


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
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    results = report.get("results", {})
    table = next(filter(_is_table, results.values()), None)
    if table is not None:
        headers = list(table[0].keys())
        w.writerow(headers)
        for row in table:
            w.writerow([row.get(h) for h in headers])
    else:
        flat = _head(report)
        _flatten("", results, flat)
        w.writerow(list(flat.keys()))
        w.writerow([flat[k] for k in flat])
    return buf.getvalue()


def _non_finite(key: str, value):
    """``(key, value)`` for every float in ``value`` that is inf or nan."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _non_finite(f"{key}.{k}", v)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _non_finite(f"{key}[{i}]", v)
    elif isinstance(value, float) and not math.isfinite(value):
        yield key, value


def _emit_text(report: dict) -> str:
    lines = [f"{k}: {v}" for k, v in _head(report).items()]
    results = report.get("results", {})
    for k, v in results.items():
        if _is_table(v):
            headers = list(v[0].keys())
            cells = [[str(row.get(h)) for h in headers] for row in v]
            widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
            lines.append(f"{k}:")
            lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
            for r in cells:
                lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
        elif isinstance(v, (list, tuple)):
            lines.append(f"{k}: {', '.join(str(x) for x in v)}")
        else:
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


_CONTAINERS = (list, tuple, dict)


@functools.cache
def _json_encoder(level: int) -> json.JSONEncoder:
    """The C encoder for the items of a container at depth ``level``: its separator indents them."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (level + 1), ": "))


def _json_key(key) -> str:
    """A dict key as json converts it: a str as it is, an int, float, bool or None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_encoder(0).encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json(value, level: int, path: set) -> str:
    """``value`` as json.dumps(value, sort_keys=True, indent=2) writes it at depth ``level``.

    The stdlib's C encoder writes every scalar and every container that holds
    no container, with the indented item separator of its depth; a flat
    container's brackets are then moved onto their own lines.  Python walks
    only containers that hold containers, meeting keys and values in json's
    order, so a value json refuses raises the same exception here.  ``path``
    holds the ids of the containers being walked, for json's circular
    reference check.
    """
    enc = _json_encoder(level)
    if isinstance(value, dict):
        children = value.values()
    elif isinstance(value, (list, tuple)):
        children = value
    else:
        return enc.encode(value)
    sep = enc.item_separator
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, children))):
        text = enc.encode(value)
        if not children:
            return text
        return f"{text[0]}{sep[1:]}{text[1:-1]}\n{'  ' * level}{text[-1]}"
    if id(value) in path:
        raise ValueError("Circular reference detected")
    path.add(id(value))
    if isinstance(value, dict):
        items = [f"{enc.encode(_json_key(k))}: {_json(v, level + 1, path)}"
                 for k, v in sorted(value.items())]
        brackets = "{}"
    else:
        items = [_json(v, level + 1, path) for v in value]
        brackets = "[]"
    path.remove(id(value))
    return f"{brackets[0]}{sep[1:]}{sep.join(items)}\n{'  ' * level}{brackets[1]}"


def emit(report: dict, fmt: str) -> str:
    """Serialize a report; identical reports yield byte-identical output.

    JSON is the bytes of json.dumps(report, sort_keys=True, indent=2), written
    by the stdlib's C encoder (see _json); it is stable-key-ordered and
    round-trips losslessly.  Text is a human-readable rendering; CSV flattens
    the numeric payload, or emits the first result that is a table (_is_table).
    """
    if fmt == "json":
        return _json(report, 0, set()) + "\n"
    if fmt == "csv":
        return _emit_csv(report)
    return _emit_text(report)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _ids(cset: CandidateSet, ordering: Ordering) -> list[str]:
    return [cset[i].id for i in ordering]


def _cmd_order(args, cset: CandidateSet, ordering: Ordering):
    table = []
    for pos, idx in enumerate(ordering, start=1):
        p, t = cset.ps[idx], cset.ts[idx]
        table.append({"position": pos, "id": cset[idx].id, "p": p,
                      "mean_time": t, "ratio": p / t})
    return {
        "order": _ids(cset, ordering),
        "perm": list(ordering.perm),
        "ratio_sorted": True,
        "table": table,
    }, 0


def _cmd_expect(args, cset: CandidateSet, ordering: Ordering):
    opts = schedule.ExpectationOptions(include_failure_tail=not args.no_tail)
    value = schedule.expected_time(cset, ordering, opts)
    return {
        "include_failure_tail": opts.include_failure_tail,
        "expected_time": value,
    }, 0


def _cmd_excess(args, cset: CandidateSet, ordering: Ordering):
    from . import excess

    rep = excess.general_swap_excess(cset, ordering, args.k, args.n)
    direct = excess.exact_excess_direct(cset, ordering, args.k, args.n)
    agree = model._agrees(rep.total, direct)
    return {
        **rep._asdict(),
        "direct_oracle": direct,
        "oracle_abs_diff": abs(rep.total - direct),
        "oracle_agrees": agree,
    }, (0 if agree else 3)


def _cmd_bounds(args, cset: CandidateSet, ordering: Ordering):
    from . import bounds, excess

    k, n = args.k, args.n
    band = dict.fromkeys(("c", "d", "t_min", "t_max"))  # the premises' bands; adjacent has none
    if args.profile == "adjacent":
        if n != 1:
            raise CliInputError("--profile adjacent is defined for --n 1")
        given = [f"--{f}" for f in ("c", "d", "tmin", "tmax") if getattr(args, f) is not None]
        if given:
            raise CliInputError("--profile adjacent reads no --c, --d, --tmin or --tmax; "
                                f"got {', '.join(given)}")
        res = bounds.adjacent_excess_bounds(cset, ordering, k)
    else:
        if args.c is None or args.d is None:
            raise CliInputError(f"--profile {args.profile} requires --c and --d")
        band = {"c": args.c, "d": args.d,
                "t_min": args.tmin if args.tmin is not None else min(cset.ts),
                "t_max": args.tmax if args.tmax is not None else max(cset.ts)}
        evaluate = {
            "general-upper": bounds.swap_excess_upper_general,
            "general-lower": bounds.swap_excess_lower_general,
            "equal-t-upper": bounds.swap_excess_upper_equal_t,
            "equal-t-lower": bounds.swap_excess_lower_equal_t,
        }[args.profile]
        res = evaluate(cset, ordering, k, n, bounds.BoundAssumptions(**band, profile=args.profile))
    exact = excess.exact_excess_direct(cset, ordering, k, n)
    return {
        "profile": args.profile,
        "k": k,
        "n": n,
        **band,
        "lower": res.lower,
        "upper": res.upper,
        "A": res.A,
        "B": res.B,
        "assumptions_ok": res.assumptions_ok,
        "violations": [str(v) for v in res.violations],
        "exact_excess": exact,
    }, (2 if (args.strict and not res.assumptions_ok) else 0)


def _cmd_verify_optimal(args, cset: CandidateSet, ordering: Ordering):
    from . import search

    bf = search.brute_force_best_order(cset)
    rule_value = schedule.expected_time(cset, ordering)
    agree = model._agrees(rule_value, bf.best_expected_time)
    return {
        "evaluated": bf.evaluated,
        "best_order": _ids(cset, bf.best_order),
        "best_expected_time": bf.best_expected_time,
        "rule_order": _ids(cset, ordering),
        "rule_expected_time": rule_value,
        "agree": agree,
    }, (0 if agree else 3)


def _cmd_simulate(args, cset: CandidateSet, ordering: Ordering):
    from . import montecarlo

    fields = montecarlo.simulate(cset, ordering, args.trials, args.seed)._asdict()
    del fields["seed"]  # the report's head holds it
    return fields, 0


def _cmd_check(args, cset, ordering):
    from . import checks

    cfg = checks.VerificationConfig(
        instances=args.instances, seed=args.seed, equal_p_only=args.equal_p
    )
    rep = checks.verify_bounds_random(cfg)
    return rep.to_dict(), (0 if rep.passed else 3)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusals echo each value as model._clipped cuts it.

    add_subparsers makes each command's parser of this class too.
    """

    def error(self, message):
        unrecognized = "unrecognized arguments: "
        if message.startswith(unrecognized):  # the arguments joined, then clipped once
            message = unrecognized + model._clipped(message[len(unrecognized):])
        else:  # each quoted repr on its own, so the choices hint is kept
            message = re.sub(r"'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"',
                             lambda m: model._clipped(m[0]), message)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    # Every command takes --format; all but check also read a candidate file.
    # An option several commands share is declared once, in a parent parser,
    # and main reads it.  Each command's parser names its handler as ``run``.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv", "text"), default="text",
                        help="output format (default: text)")
    with_input = argparse.ArgumentParser(add_help=False, parents=[output])
    with_input.add_argument("-i", "--input", default="-",
                            help="candidate file, or - for standard input (default)")
    with_input.add_argument("--input-format", choices=("json", "csv"),
                            help="input format (default: by file extension, else json)")
    ordered = argparse.ArgumentParser(add_help=False)
    ordered.add_argument("--order", default="optimal",
                         help="'optimal' (the default) or comma-separated candidate ids")
    swap = argparse.ArgumentParser(add_help=False)
    swap.add_argument("--k", type=int, required=True, help="earlier position, 1-based")
    swap.add_argument("--n", type=int, default=1, help="positional distance (default 1)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    parser = _Parser(
        prog="trialorder",
        description="Optimal candidate ordering, exact swap penalties, verified bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", parents=[with_input],
                             help="optimal trial order by descending p/mean-time ratio")
    p_order.set_defaults(run=_cmd_order)

    p_expect = sub.add_parser("expect", parents=[with_input, ordered],
                              help="expected solving time of an ordering")
    p_expect.add_argument("--no-tail", action="store_true",
                          help="drop the all-candidates-fail time term")
    p_expect.set_defaults(run=_cmd_expect)

    p_excess = sub.add_parser("excess", parents=[with_input, swap, ordered],
                              help="exact penalty of swapping positions k and k+n (1-based)")
    p_excess.set_defaults(run=_cmd_excess)

    p_bounds = sub.add_parser("bounds", parents=[with_input, swap, ordered],
                              help="closed-form bounds on the swap penalty")
    p_bounds.add_argument("--c", type=float, help="lower probability bound in (0,1)")
    p_bounds.add_argument("--d", type=float, help="upper probability bound in (0,1)")
    p_bounds.add_argument("--tmin", type=float, help="lower time bound (default: min mean time)")
    p_bounds.add_argument("--tmax", type=float, help="upper time bound (default: max mean time)")
    p_bounds.add_argument("--profile", choices=model.PROFILES, default="general-upper",
                          help="adjacent takes no --c, --d, --tmin or --tmax")
    p_bounds.add_argument("--strict", action="store_true",
                          help="exit 2 when a bound's assumptions are violated")
    p_bounds.set_defaults(run=_cmd_bounds)

    verify_help = ("exact optimum over all orders vs the ordering rule "
                   f"(N <= {model.MAX_BRUTE_FORCE_N})")
    p_verify = sub.add_parser("verify-optimal", parents=[with_input], help=verify_help,
                              description=verify_help)
    p_verify.set_defaults(run=_cmd_verify_optimal)

    p_sim = sub.add_parser("simulate", parents=[with_input, ordered, seeded],
                           help="seeded Monte Carlo estimate of the expected solving time")
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.set_defaults(run=_cmd_simulate)

    p_check = sub.add_parser("check", parents=[output, seeded],
                             help="randomized cross-validation of every closed form")
    p_check.add_argument("--instances", type=int, default=1000)
    p_check.add_argument("--equal-p", action="store_true",
                         help="pin the generator to equal-probability instances")
    p_check.set_defaults(run=_cmd_check)

    return parser


def _write(text: str) -> str | None:
    """Write and flush ``text``: None, or why not, its unwritten bytes then sent to os.devnull."""
    if sys.stdout is None:  # the process was started with descriptor 1 closed
        return "stdout is closed"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:  # a full disk, a closed pipe
        with suppress(AttributeError, OSError, ValueError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())  # so the exit's flush cannot fail again
        return str(e)
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a failed write of help or a version is ignored, as argparse does
        _write("")
        return 0 if exc.code in (0, None) else 1

    cset = digest = ordering = None
    try:
        if hasattr(args, "input"):  # the command's parser takes a candidate file
            cset, digest = ingest(args.input, _infer_format(args.input, args.input_format))
            ordering = _resolve_ordering(getattr(args, "order", None), cset)
        results, code = args.run(args, cset, ordering)
    except AssumptionError as e:
        print(f"trialorder: assumption violation: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # a CliInputError, or a value a computation refused
        print(f"trialorder: error: {e}", file=sys.stderr)
        return 1
    if hasattr(args, "order"):  # the results lead with the ordering given
        results = {"ordering": _ids(cset, ordering), **results}
    bad = [f"{k} is not finite: {v!r}" for k, v in _non_finite("results", results)]
    if bad:  # JSON has no inf or nan, so such a report is not printed in any format
        print("\n".join(f"trialorder: error: {b}" for b in bad), file=sys.stderr)
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
    error = _write(emit(report, args.format))
    if error is not None:
        print(f"trialorder: error: cannot write the report: {error}", file=sys.stderr)
        return 1
    return code


def run_process():
    """Run main() as the ``trialorder`` process, which exits with main's code.

    Unless something watches the interpreter, the exit skips its teardown (module
    cleanup, the last collection, freeing numpy): the exit handlers run, stdout and
    stderr are flushed, then os._exit.  A host process ends too; embed main(argv).
    """
    code = main()
    hooks = getattr(sys, "monitoring", None)  # CPython 3.12 on: cProfile's, coverage's
    if (sys.gettrace() or sys.getprofile() or any(map(hooks.get_tool, range(6)) if hooks else ())
            or "bdb" in sys.modules  # pdb clears its trace function on "continue"
            or sys.flags.inspect or threading.active_count() > 1
            or not hasattr(atexit, "_run_exitfuncs")):
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # the normal exit words it, as it would have
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run_process()
