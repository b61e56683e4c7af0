import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trialorder
import trialorder.excess as excess_mod
from trialorder import cli
from trialorder.excess import ExcessReport

THREE_JSON = json.dumps({
    "candidates": [
        {"id": "c1", "p": 0.5, "times": [1.0]},
        {"id": "c2", "p": 0.4, "times": [1.0]},
        {"id": "c3", "p": 0.3, "times": [1.0]},
    ]
})


@pytest.fixture
def three(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(THREE_JSON)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_json_two_candidates(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [1]},'
                        ' {"id": "b", "p": 0.25, "times": [2, 4]}]}')
        cset, digest = cli.ingest(str(path), "json")
        assert cset.N == 2
        assert len(digest) == 64

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "set.csv"
        path.write_text("id,p,t1,t2\nx,0.9,3,\ny,0.5,1,2\n")
        cset, _ = cli.ingest(str(path), "csv")
        assert cset.ids == ("x", "y")
        assert cset[1].time_samples == (1.0, 2.0)

    def test_csv_bad_probability_names_row_and_field(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,p,t1\nok,0.5,1\nbad,1.2,1\n")
        code, _, err = run(capsys, ["order", "-i", str(path)])
        assert code == 1
        assert "row 3" in err
        assert "'p'" in err

    def test_empty_candidate_list(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"candidates": []}')
        code, _, err = run(capsys, ["order", "-i", str(path)])
        assert code == 1
        assert "empty set" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["order", "-i", "/nonexistent/x.json"])
        assert code == 1
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(capsys, ["order", "-i", str(path)])
        assert code == 1
        assert "parse error" in err

    def test_json_lists_each_problem_once(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"candidates": [
            {"id": "a", "p": 1.5, "times": [1.0]},
            {"id": "b", "p": 0.5, "times": [0.0, "x"]},
            {"id": "ok", "p": 0.5, "times": [1.0]},
            {"id": "a", "p": 0.2, "times": []},
        ]}))
        code, _, err = run(capsys, ["order", "-i", str(path)])
        assert code == 1
        assert err.splitlines() == [
            "trialorder: error: candidates[0]: field 'p': probability 1.5 out of [0, 1]",
            "candidates[1]: field 'times': non-positive time sample 0.0",
            "candidates[1]: field 'times': not a number: 'x'",
            "candidates[3]: field 'times': no execution time samples",
            "candidates[3]: field 'id': duplicate candidate id 'a'",
        ]

    def test_json_rejects_string_times_and_boolean_numbers(self, capsys, tmp_path):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"candidates": [
            {"id": "a", "p": 0.5, "times": "19"},
            {"id": "b", "p": True, "times": [2]},
            {"id": "c", "p": "0.5", "times": [False, 1]},
        ]}))
        code, out, err = run(capsys, ["order", "-i", str(path)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "trialorder: error: candidates[0]: field 'times': not a sequence: '19'",
            "candidates[1]: field 'p': not a number: True",
            "candidates[2]: field 'times': not a number: False",
        ]

    def test_csv_lists_each_problem_once(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,p,t1,t2\nx,nope,1,\ny,0.5,-2,inf\nx,0.4,1,\n")
        code, _, err = run(capsys, ["order", "-i", str(path)])
        assert code == 1
        assert err.splitlines() == [
            "trialorder: error: row 2: field 'p': not a number: 'nope'",
            "row 3: field 'times': non-positive time sample -2.0",
            "row 3: field 'times': non-finite time sample inf",
            "row 4: field 'id': duplicate candidate id 'x'",
        ]

    def test_ingested_set_equals_the_public_constructor(self, tmp_path):
        path = tmp_path / "set.csv"
        path.write_text("id,p,t1,t2\nx,0.9,3,\ny,1,1,2.5\n")
        cset, _ = cli.ingest(str(path), "csv")
        assert cset == trialorder.CandidateSet((trialorder.Candidate("x", 0.9, (3.0,)),
                                                trialorder.Candidate("y", 1.0, (1.0, 2.5))))
        assert (cset.ps, cset.ts) == ((0.9, 1.0), (3.0, 1.75))
        assert all(type(v) is float for c in cset for v in (c.p, *c.time_samples))

    def test_clean_json_builds_the_public_constructor_set(self, tmp_path):
        recs = [{"id": "a", "p": 0.5, "times": [1.0, 2.5]},
                {"id": "b", "p": -0.0, "times": [3.0]},
                {"id": "c", "p": 1, "times": [2, 4]},
                {"id": "d", "p": 1.0, "times": [0.5]}]
        # All-float records, then the same with one int p and int times.
        for rows in (recs[:2] + recs[3:], recs):
            path = tmp_path / "set.json"
            path.write_text(json.dumps({"candidates": rows}))
            cset, _ = cli.ingest(str(path), "json")
            want = trialorder.CandidateSet.from_records(rows)
            assert (cset, cset.ps, cset.ts) == (want, want.ps, want.ts)
            signs = [math.copysign(1.0, p) for p in cset.ps]
            assert signs == [math.copysign(1.0, p) for p in want.ps]
            assert all(type(v) is float for c in cset for v in (c.p, *c.time_samples))

    def test_json_non_object_is_listed_with_the_other_problems(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text('{"candidates": [{"id":"a","p":2,"times":[1]}, 5,'
                        ' {"id":"c","p":0.5,"times":[-1]}]}')
        assert run(capsys, ["order", "-i", str(path)]) == (1, "", (
            "trialorder: error: candidates[0]: field 'p': probability 2.0 out of [0, 1]\n"
            "candidates[1]: field 'record': not an object\n"
            "candidates[2]: field 'times': non-positive time sample -1.0\n"))

    @pytest.mark.parametrize("name, data, argv, message", [
        ("no-list.json", b'{"x": 1}', ["order"],
         'JSON parse error: expected an object with a "candidates" list'),
        ("not-list.json", b'{"candidates": 3}', ["order"],
         'JSON parse error: "candidates" must be a list'),
        ("blank.csv", b"\n  \n,,\n", ["order"], "CSV parse error: empty file"),
        ("latin1.json", b'{"candidates": [{"id": "\xe9"}]}', ["order"],
         "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 24: "
         "invalid continuation byte"),
        ("three.json", THREE_JSON.encode(), ["bounds", "--profile", "adjacent", "--k", "2",
                                             "--n", "2"],
         "--profile adjacent is defined for --n 1"),
        ("cr.csv", b"id,p,t1\ra,0.5,1.0\r", ["order"], "CSV parse error: line 1: new-line "
         "character seen in unquoted field - do you need to open the file in universal-newline "
         "mode?"),
        ("wide.csv", b"id,p,t1\na,0.5," + b"1" * 140_000 + b"\n", ["order"],
         "CSV parse error: line 2: field larger than field limit (131072)"),
    ], ids=["json-no-candidates", "json-candidates-not-list", "csv-blank", "not-utf8",
            "adjacent-n-2", "csv-bare-carriage-return", "csv-field-limit"])
    def test_refusals_are_pinned(self, capsys, tmp_path, name, data, argv, message):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(capsys, argv + ["-i", str(path)]) == (1, "", f"trialorder: error: {message}\n")

    @pytest.mark.parametrize("template", [
        '{"candidates": %s}',
        '{"candidates": [{"id": "a", "p": 0.5, "times": %s}]}',
    ], ids=["under-candidates", "inside-times"])
    def test_deep_nesting_is_a_worded_parse_error(self, tmp_path, template):
        # json.loads raises RecursionError, not JSONDecodeError, past the
        # interpreter's recursion limit; a fresh process shows what a user sees.
        path = tmp_path / "deep.json"
        path.write_text(template % ("[" * 100_000 + "]" * 100_000))
        env = dict(os.environ, PYTHONPATH=str(Path(trialorder.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-m", "trialorder.cli", "order", "-i", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("trialorder: error: JSON parse error: "), proc.stderr

    def test_padded_integer_and_exponent_cells_build_the_json_twin(self, tmp_path):
        # Each CSV cell is stripped once and read by the full check, which
        # converts it as float() does; the JSON twin reads the same numbers.
        csv_path, json_path = tmp_path / "odd.csv", tmp_path / "odd.json"
        csv_path.write_text("id,p,t1,t2,t3\n"
                            " a , 0.31 ,3, 1e-1 ,\n"
                            "b,1,  2.5E0 ,7,0.1\n"
                            "\t c\t,0,1e300,,\n"
                            "d,  3e-1,0.2, ,\n")
        json_path.write_text('{"candidates": ['
                             '{"id": "a", "p": 0.31, "times": [3, 1e-1]},'
                             ' {"id": "b", "p": 1, "times": [2.5E0, 7, 0.1]},'
                             ' {"id": "c", "p": 0, "times": [1e300]},'
                             ' {"id": "d", "p": 3e-1, "times": [0.2]}]}')
        got, _ = cli.ingest(str(csv_path), "csv")
        want, _ = cli.ingest(str(json_path), "json")

        def bits(cset):
            return (cset.ids, [p.hex() for p in cset.ps], [t.hex() for t in cset.ts],
                    [[t.hex() for t in c.time_samples] for c in cset])

        assert bits(got) == bits(want)
        assert got.ids == ("a", "b", "c", "d") and got.ts[0] == math.fsum([3.0, 0.1]) / 2
        assert all(type(v) is float for c in got for v in (c.p, *c.time_samples))

    @pytest.mark.parametrize("data, shown", [
        ("name, p ,t1\na,0.5,1\n", "name, p ,t1"),
        ("\n , \n id ,q,t1\n", " id ,q,t1"),
        ("id,p\n", "id,p"),
    ], ids=["bad-id", "after-blank-rows", "no-time-column"])
    def test_csv_header_error_quotes_the_raw_cells(self, capsys, tmp_path, data, shown):
        path = tmp_path / "bad.csv"
        path.write_text(data)
        assert run(capsys, ["order", "-i", str(path)]) == (1, "", (
            "trialorder: error: CSV parse error: header must be 'id,p,<time columns...>', "
            f"got {shown}\n"))

    def test_csv_header_required(self, capsys, tmp_path):
        path = tmp_path / "headerless.csv"
        path.write_text("a,0.5,1\n")
        code, _, err = run(capsys, ["order", "-i", str(path)])
        assert code == 1
        assert "header" in err

    def test_csv_blank_rows_and_a_quoted_newline_keep_labels_and_values(self, capsys, tmp_path):
        # "row N" counts the non-blank rows, the header being row 1; a quoted
        # field may span lines and a row may end in \r\n or \n.
        path = tmp_path / "ok.csv"
        path.write_bytes(b'id,p,t1,t2\r\n\r\n"multi\nline",0.5,1.5,\r\n   ,  \r\n'
                         b'b,0.25," 2.0",3\r\n\nc,0.75,4.0\n')
        cset, _ = cli.ingest(str(path), "csv")
        assert cset.ids == ("multi\nline", "b", "c")
        assert [c.time_samples for c in cset] == [(1.5,), (2.0, 3.0), (4.0,)]
        assert cset.ps == (0.5, 0.25, 0.75)
        path.write_bytes(b'id,p,t1,t2\n   \n"x\ny",1.5,1.0,\n,,,\nz,0.5,"-1\n",\n'
                         b'w,0.5,2.0,\n,,\nw,0.2,1.0\n')
        assert run(capsys, ["order", "-i", str(path)]) == (1, "", (
            "trialorder: error: row 2: field 'p': probability 1.5 out of [0, 1]\n"
            "row 3: field 'times': non-positive time sample -1.0\n"
            "row 5: field 'id': duplicate candidate id 'w'\n"))

    @pytest.mark.parametrize("name, data", [
        ("missing.json", None),
        ("latin1.json", b'{"candidates": [{"id": "\xe9"}]}'),
        ("broken.json", b"{nope"),
        ("headerless.csv", b"a,0.5,1\n"),
        ("huge-field.csv", b"id,p,t1\na,0.5," + b"1" * 140_000 + b"\n"),
    ], ids=["missing-file", "not-utf8", "bad-json", "bad-csv-header", "csv-reader-error"])
    def test_every_ingest_failure_restores_the_collector(self, capsys, tmp_path, name, data):
        # The read, the decode and the parse run while the collector is paused.
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        assert gc.isenabled()
        code, out, err = run(capsys, ["order", "-i", str(path)])
        assert (code, out, err.startswith("trialorder: error: ")) == (1, "", True)
        assert gc.isenabled()


def _bench_shaped(n: int, rng: random.Random, fmt: str) -> bytes:
    """A candidate file shaped as the benchmark's large_n input: 1-3 samples, floats by repr."""
    recs = [(f"c{i + 1}", rng.uniform(1e-4, 1e-3),
             [rng.uniform(0.1, 10.0) for _ in range(rng.randint(1, 3))]) for i in range(n)]
    if fmt == "json":
        return json.dumps({"candidates": [{"id": i, "p": p, "times": ts}
                                          for i, p, ts in recs]}).encode()
    lines = ["id,p,t1,t2,t3"] + [",".join([i, repr(p), *map(repr, ts)] + [""] * (3 - len(ts)))
                                 for i, p, ts in recs]
    return ("\n".join(lines) + "\n").encode()


class TestIngestMemory:
    """Peak traced memory of cli.ingest, as a multiple of the file's size.

    Measured on N = 10^4 files of this shape (CPython 3.11): when every copy
    of the input (bytes, text, document, rows) lived until the set was
    built, JSON peaked at 7.75x and CSV at 13.38x; with each copy freed once
    the next exists and CSV rows read from the bytes, 5.31x and 5.83x.
    """

    @pytest.mark.parametrize("fmt, bound", [("json", 5.5), ("csv", 6.5)])
    def test_ingest_peak_is_bounded_by_the_input_size(self, tmp_path, fmt, bound):
        path = tmp_path / f"large.{fmt}"
        path.write_bytes(_bench_shaped(10, random.Random(1), fmt))
        cli.ingest(str(path), fmt)  # imports what ingest imports, outside the trace
        data = _bench_shaped(10_000, random.Random(17), fmt)
        path.write_bytes(data)
        gc.collect()
        tracemalloc.start()
        try:
            cset, _ = cli.ingest(str(path), fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cset.N == 10_000
        assert peak <= bound * len(data), peak / len(data)


class TestCommands:
    def test_order_lists_by_ratio(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"candidates": [{"id": "c1", "p": 0.9, "times": [3]},'
                        ' {"id": "c2", "p": 0.5, "times": [1]}]}')
        code, out, _ = run(capsys, ["order", "-i", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["results"]["order"] == ["c2", "c1"]

    def test_expect_default_optimal(self, capsys, three):
        code, out, _ = run(capsys, ["expect", "-i", three, "--format", "json"])
        assert code == 0
        assert json.loads(out)["results"]["expected_time"] == pytest.approx(1.8, rel=1e-12)

    def test_expect_explicit_order_and_no_tail(self, capsys, three):
        code, out, _ = run(capsys, ["expect", "-i", three, "--order", "c3,c2,c1",
                                    "--no-tail", "--format", "json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["ordering"] == ["c3", "c2", "c1"]
        assert results["expected_time"] == pytest.approx(2.12 - 3 * 0.21, rel=1e-12)

    def test_excess_matches_oracle(self, capsys, three):
        code, out, _ = run(capsys, ["excess", "-i", three, "--k", "1", "--n", "2",
                                    "--format", "json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["total"] == pytest.approx(0.32, rel=1e-12)
        assert results["direct_oracle"] == pytest.approx(0.32, rel=1e-12)
        assert results["oracle_agrees"] is True

    def test_excess_bad_positions(self, capsys, three):
        code, _, err = run(capsys, ["excess", "-i", three, "--k", "5", "--n", "1"])
        assert code == 1
        assert "out of range" in err

    def test_bounds_equal_t_upper(self, capsys, three):
        code, out, _ = run(capsys, ["bounds", "-i", three, "--k", "1", "--n", "2",
                                    "--c", "0.3", "--d", "0.5",
                                    "--profile", "equal-t-upper", "--format", "json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["upper"] == pytest.approx(0.668, abs=5e-4)
        assert results["assumptions_ok"] is True

    def test_bounds_adjacent_profile_needs_no_band(self, capsys, three):
        code, out, _ = run(capsys, ["bounds", "-i", three, "--k", "1",
                                    "--profile", "adjacent", "--format", "json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["lower"] == pytest.approx(0.1, rel=1e-12)
        assert results["upper"] == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("flag", ["--c", "--d", "--tmin", "--tmax"])
    def test_bounds_adjacent_rejects_band_flags(self, capsys, three, flag):
        code, out, err = run(capsys, ["bounds", "-i", three, "--k", "1",
                                      "--profile", "adjacent", flag, "0.5"])
        assert (code, out) == (1, "")
        assert err == ("trialorder: error: --profile adjacent reads no --c, --d, "
                       f"--tmin or --tmax; got {flag}\n")

    def test_bounds_band_profiles_require_c_and_d(self, capsys, three):
        code, _, err = run(capsys, ["bounds", "-i", three, "--k", "1", "--n", "2"])
        assert code == 1
        assert "requires --c and --d" in err

    def test_bounds_strict_mode_exit_2(self, capsys, three):
        argv = ["bounds", "-i", three, "--k", "1", "--n", "2",
                "--c", "0.3", "--d", "0.45", "--profile", "general-upper"]
        code, _, _ = run(capsys, argv)
        assert code == 0  # default mode reports and continues
        code, out, _ = run(capsys, argv + ["--strict", "--format", "json"])
        assert code == 2
        assert json.loads(out)["results"]["assumptions_ok"] is False

    def test_bounds_unsatisfiable_assumption_exit_2(self, capsys, tmp_path):
        path = tmp_path / "uneq.json"
        path.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [1]},'
                        ' {"id": "b", "p": 0.4, "times": [2]}]}')
        code, out, err = run(capsys, ["bounds", "-i", str(path), "--k", "1",
                                      "--c", "0.3", "--d", "0.5",
                                      "--profile", "equal-t-upper"])
        assert (code, out) == (2, "")
        assert err == ("trialorder: assumption violation: set: field 'times': "
                       "mean times are not all equal (range 1.0..2.0)\n")

    def test_verify_optimal(self, capsys, three):
        code, out, _ = run(capsys, ["verify-optimal", "-i", three, "--format", "json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["agree"] is True
        assert results["evaluated"] == 6

    def test_verify_optimal_size_guard(self, capsys, tmp_path):
        cands = [{"id": f"c{i}", "p": 0.5, "times": [1]} for i in range(11)]
        path = tmp_path / "eleven.json"
        path.write_text(json.dumps({"candidates": cands}))
        code, _, err = run(capsys, ["verify-optimal", "-i", str(path)])
        assert code == 1
        assert err == "trialorder: error: N=11 exceeds the brute-force guard of 10\n"

    def test_verify_optimal_runs_up_to_the_guard(self, capsys, tmp_path):
        cands = [{"id": f"c{i}", "p": 0.05 * (i + 1), "times": [1 + i % 3]}
                 for i in range(10)]
        path = tmp_path / "ten.json"
        path.write_text(json.dumps({"candidates": cands}))
        code, out, _ = run(capsys, ["verify-optimal", "-i", str(path), "--format", "json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["agree"] is True
        assert results["evaluated"] == 3_628_800

    def test_simulate_reports_seed(self, capsys, three):
        code, out, _ = run(capsys, ["simulate", "-i", three, "--trials", "5000",
                                    "--seed", "17", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 17
        assert payload["results"]["trials"] == 5000

    def test_check_clean(self, capsys):
        code, out, _ = run(capsys, ["check", "--instances", "60", "--seed", "4",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["passed"] is True

    def test_check_refuses_a_negative_seed(self, capsys):
        assert run(capsys, ["check", "--seed", "-1"]) == (
            1, "", "trialorder: error: expected non-negative integer\n")

    def test_check_equal_p_pinned_exposes_misprint(self, capsys):
        code, out, _ = run(capsys, ["check", "--instances", "30", "--seed", "4",
                                    "--equal-p", "--format", "json"])
        assert code == 3  # the printed equal-p formula fails its oracle
        payload = json.loads(out)
        stats = {c["name"]: c for c in payload["results"]["checks"]}
        assert stats["equal-p-paper-variant"]["failures"] == 30
        assert stats["equal-p-corrected"]["failures"] == 0

    def test_order_invariant_under_row_shuffling(self, capsys, tmp_path):
        rows = [{"id": "a", "p": 0.9, "times": [3]},
                {"id": "b", "p": 0.5, "times": [1]},
                {"id": "c", "p": 0.2, "times": [2]}]
        shuffled = [rows[1], rows[2], rows[0]]
        orders = []
        for name, payload in (("fwd.json", rows), ("shuf.json", shuffled)):
            path = tmp_path / name
            path.write_text(json.dumps({"candidates": payload}))
            _, out, _ = run(capsys, ["order", "-i", str(path), "--format", "json"])
            orders.append(json.loads(out)["results"]["order"])
        assert orders[0] == orders[1]  # distinct ratios: file order is irrelevant

    def test_order_ties_keep_file_order_within_group(self, capsys, tmp_path):
        rows = [{"id": "a", "p": 0.5, "times": [1]},
                {"id": "b", "p": 0.5, "times": [1]},
                {"id": "hot", "p": 0.9, "times": [1]}]
        path = tmp_path / "ties.json"
        path.write_text(json.dumps({"candidates": rows}))
        _, out, _ = run(capsys, ["order", "-i", str(path), "--format", "json"])
        assert json.loads(out)["results"]["order"] == ["hot", "a", "b"]
        path.write_text(json.dumps({"candidates": [rows[1], rows[0], rows[2]]}))
        _, out, _ = run(capsys, ["order", "-i", str(path), "--format", "json"])
        assert json.loads(out)["results"]["order"] == ["hot", "b", "a"]

    def test_order_spec_unknown_id(self, capsys, three):
        code, _, err = run(capsys, ["expect", "-i", three, "--order", "c1,nope,c3"])
        assert code == 1
        assert "unknown candidate id" in err

    def test_order_spec_must_cover_all_ids(self, capsys, three):
        code, _, err = run(capsys, ["expect", "-i", three, "--order", "c1,c2"])
        assert code == 1
        assert "every candidate id exactly once" in err


class TestSwapGate:
    """Exit code and stderr of the inputs the swap gate and the evaluators refuse."""

    @pytest.fixture
    def eight(self, tmp_path):
        path = tmp_path / "eight.json"
        path.write_text(json.dumps({"candidates": [
            {"id": f"c{i}", "p": 0.1 * i, "times": [1.0 + i]} for i in range(1, 9)]}))
        return str(path)

    @pytest.fixture
    def certain(self, tmp_path):
        path = tmp_path / "certain.json"
        path.write_text('{"candidates": [{"id": "a", "p": 1.0, "times": [1]},'
                        ' {"id": "b", "p": 0.5, "times": [2]},'
                        ' {"id": "c", "p": 0.4, "times": [3]}]}')
        return str(path)

    def test_excess_k_zero(self, capsys, three):
        code, out, err = run(capsys, ["excess", "-i", three, "--k", "0"])
        assert (code, out) == (1, "")
        assert err == "trialorder: error: swap positions k=0, k+n=1 out of range 1..3\n"

    def test_excess_distance_checked_before_positions(self, capsys, three):
        code, _, err = run(capsys, ["excess", "-i", three, "--k", "0", "--n", "0"])
        assert code == 1
        assert err == "trialorder: error: swap distance n=0 must be >= 1\n"

    def test_bounds_swap_past_the_end(self, capsys, eight):
        code, out, err = run(capsys, ["bounds", "-i", eight, "--k", "7", "--n", "3",
                                      "--c", "0.1", "--d", "0.9"])
        assert (code, out) == (1, "")
        assert err == "trialorder: error: swap positions k=7, k+n=10 out of range 1..8\n"

    def test_excess_certain_candidate_at_k(self, capsys, certain):
        code, out, err = run(capsys, ["excess", "-i", certain, "--k", "1", "--n", "2"])
        assert (code, out) == (1, "")
        assert err == ("trialorder: error: p=1 at position k=1: the q-decomposition "
                       "divides by (1 - p_k); use exact_excess_direct instead\n")

    def test_bounds_certain_candidate_at_k(self, capsys, certain):
        code, out, err = run(capsys, ["bounds", "-i", certain, "--k", "1", "--n", "2",
                                      "--c", "0.3", "--d", "0.9",
                                      "--profile", "general-upper"])
        assert (code, out) == (1, "")
        assert err == "trialorder: error: p=1 at a swap endpoint makes the bound singular\n"

    @pytest.mark.parametrize("profile", ["general-lower", "equal-t-upper", "equal-t-lower"])
    def test_other_bounds_certain_candidate_at_k(self, capsys, tmp_path, profile):
        path = tmp_path / "certain-equal-t.json"
        path.write_text('{"candidates": [{"id": "a", "p": 1.0, "times": [1]},'
                        ' {"id": "b", "p": 0.5, "times": [1]},'
                        ' {"id": "c", "p": 0.4, "times": [1]}]}')
        assert run(capsys, ["bounds", "-i", str(path), "--k", "1", "--n", "2", "--c", "0.3",
                            "--d", "0.9", "--profile", profile]) == (
            1, "", "trialorder: error: p=1 at position k makes the bound singular\n")

    def test_positions_checked_before_equal_times(self, capsys, tmp_path):
        uneq = tmp_path / "uneq.json"
        uneq.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [1]},'
                        ' {"id": "b", "p": 0.4, "times": [2]}]}')
        code, _, err = run(capsys, ["bounds", "-i", str(uneq), "--k", "5", "--c", "0.3",
                                    "--d", "0.5", "--profile", "equal-t-upper"])
        assert code == 1
        assert err == "trialorder: error: swap positions k=5, k+n=6 out of range 1..2\n"


class TestUnderflow:
    """A factor that underflows to 0 under a bound's division gives a report or one error line."""

    @staticmethod
    def _band_file(tmp_path, equal_times: bool) -> str:
        # p falling and t rising along the file: every swap has p_k > p_(k+n), so A is evaluated.
        rng = random.Random(400)
        ps = sorted((rng.uniform(0.5, 0.9) for _ in range(400)), reverse=True)
        ts = [1.5] * 400 if equal_times else sorted(rng.uniform(1.0, 2.0) for _ in range(400))
        cands = [{"id": f"c{i}", "p": p, "times": [t]} for i, (p, t) in enumerate(zip(ps, ts))]
        path = tmp_path / "band.json"
        path.write_text(json.dumps({"candidates": cands}))
        return str(path)

    BAND = ["--k", "350", "--n", "5", "--c", "0.5", "--d", "0.9"]

    def test_general_lower_reports_a_as_null(self, capsys, tmp_path):
        path = self._band_file(tmp_path, equal_times=False)
        code, out, err = run(capsys, ["bounds", "-i", path, "--profile", "general-lower",
                                      *self.BAND, "--format", "json"])
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert results["A"] is None
        assert math.isfinite(results["lower"]) and math.isfinite(results["B"])

    def test_general_lower_reports_a_as_null_when_c_tmin_underflows(self, capsys, tmp_path):
        path = tmp_path / "abc.json"
        path.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [1.0]},'
                        ' {"id": "b", "p": 0.4, "times": [2.0]},'
                        ' {"id": "c", "p": 0.3, "times": [3.0]}]}')
        code, out, _ = run(capsys, ["bounds", "-i", str(path), "--profile", "general-lower",
                                    "--k", "1", "--n", "2", "--c", "1e-200", "--d", "0.9",
                                    "--tmin", "1e-200", "--format", "json"])
        assert code == 0
        assert json.loads(out)["results"]["A"] is None

    def test_equal_t_lower_names_the_factor(self, capsys, tmp_path):
        path = self._band_file(tmp_path, equal_times=True)
        code, out, err = run(capsys, ["bounds", "-i", path, "--profile", "equal-t-lower",
                                      *self.BAND])
        assert (code, out) == (1, "")
        assert err == ("trialorder: error: divisor (1-d)^(k-1) underflows to 0 "
                       "at c=0.5, d=0.9, k=350\n")

    @pytest.mark.parametrize("profile, d, factor", [("equal-t-upper", "0.9", "c^2"),
                                                    ("equal-t-lower", "1e-200", "d^2")])
    def test_equal_t_names_the_squared_band_end(self, capsys, tmp_path, profile, d, factor):
        path = tmp_path / "abc.json"
        path.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [2.0]},'
                        ' {"id": "b", "p": 0.4, "times": [2.0]},'
                        ' {"id": "c", "p": 0.3, "times": [2.0]}]}')
        code, out, err = run(capsys, ["bounds", "-i", str(path), "--profile", profile,
                                      "--k", "1", "--n", "2", "--c", "1e-200", "--d", d])
        assert (code, out) == (1, "")
        assert err == (f"trialorder: error: divisor {factor} underflows to 0 "
                       f"at c=1e-200, d={d}, k=1\n")


class TestIngestPins:
    """Exit code and full stderr of JSON ingestion, as taken before clean records got a fast path.

    Each odd record follows clean ones, so a fast path that stops at it
    must hand the whole file to the full check; the accepted ones must
    build what CandidateSet.from_records builds.
    """

    CLEAN = [{"id": "a", "p": 0.5, "times": [1.0, 2.0]},
             {"id": "z", "p": 0.125, "times": [4.0, 8.0]}]
    ODD = [
        ({"id": "int-p", "p": 1, "times": [3.0]}, ""),
        ({"id": "bool-p", "p": True, "times": [1.0]}, "field 'p': not a number: True"),
        ({"id": "str-p", "p": "0.5", "times": [1.0]}, ""),
        ({"id": "nan-t", "p": 0.25, "times": [math.nan]}, "field 'times': non-finite time sample nan"),
        ({"id": "inf-t", "p": 0.25, "times": [math.inf]}, "field 'times': non-finite time sample inf"),
        ({"id": "zero-t", "p": 0.25, "times": [0]}, "field 'times': non-positive time sample 0.0"),
        ({"id": "neg-t", "p": 0.25, "times": [-1]}, "field 'times': non-positive time sample -1.0"),
        ({"id": "empty-t", "p": 0.25, "times": []}, "field 'times': no execution time samples"),
        ({"id": "str-t", "p": 0.25, "times": "12"}, "field 'times': not a sequence: '12'"),
        ({"id": "num-t", "p": 0.25, "times": 5}, "field 'times': not a sequence: 5"),
        ({"id": "a", "p": 0.75, "times": [2.0]}, "field 'id': duplicate candidate id 'a'"),
        ({"p": 0.5, "times": [1.0]}, ""),
        ({"id": 7, "p": 0.5, "times": [1.0]}, ""),
        # Integers past the float range read as the infinity they overflow to.
        ({"id": "big-p", "p": 10**400, "times": [1.0]}, "field 'p': probability inf out of [0, 1]"),
        ({"id": "big-t", "p": 0.25, "times": [10**400]}, "field 'times': non-finite time sample inf"),
        ({"id": "neg-big-t", "p": 0.25, "times": [1.0, -10**400]},
         "field 'times': non-finite time sample -inf"),
    ]

    def _order(self, capsys, tmp_path, rows):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"candidates": rows}))
        return run(capsys, ["order", "-i", str(path)])

    @pytest.mark.parametrize("rec,problem", ODD, ids=[r.get("id", "no-id") for r, _ in ODD])
    def test_odd_record_after_clean_ones(self, capsys, tmp_path, rec, problem):
        rows = self.CLEAN + [rec]
        code, out, err = self._order(capsys, tmp_path, rows)
        if problem:
            assert (code, out, err) == (1, "", f"trialorder: error: candidates[2]: {problem}\n")
        else:
            assert (code, err) == (0, "")
            cset, _ = cli.ingest(str(tmp_path / "odd.json"), "json")
            want = trialorder.CandidateSet.from_records(rows)
            assert (cset, cset.ps, cset.ts) == (want, want.ps, want.ts)

    def test_mixed_file(self, capsys, tmp_path):
        rows = self.CLEAN[:1] + [rec for rec, _ in self.ODD] + self.CLEAN[1:]
        code, out, err = self._order(capsys, tmp_path, rows)
        assert (code, out) == (1, "")
        assert err == (
            "trialorder: error: candidates[2]: field 'p': not a number: True\n"
            "candidates[4]: field 'times': non-finite time sample nan\n"
            "candidates[5]: field 'times': non-finite time sample inf\n"
            "candidates[6]: field 'times': non-positive time sample 0.0\n"
            "candidates[7]: field 'times': non-positive time sample -1.0\n"
            "candidates[8]: field 'times': no execution time samples\n"
            "candidates[9]: field 'times': not a sequence: '12'\n"
            "candidates[10]: field 'times': not a sequence: 5\n"
            "candidates[11]: field 'id': duplicate candidate id 'a'\n"
            "candidates[14]: field 'p': probability inf out of [0, 1]\n"
            "candidates[15]: field 'times': non-finite time sample inf\n"
            "candidates[16]: field 'times': non-finite time sample -inf\n"
        )

    @pytest.mark.parametrize("record", ['"p": BIG, "times": [1.0]', '"p": 0.5, "times": [BIG]'],
                             ids=["p", "times"])
    def test_integer_past_the_digit_limit(self, capsys, tmp_path, record):
        # json.loads refuses an integer longer than the interpreter's digit
        # limit (4300 by default) before any record is read.
        text = '{"candidates": [{"id": "a", ' + record.replace("BIG", "1" + "0" * 5000) + '}]}'
        with pytest.raises(ValueError) as refused:
            json.loads(text)
        path = tmp_path / "long.json"
        path.write_text(text)
        want = (1, "", f"trialorder: error: {refused.value}\n")
        assert run(capsys, ["order", "-i", str(path)]) == want


def _pairs(text: str, sep: str) -> list:
    """The (field, message) of every "<subject>: field '<field>': <message>" in text."""
    return [re.fullmatch(r".*?: field '(\w+)': (.*)", part).groups()
            for part in text.split(sep) if part]


@pytest.mark.parametrize("rec,problem", TestIngestPins.ODD,
                         ids=[r.get("id", "no-id") for r, _ in TestIngestPins.ODD])
def test_every_route_words_a_record_as_the_cli_does(capsys, tmp_path, rec, problem):
    rows = TestIngestPins.CLEAN + [rec]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"candidates": rows}))
    code, _, err = run(capsys, ["order", "-i", str(path)])
    want = _pairs(err, "\n")
    assert (code, len(want)) == ((1, 1) if problem else (0, 0))

    try:
        trialorder.CandidateSet.from_records(rows)
        from_records = []
    except ValueError as e:
        from_records = _pairs(str(e), "; ")
    try:
        trialorder.Candidate(rec.get("id", "#2"), rec["p"], rec["times"])
        alone = []
    except ValueError as e:
        alone = _pairs(str(e), "; ")
    assert from_records == want
    assert [(v.field, v.message) for v in trialorder.validate(rows).violations] == want
    assert alone == [pair for pair in want if pair[0] != "id"]  # one record has no duplicate


class TestNonFiniteResults:
    """JSON has no inf or nan: a report holding one is not printed, and every such key is named."""

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_infinite_time_band(self, capsys, tmp_path, fmt):
        path = tmp_path / "abc.json"
        path.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [1.0]},'
                        ' {"id": "b", "p": 0.4, "times": [2.0]},'
                        ' {"id": "c", "p": 0.3, "times": [3.0]}]}')
        code, out, err = run(capsys, ["bounds", "-i", str(path), "--k", "1", "--n", "2",
                                      "--c", "0.3", "--d", "0.5", "--tmax", "inf",
                                      "--format", fmt])
        assert (code, out) == (1, "")
        assert err == ("trialorder: error: results.t_max is not finite: inf\n"
                       "trialorder: error: results.upper is not finite: inf\n")

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_overflowing_expected_time(self, capsys, tmp_path, fmt):
        path = tmp_path / "huge.json"
        path.write_text('{"candidates": [{"id": "a", "p": 1.0, "times": [1e308]},'
                        ' {"id": "b", "p": 0.5, "times": [1e308]}]}')
        code, out, err = run(capsys, ["expect", "-i", str(path), "--order", "b,a",
                                      "--format", fmt])
        assert (code, out) == (1, "")
        # T_2 overflows (the exact 1.5e308 would need another fold); Q_2 = 0 keeps it from nan.
        assert err == "trialorder: error: results.expected_time is not finite: inf\n"
        code, out, err = run(capsys, ["expect", "-i", str(path), "--order", "a,b",
                                      "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["expected_time"] == 1e308

    def test_swap_behind_certain_success(self, capsys, tmp_path):
        # Q_2 = 0 and T_3 = inf: every q-term is exactly 0, as the direct difference is.
        path = tmp_path / "abc.json"
        path.write_text('{"candidates": [{"id": "a", "p": 1.0, "times": [1e308]},'
                        ' {"id": "b", "p": 0.5, "times": [1e308]},'
                        ' {"id": "c", "p": 0.5, "times": [1.0]}]}')
        code, out, err = run(capsys, ["excess", "-i", str(path), "--order", "a,b,c",
                                      "--k", "2", "--n", "1", "--format", "json"])
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert results["oracle_agrees"] is True
        assert [results[key] for key in ("q1", "q2", "q3", "total", "direct_oracle")] == [0.0] * 5

    def test_zero_p_behind_an_overflowed_time(self, capsys, tmp_path):
        # T_2 and T_3 overflow: q2's only term has p = 0 and is exactly 0, but
        # q3 is inf * 0 and both expected times are inf, so the report is refused.
        path = tmp_path / "abc.json"
        path.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [1e308]},'
                        ' {"id": "b", "p": 0.0, "times": [1e308]},'
                        ' {"id": "c", "p": 0.5, "times": [1.0]}]}')
        code, out, err = run(capsys, ["excess", "-i", str(path), "--order", "a,b,c",
                                      "--k", "1", "--n", "2", "--format", "json"])
        assert (code, out) == (1, "")
        assert err == "".join(f"trialorder: error: results.{key} is not finite: nan\n"
                              for key in ("q3", "total", "direct_oracle", "oracle_abs_diff"))

    def test_exact_search_past_certain_success(self, capsys, tmp_path):
        # In the order a, b, Q_1 = 0 and T_2 = inf: b's term and the tail are
        # exactly 0, so the search scores the order as expect does.
        path = tmp_path / "huge.json"
        path.write_text('{"candidates": [{"id": "a", "p": 1.0, "times": [1e308]},'
                        ' {"id": "b", "p": 0.5, "times": [1e308]}]}')
        code, out, err = run(capsys, ["verify-optimal", "-i", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert results["agree"] is True
        assert results["best_order"] == ["a", "b"]
        assert results["best_expected_time"] == results["rule_expected_time"] == 1e308


def test_simulate_refuses_an_overflowing_mean_without_warnings(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"candidates": [{"id":"a","p":0.5,"times":[1e308]},'
                    ' {"id":"b","p":0.5,"times":[1e308]}, {"id":"c","p":0.5,"times":[1.0]}]}')
    argv = ["simulate", "--trials", "2000", "--seed", "3", "-i", str(path)]
    assert run(capsys, argv) == (1, "", "trialorder: error: results.mean_time is not finite: inf\n")


def test_simulate_refuses_a_spread_whose_squares_overflow(capsys, tmp_path):
    # The mean is finite, but the squared times overflow, so the variance is
    # inf - inf: the report is refused instead of printing std_error 0.0.
    path = tmp_path / "spread.json"
    path.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [1e160]},'
                    ' {"id": "b", "p": 0.5, "times": [1e200]}]}')
    argv = ["simulate", "--trials", "500", "--seed", "3", "-i", str(path)]
    assert run(capsys, argv) == (1, "", "trialorder: error: results.std_error is not finite: nan\n")


@pytest.mark.parametrize("command, options", [
    ("expect", ["order"]), ("simulate", ["order"]),
    ("excess", ["k", "n", "order"]), ("bounds", ["k", "n", "order"]),
])
def test_shared_options_are_worded_alike_in_every_help(capsys, command, options):
    helps = {
        "k": "--k K earlier position, 1-based",
        "n": "--n N positional distance (default 1)",
        "order": "--order ORDER 'optimal' (the default) or comma-separated candidate ids",
    }
    code, out, _ = run(capsys, [command, "--help"])
    assert code == 0
    text = " ".join(out.split())
    assert [helps[o] in text for o in options] == [True] * len(options)


def test_verify_optimal_help_states_the_search_limit(capsys):
    from trialorder.model import MAX_BRUTE_FORCE_N

    code, out, _ = run(capsys, ["verify-optimal", "--help"])
    assert code == 0
    assert f"N <= {MAX_BRUTE_FORCE_N}" in " ".join(out.split())


class TestOverflowingSamples:
    """Samples whose sum leaves the float range are a times problem, worded alike on every route."""

    JSON = ('{"candidates":[{"id":"a","p":0.5,"times":[1e308,1e308]},'
            '{"id":"b","p":0.5,"times":[1.0]}]}')
    PROBLEM = "field 'times': sum of time samples overflows"

    @pytest.mark.parametrize("command", [
        ["order"], ["expect"], ["excess", "--k", "1"], ["bounds", "--profile", "adjacent", "--k", "1"],
        ["verify-optimal"], ["simulate", "--trials", "10"]], ids=lambda argv: argv[0])
    def test_every_command_exits_1_naming_the_record(self, capsys, tmp_path, command):
        path = tmp_path / "huge.json"
        path.write_text(self.JSON)
        code, out, err = run(capsys, command + ["-i", str(path)])
        assert (code, out, err) == (1, "", f"trialorder: error: candidates[0]: {self.PROBLEM}\n")

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("id,p,t1,t2\na,0.5,1e308,1e308\nb,0.5,1.0,\n")
        code, out, err = run(capsys, ["order", "-i", str(path)])
        assert (code, out, err) == (1, "", f"trialorder: error: row 2: {self.PROBLEM}\n")

    def test_listed_with_the_records_other_problems(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"candidates": [
            {"id": "a", "p": 2.0, "times": [1e308, 1e308]},
            {"id": "b", "p": 0.5, "times": [1.0]},
            {"id": "b", "p": 0.5, "times": (1e308, 8e307)},
            {"id": "c", "p": 0.5, "times": [1e308, math.inf, 1e308]},
        ]}))
        code, out, err = run(capsys, ["order", "-i", str(path)])
        assert (code, out) == (1, "")
        assert err == ("trialorder: error: candidates[0]: field 'p': probability 2.0 out of [0, 1]\n"
                       f"candidates[0]: {self.PROBLEM}\n"
                       f"candidates[2]: {self.PROBLEM}\n"
                       "candidates[2]: field 'id': duplicate candidate id 'b'\n"
                       "candidates[3]: field 'times': non-finite time sample inf\n")

    @pytest.mark.parametrize("times", [[1e308, 1e308], (1.7976931348623157e308, 1e292),
                                       [1e308, 5e307, 5e307], [1e308, 1e308, "1"]])
    def test_every_route_words_it_alike(self, times):
        want = [("times", "sum of time samples overflows")]
        with pytest.raises(ValueError) as alone:
            trialorder.Candidate("a", 0.5, times)
        with pytest.raises(ValueError) as from_records:
            trialorder.CandidateSet.from_records([("a", 0.5, times)])
        assert _pairs(str(alone.value), "; ") == want
        assert _pairs(str(from_records.value), "; ") == want
        report = trialorder.validate([{"id": "a", "p": 0.5, "times": times}])
        assert [(v.field, v.message) for v in report.violations] == want

    def test_a_sum_at_the_largest_float_is_admitted(self, capsys, tmp_path):
        # fsum rounds the exact sum once: this one rounds down to the largest float.
        times = [1.7976931348623157e308, 9.979201547673597e291]
        assert math.fsum(times) == 1.7976931348623157e308
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"candidates": [{"id": "a", "p": 0.5, "times": times}]}))
        code, out, err = run(capsys, ["order", "-i", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["table"][0]["mean_time"] == 1.7976931348623157e308 / 2


class TestEmission:
    def test_json_round_trip(self, capsys, three):
        _, out, _ = run(capsys, ["excess", "-i", three, "--k", "1", "--n", "2",
                                 "--format", "json"])
        payload = json.loads(out)
        assert cli.emit(payload, "json") == out  # lossless round trip

    def test_same_report_is_byte_identical(self, capsys, three):
        argv = ["excess", "-i", three, "--k", "1", "--n", "1", "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_simulate_byte_identical_for_fixed_seed(self, capsys, three):
        argv = ["simulate", "-i", three, "--trials", "2000", "--seed", "5",
                "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_csv_excess_header(self, capsys, three):
        _, out, _ = run(capsys, ["excess", "-i", three, "--k", "1", "--n", "2",
                                 "--format", "csv"])
        header = out.splitlines()[0].split(",")
        for col in ("q1", "q2", "q3", "total"):
            assert col in header

    def test_csv_order_table(self, capsys, three):
        _, out, _ = run(capsys, ["order", "-i", three, "--format", "csv"])
        lines = out.splitlines()
        assert lines[0].startswith("position,id,p,mean_time,ratio")
        assert len(lines) == 4

    def test_text_output_mentions_results(self, capsys, three):
        code, out, _ = run(capsys, ["order", "-i", three])
        assert code == 0
        assert "order: c1, c2, c3" in out


def _json_outcome(fn):
    """What fn returns, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as e:  # the type is the outcome compared
        return type(e)


_text = st.one_of(
    st.text(alphabet=st.characters(exclude_categories=())),  # lone surrogates too
    st.lists(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "\u2028", "é", "€", "😀",
                              "\ud800", "\udfff", ",\n  ", "a"])).map("".join),
)
_json_scalars = st.one_of(
    _text, st.integers(), st.integers(min_value=2**64, max_value=10**400), st.booleans(),
    st.none(), st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
)
# One key type per dict, as sort_keys needs keys it can compare; int and bool keys mix.
_json_keys = st.sampled_from([_text, st.integers(), st.floats(allow_nan=False), st.booleans(),
                              st.none(), st.one_of(st.integers(), st.booleans())])
_refused = st.sampled_from([np.int64(3), np.bool_(True), {1, 2}, frozenset(), b"bytes", 1j,
                            object()])


def _json_values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=6), st.lists(children, max_size=6).map(tuple),
            _json_keys.flatmap(lambda keys: st.dictionaries(keys, children, max_size=6))),
        max_leaves=40)


class TestJsonEmission:
    """cli.emit's JSON is the stdlib's json.dumps(sort_keys=True, indent=2) output, byte for byte."""

    @staticmethod
    def _both(report):
        return (_json_outcome(lambda: cli.emit(report, "json")),
                _json_outcome(lambda: json.dumps(report, sort_keys=True, indent=2) + "\n"))

    @given(_json_values(_json_scalars))
    @settings(max_examples=300, deadline=None)
    def test_any_report(self, report):
        got, want = self._both(report)
        assert got == want

    @given(_json_values(st.one_of(_json_scalars, _refused)))
    @settings(max_examples=150, deadline=None)
    def test_refused_values_raise_what_json_raises(self, report):
        got, want = self._both(report)
        assert got == want

    @pytest.mark.parametrize("report", [
        {"a": [np.int64(1)]}, {"a": [1, {2, 3}]}, {"a": {(1, 2): 3}}, {"a": {"b": 1}, 2: 3},
        {"a": [[1], 10**5000]}, {1: {"x": [1]}, 2.5: np.float64(2.0), 3: object()},
        # json writes the value of key 1 (too many digits) before it meets the Fraction key.
        {1: 10**5000, Fraction(3, 2): [1]},
    ])
    def test_refused_examples(self, report):
        got, want = self._both(report)
        assert isinstance(want, type) and got is want

    def test_refused_key_beside_a_container(self):
        # A dict that holds a container is walked in Python, so its keys meet
        # _json_key's refusal rather than the C encoder's.
        report = {"results": {(1, 2): [3]}}
        message = "keys must be str, int, float, bool or None, not tuple"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            cli.emit(report, "json")
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            json.dumps(report, sort_keys=True, indent=2)

    def test_circular_reference(self):
        report = {"results": {"rows": []}}
        report["results"]["rows"].append(report)
        assert self._both(report) == (ValueError, ValueError)

    def test_large_n_report(self):
        # The shape of the large-N benchmark's report: two 10^4 lists among scalars.
        rng = random.Random(9)
        n = 10_000
        perm = rng.sample(range(n), n)
        report = {
            "command": "analyse", "version": trialorder.__version__, "input_sha256": "ab" * 32,
            "results": {
                "order": [f"c{i + 1}" for i in perm], "perm": perm,
                "expected_time": rng.uniform(1e3, 1e4), "k": 1, "n": n - 1,
                "q1": rng.random(), "q2": -0.0, "q3": np.float64(rng.random()),
                "upper_assumptions_ok": True, "A": None, "table": [
                    {"position": i + 1, "id": f"c{j + 1}", "ratio": rng.random() / 7}
                    for i, j in enumerate(perm)],
            },
        }
        got, want = self._both(report)
        assert isinstance(want, str) and got == want

    def test_order_report_at_large_n(self, capsys, tmp_path):
        n = 10_000
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"candidates": [
            {"id": f"c{i}", "p": (i % 97) / 97, "times": [1.0 + i % 13, 0.5]} for i in range(n)]}))
        code, out, err = run(capsys, ["order", "-i", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestExitCodes:
    def test_unknown_command_usage_exit_1(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys, three):
        code, _, _ = run(capsys, ["order", "-i", three, "--bogus"])
        assert code == 1

    def test_flag_of_another_command_exit_1(self, capsys, three, tmp_path):
        # --strict belongs to bounds; check reads no candidate file.
        code, _, err = run(capsys, ["order", "-i", three, "--strict"])
        assert code == 1
        assert "unrecognized arguments: --strict" in err
        path = tmp_path / "f.json"
        path.write_text(THREE_JSON)
        code, _, err = run(capsys, ["check", "-i", str(path)])
        assert code == 1
        assert f"unrecognized arguments: -i {path}" in err

    def test_help_exits_0(self, capsys):
        assert run(capsys, ["--help"])[0] == 0

    def test_mutated_formula_trips_cross_check(self, capsys, three, monkeypatch):
        real = excess_mod.general_swap_excess

        def perturbed(cset, ordering, k, n):
            rep = real(cset, ordering, k, n)
            return ExcessReport(k=rep.k, n=rep.n, q1=rep.q1, q2=rep.q2, q3=rep.q3,
                                total=rep.total + 1e-3, method=rep.method)

        monkeypatch.setattr(excess_mod, "general_swap_excess", perturbed)
        code, out, _ = run(capsys, ["excess", "-i", three, "--k", "1", "--n", "2",
                                    "--format", "json"])
        assert code == 3
        assert json.loads(out)["results"]["oracle_agrees"] is False

    def test_true_build_cross_check_passes(self, capsys, three):
        code, _, _ = run(capsys, ["excess", "-i", three, "--k", "1", "--n", "2"])
        assert code == 0


class TestLazyNumpy:
    def test_import_and_order_leave_numpy_unloaded(self, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(THREE_JSON)
        # Above the array path's size, which only runs where numpy is already loaded.
        n = 2 * trialorder.model._ARRAY_MIN_N
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"candidates": [
            {"id": f"c{i}", "p": 0.25 + 0.5 * i / n, "times": [1.0 + i % 7]} for i in range(n)]}))
        code = (
            "import sys\n"
            "import trialorder.cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            f"assert trialorder.cli.main(['order', '-i', {str(path)!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'order'\n"
            f"for argv in (['order'], ['expect'], ['excess', '--k', '1', '--n', '{n - 1}'],\n"
            "             ['bounds', '--profile', 'adjacent', '--k', '2']):\n"
            f"    assert trialorder.cli.main(argv + ['-i', {str(big)!r}]) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
            "import trialorder\n"
            "trialorder.brute_force_best_order, trialorder.verify_bounds_random\n"
            "assert 'numpy' not in sys.modules, 'search and check names'\n"
            "trialorder.simulate\n"
            "assert 'numpy' in sys.modules, 'oracle names load the oracle'\n"
            # The in-process large-N analysis relies on it: its array path runs once
            # numpy is loaded, and importing the oracle is what loads it there.
            "model = trialorder.model\n"
            "assert model._numpy_for(model._ARRAY_MIN_N) is sys.modules['numpy'], 'array path'\n"
        )
        _run_fresh(code)

    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(THREE_JSON)
        prelude = (
            "import sys, contextlib, io\n"
            "def loaded(*names):\n"
            "    return [m for m in names if m in sys.modules]\n"
            "def main(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert trialorder.cli.main([*argv, '-i', {str(path)!r}]) == 0, argv\n"
        )
        _run_fresh(
            "import sys\n"
            "import trialorder\n"
            "assert [m for m in sys.modules if m.startswith('trialorder.')] == [], 'import'\n"
            "import trialorder.cli\n" + prelude +
            "main('order')\n"
            "main('expect', '--no-tail')\n"
            "assert loaded('dataclasses', 'inspect', 'csv', 'numpy', 'trialorder.bounds',\n"
            "              'trialorder.excess', 'trialorder.oracle') == []\n"
            "import trialorder.bounds\n"
            "assert trialorder.bounds.PROFILES == trialorder.model.PROFILES\n"
            "assert all(hasattr(trialorder, name) for name in trialorder.__all__)\n"
        )
        _run_fresh("import trialorder.cli\n" + prelude +
                   "main('excess', '--k', '1', '--n', '2')\n"
                   "assert loaded('trialorder.excess', 'trialorder.bounds') == ['trialorder.excess']\n")
        _run_fresh("import trialorder.cli\n" + prelude +
                   "main('verify-optimal')\n"
                   "assert 'trialorder.search' in sys.modules\n"
                   "assert loaded('numpy', 'trialorder.oracle', 'trialorder.bounds',\n"
                   "              'trialorder.excess') == []\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    assert trialorder.cli.main(['check', '--instances', '2']) == 0\n"
                   "assert 'trialorder.checks' in sys.modules\n"
                   "assert loaded('numpy', 'trialorder.oracle') == []\n")
        _run_fresh("import trialorder.cli\n" + prelude +
                   "main('simulate', '--trials', '10')\n"
                   "assert loaded('numpy', 'trialorder.oracle') == ['numpy', 'trialorder.oracle']\n"
                   "assert loaded('trialorder.search', 'trialorder.checks') == []\n")

    def test_commands_run_with_numpy_blocked(self, capsys, tmp_path):
        # With numpy unimportable, each of these commands prints what it prints
        # where numpy is loaded (here, in the test process).
        path = tmp_path / "three.json"
        path.write_text(THREE_JSON)
        commands = [["order"], ["expect"], ["excess", "--k", "1", "--n", "2"],
                    ["bounds", "--profile", "adjacent", "--k", "2"], ["verify-optimal"]]
        runs = [argv + ["-i", str(path), "--format", "json"] for argv in commands]
        runs.append(["check", "--instances", "20", "--seed", "3", "--format", "json"])
        stdout = _run_fresh(
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "import trialorder.cli\n"
            "out = []\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as f:\n"
            "        out.append((trialorder.cli.main(argv), f.getvalue()))\n"
            "print(json.dumps(out))\n"
        )
        blocked = [tuple(r) for r in json.loads(stdout)]
        assert "numpy" in sys.modules
        assert blocked == [run(capsys, argv)[:2] for argv in runs]
        assert [code for code, _ in blocked] == [0] * len(runs)


def _run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports trialorder from this tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(trialorder.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStdin:
    def test_dash_reads_standard_input(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin",
                            type("S", (), {"buffer": io.BytesIO(THREE_JSON.encode())})())
        code, out, _ = run(capsys, ["order", "--format", "json"])
        assert code == 0
        assert json.loads(out)["results"]["order"] == ["c1", "c2", "c3"]
