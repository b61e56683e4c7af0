import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

    def test_csv_header_required(self, capsys, tmp_path):
        path = tmp_path / "headerless.csv"
        path.write_text("a,0.5,1\n")
        code, _, err = run(capsys, ["order", "-i", str(path)])
        assert code == 1
        assert "header" in err


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

    def test_positions_checked_before_equal_times(self, capsys, tmp_path):
        uneq = tmp_path / "uneq.json"
        uneq.write_text('{"candidates": [{"id": "a", "p": 0.5, "times": [1]},'
                        ' {"id": "b", "p": 0.4, "times": [2]}]}')
        code, _, err = run(capsys, ["bounds", "-i", str(uneq), "--k", "5", "--c", "0.3",
                                    "--d", "0.5", "--profile", "equal-t-upper"])
        assert code == 1
        assert err == "trialorder: error: swap positions k=5, k+n=6 out of range 1..2\n"


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
        code = (
            "import sys\n"
            "import trialorder.cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            f"assert trialorder.cli.main(['order', '-i', {str(path)!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'order'\n"
            "import trialorder\n"
            "trialorder.simulate\n"
            "assert 'numpy' in sys.modules, 'oracle names load the oracle'\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=str(Path(trialorder.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestStdin:
    def test_dash_reads_standard_input(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin",
                            type("S", (), {"buffer": io.BytesIO(THREE_JSON.encode())})())
        code, out, _ = run(capsys, ["order", "--format", "json"])
        assert code == 0
        assert json.loads(out)["results"]["order"] == ["c1", "c2", "c3"]
