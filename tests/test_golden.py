"""Golden reports: every CLI report keeps its exact bytes.

The sha256 digests below were taken from the package before its candidate
vectors were cached and its ingestion was reduced to one validation pass;
any change to a reported float, to its formatting or to the report layout
changes a digest.  The inputs are generated here from fixed seeds and
written with ``repr`` floats, so the files, and hence their digests in the
reports, are the same on every run.

The N=8 cases are the invocations of the benchmark's ``cli_cold`` rotation,
on a JSON and a CSV file; the N=2,000 cases run ``order``, ``expect``,
``excess``, ``bounds`` and ``simulate`` on a JSON file.  The N=2,000
``simulate`` digests (5,000 trials in three chunks) were taken before a
chunk stopped holding its trials' draws as rows x N matrices.  The premise cases run every band
profile on reports that list violations (the p and time bands, t_max and
t_min, both swap-local premises of general-lower, the adjacent ratio order,
and the same general-lower case under ``--strict``, which exits 2) on the
N=8 JSON file and on an N=8 file whose mean times are all equal; their
digests were taken before the swap check and the premise lists each got one
owner.  The prefix cases run the bounds where they read S_(k-1) or
Q_(k-1): adjacent at k = 1 and 2 (the exact Q), general-lower at k = 1,500
on the N=2,000 file and equal-t-lower at k = 5; their digests were taken
before the bounds read their prefix sums in one place.  The three ``check``
cases need no input file; their digests were taken before ``VerificationConfig`` lost its
generator-range and tolerance fields, and the equal-p one exits 3 (the
printed equal-p formula misses its oracle), so each digest is pinned beside
its exit code.  Each case is emitted as json, text and csv.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random

import pytest

from trialorder import cli

FORMATS = ("json", "text", "csv")


def _records(rng: random.Random, n: int, p_lo: float, p_hi: float) -> list[dict]:
    return [{"id": f"c{i + 1}", "p": rng.uniform(p_lo, p_hi),
             "times": [rng.uniform(0.1, 10.0) for _ in range(rng.randint(1, 3))]}
            for i in range(n)]


def _csv_text(recs: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "p", "t1", "t2", "t3"])
    for r in recs:
        cells = [repr(t) for t in r["times"]]
        w.writerow([r["id"], repr(r["p"])] + cells + [""] * (3 - len(cells)))
    return buf.getvalue()


SMALL = _records(random.Random("golden-small"), 8, 0.05, 0.95)
SMALL_CSV = _records(random.Random("golden-small-csv"), 8, 0.05, 0.95)
LARGE = _records(random.Random("golden-large"), 2000, 1e-3, 1e-2)
EQUAL_T = [dict(r, times=[4.25]) for r in _records(random.Random("golden-equal-t"), 8, 0.05, 0.95)]


def _mean(r: dict) -> float:
    return sum(r["times"]) / len(r["times"])


def _small_cases(name: str, recs: list[dict]) -> dict[str, list[str]]:
    given = ",".join(r["id"] for r in random.Random(f"given-{name}").sample(recs, len(recs)))
    c = min(r["p"] for r in recs)
    d = max(r["p"] for r in recs)
    return {
        f"{name}/order": ["order"],
        f"{name}/expect": ["expect"],
        f"{name}/expect_no_tail": ["expect", "--no-tail", "--order", given],
        f"{name}/excess": ["excess", "--k", "1", "--n", "3"],
        f"{name}/bounds_general_upper": ["bounds", "--profile", "general-upper", "--k", "1",
                                         "--n", "3", "--c", repr(c), "--d", repr(d)],
        f"{name}/bounds_adjacent": ["bounds", "--profile", "adjacent", "--k", "3"],
        f"{name}/verify_optimal": ["verify-optimal"],
        f"{name}/simulate": ["simulate", "--trials", "10000", "--seed", "7"],
    }


def _large_cases() -> dict[str, list[str]]:
    c = min(r["p"] for r in LARGE)
    d = max(r["p"] for r in LARGE)
    n = len(LARGE)
    return {
        "large.json/order": ["order"],
        "large.json/expect": ["expect"],
        "large.json/expect_no_tail": ["expect", "--no-tail"],
        "large.json/excess": ["excess", "--k", "1", "--n", str(n - 1)],
        "large.json/bounds_general_upper": ["bounds", "--profile", "general-upper", "--k", "1",
                                            "--n", str(n - 1), "--c", repr(c), "--d", repr(d)],
        "large.json/bounds_general_lower": ["bounds", "--profile", "general-lower",
                                            "--k", "10", "--n", "5",
                                            "--c", repr(c), "--d", repr(d)],
        "large.json/bounds_adjacent": ["bounds", "--profile", "adjacent", "--k", str(n - 1)],
        "large.json/simulate": ["simulate", "--trials", "5000", "--seed", "7"],
    }


def _premise_cases() -> dict[str, tuple[str, list[str]]]:
    """Bound reports that list violations, in the order the premises are checked."""
    ids = [r["id"] for r in SMALL]
    # a before b at distance 3 breaks both swap-local premises of general-lower.
    a, b = next((x, y) for x in SMALL for y in SMALL
                if x["p"] < y["p"] and _mean(x) > _mean(y))
    rest = [i for i in ids if i not in (a["id"], b["id"])]
    against = ",".join(rest[:1] + [a["id"]] + rest[1:3] + [b["id"]] + rest[3:])
    lower = ["bounds", "--profile", "general-lower", "--order", against, "--k", "2",
             "--n", "3", "--c", "0.3", "--d", "0.7",
             "--tmin", repr(sorted(_mean(r) for r in SMALL)[2])]
    by_ratio = ",".join(r["id"] for r in sorted(SMALL, key=lambda r: r["p"] / _mean(r)))
    eq_c = min(r["p"] for r in EQUAL_T)
    eq_d = max(r["p"] for r in EQUAL_T)
    eq_given = ",".join(r["id"] for r in random.Random("given-equal-t").sample(EQUAL_T, 8))
    return {
        "equal_t.json/bounds_equal_t_upper": ("equal_t.json", [
            "bounds", "--profile", "equal-t-upper", "--k", "2", "--n", "3",
            "--c", repr(eq_c), "--d", repr(eq_d)]),
        "equal_t.json/bounds_equal_t_lower": ("equal_t.json", [
            "bounds", "--profile", "equal-t-lower", "--order", eq_given, "--k", "2",
            "--n", "4", "--c", "0.3", "--d", "0.7"]),
        "small.json/bounds_general_upper_narrow": ("small.json", [
            "bounds", "--profile", "general-upper", "--k", "1", "--n", "3",
            "--c", "0.3", "--d", "0.7", "--tmax", "5.0"]),
        "small.json/bounds_general_lower_against": ("small.json", lower),
        "small.json/bounds_general_lower_against_strict": ("small.json", lower + ["--strict"]),
        "small.json/bounds_adjacent_against": ("small.json", [
            "bounds", "--profile", "adjacent", "--order", by_ratio, "--k", "3"]),
    }


def _prefix_cases() -> dict[str, tuple[str, list[str]]]:
    """Bound reports at the prefix lengths where the bounds read S_(k-1) or Q_(k-1).

    The adjacent bound takes the exact Q_(k-1) at k = 1 and 2; general-lower
    adds up 1,499 probabilities at k = 1,500; equal-t-lower reads S_4.
    """
    c = min(r["p"] for r in LARGE)
    d = max(r["p"] for r in LARGE)
    eq_c = min(r["p"] for r in EQUAL_T)
    eq_d = max(r["p"] for r in EQUAL_T)
    return {
        "small.json/bounds_adjacent_k1": ("small.json", [
            "bounds", "--profile", "adjacent", "--k", "1"]),
        "small.json/bounds_adjacent_k2": ("small.json", [
            "bounds", "--profile", "adjacent", "--k", "2"]),
        "large.json/bounds_general_lower_k1500": ("large.json", [
            "bounds", "--profile", "general-lower", "--k", "1500", "--n", "5",
            "--c", repr(c), "--d", repr(d)]),
        "equal_t.json/bounds_equal_t_lower_k5": ("equal_t.json", [
            "bounds", "--profile", "equal-t-lower", "--k", "5", "--n", "3",
            "--c", repr(eq_c), "--d", repr(eq_d)]),
    }


def cases() -> dict[str, tuple[str | None, list[str]]]:
    """Case name -> (input file name or None, argv without -i and --format)."""
    out: dict[str, tuple[str | None, list[str]]] = {}
    for name, recs in (("small.json", SMALL), ("small.csv", SMALL_CSV)):
        for case, argv in _small_cases(name, recs).items():
            out[case] = (name, argv)
    for case, argv in _large_cases().items():
        out[case] = ("large.json", argv)
    out.update(_premise_cases())
    out.update(_prefix_cases())
    out["check"] = (None, ["check", "--instances", "10", "--seed", "3"])
    out["check_seed11"] = (None, ["check", "--instances", "200", "--seed", "11"])
    out["check_equal_p"] = (None, ["check", "--equal-p", "--instances", "50", "--seed", "3"])
    return out


def write_inputs(directory) -> None:
    (directory / "small.json").write_text(json.dumps({"candidates": SMALL}))
    (directory / "small.csv").write_text(_csv_text(SMALL_CSV))
    (directory / "large.json").write_text(json.dumps({"candidates": LARGE}))
    (directory / "equal_t.json").write_text(json.dumps({"candidates": EQUAL_T}))


def report_digest(directory, case: str, fmt: str) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one case in one output format."""
    source, argv = cases()[case]
    argv = list(argv) + ["--format", fmt]
    if source is not None:
        argv += ["-i", str(directory / source)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


GOLDEN: dict[str, tuple[int, str]] = {  # case/format -> (exit code, sha256 of stdout)
    "check/json": (0, "8843cdc28ba8674485508b62d021e86070a7f48a60b02ac66846647480da8a28"),
    "check/text": (0, "f16fb53c433b3b28d546b4587e6f08970a2b4608cd2e89775ac77a38f615dd6c"),
    "check/csv": (0, "ccb6452a568a210fd884d424cf5aa0bc0db4a9916194fb50292e28587e26c58d"),
    "check_equal_p/json": (3, "d2ac0a38a684b3ab2cbe9e678b90401005b6df32743dffb4a4c5ddf86c7b4639"),
    "check_equal_p/text": (3, "d28d55d6d9e6c18934151c455bd6c82960bb2a46b40c7a7796fd9c5d7725f11b"),
    "check_equal_p/csv": (3, "96d0341e4fbb2bedda5a2b07a530306f7ac401c3967b3c94ccfb7573385fc94a"),
    "check_seed11/json": (0, "6a0fd07e9fa84c237952b54e2bc5b72972c846587a0787d135197fff65174bad"),
    "check_seed11/text": (0, "99bc6d773d531dd654b47514e4213f56da82978f5146d4211a82de3bc0cc3042"),
    "check_seed11/csv": (0, "fb6dfe14c4b5c5795c42d487cdba5db3fefca11acf8ed1fd010d58c6417d2fe7"),
    "equal_t.json/bounds_equal_t_lower/json": (0, "502e81ccf996573b46c1cabc03a5f5810fe13a93408c49e3a3b182bd1f140588"),
    "equal_t.json/bounds_equal_t_lower/text": (0, "be832ed9639a40a86146e5dbcf404c546b3de9b8d39cf9c896269bcf3e6e524c"),
    "equal_t.json/bounds_equal_t_lower/csv": (0, "3b5e3ddde9079f2dfb0743de2476ff4575498d6d2da7ebf6a90a426c73adae0e"),
    "equal_t.json/bounds_equal_t_lower_k5/json": (0, "e3fa01e40ddb3501836f8da2242431c1e88de33764bc8f4878733908e6909de7"),
    "equal_t.json/bounds_equal_t_lower_k5/text": (0, "0a4ff241a249da94a226d3fbeceb8e2c51a3c6ee3676a7cd49add6596043ec7e"),
    "equal_t.json/bounds_equal_t_lower_k5/csv": (0, "2c5406492bc025061ec9e0cfea0e487d31a1dc81992412375748572465b21549"),
    "equal_t.json/bounds_equal_t_upper/json": (0, "4210bbbc424ea775a4b7ec48722881c40036f2fb7f6c4db3bf05ee255788b775"),
    "equal_t.json/bounds_equal_t_upper/text": (0, "f5f539741e31d7666f9cec7e6725224d6156d4876902265ddb3ee0257de08c7a"),
    "equal_t.json/bounds_equal_t_upper/csv": (0, "120c32375d3c8c844d8e8c7ee16aeeed9e8f1132bae3df20092c1cdfec8f8618"),
    "large.json/bounds_adjacent/json": (0, "1c83db2a3716283a857d76ba09fc2cabd94670db3f57359d50ad60ef30c6de35"),
    "large.json/bounds_adjacent/text": (0, "2afca33765dac7f7c4ec5c56c57cfc6884b66f724360e5bd7402d86ea8857399"),
    "large.json/bounds_adjacent/csv": (0, "6e49496a6985bf3e0074c30bfb00cc6541e94e71c59891b59d838a146ef2fa9d"),
    "large.json/bounds_general_lower/json": (0, "5299f9d2fe330ba6f87fcb69241a569763a33ba5ea4adddb924f6e996c5b80bd"),
    "large.json/bounds_general_lower/text": (0, "a0a7df12c39aad80f0bf8b7dbc7f0a870f401409d6bf9777864f38a5b01df9af"),
    "large.json/bounds_general_lower/csv": (0, "32be444d5a9266dbc86c45176290f8c42f07f49d9be5b13b081eea9a23000bf6"),
    "large.json/bounds_general_lower_k1500/json": (0, "e9237ec8e4478b20b4aa5a53471a9517a67d1e7f6b5ffb1954758f369b9f69f4"),
    "large.json/bounds_general_lower_k1500/text": (0, "17bba15c6af1964de52d812c2d9ce2e52e44e9ab3d26c84d41e1ba9f92ba0826"),
    "large.json/bounds_general_lower_k1500/csv": (0, "2f893434d146f54e670971153e3f6f8b328841aec5884c74438dbb348cd37f33"),
    "large.json/bounds_general_upper/json": (0, "20646a250bbf7e17197dac8a9356ad3abc275a4e5094e53ac00f5c4d3b4d13eb"),
    "large.json/bounds_general_upper/text": (0, "8077a3426b2c8bdeaeb77580c4d946578d91404ce66bd0080c0fd8236242ce8b"),
    "large.json/bounds_general_upper/csv": (0, "6e79c2a21c1f284ca10b06bbc7a37ddf188917b39efb3f74cedb8f12269d1d01"),
    "large.json/excess/json": (0, "8a41c71821de7aae29b32d6c1eb30604da843d460ddc8e038b7554bc63572faa"),
    "large.json/excess/text": (0, "2da54975eb3015d725597177678a9720f5629badcd641a8968d0ec522bbb9063"),
    "large.json/excess/csv": (0, "8eb123de93c284cf80df2e64880c77f58dabef0017c63aaa2697b419a41cc3cc"),
    "large.json/expect/json": (0, "d23541d7a8b5d2a46afc382c228a8a66b88d2a1b45f05fa9fdfc05a608dcd9f8"),
    "large.json/expect/text": (0, "0e468887790a1d85d52203c26f05c42b23576a2492e129d7bd6ade03538ad4b2"),
    "large.json/expect/csv": (0, "c1cd717926b37986225c9bfb125d5149702cfd72600337e10f51220b29876433"),
    "large.json/expect_no_tail/json": (0, "c83c2bf4bc30c28b665d9fcb6075d906bd77ffcd6af28bcd5ad2651d56378ed2"),
    "large.json/expect_no_tail/text": (0, "89bd4d198a1e8f7b552d2eb617dc2c3e890cce6d1d9d8b1364369dd0bf1c0c85"),
    "large.json/expect_no_tail/csv": (0, "c9ac54a2d97183fc70baa7ccbcc4c5045d55cfe29df0b740c6be0523fc419d7c"),
    "large.json/order/json": (0, "35fbda6215eea95304099e039ebf84cdc31a8761d91e28d3fdc87ec7a20c906d"),
    "large.json/order/text": (0, "0549cfb97867819e2afd811158ae028ece3a08691634db05e1a8b13b961306b2"),
    "large.json/order/csv": (0, "ef4c4f451745e40adf96d0ae0936e698ddeb7873d04caf4ccf3114f7f1593b6e"),
    "large.json/simulate/json": (0, "811679a46be17085670f4ef0bff82883e11d89bd7e8eb639dad1749b99fa5d53"),
    "large.json/simulate/text": (0, "08f1e0b61118f739b19e2be8f71e7314f010532dd61c3f867e55b59388153da7"),
    "large.json/simulate/csv": (0, "d3ae37b2189ca6dd116ba84bcae2d319feba67a972daacc63aae9f4f96e4cae7"),
    "small.csv/bounds_adjacent/json": (0, "4c0f7905a83ef6e5ad94f0310e7dd745baffde4d63975d7233748652e2a305c4"),
    "small.csv/bounds_adjacent/text": (0, "7f79577fda6eb209ef5bb4763c3024087ed6d8468368e12542d42949d2ef4905"),
    "small.csv/bounds_adjacent/csv": (0, "84f222a7494b61e79559ef31012f581610942fff039ec7053af921c5f41cd9aa"),
    "small.csv/bounds_general_upper/json": (0, "dd67b92529b2d87b48052029b1a524e56313946c2adc647c127be714233b9814"),
    "small.csv/bounds_general_upper/text": (0, "864b391be11d13b6889a19fbcf01898c8867b4dd860434488848dcc8ebb967fa"),
    "small.csv/bounds_general_upper/csv": (0, "3bc423d01984d515166c3a5d2845f2a67e529bd7ce98686fa26fb73b1f588005"),
    "small.csv/excess/json": (0, "3c1ff7e7fdaceed8cd58b4574efdd5e0605f41eeb7274094cff133ddbe9976d1"),
    "small.csv/excess/text": (0, "98a4ba63beddb9584c727de1b694d98df2048424a1aa218ee80571020f954d1a"),
    "small.csv/excess/csv": (0, "84677efa51c54e45302ec6cb791749f8cddf0c3ed35163cfe76ede3369dda3e6"),
    "small.csv/expect/json": (0, "748ae1fce25dbb4eaa9f1921a226ee16c8a6318a6155c9a963758d484fdea8e3"),
    "small.csv/expect/text": (0, "583f4ccea912b837053ce681b50474086051441e573088be3c4186c2f9f155d0"),
    "small.csv/expect/csv": (0, "0b12211f6db10d6fd159f90e5dc47b7fbd5a095c738920c311c3fb5726b0ba7e"),
    "small.csv/expect_no_tail/json": (0, "8b70b3edd0437db0a417491da61449cfe12f81e48bac46929353fe6e748e2350"),
    "small.csv/expect_no_tail/text": (0, "b0c5e2f52b4e2235454194651b6547f14448eaaceef5dc11081e894542384c76"),
    "small.csv/expect_no_tail/csv": (0, "dd41a6f8f8cffc0ec1474f46e167589c2e0a789ff1ec326793ebee617cb0557c"),
    "small.csv/order/json": (0, "967b06b0406a62af02ab8b7113777290f032230298491c3aca58dde6edc048c5"),
    "small.csv/order/text": (0, "bed72fc61723e1217bd2e65ae127195da43dd424c3b35fa44f0d53a0f2413131"),
    "small.csv/order/csv": (0, "bb85d3808f523f30b201732dcc1aa13ee59e3c76093ccdb21f90d505b33ed459"),
    "small.csv/simulate/json": (0, "313be6526df6706f4acbdd4e0950b2d1ce37c38f24b2bbf3af9568e8804ce366"),
    "small.csv/simulate/text": (0, "3b2a9b5397703cbeb540eca77642782781a861b9bab91bf981bb8f682c33fa32"),
    "small.csv/simulate/csv": (0, "8beadfacec34b5169c3ba4990ac2f957ad4e4b8a8aaaff7247ad65a3e65a5af8"),
    "small.csv/verify_optimal/json": (0, "080aecb1d7b18a0b3684ee7f4ec6042896e37d1fab925c402fc3a69a66f888df"),
    "small.csv/verify_optimal/text": (0, "f10dc07df7c2e9447d71ee980d5ae64b5b09b7eb9b4804284fd8eaea7fcb54f9"),
    "small.csv/verify_optimal/csv": (0, "d8d8f9aeadecd0be4575cdcfccc47bacbd30427ac53d6fa6dcd7011d86f2b3bf"),
    "small.json/bounds_adjacent/json": (0, "ea22a3015ed337708e31224440bc15303f9a5a5e2bcfc56d870d5e73edf5feae"),
    "small.json/bounds_adjacent/text": (0, "172ca49d86ebfab2a6abec5565cc2531a78ed07d89fd605e16517ae8abffc6db"),
    "small.json/bounds_adjacent/csv": (0, "0b847cb6c1ee2c0563e235f31b8eef278d72a0c498ae524b68cc4cade2052e9a"),
    "small.json/bounds_adjacent_against/json": (0, "653696c01d878dfca93eac68944551dc63e2a6b75ab5fe6b7a3ae5973d0bd207"),
    "small.json/bounds_adjacent_against/text": (0, "1fc8bbd7c50becac912455b5c083e1062e53a5de1f93075ef5115ec987a1dc30"),
    "small.json/bounds_adjacent_against/csv": (0, "3613457e94f0860a3423d76ed135031ba2251a89b5bf55e1e8b642b078494c0a"),
    "small.json/bounds_adjacent_k1/json": (0, "c4b40b95473bdb2e1ce5b605600d7e40858092617187d7e7bcc02dbb40d50563"),
    "small.json/bounds_adjacent_k1/text": (0, "7cd3835db5c32a53d83019c270e6a26efe33eaa060c3fe7f035ccda136472619"),
    "small.json/bounds_adjacent_k1/csv": (0, "c7676d07fcff3365784c1d76249f82f1567795c1eacd4a04351b5459032d1de3"),
    "small.json/bounds_adjacent_k2/json": (0, "6d6441aedcc1dd52f110eb9461383b47eaf6eb6bcd3212fee4534341fffdae4b"),
    "small.json/bounds_adjacent_k2/text": (0, "51b6f3edff03e1b496e5f5cab78fcf0a971012a7c8467e346a97cf69078705a5"),
    "small.json/bounds_adjacent_k2/csv": (0, "5b03e1ff29db2d6cef6dcbb475a348573c3fc482dabac40e82fe9651134a6109"),
    "small.json/bounds_general_lower_against/json": (0, "37e0a05980e74e9032d352c129c848b4637e488ad0187b16b1a4874b785a131f"),
    "small.json/bounds_general_lower_against/text": (0, "a8184305d36111249a2ba58b2969413aed45bb4df7e05ff049ed92903288344f"),
    "small.json/bounds_general_lower_against/csv": (0, "0a597844576ea8759b72c0115232cd6096489d832bc718bdbdd0ba2c7805ad92"),
    "small.json/bounds_general_lower_against_strict/json": (2, "37e0a05980e74e9032d352c129c848b4637e488ad0187b16b1a4874b785a131f"),
    "small.json/bounds_general_lower_against_strict/text": (2, "a8184305d36111249a2ba58b2969413aed45bb4df7e05ff049ed92903288344f"),
    "small.json/bounds_general_lower_against_strict/csv": (2, "0a597844576ea8759b72c0115232cd6096489d832bc718bdbdd0ba2c7805ad92"),
    "small.json/bounds_general_upper/json": (0, "1ec9a165125e8b84323b612bd6b8c49bfb52053fd01d602bf8adbcfd02da7455"),
    "small.json/bounds_general_upper/text": (0, "2a721c793d0127469d4a546a28c998b85506d72ab193cb0f36fa713dd8bc0796"),
    "small.json/bounds_general_upper/csv": (0, "c5891a32c1b2c16ead73db39a32e630e83e9a558c75c2d46d8310652ffd85ccb"),
    "small.json/bounds_general_upper_narrow/json": (0, "601d962a2acee06fd077e1a760b5ea918b0acca3597c214bcfc6c5a1dde55f67"),
    "small.json/bounds_general_upper_narrow/text": (0, "f4c48f57c14c54c1084459c7f4ed6b098cfc0c7ff99d199730582efbfe36954b"),
    "small.json/bounds_general_upper_narrow/csv": (0, "876477c1fd5d18c5fd3dd9c65c00af3c368cb6447628810b4058a5e494fb4c67"),
    "small.json/excess/json": (0, "2ed175ab30355fae02c69625997f0b1df2dffdcabb4c14a8fb6993213fdbc519"),
    "small.json/excess/text": (0, "615891c4e0f329bc7da01173211a5f8e93a18205d12455ee00fb71535d52ceea"),
    "small.json/excess/csv": (0, "02eec157449a2be33f4039968c97c841d1356641fd3d833d98ceec54891dfedf"),
    "small.json/expect/json": (0, "36f9ada01929ccd24a509e88f5e213ca484f04d49db91f65566f868ef5d90e91"),
    "small.json/expect/text": (0, "bb29e03b031330785ba8753ed3fe506f97e7c626941290df3c3fab373f8fab17"),
    "small.json/expect/csv": (0, "231c67f02b0845cfef323571f48f01af02b4b05367f0543683740c6f53dca1da"),
    "small.json/expect_no_tail/json": (0, "7f27973ec1ccbc3e8a30e9874a4a25404f9e8086333837d87ff17ea5e904e63b"),
    "small.json/expect_no_tail/text": (0, "235eb643398f8db9e7fa771651d82356b350daee120879c005c0c4baac26912b"),
    "small.json/expect_no_tail/csv": (0, "4fefeb844aae9ea4bb63d0cdec37d6b44ff250326e8db3f2163e21d58c21d2d3"),
    "small.json/order/json": (0, "a70cba09df74aeb7abc891d2bb5366e94f762151d78c332f2027092bf6f7e091"),
    "small.json/order/text": (0, "937ec9939832c98ea24b3d96fbd875a6b9ebdf81f8f5af0b5b325013c5d501a2"),
    "small.json/order/csv": (0, "8a8a23e04d414abd65adc50eeb9907bccb3aead7a16992a09e7ef826440a3cc6"),
    "small.json/simulate/json": (0, "b2874638eb7b4c2d9fd529d25eb3f0c4a878217bdc80b8bed958d30306cf6960"),
    "small.json/simulate/text": (0, "3913c2fb1862bf96559336ce485b19520ae716bc1752a5485348b1ba0078135a"),
    "small.json/simulate/csv": (0, "616ee1cb48d4d6f077b8d66eb2de7882bdb5ec455e66d38b38cd3ffdc49a94ea"),
    "small.json/verify_optimal/json": (0, "221cb68680c74be6cb09e673e1e36bd2cb7c5a6c860de466c582999fe9eafc46"),
    "small.json/verify_optimal/text": (0, "4eac63a91072adffe1b1d41cf37d449456a8323738ec437826b805bf8810e8b1"),
    "small.json/verify_optimal/csv": (0, "8ae21d135faec80cda348bfb2ec3e3a5fcbfedebe9e284841b75aa0f91ed6055"),
}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(f"{case}/{fmt}" for case in cases() for fmt in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(cases()))
def test_report_bytes_unchanged(inputs_dir, case, fmt):
    assert report_digest(inputs_dir, case, fmt) == GOLDEN[f"{case}/{fmt}"]
