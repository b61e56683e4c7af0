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

Beside each case's digests, LEAVES pins a digest per leaf path of its JSON
report (a table's column is one leaf), taken at the same bytes, so a failure
names the values that moved.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random

import pytest

from trialorder import cli, montecarlo

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


def run_case(directory, case: str, fmt: str) -> tuple[int, str]:
    """(exit code, stdout) of one case in one output format."""
    source, argv = cases()[case]
    argv = list(argv) + ["--format", fmt]
    if source is not None:
        argv += ["-i", str(directory / source)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def leaf_digests(value, path: str = "") -> dict[str, str]:
    """Path -> 16-hex digest of each leaf of a JSON report; a table's column is one leaf.

    ``results.q2`` names a value, ``results.table[*].ratio`` a table's column.
    """
    if isinstance(value, dict):
        return {leaf: digest for k, v in value.items()
                for leaf, digest in leaf_digests(v, f"{path}.{k}" if path else k).items()}
    if cli._is_table(value):
        return {f"{path}[*].{k}": leaf_digests([row[k] for row in value], path)[path]
                for k in value[0]}
    return {path: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]}


def moved(pinned: dict[str, str], got: dict[str, str]) -> list[str]:
    """The paths whose digests differ, or that only one side has."""
    return sorted(p for p in pinned.keys() | got.keys() if pinned.get(p) != got.get(p))


def moved_leaves(directory, case: str) -> list[str]:
    """The leaf paths of the case's JSON report whose digests moved from LEAVES."""
    return moved(LEAVES[case], leaf_digests(json.loads(run_case(directory, case, "json")[1])))


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


LEAVES: dict[str, dict[str, str]] = {  # case -> leaf path -> digest (leaf_digests)
    "check": {
        "command": "977a0be5b459b891", "input_sha256": "74234e98afe7498f",
        "results.checks[*].failures": "94d0e6543843bb74",
        "results.checks[*].max_residual": "db51928220c90073",
        "results.checks[*].name": "df5f02b11d55bd4c", "results.checks[*].runs": "926e4d76b3ee27ac",
        "results.equal_p_only": "fcbcf165908dd18a", "results.instances": "4a44dc15364204a8",
        "results.passed": "b5bea41b6c623f7c", "results.seed": "4e07408562bedb8b",
        "results.total_failures": "5feceb66ffc86f38", "seed": "4e07408562bedb8b",
        "version": "8e633b4f41f99d4c",
    },
    "check_equal_p": {
        "command": "977a0be5b459b891", "input_sha256": "74234e98afe7498f",
        "results.checks[*].failures": "dc70b606280157d3",
        "results.checks[*].max_residual": "98c2014c04271b6a",
        "results.checks[*].name": "4c127679ed042e4d", "results.checks[*].runs": "f351ab094227ae1a",
        "results.equal_p_only": "b5bea41b6c623f7c", "results.instances": "1a6562590ef19d10",
        "results.passed": "fcbcf165908dd18a", "results.seed": "4e07408562bedb8b",
        "results.total_failures": "1a6562590ef19d10", "seed": "4e07408562bedb8b",
        "version": "8e633b4f41f99d4c",
    },
    "check_seed11": {
        "command": "977a0be5b459b891", "input_sha256": "74234e98afe7498f",
        "results.checks[*].failures": "94d0e6543843bb74",
        "results.checks[*].max_residual": "06124df24c8f7c67",
        "results.checks[*].name": "df5f02b11d55bd4c", "results.checks[*].runs": "9ad4d57cd648beac",
        "results.equal_p_only": "fcbcf165908dd18a", "results.instances": "27badc983df1780b",
        "results.passed": "b5bea41b6c623f7c", "results.seed": "4fc82b26aecb47d2",
        "results.total_failures": "5feceb66ffc86f38", "seed": "4fc82b26aecb47d2",
        "version": "8e633b4f41f99d4c",
    },
    "equal_t.json/bounds_equal_t_lower": {
        "command": "940e8afe0a0244c3", "input_sha256": "8175ec62f3036dd2",
        "results.A": "270222ec19c6819c", "results.B": "1126dd40b15ffdf2",
        "results.assumptions_ok": "fcbcf165908dd18a", "results.c": "221764976efe0413",
        "results.d": "973b372a514f91db", "results.exact_excess": "d21b10021afab70c",
        "results.k": "d4735e3a265e16ee", "results.lower": "b279c59067cfc6e5",
        "results.n": "4b227777d4dd1fc6", "results.ordering": "f70a2d1daefb2532",
        "results.profile": "951b840462d384fa", "results.t_max": "7a78fdf5c5f9236e",
        "results.t_min": "7a78fdf5c5f9236e", "results.upper": "74234e98afe7498f",
        "results.violations": "a6ac986391e2561c", "version": "8e633b4f41f99d4c",
    },
    "equal_t.json/bounds_equal_t_lower_k5": {
        "command": "940e8afe0a0244c3", "input_sha256": "8175ec62f3036dd2",
        "results.A": "6d27426cc0b7594c", "results.B": "ffb37a4743ed7605",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "81748789f5cc0a4e",
        "results.d": "03544a14074bd7c0", "results.exact_excess": "6d1242ab35919aaf",
        "results.k": "ef2d127de37b942b", "results.lower": "822166768cd02d35",
        "results.n": "4e07408562bedb8b", "results.ordering": "a3b812b29a9c2abb",
        "results.profile": "951b840462d384fa", "results.t_max": "7a78fdf5c5f9236e",
        "results.t_min": "7a78fdf5c5f9236e", "results.upper": "74234e98afe7498f",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "equal_t.json/bounds_equal_t_upper": {
        "command": "940e8afe0a0244c3", "input_sha256": "8175ec62f3036dd2",
        "results.A": "576954fa46546534", "results.B": "f0c4bfb0b8ede8f5",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "81748789f5cc0a4e",
        "results.d": "03544a14074bd7c0", "results.exact_excess": "f2daffb5d7b6eb65",
        "results.k": "d4735e3a265e16ee", "results.lower": "74234e98afe7498f",
        "results.n": "4e07408562bedb8b", "results.ordering": "a3b812b29a9c2abb",
        "results.profile": "acd1132283aff317", "results.t_max": "7a78fdf5c5f9236e",
        "results.t_min": "7a78fdf5c5f9236e", "results.upper": "8f92b9881c5bb3c4",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "large.json/bounds_adjacent": {
        "command": "940e8afe0a0244c3", "input_sha256": "0f55904fa8f186a7",
        "results.A": "74234e98afe7498f", "results.B": "74234e98afe7498f",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "74234e98afe7498f",
        "results.d": "74234e98afe7498f", "results.exact_excess": "351cd139a3099b3a",
        "results.k": "ce8457d59078a699", "results.lower": "cc127ac9a5cb9723",
        "results.n": "6b86b273ff34fce1", "results.ordering": "e439d57b777e7e28",
        "results.profile": "75e12b16b5a95550", "results.t_max": "74234e98afe7498f",
        "results.t_min": "74234e98afe7498f", "results.upper": "74c0230a959054dc",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "large.json/bounds_general_lower": {
        "command": "940e8afe0a0244c3", "input_sha256": "0f55904fa8f186a7",
        "results.A": "74234e98afe7498f", "results.B": "fc4eeade22beec6d",
        "results.assumptions_ok": "fcbcf165908dd18a", "results.c": "ddd2d84fc61cdb49",
        "results.d": "1faa6c07d60ccd38", "results.exact_excess": "9e5ec77c518ea2b0",
        "results.k": "4a44dc15364204a8", "results.lower": "99ec41b3aceda166",
        "results.n": "ef2d127de37b942b", "results.ordering": "e439d57b777e7e28",
        "results.profile": "5031052082fd422d", "results.t_max": "f28e15d3d6edd0f7",
        "results.t_min": "3cb9cc84eb7ca523", "results.upper": "74234e98afe7498f",
        "results.violations": "d92c8902e1916f0d", "version": "8e633b4f41f99d4c",
    },
    "large.json/bounds_general_lower_k1500": {
        "command": "940e8afe0a0244c3", "input_sha256": "0f55904fa8f186a7",
        "results.A": "74234e98afe7498f", "results.B": "7e283e184f716f08",
        "results.assumptions_ok": "fcbcf165908dd18a", "results.c": "ddd2d84fc61cdb49",
        "results.d": "1faa6c07d60ccd38", "results.exact_excess": "2610b0f8b03d4e21",
        "results.k": "9f69998560dcfd80", "results.lower": "4e4c0ba3aecaadb9",
        "results.n": "ef2d127de37b942b", "results.ordering": "e439d57b777e7e28",
        "results.profile": "5031052082fd422d", "results.t_max": "f28e15d3d6edd0f7",
        "results.t_min": "3cb9cc84eb7ca523", "results.upper": "74234e98afe7498f",
        "results.violations": "e83420083a297ab0", "version": "8e633b4f41f99d4c",
    },
    "large.json/bounds_general_upper": {
        "command": "940e8afe0a0244c3", "input_sha256": "0f55904fa8f186a7",
        "results.A": "7741d254d77985a7", "results.B": "859b772e21ab3a37",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "ddd2d84fc61cdb49",
        "results.d": "1faa6c07d60ccd38", "results.exact_excess": "555570f87b2b2964",
        "results.k": "6b86b273ff34fce1", "results.lower": "74234e98afe7498f",
        "results.n": "ce8457d59078a699", "results.ordering": "e439d57b777e7e28",
        "results.profile": "0ecc12d31711eaf9", "results.t_max": "f28e15d3d6edd0f7",
        "results.t_min": "3cb9cc84eb7ca523", "results.upper": "ad9fdc40ce1e9f91",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "large.json/excess": {
        "command": "1b73928046b27df5", "input_sha256": "0f55904fa8f186a7",
        "results.direct_oracle": "555570f87b2b2964", "results.k": "6b86b273ff34fce1",
        "results.method": "551e78181b221bd0", "results.n": "ce8457d59078a699",
        "results.oracle_abs_diff": "197d310af3acc176", "results.oracle_agrees": "b5bea41b6c623f7c",
        "results.ordering": "e439d57b777e7e28", "results.q1": "091313f8c5a7b29e",
        "results.q2": "4db141761472b302", "results.q3": "c2c8f530aa6dbd7e",
        "results.total": "1d711c64a0f6c962", "version": "8e633b4f41f99d4c",
    },
    "large.json/expect": {
        "command": "035fc98bd805985d", "input_sha256": "0f55904fa8f186a7",
        "results.expected_time": "4c3a63fc46b08944",
        "results.include_failure_tail": "b5bea41b6c623f7c", "results.ordering": "e439d57b777e7e28",
        "version": "8e633b4f41f99d4c",
    },
    "large.json/expect_no_tail": {
        "command": "035fc98bd805985d", "input_sha256": "0f55904fa8f186a7",
        "results.expected_time": "4c43851d7c9669b9",
        "results.include_failure_tail": "fcbcf165908dd18a", "results.ordering": "e439d57b777e7e28",
        "version": "8e633b4f41f99d4c",
    },
    "large.json/order": {
        "command": "78000f9390ebddc1", "input_sha256": "0f55904fa8f186a7",
        "results.order": "e439d57b777e7e28", "results.perm": "a85b5271725bd9bd",
        "results.ratio_sorted": "b5bea41b6c623f7c", "results.table[*].id": "e439d57b777e7e28",
        "results.table[*].mean_time": "f3696bf5e2e4c2e3", "results.table[*].p": "34deaef40313c28a",
        "results.table[*].position": "218f5d773ccf98a2",
        "results.table[*].ratio": "f8928fd04577bc31", "version": "8e633b4f41f99d4c",
    },
    "large.json/simulate": {
        "command": "b09cfb79f1a3892d", "input_sha256": "0f55904fa8f186a7",
        "results.generator": "a3a7d23bd87d5f05", "results.mean_time": "8e72486ee46c0b55",
        "results.ordering": "e439d57b777e7e28", "results.std_error": "fb3eeb14ed615444",
        "results.success_rate": "d0ff5974b6aa52cf", "results.trials": "0f8eb4b72b6e0c9e",
        "seed": "7902699be42c8a8e", "version": "8e633b4f41f99d4c",
    },
    "small.csv/bounds_adjacent": {
        "command": "940e8afe0a0244c3", "input_sha256": "a4ccd3bffc9be456",
        "results.A": "74234e98afe7498f", "results.B": "74234e98afe7498f",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "74234e98afe7498f",
        "results.d": "74234e98afe7498f", "results.exact_excess": "09a078a869a2e296",
        "results.k": "4e07408562bedb8b", "results.lower": "3cbe349dff9684f8",
        "results.n": "6b86b273ff34fce1", "results.ordering": "ab26f2ed88db2fbf",
        "results.profile": "75e12b16b5a95550", "results.t_max": "74234e98afe7498f",
        "results.t_min": "74234e98afe7498f", "results.upper": "29ade7385c24a140",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "small.csv/bounds_general_upper": {
        "command": "940e8afe0a0244c3", "input_sha256": "a4ccd3bffc9be456",
        "results.A": "0d1e0300a52d7bef", "results.B": "6a21a900c040622b",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "0f95d6aa322dc8b8",
        "results.d": "f7efac9564924514", "results.exact_excess": "1b6db83016a90698",
        "results.k": "6b86b273ff34fce1", "results.lower": "74234e98afe7498f",
        "results.n": "4e07408562bedb8b", "results.ordering": "ab26f2ed88db2fbf",
        "results.profile": "0ecc12d31711eaf9", "results.t_max": "5e799650e425b1d4",
        "results.t_min": "3d5e2130f2566352", "results.upper": "2be9da9301c28fd3",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "small.csv/excess": {
        "command": "1b73928046b27df5", "input_sha256": "a4ccd3bffc9be456",
        "results.direct_oracle": "1b6db83016a90698", "results.k": "6b86b273ff34fce1",
        "results.method": "551e78181b221bd0", "results.n": "4e07408562bedb8b",
        "results.oracle_abs_diff": "05ba57926337b257", "results.oracle_agrees": "b5bea41b6c623f7c",
        "results.ordering": "ab26f2ed88db2fbf", "results.q1": "91b997cdfcf7e86d",
        "results.q2": "4f951de980bb733b", "results.q3": "5c93b9b974e50bfc",
        "results.total": "a11aad5e2d5bce2e", "version": "8e633b4f41f99d4c",
    },
    "small.csv/expect": {
        "command": "035fc98bd805985d", "input_sha256": "a4ccd3bffc9be456",
        "results.expected_time": "92582f79c1af5da4",
        "results.include_failure_tail": "b5bea41b6c623f7c", "results.ordering": "ab26f2ed88db2fbf",
        "version": "8e633b4f41f99d4c",
    },
    "small.csv/expect_no_tail": {
        "command": "035fc98bd805985d", "input_sha256": "a4ccd3bffc9be456",
        "results.expected_time": "47804b5d6bf195cf",
        "results.include_failure_tail": "fcbcf165908dd18a", "results.ordering": "e06bd5675b831108",
        "version": "8e633b4f41f99d4c",
    },
    "small.csv/order": {
        "command": "78000f9390ebddc1", "input_sha256": "a4ccd3bffc9be456",
        "results.order": "ab26f2ed88db2fbf", "results.perm": "dcd156885b3a816b",
        "results.ratio_sorted": "b5bea41b6c623f7c", "results.table[*].id": "ab26f2ed88db2fbf",
        "results.table[*].mean_time": "64a869eda3309a21", "results.table[*].p": "ae56167fbf2c662f",
        "results.table[*].position": "6ab66a3db24bd625",
        "results.table[*].ratio": "0d5d1be2ef411bb1", "version": "8e633b4f41f99d4c",
    },
    "small.csv/simulate": {
        "command": "b09cfb79f1a3892d", "input_sha256": "a4ccd3bffc9be456",
        "results.generator": "a3a7d23bd87d5f05", "results.mean_time": "c49e98097acf67e2",
        "results.ordering": "ab26f2ed88db2fbf", "results.std_error": "d018d123735bac7e",
        "results.success_rate": "5870e1b5bb5d5c5c", "results.trials": "39e5b4830d4d9c14",
        "seed": "7902699be42c8a8e", "version": "8e633b4f41f99d4c",
    },
    "small.csv/verify_optimal": {
        "command": "2f1b393b889dacbc", "input_sha256": "a4ccd3bffc9be456",
        "results.agree": "b5bea41b6c623f7c", "results.best_expected_time": "fabf22f21ea69d4e",
        "results.best_order": "ab26f2ed88db2fbf", "results.evaluated": "9d8aa099e798b1bb",
        "results.rule_expected_time": "92582f79c1af5da4", "results.rule_order": "ab26f2ed88db2fbf",
        "version": "8e633b4f41f99d4c",
    },
    "small.json/bounds_adjacent": {
        "command": "940e8afe0a0244c3", "input_sha256": "84ebc5869a296fdf",
        "results.A": "74234e98afe7498f", "results.B": "74234e98afe7498f",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "74234e98afe7498f",
        "results.d": "74234e98afe7498f", "results.exact_excess": "eeec907ca07b3224",
        "results.k": "4e07408562bedb8b", "results.lower": "41702fc3fecbb27e",
        "results.n": "6b86b273ff34fce1", "results.ordering": "e68ca93c242ccf01",
        "results.profile": "75e12b16b5a95550", "results.t_max": "74234e98afe7498f",
        "results.t_min": "74234e98afe7498f", "results.upper": "2482a60e7053f5a4",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "small.json/bounds_adjacent_against": {
        "command": "940e8afe0a0244c3", "input_sha256": "84ebc5869a296fdf",
        "results.A": "74234e98afe7498f", "results.B": "74234e98afe7498f",
        "results.assumptions_ok": "fcbcf165908dd18a", "results.c": "74234e98afe7498f",
        "results.d": "74234e98afe7498f", "results.exact_excess": "712f5b2f1ab53a2e",
        "results.k": "4e07408562bedb8b", "results.lower": "afa3eb56723981b4",
        "results.n": "6b86b273ff34fce1", "results.ordering": "6cf806ca1923967e",
        "results.profile": "75e12b16b5a95550", "results.t_max": "74234e98afe7498f",
        "results.t_min": "74234e98afe7498f", "results.upper": "8ee44feff10579f8",
        "results.violations": "e029551b1b442e3b", "version": "8e633b4f41f99d4c",
    },
    "small.json/bounds_adjacent_k1": {
        "command": "940e8afe0a0244c3", "input_sha256": "84ebc5869a296fdf",
        "results.A": "74234e98afe7498f", "results.B": "74234e98afe7498f",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "74234e98afe7498f",
        "results.d": "74234e98afe7498f", "results.exact_excess": "774245dee0d09c41",
        "results.k": "6b86b273ff34fce1", "results.lower": "e84f69d111f8e38c",
        "results.n": "6b86b273ff34fce1", "results.ordering": "e68ca93c242ccf01",
        "results.profile": "75e12b16b5a95550", "results.t_max": "74234e98afe7498f",
        "results.t_min": "74234e98afe7498f", "results.upper": "e84f69d111f8e38c",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "small.json/bounds_adjacent_k2": {
        "command": "940e8afe0a0244c3", "input_sha256": "84ebc5869a296fdf",
        "results.A": "74234e98afe7498f", "results.B": "74234e98afe7498f",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "74234e98afe7498f",
        "results.d": "74234e98afe7498f", "results.exact_excess": "978dce4b8ed42dd9",
        "results.k": "d4735e3a265e16ee", "results.lower": "0a693a3c81f01cc0",
        "results.n": "6b86b273ff34fce1", "results.ordering": "e68ca93c242ccf01",
        "results.profile": "75e12b16b5a95550", "results.t_max": "74234e98afe7498f",
        "results.t_min": "74234e98afe7498f", "results.upper": "3004dd6b04309819",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "small.json/bounds_general_lower_against": {
        "command": "940e8afe0a0244c3", "input_sha256": "84ebc5869a296fdf",
        "results.A": "74234e98afe7498f", "results.B": "d233593d545bd6db",
        "results.assumptions_ok": "fcbcf165908dd18a", "results.c": "221764976efe0413",
        "results.d": "973b372a514f91db", "results.exact_excess": "cb5debf78ebf6006",
        "results.k": "d4735e3a265e16ee", "results.lower": "68b73ccd2a90a306",
        "results.n": "4e07408562bedb8b", "results.ordering": "4d620c285440d1ee",
        "results.profile": "5031052082fd422d", "results.t_max": "90c318d6e5e13ed1",
        "results.t_min": "cdfdf03940a41816", "results.upper": "74234e98afe7498f",
        "results.violations": "9435d8d46abb8f6a", "version": "8e633b4f41f99d4c",
    },
    "small.json/bounds_general_lower_against_strict": {
        "command": "940e8afe0a0244c3", "input_sha256": "84ebc5869a296fdf",
        "results.A": "74234e98afe7498f", "results.B": "d233593d545bd6db",
        "results.assumptions_ok": "fcbcf165908dd18a", "results.c": "221764976efe0413",
        "results.d": "973b372a514f91db", "results.exact_excess": "cb5debf78ebf6006",
        "results.k": "d4735e3a265e16ee", "results.lower": "68b73ccd2a90a306",
        "results.n": "4e07408562bedb8b", "results.ordering": "4d620c285440d1ee",
        "results.profile": "5031052082fd422d", "results.t_max": "90c318d6e5e13ed1",
        "results.t_min": "cdfdf03940a41816", "results.upper": "74234e98afe7498f",
        "results.violations": "9435d8d46abb8f6a", "version": "8e633b4f41f99d4c",
    },
    "small.json/bounds_general_upper": {
        "command": "940e8afe0a0244c3", "input_sha256": "84ebc5869a296fdf",
        "results.A": "3410f4c8ea3666f3", "results.B": "63c88f8cfbc8ae3a",
        "results.assumptions_ok": "b5bea41b6c623f7c", "results.c": "6de46cd529dd9841",
        "results.d": "8ad56c931558425f", "results.exact_excess": "c918208349768c15",
        "results.k": "6b86b273ff34fce1", "results.lower": "74234e98afe7498f",
        "results.n": "4e07408562bedb8b", "results.ordering": "e68ca93c242ccf01",
        "results.profile": "0ecc12d31711eaf9", "results.t_max": "90c318d6e5e13ed1",
        "results.t_min": "c22664948b0e6431", "results.upper": "31fbf4e3fb447c1a",
        "results.violations": "4f53cda18c2baa0c", "version": "8e633b4f41f99d4c",
    },
    "small.json/bounds_general_upper_narrow": {
        "command": "940e8afe0a0244c3", "input_sha256": "84ebc5869a296fdf",
        "results.A": "ddd7cacb3a58d969", "results.B": "ad3c8627fccc30c4",
        "results.assumptions_ok": "fcbcf165908dd18a", "results.c": "221764976efe0413",
        "results.d": "973b372a514f91db", "results.exact_excess": "c918208349768c15",
        "results.k": "6b86b273ff34fce1", "results.lower": "74234e98afe7498f",
        "results.n": "4e07408562bedb8b", "results.ordering": "e68ca93c242ccf01",
        "results.profile": "0ecc12d31711eaf9", "results.t_max": "a19a1584344c1f37",
        "results.t_min": "c22664948b0e6431", "results.upper": "145e246bfa1a3b6e",
        "results.violations": "0240e5454cbf4ef0", "version": "8e633b4f41f99d4c",
    },
    "small.json/excess": {
        "command": "1b73928046b27df5", "input_sha256": "84ebc5869a296fdf",
        "results.direct_oracle": "c918208349768c15", "results.k": "6b86b273ff34fce1",
        "results.method": "551e78181b221bd0", "results.n": "4e07408562bedb8b",
        "results.oracle_abs_diff": "aa356bb69fed54eb", "results.oracle_agrees": "b5bea41b6c623f7c",
        "results.ordering": "e68ca93c242ccf01", "results.q1": "69d542c3df87c181",
        "results.q2": "9d7db19a50f584eb", "results.q3": "042c6372f737deaf",
        "results.total": "1dad4f02c61ccb9b", "version": "8e633b4f41f99d4c",
    },
    "small.json/expect": {
        "command": "035fc98bd805985d", "input_sha256": "84ebc5869a296fdf",
        "results.expected_time": "6705e7cfb3b18fac",
        "results.include_failure_tail": "b5bea41b6c623f7c", "results.ordering": "e68ca93c242ccf01",
        "version": "8e633b4f41f99d4c",
    },
    "small.json/expect_no_tail": {
        "command": "035fc98bd805985d", "input_sha256": "84ebc5869a296fdf",
        "results.expected_time": "f5df4e12263275dc",
        "results.include_failure_tail": "fcbcf165908dd18a", "results.ordering": "0ecad64987448ff9",
        "version": "8e633b4f41f99d4c",
    },
    "small.json/order": {
        "command": "78000f9390ebddc1", "input_sha256": "84ebc5869a296fdf",
        "results.order": "e68ca93c242ccf01", "results.perm": "1e5940b172f0025f",
        "results.ratio_sorted": "b5bea41b6c623f7c", "results.table[*].id": "e68ca93c242ccf01",
        "results.table[*].mean_time": "240aeeda5c0553af", "results.table[*].p": "5cc754c993d9aecf",
        "results.table[*].position": "6ab66a3db24bd625",
        "results.table[*].ratio": "bdd4b98cd758ba73", "version": "8e633b4f41f99d4c",
    },
    "small.json/simulate": {
        "command": "b09cfb79f1a3892d", "input_sha256": "84ebc5869a296fdf",
        "results.generator": "a3a7d23bd87d5f05", "results.mean_time": "dc9f788833618daa",
        "results.ordering": "e68ca93c242ccf01", "results.std_error": "a7d802982750117b",
        "results.success_rate": "10df93f3b9132b6f", "results.trials": "39e5b4830d4d9c14",
        "seed": "7902699be42c8a8e", "version": "8e633b4f41f99d4c",
    },
    "small.json/verify_optimal": {
        "command": "2f1b393b889dacbc", "input_sha256": "84ebc5869a296fdf",
        "results.agree": "b5bea41b6c623f7c", "results.best_expected_time": "45d42b15de20e3d4",
        "results.best_order": "e68ca93c242ccf01", "results.evaluated": "9d8aa099e798b1bb",
        "results.rule_expected_time": "6705e7cfb3b18fac", "results.rule_order": "e68ca93c242ccf01",
        "version": "8e633b4f41f99d4c",
    },
}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(f"{case}/{fmt}" for case in cases() for fmt in FORMATS)


def test_every_case_has_leaf_pins():
    assert sorted(LEAVES) == sorted(cases())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(cases()))
def test_report_bytes_unchanged(inputs_dir, case, fmt):
    code, out = run_case(inputs_dir, case, fmt)
    # The JSON report's leaves are checked on every run, the others' only on a failure.
    leaves = moved(LEAVES[case], leaf_digests(json.loads(out))) if fmt == "json" else None
    if (code, hashlib.sha256(out.encode()).hexdigest()) != GOLDEN[f"{case}/{fmt}"] or leaves:
        if leaves is None:
            leaves = moved_leaves(inputs_dir, case)
        pytest.fail(f"{case}/{fmt} changed (exit {code}); leaves moved: "
                    + (", ".join(leaves) or "none, so the exit code or the rendering changed"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", ["small.json/simulate", "small.csv/simulate"])
def test_simulate_bytes_hold_on_the_plain_route(inputs_dir, monkeypatch, case, fmt):
    # numpy is loaded here, so simulate takes the numpy route; the plain route
    # must print the same bytes.
    monkeypatch.setattr(montecarlo, "_route", lambda cells: montecarlo._plain_chunks)
    code, out = run_case(inputs_dir, case, fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[f"{case}/{fmt}"]
