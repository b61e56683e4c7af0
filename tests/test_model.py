import gc
import math
import random
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import candidate_sets, make_set
from trialorder import cli, model
from trialorder import (
    Candidate,
    CandidateSet,
    Ordering,
    mean_time,
    ratio,
    validate,
)


class TestCandidate:
    def test_mean_time_single_sample(self):
        assert mean_time(Candidate("a", 0.5, (2.0,))) == 2.0

    def test_mean_time_is_arithmetic_mean(self):
        assert mean_time(Candidate("a", 0.5, (1, 2, 3))) == 2.0
        assert mean_time(Candidate("a", 0.5, (1.0, 2.0))) == 1.5

    @given(st.floats(0.01, 100, allow_nan=False), st.integers(1, 5))
    def test_mean_of_identical_samples(self, t, n):
        assert mean_time(Candidate("a", 0.5, (t,) * n)) == pytest.approx(t, rel=1e-15)

    def test_ratio(self):
        assert ratio(Candidate("a", 0.5, (1.0,))) == 0.5
        assert ratio(Candidate("a", 0.5, (2.0,))) == 0.25
        assert ratio(Candidate("a", 0.9, (3.0,))) == pytest.approx(0.3, rel=1e-15)

    def test_construction_rejects_bad_probability(self):
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            Candidate("a", 1.5, (1.0,))
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            Candidate("a", -0.1, (1.0,))

    def test_construction_rejects_bad_times(self):
        with pytest.raises(ValueError, match="non-positive"):
            Candidate("a", 0.5, (0.0,))
        with pytest.raises(ValueError, match="no execution time samples"):
            Candidate("a", 0.5, ())
        with pytest.raises(ValueError, match="non-finite"):
            Candidate("a", 0.5, (math.inf,))

    def test_construction_checks_raw_values(self):
        # float() would read True as 1.0 and split "19" into samples 1 and 9.
        with pytest.raises(ValueError, match="field 'p': not a number: True"):
            Candidate("a", True, (1.0,))
        with pytest.raises(ValueError, match="field 'times': not a sequence: '19'"):
            Candidate("a", 0.5, "19")
        with pytest.raises(ValueError, match="field 'times': not a number: False"):
            Candidate("a", 0.5, (1.0, False))
        assert Candidate("a", "0.5", iter(["1", 2])) == Candidate("a", 0.5, (1.0, 2.0))

    def test_construction_rejects_numpy_booleans(self):
        # np.bool_ is no bool subclass, yet float() reads it as 0.0 or 1.0 too.
        with pytest.raises(ValueError, match=re.escape(f"field 'p': not a number: {np.True_!r}")):
            Candidate("a", np.True_, (2.0,))
        with pytest.raises(ValueError, match=re.escape(f"'times': not a number: {np.False_!r}")):
            Candidate("a", 0.5, (1.0, np.False_))
        with pytest.raises(ValueError, match="field 'times': not a number"):
            Candidate("a", 0.5, np.array([True, True]))
        assert (Candidate("a", np.float64(0.5), np.array([1, 2]))
                == Candidate("a", 0.5, (1.0, 2.0)))

    def test_probability_endpoints_admitted(self):
        Candidate("a", 0.0, (1.0,))
        Candidate("a", 1.0, (1.0,))


class TestCandidateSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            CandidateSet(())

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_set([0.5, 0.4], ids=["x", "x"])

    def test_from_records(self):
        cs = CandidateSet.from_records([
            {"id": "a", "p": 0.5, "times": [1.0, 2.0]},
            ("b", 0.4, [3.0]),
        ])
        assert cs.N == 2
        assert cs.ids == ("a", "b")

    def test_from_records_reports_all_problems(self):
        with pytest.raises(ValueError) as exc:
            CandidateSet.from_records([{"id": "a", "p": 1.5, "times": [0.0]}])
        assert "out of [0, 1]" in str(exc.value)
        assert "non-positive" in str(exc.value)


    def test_from_records_lists_each_problem_once(self):
        with pytest.raises(ValueError) as exc:
            CandidateSet.from_records([("a", 1.5, [0.0]), ("a", 0.5, [1.0]), 42])
        assert str(exc.value).split("; ") == [
            "candidate 'a': field 'p': probability 1.5 out of [0, 1]",
            "candidate 'a': field 'times': non-positive time sample 0.0",
            "candidate 'a': field 'id': duplicate candidate id 'a'",
            "record #2: field 'record': malformed record: 42",
        ]

    def test_from_records_rejects_string_times_and_boolean_numbers(self):
        with pytest.raises(ValueError) as exc:
            CandidateSet.from_records([{"id": "a", "p": 0.5, "times": "19"},
                                       ("b", True, [2]), ("c", 0.5, [2, True])])
        assert str(exc.value).split("; ") == [
            "candidate 'a': field 'times': not a sequence: '19'",
            "candidate 'b': field 'p': not a number: True",
            "candidate 'c': field 'times': not a number: True",
        ]

    def test_from_records_rejects_numpy_booleans(self):
        with pytest.raises(ValueError) as exc:
            CandidateSet.from_records([{"id": "a", "p": np.True_, "times": [2.0]},
                                       ("b", 0.5, [2.0, np.True_])])
        assert str(exc.value).split("; ") == [
            f"candidate 'a': field 'p': not a number: {np.True_!r}",
            f"candidate 'b': field 'times': not a number: {np.True_!r}",
        ]

    def test_from_records_builds_what_the_constructors_build(self):
        cs = CandidateSet.from_records([{"id": 7, "p": "0.5", "times": [1, "2"]},
                                        ("b", 1, (3,))])
        assert cs == CandidateSet((Candidate("7", 0.5, (1.0, 2.0)), Candidate("b", 1.0, (3.0,))))
        assert all(type(v) is float for c in cs for v in (c.p, *c.time_samples))
        assert (cs.ps, cs.ts) == ((0.5, 1.0), (1.5, 3.0))

    def test_from_records_reads_an_iterator_of_times_once(self):
        cs = CandidateSet.from_records([("a", 0.5, iter([1.0, 2.0])),
                                        {"id": "b", "p": 0.5, "times": (t for t in [3, 4])}])
        assert cs == CandidateSet((Candidate("a", 0.5, (1.0, 2.0)), Candidate("b", 0.5, (3.0, 4.0))))


# Values on both sides of the plain-float check: the ends of [0, 1], -0.0,
# the smallest subnormal, the float just above 1, nan and inf, and look-alikes
# that are no Python float (int, bool, numpy scalars, str).
_P_EDGES = [0.0, -0.0, 1.0, 5e-324, math.nextafter(1.0, 2.0), -5e-324, math.nan, math.inf,
            0, 1, True, False, np.float64(0.5), np.float64(-0.0), np.bool_(True), "0.5", None]
_T_EDGES = [math.inf, 1.7976931348623157e308, 5e-324, 0.0, -0.0, -1.0, math.nan, 2, True,
            np.float64(2.0), np.bool_(True), "3", None]
_p_values = st.one_of(st.sampled_from(_P_EDGES), st.floats(0.0, 1.0), st.floats(),
                      st.floats(0.0, 1.0).map(np.float64))
_t_values = st.one_of(st.sampled_from(_T_EDGES), st.floats(min_value=5e-324), st.floats())
_times = st.one_of(st.lists(_t_values, max_size=3), st.lists(_t_values, max_size=3).map(tuple),
                   st.sampled_from(["12", 5, None]))


def _bits(c: Candidate) -> list:
    values = (c.p, *c.time_samples)
    assert all(type(x) is float for x in values)
    return [c.id] + [x.hex() for x in values]


class TestOneRecordRule:
    """_checked_rows, the one route from rows to candidates, agrees with Candidate(...)."""

    @given(_p_values, _times)
    @settings(max_examples=400)
    @example(0.0, [1.0])
    @example(-0.0, (1.0,))
    @example(1.0, [1.7976931348623157e308])
    @example(5e-324, (5e-324, 2.0))
    @example(math.nextafter(1.0, 2.0), [1.0])
    @example(math.nan, [1.0])
    @example(1, [1.0])
    @example(True, [1.0])
    @example(np.float64(0.5), [1.0])
    @example(np.bool_(False), [1.0])
    @example("0.5", [1.0])
    @example(0.5, [math.inf])
    @example(0.5, (1.0, math.inf))
    @example(0.5, [1.7976931348623157e308, 1.7976931348623157e308])
    @example(1, (1e308, 1e308, 1.0))
    def test_a_row_builds_what_the_constructor_builds(self, p, times):
        with patch.object(model, "_value_problems", wraps=model._value_problems) as full_check:
            cset, violations = model._checked_rows([("a", p, times)])
        candidates, ps, ts = ([], [], []) if cset is None else map(list, (cset, cset.ps, cset.ts))
        problems, row = model._value_problems(p, times)
        if not full_check.called:  # the plain-float check admitted the row
            assert problems == []
        try:
            want = Candidate("a", p, times)
        except ValueError as e:
            assert (candidates, ps, ts, "; ".join(map(str, violations))) == ([], [], [], str(e))
            assert row is None
        else:
            assert violations == []
            assert [_bits(c) for c in candidates] == [_bits(want)]
            assert [x.hex() for x in ps + ts] == [want.p.hex(), mean_time(want).hex()]
            # The full check returns the row it read: the constructor's floats, bit for bit.
            assert all(type(x) is float for x in (row[0], *row[1], row[2]))
            assert [row[0].hex(), [t.hex() for t in row[1]], row[2].hex()] == [
                want.p.hex(), [t.hex() for t in want.time_samples], mean_time(want).hex()]

    def test_plain_floats_skip_the_full_check(self):
        with patch.object(model, "_value_problems", wraps=model._value_problems) as full_check:
            model._checked_rows([("a", 0.5, [1.0, 2.0]), ("b", -0.0, (3.0,))])
            assert not full_check.called
            model._checked_rows([("a", 1, [1.0])])
            assert full_check.called


# Rows of every kind _checked_rows meets: plain floats it stores as they
# stand (-0.0, 0, 1 and 5e-324 among them) and odd values, which the full
# check coerces or refuses: nan first or between clean ones, p out of
# [0, 1], True, integers, numpy and str look-alikes, times that are empty,
# non-finite, non-positive, an ndarray or overflow in sum.  Ids from a small
# pool repeat now and then.
_ROW_P = [math.nan, -0.0, 0.0, 1.0, 1.0000000000000002, -0.5, True, 1, np.float64(0.5), "0.5"]
_ROW_T = [math.inf, math.nan, 0.0, -1.0, 5e-324, 1e308, 3]
_row_ids = st.sampled_from("abcdefghijkl")
_clean_p = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 0.0, 1.0, 5e-324]))
_clean_samples = st.lists(st.one_of(st.floats(0.125, 8.0), st.just(5e-324)),
                          min_size=1, max_size=3)
_any_samples = st.one_of(
    _clean_samples,
    st.lists(st.one_of(st.floats(0.125, 8.0), st.sampled_from(_ROW_T)), max_size=3),
    st.just([1e308, 1e308]),  # each sample finite, their fsum overflows
)
_any_times = _any_samples.flatmap(
    lambda ts: st.sampled_from([ts, tuple(ts), np.array(ts, dtype=float)]))
_clean_rows = st.lists(
    st.tuples(_row_ids, _clean_p, st.one_of(_clean_samples, _clean_samples.map(tuple))),
    max_size=4)
_any_row = st.one_of(
    st.tuples(_row_ids, st.one_of(_clean_p, st.sampled_from(_ROW_P)), _any_times),
    st.builds(model.Violation, st.just("candidates[9]"), st.just("record"),
              st.just("not an object")))
# All clean; one odd row first, last or between clean ones; or anything.
_rows = st.one_of(
    _clean_rows,
    st.tuples(_clean_rows, _any_row, _clean_rows).map(lambda t: [*t[0], t[1], *t[2]]),
    st.lists(_any_row, max_size=6),
)
_CLEAN_ROWS = [("a", 0.5, [1.0, 2.0]), ("b", -0.0, (3.0,)), ("c", 1.0, [5e-324]),
               ("d", 0.0, (1.7976931348623157e308,))]


def _constructed(rows) -> CandidateSet | None:
    """The set Candidate(...) and CandidateSet(...) build from ``rows``, or None if either refuses."""
    if any(type(row) is model.Violation for row in rows):
        return None
    try:
        return CandidateSet(tuple(Candidate(*row) for row in rows))
    except ValueError:
        return None


class TestSetsOfRows:
    """_checked_rows builds a set from many rows exactly when the constructors do, to the bit."""

    @given(_rows)
    @settings(max_examples=200, deadline=None)
    @example([])
    @example(_CLEAN_ROWS)
    @example([("a", math.nan, [1.0]), ("b", 0.5, [1.0])])
    @example([("a", 0.5, [1.0]), ("b", math.nan, [1.0]), ("c", 0.25, [2.0])])
    @example([("a", 0.5, [1.0]), ("b", 0.5, [2.0, math.nan, 3.0])])
    @example([("a", 0.5, [1.0]), ("b", 0.5, [1e308, 1e308])])
    @example([("a", 0.5, [1.0]), ("b", 1.0000000000000002, [1.0]), ("c", 0.5, [1.0])])
    @example([("a", 0.5, [1.0]), ("b", 0.5, []), ("c", 0.5, [1.0])])
    @example([("a", 0.5, [1.0]), ("b", 0.5, (2.0, 0.0))])
    @example([("a", 0.5, [1.0]), ("b", 0.5, np.array([1.0]))])
    @example([("a", 0.5, [1.0]), ("a", 0.5, [1.0])])
    @example([("a", 0.5, [1.0]), model.Violation("candidates[1]", "record", "not an object")])
    @example([("a", 0.5, np.array([1.0])), ("b", np.float64(0.5), (1.0,)), ("c", 1, [3])])
    @example([("a", np.float64(0.5), [1.0]), ("b", True, (1.0,))])
    @example([("a", 0.5, [1.0, 2]), ("b", 0.5, (True,))])
    def test_rows_build_what_the_constructors_build(self, rows):
        cset, problems = model._checked_rows(iter(rows))
        want = _constructed(rows)
        if want is None:
            assert cset is None and (problems or not rows)
            return
        assert problems == [] and cset == want
        assert [_bits(c) for c in cset] == [_bits(c) for c in want]
        columns = (*cset.ps, *cset.ts)
        assert all(type(x) is float for x in columns)
        assert [x.hex() for x in columns] == [x.hex() for x in (
            *(c.p for c in want), *(mean_time(c) for c in want))]

    def test_only_the_odd_rows_get_the_full_check(self):
        # An integer p, as JSON writes a whole number, among plain float rows.
        rows = [(f"c{i}", i / 64, [1.0 + i]) for i in range(40)]
        rows[20] = ("odd", 1, [2.0])
        with patch.object(model, "_value_problems", wraps=model._value_problems) as full_check:
            cset, problems = model._checked_rows(rows)
        assert full_check.call_count == 1 and problems == []
        assert cset == _constructed(rows) and type(cset[20].p) is float

    def test_each_rows_times_list_is_freed_at_its_row(self):
        # Each times list becomes the candidate's tuple as its row is read, so
        # the lists of fresh rows are never all alive at once.  On N = 10^4 rows
        # (CPython 3.11), building the tuples only after every row was read
        # peaked at 1.59x the finished set; converting at each row, at 1.29x
        # (the columns' copies and the set of seen ids are the rest).
        def rows(n):
            rng = random.Random(7)
            for i in range(n):
                yield f"c{i}", rng.random(), [rng.uniform(0.1, 10.0) for _ in range(1 + i % 3)]

        model._checked_rows(rows(10))  # warms up outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            cset, problems = model._checked_rows(rows(10_000))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert problems == [] and cset.N == 10_000
        assert peak <= 1.45 * held, peak / held


# Each test runs once with the collector on and once with it off.
_GC_STATES = pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])


class TestGcPause:
    """Building a set pauses the cyclic collector and leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def _restore(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @_GC_STATES
    def test_pause_restores_the_state(self, enabled):
        (gc.enable if enabled else gc.disable)()
        assert model._gc_paused(gc.isenabled) is False
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            model._gc_paused({}.__getitem__, "x")
        assert gc.isenabled() is enabled

    @_GC_STATES
    def test_ingest_and_from_records_restore_the_state(self, enabled, tmp_path):
        files = {"clean.json": '{"candidates": [{"id": "a", "p": 0.5, "times": [1]}]}',
                 "refused.json": '{"candidates": [{"id": "a", "p": 2, "times": [1]}]}',
                 "broken.json": '{"candidates": [',
                 "refused.csv": "id,p,t1\na,0.5,-1\n"}
        (gc.enable if enabled else gc.disable)()
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            try:
                cli.ingest(str(path), name.rsplit(".", 1)[1])
            except cli.CliInputError:
                assert name != "clean.json"
            assert gc.isenabled() is enabled, name
        for records in ([("a", 0.5, [1.0])], [("a", 2.0, [1.0])], [42]):
            try:
                CandidateSet.from_records(records)
            except ValueError:
                pass
            validate(records)
            assert gc.isenabled() is enabled


class TestOrdering:
    def test_identity(self):
        assert Ordering.identity(3).perm == (0, 1, 2)

    def test_rejects_non_permutation(self):
        for perm in [(0, 0, 1), (1, 2, 3), (0, 0), (1, 2)]:
            with pytest.raises(ValueError):
                Ordering(perm)

    def test_swapped(self):
        assert Ordering((0, 1, 2)).swapped(0, 2).perm == (2, 1, 0)

    @pytest.mark.parametrize("perm, entry", [
        ([1.5, 0], "1.5"), ([1.0, 0], "1.0"), (["1", "0"], "'1'"), ((0, None), "None"),
    ])
    def test_an_entry_that_is_no_integer_is_named(self, perm, entry):
        # int() would read 1.5 as 1 and "1" as 1; operator.index reads neither.
        with pytest.raises(TypeError, match=re.escape(f"perm entry {entry} is not an integer")):
            Ordering(perm)

    def test_refused_perms_are_echoed_bounded(self):
        with pytest.raises(ValueError, match=r"^perm <unprintable tuple> is not a permutation "
                                             r"of 0\.\.0$"):
            Ordering((10**5000,))
        perm = tuple(range(1, 100_001))
        shown = repr(perm)
        with pytest.raises(ValueError) as refused:
            Ordering(perm)
        assert str(refused.value) == (f"perm {shown[:100]}... ({len(shown)} characters) "
                                      "is not a permutation of 0..99999")


class TestValidate:
    def test_clean_set(self):
        report = validate(make_set([0.5, 0.4, 0.3]))
        assert report.ok
        assert str(report) == "clean"

    def test_probability_out_of_range(self):
        report = validate([{"id": "a", "p": 1.5, "times": [1.0]}])
        assert not report.ok
        assert any("out of [0, 1]" in str(v) and v.field == "p" for v in report.violations)

    def test_non_positive_time(self):
        report = validate([("a", 0.5, [0.0])])
        assert any("non-positive" in v.message and v.field == "times"
                   for v in report.violations)

    def test_empty_set(self):
        report = validate([])
        assert any("empty candidate set" in v.message for v in report.violations)

    def test_duplicate_ids(self):
        report = validate([("a", 0.5, [1.0]), ("a", 0.4, [1.0])])
        assert any("duplicate" in v.message for v in report.violations)

    def test_collects_everything_at_once(self):
        report = validate([("a", 2.0, [0.0]), ("a", "oops", [1.0])])
        fields = {v.field for v in report.violations}
        assert {"p", "times", "id"} <= fields

    @pytest.mark.parametrize("rec", ["abc", b"abc", ""])
    def test_a_string_is_no_record(self, rec):
        # Unpacked, "abc" would be id "a", p "b" and times "c".
        message = f"record #0: field 'record': malformed record: {rec!r}"
        assert str(validate([rec])) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CandidateSet.from_records([rec])
        assert str(validate([("a", 0.5, [1.0]), rec])) == message.replace("#0", "#1")

    @given(candidate_sets(max_size=5))
    @settings(max_examples=50)
    def test_constructed_sets_are_always_clean(self, cset):
        assert validate(cset).ok

    @pytest.mark.parametrize("records, message", [
        ([10**5000], "record #0: field 'record': malformed record: <unprintable int>"),
        ([("a", [10**5000], [1.0])], "candidate 'a': field 'p': not a number: <unprintable list>"),
    ], ids=["record", "p"])
    def test_a_value_past_the_digit_limit_is_listed_by_its_type(self, records, message):
        # repr of an int past the interpreter's digit limit raises ValueError.
        assert str(validate(records)) == message

    def test_a_long_value_is_echoed_bounded(self):
        p = list(range(100_000))
        shown = repr(p)
        assert str(validate([("a", p, [1.0])])) == (
            f"candidate 'a': field 'p': not a number: {shown[:100]}... ({len(shown)} characters)")


class TestTimesRead:
    """``times`` is read once, into a tuple; what is no sequence of samples is refused by name."""

    @pytest.mark.parametrize("times, shown", [(b"19", "b'19'"), (19, "19")], ids=["bytes", "int"])
    def test_not_a_sequence(self, times, shown):
        message = f"candidate 'a': field 'times': not a sequence: {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Candidate("a", 0.5, times)
        assert str(validate([("a", 0.5, times)])) == message

    @pytest.mark.parametrize("build", [
        lambda times: Candidate("a", 0.5, times).time_samples,
        lambda times: CandidateSet.from_records([("a", 0.5, times)])[0].time_samples,
    ], ids=["Candidate", "from_records"])
    def test_a_one_shot_generator_is_read_once(self, build):
        reads = []

        def times():
            for t in (1.0, 2.0, 4.0):
                reads.append(t)
                yield t

        assert build(times()) == (1.0, 2.0, 4.0)
        assert reads == [1.0, 2.0, 4.0]


class _Counted:
    """A number that counts the float() calls made on it."""

    def __init__(self, value: float, calls: list) -> None:
        self.value, self.calls = value, calls

    def __float__(self) -> float:
        self.calls.append(self.value)
        return self.value


class TestOneRead:
    """The full check reads each value once, and the record is stored as read."""

    @pytest.mark.parametrize("build", [
        lambda p, times: CandidateSet((Candidate("a", p, times),)),
        lambda p, times: CandidateSet.from_records([("a", p, times)]),
        lambda p, times: CandidateSet.from_records([{"id": "a", "p": p, "times": times}]),
    ], ids=["Candidate", "from_records-tuple", "from_records-mapping"])
    def test_each_value_is_converted_once(self, build):
        calls = []
        cset = build(_Counted(0.25, calls), [_Counted(t, calls) for t in (1.0, 2.0, 4.5)])
        assert sorted(calls) == [0.25, 1.0, 2.0, 4.5]
        assert (cset.ps, cset.ts, cset[0].time_samples) == ((0.25,), (2.5,), (1.0, 2.0, 4.5))

    def test_a_refused_record_is_read_once_too(self):
        calls = []
        with pytest.raises(ValueError, match="probability 1.5 out of"):
            Candidate("a", _Counted(1.5, calls), [_Counted(1.0, calls)])
        assert sorted(calls) == [1.0, 1.5]


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 1e16, -1e16,
                                1.7976931348623157e308, math.inf, -math.inf, math.nan])


class TestLeftToRightSum:
    """model._sum adds as ``total += x`` from 0.0 does, never with sum()'s compensation."""

    @given(st.lists(st.one_of(_EDGE_FLOATS, st.floats()), max_size=20))
    @example([1e16, 1.0, -1e16])
    @example([-0.0])
    def test_equals_a_plain_loop(self, xs):
        total = 0.0
        for x in xs:
            total += x
        got = model._sum(xs)
        assert type(got) is float
        assert got.hex() == total.hex()

    def test_rounds_each_addition(self):
        # Compensated summation (sum() from Python 3.12, math.fsum) gives 1.0.
        assert model._sum([1e16, 1.0, -1e16]) == 0.0
