import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_set, rel_ok, sets_with_ordering
from trialorder import (
    ExpectationOptions,
    Ordering,
    expected_time,
    failure_tail_term,
    is_ratio_sorted,
    solomonoff_order,
)

NO_TAIL = ExpectationOptions(include_failure_tail=False)


class TestSolomonoffOrder:
    def test_ratio_comparison(self):
        cs = make_set([0.9, 0.5], [3.0, 1.0])
        assert solomonoff_order(cs).perm == (1, 0)

    def test_tie_keeps_input_order(self):
        cs = make_set([0.5, 0.5], [1.0, 1.0])
        assert solomonoff_order(cs).perm == (0, 1)

    def test_already_sorted(self):
        cs = make_set([0.5, 0.4, 0.3])
        assert solomonoff_order(cs).perm == (0, 1, 2)

    @given(sets_with_ordering(min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_output_is_ratio_sorted(self, so):
        cset, _ = so
        assert is_ratio_sorted(cset, solomonoff_order(cset))


class TestExpectedTime:
    def test_single_candidate_total_time_regardless_of_outcome(self):
        cs = make_set([0.5], [2.0])
        assert expected_time(cs, Ordering.identity(1)) == 2.0

    def test_two_candidates(self):
        # 0.5*1 + 0.25*3 + 0.25*3 from the expected-time recurrence
        cs = make_set([0.5, 0.5], [1.0, 2.0])
        assert expected_time(cs, Ordering.identity(2)) == pytest.approx(2.0, rel=1e-12)

    def test_three_candidates(self):
        cs = make_set([0.5, 0.4, 0.3])
        assert expected_time(cs, Ordering.identity(3)) == pytest.approx(1.8, rel=1e-12)

    def test_success_only_variant(self):
        cs = make_set([0.5, 0.4, 0.3])
        with_tail = expected_time(cs, Ordering.identity(3))
        without = expected_time(cs, Ordering.identity(3), NO_TAIL)
        assert with_tail == pytest.approx(without + 3 * 0.5 * 0.6 * 0.7, rel=1e-12)

    def test_permutation_mismatch_is_structural_error(self):
        cs = make_set([0.5, 0.4, 0.3])
        with pytest.raises(ValueError, match="does not match"):
            expected_time(cs, Ordering.identity(2))

    def test_outcome_enumeration_oracle(self):
        # Independent route: enumerate all 2^N success patterns and average
        # the stopping time under the product measure.
        cs = make_set([0.35, 0.6, 0.1, 0.85], [[1, 3], [2.5], [0.4, 0.9, 7.0], [5.0]])
        ordering = Ordering((2, 0, 3, 1))
        means = [sum(c.time_samples) / len(c.time_samples) for c in cs]
        expected = 0.0
        for pattern in itertools.product((True, False), repeat=cs.N):
            prob = 1.0
            for idx, success in zip(ordering, pattern):
                prob *= cs[idx].p if success else 1.0 - cs[idx].p
            elapsed = 0.0
            for idx, success in zip(ordering, pattern):
                elapsed += means[idx]
                if success:
                    break
            expected += prob * elapsed
        assert expected_time(cs, ordering) == pytest.approx(expected, rel=1e-12)

    @given(sets_with_ordering(max_size=6))
    @settings(max_examples=100)
    def test_tail_never_decreases_result(self, so):
        cset, ordering = so
        assert expected_time(cset, ordering) >= expected_time(cset, ordering, NO_TAIL)


class TestIsRatioSorted:
    def test_rule_output_is_sorted(self):
        cs = make_set([0.2, 0.9, 0.5], [2.0, 1.0, 1.0])
        assert is_ratio_sorted(cs, solomonoff_order(cs))

    def test_reversed_distinct_order_is_not(self):
        cs = make_set([0.5, 0.4, 0.3])
        assert not is_ratio_sorted(cs, Ordering((2, 1, 0)))

    def test_equal_ratios_any_order(self):
        cs = make_set([0.5, 0.5, 0.5], [2.0, 2.0, 2.0])
        for perm in itertools.permutations(range(3)):
            assert is_ratio_sorted(cs, Ordering(perm))


class TestFailureTail:
    def test_value(self):
        cs = make_set([0.5, 0.4, 0.3])
        assert failure_tail_term(cs) == pytest.approx(3 * 0.5 * 0.6 * 0.7, rel=1e-12)

    @given(sets_with_ordering(max_size=7))
    @settings(max_examples=150)
    def test_tail_invariance_under_permutation(self, so):
        cset, ordering = so
        a = failure_tail_term(cset, Ordering.identity(cset.N))
        b = failure_tail_term(cset, ordering)
        assert rel_ok(a, b, 1e-12)


class TestOverflowBeyondCertainSuccess:
    """Once Q reaches exactly 0, a T that overflowed later adds nothing (inf * 0 was nan).

    N = 2 runs the loop path and N = 100 the array path (numpy is loaded here).
    """

    def test_two_candidates(self):
        cs = make_set([1.0, 0.5], [1e308, 1e308])
        assert failure_tail_term(cs) == 0.0
        assert expected_time(cs, Ordering((0, 1))) == 1e308
        assert expected_time(cs, Ordering((0, 1)), NO_TAIL) == 1e308
        # The exact 1.5e308 would need another fold; T_2 overflows, and Q_2 = 0 keeps it from nan.
        assert expected_time(cs, Ordering((1, 0))) == float("inf")

    def test_hundred_candidates(self):
        import numpy  # noqa: F401  the array path runs only once numpy is loaded

        cs = make_set([1.0] + [0.5] * 99, [1e307] * 100)
        assert failure_tail_term(cs) == 0.0
        assert expected_time(cs, Ordering.identity(100)) == 1e307
        assert expected_time(cs, solomonoff_order(cs)) == 1e307


class TestOverflowAtZeroProbability:
    """A p = 0 candidate adds nothing, even where T overflowed (inf * 0 was nan).

    N = 2 runs the loop path and N = 100 the array path (numpy is loaded here).
    """

    @pytest.mark.parametrize("n", [2, 100])
    def test_terms_after_the_overflow(self, n):
        import numpy  # noqa: F401  the array path runs only once numpy is loaded

        cs = make_set([0.5] + [0.0] * (n - 1), [1e308] * n)
        assert expected_time(cs, Ordering.identity(n), NO_TAIL) == 5e307
        assert expected_time(cs, Ordering.identity(n)) == float("inf")  # the tail overflows


class TestOptimality:
    @given(sets_with_ordering(min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_rule_beats_every_permutation(self, so):
        cset, _ = so
        best = expected_time(cset, solomonoff_order(cset))
        for perm in itertools.permutations(range(cset.N)):
            other = expected_time(cset, Ordering(perm))
            assert best <= other + 1e-9 * max(1.0, abs(other))

    @given(st.data())
    @settings(max_examples=100)
    def test_equal_ratio_adjacent_swap_is_neutral(self, data):
        # Power-of-two times make p = r*t and p/t == r exact in binary floats.
        n = data.draw(st.integers(2, 6))
        r = data.draw(st.sampled_from([0.03125, 0.0625, 0.125, 0.25]))
        ts = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                                min_size=n, max_size=n))
        cset = make_set([r * t for t in ts], ts)
        k = data.draw(st.integers(0, n - 2))
        ordering = Ordering.identity(n)
        e1 = expected_time(cset, ordering)
        e2 = expected_time(cset, ordering.swapped(k, k + 1))
        assert abs(e1 - e2) <= 1e-12 * max(1.0, abs(e1))
