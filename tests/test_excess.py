import numpy  # noqa: F401  the array path runs only once numpy is loaded
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_set, rel_ok, swaps
from trialorder import model
from trialorder import (
    AssumptionError,
    BoundAssumptions,
    Ordering,
    SingularityError,
    adjacent_excess_bounds,
    adjacent_swap_excess,
    equal_p_swap_excess,
    exact_excess_direct,
    general_swap_excess,
    is_ratio_sorted,
    solomonoff_order,
    swap_excess_lower_equal_t,
    swap_excess_lower_general,
    swap_excess_upper_equal_t,
    swap_excess_upper_general,
)

THREE = make_set([0.5, 0.4, 0.3])
IDENT3 = Ordering.identity(3)


class TestPositions:
    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError, match="n=0"):
            exact_excess_direct(THREE, IDENT3, 1, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            exact_excess_direct(THREE, IDENT3, 0, 1)
        with pytest.raises(ValueError, match="out of range"):
            exact_excess_direct(THREE, IDENT3, 3, 1)
        with pytest.raises(ValueError, match="out of range"):
            adjacent_swap_excess(THREE, IDENT3, 3)


_BAND = BoundAssumptions(c=0.2, d=0.6)
# Every swap function of excess and bounds, as f(cset, ordering, k, n).
SWAP_FUNCTIONS = {
    "exact_excess_direct": exact_excess_direct,
    "adjacent_swap_excess": lambda cs, o, k, n: adjacent_swap_excess(cs, o, k),
    "general_swap_excess": general_swap_excess,
    "equal_p_swap_excess": equal_p_swap_excess,
    "adjacent_excess_bounds": lambda cs, o, k, n: adjacent_excess_bounds(cs, o, k),
    "swap_excess_upper_general": lambda cs, o, k, n: swap_excess_upper_general(cs, o, k, n, _BAND),
    "swap_excess_lower_general": lambda cs, o, k, n: swap_excess_lower_general(cs, o, k, n, _BAND),
    "swap_excess_upper_equal_t": lambda cs, o, k, n: swap_excess_upper_equal_t(cs, o, k, n, _BAND),
    "swap_excess_lower_equal_t": lambda cs, o, k, n: swap_excess_lower_equal_t(cs, o, k, n, _BAND),
}
TAKES_N = [name for name in SWAP_FUNCTIONS if "adjacent" not in name]


@pytest.mark.parametrize("name", sorted(SWAP_FUNCTIONS))
class TestSwapGate:
    """One gate, in one order: ordering size, then n >= 1, then 1 <= k, k + n <= N.

    THREE has equal times and unequal probabilities, so the equal-p
    function would raise AssumptionError if it were reached.
    """

    def test_ordering_size_first(self, name):
        with pytest.raises(ValueError, match="ordering over 2 positions does not match set of size 3"):
            SWAP_FUNCTIONS[name](THREE, Ordering.identity(2), 0, 0)

    def test_positions(self, name):
        with pytest.raises(ValueError, match=r"^swap positions k=0, k\+n=1 out of range 1\.\.3$"):
            SWAP_FUNCTIONS[name](THREE, IDENT3, 0, 1)
        with pytest.raises(ValueError, match=r"^swap positions k=3, k\+n=4 out of range 1\.\.3$"):
            SWAP_FUNCTIONS[name](THREE, IDENT3, 3, 1)


@pytest.mark.parametrize("name", sorted(TAKES_N))
def test_swap_distance_checked_before_positions(name):
    with pytest.raises(ValueError, match=r"^swap distance n=0 must be >= 1$"):
        SWAP_FUNCTIONS[name](THREE, IDENT3, 0, 0)


class TestExactDirect:
    def test_two_candidate_instance(self):
        cs = make_set([0.5, 0.5], [1.0, 2.0])
        # 2.5 - 2.0 from the two expected-time evaluations
        assert exact_excess_direct(cs, Ordering.identity(2), 1, 1) == pytest.approx(0.5, rel=1e-12)

    def test_three_candidate_instance(self):
        # 2.12 - 1.8
        assert exact_excess_direct(THREE, IDENT3, 1, 2) == pytest.approx(0.32, rel=1e-12)

    @given(swaps(max_size=6))
    @settings(max_examples=150)
    def test_antisymmetry(self, swap):
        cset, ordering, k, n = swap
        forward = exact_excess_direct(cset, ordering, k, n)
        back = exact_excess_direct(cset, ordering.swapped(k - 1, k + n - 1), k, n)
        assert forward == pytest.approx(-back, rel=1e-9, abs=1e-12)

    @given(swaps(max_size=6))
    @settings(max_examples=150)
    def test_sign_on_ratio_sorted_orders(self, swap):
        cset, _, k, n = swap
        ordering = solomonoff_order(cset)
        assert is_ratio_sorted(cset, ordering)
        assert exact_excess_direct(cset, ordering, k, n) >= -1e-12


class TestAdjacentClosedForm:
    def test_equal_ratios_vanish(self):
        cs = make_set([0.5, 0.5], [1.0, 1.0])
        assert adjacent_swap_excess(cs, Ordering.identity(2), 1) == 0.0

    def test_matches_direct_difference(self):
        cs = make_set([0.5, 0.5], [1.0, 2.0])
        assert adjacent_swap_excess(cs, Ordering.identity(2), 1) == pytest.approx(0.5, rel=1e-12)

    def test_empty_prefix(self):
        cs = make_set([0.9, 0.1])
        assert adjacent_swap_excess(cs, Ordering.identity(2), 1) == pytest.approx(0.8, rel=1e-12)

    @given(swaps(max_size=6))
    @settings(max_examples=200)
    def test_exact_for_any_ordering(self, swap):
        cset, ordering, k, _ = swap
        closed = adjacent_swap_excess(cset, ordering, k)
        direct = exact_excess_direct(cset, ordering, k, 1)
        assert rel_ok(closed, direct, 1e-12)


class TestGeneralDecomposition:
    def test_worked_three_candidate_case(self):
        rep = general_swap_excess(THREE, IDENT3, 1, 2)
        assert rep.q1 == pytest.approx(-0.2, rel=1e-12)
        assert rep.q2 == pytest.approx(0.16, rel=1e-12)
        assert rep.q3 == pytest.approx(0.36, rel=1e-12)
        assert rep.total == pytest.approx(0.32, rel=1e-12)
        assert rep.total == rep.q1 + rep.q2 + rep.q3
        assert rep.method == "q-decomposition"

    def test_adjacent_reduction_has_empty_middle_sum(self):
        cs = make_set([0.5, 0.5], [1.0, 2.0])
        rep = general_swap_excess(cs, Ordering.identity(2), 1, 1)
        assert rep.q2 == 0.0
        assert rel_ok(rep.total, adjacent_swap_excess(cs, Ordering.identity(2), 1), 1e-12)

    def test_identical_candidates_swap_to_zero(self):
        cs = make_set([0.4, 0.2, 0.4], [2.0, 1.0, 2.0], ids=["a", "b", "c"])
        rep = general_swap_excess(cs, Ordering.identity(3), 1, 2)
        assert rep.total == pytest.approx(0.0, abs=1e-15)

    def test_singular_probability_directs_to_direct_oracle(self):
        cs = make_set([1.0, 0.5])
        with pytest.raises(SingularityError, match="exact_excess_direct"):
            general_swap_excess(cs, Ordering.identity(2), 1, 1)

    # p = 1 first makes every later Q exactly 0, and T_2 overflows to inf.
    CERTAIN_FIRST = {
        "n1": (make_set([1.0, 0.5, 0.5], [1e308, 1e308, 1.0]), 2, 1),
        "n2": (make_set([1.0, 0.5, 0.5, 0.5], [1e308, 1e308, 1.0, 2.0]), 2, 2),
    }

    @pytest.mark.parametrize("min_n", [10**9, 0], ids=["loop", "arrays"])
    @pytest.mark.parametrize("case", list(CERTAIN_FIRST))
    def test_terms_with_zero_q_are_zero_not_nan(self, monkeypatch, case, min_n):
        cset, k, n = self.CERTAIN_FIRST[case]
        monkeypatch.setattr(model, "_ARRAY_MIN_N", min_n)
        ordering = Ordering.identity(cset.N)
        rep = general_swap_excess(cset, ordering, k, n)
        parts = [rep.q1, rep.q2, rep.q3, rep.total, exact_excess_direct(cset, ordering, k, n)]
        assert [x.hex() for x in parts] == [(0.0).hex()] * 5

    @given(swaps(max_size=6, safe=True))
    @settings(max_examples=300)
    def test_decomposition_identity(self, swap):
        cset, ordering, k, n = swap
        rep = general_swap_excess(cset, ordering, k, n)
        direct = exact_excess_direct(cset, ordering, k, n)
        assert rel_ok(rep.total, direct, 1e-12)

    @given(swaps(max_size=6, safe=True))
    @settings(max_examples=200)
    def test_n1_reduction_to_adjacent_form(self, swap):
        cset, ordering, k, _ = swap
        rep = general_swap_excess(cset, ordering, k, 1)
        assert rel_ok(rep.total, adjacent_swap_excess(cset, ordering, k), 1e-12)


class TestEqualProbability:
    def test_equal_times_vanish_in_both_variants(self):
        cs = make_set([0.5, 0.5, 0.5], [2.0, 1.0, 2.0])
        assert equal_p_swap_excess(cs, Ordering.identity(3), 1, 2) == 0.0
        assert equal_p_swap_excess(cs, Ordering.identity(3), 1, 2, use_paper_variant=True) == 0.0

    def test_worked_case_corrected(self):
        cs = make_set([0.5, 0.5, 0.5], [1.0, 2.0, 4.0])
        got = equal_p_swap_excess(cs, Ordering.identity(3), 1, 2)
        assert got == pytest.approx(2.25, rel=1e-12)
        assert got == pytest.approx(exact_excess_direct(cs, Ordering.identity(3), 1, 2), rel=1e-12)

    def test_worked_case_paper_variant_documents_misprint(self):
        cs = make_set([0.5, 0.5, 0.5], [1.0, 2.0, 4.0])
        paper = equal_p_swap_excess(cs, Ordering.identity(3), 1, 2, use_paper_variant=True)
        assert paper == pytest.approx(3.75, rel=1e-12)
        direct = exact_excess_direct(cs, Ordering.identity(3), 1, 2)
        assert abs(paper - direct) > 1.0  # off by (t_{k+n}-t_k)(1-p)^k = 1.5

    def test_unequal_probabilities_rejected(self):
        with pytest.raises(AssumptionError, match="not all equal"):
            equal_p_swap_excess(THREE, IDENT3, 1, 1)

    def test_degenerate_shared_probability_rejected(self):
        cs = make_set([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(AssumptionError, match=r"\(0, 1\)"):
            equal_p_swap_excess(cs, Ordering.identity(2), 1, 1)

    @given(st.floats(0.05, 0.95, allow_nan=False), st.data())
    @settings(max_examples=150)
    def test_corrected_matches_decomposition(self, p, data):
        n_cands = data.draw(st.integers(2, 6))
        ts = data.draw(st.lists(st.floats(0.1, 10, allow_nan=False),
                                min_size=n_cands, max_size=n_cands))
        cset = make_set([p] * n_cands, ts)
        k = data.draw(st.integers(1, n_cands - 1))
        n = data.draw(st.integers(1, n_cands - k))
        ordering = Ordering.identity(n_cands)
        corrected = equal_p_swap_excess(cset, ordering, k, n)
        assert rel_ok(corrected, general_swap_excess(cset, ordering, k, n).total, 1e-12)
        paper = equal_p_swap_excess(cset, ordering, k, n, use_paper_variant=True)
        tk = cset[ordering[k - 1]].time_samples[0]
        tkn = cset[ordering[k + n - 1]].time_samples[0]
        assert rel_ok(paper - corrected, (tkn - tk) * (1 - p) ** k, 1e-12)
