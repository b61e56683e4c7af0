import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_set, rel_ok, sets_with_ordering
from trialorder import (
    AssumptionError,
    BoundAssumptions,
    Ordering,
    SingularityError,
    Violation,
    adjacent_excess_bounds,
    adjacent_swap_excess,
    check_assumptions,
    exact_excess_direct,
    product_lower_bound_wu,
    product_upper_bound_kn,
    solomonoff_order,
    swap_excess_lower_equal_t,
    swap_excess_lower_general,
    swap_excess_upper_equal_t,
    swap_excess_upper_general,
    weighted_geometric_sum,
)

THREE = make_set([0.5, 0.4, 0.3])
IDENT3 = Ordering.identity(3)

unit_floats = st.floats(0.0, 1.0, allow_nan=False)


class TestProductUpperBound:
    def test_empty_input_gives_equality(self):
        assert product_upper_bound_kn([]) == 1.0

    def test_dominates_product(self):
        assert product_upper_bound_kn([0.5, 0.5]) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert product_upper_bound_kn([0.5, 0.5]) >= 0.25

    def test_extreme_element(self):
        assert product_upper_bound_kn([1.0]) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert product_upper_bound_kn([1.0]) >= 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            product_upper_bound_kn([0.5, 1.5])

    @given(st.lists(unit_floats, max_size=20))
    @settings(max_examples=300)
    def test_inequality_everywhere(self, xs):
        assert math.prod(1.0 - x for x in xs) <= product_upper_bound_kn(xs) + 1e-15


class TestProductLowerBound:
    def test_exact_at_two_elements(self):
        a, b = 0.3, 0.8
        assert product_lower_bound_wu([a, b]) == pytest.approx((1 - a) * (1 - b), rel=1e-12)
        assert product_lower_bound_wu([0.5, 0.5]) == pytest.approx(0.25, rel=1e-12)

    def test_three_element_value(self):
        got = product_lower_bound_wu([0.3, 0.3, 0.3])
        assert got == pytest.approx(0.23321490480861132, rel=1e-12)
        assert 0.343 >= got  # the product it bounds

    def test_needs_two_elements(self):
        with pytest.raises(ValueError, match="at least 2"):
            product_lower_bound_wu([0.5])

    @given(st.lists(unit_floats, min_size=2, max_size=20))
    @settings(max_examples=300)
    def test_inequality_everywhere(self, xs):
        assert math.prod(1.0 - x for x in xs) >= product_lower_bound_wu(xs) - 1e-12


class TestWeightedGeometricSum:
    def test_single_term(self):
        assert weighted_geometric_sum(0.5, 1) == pytest.approx(0.5, rel=1e-12)

    def test_two_terms(self):
        assert weighted_geometric_sum(0.5, 2) == pytest.approx(1.0, rel=1e-12)

    def test_growing_ratio(self):
        assert weighted_geometric_sum(2.0, 3) == pytest.approx(34.0, rel=1e-12)

    def test_rejects_unit_ratio(self):
        with pytest.raises(ValueError, match="r = 1"):
            weighted_geometric_sum(1.0, 5)

    def test_empty_sum(self):
        assert weighted_geometric_sum(0.7, 0) == 0.0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            weighted_geometric_sum(0.5, -1)

    @pytest.mark.parametrize("r", [1.0 - 5e-4, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 5e-4])
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_near_one_matches_the_exact_sum(self, r, n):
        # Within 1e-3 of r = 1 the closed form cancels, so the sum is taken directly.
        exact = sum(l * Fraction(r) ** l for l in range(1, n + 1))
        assert abs(Fraction(weighted_geometric_sum(r, n)) - exact) <= Fraction(1e-12) * exact

    @given(st.floats(-2.0, 2.0, allow_nan=False), st.integers(1, 50))
    @settings(max_examples=400)
    def test_matches_literal_summation(self, r, n):
        if r == 1.0:
            r = 0.999
        literal = math.fsum(l * r**l for l in range(1, n + 1))
        assert rel_ok(weighted_geometric_sum(r, n), literal, 1e-9)


class TestAdjacentBounds:
    def test_tight_at_first_position(self):
        res = adjacent_excess_bounds(THREE, IDENT3, 1)
        exact = adjacent_swap_excess(THREE, IDENT3, 1)
        assert res.lower == pytest.approx(exact, rel=1e-12)
        assert res.upper == pytest.approx(exact, rel=1e-12)
        assert res.assumptions_ok

    def test_equal_ratios_collapse_to_zero(self):
        cs = make_set([0.5, 0.5, 0.5])
        res = adjacent_excess_bounds(cs, Ordering.identity(3), 2)
        assert res.lower == 0.0
        assert res.upper == 0.0

    def test_sandwich_with_wu_prefix(self):
        cs = make_set([0.5, 0.5, 0.4, 0.1])
        res = adjacent_excess_bounds(cs, Ordering.identity(4), 3)
        exact = adjacent_swap_excess(cs, Ordering.identity(4), 3)
        assert res.lower <= exact <= res.upper
        assert res.lower == pytest.approx(0.075, rel=1e-12)  # Wu is exact at prefix length 2
        assert res.upper == pytest.approx(0.3 * math.exp(-1.0), rel=1e-12)

    def test_violated_ratio_premise_is_flagged_not_fatal(self):
        cs = make_set([0.3, 0.5])  # ascending ratios
        res = adjacent_excess_bounds(cs, Ordering.identity(2), 1)
        assert not res.assumptions_ok
        assert any(v.field == "ratio" for v in res.violations)
        assert res.upper <= 0.0  # sign caveat: the sandwich flips

    @given(sets_with_ordering(min_size=2, max_size=12))
    @settings(max_examples=200)
    def test_sides_are_the_product_bounds_of_the_prefix(self, case):
        cs, order = case
        ps, ts = cs.ps, cs.ts
        for k in range(1, cs.N):
            a, b = order[k - 1], order[k]
            scale = (ps[a] / ts[a] - ps[b] / ts[b]) * ts[a] * ts[b]
            prefix = [ps[i] for i in order.perm[:k - 1]]
            res = adjacent_excess_bounds(cs, order, k)
            assert res.upper == scale * product_upper_bound_kn(prefix)
            if k >= 3:
                assert res.lower == scale * product_lower_bound_wu(prefix)


GEN_A = BoundAssumptions(c=0.3, d=0.5, t_min=1.0, t_max=1.0, profile="general-upper")
EQ_A = BoundAssumptions(c=0.3, d=0.5, t_min=1.0, t_max=1.0, profile="equal-t-upper")


class TestAssumptionType:
    def test_rejects_bad_band(self):
        with pytest.raises(ValueError, match="0 < c <= d < 1"):
            BoundAssumptions(c=0.5, d=0.3)
        with pytest.raises(ValueError, match="0 < c <= d < 1"):
            BoundAssumptions(c=0.0, d=0.5)
        with pytest.raises(ValueError, match="t_min <= t_max"):
            BoundAssumptions(c=0.3, d=0.5, t_min=2.0, t_max=1.0)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            BoundAssumptions(c=0.3, d=0.5, profile="sideways")


class TestGeneralUpper:
    def test_worked_instance(self):
        res = swap_excess_upper_general(THREE, IDENT3, 1, 2, GEN_A)
        assert res.assumptions_ok
        assert res.A == pytest.approx(5.639455782312925, rel=1e-12)
        assert res.B == pytest.approx(4.533333333333333, rel=1e-12)
        assert res.upper == pytest.approx(4.028, abs=5e-3)
        assert res.upper >= exact_excess_direct(THREE, IDENT3, 1, 2)

    def test_n1_collapse(self):
        res = swap_excess_upper_general(THREE, IDENT3, 1, 1, GEN_A)
        c, d, T = 0.3, 0.5, 1.0
        pk, pkn = 0.5, 0.4
        A = 1 + 1 / c + 1 + ((1 - pk) / (1 - pkn)) * c / (1 - c)
        B = (1 - c / d) * 2 + 1 / c
        manual = T * ((1 - pkn) / (1 - pk)) * (d / c) * (1 - c) * (A - B)
        assert res.upper == pytest.approx(manual, rel=1e-12)

    def test_violated_band_is_flagged(self):
        tight = BoundAssumptions(c=0.3, d=0.45, t_min=1.0, t_max=1.0)
        res = swap_excess_upper_general(THREE, IDENT3, 1, 2, tight)
        assert not res.assumptions_ok
        assert any("c1" in v.subject for v in res.violations)  # p=0.5 > d


class TestGeneralLower:
    def test_worked_instance_stays_below_exact(self):
        a = BoundAssumptions(c=0.3, d=0.5, t_min=1.0, t_max=1.0, profile="general-lower")
        res = swap_excess_lower_general(THREE, IDENT3, 1, 2, a)
        assert res.assumptions_ok
        assert res.lower == pytest.approx(0.22, rel=1e-12)
        assert res.lower <= exact_excess_direct(THREE, IDENT3, 1, 2)

    def test_equal_endpoint_probabilities_cancel_cleanly(self):
        cs = make_set([0.4, 0.3, 0.4], [1.0, 1.5, 2.0])
        a = BoundAssumptions(c=0.3, d=0.4, t_min=1.0, t_max=2.0, profile="general-lower")
        res = swap_excess_lower_general(cs, Ordering.identity(3), 1, 2, a)
        assert math.isfinite(res.lower)
        assert res.A is None  # the printed A diverges at p_k = p_{k+n}
        assert res.lower <= exact_excess_direct(cs, Ordering.identity(3), 1, 2)

    def test_swap_premise_violations_flagged(self):
        cs = make_set([0.3, 0.4], [2.0, 1.0])  # p ascending, t descending
        a = BoundAssumptions(c=0.3, d=0.4, t_min=1.0, t_max=2.0, profile="general-lower")
        res = swap_excess_lower_general(cs, Ordering.identity(2), 1, 1, a)
        assert not res.assumptions_ok
        fields = {v.field for v in res.violations}
        assert {"p", "times"} <= fields

    def test_paper_variant_counterexample(self):
        # Identical candidates make the exact excess zero, yet the formula as
        # printed claims a positive lower bound once the time band is wide;
        # the corrected variant stays (well) below zero.
        cs = make_set([0.55, 0.55, 0.55], [0.5, 0.5, 0.5])
        a = BoundAssumptions(c=0.5, d=0.6, t_min=0.1, t_max=1.0, profile="general-lower")
        exact = exact_excess_direct(cs, Ordering.identity(3), 1, 2)
        assert exact == pytest.approx(0.0, abs=1e-15)
        printed = swap_excess_lower_general(cs, Ordering.identity(3), 1, 2, a,
                                            use_paper_variant=True)
        corrected = swap_excess_lower_general(cs, Ordering.identity(3), 1, 2, a)
        assert printed.lower == pytest.approx(0.044, rel=1e-9)
        assert printed.lower > exact  # the misprint overshoots
        assert corrected.lower <= exact

    def test_corrected_variant_random_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            n_cands = int(rng.integers(2, 8))
            ps = np.sort(rng.uniform(0.05, 0.95, n_cands))[::-1]
            ts = np.sort(rng.uniform(0.1, 10.0, n_cands))
            cs = make_set(ps, ts)
            k = int(rng.integers(1, n_cands))
            n = int(rng.integers(1, n_cands - k + 1))
            a = BoundAssumptions(c=float(ps.min()), d=float(ps.max()),
                                 t_min=float(ts.min()), t_max=float(ts.max()),
                                 profile="general-lower")
            res = swap_excess_lower_general(cs, Ordering.identity(n_cands), k, n, a)
            assert res.assumptions_ok
            assert res.lower <= exact_excess_direct(cs, Ordering.identity(n_cands), k, n) + 1e-9


class TestEqualTimeBounds:
    def test_worked_upper(self):
        res = swap_excess_upper_equal_t(THREE, IDENT3, 1, 2, EQ_A)
        assert res.assumptions_ok
        assert res.A == pytest.approx(1.1714285714285715, rel=1e-12)
        assert res.B == pytest.approx(1.06, rel=1e-12)
        assert res.upper == pytest.approx(0.668, abs=5e-4)
        assert res.upper >= exact_excess_direct(THREE, IDENT3, 1, 2)

    def test_worked_lower(self):
        a = BoundAssumptions(c=0.3, d=0.5, t_min=1.0, t_max=1.0, profile="equal-t-lower")
        res = swap_excess_lower_equal_t(THREE, IDENT3, 1, 2, a)
        assert res.lower <= exact_excess_direct(THREE, IDENT3, 1, 2)

    def test_lower_first_position_specialization(self):
        # at k=1 the exponential prefix factor is exactly 1
        a = BoundAssumptions(c=0.3, d=0.5, t_min=1.0, t_max=1.0, profile="equal-t-lower")
        res = swap_excess_lower_equal_t(THREE, IDENT3, 1, 2, a)
        d, c, p1 = 0.5, 0.3, 0.5
        assert res.A == pytest.approx(1 + d * (1 - ((1 - p1) / (1 - d)) * (d / c)), rel=1e-12)

    def test_equal_endpoint_probabilities_give_zero(self):
        cs = make_set([0.4, 0.3, 0.4])
        a = BoundAssumptions(c=0.3, d=0.4, t_min=1.0, t_max=1.0, profile="equal-t-upper")
        up = swap_excess_upper_equal_t(cs, Ordering.identity(3), 1, 2, a)
        lo = swap_excess_lower_equal_t(cs, Ordering.identity(3), 1, 2,
                                       BoundAssumptions(c=0.3, d=0.4, t_min=1.0, t_max=1.0,
                                                        profile="equal-t-lower"))
        assert up.upper == 0.0
        assert lo.lower == 0.0

    def test_all_equal_probabilities_give_zero(self):
        cs = make_set([0.4, 0.4, 0.4])
        a = BoundAssumptions(c=0.4, d=0.4, t_min=1.0, t_max=1.0, profile="equal-t-upper")
        assert swap_excess_upper_equal_t(cs, Ordering.identity(3), 1, 2, a).upper == 0.0

    def test_unequal_times_raise(self):
        cs = make_set([0.5, 0.4], [1.0, 2.0])
        with pytest.raises(AssumptionError, match="not all equal"):
            swap_excess_upper_equal_t(cs, Ordering.identity(2), 1, 1, EQ_A)
        with pytest.raises(AssumptionError, match="not all equal"):
            swap_excess_lower_equal_t(cs, Ordering.identity(2), 1, 1, EQ_A)


class TestCertainSuccessAtK:
    """p = 1 at position k: these three bounds divide by 1 - p_k and refuse, with one message."""

    @pytest.mark.parametrize("bound, profile", [
        (swap_excess_lower_general, "general-lower"),
        (swap_excess_upper_equal_t, "equal-t-upper"),
        (swap_excess_lower_equal_t, "equal-t-lower"),
    ], ids=["general-lower", "equal-t-upper", "equal-t-lower"])
    def test_refused_as_singular(self, bound, profile):
        cset = make_set([1.0, 0.5, 0.25])  # equal times, so only p_k refuses
        a = BoundAssumptions(0.25, 0.5, 1.0, 1.0, profile=profile)
        with pytest.raises(SingularityError,
                           match=r"^p=1 at position k makes the bound singular$"):
            bound(cset, IDENT3, 1, 1, a)


class TestCheckAssumptions:
    def test_clean_general_upper(self):
        assert check_assumptions(THREE, GEN_A) == ()

    def test_probability_below_band_names_candidate(self):
        a = BoundAssumptions(c=0.35, d=0.5, t_min=1.0, t_max=1.0)
        violations = check_assumptions(THREE, a)
        assert len(violations) == 1
        assert "c3" in violations[0].subject
        assert violations[0].field == "p"

    def test_equal_t_profile_flags_unequal_times(self):
        cs = make_set([0.5, 0.4], [1.0, 2.0])
        a = BoundAssumptions(c=0.3, d=0.5, t_min=1.0, t_max=2.0, profile="equal-t-upper")
        violations = check_assumptions(cs, a)
        assert any("not all equal" in v.message for v in violations)

    @pytest.mark.parametrize("t, gap, equal", [
        (0.5, 0.9e-12, True), (0.5, 1.1e-12, False),  # below 1: 1e-12 absolute
        (1000.0, 0.9e-9, True), (1000.0, 1.1e-9, False),  # above: 1e-12 of the largest
    ])
    def test_equal_t_spread_threshold(self, t, gap, equal):
        cs = make_set([0.5, 0.4], [t, t + gap])
        a = BoundAssumptions(c=0.3, d=0.5, profile="equal-t-upper")
        want = () if equal else (
            Violation("set", "times", f"mean times are not all equal (range {t}..{t + gap})"),)
        assert check_assumptions(cs, a) == want

    def test_general_lower_checks_time_floor(self):
        cs = make_set([0.5, 0.4], [0.5, 2.0])
        a = BoundAssumptions(c=0.3, d=0.5, t_min=1.0, t_max=2.0, profile="general-lower")
        violations = check_assumptions(cs, a)
        assert any("below t_min" in v.message for v in violations)

    def test_adjacent_profile_has_no_set_level_premises(self):
        a = BoundAssumptions(c=0.3, d=0.5, profile="adjacent")
        assert check_assumptions(THREE, a) == ()


# Each band evaluator at its own profile; equal-t ones need equal times.
BAND_EVALUATORS = {
    "general-upper": swap_excess_upper_general,
    "general-lower": swap_excess_lower_general,
    "equal-t-upper": swap_excess_upper_equal_t,
    "equal-t-lower": swap_excess_lower_equal_t,
}


@pytest.mark.parametrize("profile", sorted(BAND_EVALUATORS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_evaluator_violations_begin_with_the_audit(profile, data):
    """An evaluator's violations are check_assumptions at its profile, then swap-local ones."""
    n_cands = data.draw(st.integers(2, 6))
    ps = data.draw(st.lists(st.floats(0.05, 0.95), min_size=n_cands, max_size=n_cands))
    if profile.startswith("equal-t"):
        ts = [data.draw(st.floats(0.1, 10.0))] * n_cands
    else:
        ts = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n_cands, max_size=n_cands))
    cs = make_set(ps, ts)
    c = data.draw(st.floats(0.05, 0.9))
    d = data.draw(st.floats(c, 0.95))
    t_min = data.draw(st.floats(0.0, 10.0))
    t_max = data.draw(st.floats(t_min, 20.0).filter(lambda x: x > 0.0))
    a = BoundAssumptions(c=c, d=d, t_min=t_min, t_max=t_max, profile=profile)
    ordering = Ordering(tuple(data.draw(st.permutations(range(n_cands)))))
    k = data.draw(st.integers(1, n_cands - 1))
    n = data.draw(st.integers(1, n_cands - k))

    audit = check_assumptions(cs, a)
    violations = BAND_EVALUATORS[profile](cs, ordering, k, n, a).violations
    assert violations[:len(audit)] == audit
    assert all(v.subject == f"positions {k},{k + n}" for v in violations[len(audit):])


def _first_out_of_unit(xs):
    """The message of the first element outside [0, 1], walked one by one, or None."""
    for i, x in enumerate(xs):
        if not 0.0 <= x <= 1.0:
            return f"element {i} out of [0, 1]: {x!r}"
    return None


class TestProductBoundScans:
    """A whole-sequence range test must name the same element as a walk, nan included."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25, 1.5])
    @pytest.mark.parametrize("at", [0, 3, 6])
    @pytest.mark.parametrize("container", [list, tuple, np.array])
    @pytest.mark.parametrize("bound", [product_upper_bound_kn, product_lower_bound_wu])
    def test_one_bad_element_anywhere(self, bound, container, at, bad):
        values = [0.25, 0.5, 0.0, 1.0, 0.75, 0.125, 0.5]
        values[at] = bad
        xs = container(values)
        want = _first_out_of_unit(xs)
        assert want is not None and f"element {at} " in want
        with pytest.raises(ValueError) as info:
            bound(xs)
        assert str(info.value) == want

    @pytest.mark.parametrize("bound", [product_upper_bound_kn, product_lower_bound_wu])
    def test_the_first_of_several_is_named(self, bound):
        xs = [0.5, 0.5, math.nan, 2.0, -1.0, math.nan]
        for container in (list, tuple, np.array):
            with pytest.raises(ValueError) as info:
                bound(container(xs))
            assert str(info.value) == _first_out_of_unit(container(xs))

    @given(st.lists(st.one_of(unit_floats, st.floats()), min_size=2, max_size=12))
    @settings(max_examples=300)
    def test_same_outcome_as_a_walk(self, xs):
        want = _first_out_of_unit(xs)
        for bound, formula in ((product_upper_bound_kn, lambda: math.exp(-math.fsum(xs))),
                               (product_lower_bound_wu, lambda: 1.0 - math.fsum(xs) + (
                                   len(xs) - 1) * math.prod(xs) ** (len(xs) / (2 * len(xs) - 2)))):
            if want is None:
                assert bound(xs) == formula()
            else:
                with pytest.raises(ValueError) as info:
                    bound(xs)
                assert str(info.value) == want


def _walked_premises(cset, a):
    """check_assumptions written as the element-by-element walk over every candidate."""
    out = []
    if a.profile == "adjacent":
        return out
    for c, p in zip(cset, cset.ps):
        if not a.c <= p <= a.d:
            out.append(Violation(f"candidate {c.id!r}", "p",
                                 f"probability {p} outside [{a.c}, {a.d}]"))
    if a.profile.startswith("general"):
        t_min = a.t_min if a.profile == "general-lower" else 0.0
        for c, mt in zip(cset, cset.ts):
            if mt > a.t_max:
                out.append(Violation(f"candidate {c.id!r}", "times",
                                     f"mean time {mt} above t_max={a.t_max}"))
            if mt < t_min:
                out.append(Violation(f"candidate {c.id!r}", "times",
                                     f"mean time {mt} below t_min={t_min}"))
    return out


class TestPremiseScans:
    """Sets that break the band or the time band at several positions list what a walk lists."""

    # p outside [0.2, 0.6] at positions 0, 3 and 7; mean times outside [1, 4] at 0, 2, 5 and 7.
    PS = [0.1, 0.3, 0.4, 0.9, 0.5, 0.2, 0.6, 0.65]
    TS = [0.5, 2.0, 4.5, 3.0, 1.0, 7.0, 4.0, 0.25]
    BAND = dict(c=0.2, d=0.6, t_min=1.0, t_max=4.0)

    @pytest.mark.parametrize("profile", ["general-upper", "general-lower", "adjacent"])
    def test_audit_lists_what_the_walk_lists(self, profile):
        cs = make_set(self.PS, self.TS)
        a = BoundAssumptions(profile=profile, **self.BAND)
        want = _walked_premises(cs, a)
        assert check_assumptions(cs, a) == tuple(want)
        subjects = {"general-upper": ["c1", "c4", "c8", "c3", "c6"],
                    "general-lower": ["c1", "c4", "c8", "c1", "c3", "c6", "c8"],
                    "adjacent": []}[profile]
        assert [v.subject for v in want] == [f"candidate {s!r}" for s in subjects]

    @pytest.mark.parametrize("profile", sorted(BAND_EVALUATORS))
    def test_each_evaluator_lists_what_the_walk_lists(self, profile):
        ts = [2.0] * len(self.PS) if profile.startswith("equal-t") else self.TS
        cs = make_set(self.PS, ts)
        a = BoundAssumptions(profile=profile, **self.BAND)
        ordering = Ordering.identity(cs.N)
        walked = _walked_premises(cs, a)
        assert walked  # the band breaks in every profile
        violations = BAND_EVALUATORS[profile](cs, ordering, 2, 3, a).violations
        assert violations[:len(walked)] == tuple(walked)
        assert all(v.subject == "positions 2,5" for v in violations[len(walked):])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_sets(self, data):
        n_cands = data.draw(st.integers(1, 12))
        ps = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_cands, max_size=n_cands))
        ts = data.draw(st.lists(st.floats(0.01, 10.0), min_size=n_cands, max_size=n_cands))
        cs = make_set(ps, ts)
        c = data.draw(st.floats(0.05, 0.9))
        a = BoundAssumptions(c=c, d=data.draw(st.floats(c, 0.95)),
                             t_min=data.draw(st.floats(0.0, 5.0)),
                             t_max=data.draw(st.floats(5.0, 10.0)),
                             profile=data.draw(st.sampled_from(["general-upper", "general-lower"])))
        assert check_assumptions(cs, a) == tuple(_walked_premises(cs, a))


TWO = make_set([0.5, 0.4])
HUGE = 10**5000  # past the int-to-str digit limit: its repr raises


def _messages(violations):
    return [v.message for v in violations]


@pytest.mark.parametrize("build, want", [
    (lambda: _messages(check_assumptions(TWO, BoundAssumptions(0.3, 0.6, HUGE, HUGE,
                                                                "general-lower"))),
     ["mean time 1.0 below t_min=<unprintable int>"] * 2),
    (lambda: _messages(check_assumptions(TWO, BoundAssumptions(0.3, 0.6, 0.0,
                                                                Fraction(1, HUGE)))),
     ["mean time 1.0 above t_max=<unprintable Fraction>"] * 2),
    (lambda: _messages(check_assumptions(TWO, BoundAssumptions(Fraction(1, HUGE),
                                                                Fraction(10, HUGE)))),
     [f"probability {p} outside [<unprintable Fraction>, <unprintable Fraction>]"
      for p in (0.5, 0.4)]),
    (lambda: product_upper_bound_kn([HUGE]), "element 0 out of [0, 1]: <unprintable int>"),
    (lambda: weighted_geometric_sum(0.5, -HUGE), "n must be >= 0, got <unprintable int>"),
], ids=["t_min", "t_max", "band", "element", "n"])
def test_a_value_past_the_digit_limit_is_named_by_its_type(build, want):
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == want
    else:
        assert build() == want
