import hashlib
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trialorder.oracle as oracle_mod
from helpers import candidate_sets, eq2_for_perms, make_set, rel_ok, simulate_chunk_matrix
from trialorder import search
from trialorder import (
    Ordering,
    VerificationConfig,
    brute_force_best_order,
    expected_time,
    simulate,
    solomonoff_order,
    verify_bounds_random,
)

THREE = make_set([0.5, 0.4, 0.3])


class TestBruteForce:
    def test_single_candidate(self):
        cs = make_set([0.5], [2.0])
        res = brute_force_best_order(cs)
        assert res.best_order.perm == (0,)
        assert res.best_expected_time == 2.0
        assert res.evaluated == 1

    def test_three_candidates(self):
        res = brute_force_best_order(THREE)
        assert res.best_order.perm == (0, 1, 2)
        assert res.best_expected_time == pytest.approx(1.8, rel=1e-12)
        assert res.evaluated == 6

    def test_prefers_cheap_candidate(self):
        cs = make_set([0.5, 0.5], [2.0, 1.0])
        res = brute_force_best_order(cs)
        assert res.best_order.perm == (1, 0)

    def test_resolves_near_ties_exactly(self):
        # The two orders differ by about 5e-13 in expected time.
        cs = make_set([0.5, 0.5], [1.0, 1.0 - 1e-12])
        assert brute_force_best_order(cs).best_order.perm == (1, 0)

    def test_factorial_guard(self):
        cs = make_set([0.5] * 11)
        with pytest.raises(ValueError, match="guard"):
            brute_force_best_order(cs)

    def test_tie_break_is_lexicographically_smallest(self):
        cs = make_set([0.5, 0.5, 0.5], [2.0, 2.0, 2.0])
        assert brute_force_best_order(cs).best_order.perm == (0, 1, 2)

    def test_agrees_with_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            cs = make_set(rng.uniform(0.05, 0.95, n), rng.uniform(0.1, 10.0, n))
            bf = brute_force_best_order(cs)
            rule = expected_time(cs, solomonoff_order(cs))
            assert rel_ok(rule, bf.best_expected_time, 1e-9)

    def test_matches_enumeration_on_continuous_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            cs = make_set(rng.uniform(0.0, 1.0, n),
                          [list(rng.uniform(0.1, 10.0, int(rng.integers(1, 4)))) for _ in range(n)])
            perm, value = enumerated_best(cs)
            bf = brute_force_best_order(cs)
            assert (bf.best_order.perm, bf.best_expected_time) == (perm, value)

    def test_near_minimal_on_tied_instances(self):
        # p in {0, 1} and repeated times make exact ties that rounding can
        # split either way; the returned order must still be minimal to 4 ulp.
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            cs = make_set(rng.choice([0.0, 0.5, 1.0], n), rng.choice([0.1, 0.3, 2.0], n))
            _, value = enumerated_best(cs)
            assert brute_force_best_order(cs).best_expected_time <= value + 4 * math.ulp(value)

    @pytest.mark.parametrize("n", [9, 10])
    def test_agrees_with_rule_up_to_the_guard(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            cs = make_set(rng.uniform(0.05, 0.95, n), rng.uniform(0.1, 10.0, n))
            bf = brute_force_best_order(cs)
            assert bf.evaluated == math.factorial(n)
            assert rel_ok(expected_time(cs, solomonoff_order(cs)), bf.best_expected_time, 1e-9)


_EDGE_P = (0.0, -0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0)
# Up to the largest float, so that the running time sum overflows to inf.
_EDGE_T = (5e-324, 1e300, 1e308, 1.7976931348623157e308)


@st.composite
def _scored_rows(draw):
    """(ps, ts, perm) for N = 1-10: edge p's and times, random ones, or an all-tied set."""
    n = draw(st.integers(1, search.MAX_BRUTE_FORCE_N))
    p = st.one_of(st.sampled_from(_EDGE_P), st.floats(0.0, 1.0))
    t = st.one_of(st.sampled_from(_EDGE_T), st.floats(5e-324, 1e300))
    if draw(st.booleans()):
        ps, ts = [draw(p)] * n, [draw(t)] * n
    else:
        ps = draw(st.lists(p, min_size=n, max_size=n))
        ts = draw(st.lists(t, min_size=n, max_size=n))
    return ps, ts, draw(st.permutations(range(n)))


def _same_float(a: float, b: float) -> bool:
    """Equal with the sign of zero, or both nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestEvaluator:
    @given(_scored_rows())
    @settings(max_examples=400)
    def test_equals_the_numpy_reference_bit_for_bit(self, row):
        ps, ts, perm = row
        with np.errstate(all="ignore"):  # the reference warns where sums overflow
            want = eq2_for_perms(np.array(ps), np.array(ts), np.array([perm], dtype=np.intp))[0]
        want = float(want)
        got = search._eq2(ps, ts, perm)
        assert type(got) is float
        if not math.isnan(want):
            assert _same_float(got, want), (got, want)
            return
        # The reference formed inf * 0: an overflowed T past Q = 0 or at p = 0,
        # where the exact term is 0.
        assert not math.isnan(got)
        if len(perm) < 8:
            assert _same_float(got, expected_time(make_set(ps, ts), Ordering(tuple(perm))))

    @pytest.mark.parametrize("ps, ts, perm, want", [
        # Q is 0 after a; b's term and the tail would be inf * 0.
        ([1.0, 0.5], [1e308, 1e308], (0, 1), 1e308),
        # The same past eight terms, where the terms are added pairwise.
        ([1.0] + [0.5] * 8, [1e308] * 9, tuple(range(9)), 1e308),
        # b's term is inf * 0.5 * 0; the tail overflows.
        ([0.5, 0.0], [1e308, 1e308], (0, 1), math.inf),
    ])
    def test_terms_past_an_overflow_that_are_exactly_zero_add_nothing(self, ps, ts, perm, want):
        with np.errstate(all="ignore"):
            assert math.isnan(eq2_for_perms(np.array(ps), np.array(ts), np.array([perm]))[0])
        assert search._eq2(ps, ts, perm) == want


def enumerated_best(cs):
    """Reference: lexicographically smallest float-argmin of eq2_for_perms over all orders."""
    perms = np.array(list(itertools.permutations(range(cs.N))), dtype=np.intp)
    vals = eq2_for_perms(np.array(cs.ps), np.array(cs.ts), perms)
    i = int(np.argmin(vals))  # the first minimum, in lexicographic order
    return tuple(int(x) for x in perms[i]), float(vals[i])


class TestSimulate:
    def test_certain_single_candidate(self):
        cs = make_set([1.0], [2.0])
        res = simulate(cs, Ordering.identity(1), trials=500, seed=1)
        assert res.mean_time == 2.0
        assert res.std_error == 0.0
        assert res.success_rate == 1.0

    def test_hopeless_candidates_always_exhaust(self):
        cs = make_set([0.0, 0.0], [1.5, 2.5])
        res = simulate(cs, Ordering.identity(2), trials=300, seed=2)
        assert res.mean_time == 4.0  # exact: every candidate has one sample
        assert res.success_rate == 0.0

    def test_requires_at_least_one_trial(self):
        with pytest.raises(ValueError, match="trials"):
            simulate(THREE, Ordering.identity(3), trials=0, seed=0)

    def test_bit_reproducible_across_chunk_boundaries(self):
        trials = 70_000  # spans two internal chunks
        a = simulate(THREE, Ordering.identity(3), trials=trials, seed=99)
        b = simulate(THREE, Ordering.identity(3), trials=trials, seed=99)
        assert a == b

    def test_chunk_streams_do_not_depend_on_earlier_chunks(self):
        # Two samples of equal value draw an index per trial where one sample
        # draws nothing, so chunk 0 consumes more of its stream in `two` than
        # in `one`, while every trial's outcome is the same.  Equal results
        # over two chunks mean chunk 1 did not start where chunk 0 stopped.
        one = make_set([0.5, 0.5], [[1.0], [2.0]])
        two = make_set([0.5, 0.5], [[1.0, 1.0], [2.0]])
        trials = oracle_mod._SIM_CHUNK + 5_000
        a = simulate(one, Ordering.identity(2), trials=trials, seed=3)
        b = simulate(two, Ordering.identity(2), trials=trials, seed=3)
        assert (a.mean_time, a.std_error, a.success_rate) == (
            b.mean_time, b.std_error, b.success_rate)

    def test_chunk_memory_is_bounded_in_n(self):
        # Full 65,536-row chunks would take about 200 MB at N=128.
        cs = make_set([0.01] * 128, [1.0] * 128)
        tracemalloc.start()
        try:
            simulate(cs, Ordering.identity(128), trials=65_536, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20

    @pytest.mark.parametrize("n, trials", [(128, 65_536), (10_000, 2_000)])
    def test_chunk_memory_is_linear_in_rows(self, n, trials):
        # A chunk keeps a few vectors of its rows and one block of at most
        # 2**16 success draws; its m x N matrices took about 70 MB at both sizes.
        cs = make_set([0.01] * n, [1.0] * n)
        tracemalloc.start()
        try:
            simulate(cs, Ordering.identity(n), trials=trials, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("ps, ts, trials, seed, want", [
        ([0.3], [[1.0, 2.5, 4.0]], 1000, 4,
         ("0x1.424dd2f1a9fbep+1", "0x1.42e83bf4fe1a5p-5", "0x1.29fbe76c8b439p-2")),
        ([0.05, 0.2, 0.4, 0.1, 0.33, 0.6, 0.15, 0.5],
         [[1.0, 2.0], [0.5], [3.0, 1.5, 2.25], [0.75], [4.0, 0.1], [2.5], [1.25, 3.5, 0.2], [6.0]],
         70_000, 21,
         ("0x1.9495182a9930cp+2", "0x1.2153d3a53f669p-6", "0x1.e75433ba04548p-1")),
        (None, None, 70_000, 8,
         ("0x1.a566619b52446p+7", "0x1.4fb19ada8fde1p-1", "0x1.e898231bcb565p-1")),
        ([0.0, 0.3, 0.0, 1.0, 0.5], [[2.0, 3.0], [1.0, 4.0], [0.5], [7.0, 1.0], [9.0]], 5000, 6,
         ("0x1.01ac710cb295fp+3", "0x1.a341aa7b19e11p-5", "0x1.0000000000000p+0")),
        ([0.5, 0.5, 0.5], [[1e308], [1e308], [1.0]], 2000, 3,
         ("inf", "0x0.0p+0", "0x1.c3d70a3d70a3dp-1")),
    ], ids=["n1", "n8_two_chunks", "n128_three_chunks", "p0_and_p1", "overflow"])
    def test_estimates_are_pinned_bit_for_bit(self, ps, ts, trials, seed, want):
        # Pinned from the simulator that drew each chunk as one (rows, N)
        # matrix and summed each trial's times with a cumsum along the row.
        if ps is None:  # N = 128: 32,768 rows per chunk, one to three samples per candidate
            rng = random.Random("pins-128")
            ps = [rng.uniform(0.001, 0.05) for _ in range(128)]
            ts = [[rng.uniform(0.1, 10.0) for _ in range(1 + i % 3)] for i in range(128)]
        cs = make_set(ps, ts)
        res = simulate(cs, Ordering.identity(cs.N), trials=trials, seed=seed)
        assert (res.mean_time.hex(), res.std_error.hex(), res.success_rate.hex()) == want

    @staticmethod
    def _chunks_agree(ps, ts, m, seed):
        p = np.array(ps)
        samples = [np.asarray(t, dtype=float) for t in ts]
        want = simulate_chunk_matrix(np.random.Generator(np.random.Philox(seed)), p, samples, m)
        got = oracle_mod._simulate_chunk(np.random.Generator(np.random.Philox(seed)), p, samples, m)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    @settings(max_examples=60, deadline=None)
    @given(cs=candidate_sets(1, 12), m=st.integers(1, 400), seed=st.integers(0, 2**32))
    def test_chunk_equals_the_matrix_reference(self, cs, m, seed):
        self._chunks_agree(cs.ps, [c.time_samples for c in cs], m, seed)

    @pytest.mark.parametrize("n, m", [
        (3, oracle_mod._SIM_BLOCK // 3 + 7),  # a full block of rows, then a partial one
        (oracle_mod._SIM_BLOCK + 3, 3),  # rows longer than a block: one row per block
    ])
    def test_chunk_equals_the_matrix_reference_across_blocks(self, n, m):
        rng = random.Random(f"blocks-{n}")
        self._chunks_agree([rng.choice([0.0, 1e-4, 0.3]) for _ in range(n)],
                           [[rng.uniform(0.1, 5.0) for _ in range(1 + i % 2)] for i in range(n)],
                           m, 12)

    def test_seed_changes_the_estimate(self):
        a = simulate(THREE, Ordering.identity(3), trials=2000, seed=1)
        b = simulate(THREE, Ordering.identity(3), trials=2000, seed=2)
        assert a.mean_time != b.mean_time

    def test_converges_to_analytic_values(self):
        trials = 200_000
        res = simulate(THREE, Ordering.identity(3), trials=trials, seed=7)
        assert abs(res.mean_time - 1.8) <= 4 * res.std_error
        analytic_rate = 1 - 0.5 * 0.6 * 0.7
        binom_se = math.sqrt(analytic_rate * (1 - analytic_rate) / trials)
        assert abs(res.success_rate - analytic_rate) <= 4 * binom_se

    def test_multi_sample_times_draw_uniformly(self):
        # mean of samples (1, 3) is 2; certain success on first try
        cs = make_set([1.0], [[1.0, 3.0]])
        res = simulate(cs, Ordering.identity(1), trials=100_000, seed=11)
        assert abs(res.mean_time - 2.0) <= 4 * res.std_error

    def test_overflowing_sums_give_inf_without_warnings(self):
        # Runs under filterwarnings = error, so a numpy overflow warning fails it.
        cs = make_set([0.5, 0.5, 0.5], [[1e308], [1e308], [1.0]])
        res = simulate(cs, Ordering.identity(3), trials=2000, seed=3)
        assert res.mean_time == math.inf

    def test_records_generator_provenance(self):
        res = simulate(THREE, Ordering.identity(3), trials=10, seed=0)
        assert res.generator == "philox"
        assert res.seed == 0


class TestVerifyBoundsRandom:
    def test_zero_instances_empty_report(self):
        rep = verify_bounds_random(VerificationConfig(instances=0, seed=1))
        assert rep.total_failures == 0
        assert rep.checks == ()
        assert rep.passed

    def test_default_run_is_clean(self):
        rep = verify_bounds_random(VerificationConfig(instances=400, seed=13))
        assert rep.passed, rep.to_dict()
        names = {c.name for c in rep.checks}
        assert {
            "decomposition-identity",
            "adjacent-exact",
            "adjacent-reduction",
            "sandwich-adjacent",
            "sandwich-upper-general",
            "sandwich-lower-general",
            "sandwich-upper-equal-t",
            "sandwich-lower-equal-t",
            "equal-p-corrected",
            "optimality",
        } == names
        for c in rep.checks:
            if "sandwich" not in c.name:
                assert c.max_residual < 1e-10, c

    def test_equal_p_pinned_mode_exposes_misprint(self):
        rep = verify_bounds_random(VerificationConfig(instances=200, seed=3, equal_p_only=True))
        stats = rep.stats("equal-p-paper-variant")
        assert stats.runs == 200  # continuous times: swapped pair always differs
        assert stats.failures == stats.runs
        assert rep.stats("equal-p-corrected").failures == 0

    def test_report_serializes(self):
        rep = verify_bounds_random(VerificationConfig(instances=5, seed=1))
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["instances"] == 5
        assert payload["passed"] is True

    def test_reproducible_for_fixed_seed(self):
        a = verify_bounds_random(VerificationConfig(instances=50, seed=21))
        b = verify_bounds_random(VerificationConfig(instances=50, seed=21))
        assert a == b

    @pytest.mark.parametrize("instances, seed, equal_p_only, prefix", [
        (2000, 7, False, "50886fbee0ef65cf"),
        (300, 7, True, "bfb9dc396060fc2f"),
        (1000, 20260813, False, "73497d37446d7197"),
    ])
    def test_report_bytes_are_pinned(self, instances, seed, equal_p_only, prefix):
        # Taken before the engine built its sets on the record route: any
        # change to a draw, a residual's bits or the check order moves them.
        rep = verify_bounds_random(VerificationConfig(instances, seed, equal_p_only))
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix

    def test_config_validates_ranges(self):
        with pytest.raises(ValueError, match="instances"):
            VerificationConfig(instances=-1, seed=0)

    def test_config_sets_only_count_seed_and_mode(self):
        # Ranges and tolerances are fixed by the verification protocol.
        assert list(VerificationConfig._fields) == [
            "instances", "seed", "equal_p_only"]
        with pytest.raises(TypeError):
            VerificationConfig(instances=1, seed=0, p_range=(0.1, 0.5))
