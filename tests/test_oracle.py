import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import trialorder.oracle as oracle_mod
from helpers import make_set, rel_ok
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


def enumerated_best(cs):
    """Reference: lexicographically smallest float-argmin of _eq2_for_perms over all orders."""
    perms = np.array(list(itertools.permutations(range(cs.N))), dtype=np.intp)
    vals = oracle_mod._eq2_for_perms(np.array(cs.ps), np.array(cs.ts), perms)
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
