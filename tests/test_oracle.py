import hashlib
import itertools
import json
import math
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trialorder.montecarlo as montecarlo
from helpers import candidate_sets, eq2_for_perms, make_set, rel_ok, simulate_chunk_matrix
from trialorder import search, streams
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

    @pytest.mark.parametrize("seed", [17, 18, 25, 27])
    def test_the_ninth_and_tenth_terms_add_in_turn(self, seed):
        # numpy adds ten terms as the tree of the first eight, then the 9th,
        # then the 10th.  Each set is one where adding the last two together
        # first moves a bit of the result.
        rng = random.Random(f"eq2-{seed}")
        ps = [rng.uniform(0.01, 0.3) for _ in range(10)]
        ts = [rng.uniform(0.1, 10.0) for _ in range(10)]
        terms, T, Q = [], 0.0, 1.0
        for p, t in zip(ps, ts):
            T += t
            terms.append(T * Q * p)
            Q *= 1.0 - p
        tree = (((terms[0] + terms[1]) + (terms[2] + terms[3]))
                + ((terms[4] + terms[5]) + (terms[6] + terms[7])))
        assert (tree + terms[8]) + terms[9] + T * Q != tree + (terms[8] + terms[9]) + T * Q
        perm = tuple(range(10))
        want = eq2_for_perms(np.array(ps), np.array(ts), np.array([perm], dtype=np.intp))[0]
        assert search._eq2(ps, ts, perm).hex() == float(want).hex()


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
        trials = montecarlo._SIM_CHUNK + 5_000
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

    @pytest.mark.parametrize("n, trials, p, plain", [
        (128, 65_536, 0.01, False), (10_000, 2_000, 0.01, False), (128, 32_768, 0.9, True),
    ], ids=["128-65536", "10000-2000", "plain-128-32768"])
    def test_chunk_memory_is_linear_in_rows(self, monkeypatch, n, trials, p, plain):
        # A chunk keeps a few vectors of its rows and one block of at most
        # 2**16 success draws; its m x N matrices took about 70 MB at both sizes,
        # and the plain route's success words for the whole chunk 66 MB.
        if plain:  # as _on_route forces it
            monkeypatch.setattr(montecarlo, "_route", lambda cells: montecarlo._plain_chunks)
        cs = make_set([p] * n, [1.0] * n)
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
         ("inf", "nan", "0x1.c3d70a3d70a3dp-1")),
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
        got = montecarlo._simulate_chunk(np.random.Generator(np.random.Philox(seed)), p, samples, m)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    @settings(max_examples=60, deadline=None)
    @given(cs=candidate_sets(1, 12), m=st.integers(1, 400), seed=st.integers(0, 2**32))
    def test_chunk_equals_the_matrix_reference(self, cs, m, seed):
        self._chunks_agree(cs.ps, [c.time_samples for c in cs], m, seed)

    @pytest.mark.parametrize("n, m", [
        (3, montecarlo._SIM_BLOCK // 3 + 7),  # a full block of rows, then a partial one
        (montecarlo._SIM_BLOCK + 3, 3),  # rows longer than a block: one row per block
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


_ROUTE_P = (0.0, 5e-324, 0.5, 1 - 2**-53, 1.0)


def _route_set(n: int, shift: int):
    """N candidates: the edge p's, rotated by ``shift``, then p <= 0.2; 1-5 samples, one with 1,000.

    The 1,000-sample candidate has a nonzero redraw threshold, 2**32 % 1000 = 296.
    """
    rng = random.Random(f"route-{n}-{shift}")
    ps = [_ROUTE_P[(j + shift) % 5] if j < 5 else rng.uniform(0.0, 0.2) for j in range(n)]
    ts = [[rng.uniform(0.1, 10.0) for _ in range(1000 if j == n // 2 else 1 + j % 5)]
          for j in range(n)]
    return make_set(ps, ts)


def _on_route(monkeypatch, route, cs, trials, seed):
    monkeypatch.setattr(montecarlo, "_route", lambda cells: route)
    res = simulate(cs, Ordering.identity(cs.N), trials=trials, seed=seed)
    return res.mean_time.hex(), res.std_error.hex(), res.success_rate.hex()


class TestPlainRoute:
    """The plain route draws what the numpy route draws, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 64])
    def test_routes_agree_on_the_grid(self, monkeypatch, n):
        grid = [1, 2, 7, 8, 9, 127, 128, 129, 10_000]
        if n <= 8:
            grid.append(65_537)  # two chunks
        for shift, trials in enumerate(grid):
            cs = _route_set(n, shift)
            seed = 1000 * n + shift
            assert (_on_route(monkeypatch, montecarlo._plain_chunks, cs, trials, seed)
                    == _on_route(monkeypatch, montecarlo._numpy_chunks, cs, trials, seed)), trials

    @pytest.mark.parametrize("n", [3, 7, 13])
    def test_routes_agree_past_a_row_block_off_a_4_word_boundary(self, monkeypatch, n):
        # The second block of rows starts at word rows * n: 3, 2 and 1 past a
        # multiple of 4.  p away from 0 and 1 makes every success word count.
        rows = montecarlo._SIM_BLOCK // n
        rng = random.Random(f"offset-{n}")
        cs = make_set([rng.uniform(0.05, 0.5) for _ in range(n)],
                      [[rng.uniform(0.1, 10.0) for _ in range(1 + j % 3)] for j in range(n)])
        assert (_on_route(monkeypatch, montecarlo._plain_chunks, cs, rows + 100, n)
                == _on_route(monkeypatch, montecarlo._numpy_chunks, cs, rows + 100, n))

    @pytest.mark.parametrize("seed", [0, 5, 2**64 + 3, 2**200])
    @pytest.mark.parametrize("jump", [0, 1, 7, 2**64 + 1])
    def test_blocks_equal_numpys_raw_words(self, seed, jump):
        from trialorder.streams import _LANES, _philox, _seed_words

        n = 2 * _LANES + 3  # three passes
        raw = np.random.Philox(seed).jumped(jump).random_raw(4 * n).astype("<u8").tobytes()
        key = _seed_words(seed)[:2]
        assert _philox(key, jump, range(n)) == raw
        assert _philox(key, jump, [9, 2, 5]) == raw[288:320] + raw[64:96] + raw[160:192]

    def test_pairwise_sum_equals_numpys_reduce(self):
        from trialorder.model import _pairwise_sum

        rng = random.Random(17)
        for n in [*range(1, 301), 65_536]:
            xs = [rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 10.0) ** rng.choice([1, 5, 20])
                  for _ in range(n)]
            assert _pairwise_sum(xs).hex() == float(np.add.reduce(np.array(xs))).hex(), n

    @pytest.mark.parametrize("n", [3, 1000])
    def test_a_redraw_takes_the_scalar_rule(self, monkeypatch, n):
        # x = 0 leaves leftover 0, below 2**32 % n for n = 3 and 1000: drawn again.
        draws = [7, 0, 2**31 + 1, 0, 0, 5, 2**32 - 1, 0, *range(1, 3000, 3)]
        reference, _ = _crafted(monkeypatch, draws)
        want = [reference.integers(0, n) for _ in range(20)]
        index, end = streams._indices(None, 0, 0, 20, n)
        assert list(index) == want
        assert end == 20 + 4  # four draws of 0, each drawn again
        assert next(reference._draws) == draws[end]

    @pytest.mark.parametrize("n", [3, 1000])
    def test_a_pass_reads_only_the_draws_still_missing(self, monkeypatch, n):
        draws = [7, 0, 2**31 + 1, 0, 0, 5, 2**32 - 1, 0, *range(1, 3000, 3)]
        _, reads = _crafted(monkeypatch, draws)
        streams._indices(None, 0, 0, 20, n)
        assert reads == [(0, 20), (20, 4)]  # the four rejected draws are read again, once

    @pytest.mark.parametrize("n", [3, 1000, 2**31 + 1])
    @pytest.mark.parametrize("m, head, passes", [
        (5, [1, 3, 5, 7, 0], [(0, 6), (6, 1)]),  # a rejection at a pass's last lane
        (5, [1, 0, 0, 3, 5], [(0, 6), (6, 2)]),  # two rejections in a row
        (4, [1, 0, 0, 3, 0, 0], [(0, 5), (5, 2), (7, 2)]),  # a refill pass, every lane rejected
    ], ids=["last-lane", "in-a-row", "refill-rejected"])
    def test_a_rejected_draw_is_skipped(self, monkeypatch, n, m, head, passes):
        # x = 0 is rejected for every n, an odd x below 3000 for none; `edge` leaves a
        # leftover of exactly 2**32 % n, and is kept.
        threshold, g = (1 << 32) % n, math.gcd(n, 1 << 32)
        edge = threshold // g * pow(n // g, -1, (1 << 32) // g) % ((1 << 32) // g)
        assert edge * n % (1 << 32) == threshold != 0
        draws = [edge, *head, *range(11, 3000, 14)]
        reference, reads = _crafted(monkeypatch, draws)
        want = [reference.integers(0, n) for _ in range(m + 1)]
        index, end = streams._indices(None, 0, 0, m + 1, n)
        assert list(index) == want
        assert next(reference._draws) == draws[end]
        assert reads == passes  # each pass reads on from the last, only the draws missing


def _crafted(monkeypatch, draws):
    """``draws`` as Philox's 32-bit halves: a _Stream drawing them, and the list of _halves' reads.

    The _Stream takes the draws one by one through _bounded, the scalar rule
    that _indices' lanes are judged against; each read is ``(first, count)``.
    """
    reads = []

    def crafted(key, jump, first, count):
        reads.append((first, count))
        return streams._le(array("I", draws[first:first + count]))

    class Crafted(streams._Stream):
        __slots__ = ("_draws",)

        def __init__(self) -> None:
            self._draws = iter(draws)

        def _next32(self) -> int:
            return next(self._draws)

    monkeypatch.setattr(streams, "_halves", crafted)
    return Crafted(), reads


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
        with pytest.raises(KeyError, match="optimality"):  # run only on a default instance
            rep.stats("optimality")

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
