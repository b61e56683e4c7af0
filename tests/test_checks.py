"""The check engine's own PCG64 stream draws what numpy's default_rng draws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialorder import checks
from trialorder.checks import VerificationConfig, verify_bounds_random

_EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64, 2**64 + 7, 2**200 + 12345)
_seeds = st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**256))

_lo, _width = st.floats(-1e3, 1e3), st.floats(0.0, 1e3)
_calls = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), _lo, _width, st.none()),
    st.tuples(st.just("uniform"), _lo, _width, st.integers(0, 5)),
    # Small ranges, and ranges of 2**30 or more, where Lemire's method rejects often.
    st.tuples(st.just("integers"), st.integers(-50, 50),
              st.one_of(st.integers(1, 10), st.integers(2**30, 2**32), st.just(2**32))),
)


def _call(rng, call):
    if call[0] == "random":
        return float(rng.random())
    _, lo, width, *size = call
    if call[0] == "integers":
        return int(rng.integers(lo, lo + width))
    drawn = rng.uniform(lo, lo + width, *size)
    return drawn if size == [None] else [float(x) for x in drawn]


class TestStream:
    @given(_seeds, st.lists(_calls, max_size=40))
    @settings(max_examples=300)
    def test_draws_equal_default_rng(self, seed, calls):
        mine, numpys = checks._Stream(seed), np.random.default_rng(seed)
        for call in calls:
            assert _call(mine, call) == _call(numpys, call), (seed, call)

    def test_accepts_what_operator_index_accepts(self):
        assert checks._Stream(np.int64(7)).random() == checks._Stream(7).random()

    def test_negative_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            checks._Stream(-1)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            np.random.default_rng(-1)

    @pytest.mark.parametrize("seed", [None, 1.5, [1, 2], "3"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        # numpy would take None as a request for OS entropy, and a list as words.
        with pytest.raises(TypeError, match="seed must be a non-negative integer, got "):
            verify_bounds_random(VerificationConfig(instances=0, seed=seed))


class TestMean:
    def test_sort_key_equals_numpy_mean(self):
        # A right-grouped sum, a0 + (a1 + a2), misses np.mean on about one
        # three-sample draw in five.
        rng = checks._Stream(5)
        for size in (1, 2, 3) * 700:
            samples = rng.uniform(0.1, 10.0, size)
            assert checks._mean(samples) == float(np.mean(np.array(samples))), samples


class TestEngine:
    @pytest.mark.parametrize("seed", [0, 3, 2**32, 2**64 + 7])
    @pytest.mark.parametrize("equal_p_only", [False, True])
    def test_report_equals_the_report_drawn_by_numpy(self, monkeypatch, seed, equal_p_only):
        # The engine on numpy's own generator makes the same calls and so
        # reports the same numbers: the call sequence did not change.
        config = VerificationConfig(40, seed, equal_p_only)
        mine = verify_bounds_random(config).to_dict()
        monkeypatch.setattr(checks, "_Stream", np.random.default_rng)
        assert verify_bounds_random(config).to_dict() == mine


def _leaves(x):
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


class TestDrawEvaluate:
    @pytest.mark.parametrize("equal_p_only", [False, True])
    def test_only_draw_draws(self, monkeypatch, equal_p_only):
        # A full run leaves the stream where as many bare draws leave it, so
        # evaluating an instance makes no call on the stream.
        made = []

        class Recorded(checks._Stream):
            __slots__ = ()

            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        alone = checks._Stream(11)
        monkeypatch.setattr(checks, "_Stream", Recorded)
        verify_bounds_random(VerificationConfig(60, 11, equal_p_only))
        for _ in range(60):
            checks._draw(alone, equal_p_only)
        [run] = made
        assert (run._state, run._half) == (alone._state, alone._half)

    @pytest.mark.parametrize("equal_p_only", [False, True])
    def test_an_instance_is_plain_data(self, equal_p_only):
        rng = checks._Stream(4)
        for _ in range(50):
            instance = checks._draw(rng, equal_p_only)
            general, lower, equal_t, equal_p, ka = instance
            drawn = [equal_p] if equal_p_only else [general, lower, equal_t, equal_p, ka]
            if equal_p_only:
                assert (general, lower, equal_t, ka) == (None, None, None, None)
            assert {type(v) for v in _leaves(drawn)} <= {float, int}
            one, two = checks._Tally(), checks._Tally()
            checks._evaluate(instance, one)
            checks._evaluate(instance, two)
            assert one.as_checks() == two.as_checks()
