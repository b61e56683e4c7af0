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
