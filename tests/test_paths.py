"""The loop path and the array path of the prefix walk agree bit for bit.

Every consumer of the walk runs once on each path, forced by setting
``model._ARRAY_MIN_N``, so the outcome does not depend on which tests ran
before.  Floats must have the same hex (so the sign of a zero counts) and be
Python floats; orders must be the same tuples of ints.  The suite turns
warnings into errors, so the huge-time sets also show that the array path
overflows as silently as the loop does.
"""

from __future__ import annotations

import random

import numpy as np  # the array path runs only once numpy is loaded
import pytest
from helpers import make_set

from trialorder import model
from trialorder.excess import adjacent_swap_excess, exact_excess_direct, general_swap_excess
from trialorder.schedule import (ExpectationOptions, expected_time, failure_tail_term,
                                 solomonoff_order)

LOOP, ARRAYS = 10**9, 0
C = model._ARRAY_MIN_N
NO_TAIL = ExpectationOptions(include_failure_tail=False)


def _continuous(n: int) -> model.CandidateSet:
    rng = random.Random(f"paths-{n}")
    return make_set([rng.random() for _ in range(n)],
                    [[rng.uniform(0.1, 10.0) for _ in range(rng.randint(1, 3))]
                     for _ in range(n)])


def _degenerate(n: int, ps=(0.0, -0.0, 0.5, 1.0)) -> model.CandidateSet:
    # p/t takes few values, so equal ratios (0.5/1 and 1/2, 0 and -0) abound.
    rng = random.Random(f"ties-{n}-{ps}")
    return make_set([rng.choice(ps) for _ in range(n)],
                    [rng.choice((1.0, 2.0, 4.0)) for _ in range(n)])


def _huge(n: int) -> model.CandidateSet:
    # T overflows within a few positions; p = 0 after that makes inf * 0 terms.
    rng = random.Random(f"huge-{n}")
    return make_set([1.0] + [rng.choice((0.0, 0.5)) for _ in range(n - 1)], [1e307] * n)


def _certain_first(n: int) -> model.CandidateSet:
    # Q is exactly 0 from position 1 on, and T overflows at position 2.
    rng = random.Random(f"certain-first-{n}")
    return make_set([1.0] + [rng.choice((0.25, 0.5)) for _ in range(n - 1)],
                    [1e308, 1e308] + [rng.uniform(0.1, 10.0) for _ in range(n - 2)])


def _zero_p_behind_overflow(n: int) -> model.CandidateSet:
    # T overflows at position 2, where p = 0: q2's term there is exactly 0, not inf * 0.
    rng = random.Random(f"zero-p-{n}")
    return make_set([0.5, 0.0] + [rng.choice((0.0, 0.5)) for _ in range(n - 2)],
                    [1e308, 1e308] + [rng.uniform(0.1, 10.0) for _ in range(n - 2)])


def _outcomes(cset: model.CandidateSet) -> list:
    """What every consumer returns on cset, in a fixed order."""
    N = cset.N
    optimal = solomonoff_order(cset)
    out: list = [optimal.perm]
    orders = [optimal, model.Ordering.identity(N), model.Ordering(tuple(reversed(range(N))))]
    swaps = [(1, N - 1), (1, 1), (N - 1, 1), (max(1, N // 3), N // 2)]
    for order in orders:
        out += [expected_time(cset, order), expected_time(cset, order, NO_TAIL),
                failure_tail_term(cset, order)]
        for k, n in swaps:
            out.append(exact_excess_direct(cset, order, k, n))
            if cset.ps[order[k - 1]] != 1.0:  # else the q-decomposition is singular
                rep = general_swap_excess(cset, order, k, n)
                out += [rep.q1, rep.q2, rep.q3, rep.total]
        out += [adjacent_swap_excess(cset, order, k) for k in (1, N // 2, N - 1)]
    return out


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return a == b and all(type(i) is int for i in a + b)
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is float and type(b) is float and a.hex() == b.hex()
    return a == b


SIZES = [C - 1, C, C + 1, 100, 10_000]
SETS = [("continuous", _continuous), ("degenerate", _degenerate),
        ("no-certain", lambda n: _degenerate(n, (0.0, -0.0, 0.25, 0.5))),
        ("minus-zero", lambda n: _degenerate(n, (-0.0,))), ("huge", _huge),
        ("certain-first", _certain_first), ("zero-p-behind-overflow", _zero_p_behind_overflow)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind,build", SETS, ids=[name for name, _ in SETS])
def test_paths_agree_bit_for_bit(monkeypatch, kind, build, n):
    cset = build(n)
    monkeypatch.setattr(model, "_ARRAY_MIN_N", LOOP)
    loop = _outcomes(cset)
    monkeypatch.setattr(model, "_ARRAY_MIN_N", ARRAYS)
    arrays = _outcomes(cset)
    assert len(loop) == len(arrays)
    bad = [(i, a, b) for i, (a, b) in enumerate(zip(loop, arrays)) if not _same(a, b)]
    assert not bad, bad[:5]


def test_the_default_rule_takes_the_array_path_only_at_size():
    assert model._numpy_for(C - 1) is None
    assert model._numpy_for(C) is np


@pytest.mark.parametrize("threshold", [LOOP, ARRAYS], ids=["loop", "arrays"])
def test_q2_skips_a_zero_p_term_behind_an_overflowed_time(monkeypatch, threshold):
    # T_2 = 2e308 overflows beside p_2 = 0: the term is exactly 0, where inf * 0 was nan.
    monkeypatch.setattr(model, "_ARRAY_MIN_N", threshold)
    cset = make_set([0.5, 0.0, 0.5], [1e308, 1e308, 1.0])
    q2 = general_swap_excess(cset, model.Ordering.identity(3), 1, 2).q2
    assert type(q2) is float and q2.hex() == (0.0).hex()
