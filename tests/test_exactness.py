"""The cached p and mean-time vectors change no reported float.

Each reference below is the plain loop over the candidates, re-reading
``c.p`` and ``mean_time(c)`` at every step, in the accumulation order of the
printed formulas.  The library reads the same values from ``cset.ps`` and
``cset.ts`` through one prefix walk; the two must agree bit for bit (``==``),
not within a tolerance.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_set
from trialorder import (
    ExpectationOptions,
    Ordering,
    adjacent_swap_excess,
    exact_excess_direct,
    expected_time,
    failure_tail_term,
    general_swap_excess,
    mean_time,
)

MAX_N = 300


@st.composite
def large_swaps(draw, max_p=1.0):
    """(set, ordering, k, n) with up to MAX_N candidates, positions 1-based.

    p and the time samples are uniform draws, so nearly every product and
    sum rounds; a reordered operation then changes the result.
    """
    rnd = draw(st.randoms(use_true_random=False))
    N = draw(st.integers(2, MAX_N))
    cset = make_set([rnd.uniform(0.0, max_p) for _ in range(N)],
                    [[rnd.uniform(0.01, 10.0) for _ in range(rnd.randint(1, 3))]
                     for _ in range(N)])
    ordering = Ordering(tuple(draw(st.permutations(range(N)))))
    k = draw(st.integers(1, N - 1))
    n = draw(st.integers(1, N - k))
    return cset, ordering, k, n


def loop_expected_time(cset, ordering, tail=True):
    total = 0.0
    T = 0.0
    Q = 1.0
    for idx in ordering.perm:
        c = cset[idx]
        T += mean_time(c)
        total += T * Q * c.p
        Q *= 1.0 - c.p
    if tail:
        total += T * Q
    return total


def loop_prefix(cset, ordering, upto):
    T = [0.0] * (upto + 1)
    Q = [1.0] * (upto + 1)
    for m in range(upto):
        c = cset[ordering[m]]
        T[m + 1] = T[m] + mean_time(c)
        Q[m + 1] = Q[m] * (1.0 - c.p)
    return T, Q


def loop_general_swap_excess(cset, ordering, k, n):
    ck = cset[ordering[k - 1]]
    ckn = cset[ordering[k + n - 1]]
    T, Q = loop_prefix(cset, ordering, k + n)
    pk, pkn = ck.p, ckn.p
    tk, tkn = mean_time(ck), mean_time(ckn)
    q1 = T[k - 1] * Q[k - 1] * (pkn - pk) + Q[k - 1] * (tkn * pkn - tk * pk)
    q2 = 0.0
    for l in range(k + 1, k + n):
        pl = cset[ordering[l - 1]].p
        q2 += Q[l - 1] * pl * (
            T[l] * (pk - pkn) / (1.0 - pk) + (tkn - tk) * (1.0 - pkn) / (1.0 - pk)
        )
    q3 = T[k + n] * Q[k + n - 1] * (pk - pkn) / (1.0 - pk)
    return q1, q2, q3, q1 + q2 + q3


def loop_adjacent_swap_excess(cset, ordering, k):
    _, Q = loop_prefix(cset, ordering, k - 1)
    a = cset[ordering[k - 1]]
    b = cset[ordering[k]]
    ta, tb = mean_time(a), mean_time(b)
    return (a.p / ta - b.p / tb) * Q[k - 1] * ta * tb


@given(large_swaps())
@settings(max_examples=60, deadline=None)
def test_cached_vectors_equal_the_candidates(case):
    cset = case[0]
    assert cset.ps == tuple(c.p for c in cset)
    assert cset.ts == tuple(mean_time(c) for c in cset)


@given(large_swaps())
@settings(max_examples=60, deadline=None)
def test_expected_time_is_the_plain_loop(case):
    cset, ordering, _, _ = case
    assert expected_time(cset, ordering) == loop_expected_time(cset, ordering)
    no_tail = ExpectationOptions(include_failure_tail=False)
    assert expected_time(cset, ordering, no_tail) == loop_expected_time(cset, ordering, False)
    T, Q = loop_prefix(cset, ordering, cset.N)
    assert failure_tail_term(cset, ordering) == T[-1] * Q[-1]


@given(large_swaps())
@settings(max_examples=60, deadline=None)
def test_exact_excess_direct_is_the_plain_loop(case):
    cset, ordering, k, n = case
    swapped = ordering.swapped(k - 1, k + n - 1)
    want = loop_expected_time(cset, swapped) - loop_expected_time(cset, ordering)
    assert exact_excess_direct(cset, ordering, k, n) == want


@given(large_swaps(max_p=0.99))
@settings(max_examples=60, deadline=None)
def test_general_swap_excess_is_the_plain_loop(case):
    cset, ordering, k, n = case
    rep = general_swap_excess(cset, ordering, k, n)
    assert (rep.q1, rep.q2, rep.q3, rep.total) == loop_general_swap_excess(cset, ordering, k, n)


@given(large_swaps())
@settings(max_examples=60, deadline=None)
def test_adjacent_swap_excess_is_the_plain_loop(case):
    cset, ordering, k, _ = case
    assert adjacent_swap_excess(cset, ordering, k) == loop_adjacent_swap_excess(cset, ordering, k)
