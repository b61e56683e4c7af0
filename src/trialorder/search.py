"""Exact optimum search over all orders, in plain Python.

brute_force_best_order finds the least expected solving time by a subset
recursion and scores the order it finds with _eq2, this module's own
evaluator, not schedule.expected_time, so the rule and the scalar evaluator
are checked against an independent implementation.  Nothing here imports
numpy, so `verify-optimal` runs without it; oracle re-exports these names.
Results are a pure function of the candidate set.
"""

from __future__ import annotations

import math

from .model import MAX_BRUTE_FORCE_N, CandidateSet, Ordering, _pairwise_sum, _Record

__all__ = ["MAX_BRUTE_FORCE_N", "BruteForceResult", "brute_force_best_order"]


class BruteForceResult(_Record):
    """Minimizer of the expected solving time over all N! orderings."""

    _fields = ("best_order", "best_expected_time", "evaluated")


def _eq2(ps, ts, perm) -> float:
    """Expected time of ``perm``, failure tail included, in numpy's row-sum rounding.

    Term k is (T_k Q_(k-1)) p_k, with T and Q accumulated left to right.  The
    terms are added in the order numpy's pairwise row sum adds them
    (model._pairwise_sum), so the value keeps the bits of the numpy
    reference in the tests.

    A term with p = 0, and every term and the tail once Q is exactly 0, is
    exactly 0 wherever T is finite.  They are written as 0.0, so that a T
    that overflowed adds nothing there, where the reference's inf * 0 gives
    nan; every value the reference gives that is not nan keeps its bits.
    """
    terms = []
    T, Q = 0.0, 1.0
    for j in perm:
        p = ps[j]
        T += ts[j]
        terms.append(T * Q * p if p and Q else 0.0)
        Q *= 1.0 - p
    total = _pairwise_sum(terms)
    return total + T * Q if Q else total


def brute_force_best_order(cset: CandidateSet) -> BruteForceResult:
    """Exact minimizer of the expected solving time over all N! orderings.

    E = sum_k t_k Q(first k-1 candidates), where Q(S), the chance that every
    candidate in S fails, does not depend on their order.  So the cheapest
    completion of a prefix holding set S is g(S) = min over j not in S of
    t_j Q(S) + g(S + {j}), with g(all) = 0, and g(empty) is the optimum: a
    subset recursion (Held-Karp) in O(2^N N) steps, not N! evaluations.

    Ties: the order is rebuilt forwards, taking at each step the smallest
    index whose continuation the recursion's own arithmetic scores minimal,
    so among orders it scores equal the lexicographically smallest wins.
    ``best_expected_time`` is that order evaluated by _eq2, the search's
    independent evaluator; ``evaluated`` is N!, the number of orders the
    search covers.
    """
    N = cset.N
    if N > MAX_BRUTE_FORCE_N:
        raise ValueError(f"N={N} exceeds the brute-force guard of {MAX_BRUTE_FORCE_N}")
    ps, ts = cset.ps, cset.ts
    full = (1 << N) - 1
    fail = [1.0] * (full + 1)  # fail[S] = Q(S), S a bitmask of candidate indices
    for S in range(1, full + 1):
        j = (S & -S).bit_length() - 1
        fail[S] = fail[S & (S - 1)] * (1.0 - ps[j])
    bits = [(1 << j, t) for j, t in enumerate(ts)]  # (candidate j's bit, t_j), j ascending
    cost = [0.0] * (full + 1)  # cost[S] = g(S)
    for S in range(full - 1, -1, -1):
        q = fail[S]
        cost[S] = min([t * q + cost[S | b] for b, t in bits if not S & b])

    perm: list[int] = []
    S = 0
    while S != full:
        q = fail[S]
        j = next(j for j, (b, t) in enumerate(bits)
                 if not S & b and t * q + cost[S | b] == cost[S])
        perm.append(j)
        S |= 1 << j
    return BruteForceResult(Ordering(tuple(perm)), _eq2(ps, ts, perm), math.factorial(N))
