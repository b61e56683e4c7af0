"""The optimal trial-ordering rule and expected-solving-time evaluation.

The rule is the classic one attributed to Solomonoff's betting scenario: try
candidates in decreasing order of p / t, where t is the candidate's mean
execution time.  That order minimizes the expected total time until the
first success.

For an ordering (1..N along the permutation) the expected time is

    E = sum_{k=1..N} T_k * Q_{k-1} * p_k  [+ T_N * Q_N]

with T_k the cumulative mean time and Q_k the cumulative product of (1 - p)
along the ordering.  The bracketed failure tail is the time spent
discovering that every candidate fails; it is identical for every
permutation of the same set, so it cancels in order comparisons and swap
penalties.
"""

from __future__ import annotations

from .model import (CandidateSet, Ordering, _check_compatible, _prefix, _ratio_perm, _Record,
                    _terms_sum)

__all__ = [
    "ExpectationOptions",
    "solomonoff_order",
    "expected_time",
    "failure_tail_term",
]


class ExpectationOptions(_Record):
    """Whether expected_time adds the all-candidates-fail tail (default: yes)."""

    _fields = ("include_failure_tail",)

    def __init__(self, include_failure_tail: bool = True) -> None:
        self.__dict__["include_failure_tail"] = include_failure_tail


def solomonoff_order(cset: CandidateSet) -> Ordering:
    """Permutation sorted by p/mean-time ratio, descending; ties keep input order.

    Ratios are compared exactly (no epsilon): transposing two adjacent
    candidates with equal ratios provably leaves the expected time unchanged,
    so any deterministic tie-break is correct, and the stable one is
    reproducible.
    """
    return Ordering._trusted(tuple(_ratio_perm(cset)))


def expected_time(
    cset: CandidateSet,
    ordering: Ordering,
    opts: ExpectationOptions | None = None,
) -> float:
    """Expected total time until first success for the given trial order.

    With the failure tail included (the default) this is the full expected
    running time, counting the time to learn that everything failed.  Without
    it, the success-only sum is reported verbatim; note it is not a
    conditional expectation — its weights sum to 1 - Q_N, not 1.
    """
    _check_compatible(cset, ordering)
    # The terms past Q = 0 and the tail beside Q_N = 0 are not formed (see _prefix).
    N = cset.N
    p, T, Q, live = _prefix(cset, ordering, N)
    m = min(live, N)
    total = _terms_sum(_success_term, p[1:m + 1], T[1:m + 1], Q[:m])
    if (opts is None or opts.include_failure_tail) and live > N:  # the tail is on by default
        total += float(T[N]) * float(Q[N])
    return total


def _success_term(p_l, T_l, Q_l1):  # T_l Q_{l-1} p_l, for floats or arrays alike
    return T_l * Q_l1 * p_l


def failure_tail_term(cset: CandidateSet, ordering: Ordering | None = None) -> float:
    """The all-fail term T_N * Q_N, accumulated along the given ordering.

    Mathematically invariant under permutation; taking an explicit ordering
    lets callers confirm that numerically.
    """
    if ordering is None:
        ordering = Ordering.identity(cset.N)
    _check_compatible(cset, ordering)
    _, T, Q, live = _prefix(cset, ordering, cset.N)
    return float(T[-1]) * float(Q[-1]) if live > cset.N else 0.0  # no inf * (Q_N = 0)
