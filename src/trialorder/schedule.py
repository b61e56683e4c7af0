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

from .model import (CandidateSet, Ordering, _check_compatible, _fold, _numpy_for, _prefix,
                    _Record, _sum)

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
    np = _numpy_for(cset.N)
    if np is None:
        scores = [p / t for p, t in zip(cset.ps, cset.ts)]
        perm = sorted(range(cset.N), key=lambda i: -scores[i])
    else:
        ps, ts = cset._arrays
        with np.errstate(all="ignore"):  # p / t may overflow to inf, as a float quotient does
            perm = np.argsort(-(ps / ts), kind="stable").tolist()
    return Ordering._trusted(tuple(perm))


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
    # Q never grows, and once it is exactly 0 every later term and the tail
    # are exactly 0 wherever T is finite; so is the term of a p = 0 candidate.
    # Both paths stop at Q = 0 and add nothing for p = 0, so a T that
    # overflowed adds nothing there, where inf * 0 would make the total nan.
    N = cset.N
    np = _numpy_for(N)
    p, T, Q = _prefix(cset, ordering, N)
    if np is None:
        live = N + 1 - Q.count(0.0)  # Q_0 .. Q_(live-1) are > 0, the rest exactly 0
        total = _sum([T[l] * Q[l - 1] * p[l] for l in range(1, min(live, N) + 1) if p[l]])
    else:
        live = int(np.count_nonzero(Q))
        m = min(live, N)
        with np.errstate(all="ignore"):
            terms = T[1:m + 1] * Q[:m] * p[1:m + 1]
        terms[p[1:m + 1] == 0.0] = 0.0
        total = _fold(terms)
    if (opts is None or opts.include_failure_tail) and live > N:  # the tail is on by default
        total += float(T[N]) * float(Q[N])
    return total


def failure_tail_term(cset: CandidateSet, ordering: Ordering | None = None) -> float:
    """The all-fail term T_N * Q_N, accumulated along the given ordering.

    Mathematically invariant under permutation; taking an explicit ordering
    lets callers confirm that numerically.
    """
    if ordering is None:
        ordering = Ordering.identity(cset.N)
    _check_compatible(cset, ordering)
    _, T, Q = _prefix(cset, ordering, cset.N)
    T_N, Q_N = float(T[-1]), float(Q[-1])
    return T_N * Q_N if Q_N != 0.0 else 0.0  # a T_N that overflowed meets no Q_N = 0
