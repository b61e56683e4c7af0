"""Exact expected-time penalty of transposing two candidates in a trial order.

Positions are 1-based here (the earlier candidate sits at position k, the
later at k+n) to match how the closed forms are usually written; the
underlying Ordering stays 0-based.  All quantities (p, t, prefix sums and
products) are taken along the *reference* ordering, i.e. the one before the
swap, and t always means the candidate's mean execution time.

Three routes to the same number:

* exact_excess_direct     — subtract the two expected-time evaluations
                            (the oracle; failure tails cancel).
* adjacent_swap_excess    — closed form for n = 1:
                            (p_k/t_k - p_{k+1}/t_{k+1}) * Q_{k-1} * t_k * t_{k+1}.
* general_swap_excess     — the q1 + q2 + q3 decomposition for any distance n.

The decomposition is derived by subtraction, so it is exact (not merely an
upper bound); the test suite asserts equality with the direct route.
"""

from __future__ import annotations

from .errors import AssumptionError, SingularityError
from .model import (CandidateSet, Ordering, _check_compatible, _prefix, _Record, _shown, _spread,
                    _terms_sum)
from .schedule import expected_time

__all__ = [
    "ExcessReport",
    "exact_excess_direct",
    "adjacent_swap_excess",
    "general_swap_excess",
    "equal_p_swap_excess",
]

class ExcessReport(_Record):
    """Signed swap penalty with its q1/q2/q3 decomposition.

    ``total == q1 + q2 + q3`` whenever ``method`` is the general
    decomposition; positive total means the swap makes things worse.
    """

    _fields = ("k", "n", "q1", "q2", "q3", "total", "method")


def _swap_ends(cset: CandidateSet, ordering: Ordering, k: int, n: int) -> tuple[float, ...]:
    """``(p_k, p_(k+n), t_k, t_(k+n))`` of a valid swap, else ValueError.

    The one gate of every swap function here and in the bounds module, and
    their one read of the swapped candidates: the ordering must fit the set,
    then n >= 1, then 1 <= k and k + n <= N.
    """
    _check_compatible(cset, ordering)
    if n < 1:
        raise ValueError(f"swap distance n={_shown(n)} must be >= 1")
    if k < 1 or k + n > cset.N:
        raise ValueError(f"swap positions k={_shown(k)}, k+n={_shown(k + n)} "
                         f"out of range 1..{cset.N}")
    i, j = ordering.perm[k - 1], ordering.perm[k + n - 1]
    return cset.ps[i], cset.ps[j], cset.ts[i], cset.ts[j]


def exact_excess_direct(cset: CandidateSet, ordering: Ordering, k: int, n: int) -> float:
    """expected_time(swapped order) - expected_time(order), tails included.

    This is the direct-difference oracle every closed form is checked
    against.  The failure tail is included on both sides and cancels.
    """
    _swap_ends(cset, ordering, k, n)
    swapped = ordering.swapped(k - 1, k + n - 1)
    return expected_time(cset, swapped) - expected_time(cset, ordering)


def adjacent_swap_excess(cset: CandidateSet, ordering: Ordering, k: int) -> float:
    """Closed-form penalty of swapping positions k and k+1.

    (p_k/t_k - p_{k+1}/t_{k+1}) * Q_{k-1} * t_k * t_{k+1}, exact for any
    reference ordering; >= 0 whenever the ordering is ratio-sorted.
    """
    pk, pk1, tk, tk1 = _swap_ends(cset, ordering, k, 1)
    Q = _prefix(cset, ordering, k - 1)[2]
    return (pk / tk - pk1 / tk1) * float(Q[k - 1]) * tk * tk1


def general_swap_excess(cset: CandidateSet, ordering: Ordering, k: int, n: int) -> ExcessReport:
    """Exact penalty of swapping positions k and k+n via the q-decomposition.

        q1 = T_{k-1} Q_{k-1} (p_{k+n} - p_k) + Q_{k-1} (t_{k+n} p_{k+n} - t_k p_k)
        q2 = sum_{l=k+1}^{k+n-1} Q_{l-1} p_l ( T_l (p_k - p_{k+n}) / (1 - p_k)
                                  + (t_{k+n} - t_k)(1 - p_{k+n}) / (1 - p_k) )
        q3 = T_{k+n} Q_{k+n-1} (p_k - p_{k+n}) / (1 - p_k)

    q2 and q3 divide by (1 - p_k), so p_k = 1 is singular; use
    exact_excess_direct for that case.
    """
    pk, pkn, tk, tkn = _swap_ends(cset, ordering, k, n)
    if pk == 1.0:
        raise SingularityError(
            f"p=1 at position k={k}: the q-decomposition divides by (1 - p_k); "
            "use exact_excess_direct instead"
        )
    p, T, Q, live = _prefix(cset, ordering, k + n)
    # A term whose Q is exactly 0 is a signed 0 wherever T is finite: T reads
    # as 1.0 beside it in q1 and q3, and q2 stops at the first l with
    # Q_{l-1} = 0 and skips p_l = 0, so a T that overflowed cannot make nan.
    Q_k1, Q_kn1 = float(Q[k - 1]), float(Q[k + n - 1])  # Q_{k-1}, Q_{k+n-1}
    T_k1 = float(T[k - 1]) if Q_k1 != 0.0 else 1.0  # T_{k-1}
    T_kn = float(T[k + n]) if Q_kn1 != 0.0 else 1.0  # T_{k+n}

    q1 = T_k1 * Q_k1 * (pkn - pk) + Q_k1 * (tkn * pkn - tk * pk)

    # The factors that do not depend on l, computed once; each rounds as it would per term.
    gap, keep = pk - pkn, 1.0 - pk
    shift = (tkn - tk) * (1.0 - pkn) / keep

    def q2_term(p_l, T_l, Q_l1):  # for l = k+1 .. k+n-1, floats or arrays alike
        return Q_l1 * p_l * (T_l * gap / keep + shift)

    stop = min(k + n - 1, max(k, live))  # Q_{l-1} > 0 for l - 1 < stop
    q2 = _terms_sum(q2_term, p[k + 1:stop + 1], T[k + 1:stop + 1], Q[k:stop])
    q3 = T_kn * Q_kn1 * gap / keep

    return ExcessReport(k, n, q1, q2, q3, q1 + q2 + q3, "q-decomposition")


def equal_p_swap_excess(
    cset: CandidateSet,
    ordering: Ordering,
    k: int,
    n: int,
    use_paper_variant: bool = False,
) -> float:
    """Swap penalty when every candidate shares one success probability p.

    Default (corrected) form:

        (t_{k+n} - t_k) * (1-p)^(k-1) * (1 - (1-p)^n)

    ``use_paper_variant=True`` returns the formula as printed in the
    literature, (t_{k+n} - t_k) * (1-p)^(k-1) * (1 + (1-p) - (1-p)^n), which
    drops a factor p from its own q1 term and overshoots the true penalty by
    exactly (t_{k+n} - t_k) * (1-p)^k; it is kept only for comparison
    reporting (see README, Errata).
    """
    _, _, tk, tkn = _swap_ends(cset, ordering, k, n)
    spread = _spread(cset.ps)
    if spread is not None:
        p_lo, p_hi = spread
        raise AssumptionError(
            f"candidate probabilities are not all equal (spread {p_hi - p_lo:.3e})"
        )
    p = cset.ps[0]
    if not 0.0 < p < 1.0:
        raise AssumptionError(f"shared probability p={p} must lie strictly inside (0, 1)")
    q = 1.0 - p
    base = (tkn - tk) * q ** (k - 1)
    if use_paper_variant:
        return base * (1.0 + q - q**n)
    return base * (1.0 - q**n)
