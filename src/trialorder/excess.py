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

from dataclasses import dataclass

from .errors import AssumptionError, SingularityError
from .model import CandidateSet, Ordering, _check_compatible, _prefix
from .schedule import expected_time

__all__ = [
    "ExcessReport",
    "exact_excess_direct",
    "adjacent_swap_excess",
    "general_swap_excess",
    "equal_p_swap_excess",
]

EQUAL_P_REL_TOL = 1e-12


@dataclass(frozen=True)
class ExcessReport:
    """Signed swap penalty with its q1/q2/q3 decomposition.

    ``total == q1 + q2 + q3`` whenever ``method`` is the general
    decomposition; positive total means the swap makes things worse.
    """

    k: int
    n: int
    q1: float
    q2: float
    q3: float
    total: float
    method: str


def _swap_ends(cset: CandidateSet, ordering: Ordering, k: int, n: int) -> tuple[int, int]:
    """Candidate indices at positions k and k+n of a valid swap, else ValueError.

    The one gate of every swap function here and in the bounds module: the
    ordering must fit the set, then n >= 1, then 1 <= k and k + n <= N.
    """
    _check_compatible(cset, ordering)
    if n < 1:
        raise ValueError(f"swap distance n={n} must be >= 1")
    if k < 1 or k + n > cset.N:
        raise ValueError(f"swap positions k={k}, k+n={k + n} out of range 1..{cset.N}")
    return ordering[k - 1], ordering[k + n - 1]


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
    _swap_ends(cset, ordering, k, 1)
    p, t, _, Q = _prefix(cset, ordering, k + 1)
    return (p[k] / t[k] - p[k + 1] / t[k + 1]) * Q[k - 1] * t[k] * t[k + 1]


def general_swap_excess(cset: CandidateSet, ordering: Ordering, k: int, n: int) -> ExcessReport:
    """Exact penalty of swapping positions k and k+n via the q-decomposition.

        q1 = T_{k-1} Q_{k-1} (p_{k+n} - p_k) + Q_{k-1} (t_{k+n} p_{k+n} - t_k p_k)
        q2 = sum_{l=k+1}^{k+n-1} Q_{l-1} p_l ( T_l (p_k - p_{k+n}) / (1 - p_k)
                                  + (t_{k+n} - t_k)(1 - p_{k+n}) / (1 - p_k) )
        q3 = T_{k+n} Q_{k+n-1} (p_k - p_{k+n}) / (1 - p_k)

    q2 and q3 divide by (1 - p_k), so p_k = 1 is singular; use
    exact_excess_direct for that case.
    """
    i, _ = _swap_ends(cset, ordering, k, n)
    if cset.ps[i] == 1.0:
        raise SingularityError(
            f"p=1 at position k={k}: the q-decomposition divides by (1 - p_k); "
            "use exact_excess_direct instead"
        )
    p, t, T, Q = _prefix(cset, ordering, k + n)
    pk, pkn = p[k], p[k + n]
    tk, tkn = t[k], t[k + n]

    q1 = T[k - 1] * Q[k - 1] * (pkn - pk) + Q[k - 1] * (tkn * pkn - tk * pk)
    q2 = 0.0
    for l in range(k + 1, k + n):
        q2 += Q[l - 1] * p[l] * (
            T[l] * (pk - pkn) / (1.0 - pk) + (tkn - tk) * (1.0 - pkn) / (1.0 - pk)
        )
    q3 = T[k + n] * Q[k + n - 1] * (pk - pkn) / (1.0 - pk)

    return ExcessReport(k=k, n=n, q1=q1, q2=q2, q3=q3, total=q1 + q2 + q3,
                        method="q-decomposition")


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
    i, j = _swap_ends(cset, ordering, k, n)
    ps = cset.ps
    p_lo, p_hi = min(ps), max(ps)
    if p_hi - p_lo > EQUAL_P_REL_TOL * max(1.0, p_hi):
        raise AssumptionError(
            f"candidate probabilities are not all equal (spread {p_hi - p_lo:.3e})"
        )
    p = ps[0]
    if not 0.0 < p < 1.0:
        raise AssumptionError(f"shared probability p={p} must lie strictly inside (0, 1)")
    q = 1.0 - p
    base = (cset.ts[j] - cset.ts[i]) * q ** (k - 1)
    if use_paper_variant:
        return base * (1.0 + q - q**n)
    return base * (1.0 - q**n)
