"""The benchmark's own reference values, computed without the trialorder package.

Each function restates a quantity from the paper in plain Python, in a form
other than the one the library uses, so that a wrong library result is caught
even when the library agrees with itself:

* the order sorts by p/t descending, ties kept in input order;
* E = sum_k t_k * Q_{k-1}, which includes the all-fail tail; the success-only
  variant is E - T_N * Q_N;
* the swap excess is the difference of two such E's;
* the optimum over all orders is an ``itertools`` enumeration.
"""

from __future__ import annotations

import itertools
import math


def mean_times(samples: list[list[float]]) -> list[float]:
    return [math.fsum(ts) / len(ts) for ts in samples]


def order(p: list[float], t: list[float]) -> list[int]:
    """Indices by p/t descending; ``sorted`` is stable, so ties keep input order."""
    return sorted(range(len(p)), key=lambda i: -(p[i] / t[i]))


def expected_time(p: list[float], t: list[float], perm, tail: bool = True) -> float:
    """E = sum_k t_k Q_{k-1} along ``perm``; without the tail, E - T_N Q_N."""
    total = 0.0
    T = 0.0
    Q = 1.0
    for i in perm:
        total += t[i] * Q
        T += t[i]
        Q *= 1.0 - p[i]
    return total if tail else total - T * Q


def swap_excess(p: list[float], t: list[float], perm, k: int, n: int) -> float:
    """E(order with 1-based positions k and k+n exchanged) - E(order)."""
    swapped = list(perm)
    swapped[k - 1], swapped[k + n - 1] = swapped[k + n - 1], swapped[k - 1]
    return expected_time(p, t, swapped) - expected_time(p, t, perm)


def optimum(p: list[float], t: list[float]) -> float:
    """Smallest E over every order, by enumeration; meant for N <= 8."""
    return min(expected_time(p, t, perm) for perm in itertools.permutations(range(len(p))))


def close(value, ref: float, rel: float, scale: float = 0.0) -> bool:
    """|value - ref| <= rel * max(|ref|, scale); ``scale`` sizes differences of E's."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and abs(value - ref) <= rel * max(abs(ref), scale))
