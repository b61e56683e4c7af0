"""Closed-form bounds on the swap penalty, with assumption checking.

Every bound here sandwiches the exact excess computed by the excess module,
*provided its assumptions hold*: probabilities confined to [c, d] with
c, d in (0, 1), times confined to [t_min, t_max], and for some bounds all
times equal or per-swap conditions (p_k >= p_{k+n}, t_k <= t_{k+n}).  When a
premise fails the value is still computed and returned with
``assumptions_ok=False`` — callers doing sensitivity analysis need the
number — but the sandwich guarantee lapses.

Building blocks (classical product inequalities, x_i in [0, 1]):

* Klamkin–Newman:  prod(1 - x_i) <= exp(-sum x_i)        (adopted non-strict;
  the strict form fails at sum = 0).
* Wu (n >= 2):     prod(1 - x_i) >= 1 - sum x_i + (n-1) * (prod x_i)^(n/(2n-2)).
* weighted geometric sum:  sum_{l=1..n} l r^l
                   = r/(1-r)^2 * (n r^(n+1) - (n+1) r^n + 1)   for r != 1.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import AssumptionError, SingularityError
from .excess import _swap_ends
from .model import (PROFILES, CandidateSet, Ordering, Violation, _label, _Record, _shown, _spread,
                    _sum)

__all__ = [
    "PROFILES",
    "BoundAssumptions",
    "BoundResult",
    "product_upper_bound_kn",
    "product_lower_bound_wu",
    "weighted_geometric_sum",
    "adjacent_excess_bounds",
    "swap_excess_upper_general",
    "swap_excess_lower_general",
    "swap_excess_upper_equal_t",
    "swap_excess_lower_equal_t",
    "check_assumptions",
]

class BoundAssumptions(_Record):
    """Probability band [c, d] and time band [t_min, t_max] a bound relies on.

    ``profile`` selects which premise set check_assumptions verifies:
    general-upper | general-lower | equal-t-upper | equal-t-lower | adjacent.
    """

    _fields = ("c", "d", "t_min", "t_max", "profile")

    def __init__(self, c: float, d: float, t_min: float = 0.0, t_max: float = math.inf,
                 profile: str = "general-upper") -> None:
        if not (0.0 < c <= d < 1.0):
            raise ValueError(f"need 0 < c <= d < 1, got c={_shown(c)}, d={_shown(d)}")
        if not 0.0 <= t_min <= t_max:
            raise ValueError(f"need 0 <= t_min <= t_max, got {_shown(t_min)}, {_shown(t_max)}")
        if t_max <= 0.0:
            raise ValueError(f"t_max must be positive, got {_shown(t_max)}")
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {_shown(profile)}; choose from {PROFILES}")
        super().__init__(c, d, t_min, t_max, profile)


class BoundResult(_Record):
    """Bound value(s) plus the A/B intermediates and the assumption audit.

    ``lower <= upper`` is guaranteed only when ``assumptions_ok`` and both
    sides are present.
    """

    _fields = ("lower", "upper", "A", "B", "violations")

    @property
    def assumptions_ok(self) -> bool:
        """True when no premise is violated."""
        return not self.violations


def _unit_sum(xs: Sequence[float]) -> float:
    """fsum(xs), once every x_i is known to lie in [0, 1]; else ValueError on the first that is not.

    min and max test the whole sequence at once, but they pass over a nan
    that is not first; the sum of numbers in [0, 1] is nan exactly when one
    of them is, so the sum is the guard.  Only when a test fails are the
    elements walked one by one, to name the first bad one.
    """
    if len(xs) and 0.0 <= min(xs) and max(xs) <= 1.0:
        total = math.fsum(xs)
        if total == total:
            return total
    for i, x in enumerate(xs):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"element {i} out of [0, 1]: {_shown(x)}")
    return math.fsum(xs)


def product_upper_bound_kn(xs: Sequence[float]) -> float:
    """Klamkin–Newman surrogate exp(-sum x_i) >= prod(1 - x_i), x_i in [0, 1].

    Equality at the empty/zero-sum boundary, hence the non-strict reading.
    """
    return math.exp(-_unit_sum(xs))


def product_lower_bound_wu(xs: Sequence[float]) -> float:
    """Wu surrogate 1 - sum x_i + (n-1) (prod x_i)^(n/(2n-2)) <= prod(1 - x_i).

    Defined for n >= 2 (the exponent needs 2n - 2 > 0); exact at n = 2.
    """
    n = len(xs)
    if n < 2:
        raise ValueError(f"needs at least 2 elements, got {n}")
    return _wu(xs, _unit_sum(xs))


def _wu(xs: Sequence[float], total: float) -> float:
    """The Wu surrogate of 2 or more x_i in [0, 1] whose fsum is ``total``."""
    n = len(xs)
    return 1.0 - total + (n - 1) * math.prod(xs) ** (n / (2 * n - 2))


def weighted_geometric_sum(r: float, n: int) -> float:
    """sum_{l=1..n} l * r^l in closed form, for any real r != 1.

    Near r = 1 the closed form cancels catastrophically, so within 1e-3 of 1
    the sum is evaluated directly (n is a small count in this package's use).
    """
    if r == 1.0:
        raise ValueError("r = 1 is outside the closed form's domain")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {_shown(n)}")
    if abs(1.0 - r) < 1e-3:
        return math.fsum(l * r**l for l in range(1, n + 1))
    return r / (1.0 - r) ** 2 * (n * r ** (n + 1) - (n + 1) * r**n + 1.0)


# ps and ts hold no nan (the record rule admits none), so min and max settle
# a whole column at once; the element walk only runs to word a violation.
def _band_violations(cset: CandidateSet, a: BoundAssumptions) -> list[Violation]:
    if a.c <= min(cset.ps) and max(cset.ps) <= a.d:
        return []
    out, band = [], f"[{_shown(a.c)}, {_shown(a.d)}]"
    for c, p in zip(cset, cset.ps):
        if not a.c <= p <= a.d:
            out.append(Violation(_label(c.id), "p", f"probability {p} outside {band}"))
    return out


def _time_violations(cset: CandidateSet, t_min: float, t_max: float) -> list[Violation]:
    if t_min <= min(cset.ts) and max(cset.ts) <= t_max:
        return []
    out, above, below = [], f"above t_max={_shown(t_max)}", f"below t_min={_shown(t_min)}"
    for c, mt in zip(cset, cset.ts):
        if mt > t_max:
            out.append(Violation(_label(c.id), "times", f"mean time {mt} {above}"))
        if mt < t_min:
            out.append(Violation(_label(c.id), "times", f"mean time {mt} {below}"))
    return out


def _equal_time_violations(cset: CandidateSet) -> list[Violation]:
    spread = _spread(cset.ts)
    if spread is None:
        return []
    lo, hi = spread
    return [Violation("set", "times", f"mean times are not all equal (range {lo}..{hi})")]


def _premises(cset: CandidateSet, a: BoundAssumptions, profile: str) -> list[Violation]:
    """Every violated set-level premise of ``profile``: the p band, then times."""
    if profile == "adjacent":
        return []
    out = _band_violations(cset, a)
    if profile == "general-upper":
        out += _time_violations(cset, 0.0, a.t_max)  # no floor; mean times are > 0
    elif profile == "general-lower":
        out += _time_violations(cset, a.t_min, a.t_max)
    else:
        out += _equal_time_violations(cset)
    return out


def _p_order_violations(k: int, n: int, pk: float, pkn: float) -> list[Violation]:
    if pk < pkn:
        return [Violation(f"positions {k},{k + n}", "p",
                          f"needs p_k >= p_(k+n), got {pk} < {pkn}")]
    return []


def _prefix_ps(cset: CandidateSet, ordering: Ordering, k: int) -> list[float]:
    """p_1, ..., p_(k-1): the probabilities of the candidates tried before position k."""
    ps = cset.ps
    return [ps[i] for i in ordering.perm[:k - 1]]


def _prefix_sum(cset: CandidateSet, ordering: Ordering, k: int) -> float:
    """S_(k-1), added left to right from 0.0 (model._sum)."""
    return _sum(_prefix_ps(cset, ordering, k))


def _require_nonzero(name: str, divisor: float, a: BoundAssumptions, k: int) -> None:
    if divisor == 0.0:
        raise SingularityError(f"divisor {name} underflows to 0 at c={a.c}, d={a.d}, k={k}")


def check_assumptions(cset: CandidateSet, a: BoundAssumptions) -> tuple[Violation, ...]:
    """Every violated set-level premise of the selected profile.

    Swap-local premises (p_k >= p_{k+n}, t_k <= t_{k+n}, the adjacent ratio
    premise) depend on a position pair, so the bound evaluators check those
    and list them after this same set-level list for their own profile.

    Note the time band is checked on mean times, which this package requires
    to be strictly positive even where a bound's statement would admit t = 0.
    """
    return tuple(_premises(cset, a, a.profile))


def adjacent_excess_bounds(cset: CandidateSet, ordering: Ordering, k: int) -> BoundResult:
    """Sandwich for the adjacent-swap penalty at position k.

        upper = (ratio_k - ratio_{k+1}) t_k t_{k+1} exp(-S_{k-1})
        lower = (ratio_k - ratio_{k+1}) t_k t_{k+1} * W

    where W is the Wu surrogate of Q_{k-1} for k >= 3 and the exact Q_{k-1}
    for k = 1, 2 (the Wu form is undefined at prefix length 1 and trivial at
    0, and exactness dominates where available).  Both sides collapse to the
    exact penalty at k = 1.  Premise for the sandwich orientation:
    ratio_k >= ratio_{k+1}; if it fails, the values are still reported with
    ``assumptions_ok=False`` (the inequalities then flip sign).
    """
    pk, pk1, tk, tk1 = _swap_ends(cset, ordering, k, 1)
    ra, rb = pk / tk, pk1 / tk1
    delta = ra - rb
    violations: list[Violation] = []
    if delta < 0.0:
        violations.append(Violation(f"positions {k},{k + 1}", "ratio",
                                    f"ratio at k ({ra}) below ratio at k+1 ({rb})"))
    prefix_ps = _prefix_ps(cset, ordering, k)
    S = _unit_sum(prefix_ps)  # checked and summed once, for both surrogates
    scale = delta * tk * tk1
    upper = scale * math.exp(-S)  # Klamkin-Newman, as product_upper_bound_kn
    if k >= 3:
        lower = scale * _wu(prefix_ps, S)
    else:  # the exact Q_0 = 1 or Q_1 = 1 - p_1
        lower = scale * (1.0 - prefix_ps[0] if prefix_ps else 1.0)
    return BoundResult(lower, upper, None, None, tuple(violations))


def swap_excess_upper_general(
    cset: CandidateSet, ordering: Ordering, k: int, n: int, a: BoundAssumptions
) -> BoundResult:
    """General upper bound on the k <-> k+n swap penalty.

        EXC <= T * (1-p_{k+n})/(1-p_k) * (d/c) * (1-c)^k * (A - B (1-c)^(n-1))
        A = 1 + 1/c + k + (1-p_k)/(1-p_{k+n}) * ck/(1-c)
        B = (1 - c/d)(k + n) + 1/c

    with T = t_max.  Premises: c <= p_i <= d and mean times <= t_max.  The
    bound's usual statement admits t_i = 0; this package requires t > 0, a
    strictly smaller input class, so nothing extra is checked there.
    """
    pk, pkn, _, _ = _swap_ends(cset, ordering, k, n)
    if pk == 1.0 or pkn == 1.0:
        raise SingularityError("p=1 at a swap endpoint makes the bound singular")
    violations = _premises(cset, a, "general-upper")
    c, d, T = a.c, a.d, a.t_max
    A = 1.0 + 1.0 / c + k + ((1.0 - pk) / (1.0 - pkn)) * c * k / (1.0 - c)
    B = (1.0 - c / d) * (k + n) + 1.0 / c
    upper = (
        T * ((1.0 - pkn) / (1.0 - pk)) * (d / c) * (1.0 - c) ** k
        * (A - B * (1.0 - c) ** (n - 1))
    )
    return BoundResult(None, upper, A, B, tuple(violations))


def swap_excess_lower_general(
    cset: CandidateSet,
    ordering: Ordering,
    k: int,
    n: int,
    a: BoundAssumptions,
    use_paper_variant: bool = False,
) -> BoundResult:
    """General lower bound on the k <-> k+n swap penalty.

        EXC >= t * (p_k-p_{k+n})/(1-p_k) * (c/d) * (1-d)^k * (A - B (1-d)^(n-1))
        A = 1/d + k + (1-p_k)/(p_k-p_{k+n}) * dk * (1/(1-d) - f * e^{-S_{k-1}}/(1-d)^k)
        B = (1 - d/c)(k + n) + (1-d)/d

    with t = t_min, T = t_max and, in the corrected default, f = dT/(ct).
    The formula as printed in the literature has f = dt/(cT); that version
    provably overshoots (it is not a lower bound — see README, Errata) and is
    kept behind ``use_paper_variant`` for comparison only.

    Premises: c <= p_i <= d, t_min <= mean times <= t_max, p_k >= p_{k+n}
    and t_k <= t_{k+n}.  The A-term divides by p_k - p_{k+n}; when the
    difference is zero the prefactor cancels it, and the implementation
    evaluates the cancelled (distributed) form, which is also exact for
    t_min = 0.  A is None when not finitely evaluable: p_k = p_{k+n}, or
    c * t_min or (1-d)^k is 0 (t_min = 0, or an underflow).
    """
    pk, pkn, tk, tkn = _swap_ends(cset, ordering, k, n)
    if pk == 1.0:
        raise SingularityError("p=1 at position k makes the bound singular")
    violations = _premises(cset, a, "general-lower") + _p_order_violations(k, n, pk, pkn)
    if tk > tkn:
        violations.append(Violation(f"positions {k},{k + n}", "times",
                                    f"needs t_k <= t_(k+n), got {tk} > {tkn}"))

    c, d, t, T = a.c, a.d, a.t_min, a.t_max
    dp = pk - pkn
    es = math.exp(-_prefix_sum(cset, ordering, k))
    A0 = 1.0 / d + k
    B = (1.0 - d / c) * (k + n) + (1.0 - d) / d
    pref = t * (dp / (1.0 - pk)) * (c / d) * (1.0 - d) ** k
    # The A-term's dp-divergence cancels against the prefactor; evaluate the
    # product directly so p_k = p_{k+n} and t_min = 0 stay finite.
    if use_paper_variant:
        exp_piece = k * d * (t * t / T) * es
    else:
        exp_piece = k * d * T * es
    lower = (
        pref * (A0 - B * (1.0 - d) ** (n - 1))
        + t * c * k * (1.0 - d) ** (k - 1)
        - exp_piece
    )
    A: float | None = None
    if dp > 0.0 and c * t > 0.0 and (1.0 - d) ** k > 0.0:
        f = (d * t) / (c * T) if use_paper_variant else (d * T) / (c * t)
        A = A0 + ((1.0 - pk) / dp) * d * k * (1.0 / (1.0 - d) - f * es / (1.0 - d) ** k)
    return BoundResult(lower, None, A, B, tuple(violations))


def _common_mean_time(cset: CandidateSet) -> float:
    problems = _equal_time_violations(cset)
    if problems:
        raise AssumptionError(str(problems[0]))
    return math.fsum(cset.ts) / cset.N


def swap_excess_upper_equal_t(
    cset: CandidateSet, ordering: Ordering, k: int, n: int, a: BoundAssumptions
) -> BoundResult:
    """Upper bound on the swap penalty when every mean time equals T.

        EXC <= T d (p_k-p_{k+n})/(1-p_k) * (1-c)^k / c^2 * (A - B (1-c)^(n-1))
        A = 1 + kc [1 - (1-p_k)/(1-c) * (c/d) * ((1-d)/(1-c))^(k-1)]
        B = 1 - c + c(n+k)(1 - c/d)

    Premises: equal mean times (within 1e-12 relative — enforced, unequal
    times raise AssumptionError), c <= p_i <= d, and p_k >= p_{k+n} (with
    equal times a ratio-sorted order gives that for free).  p_k = 1 or an
    underflow of c^2 to 0 raises SingularityError.
    """
    pk, pkn, _, _ = _swap_ends(cset, ordering, k, n)
    T = _common_mean_time(cset)
    if pk == 1.0:
        raise SingularityError("p=1 at position k makes the bound singular")
    violations = _premises(cset, a, "equal-t-upper") + _p_order_violations(k, n, pk, pkn)
    c, d = a.c, a.d
    _require_nonzero("c^2", c**2, a, k)
    A = 1.0 + k * c * (
        1.0 - ((1.0 - pk) / (1.0 - c)) * (c / d) * ((1.0 - d) / (1.0 - c)) ** (k - 1)
    )
    B = 1.0 - c + c * (n + k) * (1.0 - c / d)
    upper = (
        T * d * ((pk - pkn) / (1.0 - pk)) * ((1.0 - c) ** k / c**2)
        * (A - B * (1.0 - c) ** (n - 1))
    )
    return BoundResult(None, upper, A, B, tuple(violations))


def swap_excess_lower_equal_t(
    cset: CandidateSet, ordering: Ordering, k: int, n: int, a: BoundAssumptions
) -> BoundResult:
    """Lower bound on the swap penalty when every mean time equals T.

        EXC >= T c (p_k-p_{k+n})/(1-p_k) * (1-d)^k / d^2 * (A - B (1-d)^(n-1))
        A = 1 + kd [1 - (1-p_k)/(1-d) * (d/c) * e^{-S_{k-1}} / (1-d)^(k-1)]
        B = 1 - d + d(n+k)(1 - d/c)

    Same premises as the equal-time upper bound.  p_k = 1 or an underflow of
    (1-d)^(k-1) or d^2 to 0 raises SingularityError.
    """
    pk, pkn, _, _ = _swap_ends(cset, ordering, k, n)
    T = _common_mean_time(cset)
    if pk == 1.0:
        raise SingularityError("p=1 at position k makes the bound singular")
    violations = _premises(cset, a, "equal-t-lower") + _p_order_violations(k, n, pk, pkn)
    c, d = a.c, a.d
    _require_nonzero("(1-d)^(k-1)", (1.0 - d) ** (k - 1), a, k)
    _require_nonzero("d^2", d**2, a, k)
    es = math.exp(-_prefix_sum(cset, ordering, k))
    A = 1.0 + k * d * (
        1.0 - ((1.0 - pk) / (1.0 - d)) * (d / c) * es / (1.0 - d) ** (k - 1)
    )
    B = 1.0 - d + d * (n + k) * (1.0 - d / c)
    lower = (
        T * c * ((pk - pkn) / (1.0 - pk)) * ((1.0 - d) ** k / d**2)
        * (A - B * (1.0 - d) ** (n - 1))
    )
    return BoundResult(lower, None, A, B, tuple(violations))
