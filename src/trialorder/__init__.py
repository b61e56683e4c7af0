"""trialorder: optimal candidate ordering, exact swap penalties, verified bounds.

Given solution candidates with success probabilities and observed execution
times, this package computes the order that minimizes the expected time to
the first success (descending p / mean-time ratio), the exact expected
solving time of any order, the exact expected-time penalty of transposing
two candidates, and closed-form bounds on that penalty — each formula
cross-validated against exact-search and Monte Carlo oracles.
"""

__version__ = "0.1.0"

from .errors import AssumptionError, SingularityError
from .model import (
    Candidate,
    CandidateSet,
    Ordering,
    ValidationReport,
    Violation,
    mean_time,
    ratio,
    validate,
)
from .schedule import (
    ExpectationOptions,
    expected_time,
    failure_tail_term,
    is_ratio_sorted,
    solomonoff_order,
)
from .excess import (
    ExcessReport,
    adjacent_swap_excess,
    equal_p_swap_excess,
    exact_excess_direct,
    general_swap_excess,
)
from .bounds import (
    BoundAssumptions,
    BoundResult,
    adjacent_excess_bounds,
    check_assumptions,
    product_lower_bound_wu,
    product_upper_bound_kn,
    swap_excess_lower_equal_t,
    swap_excess_lower_general,
    swap_excess_upper_equal_t,
    swap_excess_upper_general,
    weighted_geometric_sum,
)

# The oracles need numpy; load them on first use so that importing the
# package, or running a CLI command that never calls them, does not.
_ORACLE_NAMES = frozenset({
    "BruteForceResult",
    "CheckStats",
    "SimulationResult",
    "VerificationConfig",
    "VerificationReport",
    "brute_force_best_order",
    "simulate",
    "verify_bounds_random",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "AssumptionError",
    "SingularityError",
    "Candidate",
    "CandidateSet",
    "Ordering",
    "ValidationReport",
    "Violation",
    "mean_time",
    "ratio",
    "validate",
    "ExpectationOptions",
    "solomonoff_order",
    "expected_time",
    "is_ratio_sorted",
    "failure_tail_term",
    "ExcessReport",
    "exact_excess_direct",
    "adjacent_swap_excess",
    "general_swap_excess",
    "equal_p_swap_excess",
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
    "SimulationResult",
    "BruteForceResult",
    "brute_force_best_order",
    "simulate",
    "VerificationConfig",
    "VerificationReport",
    "CheckStats",
    "verify_bounds_random",
]
