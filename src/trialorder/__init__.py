"""trialorder: optimal candidate ordering, exact swap penalties, verified bounds.

Given solution candidates with success probabilities and observed execution
times, this package computes the order that minimizes the expected time to
the first success (descending p / mean-time ratio), the exact expected
solving time of any order, the exact expected-time penalty of transposing
two candidates, and closed-form bounds on that penalty — each formula
cross-validated against exact-search and Monte Carlo oracles.
"""

__version__ = "0.1.0"

# Every public name, in __all__'s order, with the submodule that exports it.
# A name is imported on first use, so `import trialorder` loads no submodule
# and a command loads only what it runs; the oracle, which needs numpy, stays
# unloaded until simulate or SimulationResult is used.
_EXPORTS = (
    ("errors", ("AssumptionError", "SingularityError")),
    ("model", ("Candidate", "CandidateSet", "Ordering", "ValidationReport", "Violation",
               "mean_time", "ratio", "validate")),
    ("schedule", ("ExpectationOptions", "solomonoff_order", "expected_time", "is_ratio_sorted",
                  "failure_tail_term")),
    ("excess", ("ExcessReport", "exact_excess_direct", "adjacent_swap_excess",
                "general_swap_excess", "equal_p_swap_excess")),
    ("bounds", ("BoundAssumptions", "BoundResult", "product_upper_bound_kn",
                "product_lower_bound_wu", "weighted_geometric_sum", "adjacent_excess_bounds",
                "swap_excess_upper_general", "swap_excess_lower_general",
                "swap_excess_upper_equal_t", "swap_excess_lower_equal_t", "check_assumptions")),
    ("oracle", ("SimulationResult",)),
    ("search", ("BruteForceResult", "brute_force_best_order")),
    ("oracle", ("simulate",)),
    ("checks", ("VerificationConfig", "VerificationReport", "CheckStats", "verify_bounds_random")),
)
_LAZY = {name: module for module, names in _EXPORTS for name in names}
_MODULES = frozenset(_LAZY.values())

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    import importlib

    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _MODULES:  # a submodule, as `trialorder.bounds`
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys() | _MODULES)
