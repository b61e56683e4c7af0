"""Every exported name resolves: a deletion cannot leave an ``__all__`` entry dangling."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import trialorder

MODULES = ["trialorder"] + [f"trialorder.{m.name}"
                            for m in pkgutil.iter_modules(trialorder.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


def test_lazy_names_are_exported_by_their_modules():
    # Every public name resolves through the package's __getattr__, which
    # imports the one submodule its table names.
    assert set(trialorder._LAZY) == set(trialorder.__all__) - {"__version__"}
    for name, module in trialorder._LAZY.items():
        mod = importlib.import_module(f"trialorder.{module}")
        assert name in mod.__all__, (name, module)
        assert getattr(trialorder, name) is getattr(mod, name), (name, module)


def test_public_names_are_pinned():
    # Adding or deleting a public name is a contract change: it edits this list.
    assert trialorder.__all__ == [
        "__version__",
        "AssumptionError", "SingularityError",
        "Candidate", "CandidateSet", "Ordering", "ValidationReport", "Violation", "mean_time",
        "ratio", "validate",
        "ExpectationOptions", "solomonoff_order", "expected_time", "is_ratio_sorted",
        "failure_tail_term",
        "ExcessReport", "exact_excess_direct", "adjacent_swap_excess", "general_swap_excess",
        "equal_p_swap_excess",
        "BoundAssumptions", "BoundResult", "product_upper_bound_kn", "product_lower_bound_wu",
        "weighted_geometric_sum", "adjacent_excess_bounds", "swap_excess_upper_general",
        "swap_excess_lower_general", "swap_excess_upper_equal_t", "swap_excess_lower_equal_t",
        "check_assumptions",
        "SimulationResult", "BruteForceResult", "brute_force_best_order", "simulate",
        "VerificationConfig", "VerificationReport", "CheckStats", "verify_bounds_random",
    ]


def test_names_of_the_search_and_the_checks_are_the_oracles():
    # They moved out of oracle, which still exports them; the package root
    # takes them from the numpy-free modules, and they are the same objects.
    import trialorder.oracle

    for name in ("BruteForceResult", "brute_force_best_order", "VerificationConfig",
                 "VerificationReport", "CheckStats", "verify_bounds_random"):
        assert getattr(trialorder, name) is getattr(trialorder.oracle, name), name
