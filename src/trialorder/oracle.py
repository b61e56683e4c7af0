"""Independent ground truth: re-exports of the simulator, the search and the checks.

Monte Carlo (module montecarlo), the exact optimum search (module search)
and the randomized checks (module checks) are re-exported here, each module
loaded on first use of one of its names.  numpy is imported at module level,
so importing this module loads it: a process analysing large sets imports it
for that, as once numpy is loaded, model takes the array path over
model._ARRAY_MIN_N or more positions (_numpy_for).
"""

import numpy  # noqa: F401 (loaded for model's array path, as the docstring says)

from .model import MAX_BRUTE_FORCE_N

__all__ = ["MAX_BRUTE_FORCE_N", "SimulationResult", "BruteForceResult", "brute_force_best_order",
           "simulate", "VerificationConfig", "CheckStats", "VerificationReport",
           "verify_bounds_random"]


def __getattr__(name: str):
    # The simulator's, the search's and the checks' names: the package root
    # loads each from the module its _EXPORTS names, on first use.
    import importlib

    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(__package__), name)
    globals()[name] = value
    return value
