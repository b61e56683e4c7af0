"""Independent ground truth: re-exports of the simulator, the search and the checks.

Monte Carlo (module montecarlo), the exact optimum search (module search)
and the randomized checks (module checks) need no numpy; their public names
are re-exported here, each module loaded on first use of one of its names.
What stays here is simulate's numpy route, _numpy_chunks.  numpy is imported
at module level, so importing this module loads it: a process analysing
large sets imports it for that, as once numpy is loaded, model takes the
array path over model._ARRAY_MIN_N or more positions (_numpy_for).
"""

from __future__ import annotations

import numpy as np

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


_SIM_BLOCK = 1 << 16  # success draws per block of rows, at most (one row at least)


def _numpy_chunks(ps: list, samples: list, seed):
    """The numpy route: ``chunk(i, m)`` draws chunk i's m trials from Philox(seed).jumped(i)."""
    p = np.array(ps)
    arrays = [np.asarray(t, dtype=float) for t in samples]
    return lambda i, m: _simulate_chunk(
        np.random.Generator(np.random.Philox(seed).jumped(i)), p, arrays, m)


def _simulate_chunk(g: np.random.Generator, p: np.ndarray, samples: list, m: int):
    """(time sum, squared-time sum, successes) of m trials; keeps no m x N array.

    The success events are drawn a block of rows at a time; g.random fills
    row-major, so the blocks draw what one (m, N) call would.  The time
    indices are then drawn column by column, and each trial's total is the
    running sum at its last attempt: the left-to-right additions of a cumsum
    along the row, without its m x N matrix.
    """
    N = len(samples)
    attempts = np.empty(m, dtype=np.intp)  # position of each trial's last attempt
    wins = 0
    block = max(1, _SIM_BLOCK // N)
    for start in range(0, m, block):
        success = g.random((min(block, m - start), N)) < p
        hit = success.any(axis=1)
        wins += int(np.count_nonzero(hit))
        attempts[start:start + len(hit)] = np.where(hit, success.argmax(axis=1) + 1, N)
    # Trials by last attempt: those stopping at position j + 1 are by_end[ends[j]:ends[j + 1]].
    by_end = np.argsort(attempts)
    ends = np.bincount(attempts, minlength=N + 1).cumsum()
    run = np.zeros(m)
    totals = np.empty(m)
    with np.errstate(over="ignore"):  # sums may overflow to inf; the CLI refuses such a result
        for j in range(N):
            if len(samples[j]) == 1:
                run += samples[j][0]
            else:
                run += samples[j][g.integers(0, len(samples[j]), size=m)]
            done = by_end[ends[j]:ends[j + 1]]
            totals[done] = run[done]
        return float(totals.sum()), float((totals * totals).sum()), wins
