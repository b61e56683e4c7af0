"""Independent ground truth: Monte Carlo, and re-exports of the exact search and the checks.

simulate estimates the expected solving time by Monte Carlo on numpy.  The
exact optimum search (module search) and the randomized verification of the
closed forms (module checks) need no numpy and live in their own modules, so
that `verify-optimal` and `check` run without it; their public names are
re-exported here, each module loaded on first use of one of its names, so
that `simulate` loads neither.  numpy is imported at module level: simulate
draws with it, and once it is loaded, walks of model._ARRAY_MIN_N or more
positions take the array path (model._numpy_for).

Determinism contract: results are a pure function of their arguments.  The
simulator partitions trials into chunks sized by N alone, each driven by its
own Philox counter-based substream derived from the seed, so the outcome
does not depend on execution order and is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CandidateSet, Ordering, _check_compatible, _Record

__all__ = [
    "MAX_BRUTE_FORCE_N",
    "SimulationResult",
    "BruteForceResult",
    "brute_force_best_order",
    "simulate",
    "VerificationConfig",
    "CheckStats",
    "VerificationReport",
    "verify_bounds_random",
]

_REEXPORTS = {
    **dict.fromkeys(("MAX_BRUTE_FORCE_N", "BruteForceResult", "brute_force_best_order"),
                    "search"),
    **dict.fromkeys(("VerificationConfig", "CheckStats", "VerificationReport",
                     "verify_bounds_random"), "checks"),
}


def __getattr__(name: str):
    import importlib

    if name not in _REEXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_REEXPORTS[name]}", __package__), name)
    globals()[name] = value
    return value


_SIM_CHUNK = 1 << 16  # trials per chunk, at most
_SIM_CELLS = 1 << 22  # trials x candidates per chunk, at most


class SimulationResult(_Record):
    """Monte Carlo estimate of the expected solving time for one ordering."""

    _fields = ("trials", "mean_time", "std_error", "success_rate", "seed", "generator")

    def __init__(self, trials: int, mean_time: float, std_error: float, success_rate: float,
                 seed: int, generator: str = "philox") -> None:
        self.__dict__.update(trials=trials, mean_time=mean_time, std_error=std_error,
                             success_rate=success_rate, seed=seed, generator=generator)


def _simulate_chunk(g: np.random.Generator, p: np.ndarray, samples: list, m: int):
    """(time sum, squared-time sum, successes) of m trials; frees its arrays on return."""
    N = len(samples)
    success = g.random((m, N)) < p
    tdraw = np.empty((m, N))
    for j in range(N):
        if len(samples[j]) == 1:
            tdraw[:, j] = samples[j][0]
        else:
            tdraw[:, j] = samples[j][g.integers(0, len(samples[j]), size=m)]
    any_success = success.any(axis=1)
    attempts = np.where(any_success, success.argmax(axis=1) + 1, N)
    with np.errstate(over="ignore"):  # sums may overflow to inf; the CLI refuses such a result
        cum = np.cumsum(tdraw, axis=1)
        totals = np.take_along_axis(cum, (attempts - 1)[:, None], axis=1)[:, 0]
        return float(totals.sum()), float((totals * totals).sum()), int(any_success.sum())


def simulate(cset: CandidateSet, ordering: Ordering, trials: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of the expected solving time along ``ordering``.

    Per trial: walk the ordering, draw an independent success event with each
    candidate's probability, draw that attempt's execution time uniformly
    from the candidate's observed samples, and accumulate time until the
    first success or exhaustion (the failure tail is therefore included).
    """
    _check_compatible(cset, ordering)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ordered = [cset[i] for i in ordering.perm]
    N = len(ordered)
    p = np.array([c.p for c in ordered])
    samples = [np.asarray(c.time_samples, dtype=float) for c in ordered]

    time_sum = time_sqsum = 0.0
    wins = 0
    rows = max(1, min(_SIM_CHUNK, _SIM_CELLS // N))  # 65,536 up to N = 64
    for chunk_index in range((trials + rows - 1) // rows):
        m = min(rows, trials - chunk_index * rows)
        # Every chunk jumps a fresh Philox(seed), so no chunk's stream depends
        # on how many numbers another chunk drew; jumped(0) is Philox(seed).
        g = np.random.Generator(np.random.Philox(seed).jumped(chunk_index))
        chunk_sum, chunk_sqsum, chunk_wins = _simulate_chunk(g, p, samples, m)
        time_sum += chunk_sum
        time_sqsum += chunk_sqsum
        wins += chunk_wins

    mean = time_sum / trials
    if trials > 1:
        var = max(0.0, (time_sqsum - trials * mean * mean) / (trials - 1))
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    return SimulationResult(
        trials=trials,
        mean_time=mean,
        std_error=std_error,
        success_rate=wins / trials,
        seed=seed,
    )
