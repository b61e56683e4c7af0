"""Independent ground truth: Monte Carlo, and re-exports of the exact search and the checks.

simulate estimates the expected solving time by Monte Carlo on numpy.  The
exact optimum search (module search) and the randomized verification of the
closed forms (module checks) need no numpy and live in their own modules, so
that `verify-optimal` and `check` run without it; their public names are
re-exported here, each module loaded on first use of one of its names, so
that `simulate` loads neither.  numpy is imported at module level: simulate
draws with it, and once it is loaded, model alone takes the array path for a
walk or a ratio sort over model._ARRAY_MIN_N or more positions (_numpy_for).

Determinism contract: results are a pure function of their arguments.  The
simulator partitions trials into chunks sized by N alone, each driven by its
own Philox counter-based substream derived from the seed, so the outcome
does not depend on execution order and is bit-reproducible for a fixed seed.
The chunk sizes define that partition and nothing else, so changing them
changes every report; a chunk works in memory linear in its rows at any N.
"""

from __future__ import annotations

import math

import numpy as np

from .model import MAX_BRUTE_FORCE_N, CandidateSet, Ordering, _check_compatible, _Record, _shown

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


def __getattr__(name: str):
    # The search's and the checks' names: the package root loads each from
    # the module its _EXPORTS names, on first use.
    import importlib

    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(__package__), name)
    globals()[name] = value
    return value


# Together these partition the trials into chunks, one Philox substream each:
# changing either changes every report.  They bound no array's size.
_SIM_CHUNK = 1 << 16  # trials per chunk, at most
_SIM_CELLS = 1 << 22  # trials x candidates per chunk, at most

_SIM_BLOCK = 1 << 16  # success draws per block of rows, at most (one row at least)


class SimulationResult(_Record):
    """Monte Carlo estimate of the expected solving time for one ordering."""

    _fields = ("trials", "mean_time", "std_error", "success_rate", "seed", "generator")
    generator = "philox"


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


def simulate(cset: CandidateSet, ordering: Ordering, trials: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of the expected solving time along ``ordering``.

    Per trial: walk the ordering, draw an independent success event with each
    candidate's probability, draw that attempt's execution time uniformly
    from the candidate's observed samples, and accumulate time until the
    first success or exhaustion (the failure tail is therefore included).
    """
    _check_compatible(cset, ordering)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {_shown(trials)}")
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
    std_error = 0.0  # of one trial
    if trials > 1:
        var = (time_sqsum - trials * mean * mean) / (trials - 1)
        # Where the squares or the mean overflow, var is inf - inf = nan, and
        # stays so for the CLI to refuse; only a var that rounded to <= 0 reads as 0.
        std_error = 0.0 if var <= 0.0 else math.sqrt(var / trials)
    return SimulationResult(
        trials=trials,
        mean_time=mean,
        std_error=std_error,
        success_rate=wins / trials,
        seed=seed,
    )
