"""Monte Carlo estimate of the expected solving time, drawn with numpy or without it.

Chunk i of a run's trials draws from ``Philox(seed).jumped(i)`` by one of two
routes that return the same bits: numpy's Generator (_numpy_chunks), or the
same raw words computed in plain Python by streams._philox and read by numpy's
rules (_plain_chunks).  _route picks one, and imports numpy only for the numpy
route, so a command-line `simulate` of a usual size runs without it.  Both work
a block of at most _SIM_BLOCK success draws at a time: O(rows) memory a chunk.

Determinism contract: results are a pure function of their arguments.  Each
chunk is its own substream of the seed, so the outcome does not depend on
execution order; the chunk sizes define the partition, and changing them
changes every report.
"""

from __future__ import annotations

import math
import sys
from array import array
from contextlib import suppress
from itertools import compress

from .model import CandidateSet, Ordering, _check_compatible, _pairwise_sum, _Record, _shown
from .streams import _indices, _le, _philox, _seed_words

__all__ = ["SimulationResult", "simulate"]

# Together these partition the trials into chunks, one Philox substream each:
# changing either changes every report.  They bound no array's size; _SIM_BLOCK does.
_SIM_CHUNK = 1 << 16  # trials per chunk, at most
_SIM_CELLS = 1 << 22  # trials x candidates per chunk, at most
_SIM_BLOCK = 1 << 16  # success draws per block of rows, at most (one row at least)

# Trials x candidates up to which the plain route runs where numpy is not yet loaded:
# where its time meets numpy's import cost.  On a 2-core x86-64 machine, CPython 3.11,
# one BLAS thread, N = 8, it took about 0.3 us a cell and importing numpy 65 ms, so
# cold runs of the two routes took the same time near 2.3 x 10^5 cells.
_PLAIN_MAX_CELLS = 200_000
# The most trials a run takes: about 3 minutes at N = 8 on the numpy route (19 ms per 10^5
# trials on a 2-core x86-64 machine, CPython 3.11, one BLAS thread).
_MAX_TRIALS = 10**9


class SimulationResult(_Record):
    """Monte Carlo estimate of the expected solving time for one ordering."""

    _fields = ("trials", "mean_time", "std_error", "success_rate", "seed", "generator")
    generator = "philox"


def _numpy_chunks(ps: list, samples: list, seed):
    """The numpy route: ``chunk(i, m)`` draws chunk i's m trials from Philox(seed).jumped(i)."""
    np = sys.modules["numpy"]
    p, arrays = np.array(ps), [np.asarray(t, dtype=float) for t in samples]
    return lambda i, m: _simulate_chunk(
        np.random.Generator(np.random.Philox(seed).jumped(i)), p, arrays, m)


def _simulate_chunk(g, p, samples: list, m: int):
    """(time sum, squared-time sum, successes) of m trials; keeps no m x N array.

    The success events are drawn a block of rows at a time; g.random fills
    row-major, so the blocks draw what one (m, N) call would.  The time
    indices are then drawn column by column, and each trial's total is the
    running sum at its last attempt: the left-to-right additions of a cumsum
    along the row, without its m x N matrix.
    """
    np = sys.modules["numpy"]
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


def _plain_chunks(ps: list, samples: list, seed):
    """The plain route: ``chunk(i, m)`` draws chunk i's m trials as _simulate_chunk does."""
    key = _seed_words(seed)[:2]  # Philox's key: SeedSequence(seed).generate_state(2, uint64)
    # numpy's success test (u >> 11) * 2**-53 < p, for the raw word u: p * 2**53 is exact.
    limits = [math.ceil(p * 9007199254740992.0) << 11 for p in ps]
    return lambda i, m: _plain_chunk(key, i, limits, samples, m)


def _plain_chunk(key, jump: int, limits: list, samples: list, m: int):
    """(time sum, squared-time sum, successes) of m trials from Philox(key).jumped(jump).

    g.random fills an (m, N) array row-major, so trial i's success draw at
    position j is word iN + j, a success below limits[j]; in each block of
    rows (_SIM_BLOCK) only the Philox blocks some trial reaches are computed.
    The time indices follow, column by column (streams._indices).  A trial's
    total adds its times left to right from 0.0, the totals and their squares
    in numpy's pairwise order.
    """
    N = len(samples)
    rows = max(1, _SIM_BLOCK // N)
    words = array("Q", bytes(8 * (min(rows, m) * N + 6 & -4)))  # a block's words, in place
    misses = [bytearray() for _ in limits]  # per position: whether each trial reaching it fails
    for start in range(0, m, rows):
        # Cell c of the block is word 4 * first + c: its trials' first cells start at skip.
        first, skip = divmod(start * N, 4)
        cells = list(range(skip, skip + min(rows, m - start) * N, N))  # each trial still failing
        for j, limit in enumerate(limits):
            # A new block holds the first cell of a trial, or a later cell 4-aligned.
            new = sorted({c >> 2 for c in cells}) if not j else [c >> 2 for c in cells if not c & 3]
            _fill(words, new, _philox(key, jump, [first + b for b in new]))
            misses[j] += (miss := bytes([limit <= words[c] for c in cells]))
            if not (cells := [c + 1 for c in compress(cells, miss)]):
                break  # every trial of the block has succeeded

    totals = [0.0] * m
    trials, run = list(range(m)), [0.0] * m  # the trials reaching a position, their running sums
    half = 2 * m * N  # the next 32-bit draw: the low half of word mN first
    for times, miss in zip(samples, misses):
        if len(times) == 1:
            run = [r + times[0] for r in run]
        else:
            index, half = _indices(key, jump, half, m, len(times))
            run = [r + times[index[i]] for r, i in zip(run, trials)]
        for i, t in zip(trials, run):  # a trial's last write is its total
            totals[i] = t
        trials, run = list(compress(trials, miss)), list(compress(run, miss))
    return _pairwise_sum(totals), _pairwise_sum([t * t for t in totals]), m - len(trials)


def _fill(words: array, blocks: list, data: bytes) -> None:
    """Write the blocks' raw words, ``data`` in ``blocks``' order, at 4b .. 4b + 3 of ``words``."""
    new, b0, n = _le(array("Q", data)), blocks[0] if blocks else 0, len(blocks)
    step = blocks[1] - b0 if n > 1 else 1
    if blocks == list(range(b0, b0 + step * n, step)):  # an even stride: one slice per word
        for w in range(4):
            words[4 * b0 + w:4 * (b0 + step * n):4 * step] = new[w::4]
    else:
        for k, b in enumerate(blocks):
            words[4 * b:4 * b + 4] = new[4 * k:4 * k + 4]


def _route(cells: int):
    """The chunk route for a run of ``cells`` trials x candidates (see the module docstring)."""
    if sys.modules.get("numpy") is not None or cells > _PLAIN_MAX_CELLS:
        with suppress(ImportError):  # numpy cannot be imported: the plain route at any size
            import numpy  # noqa: F401 (the numpy route reads it from sys.modules)
            return _numpy_chunks
    return _plain_chunks


def simulate(cset: CandidateSet, ordering: Ordering, trials: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of the expected solving time along ``ordering``.

    Per trial: walk the ordering, draw an independent success event with each
    candidate's probability, draw that attempt's execution time uniformly
    from the candidate's observed samples, and accumulate time until the
    first success or exhaustion (the failure tail is therefore included).
    ``trials`` is 1 to _MAX_TRIALS, ``seed`` a non-negative integer.
    """
    _check_compatible(cset, ordering)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {_shown(trials)}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be <= {_MAX_TRIALS}, got {_shown(trials)}")
    ordered = [cset[i] for i in ordering.perm]
    N = len(ordered)
    chunk = _route(trials * N)([c.p for c in ordered], [c.time_samples for c in ordered], seed)

    time_sum, time_sqsum, wins = 0.0, 0.0, 0
    rows = max(1, min(_SIM_CHUNK, _SIM_CELLS // N))  # 65,536 up to N = 64
    for chunk_index in range((trials + rows - 1) // rows):
        # Every chunk jumps a fresh Philox(seed), so no chunk's stream depends
        # on how many numbers another chunk drew; jumped(0) is Philox(seed).
        m = min(rows, trials - chunk_index * rows)
        chunk_sum, chunk_sqsum, chunk_wins = chunk(chunk_index, m)
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
    return SimulationResult(trials=trials, mean_time=mean, std_error=std_error,
                            success_rate=wins / trials, seed=seed)
