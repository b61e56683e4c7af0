"""Monte Carlo estimate of the expected solving time, drawn with numpy or without it.

Chunk i of a run's trials draws from ``Philox(seed).jumped(i)`` by one of two
routes that return the same bits: numpy's Generator (oracle._numpy_chunks), or
the same raw words computed in plain Python by streams._philox and read by
numpy's rules (_plain_chunk).  _route picks one; nothing here imports numpy, so
a command-line `simulate` of a usual size runs without it.

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
from .streams import _bounded, _le, _philox, _seed_words

__all__ = ["SimulationResult", "simulate"]

# Together these partition the trials into chunks, one Philox substream each:
# changing either changes every report.  They bound no array's size.
_SIM_CHUNK = 1 << 16  # trials per chunk, at most
_SIM_CELLS = 1 << 22  # trials x candidates per chunk, at most

# Trials x candidates up to which the plain route runs where numpy is not yet loaded:
# where its time meets numpy's import cost.  On a 2-core x86-64 machine, CPython 3.11,
# one BLAS thread, N = 8, it took about 0.3 us a cell and importing numpy 65 ms, so
# cold runs of the two routes took the same time near 2.3 x 10^5 cells.
_PLAIN_MAX_CELLS = 200_000


class SimulationResult(_Record):
    """Monte Carlo estimate of the expected solving time for one ordering."""

    _fields = ("trials", "mean_time", "std_error", "success_rate", "seed", "generator")
    generator = "philox"


def _plain_chunks(ps: list, samples: list, seed):
    """The plain route: ``chunk(i, m)`` draws chunk i's m trials as oracle._simulate_chunk does."""
    key = _seed_words(seed)[:2]  # Philox's key: SeedSequence(seed).generate_state(2, uint64)
    # numpy's success test (u >> 11) * 2**-53 < p, for the raw word u: p * 2**53 is exact.
    limits = [math.ceil(p * 9007199254740992.0) << 11 for p in ps]
    return lambda i, m: _plain_chunk(key, i, limits, samples, m)


def _plain_chunk(key, jump: int, limits: list, samples: list, m: int):
    """(time sum, squared-time sum, successes) of m trials from Philox(key).jumped(jump).

    g.random fills an (m, N) array row-major, so trial i's success draw at
    position j is word iN + j, a success below limits[j]; only the blocks of
    draws some trial reaches are computed.  The time indices follow, column
    by column (_indices).  A trial's total adds its times left to right from
    0.0; the totals and their squares are added in numpy's pairwise order.
    """
    N = len(samples)
    words = array("Q", bytes(8 * (m * N + 3 & -4)))  # the reached blocks' words, in place
    cells = list(range(0, m * N, N))  # each trial still failing: its next draw, ascending
    misses = []  # per position: whether each trial reaching it fails there
    for j, limit in enumerate(limits):
        # A new block holds the first cell of a trial, or a later cell 4-aligned.
        new = sorted({c >> 2 for c in cells}) if not j else [c >> 2 for c in cells if not c & 3]
        _fill(words, new, _philox(key, jump, new))
        misses.append(miss := bytes([limit <= words[c] for c in cells]))
        cells = [c + 1 for c in compress(cells, miss)]

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
    return _pairwise_sum(totals), _pairwise_sum([t * t for t in totals]), m - len(cells)


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


def _halves(key, jump: int, first: int, count: int) -> array:
    """32-bit draws first .. first + count - 1, raw: word h >> 1's low half, then its high."""
    block, start = first >> 3, 4 * (first & 7)  # a block holds 8 halves
    data = _philox(key, jump, range(block, (first + count + 7) >> 3))
    return array("I", data[start:start + 4 * count])


def _indices(key, jump: int, half: int, m: int, n: int):
    """``g.integers(0, n, size=m)`` from 32-bit draw ``half`` on: the m indices, and the next draw.

    Each draw x gives x * n >> 32 unless its leftover, x * n mod 2**32, is below
    2**32 % n (streams._bounded).  The products are formed at once, one per 64-bit
    lane of a Python int; a lane whose leftover calls for another draw is drawn
    again by the scalar rule, and the lanes resume after it.
    """
    index, threshold = array("I"), (1 << 32) % n

    def next32() -> int:
        nonlocal half
        half += 1
        return _le(_halves(key, jump, half - 1, 1))[0]

    while len(index) < m:
        count = m - len(index)
        lanes = array("I", bytes(8 * count))
        lanes[::2] = _halves(key, jump, half, count)
        out = _le(array("I", (int.from_bytes(lanes, "little") * n).to_bytes(8 * count, "little")))
        taken = count
        if threshold and min(out[::2]) < threshold:
            taken = next(k for k, v in enumerate(out[::2]) if v < threshold)
        index.extend(out[1:2 * taken:2])
        half += taken
        if taken < count:
            index.append(_bounded(next32, n))
    return index, half


def _route(cells: int):
    """The chunk route for a run of ``cells`` trials x candidates (see the module docstring)."""
    if sys.modules.get("numpy") is not None or cells > _PLAIN_MAX_CELLS:
        with suppress(ImportError):  # numpy cannot be imported: the plain route at any size
            from .oracle import _numpy_chunks
            return _numpy_chunks
    return _plain_chunks


def simulate(cset: CandidateSet, ordering: Ordering, trials: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of the expected solving time along ``ordering``.

    Per trial: walk the ordering, draw an independent success event with each
    candidate's probability, draw that attempt's execution time uniformly
    from the candidate's observed samples, and accumulate time until the
    first success or exhaustion (the failure tail is therefore included).
    ``seed`` is a non-negative integer.
    """
    _check_compatible(cset, ordering)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {_shown(trials)}")
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
