"""numpy's random streams in plain Python: SeedSequence, PCG64, Philox and bounded integers.

Each draws the numbers numpy draws for the same seed, so `check` (on PCG64)
and `simulate`'s plain route (on Philox) keep their bytes with any numpy, or
none, installed; numpy keeps its raw streams stable across versions (NEP 19).
Bounded integers take Lemire's rule: _bounded draw by draw, and on Philox its
lane form _indices, a pass of draws at once, each rejected draw skipped.
"""

from __future__ import annotations

import operator
import sys
from array import array
from itertools import compress

from .model import _shown

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
# Philox4x64 (Salmon et al. 2011): the round multipliers and the key's Weyl increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _seed_words(seed) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``: four 64-bit words.

    The seed's 32-bit words, least significant first, are hashed into a pool
    of four, the pool into eight 32-bit outputs, in uint32 arithmetic with
    SeedSequence's constants.  A shorter state is a prefix: Philox's key is
    the first two words.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be a non-negative integer, got {_shown(seed)}") from None
    if seed < 0:
        raise ValueError("expected non-negative integer")  # numpy's wording
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(32, seed.bit_length()), 32)]

    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value = (value ^ mult) & _MASK32
        mult = (mult * 0x931E8875) & _MASK32
        value = (value * mult) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    mult = 0x8B51F9DD
    out = []
    for i in range(8):
        value = (pool[i % 4] ^ mult) & _MASK32
        mult = (mult * 0x58F38DED) & _MASK32
        value = (value * mult) & _MASK32
        out.append(value ^ (value >> 16))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _bounded(next32, span: int) -> int:
    """An integer in [0, span), 2 <= span < 2**32, by numpy's rule: Lemire's (2019) method.

    The 32-bit draw x maps to x * span >> 32; where the low 32 bits of x * span
    (the leftover) fall below 2**32 % span, x is rejected and the next draw read.
    """
    threshold, m = (1 << 32) % span, next32() * span
    while m & _MASK32 < threshold:
        m = next32() * span
    return m >> 32


class _Stream:
    """``np.random.default_rng(seed)`` for the calls the check engine makes, in plain Python.

    PCG64 (O'Neill 2014): a 128-bit LCG stepped before each draw, whose 64-bit
    output is XSL-RR of the new state.  ``random`` and ``uniform`` take 53 bits
    of one 64-bit draw; ``integers`` takes _bounded on 32-bit draws, the low
    half of a 64-bit draw first, then its high half.  A seed that is not an
    integer is refused; numpy would take None as a request for OS entropy.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed) -> None:
        w = _seed_words(seed)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: from state 0, step, add the initial state, step.
        self._state = (((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc)
                       & _MASK128)
        self._half: int | None = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        r = s >> 122
        return (x >> r | x << (64 - r)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def random(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, lo: float, hi: float, size: int | None = None):
        """One float in [lo, hi), or a list of ``size`` of them."""
        span = hi - lo
        if size is None:
            return lo + span * self.random()
        return [lo + span * self.random() for _ in range(size)]

    def integers(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi), for 1 <= hi - lo <= 2**32; a one-value range draws nothing."""
        span = hi - lo
        return lo if span == 1 else lo + _bounded(self._next32, span)


def _le(a: array) -> array:
    """``a`` byteswapped in place on a big-endian host: native values <-> little-endian bytes."""
    if sys.byteorder == "big":
        a.byteswap()
    return a


# Blocks per big-int pass of _philox: on a 2-core x86-64 machine with CPython 3.11 a block
# took 0.51 us in passes of 1,024-2,048, 0.55 us of 256 and 0.66 us of 10,000 blocks.
_LANES = 2048


def _philox(key: tuple[int, int], jump: int, blocks) -> bytes:
    """The raw words of ``blocks`` of ``Philox(key).jumped(jump)``, four per block, little-endian.

    Block b is Philox4x64-10 of the counter (b + 1, 0, jump mod 2**64,
    jump >> 64) under ``key``: words 4b .. 4b + 3 of ``random_raw``, whose
    counter starts at 0 and is stepped before each block, jumped(j) adding
    j * 2**128.  ``blocks``: ascending or not, each below 2**64 - 1.  Up to
    _LANES blocks are computed at once, one per 128-bit lane of a Python int:
    the multipliers are scalars, so one big-int product forms every lane's
    128-bit product, its halves split by shift and mask.
    """
    passes = []
    for start in range(0, len(blocks), _LANES):
        n = min(_LANES, len(blocks) - start)
        one = int.from_bytes((b"\x01" + bytes(15)) * n, "little")  # 1 in each lane
        low = one * _MASK64  # each lane's low 64 bits
        counters = array("Q", bytes(16 * n))
        counters[::2] = array("Q", blocks[start:start + n])
        (m0, m1), (w0, w1), (k0, k1) = _PHILOX_M, _PHILOX_W, key
        # Round 1: words 1 and 3 are 0 and word 2 is the same in every lane.
        x0 = int.from_bytes(_le(counters), "little") + one
        p, q = x0 * m0, m1 * (jump & _MASK64)
        x0, x1 = one * ((q >> 64) ^ k0), one * (q & _MASK64)
        x2, x3 = ((p >> 64) ^ one * ((jump >> 64 & _MASK64) ^ k1)) & low, p
        k0, k1, w0, w1 = one * k0, one * k1, one * w0, one * w1  # in every lane, stepped by adding
        for _ in range(9):
            k0, k1 = (k0 + w0) & low, (k1 + w1) & low
            p, q = x0 * m0, x2 * m1
            # Words 1 and 3 keep the products whole; masks drop the high halves of words 0 and 2.
            x0, x1, x2, x3 = ((q >> 64) ^ x1 ^ k0) & low, q, ((p >> 64) ^ x3 ^ k1) & low, p
        out = array("Q", bytes(32 * n))
        for w, a, b in ((0, x0, x1), (2, x2, x3)):
            pair = array("Q", (a | (b & low) << 64).to_bytes(16 * n, "little"))  # lanes: a, b
            out[w::4], out[w + 1::4] = pair[::2], pair[1::2]
        passes.append(out.tobytes())
    return b"".join(passes)


def _halves(key, jump: int, first: int, count: int) -> array:
    """32-bit draws first .. first + count - 1, raw: word h >> 1's low half, then its high."""
    block, start = first >> 3, 4 * (first & 7)  # a block holds 8 halves
    data = _philox(key, jump, range(block, (first + count + 7) >> 3))
    return array("I", data[start:start + 4 * count])


def _indices(key, jump: int, half: int, m: int, n: int):
    """``g.integers(0, n, size=m)`` from 32-bit draw ``half`` on: the m indices, and the next draw.

    _bounded's test on a pass of draws at once, each product x * n in a 64-bit
    lane of one big int: a draw whose leftover is below 2**32 % n is skipped,
    and the next pass reads only the draws still missing.
    """
    index, threshold = array("I"), (1 << 32) % n
    while (count := m - len(index)) > 0:
        lanes = array("I", bytes(8 * count))
        lanes[::2] = _halves(key, jump, half, count)
        out = _le(array("I", (int.from_bytes(lanes, "little") * n).to_bytes(8 * count, "little")))
        kept = out[1::2]
        if threshold and min(out[::2]) < threshold:
            kept = compress(kept, [v >= threshold for v in out[::2]])
        index.extend(kept)
        half += count
    return index, half
