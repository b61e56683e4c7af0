"""Randomized verification of every closed form against the oracles, without numpy.

verify_bounds_random draws random instances and holds each closed form
against exact_excess_direct (a difference of schedule.expected_time values)
and the rule against the exact search (search.brute_force_best_order).  Each
instance is drawn whole, as plain data (_draw), then evaluated (_evaluate).
The instances come from _Stream, a plain-Python PCG64 stream that draws the
same numbers as numpy's ``np.random.default_rng(seed)`` for every call the
engine makes, so `check` runs without numpy and its reports keep the bytes
they had when the engine drew from numpy.  oracle re-exports the public
names.

Determinism contract: a report is a pure function of its configuration; the
seed is any non-negative integer, and nothing here depends on which numpy,
if any, is installed.
"""

from __future__ import annotations

import operator

from .model import CandidateSet, Ordering, _agrees, _checked_rows, _Record, _sum
from .schedule import expected_time, solomonoff_order
from .search import brute_force_best_order

__all__ = ["VerificationConfig", "CheckStats", "VerificationReport", "verify_bounds_random"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _seed_words(seed) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``: four 64-bit words.

    The seed is split into 32-bit words, least significant first, and
    hashed into a pool of four, then the pool into eight 32-bit outputs,
    all in uint32 arithmetic with SeedSequence's constants.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError("expected non-negative integer")  # numpy's wording
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)

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


class _Stream:
    """``np.random.default_rng(seed)`` for the calls the engine makes, in plain Python.

    PCG64 (O'Neill 2014): a 128-bit LCG stepped before each draw, whose
    64-bit output is XSL-RR of the new state.  ``random`` and ``uniform``
    take 53 bits of one 64-bit draw; ``integers`` takes Lemire's (2019)
    bounded method on 32-bit draws, each the low half of a fresh 64-bit draw
    whose high half serves the next 32-bit call, as numpy's bit generator
    keeps it.  A seed that is not an integer is refused; numpy would take
    None as a request for OS entropy, or a list of words.
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
        if span == 1:
            return lo
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return lo + (m >> 32)


def _mean(samples: list[float]) -> float:
    """``float(np.mean(samples))`` for fewer than 8 samples: a left-to-right sum from 0.0."""
    return _sum(samples) / len(samples)


# The one verification protocol behind every reported check: candidate counts,
# generator ranges, samples per candidate and tolerances.  ``_IDENTITY_TOL``
# is absolute (double-precision accumulation over <= 10 terms);
# ``_SANDWICH_SLACK`` is the absolute slack allowed on each bound inequality;
# optimality is model._agrees, the rule every oracle comparison uses.
_N_CANDIDATES = (2, 8)
_P_RANGE = (0.05, 0.95)
_T_RANGE = (0.1, 10.0)
_MAX_SAMPLES = 3
_IDENTITY_TOL = 1e-10
_SANDWICH_SLACK = 1e-9
_OPTIMALITY_MAX_N = 8


class VerificationConfig(_Record):
    """How many instances verify_bounds_random draws, from which seed.

    ``equal_p_only`` pins the generator to equal-probability instances and
    additionally counts how often the as-printed equal-p formula misses the
    oracle (it should miss on every instance whose swapped candidates have
    different times — see README, Errata).
    """

    _fields = ("instances", "seed", "equal_p_only")

    def __init__(self, instances: int, seed: int, equal_p_only: bool = False) -> None:
        if instances < 0:
            raise ValueError(f"instances must be >= 0, got {instances}")
        self.__dict__.update(instances=instances, seed=seed, equal_p_only=equal_p_only)


class CheckStats(_Record):
    _fields = ("name", "runs", "failures", "max_residual")

    def __init__(self, name: str, runs: int, failures: int, max_residual: float) -> None:
        self.__dict__.update(name=name, runs=runs, failures=failures, max_residual=max_residual)


class VerificationReport(_Record):
    _fields = ("instances", "seed", "equal_p_only", "checks")

    def __init__(self, instances: int, seed: int, equal_p_only: bool,
                 checks: tuple[CheckStats, ...]) -> None:
        self.__dict__.update(instances=instances, seed=seed, equal_p_only=equal_p_only,
                             checks=checks)

    @property
    def total_failures(self) -> int:
        return sum(c.failures for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.total_failures == 0

    def stats(self, name: str) -> CheckStats:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "seed": self.seed,
            "equal_p_only": self.equal_p_only,
            "total_failures": self.total_failures,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "runs": c.runs,
                    "failures": c.failures,
                    "max_residual": c.max_residual,
                }
                for c in self.checks
            ],
        }


class _Tally:
    def __init__(self) -> None:
        self._stats: dict[str, list] = {}

    def record(self, name: str, residual: float, ok: bool) -> None:
        runs = self._stats.setdefault(name, [0, 0, 0.0])
        runs[0] += 1
        runs[1] += 0 if ok else 1
        runs[2] = max(runs[2], residual)

    def identity(self, name: str, got: float, want: float) -> None:
        """An exact identity: passes when |got - want| is within _IDENTITY_TOL."""
        residual = abs(got - want)
        self.record(name, residual, residual <= _IDENTITY_TOL)

    def sandwich(self, name: str, overshoot: float, premises_ok: bool) -> None:
        """A bound inequality: passes with its premises and an overshoot <= _SANDWICH_SLACK."""
        self.record(name, max(0.0, overshoot), premises_ok and overshoot <= _SANDWICH_SLACK)

    def as_checks(self) -> tuple[CheckStats, ...]:
        return tuple(
            CheckStats(name=k, runs=v[0], failures=v[1], max_residual=v[2])
            for k, v in self._stats.items()
        )


_IDS = tuple(f"c{i}" for i in range(1, _N_CANDIDATES[1] + 1))  # a drawn set's ids, in order


def _build_set(ps, tss) -> CandidateSet:
    # Drawn rows are clean by construction, so the one route lists no violations.
    return _checked_rows(zip(_IDS, ps, tss))[0]


def _draw_times(rng, n):
    return [rng.uniform(*_T_RANGE, rng.integers(1, _MAX_SAMPLES + 1)) for _ in range(n)]


def _draw_kn(rng, n):
    k = rng.integers(1, n)
    nn = rng.integers(1, n - k + 1)
    return k, nn


def _draw(rng, equal_p_only: bool) -> tuple:
    """One instance as plain data: ``(general, lower, equal_t, equal_p, ka)``.

    Each family is ``(ps, times, k, n)``, ``ka`` the adjacent swap's k on general; with
    ``equal_p_only`` the rest are None.  Only this code (and _draw_times, _draw_kn) calls
    the stream: its calls, their order and sizes, are the engine's call sequence.
    """
    general = lower = equal_t = ka = None
    if not equal_p_only:
        N = rng.integers(_N_CANDIDATES[0], _N_CANDIDATES[1] + 1)
        general = (rng.uniform(*_P_RANGE, N), _draw_times(rng, N), *_draw_kn(rng, N))
        ka = rng.integers(1, N)
        # p descending, t ascending is ratio-sorted and satisfies the
        # p_k >= p_{k+n}, t_k <= t_{k+n} swap premises for every pair.
        lower = (sorted(rng.uniform(*_P_RANGE, N), reverse=True),
                 sorted(_draw_times(rng, N), key=_mean), *_draw_kn(rng, N))
        equal_t = (rng.uniform(*_P_RANGE, N), [[rng.uniform(*_T_RANGE)]] * N, *_draw_kn(rng, N))
    N = rng.integers(_N_CANDIDATES[0], _N_CANDIDATES[1] + 1)
    equal_p = ([rng.uniform(*_P_RANGE)] * N, _draw_times(rng, N), *_draw_kn(rng, N))
    return general, lower, equal_t, equal_p, ka


def _evaluate(instance: tuple, tally: _Tally) -> None:
    """Record every check on one drawn instance, in the report's order; draws nothing."""
    # The checks load bounds and excess here, so that importing this module does not.
    from .excess import _swap_ends, equal_p_swap_excess, exact_excess_direct

    general, lower, equal_t, (ps_p, tss_p, k4, n4), ka = instance
    if general is not None:
        from .bounds import (BoundAssumptions, adjacent_excess_bounds, swap_excess_lower_equal_t,
                             swap_excess_lower_general, swap_excess_upper_equal_t,
                             swap_excess_upper_general)
        from .excess import adjacent_swap_excess, general_swap_excess

        def band(cset, profile):
            # A bound's premises by construction: the drawn set's own p and t ranges.
            ps, ts = cset.ps, cset.ts
            return BoundAssumptions(c=min(ps), d=max(ps), t_min=min(ts), t_max=max(ts),
                                    profile=profile)

        ps, tss, k, n = general
        cset = _build_set(ps, tss)
        order = solomonoff_order(cset)

        # Exactness of the q-decomposition, and its adjacent reduction.
        direct = exact_excess_direct(cset, order, k, n)
        rep = general_swap_excess(cset, order, k, n)
        tally.identity("decomposition-identity", rep.total, direct)
        adj = adjacent_swap_excess(cset, order, ka)
        dadj = exact_excess_direct(cset, order, ka, 1)
        tally.identity("adjacent-exact", adj, dadj)
        radj = general_swap_excess(cset, order, ka, 1).total
        tally.identity("adjacent-reduction", radj, adj)

        badj = adjacent_excess_bounds(cset, order, ka)
        tally.sandwich("sandwich-adjacent", max(badj.lower - dadj, dadj - badj.upper), True)

        # General upper bound on the ratio-sorted order.
        up = swap_excess_upper_general(cset, order, k, n, band(cset, "general-upper"))
        tally.sandwich("sandwich-upper-general", direct - up.upper, up.assumptions_ok)

        # General lower bound on the premise-satisfying instance, in its drawn order.
        ps_lo, tss_lo, k2, n2 = lower
        cset_lo = _build_set(ps_lo, tss_lo)
        order_lo = Ordering.identity(cset_lo.N)
        lo = swap_excess_lower_general(cset_lo, order_lo, k2, n2, band(cset_lo, "general-lower"))
        exc_lo = exact_excess_direct(cset_lo, order_lo, k2, n2)
        tally.sandwich("sandwich-lower-general", lo.lower - exc_lo, lo.assumptions_ok)

        # Equal-time sandwich.
        ps_eq, tss_eq, k3, n3 = equal_t
        cset_eq = _build_set(ps_eq, tss_eq)
        order_eq = solomonoff_order(cset_eq)
        a_eq = band(cset_eq, "equal-t-upper")
        exc_eq = exact_excess_direct(cset_eq, order_eq, k3, n3)
        up_eq = swap_excess_upper_equal_t(cset_eq, order_eq, k3, n3, a_eq)
        lo_eq = swap_excess_lower_equal_t(cset_eq, order_eq, k3, n3, a_eq)
        tally.sandwich("sandwich-upper-equal-t", exc_eq - up_eq.upper, up_eq.assumptions_ok)
        tally.sandwich("sandwich-lower-equal-t", lo_eq.lower - exc_eq, lo_eq.assumptions_ok)

    # Equal-probability instance: the corrected identity; drawn alone, the erratum count too.
    cset_p = _build_set(ps_p, tss_p)
    order_p = Ordering.identity(cset_p.N)  # the equal-p closed form is exact for any order
    direct_p = exact_excess_direct(cset_p, order_p, k4, n4)
    tally.identity("equal-p-corrected", equal_p_swap_excess(cset_p, order_p, k4, n4), direct_p)
    if general is None:
        _, _, tk, tkn = _swap_ends(cset_p, order_p, k4, n4)
        if tk != tkn:
            paper = equal_p_swap_excess(cset_p, order_p, k4, n4, use_paper_variant=True)
            # "failure" means the printed formula misses the oracle, which it
            # does by exactly (t_{k+n} - t_k) (1-p)^k on every such instance.
            tally.identity("equal-p-paper-variant", paper, direct_p)
    elif cset.N <= _OPTIMALITY_MAX_N:  # rule optimality against exhaustive search
        bf = brute_force_best_order(cset)
        rule = expected_time(cset, order)
        tally.record("optimality", abs(rule - bf.best_expected_time),
                     _agrees(rule, bf.best_expected_time))


def verify_bounds_random(config: VerificationConfig) -> VerificationReport:
    """Cross-validate every closed form on randomly generated instances.

    Per instance the default mode checks, against the direct-difference and
    brute-force oracles: the q-decomposition identity, its n=1 reduction to
    the adjacent closed form, the four bound sandwiches on
    premise-satisfying constructions, the corrected equal-p identity, and
    rule optimality for N <= _OPTIMALITY_MAX_N.  Failures are report
    entries, never exceptions.
    """
    rng = _Stream(config.seed)
    tally = _Tally()
    for _ in range(config.instances):
        _evaluate(_draw(rng, config.equal_p_only), tally)
    return VerificationReport(
        instances=config.instances,
        seed=config.seed,
        equal_p_only=config.equal_p_only,
        checks=tally.as_checks(),
    )
