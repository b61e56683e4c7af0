"""Independent ground truth: Monte Carlo, randomized checks, and the exact search.

The exact optimum search lives in the numpy-free module search, so that
`verify-optimal` runs without numpy; its three names are re-exported here.
verify_bounds_random holds each closed form against exact_excess_direct,
which calls schedule.expected_time, and the rule against that search.
numpy is imported at module level: simulate and verify_bounds_random draw
with it, and once it is loaded, walks of model._ARRAY_MIN_N or more
positions take the array path (model._numpy_for).

Determinism contract: results are a pure function of their arguments.  The
simulator partitions trials into chunks sized by N alone, each driven by its
own Philox counter-based substream derived from the seed, so the outcome
does not depend on execution order and is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CandidateSet, Ordering, _agrees, _check_compatible, _Record
from .schedule import expected_time, solomonoff_order
from .search import MAX_BRUTE_FORCE_N, BruteForceResult, brute_force_best_order

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


# ---------------------------------------------------------------------------
# Randomized verification of the closed forms against the oracles.
# ---------------------------------------------------------------------------


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


def _build_set(ps, tss) -> CandidateSet:
    return CandidateSet.from_records(
        (f"c{i}", float(p), [float(t) for t in ts]) for i, (p, ts) in enumerate(zip(ps, tss), 1))


def _draw_times(rng, n):
    return [rng.uniform(*_T_RANGE, size=int(rng.integers(1, _MAX_SAMPLES + 1)))
            for _ in range(n)]


def _draw_kn(rng, n):
    k = int(rng.integers(1, n))
    nn = int(rng.integers(1, n - k + 1))
    return k, nn


def verify_bounds_random(config: VerificationConfig) -> VerificationReport:
    """Cross-validate every closed form on randomly generated instances.

    Per instance the default mode checks, against the direct-difference and
    brute-force oracles: the q-decomposition identity, its n=1 reduction to
    the adjacent closed form, the four bound sandwiches on
    premise-satisfying constructions, the corrected equal-p identity, and
    rule optimality for N <= _OPTIMALITY_MAX_N.  Failures are report
    entries, never exceptions.
    """
    # The checks load bounds and excess here, so that simulate runs without them.
    from .bounds import (BoundAssumptions, adjacent_excess_bounds, swap_excess_lower_equal_t,
                         swap_excess_lower_general, swap_excess_upper_equal_t,
                         swap_excess_upper_general)
    from .excess import adjacent_swap_excess, exact_excess_direct, general_swap_excess

    rng = np.random.default_rng(config.seed)
    tally = _Tally()

    for _ in range(config.instances):
        if config.equal_p_only:
            _equal_p_checks(rng, tally, count_paper_variant=True)
            continue

        N = int(rng.integers(_N_CANDIDATES[0], _N_CANDIDATES[1] + 1))
        cset = _build_set(rng.uniform(*_P_RANGE, N), _draw_times(rng, N))
        order = solomonoff_order(cset)
        k, n = _draw_kn(rng, N)

        # Exactness of the q-decomposition, and its adjacent reduction.
        direct = exact_excess_direct(cset, order, k, n)
        rep = general_swap_excess(cset, order, k, n)
        tally.identity("decomposition-identity", rep.total, direct)
        ka = int(rng.integers(1, N))
        adj = adjacent_swap_excess(cset, order, ka)
        dadj = exact_excess_direct(cset, order, ka, 1)
        tally.identity("adjacent-exact", adj, dadj)
        radj = general_swap_excess(cset, order, ka, 1).total
        tally.identity("adjacent-reduction", radj, adj)

        badj = adjacent_excess_bounds(cset, order, ka)
        tally.sandwich("sandwich-adjacent", max(badj.lower - dadj, dadj - badj.upper), True)

        # General upper bound on the ratio-sorted order; premises by construction.
        ps, mts = cset.ps, cset.ts
        a_up = BoundAssumptions(c=min(ps), d=max(ps), t_min=min(mts), t_max=max(mts),
                                profile="general-upper")
        up = swap_excess_upper_general(cset, order, k, n, a_up)
        tally.sandwich("sandwich-upper-general", direct - up.upper, up.assumptions_ok)

        # General lower bound: build a premise-satisfying instance
        # (p descending, t ascending is ratio-sorted and satisfies the
        # p_k >= p_{k+n}, t_k <= t_{k+n} swap premises for every pair).
        ps_lo = np.sort(rng.uniform(*_P_RANGE, N))[::-1]
        ts_lo = sorted(_draw_times(rng, N), key=lambda s: float(np.mean(s)))
        cset_lo = _build_set(ps_lo, ts_lo)
        order_lo = Ordering.identity(N)
        k2, n2 = _draw_kn(rng, N)
        mts_lo = cset_lo.ts
        a_lo = BoundAssumptions(c=float(ps_lo.min()), d=float(ps_lo.max()),
                                t_min=min(mts_lo), t_max=max(mts_lo),
                                profile="general-lower")
        lo = swap_excess_lower_general(cset_lo, order_lo, k2, n2, a_lo)
        exc_lo = exact_excess_direct(cset_lo, order_lo, k2, n2)
        tally.sandwich("sandwich-lower-general", lo.lower - exc_lo, lo.assumptions_ok)

        # Equal-time sandwich.
        ps_eq = rng.uniform(*_P_RANGE, N)
        T_eq = float(rng.uniform(*_T_RANGE))
        cset_eq = _build_set(ps_eq, [[T_eq]] * N)
        order_eq = solomonoff_order(cset_eq)
        k3, n3 = _draw_kn(rng, N)
        a_eq = BoundAssumptions(c=float(ps_eq.min()), d=float(ps_eq.max()),
                                t_min=T_eq, t_max=T_eq, profile="equal-t-upper")
        exc_eq = exact_excess_direct(cset_eq, order_eq, k3, n3)
        up_eq = swap_excess_upper_equal_t(cset_eq, order_eq, k3, n3, a_eq)
        lo_eq = swap_excess_lower_equal_t(cset_eq, order_eq, k3, n3, a_eq)
        tally.sandwich("sandwich-upper-equal-t", exc_eq - up_eq.upper, up_eq.assumptions_ok)
        tally.sandwich("sandwich-lower-equal-t", lo_eq.lower - exc_eq, lo_eq.assumptions_ok)

        _equal_p_checks(rng, tally, count_paper_variant=False)

        # Rule optimality against exhaustive search.
        if N <= _OPTIMALITY_MAX_N:
            bf = brute_force_best_order(cset)
            rule = expected_time(cset, order)
            tally.record("optimality", abs(rule - bf.best_expected_time),
                         _agrees(rule, bf.best_expected_time))

    return VerificationReport(
        instances=config.instances,
        seed=config.seed,
        equal_p_only=config.equal_p_only,
        checks=tally.as_checks(),
    )


def _equal_p_checks(rng, tally, count_paper_variant: bool) -> None:
    """Equal-probability instance: corrected identity, optional erratum count."""
    from .excess import _swap_ends, equal_p_swap_excess, exact_excess_direct

    N = int(rng.integers(_N_CANDIDATES[0], _N_CANDIDATES[1] + 1))
    p = float(rng.uniform(*_P_RANGE))
    cset = _build_set([p] * N, _draw_times(rng, N))
    order = Ordering.identity(N)  # the equal-p closed form is exact for any order
    k, n = _draw_kn(rng, N)
    direct = exact_excess_direct(cset, order, k, n)
    corr = equal_p_swap_excess(cset, order, k, n)
    tally.identity("equal-p-corrected", corr, direct)
    if count_paper_variant:
        _, _, tk, tkn = _swap_ends(cset, order, k, n)
        if tk != tkn:
            paper = equal_p_swap_excess(cset, order, k, n, use_paper_variant=True)
            # "failure" means the printed formula misses the oracle, which it
            # does by exactly (t_{k+n} - t_k) (1-p)^k on every such instance.
            tally.identity("equal-p-paper-variant", paper, direct)
