"""Randomized verification of every closed form against the oracles, without numpy.

verify_bounds_random draws random instances and holds each closed form
against exact_excess_direct (a difference of schedule.expected_time values)
and the rule against the exact search (search.brute_force_best_order).  Each
instance is drawn whole, as plain data (_draw), then evaluated (_evaluate).
The instances come from streams._Stream, which draws what numpy's
``np.random.default_rng(seed)`` draws for every call the engine makes, so
`check` runs without numpy and keeps the bytes it had when the engine drew
from numpy.  oracle re-exports the public names.

Determinism contract: a report is a pure function of its configuration; the
seed is any non-negative integer, and nothing here depends on which numpy,
if any, is installed.
"""

from __future__ import annotations

from .excess import (_swap_ends, adjacent_swap_excess, equal_p_swap_excess, exact_excess_direct,
                     general_swap_excess)
from .model import CandidateSet, Ordering, _agrees, _checked_rows, _pairwise_sum, _Record, _shown
from .schedule import expected_time, solomonoff_order
from .search import brute_force_best_order
from .streams import _Stream

__all__ = ["VerificationConfig", "CheckStats", "VerificationReport", "verify_bounds_random"]


def _mean(samples: list[float]) -> float:
    """``float(np.mean(samples))``: numpy's pairwise sum over the count."""
    return _pairwise_sum(samples) / len(samples)


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
# The most instances a report takes: about 6.5 minutes at 0.39 ms an instance (2-core x86-64).
_MAX_INSTANCES = 10**6


class VerificationConfig(_Record):
    """How many instances verify_bounds_random draws (0 to _MAX_INSTANCES), from which seed.

    ``equal_p_only`` pins the generator to equal-probability instances and
    additionally counts how often the as-printed equal-p formula misses the
    oracle (it should miss on every instance whose swapped candidates have
    different times — see README, Errata).
    """

    _fields = ("instances", "seed", "equal_p_only")

    def __init__(self, instances: int, seed: int, equal_p_only: bool = False) -> None:
        if instances < 0:
            raise ValueError(f"instances must be >= 0, got {_shown(instances)}")
        if instances > _MAX_INSTANCES:
            raise ValueError(f"instances must be <= {_MAX_INSTANCES}, got {_shown(instances)}")
        super().__init__(instances, seed, equal_p_only)


class CheckStats(_Record):
    _fields = ("name", "runs", "failures", "max_residual")


class VerificationReport(_Record):
    _fields = ("instances", "seed", "equal_p_only", "checks")

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
        head = self._asdict()
        del head["checks"]
        return {**head, "total_failures": self.total_failures, "passed": self.passed,
                "checks": [c._asdict() for c in self.checks]}


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


def _band(cset: CandidateSet) -> dict:
    """A bound's premises by construction: the drawn set's own p and t ranges."""
    ps, ts = cset.ps, cset.ts
    return {"c": min(ps), "d": max(ps), "t_min": min(ts), "t_max": max(ts)}


def _evaluate(instance: tuple, tally: _Tally) -> None:
    """Record every check on one drawn instance, in the report's order; draws nothing."""
    general, lower, equal_t, (ps_p, tss_p, k4, n4), ka = instance
    if general is not None:
        # Loaded here, so that an equal-p-only run does not load the bounds.
        from .bounds import (BoundAssumptions, adjacent_excess_bounds, swap_excess_lower_equal_t,
                             swap_excess_lower_general, swap_excess_upper_equal_t,
                             swap_excess_upper_general)

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
        a_up = BoundAssumptions(**_band(cset), profile="general-upper")
        up = swap_excess_upper_general(cset, order, k, n, a_up)
        tally.sandwich("sandwich-upper-general", direct - up.upper, up.assumptions_ok)

        # General lower bound on the premise-satisfying instance, in its drawn order.
        ps_lo, tss_lo, k2, n2 = lower
        cset_lo = _build_set(ps_lo, tss_lo)
        order_lo = Ordering.identity(cset_lo.N)
        a_lo = BoundAssumptions(**_band(cset_lo), profile="general-lower")
        lo = swap_excess_lower_general(cset_lo, order_lo, k2, n2, a_lo)
        exc_lo = exact_excess_direct(cset_lo, order_lo, k2, n2)
        tally.sandwich("sandwich-lower-general", lo.lower - exc_lo, lo.assumptions_ok)

        # Equal-time sandwich.
        ps_eq, tss_eq, k3, n3 = equal_t
        cset_eq = _build_set(ps_eq, tss_eq)
        order_eq = solomonoff_order(cset_eq)
        a_eq = BoundAssumptions(**_band(cset_eq), profile="equal-t-upper")
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
    else:  # rule optimality against exhaustive search, which reaches every drawn N
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
    rule optimality against exhaustive search.  Failures are report
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
