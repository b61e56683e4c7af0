"""Shared builders and strategies for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from trialorder import Candidate, CandidateSet, Ordering


def make_set(ps, ts=None, ids=None) -> CandidateSet:
    """Candidate set from probabilities and times (scalar or sample list each)."""
    if ts is None:
        ts = [1.0] * len(ps)
    cands = []
    for i, (p, t) in enumerate(zip(ps, ts)):
        samples = tuple(float(x) for x in t) if isinstance(t, (list, tuple)) else (float(t),)
        cid = ids[i] if ids is not None else f"c{i + 1}"
        cands.append(Candidate(cid, float(p), samples))
    return CandidateSet(tuple(cands))


def is_ratio_sorted(cset: CandidateSet, ordering: Ordering) -> bool:
    """True iff p/t ratios are non-increasing along the ordering."""
    assert len(ordering) == cset.N, (len(ordering), cset.N)
    scores = [cset.ps[i] / cset.ts[i] for i in ordering.perm]
    return all(a >= b for a, b in zip(scores, scores[1:]))


# The exact search's original numpy evaluator, kept verbatim as the reference
# that search._eq2 must equal bit for bit.
def eq2_for_perms(p: np.ndarray, t: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Expected time (failure tail included) for each permutation row."""
    P = p[perms]
    Tm = np.cumsum(t[perms], axis=1)
    Qfull = np.cumprod(1.0 - P, axis=1)
    Qprev = np.concatenate([np.ones((perms.shape[0], 1)), Qfull[:, :-1]], axis=1)
    return (Tm * Qprev * P).sum(axis=1) + Tm[:, -1] * Qfull[:, -1]


# The simulator's original chunk, which held its trials as rows x N matrices,
# kept verbatim as the reference that montecarlo._simulate_chunk must equal bit for bit.
def simulate_chunk_matrix(g: np.random.Generator, p: np.ndarray, samples: list, m: int):
    """(time sum, squared-time sum, successes) of m trials."""
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
    with np.errstate(over="ignore"):
        cum = np.cumsum(tdraw, axis=1)
        totals = np.take_along_axis(cum, (attempts - 1)[:, None], axis=1)[:, 0]
        return float(totals.sum()), float((totals * totals).sum()), int(any_success.sum())


def rel_ok(value: float, reference: float, tol: float) -> bool:
    """|value - reference| <= tol * max(1, |reference|)."""
    return abs(value - reference) <= tol * max(1.0, abs(reference))


_probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_safe_probability = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
# Times capped at 10 so the 1e-12-relative identity checks keep a wide margin
# over float roundoff (everything is scale-linear in t anyway).
_time = st.floats(min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def candidate_sets(draw, min_size=1, max_size=6, probability=_probability):
    n = draw(st.integers(min_size, max_size))
    ps = draw(st.lists(probability, min_size=n, max_size=n))
    tss = draw(st.lists(st.lists(_time, min_size=1, max_size=3), min_size=n, max_size=n))
    return make_set(ps, tss)


@st.composite
def safe_candidate_sets(draw, min_size=2, max_size=6):
    """Sets with p <= 0.99, so every q-decomposition denominator is safe."""
    return draw(candidate_sets(min_size, max_size, probability=_safe_probability))


@st.composite
def sets_with_ordering(draw, min_size=2, max_size=6, safe=False):
    cset = draw(safe_candidate_sets(min_size, max_size) if safe
                else candidate_sets(min_size, max_size))
    perm = draw(st.permutations(range(cset.N)))
    return cset, Ordering(tuple(perm))


@st.composite
def swaps(draw, min_size=2, max_size=6, safe=False):
    """(set, ordering, k, n) with 1 <= k < k+n <= N, positions 1-based."""
    cset, ordering = draw(sets_with_ordering(min_size, max_size, safe=safe))
    k = draw(st.integers(1, cset.N - 1))
    n = draw(st.integers(1, cset.N - k))
    return cset, ordering, k, n
