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


# The exact search's original numpy evaluator, kept verbatim as the reference
# that search._eq2 must equal bit for bit.
def eq2_for_perms(p: np.ndarray, t: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Expected time (failure tail included) for each permutation row."""
    P = p[perms]
    Tm = np.cumsum(t[perms], axis=1)
    Qfull = np.cumprod(1.0 - P, axis=1)
    Qprev = np.concatenate([np.ones((perms.shape[0], 1)), Qfull[:, :-1]], axis=1)
    return (Tm * Qprev * P).sum(axis=1) + Tm[:, -1] * Qfull[:, -1]


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
