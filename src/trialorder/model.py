"""Core domain types: candidates, candidate sets, orderings, the prefix walk.

A candidate is one way of attempting a problem: a success probability ``p`` in
[0, 1] and one or more strictly positive observed execution times (arbitrary
but consistent time unit).  A candidate set is an ordered collection of
candidates; its input order doubles as the identity ordering and as the
tie-break key everywhere.  Everything downstream (the ordering rule, penalty
formulas, bounds, oracles) consumes these types.

All types are immutable after construction and all operations are pure, so
unrestricted concurrent use is safe.  Building a set from records (file
ingestion, from_records, validate) pauses Python's cyclic garbage collector
and then restores its previous state (see _gc_paused).  The collector's
switch is process-wide: while one thread builds, collection is off for every
thread, and a gc.enable() or gc.disable() another thread makes meanwhile may
be undone when the build ends.  Results are unaffected; only when memory
held by reference cycles is freed can move.
"""

from __future__ import annotations

import gc
import math
import operator
import sys
from collections import deque
from collections.abc import Mapping
from functools import cached_property
from itertools import compress, repeat
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Candidate",
    "CandidateSet",
    "Ordering",
    "Violation",
    "ValidationReport",
    "mean_time",
    "ratio",
    "validate",
]


# The bound profiles, one premise set each (see bounds.check_assumptions).  They
# live here so that the command line's parser can list them without loading
# the bounds module; bounds re-exports them.
PROFILES = (
    "general-upper",
    "general-lower",
    "equal-t-upper",
    "equal-t-lower",
    "adjacent",
)

# The exact search's size limit (search.brute_force_best_order), a documented
# one: the search itself costs only O(2^N N) steps.  It lives here so that the
# command line's help can state it without loading the search.
MAX_BRUTE_FORCE_N = 10


class _Record:
    """Base of the immutable value types: ``==``, ``hash`` and ``repr`` over ``_fields``.

    A subclass names its fields in ``_fields``.  Its __init__ stores them in
    slots, if the subclass declares them in ``__slots__`` (Candidate, of which
    a set holds one per record), or else in ``__dict__``, where anything
    besides the fields (a cache) takes no part in equality.  Instances of
    different classes are never equal.  After construction no attribute can
    be assigned or deleted.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(_Record):
    """One violated invariant: where it was found, which field, and why."""

    _fields = ("subject", "field", "message")

    def __init__(self, subject: str, field: str, message: str) -> None:
        self.__dict__.update(subject=subject, field=field, message=message)

    def __str__(self) -> str:
        return f"{self.subject}: field '{self.field}': {self.message}"


class ValidationReport(_Record):
    _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]) -> None:
        self.__dict__["violations"] = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "clean"
        return "; ".join(str(v) for v in self.violations)


def _is_bool(v) -> bool:
    # A numpy boolean is no bool subclass; its dtype kind is "b".  Callers
    # skip plain floats, the common case: the dtype lookup alone would
    # triple the cost of checking a row.
    return isinstance(v, bool) or getattr(getattr(v, "dtype", None), "kind", None) == "b"


def _number(v) -> float | None:
    """``float(v)``, or None where v is no number.

    A boolean passes float() as 0.0 or 1.0, yet it is not a number here.  An
    integer past the float range (a 400-digit JSON number, say) reads as the
    infinity it overflows to, as the JSON literal 1e400 does.
    """
    try:
        value = float(v)
    except (TypeError, ValueError):
        return None
    except OverflowError:
        return -math.inf if v < 0 else math.inf
    return None if type(v) is not float and _is_bool(v) else value


def _value_problems(p, times) -> tuple[list[tuple[str, str]], tuple | None]:
    """``(problems, row)``: every ``(field, message)`` wrong with a record's p and times.

    The one read of a record's values (times, any iterable but a string, once): ``row``
    is ``(p, times, mean)`` as floats, the mean by mean_time's rule, or None if wrong.
    """
    out: list[tuple[str, str]] = []
    p_value = _number(p)
    if p_value is None:
        out.append(("p", f"not a number: {p!r}"))
    elif not (0.0 <= p_value <= 1.0):
        out.append(("p", f"probability {p_value!r} out of [0, 1]"))

    if not isinstance(times, (str, bytes)):
        try:
            times = tuple(times)
        except TypeError:
            pass
    if type(times) is not tuple:
        out.append(("times", f"not a sequence: {times!r}"))
        return out, None
    if not times:
        out.append(("times", "no execution time samples"))
    values = []
    row = None
    for t in times:
        value = _number(t)
        if value is None:
            out.append(("times", f"not a number: {t!r}"))
        elif not math.isfinite(value):
            out.append(("times", f"non-finite time sample {value!r}"))
        elif value <= 0.0:
            out.append(("times", f"non-positive time sample {value!r}"))
        else:
            values.append(value)
    if values and len(values) == len(times):  # every sample is fine on its own
        try:
            row = p_value, tuple(values), math.fsum(values) / len(values)
        except OverflowError:
            out.append(("times", "sum of time samples overflows"))
    return out, None if out else row


class Candidate(_Record):
    """One solution candidate: success probability plus observed run times.

    ``p = 0`` and ``p = 1`` are admitted here; operations whose closed forms
    need ``p`` strictly inside (0, 1) enforce that locally.  Times must be
    strictly positive (success-to-time ratios divide by the mean time).
    """

    _fields = ("id", "p", "time_samples")
    __slots__ = (*_fields, "__weakref__")  # weak references work as with a __dict__

    def __init__(self, id: str, p: float, time_samples: tuple[float, ...]) -> None:
        id = str(id)
        problems, row = _value_problems(p, time_samples)
        if problems:
            subject = f"candidate {id!r}"
            raise ValueError("; ".join(str(Violation(subject, f, m)) for f, m in problems))
        for store, value in zip(_CANDIDATE_SETTERS, (id, *row[:2])):
            store(self, value)

    def __reduce__(self):
        # Slots have no __dict__ for pickle to restore, and it would restore
        # them through the __setattr__ that refuses; rebuild from the fields.
        return type(self), self._values()


# One setter per slot of Candidate, in _fields order: they store a field past
# _Record.__setattr__, and map() runs them over a whole column (_set_of).
_CANDIDATE_SETTERS = tuple(getattr(Candidate, name).__set__ for name in Candidate._fields)


class CandidateSet(_Record):
    """Ordered, immutable collection of candidates with unique ids.

    ``ps`` and ``ts`` hold each candidate's p and mean time (as mean_time
    computes it), in input order; they are computed once, at construction,
    and take no part in equality, hashing or repr.
    """

    _fields = ("candidates",)

    def __init__(self, candidates: Iterable[Candidate]) -> None:
        built, problems = _checked_rows((c.id, c.p, c.time_samples) for c in candidates)
        if problems:  # a Candidate is clean, so this is a duplicate id
            raise ValueError(problems[0].message)
        if built is None:
            raise ValueError("empty candidate set")
        self.__dict__.update(built.__dict__)

    @classmethod
    def _trusted(cls, candidates: tuple[Candidate, ...], ps: tuple[float, ...],
                 ts: tuple[float, ...]) -> "CandidateSet":
        """A non-empty set _checked_rows built, with its columns: stored, not checked."""
        s = object.__new__(cls)
        d = s.__dict__
        d["candidates"], d["ps"], d["ts"] = candidates, ps, ts
        return s

    @cached_property
    def _arrays(self):
        """``ps`` and ``ts`` as read-only float64 arrays, built when the array path needs them."""
        np = sys.modules["numpy"]
        ps, ts = np.array(self.ps, dtype=float), np.array(self.ts, dtype=float)
        ps.flags.writeable = ts.flags.writeable = False
        return ps, ts

    @property
    def N(self) -> int:
        return len(self.candidates)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.candidates)

    def __getitem__(self, i: int) -> Candidate:
        return self.candidates[i]

    @classmethod
    def from_records(cls, records: Iterable) -> "CandidateSet":
        """Build a set from raw records, reporting every violation at once.

        A record is a mapping with keys ``id``, ``p``, ``times`` (or
        ``time_samples``), a 3-sequence ``(id, p, times)``, or a Candidate.
        """
        cset, problems = _check_records(records)
        if problems:
            raise ValueError(str(ValidationReport(tuple(problems))))
        return cset


def _coerce_record(rec, i: int):
    """Extract (id, p, times) from a record without validating values."""
    if type(rec) is not tuple:  # a plain tuple, such as a drawn instance's, skips the ABC tests
        if isinstance(rec, Candidate):
            return rec.id, rec.p, rec.time_samples
        if type(rec) is dict or isinstance(rec, Mapping):
            rid = str(rec["id"]) if "id" in rec else f"#{i}"
            times = rec["times"] if "times" in rec else rec.get("time_samples", ())
            return rid, rec.get("p"), times
        if isinstance(rec, (str, bytes)):  # would unpack into one-character fields
            raise TypeError("a string is no record")
    rid, p, times = rec
    return str(rid), p, times


class Ordering(_Record):
    """A permutation of candidate indices 0..N-1 defining the trial sequence."""

    _fields = ("perm",)

    def __init__(self, perm: Iterable[int]) -> None:
        entries = []
        for i in perm:  # operator.index, as for a seed: no float or str reads as an index
            try:
                entries.append(operator.index(i))
            except TypeError:
                raise TypeError(f"perm entry {i!r} is not an integer") from None
        perm = tuple(entries)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"perm {perm!r} is not a permutation of 0..{len(perm) - 1}")
        self.__dict__["perm"] = perm

    @cached_property
    def _index(self):
        """``perm`` as a read-only intp array, built when the array path first needs it."""
        np = sys.modules["numpy"]
        index = np.fromiter(self.perm, np.intp, len(self.perm))
        index.flags.writeable = False
        return index

    @classmethod
    def _trusted(cls, perm: tuple[int, ...]) -> "Ordering":
        """An ordering over a tuple of ints built here as a permutation: stored, not checked."""
        o = object.__new__(cls)
        o.__dict__["perm"] = perm
        return o

    @classmethod
    def identity(cls, n: int) -> "Ordering":
        return cls._trusted(tuple(range(n)))

    def swapped(self, i: int, j: int) -> "Ordering":
        """New ordering with 0-based positions i and j interchanged."""
        perm = list(self.perm)
        perm[i], perm[j] = perm[j], perm[i]
        return Ordering._trusted(tuple(perm))

    def __len__(self) -> int:
        return len(self.perm)

    def __iter__(self) -> Iterator[int]:
        return iter(self.perm)

    def __getitem__(self, i: int) -> int:
        return self.perm[i]


def mean_time(c: Candidate) -> float:
    """Arithmetic mean of the candidate's execution time samples.

    fsum rounds once, so the mean does not depend on the samples' order.  A
    candidate whose samples' sum leaves the float range is refused (see
    _value_problems), so fsum never raises OverflowError here.
    """
    return math.fsum(c.time_samples) / len(c.time_samples)


def ratio(c: Candidate) -> float:
    """Success-probability-to-mean-time ratio p / mean_time, the ordering score."""
    return c.p / mean_time(c)


# Walk length from which the array path runs (see _numpy_for).  Measured on
# a 2-core x86-64 machine, the two paths took the same time near N = 64-96
# for expected_time and N = 32-64 for general_swap_excess,
# adjacent_swap_excess and failure_tail_term.
_ARRAY_MIN_N = 64


def _agrees(value: float, reference: float) -> bool:
    """Whether a closed form agrees with its oracle: 1e-9 relative, absolute below 1."""
    return abs(value - reference) <= 1e-9 * max(1.0, abs(reference))


def _check_compatible(cset: CandidateSet, ordering: Ordering) -> None:
    if len(ordering.perm) != len(cset.ps):  # the fields, not the Python-level len and N
        raise ValueError(
            f"ordering over {len(ordering)} positions does not match set of size {cset.N}"
        )


def _prefix(cset: CandidateSet, ordering: Ordering, m: int):
    """``p, T, Q, live``: the prefix walk over the first m positions, columns indexed 0..m.

    T_l is the sum of the first l mean times and Q_l the product of their
    (1 - p), accumulated left to right as ``T += t`` and ``Q *= 1 - p``, so
    every formula that reads them rounds alike.  Index 0 is the empty prefix
    (T_0 = 0, Q_0 = 1, p_0 = 0), so ``T[l]``, ``Q[l - 1]`` and ``p[l]`` read
    as T_l, Q_{l-1} and p_l.  Q never grows, so Q_0 .. Q_{live-1} are > 0 and
    the rest exactly 0: consumers stop there, where a T that overflowed would
    make a zero term inf * 0 = nan.  The one choice of path (_numpy_for):
    float64 arrays from np.add/multiply.accumulate, or lists from a loop,
    both strictly left to right, so the bits agree.  Read entries through
    float(), so that no numpy scalar reaches a result; sum with _terms_sum.
    """
    np = _numpy_for(m)
    if np is None:
        ps, ts = cset.ps, cset.ts
        p, T, Q = [0.0], [0.0], [1.0]
        T_l, Q_l = 0.0, 1.0
        for i in ordering.perm[:m]:
            p_l = ps[i]
            T_l += ts[i]  # may overflow to inf, silently
            Q_l *= 1.0 - p_l
            p.append(p_l)
            T.append(T_l)
            Q.append(Q_l)
        return p, T, Q, m + 1 - Q.count(0.0)
    perm = ordering._index[:m]
    ps, ts = cset._arrays
    p, T, Q = np.empty(m + 1), np.empty(m + 1), np.empty(m + 1)
    p[0] = T[0] = 0.0
    Q[0] = 1.0
    p[1:] = ps[perm]
    with np.errstate(all="ignore"):  # T may overflow to inf, as a float sum does, silently
        np.add.accumulate(ts[perm], out=T[1:])
        np.multiply.accumulate(1.0 - p[1:], out=Q[1:])
    return p, T, Q, int(np.count_nonzero(Q))


def _numpy_for(n: int):
    """numpy if a computation over n positions takes the array path, else None.

    The array path needs n >= _ARRAY_MIN_N and numpy already imported; this
    never imports it, so the command line's cold start stays numpy-free.
    Both paths return the same floats, so the rule only sets speed.
    """
    return sys.modules.get("numpy") if n >= _ARRAY_MIN_N else None


def _sum(xs) -> float:
    """0.0 + xs[0] + xs[1] + ..., added left to right: the one float sum of the loop paths.

    Not sum(): from Python 3.12 sum() compensates float rounding, so its
    last bits would depend on the interpreter.  A plain loop, not
    functools.reduce(operator.add, ...), which adds alike but, at 6 and at 64
    terms on CPython 3.11, took twice as long.
    """
    total = 0.0
    for x in xs:
        total += x
    return total


def _terms_sum(term: Callable, p, a, b) -> float:
    """_sum of ``term(p_l, a_l, b_l)`` over aligned columns; a term whose p_l is 0 counts as 0.0.

    Dropping a signed zero changes no sum from 0.0, and no inf * 0 = nan forms
    beside a T that overflowed.  ``term`` serves floats and arrays alike: on
    arrays it runs once, and np.add.accumulate adds in order (np.sum adds
    pairwise), the leading 0.0 + turning a lone -0.0 into 0.0 as _sum does.
    """
    if type(p) is list:
        return _sum(compress(map(term, p, a, b), p))
    if not len(p):
        return 0.0
    np = sys.modules["numpy"]
    with np.errstate(all="ignore"):  # may overflow or form inf * 0, as float arithmetic does
        terms = np.where(p == 0.0, 0.0, term(p, a, b))
        return 0.0 + float(np.add.accumulate(terms)[-1])


def _ratio_perm(cset: CandidateSet) -> list[int]:
    """Indices by p / t descending, ties in input order (both sorts are stable)."""
    np = _numpy_for(cset.N)
    if np is None:
        scores = [p / t for p, t in zip(cset.ps, cset.ts)]
        return sorted(range(cset.N), key=scores.__getitem__, reverse=True)
    ps, ts = cset._arrays
    with np.errstate(all="ignore"):  # p / t may overflow to inf, as a float quotient does
        return np.argsort(-(ps / ts), kind="stable").tolist()


def validate(candidates: Iterable) -> ValidationReport:
    """List every violated invariant of a candidate set, or report clean.

    Accepts a constructed CandidateSet (always clean by construction) or raw
    records (see CandidateSet.from_records), checked on the route from_records
    and file ingestion take, so all three list the same problems at once:
    probability out of range, non-positive time, empty sample list, duplicate
    id, empty set.
    """
    return ValidationReport(tuple(_check_records(candidates)[1]))


def _check_records(records: Iterable) -> tuple[CandidateSet | None, list[Violation]]:
    """Check and build raw records (see from_records): ``(set or None, violations)``.

    Malformed records are listed first, then _checked_rows' problems; an
    input without records is an empty set.
    """
    malformed: list[Violation] = []

    def rows():
        for i, rec in enumerate(records):
            try:
                row = _coerce_record(rec, i)
            except (TypeError, ValueError):
                malformed.append(Violation(f"record #{i}", "record", f"malformed record: {rec!r}"))
                continue
            yield row

    cset, problems = _gc_paused(_checked_rows, rows())
    if cset is None and not problems and not malformed:
        problems.append(Violation("set", "candidates", "empty candidate set"))
    return cset, malformed + problems


def _checked_rows(rows: Iterable, label: Callable[[int], str] | None = None
                  ) -> tuple[CandidateSet | None, list[Violation]]:
    """Check and build ``(id, p, times)`` rows in one pass: ``(set or None, violations)``.

    The one route from records to a CandidateSet, built with its ``ps`` and
    ``ts`` columns (each mean computed once, by mean_time's rule) when there
    are rows and no violations.  A row whose p is a float in [0, 1], whose
    times is a non-empty list or tuple of finite positive floats with a
    finite sum and whose id is new is stored as it stands, its times as a
    tuple made at its row (a reader's list is freed with the row); any other
    goes through _value_problems and, if clean, is stored as that check read
    it, as Candidate(...) stores it, so a file pays the full check only for
    its odd rows, and reads each of their values once.  A row may instead be
    a reader's Violation for a record that is no record.  Violations come in
    row order, each row's value problems before its duplicate id, under
    ``label(i)`` (default ``candidate '<id>'``), which is called only for a
    row with a problem.  The candidates are built once every row is read,
    column by column (_set_of).
    """
    ids: list[str] = []
    ps: list[float] = []
    samples: list[tuple[float, ...]] = []
    ts: list[float] = []
    out: list[Violation] = []
    seen: set[str] = set()
    fsum, inf = math.fsum, math.inf
    for i, row in enumerate(rows):
        if type(row) is Violation:
            out.append(row)
            continue
        rid, p, times = row
        # A plain for/else, not all(...), and mean_time's rule written out:
        # a call per row costs more than the checks.
        if (type(p) is float and 0.0 <= p <= 1.0
                and (type(times) is list or type(times) is tuple) and times and rid not in seen):
            for t in times:
                if not (type(t) is float and 0.0 < t < inf):
                    break
            else:
                try:
                    mean = fsum(times) / len(times)
                except OverflowError:  # left for _value_problems to word
                    pass
                else:
                    seen.add(rid)
                    ids.append(rid)
                    ps.append(p)
                    samples.append(tuple(times))
                    ts.append(mean)
                    continue
        problems, read = _value_problems(p, times)
        if rid in seen:
            problems.append(("id", f"duplicate candidate id {rid!r}"))
        if problems:
            subject = label(i) if label is not None else f"candidate {rid!r}"
            out.extend(Violation(subject, f, message) for f, message in problems)
        else:
            ids.append(rid)
            for column, value in zip((ps, samples, ts), read):
                column.append(value)
        seen.add(rid)
    if out or not ids:
        return None, out
    return _set_of(ids, ps, samples, ts), out


def _set_of(ids: Sequence[str], ps: Sequence[float], samples: Iterable, ts: Sequence[float]
            ) -> CandidateSet:
    """The set of candidates with these columns, clean and coerced as Candidate(...) coerces.

    Stored, not checked: each candidate's times tuple, ``ps`` and ``ts`` (the
    means) as the set's columns.  The candidates' slots are filled column by
    column.
    """
    candidates = tuple(map(object.__new__, repeat(Candidate, len(ids))))
    for store, column in zip(_CANDIDATE_SETTERS, (ids, ps, samples)):
        deque(map(store, candidates, column), 0)
    return CandidateSet._trusted(candidates, tuple(ps), tuple(ts))


def _gc_paused(build: Callable, *args):
    """``build(*args)`` with the cyclic garbage collector off; its previous state is restored.

    Reading and building a set allocates a few container objects per record
    (json's dicts and lists, the rows, the candidates).  With the collector
    on, every 700 of them start a pass over the young objects and every
    tenth pass one over older ones, though none of them is garbage yet.
    Reference counting still frees everything outside a cycle meanwhile.
    stdlib timeit pauses the collector in the same way.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(*args)
    finally:
        if enabled:
            gc.enable()
