"""The value types: construction, defaults, equality, hashing, repr and immutability.

Every public record type is an immutable value: built positionally or by
keyword, equal and hashed by its fields, printed as ``Type(field=value, ...)``.
"""

from __future__ import annotations

import copy
import math
import pickle
import weakref

import numpy as np
import pytest

from trialorder import (
    BoundAssumptions,
    BoundResult,
    BruteForceResult,
    Candidate,
    CandidateSet,
    CheckStats,
    ExcessReport,
    ExpectationOptions,
    Ordering,
    SimulationResult,
    ValidationReport,
    VerificationConfig,
    VerificationReport,
    Violation,
    verify_bounds_random,
)

V = Violation("candidate 'a'", "p", "bad")
V_REPR = "Violation(subject=\"candidate 'a'\", field='p', message='bad')"
A = Candidate("a", 0.5, (1.0, 2.0))
A_REPR = "Candidate(id='a', p=0.5, time_samples=(1.0, 2.0))"
B = Candidate("b", 1.0, (3.0,))
B_REPR = "Candidate(id='b', p=1.0, time_samples=(3.0,))"
STATS = CheckStats("x", 3, 0, 1e-12)
STATS_REPR = "CheckStats(name='x', runs=3, failures=0, max_residual=1e-12)"

# (type, fields in order with their values, repr, values of an unequal instance)
CASES = [
    (Violation, {"subject": "candidate 'a'", "field": "p", "message": "bad"}, V_REPR,
     ("candidate 'a'", "p", "worse")),
    (ValidationReport, {"violations": (V,)}, f"ValidationReport(violations=({V_REPR},))",
     ((),)),
    (Candidate, {"id": "a", "p": 0.5, "time_samples": (1.0, 2.0)}, A_REPR,
     ("a", 0.25, (1.0, 2.0))),
    (CandidateSet, {"candidates": (A, B)}, f"CandidateSet(candidates=({A_REPR}, {B_REPR}))",
     ((A,),)),
    (Ordering, {"perm": (1, 0)}, "Ordering(perm=(1, 0))", ((0, 1),)),
    (ExpectationOptions, {"include_failure_tail": False},
     "ExpectationOptions(include_failure_tail=False)", (True,)),
    (ExcessReport, {"k": 1, "n": 2, "q1": 0.1, "q2": 0.2, "q3": 0.3, "total": 0.6,
                    "method": "q-decomposition"},
     "ExcessReport(k=1, n=2, q1=0.1, q2=0.2, q3=0.3, total=0.6, method='q-decomposition')",
     (1, 2, 0.1, 0.2, 0.3, 0.5, "q-decomposition")),
    (BoundAssumptions, {"c": 0.1, "d": 0.9, "t_min": 0.5, "t_max": 2.0, "profile": "adjacent"},
     "BoundAssumptions(c=0.1, d=0.9, t_min=0.5, t_max=2.0, profile='adjacent')",
     (0.1, 0.9, 0.5, 2.0, "general-lower")),
    (BoundResult, {"lower": None, "upper": 1.5, "A": 2.0, "B": None, "violations": (V,)},
     f"BoundResult(lower=None, upper=1.5, A=2.0, B=None, violations=({V_REPR},))",
     (None, 1.5, 2.0, None, ())),
    (SimulationResult, {"trials": 10, "mean_time": 1.5, "std_error": 0.1,
                        "success_rate": 0.9, "seed": 3, "generator": "philox"},
     "SimulationResult(trials=10, mean_time=1.5, std_error=0.1, success_rate=0.9, seed=3, "
     "generator='philox')",
     (10, 1.5, 0.1, 0.9, 4, "philox")),
    (BruteForceResult, {"best_order": Ordering((0, 1)), "best_expected_time": 2.5,
                        "evaluated": 2},
     "BruteForceResult(best_order=Ordering(perm=(0, 1)), best_expected_time=2.5, evaluated=2)",
     (Ordering((1, 0)), 2.5, 2)),
    (VerificationConfig, {"instances": 5, "seed": 1, "equal_p_only": True},
     "VerificationConfig(instances=5, seed=1, equal_p_only=True)", (5, 1, False)),
    (CheckStats, {"name": "x", "runs": 3, "failures": 0, "max_residual": 1e-12}, STATS_REPR,
     ("x", 3, 1, 1e-12)),
    (VerificationReport, {"instances": 5, "seed": 1, "equal_p_only": False,
                          "checks": (STATS,)},
     f"VerificationReport(instances=5, seed=1, equal_p_only=False, checks=({STATS_REPR},))",
     (5, 1, False, ())),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_repr_lists_every_field_in_order(cls, fields, text, other):
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text, other):
    values, half = list(fields.values()), len(fields) // 2
    by_position, by_keyword = cls(*values), cls(**fields)
    mixed = cls(*values[:half], **dict(list(fields.items())[half:]))
    assert by_position == by_keyword == mixed
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
        assert getattr(mixed, name) == value
    first, *rest = fields
    with pytest.raises(TypeError):
        cls(*values, None)  # one argument too many
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)
    with pytest.raises(TypeError):
        cls(*values, **{first: fields[first]})  # given by position and by name
    if cls is not ExpectationOptions:  # its one field has a default
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in rest})  # the first field missing


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, text, other):
    a, b, c = cls(*fields.values()), cls(*fields.values()), cls(*other)
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert hash(a) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_another_type_is_never_equal(cls, fields, text, other):
    a = cls(*fields.values())
    assert a != tuple(fields.values()) and not a == tuple(fields.values())
    assert a != object()
    assert a.__eq__(object()) is NotImplemented
    assert all(a != o(*f.values()) for o, f, *_ in CASES if o is not cls)
    sub = type("Sub", (cls,), {})(*fields.values())  # same fields, another class
    assert a != sub and not a == sub and sub != a


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, text, other):
    a = cls(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 1
    assert a == cls(*fields.values())


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_pickle_round_trip_keeps_the_value(cls, fields, text, other):
    a = cls(*fields.values())
    assert pickle.loads(pickle.dumps(a)) == a


def test_pickle_and_copy_keep_a_sets_columns():
    from trialorder.schedule import expected_time, solomonoff_order

    s = CandidateSet((A, B, Candidate("c", -0.0, (0.5, 0.25))))
    order = solomonoff_order(s)
    for other in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert other == s
        assert [x.hex() for x in (*other.ps, *other.ts)] == [x.hex() for x in (*s.ps, *s.ts)]
        assert expected_time(other, order) == expected_time(s, order)


def test_a_candidate_keeps_its_fields_in_slots():
    c = Candidate("a", 0.5, (1.0, 2.0))
    assert not hasattr(c, "__dict__")
    assert weakref.ref(c)() is c
    for other in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert other == c and not hasattr(other, "__dict__")
    # Only the candidate is slotted: the other records keep __dict__ for their caches.
    assert hasattr(CandidateSet((A,)), "__dict__") and hasattr(Ordering((0,)), "__dict__")


def test_defaults():
    assert ExpectationOptions() == ExpectationOptions(True)
    assert ExpectationOptions().include_failure_tail is True
    a = BoundAssumptions(0.1, 0.9)
    assert (a.t_min, a.t_max, a.profile) == (0.0, math.inf, "general-upper")
    assert SimulationResult(10, 1.5, 0.1, 0.9, 3).generator == "philox"
    assert VerificationConfig(5, 1).equal_p_only is False
    assert VerificationConfig(instances=5, seed=1) == VerificationConfig(5, 1, False)
    # A record's default is the class attribute of the field's name.
    assert (SimulationResult.generator, ExpectationOptions.include_failure_tail) == ("philox", True)
    pcg = type("PcgResult", (SimulationResult,), {"generator": "pcg"})
    assert pcg(10, 1.5, 0.1, 0.9, seed=3).generator == "pcg"


def test_construction_coerces_as_documented():
    c = Candidate(7, 1, [2, 4])
    assert (c.id, c.p, c.time_samples) == ("7", 1.0, (2.0, 4.0))
    assert type(c.p) is float and all(type(t) is float for t in c.time_samples)
    o = Ordering([np.int64(1), 0])
    assert o.perm == (1, 0) and all(type(i) is int for i in o.perm)
    s = CandidateSet([A, B])
    assert s.candidates == (A, B)
    assert (s.ps, s.ts) == ((0.5, 1.0), (1.5, 3.0))


@pytest.mark.parametrize("build, message", [
    (lambda: Candidate("a", 1.5, (1.0,)), r"candidate 'a': field 'p': probability 1.5 out of"),
    (lambda: Candidate("a", True, (1.0,)), r"candidate 'a': field 'p': not a number: True"),
    (lambda: Candidate("a", 0.5, ()), r"candidate 'a': field 'times': no execution time"),
    (lambda: CandidateSet(()), r"^empty candidate set$"),
    (lambda: CandidateSet((A, A)), r"^duplicate candidate id 'a'$"),
    (lambda: Ordering((0, 0)), r"^perm \(0, 0\) is not a permutation of 0\.\.1$"),
    (lambda: BoundAssumptions(0.0, 0.5), r"^need 0 < c <= d < 1, got c=0.0, d=0.5$"),
    (lambda: BoundAssumptions(0.1, 0.5, 2.0, 1.0), r"^need 0 <= t_min <= t_max, got 2.0, 1.0$"),
    (lambda: BoundAssumptions(0.1, 0.5, 0.0, 0.0), r"^t_max must be positive, got 0.0$"),
    (lambda: BoundAssumptions(0.1, 0.5, profile="x"), r"^unknown profile 'x'; choose from"),
    (lambda: VerificationConfig(-1, 0), r"^instances must be >= 0, got -1$"),
    # Band values are echoed bounded: past 100 characters cut, past the digit limit named.
    (lambda: BoundAssumptions(10**4000, 0.5),
     r"^need 0 < c <= d < 1, got c=10{99}\.\.\. \(4001 characters\), d=0\.5$"),
    (lambda: BoundAssumptions(10**5000, 0.5),
     r"^need 0 < c <= d < 1, got c=<unprintable int>, d=0\.5$"),
])
def test_constructors_validate(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: BoundAssumptions(0.1, 0.5, profile="x" * 100_000), "unknown profile 'xxx"),
    (lambda: verify_bounds_random(VerificationConfig(0, seed="x" * 100_000)),
     "seed must be a non-negative integer, got 'xxx"),
], ids=["profile", "seed"])
def test_a_long_refused_value_is_echoed_bounded(build, message):
    with pytest.raises((TypeError, ValueError)) as info:
        build()
    assert str(info.value).startswith(message) and "... (100002 characters)" in str(info.value)
    assert len(str(info.value)) < 300


def test_candidate_set_compares_hashes_and_prints_only_its_candidates():
    s = CandidateSet((A, B))
    trusted = CandidateSet._trusted((A, B), (0.0, 0.0), (9.0, 9.0))  # columns that differ
    assert trusted == s and hash(trusted) == hash(s) and repr(trusted) == repr(s)
    assert "ps=" not in repr(s) and "ts=" not in repr(s)
    with pytest.raises(TypeError):
        CandidateSet((A, B), (0.5, 1.0))
    with pytest.raises(TypeError):
        CandidateSet(candidates=(A, B), ps=(0.5, 1.0))
    with pytest.raises(AttributeError, match="cannot assign to field 'ps'"):
        s.ps = (0.0, 0.0)


def test_array_caches_are_built_once_on_frozen_instances():
    s, o = CandidateSet((A, B)), Ordering((1, 0))
    ps, ts = s._arrays
    assert s._arrays[0] is ps and s._arrays[1] is ts
    assert ps.tolist() == [0.5, 1.0] and ts.tolist() == [1.5, 3.0]
    assert not ps.flags.writeable and not ts.flags.writeable
    index = o._index
    assert o._index is index and index.tolist() == [1, 0] and not index.flags.writeable
    # A filled cache takes no part in equality, hashing or repr.
    assert s == CandidateSet((A, B)) and hash(s) == hash(CandidateSet((A, B)))
    assert o == Ordering((1, 0)) and repr(o) == "Ordering(perm=(1, 0))"
