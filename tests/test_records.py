"""The record types against their frozen dataclass twins (`tests/oracles.py`):
repr, equality, hashing, immutability and keyword construction."""

import dataclasses
import itertools
import re
from fractions import Fraction

import pytest

from dspkit._record import Record
from dspkit.classify import SpecialCaseTag, SpecialKind, is_special_diagonal, match_special
from dspkit.decide import check_conditions, decide_generic
from dspkit.errors import InvalidInputError
from dspkit.genericity import ClassSpec, GcdReduction, RelationWitness, find_relation, gcd_reduction
from dspkit.jnf import InvariantSummary, Jnf, JnfTuple, Partition, invariant_summary
from dspkit.oracle import RealizationResult, SearchBudget
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar

from oracles import RECORD_TWINS, twin_of


def sample_records() -> list:
    """Records of every type, built afresh on each call.  The two scalars
    at the end hold equal field tuples in different types."""
    A, M = AdditiveScalar, MultiplicativeScalar
    tuples = [
        JnfTuple([[[1, 1], [1]], [[1], [1], [1]], [[2, 1]]]),
        JnfTuple([[[1], [1], [1]], [[1], [1], [1]], [[1, 1], [1]]]),  # one reduction step
        JnfTuple([[[1], [1], [1]]] * 3 + [[[2, 1]]]),
    ]
    reports = [decide_generic(t) for t in tuples]
    additive = [
        ClassSpec([((1,), A(j)), ((1,), A(-j))], "additive") for j in (1, 2, 3)
    ]
    half = M(1, Fraction(1, 2))
    multiplicative = [
        ClassSpec([((2,), M(1, 0))], "multiplicative"),
        ClassSpec([((2,), half)], "multiplicative"),
        ClassSpec([((2,), half)], "multiplicative"),
    ]
    records = [
        Partition((3, 1)),
        Partition((1,)),
        Jnf([[2, 1], [1]]),
        *tuples,
        *map(invariant_summary, tuples),
        InvariantSummary((), (), (), 0),
        *map(check_conditions, tuples),
        *reports,
        *(r.trace for r in reports),
        *(step for r in reports for step in r.trace.steps),
        match_special(tuples[0]),
        SpecialCaseTag(SpecialKind.SPECIAL_A, 2),
        is_special_diagonal(multiplicative),
        *additive,
        *multiplicative,
        find_relation(additive),
        RelationWitness(2, ((1, 1), (1, 1), (1, 1))),
        gcd_reduction(additive),
        GcdReduction(2, half, True),
        SearchBudget(),
        SearchBudget(restarts=3, seed=7, warm_start=((1.0,),)),
        RealizationResult((1.5,), (2.5,), 1e-9, 4, 1, True, True, 0, "numpy"),
        A(2, Fraction(1, 3)),
        M(2, Fraction(1, 3)),
    ]
    assert {type(r).__name__ for r in records} == set(RECORD_TWINS)
    assert any(r.trace.steps for r in reports)
    return records


def outcome(op, *args):
    """The result of op(*args), or the type and text of what it raised."""
    try:
        return op(*args)
    except Exception as exc:
        return type(exc), str(exc)


# types whose repr is their own, as it was on the dataclass (pinned in
# test_jnf.py and the golden CLI reports)
OWN_REPR = {"Partition", "Jnf", "JnfTuple"}


def same_repr(record, twin) -> bool:
    return type(record).__name__ in OWN_REPR or repr(record) == repr(twin)


class TestAgainstDataclassTwins:
    def test_repr_and_hash(self):
        for record in sample_records():
            twin = twin_of(record)
            assert same_repr(record, twin), record
            assert hash(record) == hash(twin), record

    def test_equality_within_and_across_types(self):
        left, right = sample_records(), sample_records()
        equal_pairs = 0
        others = [None, 0, (), "x", Fraction(1, 3)]
        for a, b in itertools.product(left, right + others):
            ta = twin_of(a)
            tb = twin_of(b) if type(b).__name__ in RECORD_TWINS else b
            assert outcome(lambda x, y: x == y, a, b) == outcome(lambda x, y: x == y, ta, tb), (a, b)
            assert outcome(lambda x, y: x != y, a, b) == outcome(lambda x, y: x != y, ta, tb), (a, b)
            equal_pairs += a is not b and a == b
        assert equal_pairs >= len(left)
        # equal field tuples, different types
        add, mult = left[-2], left[-1]
        assert dataclasses.astuple(twin_of(add)) == dataclasses.astuple(twin_of(mult))
        assert add != mult and not add == mult

    def test_fields_can_be_neither_assigned_nor_deleted(self):
        for record in sample_records():
            twin = twin_of(record)
            for name in (*(f.name for f in dataclasses.fields(twin)), "other"):
                value = getattr(twin, name, None)
                assert outcome(setattr, record, name, value) == (
                    AttributeError,
                    outcome(setattr, twin, name, value)[1],
                )
                assert outcome(delattr, record, name) == (
                    AttributeError,
                    outcome(delattr, twin, name)[1],
                )
            assert same_repr(record, twin), record

    def test_keyword_construction(self):
        for record in sample_records():
            if isinstance(record, ClassSpec):
                continue  # built from (blocks, eigenvalue) slots, below
            fields = twin_of(record).__dict__
            assert type(record)(**fields) == record
        spec = ClassSpec(slots=[((1,), AdditiveScalar(1)), ((1,), AdditiveScalar(-1))], mode="additive")
        assert spec == ClassSpec([((1,), AdditiveScalar(-1)), ((1,), AdditiveScalar(1))], "additive")


def test_record_of_one_field_hashes_its_one_tuple():
    class Single(Record):
        x: object

        def __init__(self, x):
            self.__dict__["x"] = x

    twin = dataclasses.make_dataclass("Single", ["x"], frozen=True)
    for x in (3, (3,), "x", None):
        assert hash(Single(x)) == hash(twin(x)) == hash((x,))
        assert repr(Single(x)).endswith(repr(twin(x)))


class TestSearchBudgetChecks:
    def test_defaults_and_positional_order(self):
        twin = RECORD_TWINS["SearchBudget"]
        assert repr(SearchBudget()) == repr(twin())
        assert repr(SearchBudget(3, 4, 5, 1e-7, 2)) == repr(twin(3, 4, 5, 1e-7, 2))

    # the first failing check names the argument: integer arguments in the
    # order restarts, iters, jobs, seed; then residual_tol; then the seed range
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"restarts": 0, "iters": "x"}, "restarts must be at least 1, got 0"),
            ({"iters": 0, "restarts": None}, "restarts must be an integer, got None"),
            ({"jobs": 0, "seed": 1.5}, "jobs must be at least 1, got 0"),
            ({"seed": 1.5, "residual_tol": 0}, "seed must be an integer, got 1.5"),
            ({"seed": -1, "residual_tol": 0}, "residual_tol must be positive, got 0"),
            ({"seed": 2**32, "residual_tol": 1.0}, "residual_tol must be at most 1e-06, got 1.0"),
            ({"seed": 2**32, "warm_start": "anything"}, f"seed must be in [0, 2**32), got {2**32}"),
        ],
    )
    def test_first_failing_check_reports(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SearchBudget(**kwargs)
