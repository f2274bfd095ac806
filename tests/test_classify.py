"""Rigid-family and special-case recognition, weak-problem verdicts."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from dspkit import genericity
from dspkit.classify import (
    RigidFamily,
    SpecialKind,
    almost_special_tuple,
    decide_unipotent_nilpotent,
    is_good,
    is_special_diagonal,
    match_rigid_family,
    match_special,
    rigid_family_tuple,
    special_case_tuple,
    weak_verdict_kappa0,
    weak_verdict_kappa2,
)
from dspkit.decide import Verdict, check_conditions, decide_generic
from dspkit.errors import (
    InvalidInputError,
    KappaNotTwoError,
    NotApplicableError,
    ResourceExceededError,
)
from dspkit.genericity import (
    DEFAULT_STATE_BUDGET,
    ClassSpec,
    _relation_counts,
    check_evs,
    gcd_reduction,
    relation_selection_count,
    specs_tuple,
)
from dspkit.jnf import Jnf, JnfTuple, Partition, kappa_of
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar

ONE = MultiplicativeScalar.one()
I_UNIT = MultiplicativeScalar(1, Fraction(1, 4))
MINUS_ONE = MultiplicativeScalar(1, Fraction(1, 2))


def diag(*mults):
    return Jnf([[1] * m for m in mults])


class TestRigidFamilies:
    def test_extra_case(self):
        tup = JnfTuple([diag(4, 2), diag(2, 2, 2), diag(1, 1, 1, 1, 1, 1)])
        assert match_rigid_family(tup) is RigidFamily.EXTRA_CASE

    def test_hypergeometric_n3(self):
        tup = JnfTuple([diag(2, 1), diag(1, 1, 1), diag(1, 1, 1)])
        assert match_rigid_family(tup) is RigidFamily.HYPERGEOMETRIC

    def test_wrong_entry_count(self):
        tup = JnfTuple([diag(1, 1)] * 4)
        assert match_rigid_family(tup) is RigidFamily.NONE

    def test_non_diagonal_rejected(self):
        tup = JnfTuple([Jnf([[2]]), diag(1, 1), diag(1, 1)])
        assert match_rigid_family(tup) is RigidFamily.NONE

    def test_entry_order_irrelevant(self):
        tup = JnfTuple([diag(1, 1, 1, 1, 1, 1), diag(2, 2, 2), diag(4, 2)])
        assert match_rigid_family(tup) is RigidFamily.EXTRA_CASE

    @pytest.mark.parametrize(
        "tag,sizes",
        [
            (RigidFamily.HYPERGEOMETRIC, (2, 3)),
            (RigidFamily.ODD_FAMILY, (3, 5)),
            (RigidFamily.EVEN_FAMILY, (4, 6)),
            (RigidFamily.EXTRA_CASE, (6,)),
        ],
    )
    def test_families_are_rigid_and_solvable(self, tag, sizes):
        for n in sizes:
            tup = rigid_family_tuple(tag, n)
            assert kappa_of(tup) == 2
            rep = decide_generic(tup)
            assert rep.verdict is Verdict.SOLVABLE
            got = match_rigid_family(tup)
            if tag is RigidFamily.ODD_FAMILY and n == 3:
                assert got is RigidFamily.HYPERGEOMETRIC  # rows coincide at n=3
            else:
                assert got is tag

    def test_undefined_size_rejected(self):
        with pytest.raises(InvalidInputError):
            rigid_family_tuple(RigidFamily.EXTRA_CASE, 8)
        with pytest.raises(InvalidInputError):
            rigid_family_tuple(RigidFamily.ODD_FAMILY, 4)

    def test_every_admissible_instance_is_rigid_solvable(self):
        for n in range(2, 9):
            for tag in RigidFamily:
                if tag is RigidFamily.NONE:
                    continue
                try:
                    tup = rigid_family_tuple(tag, n)
                except InvalidInputError:
                    continue
                assert kappa_of(tup) == 2, (tag, n)
                assert decide_generic(tup).verdict is Verdict.SOLVABLE, (tag, n)
                assert match_rigid_family(tup) is not RigidFamily.NONE


class TestSpecialTables:
    def test_special_d_k2(self):
        tup = JnfTuple([Jnf([[6, 6]]), Jnf([[3, 3, 3, 3]]), Jnf([[2] * 6])])
        tag = match_special(tup)
        assert tag.kind is SpecialKind.SPECIAL_D and tag.k == 2

    def test_almost_d_k2(self):
        tup = JnfTuple([Jnf([[7, 5]]), Jnf([[3, 3, 3, 3]]), Jnf([[2] * 6])])
        tag = match_special(tup)
        assert tag.kind is SpecialKind.ALMOST_D and tag.k == 2

    def test_k1_not_special(self):
        tup = JnfTuple([Jnf([[2]])] * 4)
        assert match_special(tup).kind is SpecialKind.NONE

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "kind",
        [SpecialKind.SPECIAL_A, SpecialKind.SPECIAL_B, SpecialKind.SPECIAL_C, SpecialKind.SPECIAL_D],
    )
    def test_special_rows_roundtrip_and_kappa0(self, kind, k):
        tup = special_case_tuple(kind, k)
        tag = match_special(tup)
        assert tag.kind is kind and tag.k == k
        assert kappa_of(tup) == 0
        assert check_conditions(tup).omega

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "kind",
        [SpecialKind.ALMOST_A, SpecialKind.ALMOST_B, SpecialKind.ALMOST_C, SpecialKind.ALMOST_D],
    )
    def test_almost_rows_roundtrip(self, kind, k):
        tup = almost_special_tuple(kind, k)
        tag = match_special(tup)
        assert tag.kind is kind and tag.k == k
        assert check_conditions(tup).omega

    def test_multi_slot_entries_never_match(self):
        tup = JnfTuple([Jnf([[2], [2]])] * 4)
        assert match_special(tup).kind is SpecialKind.NONE


class TestConstructorArguments:
    """The row constructors take an int parameter in range, bools excluded,
    and raise InvalidInputError naming it."""

    @pytest.mark.parametrize("k", [0, -1, 1.5, "2", True, None])
    def test_special_k(self, k):
        message = f"^k must be an int >= 1, got {re.escape(repr(k))}$"
        with pytest.raises(InvalidInputError, match=message):
            special_case_tuple(SpecialKind.SPECIAL_A, k)

    @pytest.mark.parametrize("k", [1, 0, 2.5, "3", True, None])
    def test_almost_special_k(self, k):
        message = f"^k must be an int >= 2, got {re.escape(repr(k))}$"
        with pytest.raises(InvalidInputError, match=message):
            almost_special_tuple(SpecialKind.ALMOST_B, k)

    @pytest.mark.parametrize("n", ["3", 3.0, True, None])
    def test_rigid_family_n(self, n):
        message = f"^n must be an int, got {re.escape(repr(n))}$"
        with pytest.raises(InvalidInputError, match=message):
            rigid_family_tuple(RigidFamily.HYPERGEOMETRIC, n)

    @pytest.mark.parametrize("tag", ["hypergeometric", None, SpecialKind.SPECIAL_A])
    def test_rigid_family_tag(self, tag):
        with pytest.raises(InvalidInputError, match="^tag must be a RigidFamily, got "):
            rigid_family_tuple(tag, 3)

    @pytest.mark.parametrize("build", [special_case_tuple, almost_special_tuple])
    @pytest.mark.parametrize("kind", [RigidFamily.HYPERGEOMETRIC, "special_a", [1]])
    def test_kind_that_is_not_a_row(self, build, kind):
        with pytest.raises(InvalidInputError, match="^not an? (almost-)?special row: "):
            build(kind, 2)

    def test_smallest_parameters_build(self):
        assert special_case_tuple(SpecialKind.SPECIAL_B, 1).n == 3
        assert almost_special_tuple(SpecialKind.ALMOST_B, 2).n == 6
        assert rigid_family_tuple(RigidFamily.HYPERGEOMETRIC, 2).n == 2


class TestUnipotentDecision:
    def test_special_not_solvable_both(self):
        tup = special_case_tuple(SpecialKind.SPECIAL_A, 2)
        for problem in ("dsp", "weak_dsp"):
            for mode in ("additive", "multiplicative"):
                assert decide_unipotent_nilpotent(tup, problem, mode) is Verdict.NOT_SOLVABLE

    def test_omega_failure(self):
        tup = JnfTuple([Jnf([[2, 2, 1]])] * 3)  # r_j = 2, sum 6 < 10
        assert not check_conditions(tup).omega
        assert decide_unipotent_nilpotent(tup, "dsp", "additive") is Verdict.NOT_SOLVABLE

    def test_almost_special_verdicts(self):
        tup = almost_special_tuple(SpecialKind.ALMOST_B, 2)
        assert decide_unipotent_nilpotent(tup, "weak_dsp", "additive") is Verdict.SOLVABLE
        assert decide_unipotent_nilpotent(tup, "weak_dsp", "multiplicative") is Verdict.SOLVABLE
        assert decide_unipotent_nilpotent(tup, "dsp", "additive") is Verdict.NOT_SOLVABLE
        assert decide_unipotent_nilpotent(tup, "dsp", "multiplicative") is Verdict.UNKNOWN

    def test_k1_solvable(self):
        for kind in (SpecialKind.SPECIAL_A, SpecialKind.SPECIAL_B,
                     SpecialKind.SPECIAL_C, SpecialKind.SPECIAL_D):
            tup = special_case_tuple(kind, 1)
            assert decide_unipotent_nilpotent(tup, "dsp", "additive") is Verdict.SOLVABLE

    def test_plain_omega_tuple_solvable(self):
        tup = JnfTuple([Jnf([[2, 1]])] * 4)  # n=3, r=1... omega: 4 >= 6 fails
        assert decide_unipotent_nilpotent(tup, "dsp", "additive") is Verdict.NOT_SOLVABLE
        tup2 = JnfTuple([Jnf([[1, 1, 1, 1]]), Jnf([[2, 2]]), Jnf([[2, 2]]), Jnf([[2, 2]])])
        # r = (0, 2, 2, 2): sum 6 < 8, omega fails
        assert decide_unipotent_nilpotent(tup2, "dsp", "additive") is Verdict.NOT_SOLVABLE

    def test_requires_single_slot(self):
        tup = JnfTuple([diag(1, 1)] * 3)
        with pytest.raises(NotApplicableError):
            decide_unipotent_nilpotent(tup, "dsp", "additive")

    def test_never_solvable_without_omega(self):
        import itertools

        from dspkit.enumerate import all_partitions

        for n in range(2, 7):
            singles = [Jnf([p]) for p in all_partitions(n)]
            for m in (3, 4):
                for combo in itertools.combinations_with_replacement(singles, m):
                    tup = JnfTuple(combo)
                    if check_conditions(tup).omega:
                        continue
                    for problem in ("dsp", "weak_dsp"):
                        for mode in ("additive", "multiplicative"):
                            verdict = decide_unipotent_nilpotent(tup, problem, mode)
                            assert verdict is Verdict.NOT_SOLVABLE, tup


GOOD9 = JnfTuple(
    [
        Jnf([[2, 2, 1, 1], [1, 1, 1]]),
        Jnf([[2, 2, 1, 1], [1, 1, 1]]),
        Jnf([[2, 2, 1, 1], [2, 1]]),
    ]
)


def good9_specs():
    evs = [(AdditiveScalar(1), AdditiveScalar(-2))] * 3
    return [
        ClassSpec(list(zip(e.slots, ev)), "additive")
        for e, ev in zip(GOOD9.entries, evs)
    ]


class TestGoodAndSpecialDiagonal:
    def test_good_n9(self):
        assert is_good(GOOD9)
        assert kappa_of(GOOD9) == 2

    def test_pair_not_good(self):
        assert not is_good(JnfTuple([diag(1, 1), diag(1, 1)]))

    def test_hypergeometric_good(self):
        assert is_good(JnfTuple([diag(1, 1)] * 3))

    def test_n9_not_special_diagonal(self):
        specs = good9_specs()
        assert sum(specs[0].multiplicities()) == 9
        assert is_special_diagonal(specs) is None

    def test_n9_quotient_is_not_good(self):
        # the forced quotient candidate: diagonal multiplicities (2,1) x 3
        quotient = JnfTuple([diag(2, 1)] * 3)
        assert not is_good(quotient)

    def test_positive_example_n2(self):
        specs = [
            ClassSpec([(Partition([2]), ONE)], "multiplicative"),
            ClassSpec([(Partition([2]), MINUS_ONE)], "multiplicative"),
            ClassSpec([(Partition([2]), MINUS_ONE)], "multiplicative"),
        ]
        assert kappa_of(specs_tuple(specs)) == 2
        witness = is_special_diagonal(specs)
        assert witness is not None
        assert witness.n1 == 2 and witness.l == 1
        # structural re-check of the witness
        for spec, quotient in zip(specs, witness.quotient):
            assert all(m % witness.n1 == 0 for m in spec.multiplicities())
            assert quotient.jnf.is_diagonal()
        assert is_good(specs_tuple(witness.quotient))
        verdict, _ = weak_verdict_kappa2(specs)
        assert verdict is Verdict.NOT_SOLVABLE

    def test_quotient_product_must_be_one(self):
        # same blocks, but the once-reduced product is i, not 1: not special
        specs = [
            ClassSpec([(Partition([2]), ONE)], "multiplicative"),
            ClassSpec([(Partition([2]), I_UNIT)], "multiplicative"),
            ClassSpec([(Partition([2]), I_UNIT)], "multiplicative"),
        ]
        assert kappa_of(specs_tuple(specs)) == 2
        assert is_special_diagonal(specs) is None
        verdict, witness = weak_verdict_kappa2(specs)
        assert verdict is Verdict.UNKNOWN and witness is None

    def test_gcd_one_multiplicities(self):
        tup = rigid_family_tuple(RigidFamily.HYPERGEOMETRIC, 3)
        specs = []
        for e in tup.entries:
            evs = [AdditiveScalar(i) for i in range(e.num_slots)]
            if e is tup.entries[-1]:
                evs[-1] = AdditiveScalar(-9)  # fix the total sum to 0
            specs.append(ClassSpec(list(zip(e.slots, evs)), "additive"))
        # multiplicities include 1, so no n1 > 1 divides them all
        assert is_special_diagonal(specs) is None

    def test_kappa_not_two_raises(self):
        specs = [
            ClassSpec([(Partition([2, 2]), ONE)], "multiplicative"),
            ClassSpec([(Partition([2, 2]), MINUS_ONE)], "multiplicative"),
        ]
        with pytest.raises(KappaNotTwoError):
            is_special_diagonal(specs)


def example41_specs(first):
    return [
        ClassSpec([(Partition([2, 2]), first)], "multiplicative"),
        ClassSpec([(Partition([2, 2]), ONE)], "multiplicative"),
        ClassSpec([(Partition([2, 2]), ONE)], "multiplicative"),
        ClassSpec([(Partition([2, 2]), ONE)], "multiplicative"),
    ]


def kappa0_specs(rng, mode):
    """Seeded specs of rigidity index 0 with multiplicity gcd above 1 (the
    D4, E6 and E7 star shapes scaled by k, and four 2+2 Jordan classes), n <= 8.
    Small denominators plant extra relations; the last slot is solved from
    the global constraint."""
    k = rng.choice([2, 2, 3, 4])
    ones = (1,) * k
    shapes = [[[ones, ones]] * 4, [[ones] * 3] * 3, [[ones] * 4] * 2 + [[ones * 2] * 2]]
    shapes = [s for s in shapes if len(s[0]) * k <= 8] + [[[(2, 2)]] * 4]
    shape = rng.choice(shapes)
    den = rng.choice([4, 6, 97])
    while True:
        values, running = [], Fraction(0)
        for ci, cls in enumerate(shape):
            vals = []
            for si, part in enumerate(cls):
                m = sum(part)
                if ci == len(shape) - 1 and si == len(cls) - 1:
                    if mode == "additive":
                        vals.append(AdditiveScalar(-running / m))
                    else:
                        vals.append(MultiplicativeScalar(1, (-running + rng.randrange(m)) / m))
                else:
                    a = Fraction(rng.randrange(-2 * den, 2 * den), den)
                    running += m * a
                    vals.append(AdditiveScalar(a) if mode == "additive" else MultiplicativeScalar(1, a % 1))
            values.append(vals)
        if all(len(set(vals)) == len(vals) for vals in values):
            break
    specs = [
        ClassSpec([(Partition(p), v) for p, v in zip(cls, vals)], mode)
        for cls, vals in zip(shape, values)
    ]
    assert check_evs(specs) and kappa_of(specs_tuple(specs)) == 0 and gcd_reduction(specs).d > 1
    return specs


def per_k_counts(specs, state_budget=DEFAULT_STATE_BUDGET):
    """One `relation_selection_count` call per k, each growing its own DP."""
    for k in range(1, specs[0].n):
        yield relation_selection_count(specs, k, state_budget)


def counts_until_overrun(counts) -> list:
    out = []
    try:
        for count in counts:
            out.append(count)
    except ResourceExceededError as exc:
        out.append(str(exc))
    return out


class TestWeakKappa0:
    def test_one_dp_across_k_matches_per_k_counts(self, monkeypatch):
        verdicts, overruns = Counter(), Counter()
        for seed in range(60):
            mode = ("additive", "multiplicative")[seed % 2]
            specs = kappa0_specs(random.Random(seed), mode)
            for budget in (DEFAULT_STATE_BUDGET, 1000, 200):
                got = counts_until_overrun(_relation_counts(specs, budget))
                assert got == counts_until_overrun(per_k_counts(specs, budget)), (seed, budget)
                if isinstance(got[-1], str):
                    overruns[budget, len(got)] += 1
            verdict = weak_verdict_kappa0(specs)
            with monkeypatch.context() as m:
                m.setattr(genericity, "_relation_counts", per_k_counts)
                assert weak_verdict_kappa0(specs) is verdict, seed
            verdicts[verdict] += 1
        # every verdict occurs, and some budgets overrun past k = 1
        assert set(verdicts) == {Verdict.SOLVABLE, Verdict.NOT_SOLVABLE, Verdict.NOT_APPLICABLE}
        assert any(budget == 200 and k > 1 for budget, k in overruns)

    def test_example41_primitive_solvable(self):
        assert weak_verdict_kappa0(example41_specs(I_UNIT)) is Verdict.SOLVABLE

    def test_example41_nonprimitive_not_solvable(self):
        assert weak_verdict_kappa0(example41_specs(MINUS_ONE)) is Verdict.NOT_SOLVABLE

    def test_additive_not_solvable(self):
        specs = [
            ClassSpec([(Partition([2, 2]), AdditiveScalar(0))], "additive")
            for _ in range(4)
        ]
        assert weak_verdict_kappa0(specs) is Verdict.NOT_SOLVABLE

    def test_d1_not_applicable(self):
        # kappa = 0 with a multiplicity-1 eigenvalue present
        tup = JnfTuple([Jnf([[2], [1], [1]]), diag(1, 1, 1, 1), diag(2, 2)])
        assert kappa_of(tup) == 0
        from dspkit.genericity import sample_generic

        specs = sample_generic(tup, "additive", seed=4)
        assert weak_verdict_kappa0(specs) is Verdict.NOT_APPLICABLE

    def test_wrong_kappa_rejected(self):
        specs = [
            ClassSpec([(Partition([1]), AdditiveScalar(1)), (Partition([1]), AdditiveScalar(-2))], "additive"),
            ClassSpec([(Partition([1]), AdditiveScalar(2)), (Partition([1]), AdditiveScalar(4))], "additive"),
            ClassSpec([(Partition([1]), AdditiveScalar(-3)), (Partition([1]), AdditiveScalar(-2))], "additive"),
        ]
        with pytest.raises(InvalidInputError):
            weak_verdict_kappa0(specs)
