"""Eigenvalue constraints, non-genericity relations, gcd reduction, sampler."""

from fractions import Fraction

import pytest

from dspkit.errors import (
    InvalidInputError,
    ResourceExceededError,
    SamplingExhaustedError,
    SlotCollisionError,
    UnsupportedScalarError,
)
from dspkit.genericity import (
    ClassSpec,
    check_evs,
    check_generalized_beta,
    exp_map,
    find_relation,
    gcd_reduction,
    relation_selection_count,
    sample_generic,
)
from dspkit.decide import check_conditions
from dspkit.jnf import Jnf, JnfTuple, Partition
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar

from oracles import naive_relation_exists

ONE = MultiplicativeScalar.one()
I_UNIT = MultiplicativeScalar(1, Fraction(1, 4))
MINUS_ONE = MultiplicativeScalar(1, Fraction(1, 2))


def single_slot_specs(mode, blocks, eigenvalues):
    return [
        ClassSpec([(Partition(blocks_j), ev)], mode)
        for blocks_j, ev in zip(blocks, eigenvalues)
    ]


def example41(first):
    """Four classes of two 2-blocks sharing one eigenvalue; n = 4."""
    return single_slot_specs(
        "multiplicative", [[2, 2]] * 4, [first, ONE, ONE, ONE]
    )


class TestCheckEvs:
    def test_additive_strata_triple(self):
        # eigenvalues (a,b),(c,d),(g,h) with a+c+g = b+d+h = 0
        specs = [
            ClassSpec([(Partition([1]), AdditiveScalar(1)), (Partition([1]), AdditiveScalar(-2))], "additive"),
            ClassSpec([(Partition([1]), AdditiveScalar(2)), (Partition([1]), AdditiveScalar(4))], "additive"),
            ClassSpec([(Partition([1]), AdditiveScalar(-3)), (Partition([1]), AdditiveScalar(-2))], "additive"),
        ]
        assert check_evs(specs)

    def test_multiplicative_negative(self):
        # single eigenvalue of multiplicity 2 per class: product i^2 = -1
        specs = single_slot_specs("multiplicative", [[2]] * 4, [I_UNIT, ONE, ONE, ONE])
        assert not check_evs(specs)

    def test_all_zero_additive(self):
        specs = single_slot_specs(
            "additive", [[2, 2]] * 4, [AdditiveScalar(0)] * 4
        )
        assert check_evs(specs)

    def test_mixed_modes_rejected(self):
        a = ClassSpec([(Partition([1, 1]), AdditiveScalar(0))], "additive")
        m = ClassSpec([(Partition([1, 1]), ONE)], "multiplicative")
        with pytest.raises(InvalidInputError):
            check_evs([a, m])


class TestFindRelation:
    def test_example41_generic(self):
        specs = example41(I_UNIT)
        assert check_evs(specs)
        assert find_relation(specs) is None

    def test_example41_nongeneric_witness(self):
        specs = example41(MINUS_ONE)
        assert check_evs(specs)
        witness = find_relation(specs)
        assert witness is not None
        assert witness.cardinality == 2
        assert witness.selections == ((2,), (2,), (2,), (2,))

    def test_sampler_output_is_generic(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "additive", seed=5)
        assert find_relation(specs) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_enumeration(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.choice([2, 3, 4, 5])
        # random small tuple with random exact eigenvalues satisfying evs
        from dspkit.enumerate import all_jnfs

        jnfs = [rng.choice(all_jnfs(n)) for _ in range(3)]
        tup = JnfTuple(jnfs)
        mode = rng.choice(["additive", "multiplicative"])
        try:
            specs = sample_generic(tup, mode, seed=seed, max_retries=40)
        except SamplingExhaustedError:
            # force the gcd relation instead: constant assignments
            if mode == "additive":
                specs = [
                    ClassSpec(
                        [(s, AdditiveScalar(j - 1)) for j, s in enumerate(e.slots)],
                        mode,
                    )
                    for e in tup.entries
                ]
                if not check_evs(specs):
                    return
            else:
                return
        got = find_relation(specs)
        naive_any = any(naive_relation_exists(specs, k) for k in range(1, n))
        assert (got is not None) == naive_any
        if got is not None:
            assert naive_relation_exists(specs, got.cardinality)
            for k in range(1, got.cardinality):
                assert not naive_relation_exists(specs, k)

    def test_witness_counts_match_multiplicities(self):
        specs = example41(MINUS_ONE)
        witness = find_relation(specs)
        for spec, sel in zip(specs, witness.selections):
            assert len(sel) == spec.jnf.num_slots
            assert sum(sel) == witness.cardinality
            assert all(c <= m for c, m in zip(sel, spec.multiplicities()))


class TestRelationCounting:
    def test_counts_example41(self):
        generic = example41(I_UNIT)
        for k in (1, 2, 3):
            assert relation_selection_count(generic, k) == 0
        nongeneric = example41(MINUS_ONE)
        assert relation_selection_count(nongeneric, 1) == 0
        assert relation_selection_count(nongeneric, 2) == 1
        assert relation_selection_count(nongeneric, 3) == 0


class TestStateBudget:
    """A budget overrun names the cardinality k, the states used and the cap."""

    def test_find_relation(self):
        with pytest.raises(ResourceExceededError) as info:
            find_relation(example41(I_UNIT), state_budget=3)
        assert str(info.value) == (
            "relation search exceeded its state budget at cardinality k=1: "
            "4 states used, budget 3"
        )

    def test_relation_selection_count(self):
        with pytest.raises(ResourceExceededError) as info:
            relation_selection_count(example41(MINUS_ONE), 2, state_budget=2)
        assert str(info.value) == (
            "relation counting exceeded its state budget at cardinality k=2: "
            "3 states used, budget 2"
        )

    def test_generalized_beta(self, monkeypatch):
        import dspkit.genericity as genericity

        monkeypatch.setattr(genericity, "DEFAULT_STATE_BUDGET", 1)
        spec = ClassSpec(
            [(Partition([1]), AdditiveScalar(1)), (Partition([1]), AdditiveScalar(-1))],
            "additive",
        )
        with pytest.raises(ResourceExceededError) as info:
            check_generalized_beta([spec] * 3)
        assert str(info.value) == (
            "generalized rank condition exceeded its state budget at cardinality k=1: "
            "2 states used, budget 1"
        )


class TestGcdReduction:
    def test_example41_generic_case(self):
        red = gcd_reduction(example41(I_UNIT))
        assert red.d == 4
        assert red.xi == I_UNIT
        assert red.xi_primitive is True
        # the two-fold reduction of the same product is -1, a primitive
        # square root of unity; the four-fold one is i, primitive of order 4
        assert (red.xi**2) == MINUS_ONE
        assert (red.xi**2).is_primitive_root(2)

    def test_example41_nongeneric_case(self):
        red = gcd_reduction(example41(MINUS_ONE))
        assert red.d == 4
        assert red.xi == MINUS_ONE
        assert red.xi_primitive is False  # order 2 root among d = 4
        assert (red.xi**2).is_one()

    def test_multiplicity_one_gives_d1(self):
        with_unit_slot = ClassSpec(
            [(Partition([1]), ONE), (Partition([1]), MINUS_ONE)], "multiplicative"
        )
        others = single_slot_specs("multiplicative", [[2], [2]], [I_UNIT, MINUS_ONE])
        red = gcd_reduction([with_unit_slot] + others)
        assert red.d == 1
        assert red.xi is None and red.xi_primitive is None

    def test_additive_has_no_xi(self):
        specs = single_slot_specs(
            "additive", [[2, 2]] * 4, [AdditiveScalar(0)] * 4
        )
        red = gcd_reduction(specs)
        assert red.d == 4
        assert red.xi is None


class TestGeneralizedBeta:
    def test_unipotent_coincides_with_omega(self):
        from dspkit.classify import SpecialKind, almost_special_tuple, special_case_tuple

        cases = [special_case_tuple(SpecialKind.SPECIAL_A, 2),
                 special_case_tuple(SpecialKind.SPECIAL_D, 2),
                 almost_special_tuple(SpecialKind.ALMOST_B, 2),
                 JnfTuple([Jnf([[2, 2, 1]])] * 3)]
        for tup in cases:
            specs = [
                ClassSpec([(e.slots[0], ONE)], "multiplicative") for e in tup.entries
            ]
            assert check_generalized_beta(specs) == check_conditions(tup).omega, tup

    def test_generic_coincides_with_beta_small_exhaustive(self):
        import itertools

        from dspkit.enumerate import all_jnfs

        checked = 0
        for n in (2, 3):
            for combo in itertools.combinations_with_replacement(all_jnfs(n), 3):
                tup = JnfTuple(combo)
                try:
                    specs = sample_generic(tup, "additive", seed=17, max_retries=60)
                except SamplingExhaustedError:
                    continue
                assert check_generalized_beta(specs) == check_conditions(tup).beta, tup
                checked += 1
        assert checked > 50

    def test_generic_coincides_with_beta_sampled(self):
        for seed in range(8):
            import random

            rng = random.Random(seed + 100)
            from dspkit.enumerate import all_jnfs

            n = rng.choice([4, 5, 6])
            mode = "multiplicative" if seed % 2 else "additive"
            tup = JnfTuple([rng.choice(all_jnfs(n)) for _ in range(3)])
            try:
                specs = sample_generic(tup, mode, seed=seed, max_retries=50)
            except SamplingExhaustedError:
                continue
            assert check_generalized_beta(specs) == check_conditions(tup).beta, tup

    def test_single_class_rejected(self):
        spec = ClassSpec([(Partition([1, 1]), ONE)], "multiplicative")
        with pytest.raises(InvalidInputError):
            check_generalized_beta([spec])


class TestSampler:
    def test_deterministic(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        assert sample_generic(tup, "additive", seed=3) == sample_generic(
            tup, "additive", seed=3
        )

    def test_hypergeometric_additive(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "additive", seed=1)
        values = [ev for s in specs for ev in s.eigenvalues]
        assert len(values) == 6
        total = AdditiveScalar.zero()
        for v in values:
            total = total + v
        assert total.is_zero()

    def test_multiplicative_modulus_one(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "multiplicative", seed=2)
        assert check_evs(specs)
        assert all(ev.modulus == 1 for s in specs for ev in s.eigenvalues)

    def test_forced_relation_exhausts(self):
        # all multiplicities even: the halved selection is always a relation
        tup = JnfTuple([Jnf([[1, 1], [1, 1]])] * 3)
        with pytest.raises(SamplingExhaustedError):
            sample_generic(tup, "additive", seed=0, max_retries=60)

    def test_n1_tuple(self):
        tup = JnfTuple([Jnf([[1]])] * 3)
        specs = sample_generic(tup, "additive", seed=9)
        assert check_evs(specs)


class TestExpMap:
    def test_basic_values(self):
        spec = ClassSpec(
            [
                (Partition([2]), AdditiveScalar(0)),
                (Partition([1]), AdditiveScalar(Fraction(1, 2))),
            ],
            "additive",
        )
        out = exp_map(spec)
        assert out.mode == "multiplicative"
        assert set(out.eigenvalues) == {ONE, MINUS_ONE}
        assert out.jnf == spec.jnf

    def test_collision(self):
        spec = ClassSpec(
            [
                (Partition([1]), AdditiveScalar(0)),
                (Partition([1]), AdditiveScalar(1)),
            ],
            "additive",
        )
        with pytest.raises(SlotCollisionError):
            exp_map(spec)

    def test_imaginary_unsupported(self):
        spec = ClassSpec(
            [
                (Partition([1]), AdditiveScalar(0, 1)),
                (Partition([1]), AdditiveScalar(1)),
            ],
            "additive",
        )
        with pytest.raises(UnsupportedScalarError):
            exp_map(spec)


class TestSymmetryProperties:
    def test_entry_permutation_invariance(self):
        specs = example41(MINUS_ONE)
        rotated = specs[1:] + specs[:1]
        assert (find_relation(specs) is None) == (find_relation(rotated) is None)

    def test_additive_scaling_preserves_genericity(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "additive", seed=11)
        assert find_relation(specs) is None
        scaled = [
            ClassSpec(
                [(s, ev.scale(Fraction(7, 3))) for s, ev in zip(sp.jnf.slots, sp.eigenvalues)],
                "additive",
            )
            for sp in specs
        ]
        assert find_relation(scaled) is None
