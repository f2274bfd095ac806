"""Eigenvalue constraints, non-genericity relations, gcd reduction, sampler."""

import functools
import itertools
import math
import random
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
    Assignment,
    ClassSpec,
    _assignment,
    _integer_keys,
    _relation_counts,
    check_evs,
    check_generalized_beta,
    exp_map,
    find_relation,
    gcd_reduction,
    relation_selection_count,
    sample_generic,
    specs_tuple,
)
from dspkit.classify import RigidFamily, rigid_family_tuple
from dspkit.decide import check_conditions
from dspkit.jnf import Jnf, JnfTuple, Partition, kappa_of
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar

from oracles import (
    fraction_check_evs,
    fraction_class_order,
    fraction_well_scaled,
    half_split_relations,
    naive_relation_counts,
)

ONE = MultiplicativeScalar.one()
I_UNIT = MultiplicativeScalar(1, Fraction(1, 4))
MINUS_ONE = MultiplicativeScalar(1, Fraction(1, 2))
EIGHTH_ROOT = MultiplicativeScalar(1, Fraction(1, 8))


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
        naive = naive_relation_counts(specs)
        assert (got is not None) == any(naive)
        if got is not None:
            assert naive[got.cardinality - 1] and not any(naive[: got.cardinality - 1])

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

    @pytest.mark.parametrize("cardinality", [-1, 0, 4, 5, True, 2.0])
    def test_cardinality_outside_1_to_n_minus_1_rejected(self, cardinality):
        # n = 4: a relation takes k < n copies, and k = 0 selects nothing
        with pytest.raises(InvalidInputError, match=r"cardinality must be in 1\.\.3, got "):
            relation_selection_count(example41(MINUS_ONE), cardinality)


def random_small_specs(rng, mode, forced):
    """Random specs with n <= 5 and small exact eigenvalues drawn from a
    short list, so that relations are frequent.

    With `forced`, every multiplicity is even and the last eigenvalue is
    solved from the global sum-0 / product-1 constraint, so halving every
    multiplicity gives a relation at n/2.
    """
    n = rng.choice([2, 4]) if forced else rng.randint(2, 5)
    entries = rng.randint(2, 4 if n <= 4 else 3)
    mults = []
    for _ in range(entries):
        left, row = n, []
        while left:
            m = 2 * rng.randint(1, left // 2) if forced else rng.randint(1, left)
            row.append(m)
            left -= m
        mults.append(row)
    while True:
        if mode == "additive":
            values = [[AdditiveScalar(rng.randint(-2, 2), rng.choice([0, 0, 1])) for _ in row]
                      for row in mults]
        else:
            moduli = [1] if forced else [1, 1, 2, Fraction(1, 2)]
            values = [[MultiplicativeScalar(rng.choice(moduli), Fraction(rng.randint(0, 3), 4))
                       for _ in row] for row in mults]
        if forced:
            pairs = [(m, v) for row, vals in zip(mults, values) for m, v in zip(row, vals)]
            last = mults[-1][-1]
            if mode == "additive":
                total = sum((v.scale(m) for m, v in pairs[:-1]), AdditiveScalar.zero())
                values[-1][-1] = AdditiveScalar(-total.re / last, -total.im / last)
            else:
                total = sum(m * v.arg for m, v in pairs[:-1])
                values[-1][-1] = MultiplicativeScalar(1, -total / last)
        if all(len(set(vals)) == len(vals) for vals in values):
            break
    specs = [
        ClassSpec([(Partition([1] * m), v) for m, v in zip(row, vals)], mode)
        for row, vals in zip(mults, values)
    ]
    assert not forced or check_evs(specs)
    return specs


def check_against_oracle(specs, forced=False, brute_force=True):
    """Assert the count at every k and the smallest witness (or None) against
    the half-split reference DP and `check_evs` against the Fraction-sum
    oracle; with `brute_force`, also the counts against exhaustive
    enumeration and `relation_selection_count` at every k.  Return the
    witness cardinality or None."""
    n = specs[0].n
    mode = specs[0].mode
    assert check_evs(specs) == fraction_check_evs(specs)
    counts, reference = half_split_relations(specs)
    assert list(_relation_counts(specs)) == counts
    if brute_force:
        assert counts == naive_relation_counts(specs)
        assert [relation_selection_count(specs, k) for k in range(1, n)] == counts
    witness = find_relation(specs)
    if witness is None:
        assert not any(counts) and not forced and reference is None
        return None
    k = witness.cardinality
    assert not any(counts[: k - 1]) and counts[k - 1] > 0 and reference[0] == k
    if forced:
        assert k <= n // 2
    value = AdditiveScalar.zero() if mode == "additive" else MultiplicativeScalar.one()
    for spec, sel in zip(specs, witness.selections):
        assert len(sel) == spec.jnf.num_slots and sum(sel) == k
        for ev, c, m in zip(spec.eigenvalues, sel, spec.multiplicities()):
            assert 0 <= c <= m
            value = value + ev.scale(c) if mode == "additive" else value * ev**c
    assert value.is_zero() if mode == "additive" else value.is_one()
    return k


SHARED_MODULI = [2, 4, 6, Fraction(9, 2), Fraction(2, 3), 12]
P1, P2 = 1_000_003, 9_999_991


def encoding_value(rng, case):
    """One eigenvalue aimed at one part of the DPs' integer keys."""
    if case == "nonreal":  # a selection of every im copy reaches |im| = B: W = B aliases
        return AdditiveScalar(rng.randint(-2, 2), rng.randint(0, 1))
    if case == "shared_moduli":  # only a coprime base splits 4, 6, 12 over 2 and 3
        modulus = rng.choice(SHARED_MODULI)
        return MultiplicativeScalar(rng.choice([modulus, 1 / modulus]), Fraction(rng.randint(0, 1), 2))
    if case == "large_primes_additive":
        return AdditiveScalar(Fraction(rng.randint(-2, 2), P1), Fraction(rng.randint(-1, 1), P2))
    if case == "large_primes_multiplicative":
        return MultiplicativeScalar(rng.choice([1, 2, Fraction(1, 2)]),
                                    Fraction(rng.choice([0, 1, 2, P1 - 1, P1 - 2]), P1))
    if case == "mixed_denominators_additive":  # classes scaled by different lcms
        return AdditiveScalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 4])),
                              Fraction(rng.randint(-2, 2), rng.choice([1, 3, 5])))
    if case == "mixed_denominators_multiplicative":
        return MultiplicativeScalar(rng.choice([1, 2, Fraction(1, 3)]),
                                    Fraction(rng.randint(0, 5), rng.choice([2, 3, 4, 6])))
    # negative keys: moduli below 1 and args whose sums carry past 1
    return MultiplicativeScalar(rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), 1, 6]),
                                Fraction(rng.randint(0, 2), 3))


def encoding_specs(rng, case):
    """Random diagonal specs with n <= 4 and 2-3 classes of `case` values."""
    n = rng.randint(2, 4)
    mults = []
    for _ in range(rng.randint(2, 3)):
        left, row = n, []
        while left:
            row.append(rng.randint(1, left))
            left -= row[-1]
        mults.append(row)
    while True:
        values = [[encoding_value(rng, case) for _ in row] for row in mults]
        if all(len(set(vals)) == len(vals) for vals in values):
            break
    mode = "additive" if isinstance(values[0][0], AdditiveScalar) else "multiplicative"
    return [
        ClassSpec([(Partition([1] * m), v) for m, v in zip(row, vals)], mode)
        for row, vals in zip(mults, values)
    ]


def closed_specs(rng, case):
    """`encoding_specs` plus a diagonal class of `case` values whose last
    eigenvalue closes the global constraint, solved in plain Fractions."""
    specs = encoding_specs(rng, case)
    n, mode = specs[0].n, specs[0].mode
    given = [(ev, m) for s in specs for ev, m in zip(s.eigenvalues, s.multiplicities())]
    while True:
        values = [encoding_value(rng, case) for _ in range(n - 1)]
        pairs = given + [(v, 1) for v in values]
        if mode == "additive":
            values.append(AdditiveScalar(-sum(ev.re * m for ev, m in pairs),
                                         -sum(ev.im * m for ev, m in pairs)))
        else:
            values.append(MultiplicativeScalar(1 / math.prod(ev.modulus**m for ev, m in pairs),
                                               -sum(ev.arg * m for ev, m in pairs)))
        if len(set(values)) == n:
            return specs + [ClassSpec([(Partition([1]), v) for v in values], mode)]


def perturbed(specs, shift):
    """`specs` with the last eigenvalue of the last class replaced by
    `shift(value)`, or None when that repeats an eigenvalue of the class."""
    last = specs[-1]
    values = list(last.eigenvalues)
    values[-1] = shift(values[-1])
    if len(set(values)) < len(values):
        return None
    return specs[:-1] + [ClassSpec(list(zip(last.jnf.slots, values)), last.mode)]


SHIFTS = {
    "additive": [
        (lambda v: AdditiveScalar(v.re + Fraction(1, P1), v.im), False),
        (lambda v: AdditiveScalar(v.re, v.im - 1), False),
        (lambda v: AdditiveScalar(v.re + Fraction(1, 3), v.im - Fraction(1, 3)), False),
    ],
    "multiplicative": [
        (lambda v: MultiplicativeScalar(v.modulus * 2, v.arg), False),
        (lambda v: MultiplicativeScalar(v.modulus / 6, v.arg), False),
        (lambda v: MultiplicativeScalar(v.modulus, v.arg + Fraction(1, P1)), False),
        (lambda v: MultiplicativeScalar(v.modulus, v.arg - 1), True),  # the same value
    ],
}


class TestConstraintOracle:
    """`check_evs` on the integer keys against the Fraction-sum oracle."""

    @pytest.mark.parametrize(
        "case",
        ["nonreal", "shared_moduli", "large_primes_additive", "large_primes_multiplicative",
         "negative_keys"],
    )
    def test_closed_and_perturbed(self, case):
        for seed in range(60):
            rng = random.Random(seed)
            given = encoding_specs(random.Random(seed), case)
            assert check_evs(given) == fraction_check_evs(given)
            specs = closed_specs(rng, case)
            assert check_evs(specs) and fraction_check_evs(specs)
            for shift, holds in SHIFTS[specs[0].mode]:
                other = perturbed(specs, shift)
                if other is not None:
                    assert check_evs(other) == fraction_check_evs(other) == holds, (case, seed)

    def test_rejects_what_assignment_rejects(self):
        a = ClassSpec([(Partition([1]), AdditiveScalar(0))], "additive")
        b = ClassSpec([(Partition([1, 1]), AdditiveScalar(0))], "additive")
        for specs in ([a], [a, b]):
            for call in (Assignment, check_evs):
                with pytest.raises(InvalidInputError):
                    call(specs)


ENCODING_CASES = ["nonreal", "shared_moduli", "large_primes_additive",
                  "large_primes_multiplicative", "negative_keys",
                  "mixed_denominators_additive", "mixed_denominators_multiplicative"]


def fraction_value(pairs, counts, mode):
    """The value of `counts[i]` copies of each eigenvalue of `pairs`, summed
    (multiplied) on the scalars' components in plain Fractions, as a scalar."""
    picked = [(ev, c) for (ev, _), c in zip(pairs, counts)]
    if mode == "additive":
        return AdditiveScalar(sum((Fraction(ev.re) * c for ev, c in picked), Fraction(0)),
                              sum((Fraction(ev.im) * c for ev, c in picked), Fraction(0)))
    return MultiplicativeScalar(math.prod(Fraction(ev.modulus) ** c for ev, c in picked),
                                sum(Fraction(ev.arg) * c for ev, c in picked) % 1)


class TestKeyMap:
    """The DPs' keys on every partial selection and its inverse, against
    Fraction sums: the selections of the DP states, not only the full ones
    of a relation."""

    @pytest.mark.parametrize("case", ENCODING_CASES)
    def test_every_sub_selection(self, case):
        for seed in range(60):
            specs = Assignment(encoding_specs(random.Random(seed), case))
            modulus, slots = _integer_keys(specs)
            pairs = [(ev, m) for s in specs for ev, m in zip(s.eigenvalues, s.multiplicities())]
            assert [m for entry in slots for _, m in entry] == [m for _, m in pairs]
            keys = [key for entry in slots for key, _ in entry]
            by_key = {}
            for counts in itertools.product(*(range(m + 1) for _, m in pairs)):
                key = sum(c * k % modulus for c, k in zip(counts, keys)) % modulus
                value = fraction_value(pairs, counts, specs.mode)
                inverse = -value if specs.mode == "additive" else value.inverse()
                # selections and inverses share a key exactly when their values are equal
                assert by_key.setdefault(key, value) == value, (case, seed, counts)
                assert by_key.setdefault(-key % modulus, inverse) == inverse, (case, seed, counts)
            assert len(set(by_key.values())) == len(by_key)


class TestKeyMemory:
    """Keys take one int per slot, not one per copy."""

    def test_check_evs_on_blocks_of_size_a_million(self):
        import tracemalloc

        specs = [ClassSpec([(Partition([10**6]), AdditiveScalar(Fraction(x, 3)))], "additive")
                 for x in (1, -1)]
        tracemalloc.start()
        try:
            assert check_evs(specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestRelationOracle:
    """The relation DP against brute force on small random specs."""

    def test_counts_and_smallest_witness(self):
        smallest = []
        for seed in range(160):
            rng = random.Random(seed)
            mode = ("additive", "multiplicative")[seed % 2]
            forced = seed % 4 >= 2
            specs = random_small_specs(rng, mode, forced)
            smallest.append(check_against_oracle(specs, forced))
        # the sample holds generic specs and smallest relations of several sizes
        assert None in smallest and {1, 2, 3} <= set(smallest)

    @pytest.mark.parametrize(
        "case",
        ["nonreal", "shared_moduli", "large_primes_additive", "large_primes_multiplicative",
         "negative_keys"],
    )
    def test_integer_key_cases(self, case):
        smallest = [check_against_oracle(encoding_specs(random.Random(seed), case))
                    for seed in range(60)]
        assert None in smallest and 1 in smallest

    def test_relation_from_cancelling_moduli(self):
        # 6 * 2/3 * 1/4 = 1 and 1/3 + 1/2 + 1/6 = 1: a relation at k = 1 only
        # because the moduli cancel and the args carry
        def specs(last_modulus):
            return [
                ClassSpec([(Partition([1]), MultiplicativeScalar(q, Fraction(a))),
                           (Partition([1]), MultiplicativeScalar(3, 0))], "multiplicative")
                for q, a in [(6, "1/3"), (Fraction(2, 3), "1/2"), (last_modulus, "1/6")]
            ]

        assert check_against_oracle(specs(Fraction(1, 4))) == 1
        assert naive_relation_counts(specs(Fraction(1, 4))) == [1]
        assert check_against_oracle(specs(Fraction(1, 2))) is None


def solve_two(rng, rows, counts, mults):
    """Solve two of the values in `rows` (one when the selection `counts` is
    proportional to `mults`) so that the `counts` and `mults` weighted sums
    are both 0."""
    flat = [x for row in rows for x in row]
    c = [x for row in counts for x in row]
    m = [x for row in mults for x in row]
    pairs = [(a, b) for a in range(len(m)) for b in range(a + 1, len(m))
             if c[a] * m[b] != c[b] * m[a]]
    if pairs:
        a, b = rng.choice(pairs)
        rest_c = -sum(ci * x for i, (ci, x) in enumerate(zip(c, flat)) if i not in (a, b))
        rest_m = -sum(mi * x for i, (mi, x) in enumerate(zip(m, flat)) if i not in (a, b))
        det = c[a] * m[b] - c[b] * m[a]
        flat[a] = (rest_c * m[b] - c[b] * rest_m) / det
        flat[b] = (c[a] * rest_m - rest_c * m[a]) / det
    else:
        a = rng.randrange(len(m))
        flat[a] = -sum(mi * x for i, (mi, x) in enumerate(zip(m, flat)) if i != a) / m[a]
    out, pos = [], 0
    for row in rows:
        out.append(flat[pos : pos + len(row)])
        pos += len(row)
    return out


def planted_specs(rng, tup, mode):
    """Values on `tup` that meet the global constraint and hold a relation at
    a random k in 1..n-1, or None when 100 draws leave equal values in one
    class (a planted relation can force that: with multiplicities 2 | 2 | 1+1
    and k = 1, the last class's two values are equal).  Small denominators
    plant other relations too."""
    mults = [e.multiplicities() for e in tup.entries]
    for _ in range(100):
        k = rng.randint(1, tup.n - 1)
        counts = []
        for row in mults:
            picked = rng.sample([j for j, m in enumerate(row) for _ in range(m)], k)
            counts.append([picked.count(j) for j in range(len(row))])
        if mode == "additive":
            re = [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in row] for row in mults]
            im = [[Fraction(rng.choice([0, 0, 1, -1])) for _ in row] for row in mults]
            re, im = solve_two(rng, re, counts, mults), solve_two(rng, im, counts, mults)
            values = [[AdditiveScalar(a, b) for a, b in zip(*pair)] for pair in zip(re, im)]
        else:
            args = [[Fraction(rng.randrange(24), 24) for _ in row] for row in mults]
            args = solve_two(rng, args, counts, mults)
            values = [[MultiplicativeScalar(1, a % 1) for a in row] for row in args]
        if all(len(set(row)) == len(row) for row in values):
            return [ClassSpec(list(zip(e.slots, row)), mode) for e, row in zip(tup.entries, values)]
    return None


@functools.lru_cache(maxsize=None)
def good_tuples_by_pattern(max_n):
    """The first good tuple (2-4 entries, n <= max_n) of each distinct row
    of slot multiplicities: the relation DPs read only the multiplicities
    and the eigenvalues, so these are every good tuple's relation problems."""
    import itertools

    from dspkit.classify import is_good
    from dspkit.enumerate import all_jnfs

    firsts = {}
    for n in range(2, max_n + 1):
        for m in (2, 3, 4):
            for combo in itertools.combinations_with_replacement(all_jnfs(n), m):
                tup = JnfTuple(combo)
                pattern = tuple(e.multiplicities() for e in tup.entries)
                if pattern not in firsts and is_good(tup):
                    firsts[pattern] = tup
    return tuple(firsts.values())


class TestLookupSplitOracle:
    """The relation DP against the half-split reference on every good tuple
    with n <= 5, sampled and planted values, both modes; against brute force
    on every one with n <= 4 and every 8th with n = 5 (all of n = 5 would
    add about 20 s per mode)."""

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_good_tuples_up_to_n5(self, mode):
        smallest, brute_forced = [], 0
        for seed, tup in enumerate(good_tuples_by_pattern(5)):
            brute_force = tup.n <= 4 or seed % 8 == 0
            brute_forced += brute_force
            try:
                sampled = sample_generic(tup, mode, seed=seed)
            except SamplingExhaustedError:
                assert mode == "additive" and multiplicity_gcd(tup) > 1
            else:
                assert check_against_oracle(sampled, brute_force=brute_force) is None
            planted = planted_specs(random.Random(seed), tup, mode)
            if planted is not None:
                smallest.append(check_against_oracle(planted, True, brute_force))
        assert len(smallest) == 2351 - 27 and {1, 2} == set(smallest)
        assert brute_forced == 599


class TestStateBudget:
    """A budget overrun names the cardinality k, the states used and the cap."""

    def test_find_relation(self):
        with pytest.raises(ResourceExceededError) as info:
            find_relation(example41(I_UNIT), state_budget=3)
        assert str(info.value) == (
            "relation search exceeded its state budget at cardinality k=1: "
            "4 states used, budget 3"
        )

    @pytest.mark.parametrize("state_budget, k", [(12, 2), (16, 3)])
    def test_find_relation_past_k1(self, state_budget, k):
        # product -1, so no relation and the search runs to k = n-1 = 3: 11
        # states at k=1, 15 at k=2 and 19 at k=3 (8, 12 and 16 DP states plus
        # 3 fold states), since the DP states of the smaller cardinalities
        # count again at every k
        with pytest.raises(ResourceExceededError) as info:
            find_relation(example41(EIGHTH_ROOT), state_budget=state_budget)
        assert str(info.value) == (
            f"relation search exceeded its state budget at cardinality k={k}: "
            f"{state_budget + 1} states used, budget {state_budget}"
        )

    def test_find_relation_stops_at_half_n(self):
        # example41(I_UNIT) meets the constraint, so the search stops at
        # k = n/2 = 2 after 15 states
        assert check_evs(example41(I_UNIT)) and not check_evs(example41(EIGHTH_ROOT))
        assert find_relation(example41(I_UNIT), state_budget=15) is None
        with pytest.raises(ResourceExceededError, match="at cardinality k=3: 17 states used"):
            find_relation(example41(EIGHTH_ROOT), state_budget=16)

    @pytest.mark.parametrize("state_budget", [None, 0, -1, 2.5, True, "9"])
    def test_bad_budget_rejected(self, state_budget):
        with pytest.raises(InvalidInputError, match="state_budget must be an int >= 1, got "):
            find_relation(example41(I_UNIT), state_budget=state_budget)
        with pytest.raises(InvalidInputError, match="state_budget must be an int >= 1, got "):
            relation_selection_count(example41(I_UNIT), 1, state_budget=state_budget)
        with pytest.raises(InvalidInputError, match="state_budget must be an int >= 1, got "):
            next(_relation_counts(example41(I_UNIT), state_budget))

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

    def test_generalized_beta_stops_at_budget_plus_one(self):
        # 17 eigenvalues per class with distinct sums: the k=5 layer would
        # hold 17**5 values; the DP stops at the first state past the budget
        specs = [
            ClassSpec([(Partition([1]), AdditiveScalar(i * 18**j)) for i in range(17)], "additive")
            for j in range(5)
        ]
        with pytest.raises(ResourceExceededError) as info:
            check_generalized_beta(specs)
        assert str(info.value) == (
            "generalized rank condition exceeded its state budget at cardinality k=5: "
            "200001 states used, budget 200000"
        )


class TestStateBudgetAcrossFolds:
    """Four classes of four slots, each of 6 values at k = 2: two classes
    on each side, so both sides are folded, and the budget of k counts the
    DP states, the lookup side's fold and the folded side's fold in turn."""

    @staticmethod
    def specs():
        rows = [[0, 1, 3, -4], [2, -1, 5, -6], [1, -2, 7, -6], [3, 4, -9, 2]]
        return [ClassSpec([(Partition([1]), AdditiveScalar(Fraction(x, 2))) for x in row], "additive")
                for row in rows]

    @pytest.mark.parametrize(
        "call, used, what, k",
        [
            (lambda s, b: relation_selection_count(s, 2, state_budget=b), 153, "relation counting", 2),
            (lambda s, b: find_relation(s, state_budget=b), 90, "relation search", 1),
            (lambda s, b: list(_relation_counts(s, b)), 153, "relation counting", 2),
        ],
        ids=["relation_selection_count", "find_relation", "_relation_counts"],
    )
    def test_smallest_budget_and_overrun(self, call, used, what, k):
        specs = self.specs()
        assert call(specs, used) is not None
        with pytest.raises(ResourceExceededError) as info:
            call(specs, used - 1)
        assert str(info.value) == (
            f"{what} exceeded its state budget at cardinality k={k}: "
            f"{used} states used, budget {used - 1}"
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
        # all multiplicities share g: the selection of m/g copies is always a
        # relation, so the sampler raises before drawing and names g
        for mults, g in [([[2, 2]] * 3, 2), ([[4, 2], [2, 2, 2], [6]], 2), ([[3, 3]] * 3, 3)]:
            with pytest.raises(SamplingExhaustedError, match=f"multiplicity is divisible by {g}:"):
                sample_generic(diagonal_tuple(mults), "additive", seed=0, max_retries=60)

    def test_n1_tuple(self):
        tup = JnfTuple([Jnf([[1]])] * 3)
        specs = sample_generic(tup, "additive", seed=9)
        assert check_evs(specs)


def diagonal_tuple(mults):
    return JnfTuple([Jnf([[1] * m for m in row]) for row in mults])


def rigid_rows(max_n):
    rows = []
    for n in range(2, max_n + 1):
        for tag in RigidFamily:
            try:
                rows.append(rigid_family_tuple(tag, n))
            except InvalidInputError:  # the family has no row at this size
                pass
    return rows


def multiplicity_gcd(tup):
    return math.gcd(*(m for e in tup.entries for m in e.multiplicities()))


PINNED_DRAWS = {
    "additive": "1a77626e8b176a183fe7b83eaab09fdc0112e8c7add5df9a36712fae9733daa9",
    "multiplicative": "11c913dfc89ece0c4c62c76f4c08069d9fef553e2d9f10b990d6f596b7297e19",
}


class TestSamplerGenericByConstruction:
    """Draws are generic by construction: checked against the relation DP and
    against brute force, never by the sampler itself."""

    def test_brute_force_oracle_small(self):
        from dspkit.enumerate import all_jnfs

        rng = random.Random(2024)
        checked = {"additive": 0, "multiplicative": 0}
        for seed in range(120):
            n = rng.randint(2, 5)
            entries = rng.randint(2, 4 if n <= 4 else 3)
            tup = JnfTuple([rng.choice(all_jnfs(n)) for _ in range(entries)])
            mode = ("additive", "multiplicative")[seed % 2]
            if mode == "additive" and multiplicity_gcd(tup) > 1:
                with pytest.raises(SamplingExhaustedError):
                    sample_generic(tup, mode, seed=seed)
                continue
            specs = sample_generic(tup, mode, seed=seed)
            assert check_evs(specs)
            assert not any(naive_relation_counts(specs)), (tup, mode)
            assert find_relation(specs) is None
            checked[mode] += 1
        assert min(checked.values()) >= 40

    def test_multiplicative_hypergeometric_n5_every_seed(self):
        tup = rigid_family_tuple(RigidFamily.HYPERGEOMETRIC, 5)
        for seed in range(400):
            specs = sample_generic(tup, "multiplicative", seed=seed)
            assert check_evs(specs) and find_relation(specs) is None, seed

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_every_rigid_row_up_to_n8(self, mode):
        rows = rigid_rows(8)
        assert len(rows) == 14
        for tup in rows:
            for seed in range(3):
                specs = sample_generic(tup, mode, seed=seed)
                assert check_evs(specs) and find_relation(specs) is None, (tup, seed)

    def test_additive_hypergeometric_n12(self):
        # the construction itself: every slot but one has its own prime
        # denominator above n^2
        tup = rigid_family_tuple(RigidFamily.HYPERGEOMETRIC, 12)
        for seed in range(5):
            specs = sample_generic(tup, "additive", seed=seed)
            assert check_evs(specs)
            denominators = sorted(ev.re.denominator for s in specs for ev in s.eigenvalues)
            primes = denominators[:-1]
            assert len(set(primes)) == len(primes) == 25
            assert all(p > 144 and all(p % d for d in range(2, p)) for p in primes)

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_every_rigid_row_from_n9_to_n16(self, mode):
        # past 8 slots the argument gap narrows to 1/(2S), so 13-16 slots
        # fit; the relation search finds no relation within its budget on
        # every row but the hypergeometric one at n = 16, where it overruns
        # at k = 8 (the DP stages of its two 16-slot classes hold 179,714
        # states)
        rows = rigid_rows(16)[14:]
        assert len(rows) == 16 and {tup.n for tup in rows} == set(range(9, 17))
        for tup in rows:
            for seed in range(5):
                assert check_evs(sample_generic(tup, mode, seed=seed))
            specs = sample_generic(tup, mode, seed=3)
            if tup == rigid_family_tuple(RigidFamily.HYPERGEOMETRIC, 16):
                with pytest.raises(ResourceExceededError, match="at cardinality k=8: 200001"):
                    find_relation(specs)
            else:
                assert find_relation(specs) is None, tup

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_four_classes_of_eight_slots(self, mode):
        # four classes of 8 distinct slots meet the constraint, so the search
        # runs to k = 4, where every layer holds 70 values: the two sides
        # balance at two classes each (2 x (70 + 4,900) fold states), where
        # folding all but the largest class would store 70 + 70^2 + 70^3
        tup = diagonal_tuple([[1] * 8] * 4)
        for seed in range(3):
            specs = sample_generic(tup, mode, seed=seed)
            assert find_relation(specs) is None
        assert not any(_relation_counts(specs))

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_rows_up_to_n8_draw_pinned_values(self, mode):
        # the draws of every rigid row with n <= 8 at seeds 0-19, pinned:
        # the slot-count argument gap leaves rows of at most 8 slots at 1/16
        import hashlib

        sha = hashlib.sha256()
        for tup in rigid_rows(8):
            for seed in range(20):
                sha.update(repr(sample_generic(tup, mode, seed=seed)).encode())
        assert sha.hexdigest() == PINNED_DRAWS[mode]

    @pytest.mark.parametrize("mults", [[[2, 2]] * 4, [[2, 2, 2]] * 3, [[4, 2], [2, 2, 2], [6]]])
    def test_multiplicative_common_factor_rows_are_generic(self, mults):
        tup = diagonal_tuple(mults)
        for seed in range(20):
            specs = sample_generic(tup, "multiplicative", seed=seed)
            assert check_evs(specs) and find_relation(specs) is None
            assert gcd_reduction(specs).xi_primitive is True
            if tup.n <= 4:
                assert not any(naive_relation_counts(specs))


class TestSolvedSlotCheck:
    """The sampler checks only the value it solves; every class of every draw
    still keeps the spacing and the cap of the whole-class oracle."""

    def test_draws_pass_the_whole_class_oracle(self):
        # additive classes of at most 24 slots, where the oracle's 1/8 applies
        for mode, max_n in (("additive", 24), ("multiplicative", 30)):
            for tup in rigid_rows(max_n):
                for seed in range(10):
                    for spec in sample_generic(tup, mode, seed=seed):
                        assert fraction_well_scaled(spec.eigenvalues, mode), (tup, mode, seed)

    @pytest.mark.parametrize("mode, mults", [
        # the 4-fold slots of seven classes lie in their lowest cell, so the
        # solved value, minus their sum over 4, is often above the cap of 12
        ("additive", [[4, 1, 1, 1, 1]] * 8),
        # the solved value's class has 12 slots: it often falls within 1/24
        # of the class's last argument across 0, while more than 1/24 from
        # it on the line
        ("multiplicative", [[2] + [1] * 11, [1] * 13, [1] * 13]),
    ])
    def test_solved_value_near_its_bounds(self, mode, mults):
        tup = diagonal_tuple(mults)
        redrawn = 0
        for seed in range(200):
            try:
                sample_generic(tup, mode, seed=seed, max_retries=1)
            except SamplingExhaustedError:
                redrawn += 1
            for spec in sample_generic(tup, mode, seed=seed):
                assert fraction_well_scaled(spec.eigenvalues, mode), seed
        assert 40 <= redrawn <= 160

    def test_additive_rows_from_n34_to_n40_draw(self):
        # past 24 slots the free slots of a class are 3/S apart, and so is
        # the solved value
        rows = [tup for tup in rigid_rows(40) if tup.n >= 34]
        assert len(rows) == 14
        for tup in rows:
            for seed in range(10):
                for spec in sample_generic(tup, "additive", seed=seed):
                    assert all(ev.im == 0 for ev in spec.eigenvalues)
                    values = sorted(ev.re for ev in spec.eigenvalues)
                    gap = min(Fraction(1, 8), Fraction(3, len(values)))
                    assert all(abs(v) <= 12 for v in values), (tup, seed)
                    assert all(b - a >= gap for a, b in zip(values, values[1:])), (tup, seed)


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


class TestAssignment:
    """One checked value per problem: a tuple of ClassSpecs whose integer
    keys are built once, on first read."""

    def test_is_the_tuple_of_its_classes(self):
        specs = example41(I_UNIT)
        value = Assignment(specs)
        assert isinstance(value, tuple) and value == tuple(specs)
        assert value.mode == "multiplicative" and value.n == 4
        assert value.jnfs == specs_tuple(specs)
        assert _assignment(value) is value
        assert Assignment(value).mode == Assignment(specs).mode == "multiplicative"

    @pytest.mark.parametrize(
        "specs, message",
        [
            ([1, 2], "classes must be ClassSpecs"),
            (5, "classes must be an iterable"),
            ([], "at least two entries"),
            ([example41(ONE)[0]], "at least two entries"),
            ([example41(ONE)[0], single_slot_specs("multiplicative", [[1]], [ONE])[0]],
             r"all entries must share one size, got \[1, 4\]"),
            ([example41(ONE)[0], single_slot_specs("additive", [[2, 2]], [AdditiveScalar(0)])[0]],
             r"mixed modes: \['additive', 'multiplicative'\]"),
        ],
    )
    def test_rejects_malformed_classes(self, specs, message):
        for call in (Assignment, check_evs, find_relation, gcd_reduction,
                     check_generalized_beta, lambda s: next(_relation_counts(s)),
                     lambda s: relation_selection_count(s, 1)):
            with pytest.raises(InvalidInputError, match=message):
                call(specs)

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_list_and_value_agree_on_sampled_rigid_rows(self, mode):
        def results(specs):
            n = specs[0].n
            return (
                Assignment(specs).mode,
                specs_tuple(specs),
                check_evs(specs),
                find_relation(specs),
                [relation_selection_count(specs, k) for k in (1, n // 2, n - 1)],
                list(_relation_counts(specs)),
                gcd_reduction(specs),
                check_generalized_beta(specs),
            )

        rng = random.Random(5)
        checked = 0
        for tup in rigid_rows(8):
            for specs in (sample_generic(tup, mode, seed=1), planted_specs(rng, tup, mode)):
                if specs is None:
                    continue
                value = Assignment(specs)
                assert results(specs) == results(value), (tup, mode)
                checked += 1
        assert checked >= 25


def counting_integer_keys(monkeypatch):
    """Replace `_integer_keys` with a wrapper that counts its calls."""
    import dspkit.genericity as genericity

    calls = []
    real = genericity._integer_keys

    def counted(specs):
        calls.append(specs)
        return real(specs)

    monkeypatch.setattr(genericity, "_integer_keys", counted)
    return calls


class TestKeysBuiltOnce:
    def test_cli_generic(self, monkeypatch, capsys):
        from pathlib import Path

        from dspkit.cli import main

        calls = counting_integer_keys(monkeypatch)
        fixture = Path(__file__).parent.parent / "fixtures" / "example41_generic.json"
        assert main(["generic", str(fixture)]) == 0
        assert '"generic": true' in capsys.readouterr().out
        assert len(calls) == 1

    def test_weak_verdict_kappa0(self, monkeypatch):
        from dspkit.classify import weak_verdict_kappa0
        from dspkit.decide import Verdict

        calls = counting_integer_keys(monkeypatch)
        assert weak_verdict_kappa0(example41(I_UNIT)) is Verdict.SOLVABLE
        assert len(calls) == 1

    def test_second_check_on_one_value(self, monkeypatch):
        calls = counting_integer_keys(monkeypatch)
        value = Assignment(example41(MINUS_ONE))
        assert calls == []  # nothing is built before the first read
        assert check_evs(value) and find_relation(value).cardinality == 2
        assert len(calls) == 1
        assert check_evs(value) and check_generalized_beta(value)
        assert relation_selection_count(value, 2) == 1 and list(_relation_counts(value))
        assert len(calls) == 1


class TestAnswersAgainstOracles:
    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_sampled_planted_and_random_problems(self, mode):
        """Sampled, planted and random small-denominator problems: the
        answers through a plain list equal those through an `Assignment`,
        and the exact Fraction and brute-force oracles."""
        from dspkit.classify import weak_verdict_kappa2

        def answers(specs):
            n = specs[0].n
            rigid = kappa_of(specs_tuple(specs)) == 2
            return (
                check_evs(specs),
                find_relation(specs),
                list(_relation_counts(specs)),
                [relation_selection_count(specs, k) for k in range(1, n)],
                gcd_reduction(specs),
                check_generalized_beta(specs),
                weak_verdict_kappa2(specs) if rigid else None,
            )

        rng = random.Random(17)
        problems = []
        for tup in rigid_rows(6):
            problems.append(sample_generic(tup, mode, seed=rng.randrange(1 << 20)))
            problems.append(planted_specs(rng, tup, mode))
        problems += [random_small_specs(rng, mode, forced) for forced in (False, True) * 10]
        checked = 0
        for specs in filter(None, problems):
            got = answers(specs)
            assert answers(Assignment(specs)) == got
            evs_ok, witness, counts = got[:3]
            assert evs_ok == fraction_check_evs(specs)
            if specs[0].n <= 5:
                assert counts == naive_relation_counts(specs)
            assert got[3] == counts
            if witness is None:
                assert not any(counts)
            else:
                k = witness.cardinality
                assert counts[k - 1] > 0 and not any(counts[: k - 1])
            checked += 1
        assert checked >= 40


class TestMalformedClassSpec:
    @pytest.mark.parametrize(
        "slots",
        [[1], 5, None, [(Partition([1]), AdditiveScalar(1), AdditiveScalar(2))], [(Partition([1]),)]],
    )
    def test_slots_that_are_not_pairs(self, slots):
        with pytest.raises(InvalidInputError, match=r"class slots must be \(blocks, eigenvalue\) pairs"):
            ClassSpec(slots, "additive")

    def test_no_slot(self):
        with pytest.raises(InvalidInputError, match="at least one eigenvalue slot"):
            ClassSpec([], "additive")

    def test_exp_map_of_a_non_class(self):
        with pytest.raises(InvalidInputError, match="expects an additive class"):
            exp_map([(Partition([1]), AdditiveScalar(0))])


class TestClassOrder:
    """`ClassSpec` orders its slots and rejects repeated eigenvalues on
    scaled ints as the Fraction rule of `fraction_class_order` does."""

    @staticmethod
    def random_pairs(rng, mode):
        # few partitions and small coordinates of both signs over mixed
        # denominators: equal partitions, equal values and values equal in
        # their first coordinate only are all common
        pairs = []
        for _ in range(rng.randint(1, 6)):
            part = Partition(rng.choice([(1,), (2,), (1, 1), (2, 1)]))
            second = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6]))
            if mode == "additive":
                ev = AdditiveScalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])), second)
            else:
                ev = MultiplicativeScalar(rng.choice([1, 2, Fraction(1, 2), Fraction(3, 2)]), second % 1)
            pairs.append((part, ev))
        return pairs

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_same_order_and_rejections_as_fractions(self, mode):
        rng = random.Random(11)
        rejected = ordered = 0
        for _ in range(3000):
            pairs = self.random_pairs(rng, mode)
            want = fraction_class_order(pairs)
            if want is None:
                with pytest.raises(InvalidInputError, match="pairwise distinct"):
                    ClassSpec(pairs, mode)
                rejected += 1
            else:
                spec = ClassSpec(pairs, mode)
                assert list(zip(spec.jnf.slots, spec.eigenvalues)) == want, pairs
                ordered += 1
        assert rejected > 50 and ordered > 1000

    def test_second_coordinates_over_mixed_denominators(self):
        values = [(Fraction(1, 2), Fraction(-1, 3)), (Fraction(1, 2), Fraction(1, 4)),
                  (Fraction(1, 2), Fraction(-1, 6)), (Fraction(-1, 3), Fraction(5, 4))]
        spec = ClassSpec([(Partition([1]), AdditiveScalar(*v)) for v in values], "additive")
        assert [(ev.re, ev.im) for ev in spec.eigenvalues] == [values[i] for i in (1, 2, 0, 3)]


class TestSamplerArguments:
    """`sample_generic` raises only what its docstring names."""

    @pytest.mark.parametrize("tup", [[Jnf([[1], [1]])] * 3, None, "tuple"])
    def test_tup_must_be_a_jnf_tuple(self, tup):
        with pytest.raises(InvalidInputError, match="tup must be a JnfTuple"):
            sample_generic(tup, "additive", seed=0)

    @pytest.mark.parametrize("max_retries", ["3", 2.0, None, True, False, 0, -1])
    def test_max_retries_must_be_an_int_at_least_one(self, max_retries):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        with pytest.raises(InvalidInputError, match="max_retries must be an int >= 1, got "):
            sample_generic(tup, "additive", seed=0, max_retries=max_retries)

    @pytest.mark.parametrize("seed", [[1], {}, object(), (1, 2), {1}, 1j])
    def test_seed_random_does_not_take(self, seed):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        with pytest.raises(InvalidInputError, match="seed must be None, an int, a float, a str, bytes or a bytearray, got "):
            sample_generic(tup, "additive", seed=seed)

    @pytest.mark.parametrize("seed", [None, 7, -7, True, 2.5, "seven", b"seven", bytearray(b"seven"), 10**30])
    def test_seeds_random_takes_still_draw(self, seed):
        tup = rigid_family_tuple(RigidFamily.HYPERGEOMETRIC, 4)
        specs = sample_generic(tup, "multiplicative", seed=seed)
        assert check_evs(specs) and find_relation(specs) is None
        if seed is not None:
            assert sample_generic(tup, "multiplicative", seed=seed) == specs

    def test_returns_a_plain_list(self):
        specs = sample_generic(JnfTuple([Jnf([[1], [1]])] * 3), "multiplicative", seed=0, max_retries=1)
        assert type(specs) is list and all(isinstance(s, ClassSpec) for s in specs)
