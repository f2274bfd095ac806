"""Partitions, JNF invariants, the diagonal correspondence and subordination."""

import dataclasses
import itertools
import random

import pytest

from dspkit.errors import InvalidInputError
from dspkit.jnf import (
    Jnf,
    JnfTuple,
    Partition,
    Subordination,
    corresponding_diagonal,
    d_of,
    is_subordinate,
    kappa_of,
    power_rank,
    r_of,
    z_of,
)
from dspkit.enumerate import all_jnfs, random_jnf, random_psi_defined_tuple

from oracles import (
    assert_same_as_checked,
    commutant_nullity_exact,
    jordan_matrix_exact,
    min_shifted_rank_exact,
    shrink_plain,
)


class TestPartition:
    def test_normalizes_descending(self):
        assert Partition([1, 3, 2]).parts == (3, 2, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            Partition([2, 0])
        with pytest.raises(InvalidInputError):
            Partition([])

    @pytest.mark.parametrize(
        "parts", [[1.5, 2], [2.0], ["a"], [1, "a"], [True], [2, True], [None], 5, "ab"]
    )
    def test_rejects_non_integer_parts(self, parts):
        with pytest.raises(InvalidInputError):
            Partition(parts)

    def test_dual(self):
        assert Partition([3, 1]).dual().parts == (2, 1, 1)
        assert Partition([2]).dual().parts == (1, 1)
        assert Partition([1, 1, 1]).dual().parts == (3,)

    def test_dual_involution(self):
        for parts in [(4, 3, 1), (2, 2), (5,), (1, 1, 1, 1)]:
            p = Partition(parts)
            assert p.dual().dual() == p


class TestJnfBasics:
    def test_size_and_slots(self):
        j = Jnf([[2, 1], [4, 3, 1]])
        assert j.size == 11
        assert j.num_slots == 2

    def test_equality_is_multiset(self):
        assert Jnf([[2, 1], [4, 3, 1]]) == Jnf([[4, 3, 1], [2, 1]])
        assert Jnf([[1], [1]]) != Jnf([[1, 1]])

    def test_tuple_checks_sizes(self):
        with pytest.raises(InvalidInputError):
            JnfTuple([Jnf([[2]]), Jnf([[3]])])
        with pytest.raises(InvalidInputError):
            JnfTuple([Jnf([[2]])])

    @pytest.mark.parametrize("slots", [3, [[1], 2], [[1], [1.5, 0.5]], [[1], "a"]])
    def test_jnf_rejects_non_integer_slots(self, slots):
        with pytest.raises(InvalidInputError):
            Jnf(slots)

    @pytest.mark.parametrize("tail", [5, [[1.5]], "ab", [["a"]], None])
    def test_tuple_rejects_non_integer_entries(self, tail):
        with pytest.raises(InvalidInputError):
            JnfTuple([Jnf([[1]]), tail])

    def test_tuple_rejects_non_iterable(self):
        with pytest.raises(InvalidInputError):
            JnfTuple(7)


class TestStoredInvariants:
    """Invariants stored on the values equal closed forms recomputed from parts."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stored_values_match_closed_forms(self, n):
        for jnf in all_jnfs(n):
            parts = [s.parts for s in jnf.slots]
            size = sum(sum(p) for p in parts)
            z = sum((2 * i + 1) * b for p in parts for i, b in enumerate(p))
            assert jnf.size == size == n
            assert jnf.max_blocks == max(len(p) for p in parts)
            assert jnf.r == r_of(jnf) == size - max(len(p) for p in parts)
            assert jnf.z == z_of(jnf) == z
            assert jnf.d == d_of(jnf) == size * size - z
            for slot, p in zip(jnf.slots, parts):
                assert slot.total == sum(p)
                assert slot.num_parts == len(p)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hashes_match_dataclass_hashes(self, n):
        for jnf in all_jnfs(n):
            for slot in jnf.slots:
                assert hash(slot) == hash((slot.parts,))
            assert hash(jnf) == hash((jnf.slots,))
        for combo in itertools.combinations(all_jnfs(n), 3):
            tup = JnfTuple(combo)
            assert hash(tup) == hash((tup.entries,))

    def test_stored_values_are_not_fields(self):
        assert [f.name for f in dataclasses.fields(Partition)] == ["parts"]
        assert [f.name for f in dataclasses.fields(Jnf)] == ["slots"]
        assert [f.name for f in dataclasses.fields(JnfTuple)] == ["entries"]
        jnf = Jnf([[2, 1], [4, 3, 1]])
        assert repr(jnf) == "Jnf[[4, 3, 1],[2, 1]]"
        assert repr(jnf.slots[0]) == "Partition(4, 3, 1)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            jnf.size = 3
        with pytest.raises(AttributeError):
            jnf.no_such_attribute

    @pytest.mark.parametrize("n", range(1, 7))
    def test_slot_order_is_irrelevant(self, n):
        for jnf in all_jnfs(n):
            raw = [list(s.parts) for s in jnf.slots]
            table = {jnf: "value"}
            for perm in itertools.islice(itertools.permutations(raw), 24):
                other = Jnf(perm)
                assert other == jnf and hash(other) == hash(jnf)
                assert table[other] == "value"
                table[other] = "replaced"
                assert len(table) == 1
                table[jnf] = "value"

    def test_tuple_equality_depends_on_entry_order(self):
        a, b = Jnf([[2], [1]]), Jnf([[1, 1, 1]])
        assert JnfTuple([a, b, b]) == JnfTuple([Jnf([[1], [2]]), b, b])
        assert JnfTuple([a, b, b]) != JnfTuple([b, a, b])
        assert {JnfTuple([a, b, b]): 1}.get(JnfTuple([b, b, a])) is None

    def test_equality_with_other_types(self):
        assert Jnf([[1]]) != Partition([1])
        assert Partition([1]) != (1,)
        assert JnfTuple([Jnf([[1]])] * 2) != (Jnf([[1]]),) * 2


class TestTrustedChildren:
    """`Jnf._shrunk` builds each reduction child through the checked
    constructors; every child, and every child of a child, equals the value
    `Jnf` builds from plain int parts shrunk independently."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_slot_and_count(self, n):
        for jnf in all_jnfs(n):
            raw = [s.parts for s in jnf.slots]
            for slot, partition in enumerate(jnf.slots):
                for count in range(1, partition.num_parts + 1):
                    plain = shrink_plain(raw, slot, count)
                    if not plain:
                        with pytest.raises(InvalidInputError):
                            jnf._shrunk(slot, count)
                        continue
                    child = jnf._shrunk(slot, count)
                    assert_same_as_checked(child, Jnf(plain))
                    # a child's own children are checked values too
                    child_raw = [s.parts for s in child.slots]
                    for i, s in enumerate(child.slots):
                        grand = shrink_plain(child_raw, i, s.num_parts)
                        if grand:
                            assert_same_as_checked(child._shrunk(i, s.num_parts), Jnf(grand))


class TestInvariantExamples:
    def test_z_diagonal_multiplicities(self):
        # diagonal with multiplicities (2,1): sum of squared multiplicities
        assert z_of(Jnf([[1, 1], [1]])) == 5

    def test_z_single_block(self):
        for n in range(1, 7):
            assert z_of(Jnf([[n]])) == n

    def test_z_size11(self):
        assert z_of(Jnf([[2, 1], [4, 3, 1]])) == 23

    def test_d_examples(self):
        assert d_of(Jnf([[2, 1], [4, 3, 1]])) == 98
        assert d_of(Jnf([[1]])) == 0
        assert d_of(Jnf([[1, 1]])) == 0  # scalar class is a point

    def test_r_examples(self):
        assert r_of(Jnf([[5]])) == 4
        assert r_of(Jnf([[1, 1, 1, 1]])) == 0
        assert r_of(Jnf([[2, 1], [4, 3, 1]])) == 8

    def test_kappa_examples(self):
        hyper = JnfTuple([Jnf([[1], [1]])] * 3)
        assert kappa_of(hyper) == 2
        special_a = JnfTuple([Jnf([[2, 2]])] * 4)
        assert kappa_of(special_a) == 0
        extra = JnfTuple(
            [
                Jnf([[1] * 4, [1] * 2]),
                Jnf([[1, 1], [1, 1], [1, 1]]),
                Jnf([[1]] * 6),
            ]
        )
        assert kappa_of(extra) == 2


class TestBruteForceOracles:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_z_matches_commutant_nullity(self, n):
        for jnf in all_jnfs(n):
            mat = jordan_matrix_exact(jnf)
            assert z_of(jnf) == commutant_nullity_exact(mat), jnf

    @pytest.mark.parametrize("n", range(1, 7))
    def test_r_matches_min_shifted_rank(self, n):
        for jnf in all_jnfs(n):
            assert r_of(jnf) == min_shifted_rank_exact(jnf), jnf

    def test_size11_oracle(self):
        jnf = Jnf([[2, 1], [4, 3, 1]])
        assert commutant_nullity_exact(jordan_matrix_exact(jnf)) == 23
        assert min_shifted_rank_exact(jnf) == 8


class TestCorrespondingDiagonal:
    def test_examples(self):
        assert corresponding_diagonal(Jnf([[3, 1]])) == Jnf([[1, 1], [1], [1]])
        assert corresponding_diagonal(Jnf([[2]])) == Jnf([[1], [1]])
        diag = Jnf([[1, 1], [1]])
        assert corresponding_diagonal(diag) == diag

    @pytest.mark.parametrize("n", range(1, 9))
    def test_idempotent_and_preserves_invariants(self, n):
        for jnf in all_jnfs(n):
            diag = corresponding_diagonal(jnf)
            assert diag.is_diagonal()
            assert corresponding_diagonal(diag) == diag
            assert diag.size == jnf.size
            assert z_of(diag) == z_of(jnf), jnf
            assert d_of(diag) == d_of(jnf), jnf
            assert r_of(diag) == r_of(jnf), jnf


class TestSubordination:
    def test_examples(self):
        lower = {0: Partition([2, 2])}
        upper = {0: Partition([3, 1])}
        assert is_subordinate(lower, upper) is Subordination.SUBORDINATE
        assert is_subordinate(upper, lower) is Subordination.NOT_SUBORDINATE

    def test_diagonal_is_minimum(self):
        for parts in [(3, 1), (2, 2), (4,), (2, 1, 1)]:
            upper = {0: Partition(parts)}
            diag = {0: Partition([1] * sum(parts))}
            assert is_subordinate(diag, upper) is Subordination.SUBORDINATE

    def test_not_comparable(self):
        a = {0: Partition([2]), 1: Partition([1])}
        b = {0: Partition([1, 1]), 2: Partition([1])}
        assert is_subordinate(a, b) is Subordination.NOT_COMPARABLE
        c = {0: Partition([1]), 1: Partition([2])}
        assert is_subordinate(a, c) is Subordination.NOT_COMPARABLE

    def test_partial_order_on_single_eigenvalue_classes(self):
        from dspkit.enumerate import all_partitions

        classes = [{0: p} for p in all_partitions(5)]
        for x in classes:
            assert is_subordinate(x, x) is Subordination.SUBORDINATE
        for x in classes:
            for y in classes:
                xy = is_subordinate(x, y) is Subordination.SUBORDINATE
                yx = is_subordinate(y, x) is Subordination.SUBORDINATE
                if xy and yx:
                    assert x == y  # antisymmetry
        # transitivity
        for x in classes:
            for y in classes:
                if is_subordinate(x, y) is not Subordination.SUBORDINATE:
                    continue
                for zc in classes:
                    if is_subordinate(y, zc) is Subordination.SUBORDINATE:
                        assert is_subordinate(x, zc) is Subordination.SUBORDINATE

    def test_power_rank_closed_form(self):
        # rank(N^j) for nilpotent with blocks (2,2) vs (3,1)
        assert power_rank(Partition([2, 2]), 1, 4) == 2
        assert power_rank(Partition([2, 2]), 2, 4) == 0
        assert power_rank(Partition([3, 1]), 1, 4) == 2
        assert power_rank(Partition([3, 1]), 2, 4) == 1


class TestRandomJnf:
    def test_pins_max_blocks(self):
        rng = random.Random(0)
        for n in range(1, 7):
            for top in range(1, n + 1):
                jnf = random_jnf(n, rng, max_blocks=top)
                assert (jnf.size, jnf.max_blocks) == (n, top)

    @pytest.mark.parametrize("n, max_blocks", [(3, 4), (3, 0), (3, -1), (0, None)])
    def test_out_of_range_rejected(self, n, max_blocks):
        with pytest.raises(InvalidInputError):
            random_jnf(n, random.Random(0), max_blocks=max_blocks)


class TestRandomPsiDefinedTuple:
    @pytest.mark.parametrize("name, value", [("max_n", 1), ("max_p", 1), ("max_n", 0), ("max_p", -3)])
    def test_bound_below_two_rejected(self, name, value):
        with pytest.raises(InvalidInputError, match=f"^{name} must be at least 2, got {value}$"):
            random_psi_defined_tuple(random.Random(0), **{name: value})

    def test_smallest_bounds_draw(self):
        rng = random.Random(0)
        for _ in range(20):
            tup = random_psi_defined_tuple(rng, max_n=2, max_p=2)
            assert (tup.n, len(tup)) == (2, 3)
