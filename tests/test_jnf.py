"""Partitions, JNF invariants, the diagonal correspondence and subordination."""

import dataclasses
import itertools
import random
import re
import sys
import threading

import pytest

from dspkit import decide, jnf as jnf_module
from dspkit.classify import decide_unipotent_nilpotent, is_good, match_rigid_family, match_special
from dspkit.decide import decide_generic, maximizer_slots, psi_defined, psi_step
from dspkit.errors import InvalidInputError
from dspkit.jnf import (
    Jnf,
    JnfTuple,
    Partition,
    Subordination,
    corresponding_diagonal,
    d_of,
    invariant_summary,
    is_subordinate,
    kappa_of,
    power_rank,
    r_of,
    z_of,
)
from dspkit.enumerate import (
    all_jnfs,
    diagonal_jnfs,
    diagonal_tuples,
    enumerate_rigid_diagonal,
    random_jnf,
    random_psi_defined_tuple,
)

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

    @pytest.mark.parametrize("j", [1.5, 2.0, True, "2", None])
    def test_power_rank_rejects_non_int_powers(self, j):
        with pytest.raises(InvalidInputError, match=f"^power must be an int, got {re.escape(repr(j))}$"):
            power_rank(Partition((2, 1)), j, 3)

    @pytest.mark.parametrize("j", [0, -1])
    def test_power_rank_rejects_powers_below_one(self, j):
        with pytest.raises(InvalidInputError, match="^power must be >= 1$"):
            power_rank(Partition((2, 1)), j, 3)


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


class TestSizeBelowOne:
    """Every enumerator of JNFs of one size rejects a size that is not an int
    of at least 1 with one message, cached sizes or not."""

    @pytest.mark.parametrize(
        "build",
        [all_jnfs, diagonal_jnfs, lambda n: enumerate_rigid_diagonal(n, 2),
         lambda n: random_jnf(n, random.Random(0))],
        ids=["all_jnfs", "diagonal_jnfs", "enumerate_rigid_diagonal", "random_jnf"],
    )
    @pytest.mark.parametrize("n", [-1, 0, "3", True, 3.0, None])
    def test_rejected(self, build, n):
        # all_jnfs(3) and all_jnfs(1) are cached: 3.0 and True must not find them
        assert len(all_jnfs(3)) == 6 and len(all_jnfs(1)) == 1
        message = f"^a JNF needs size n >= 1, got {re.escape(repr(n))}$"
        with pytest.raises(InvalidInputError, match=message):
            build(n)


class TestRigidDiagonalP:
    """`enumerate_rigid_diagonal` and `diagonal_tuples` take an int p >= 1,
    p + 1 entries."""

    @pytest.mark.parametrize(
        "build", [enumerate_rigid_diagonal, lambda n, p: list(diagonal_tuples(n, p))],
        ids=["enumerate_rigid_diagonal", "diagonal_tuples"],
    )
    @pytest.mark.parametrize("p", ["2", 1.5, 2.0, True, False, None, 0, -1, -2])
    def test_rejected(self, build, p):
        message = "^" + re.escape(f"a tuple needs p >= 1 (p + 1 entries), got {p!r}") + "$"
        with pytest.raises(InvalidInputError, match=message):
            build(3, p)

    def test_bad_n_is_named_first(self):
        with pytest.raises(InvalidInputError, match="size n >= 1"):
            enumerate_rigid_diagonal(0, "2")

    def test_p1_and_p2(self):
        # no pair of size-3 diagonal entries is rigid; the one rigid triple
        # has multiplicities (2, 1), (1, 1, 1) and (1, 1, 1)
        assert enumerate_rigid_diagonal(3, 1) == []
        distinct = Jnf([[1], [1], [1]])
        assert enumerate_rigid_diagonal(3, 2) == [JnfTuple([Jnf([[1, 1], [1]]), distinct, distinct])]


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


def _plain(tup) -> tuple:
    return tuple(tuple(s.parts for s in e.slots) for e in tup.entries)


class _Int(int):
    pass


class _Tuple(tuple):
    pass


class TestInterning:
    """A plain entry (a tuple of tuples of exact ints) builds its Jnf once,
    through one bounded table; every other entry takes the checked
    constructor, and no answer depends on which path built a value."""

    def test_equal_plain_entries_share_one_value(self):
        raw = (((2, 1), (1,)), ((1, 1, 1), (1,)), ((3,), (1,)))
        a, b = JnfTuple(raw), JnfTuple(tuple(tuple(tuple(s) for s in e) for e in raw))
        direct = JnfTuple([Jnf(e) for e in raw])
        for x, y, z in zip(a.entries, b.entries, direct.entries):
            assert x is y and x is not z
            assert x == z and hash(x) == hash(z) == hash((z.slots,)) and repr(x) == repr(z)
        assert a == b == direct and hash(a) == hash(b) == hash(direct)
        # another slot order is another key, but the same value
        swapped = JnfTuple([((1,), (2, 1)), ((1, 1, 1), (1,)), ((3,), (1,))])
        assert swapped.entries[0] is not a.entries[0] and swapped == a
        # lists and Jnfs are not interned: the checked constructor runs
        listed = JnfTuple([[[2, 1], [1]], Jnf(((1, 1, 1), (1,))), ((3,), (1,))])
        assert listed.entries[0] is not a.entries[0] and listed == a
        assert listed.entries[2] is a.entries[2]

    @pytest.mark.parametrize(
        "entry, message",
        [
            (((True,), (1,)), "partition parts must be integers, got (True,)"),
            (((1,), (True,)), "partition parts must be integers, got (True,)"),
            (((1.0,), (1,)), "partition parts must be integers, got (1.0,)"),
            (((1,), (1.0,)), "partition parts must be integers, got (1.0,)"),
            ((_Tuple((True,)), (1,)), "partition parts must be integers, got (True,)"),
            (_Tuple(((1,), (True,))), "partition parts must be integers, got (True,)"),
            (((_Int(0),), (1,)), "partition parts must be positive, got (0,)"),
            (((1,), ()), "partition must have at least one part"),
            ((), "JNF must have at least one eigenvalue slot"),
        ],
    )
    def test_impostors_raise_the_checked_errors(self, entry, message):
        plain = JnfTuple([((1,), (1,))] * 2).entries[0]
        assert JnfTuple([((1,), (1,))] * 2).entries[0] is plain
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            JnfTuple([((1,), (1,)), entry])

    @pytest.mark.parametrize(
        "entry", [((_Int(1),), (1,)), (_Tuple((1,)), (1,)), _Tuple(((1,), (1,)))]
    )
    def test_subclasses_are_built_not_looked_up(self, entry):
        """The checked constructor accepts int and tuple subclasses; they get
        a fresh value, never the one interned for `((1,), (1,))`."""
        plain = JnfTuple([((1,), (1,))] * 2).entries[0]
        got = JnfTuple([((1,), (1,)), entry]).entries[1]
        assert got is not plain and got == plain and hash(got) == hash(plain)

    def test_table_is_bounded_and_clears(self):
        table = jnf_module._interned
        cap = jnf_module._INTERN_CAP
        assert table.cache_info().maxsize == cap
        first = JnfTuple([((1,),)] * 2).entries[0]
        for k in range(1, cap + 50):
            JnfTuple([((k,),)] * 2)
        assert table.cache_info().currsize == cap
        # ((1,),) was the least recently used entry, so it left the table
        again = JnfTuple([((1,),)] * 2).entries[0]
        assert again is not first and again == first
        table.cache_clear()
        assert table.cache_info().currsize == 0
        assert JnfTuple([((1,),)] * 2).entries[0] is not again

    def test_maximizer_slots_are_a_fresh_list(self):
        tup = JnfTuple([((2,), (1,), (1,)), ((3,), (1,)), ((2, 1, 1),)])
        entry = tup.entries[0]
        report, step = repr(decide_generic(tup)), repr(psi_step(tup, [1, 1, 0]))
        got = maximizer_slots(entry)
        assert got == [0, 1, 2] and got is not maximizer_slots(entry)
        got.clear()
        got.append(9)
        assert maximizer_slots(entry) == [0, 1, 2] and entry.maximizers == (0, 1, 2)
        assert decide.default_choice(entry) == entry.default_slot == 0
        assert repr(decide_generic(tup)) == report and repr(psi_step(tup, [1, 1, 0])) == step
        assert JnfTuple(_plain(tup)).entries[0] is entry

    @pytest.fixture(scope="class")
    def population(self):
        """All 5,552 reduction-defined tuples with n <= 5 and 3-4 entries and
        2,000 seeded random draws, as plain entries."""
        raws = []
        for n in range(2, 6):
            for m in (3, 4):
                for combo in itertools.combinations_with_replacement(all_jnfs(n), m):
                    tup = JnfTuple(combo)
                    if psi_defined(tup):
                        raws.append(_plain(tup))
        assert len(raws) == 5552
        rng = random.Random(25)
        while len(raws) < 5552 + 2000:
            tup = random_psi_defined_tuple(rng)
            if tup is not None:
                raws.append(_plain(tup))
        return raws

    @staticmethod
    def _answers(tups):
        out = []
        for tup in tups:
            steps = []
            for choice in itertools.product(*[maximizer_slots(e) for e in tup.entries]):
                child = psi_step(tup, choice)
                steps.append((repr(child), hash(child), [(e.r, e.z, e.d) for e in child.entries]))
            recognized = [repr(match_rigid_family(tup)), repr(match_special(tup))]
            if all(e.num_slots == 1 for e in tup.entries):
                recognized += [
                    decide_unipotent_nilpotent(tup, problem, mode)
                    for problem in ("dsp", "weak_dsp")
                    for mode in ("additive", "multiplicative")
                ]
            report = decide_generic(tup)
            out.append(
                (report, repr(report), invariant_summary(tup), is_good(tup), recognized, steps)
            )
        return out

    def test_interned_and_direct_inputs_give_equal_answers(self, population, monkeypatch):
        jnf_module._interned.cache_clear()
        monkeypatch.setattr(decide, "_local", threading.local())
        interned = [JnfTuple(raw) for raw in population]
        for raw, tup in zip(population[:50], interned):
            assert all(e is jnf_module._interned(r) for e, r in zip(tup.entries, raw))
        got = self._answers(interned)
        # a cold engine for the directly built values, none of them interned
        monkeypatch.setattr(decide, "_local", threading.local())
        direct = [JnfTuple([Jnf(e) for e in raw]) for raw in population]
        assert self._answers(direct) == got

    def test_threads_get_equal_values(self, population):
        """Four threads, more than the cores, switching every 10 us, build
        tuples from one cold table and read the lazy fields: each gets the
        answers one thread alone gets.  Two threads that miss one entry at
        once may each build a Jnf; the two are equal."""
        raws = population[::8]

        def answers():
            out = []
            for raw in raws:
                tup = JnfTuple(raw)
                out.append(
                    (repr(decide_generic(tup)),
                     [(e, e.z, e.d, e.maximizers, e.default_slot) for e in tup.entries])
                )
            return out

        jnf_module._interned.cache_clear()
        alone = answers()
        jnf_module._interned.cache_clear()
        slices = 4
        start = threading.Barrier(slices, timeout=60)
        results = [None] * slices

        def work(i):
            start.wait()
            results[i] = answers()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(slices)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(slices):
            assert results[i] == alone, i
