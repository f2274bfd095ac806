"""Acceptance suite: one criterion per test, each printing a pass line with
its runtime and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dspkit.classify import (
    RigidFamily,
    SpecialKind,
    almost_special_tuple,
    decide_unipotent_nilpotent,
    is_good,
    is_special_diagonal,
    match_special,
    rigid_family_tuple,
    special_case_tuple,
)
from dspkit.decide import (
    ReductionEngine,
    TerminationReason,
    Verdict,
    check_conditions,
    decide_generic,
    psi_defined,
    psi_step,
)
from dspkit.enumerate import all_jnfs, random_psi_defined_tuple
from dspkit.errors import KappaNotTwoError, SamplingExhaustedError
from dspkit.genericity import ClassSpec, find_relation, gcd_reduction, sample_generic
from dspkit.jnf import Jnf, JnfTuple, Partition, d_of, kappa_of, r_of, z_of
from dspkit.oracle import SearchBudget, realize
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar

from oracles import commutant_nullity_exact, jordan_matrix_exact, star_root_verdict
import psi_sweep


class _Timer:
    def __init__(self, name: str, budget_seconds: float):
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"{self.name}: {status} ({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded its {self.budget}s budget"
        return False


def test_a1_z_oracle_equivalence():
    """z equals the commutant nullity of an explicit Jordan matrix, d is even,
    for every JNF of size <= 6."""
    with _Timer("A1 z/d oracle equivalence (all JNFs of size <= 6)", 10):
        checked = 0
        for n in range(1, 7):
            for jnf in all_jnfs(n):
                assert z_of(jnf) == commutant_nullity_exact(jordan_matrix_exact(jnf))
                assert d_of(jnf) % 2 == 0
                checked += 1
        assert checked == 1 + 3 + 6 + 14 + 27 + 58


def test_a2_kappa_invariance_randomized():
    """1000 seeded random tuples (n <= 12, p <= 4) where the reduction is
    defined: the rigidity index is exactly preserved by one step."""
    with _Timer("A2 rigidity-index invariance on 1000 random tuples", 10):
        rng = random.Random(0xD5B)
        checked = 0
        while checked < 1000:
            tup = random_psi_defined_tuple(rng, max_n=12, max_p=4)
            if tup is None:
                continue
            assert kappa_of(psi_step(tup)) == kappa_of(tup), tup
            checked += 1


def test_a3_omega_implies_strict_alpha():
    """Exhaustive over all tuples n <= 8, p <= 3 satisfying omega: alpha is
    strict and kappa <= 0.

    omega/alpha/kappa factor through the per-entry pair (r, d), so sweeping
    every multiset of realized (r, d) pairs covers every JNF tuple exactly.
    """
    with _Timer("A3 omega forces strict alpha and kappa <= 0 (n <= 8, p <= 3)", 30):
        hits = 0
        for n in range(2, 9):
            pairs = sorted({(r_of(j), d_of(j)) for j in all_jnfs(n)})
            for m in (2, 3, 4):
                for combo in itertools.combinations_with_replacement(pairs, m):
                    r_sum = sum(r for r, _ in combo)
                    if r_sum < 2 * n:
                        continue
                    d_sum = sum(d for _, d in combo)
                    assert d_sum > 2 * n * n - 2, (n, combo)
                    assert 2 * n * n - d_sum <= 0, (n, combo)
                    hits += 1
        assert hits > 0


def test_a4_rigid_families():
    """Each rigid-family row at its smallest admissible sizes: solvable,
    rigidity index 2, reduction trace ends at size 1."""
    with _Timer("A4 rigid families decide solvable with kappa=2 down to size 1", 5):
        cases = [
            (RigidFamily.HYPERGEOMETRIC, (2, 3)),
            (RigidFamily.ODD_FAMILY, (3, 5)),
            (RigidFamily.EVEN_FAMILY, (4, 6)),
            (RigidFamily.EXTRA_CASE, (6,)),
        ]
        for tag, sizes in cases:
            for n in sizes:
                tup = rigid_family_tuple(tag, n)
                report = decide_generic(tup)
                assert report.verdict is Verdict.SOLVABLE, (tag, n)
                assert report.kappa == 2, (tag, n)
                assert report.trace.termination_reason is TerminationReason.N_EQUALS_1
                assert report.trace.terminal.n == 1


def test_a5_special_tables():
    """All eight equal-block-size rows at k=2: recognizer fires, kappa=0 on
    the special rows, verdicts per problem and mode; k=1 instances solvable."""
    with _Timer("A5 special/almost-special rows at k=2 and k=1", 5):
        special = [
            SpecialKind.SPECIAL_A,
            SpecialKind.SPECIAL_B,
            SpecialKind.SPECIAL_C,
            SpecialKind.SPECIAL_D,
        ]
        almost = [
            SpecialKind.ALMOST_A,
            SpecialKind.ALMOST_B,
            SpecialKind.ALMOST_C,
            SpecialKind.ALMOST_D,
        ]
        for kind in special:
            tup = special_case_tuple(kind, 2)
            tag = match_special(tup)
            assert tag.kind is kind and tag.k == 2
            assert kappa_of(tup) == 0
            assert check_conditions(tup).omega
            for problem in ("dsp", "weak_dsp"):
                for mode in ("additive", "multiplicative"):
                    assert (
                        decide_unipotent_nilpotent(tup, problem, mode)
                        is Verdict.NOT_SOLVABLE
                    )
        for kind in almost:
            tup = almost_special_tuple(kind, 2)
            tag = match_special(tup)
            assert tag.kind is kind and tag.k == 2
            assert decide_unipotent_nilpotent(tup, "weak_dsp", "additive") is Verdict.SOLVABLE
            assert (
                decide_unipotent_nilpotent(tup, "weak_dsp", "multiplicative")
                is Verdict.SOLVABLE
            )
            assert decide_unipotent_nilpotent(tup, "dsp", "additive") is Verdict.NOT_SOLVABLE
            assert decide_unipotent_nilpotent(tup, "dsp", "multiplicative") is Verdict.UNKNOWN
        for kind in special:
            k1 = special_case_tuple(kind, 1)
            assert match_special(k1).kind is SpecialKind.NONE
            for mode in ("additive", "multiplicative"):
                assert decide_unipotent_nilpotent(k1, "dsp", mode) is Verdict.SOLVABLE


def _example41(first):
    one = MultiplicativeScalar.one()
    return [
        ClassSpec([(Partition([2, 2]), first)], "multiplicative"),
        ClassSpec([(Partition([2, 2]), one)], "multiplicative"),
        ClassSpec([(Partition([2, 2]), one)], "multiplicative"),
        ClassSpec([(Partition([2, 2]), one)], "multiplicative"),
    ]


def test_a6_two_block_quadruple_genericity():
    """Four classes of two 2-blocks (one eigenvalue each): with eigenvalues
    (i,1,1,1) the assignment is generic and the halved-multiplicity product
    is -1, a primitive square root of 1; with (-1,1,1,1) it is non-generic
    with an explicit selection witness (the halved product is 1)."""
    with _Timer("A6 two-block quadruple: generic vs non-generic", 1):
        i_unit = MultiplicativeScalar(1, Fraction(1, 4))
        minus_one = MultiplicativeScalar(1, Fraction(1, 2))

        generic = _example41(i_unit)
        assert find_relation(generic) is None
        red = gcd_reduction(generic)
        assert red.xi_primitive is True
        halved = red.xi ** (red.d // 2)  # multiplicities divided by 2
        assert halved == minus_one
        assert halved.is_primitive_root(2)

        nongeneric = _example41(minus_one)
        witness = find_relation(nongeneric)
        assert witness is not None
        assert witness.cardinality == 2
        assert witness.selections == ((2,), (2,), (2,), (2,))
        red2 = gcd_reduction(nongeneric)
        assert red2.xi_primitive is False
        assert (red2.xi ** (red2.d // 2)).is_one()


def test_a7_size9_good_but_not_special():
    """The size-9 triple is good; under eigenvalue assignments (multiplicities
    6 and 3 per class are divisible by 3) it is never special-diagonal; a
    tuple with rigidity index != 2 reports kappa_not_two."""
    with _Timer("A7 size-9 good triple is not special-diagonal", 5):
        tup = JnfTuple(
            [
                Jnf([[2, 2, 1, 1], [1, 1, 1]]),
                Jnf([[2, 2, 1, 1], [1, 1, 1]]),
                Jnf([[2, 2, 1, 1], [2, 1]]),
            ]
        )
        assert is_good(tup)
        assert kappa_of(tup) == 2

        additive = [
            ClassSpec(
                [(e.slots[0], AdditiveScalar(1)), (e.slots[1], AdditiveScalar(-2))],
                "additive",
            )
            for e in tup.entries
        ]
        assert is_special_diagonal(additive) is None

        omega3 = MultiplicativeScalar(1, Fraction(1, 3))
        multiplicative = [
            ClassSpec(
                [(e.slots[0], MultiplicativeScalar.one()), (e.slots[1], omega3)],
                "multiplicative",
            )
            for e in tup.entries
        ]
        assert is_special_diagonal(multiplicative) is None

        not_rigid = [
            ClassSpec([(Partition([2, 2]), AdditiveScalar(0))], "additive")
            for _ in range(4)
        ]
        with pytest.raises(KappaNotTwoError):
            is_special_diagonal(not_rigid)


def _a8_instances():
    """20 deterministic (solvable tuple, generic assignment, mode) instances."""
    rng = random.Random(0xA8)
    pool = []
    for n in (2, 3, 4):
        jnfs = all_jnfs(n)
        for m in (3, 4):
            for combo in itertools.combinations_with_replacement(jnfs, m):
                tup = JnfTuple(combo)
                if is_good(tup):
                    pool.append(tup)
    rng.shuffle(pool)
    instances = []
    for idx, tup in enumerate(pool):
        mode = "multiplicative" if len(instances) % 4 == 3 else "additive"
        try:
            specs = sample_generic(tup, mode, seed=idx, max_retries=200)
        except SamplingExhaustedError:
            continue
        instances.append((tup, specs))
        if len(instances) == 20:
            break
    assert len(instances) == 20
    return instances


def test_a8_realization_oracle_positive():
    """For 20 solvable instances with sampled generic eigenvalues (n <= 4,
    p <= 3) the search certifies an irreducible witness with trivial
    centralizer; at least 19/20 within the default budget."""
    with _Timer("A8 oracle certifies 20 solvable instances", 300):
        successes = 0
        failures = []
        for idx, (tup, specs) in enumerate(_a8_instances()):
            result = realize(specs, SearchBudget(seed=idx))
            n = tup.n
            ok = (
                result is not None
                and result.certified
                and result.residual < 1e-8
                and result.burnside_dim == n * n
                and result.centralizer_nullity == 1
            )
            if ok:
                successes += 1
            else:
                failures.append((idx, tup, None if result is None else result.residual))
        for failure in failures:
            print(f"  A8 failure: {failure}")
        assert successes >= 19, failures


def test_a9_explicit_strata_fixtures():
    """The warm-started triangular triple certifies at residual < 1e-12 with
    trivial centralizer and a proper invariant subspace; the diagonal stratum
    reports centralizer nullity 2."""
    with _Timer("A9 explicit 2x2 strata fixtures", 5):
        pairs = [(1, -2), (2, 4), (-3, -2)]
        specs = [
            ClassSpec(
                [(Partition([1]), AdditiveScalar(a)), (Partition([1]), AdditiveScalar(b))],
                "additive",
            )
            for a, b in pairs
        ]
        s1_warm = (
            np.eye(2, dtype=complex),
            np.array([[1, 1], [2, 0]], dtype=complex),
            np.array([[1, 1], [-1, 0]], dtype=complex),
        )
        res1 = realize(specs, SearchBudget(restarts=1, warm_start=s1_warm))
        assert res1 is not None and res1.certified
        assert res1.residual < 1e-12
        assert res1.centralizer_nullity == 1
        assert res1.burnside_dim < 4

        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        s0_warm = (np.eye(2, dtype=complex), swap, swap)
        res0 = realize(specs, SearchBudget(restarts=1, warm_start=s0_warm))
        assert res0 is not None and res0.certified
        assert res0.centralizer_nullity == 2


def test_a10_distinct_entry_consistency():
    """Exhaustive over tuples of size 2..6 (p <= 3) containing the
    distinct-eigenvalue entry: the generic verdict equals alpha and beta.
    Size 1 is solvable by definition and sits outside the equivalence."""
    with _Timer("A10 distinct-eigenvalue entry: verdict equals alpha and beta", 30):
        verdict_memo = {}
        checked = 0
        for n in range(2, 7):
            distinct = Jnf([[1]] * n)
            jnfs = all_jnfs(n)
            for m in (2, 3, 4):
                for others in itertools.combinations_with_replacement(jnfs, m - 1):
                    tup = JnfTuple((distinct,) + others)
                    key = tuple(sorted(tuple(tuple(s.parts) for s in e.slots) for e in tup))
                    verdict = verdict_memo.get(key)
                    if verdict is None:
                        verdict = decide_generic(tup).verdict
                        verdict_memo[key] = verdict
                    c = check_conditions(tup)
                    assert (verdict is Verdict.SOLVABLE) == (c.alpha and c.beta), tup
                    checked += 1
        assert checked > 40000
        assert decide_generic(JnfTuple([Jnf([[1]])] * 2)).verdict is Verdict.SOLVABLE


def test_a11_choice_independence_exhaustive():
    """Exhaustive maximizer exploration over every tuple of size <= 8
    (p <= 3) where the reduction is defined: all choice paths give one final
    verdict.

    The sweep runs on the package's ReductionEngine: each entry is interned
    to a small int once, a state is a sorted tuple of ids, and only the
    states reached as children are memoized, never the roots.  On a seeded
    sample its children are first checked against children rebuilt from
    plain int parts by the checked constructors (psi_step shares the
    engine's children, so it cannot check them) and its verdicts against decide_generic and the
    star-quiver root oracle, then the
    exhaustive sweep asserts a unique verdict per tuple (verdict() raises
    ChoiceDependenceError on any disagreement).
    """
    with _Timer("A11 reduction-choice independence (n <= 8, p <= 3)", 60):
        engine = ReductionEngine()
        rng = random.Random(11)
        fidelity_checked = 0
        for n in range(2, 9):
            for m in (3, 4):
                sampled = []
                for state in psi_sweep.iter_psi_defined_states(engine, n, m):
                    if rng.random() < 0.02:
                        sampled.append(state)
                    if len(sampled) >= 30:
                        break
                for state in sampled:
                    tup = JnfTuple([engine.jnfs[e] for e in state])
                    assert psi_defined(tup)
                    count = engine.gate(state)
                    options = [engine.choices(e, count) for e in state]
                    children = {tuple(sorted(c)) for c in itertools.product(*options)}
                    assert children == psi_sweep.children_from_plain_parts(engine, tup)
                    fast = engine.verdict(state)
                    assert fast is decide_generic(tup).verdict
                    assert (fast is Verdict.SOLVABLE) == star_root_verdict(tup)
                    fidelity_checked += 1
        assert fidelity_checked >= 200

        roots = 0
        for n in range(2, 9):
            for m in (3, 4):
                for state in psi_sweep.iter_psi_defined_states(engine, n, m):
                    engine.verdict(state)  # raises on any disagreement
                    roots += 1
        assert roots == 4_323_249
        print(f"  A11 swept {roots} reduction-defined tuples")
