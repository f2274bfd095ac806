"""Conditions, the reduction step, and the generic/weak decision procedures."""

import itertools
import random
import sys
import threading

import pytest

from dspkit import classify, decide
from dspkit.classify import is_good
from dspkit.decide import (
    ReductionEngine,
    TerminationReason,
    Verdict,
    check_conditions,
    decide_generic,
    decide_weak_distinct,
    maximizer_slots,
    psi_defined,
    psi_step,
)
from dspkit.enumerate import all_jnfs, random_psi_defined_tuple
from dspkit.errors import InvalidChoiceError, NotApplicableError, PsiUndefinedError
from dspkit.jnf import Jnf, JnfTuple, kappa_of

from oracles import assert_same_as_checked, shrink_plain, star_root_verdict


def diag(*mults):
    return Jnf([[1] * m for m in mults])


HYPER2 = JnfTuple([diag(1, 1)] * 3)
ODD3 = JnfTuple([diag(2, 1), diag(1, 1, 1), diag(1, 1, 1)])
EXTRA6 = JnfTuple([diag(4, 2), diag(2, 2, 2), diag(1, 1, 1, 1, 1, 1)])


class TestConditions:
    def test_hypergeometric_n2(self):
        c = check_conditions(HYPER2)
        assert c.alpha and not c.alpha_strict
        assert c.beta
        assert not c.omega

    def test_any_pair_fails_beta(self):
        for jnf in (diag(1, 1), Jnf([[2]]), diag(2, 1)):
            c = check_conditions(JnfTuple([jnf, jnf]))
            assert not c.beta

    def test_special_b_k2_omega(self):
        tup = JnfTuple([Jnf([[3, 3]])] * 3)
        c = check_conditions(tup)
        assert c.omega  # r_j = 4 each, 12 >= 12

    def test_omega_implies_strict_alpha(self):
        # Lemma-style consistency on a few omega tuples
        for tup in (JnfTuple([Jnf([[3, 3]])] * 3), JnfTuple([Jnf([[2, 2]])] * 4)):
            c = check_conditions(tup)
            assert c.omega
            assert c.alpha and c.alpha_strict
            assert kappa_of(tup) <= 0


class TestPsiStep:
    def test_hypergeometric_reduces_to_size1(self):
        out = psi_step(HYPER2)
        assert out.n == 1
        assert all(e == Jnf([[1]]) for e in out.entries)

    def test_odd_family_hand_trace(self):
        out = psi_step(ODD3)
        assert out == JnfTuple([diag(1, 1)] * 3)
        assert kappa_of(out) == kappa_of(ODD3) == 2

    def test_undefined_when_omega_holds(self):
        tup = JnfTuple([Jnf([[3, 3]])] * 3)
        with pytest.raises(PsiUndefinedError):
            psi_step(tup)

    def test_undefined_when_beta_fails(self):
        tup = JnfTuple([diag(1, 1), diag(1, 1)])
        assert not psi_defined(tup)
        with pytest.raises(PsiUndefinedError):
            psi_step(tup)

    def test_invalid_choice_rejected(self):
        # entry 0 of ODD3 has maximizer slot (1,1); choosing its 1-slot is invalid
        slots = ODD3.entries[0].slots
        non_max = next(
            i for i in range(len(slots)) if i not in maximizer_slots(ODD3.entries[0])
        )
        with pytest.raises(InvalidChoiceError):
            psi_step(ODD3, [non_max, 0, 0])

    @pytest.mark.parametrize(
        "choice", [5, [0.0, 0, 0], [True, 0, 0], ["0", 0, 0], [0, 0], [-1, 0, 0], [9, 0, 0]]
    )
    def test_bad_choice_raises_invalid_choice(self, choice):
        # on ODD3 the step is defined and slot 0 is a maximizer of every entry
        assert [maximizer_slots(e)[0] for e in ODD3.entries] == [0, 0, 0]
        with pytest.raises(InvalidChoiceError):
            psi_step(ODD3, choice)

    def test_every_choice_equals_checked_tuple(self):
        """psi_step over every choice of maximizer slots, on every
        reduction-defined tuple with n <= 5 and 3-4 entries, equals the tuple
        the checked constructors build from plain int parts."""
        steps = 0
        for n in range(2, 6):
            for m in (3, 4):
                for combo in itertools.combinations_with_replacement(all_jnfs(n), m):
                    tup = JnfTuple(combo)
                    if not psi_defined(tup):
                        continue
                    count = 2 * n - sum(e.r for e in tup.entries)
                    options = [maximizer_slots(e) for e in tup.entries]
                    for choice in itertools.product(*options):
                        plain = [
                            shrink_plain([s.parts for s in e.slots], c, count)
                            for e, c in zip(tup.entries, choice)
                        ]
                        assert_same_as_checked(psi_step(tup, choice), JnfTuple(plain))
                        steps += 1
        assert steps == 11780

    def test_explicit_maximizer_choice(self):
        choice = [maximizer_slots(e)[0] for e in ODD3.entries]
        assert psi_step(ODD3, choice) == psi_step(ODD3)


class TestDecideGeneric:
    def test_extra_case(self):
        rep = decide_generic(EXTRA6)
        assert rep.verdict is Verdict.SOLVABLE
        assert rep.kappa == 2
        assert rep.trace.termination_reason is TerminationReason.N_EQUALS_1
        assert [s.input.n for s in rep.trace.steps] == [6, 5, 4, 3, 2]
        assert rep.expected_moduli_dimension == 0

    def test_omega_immediately(self):
        tup = JnfTuple([Jnf([[2, 2]])] * 4)
        rep = decide_generic(tup)
        assert rep.verdict is Verdict.SOLVABLE
        assert rep.trace.termination_reason is TerminationReason.OMEGA_HOLDS
        assert len(rep.trace.steps) == 0
        assert rep.kappa == 0

    def test_pair_not_solvable(self):
        rep = decide_generic(JnfTuple([diag(1, 1), diag(1, 1)]))
        assert rep.verdict is Verdict.NOT_SOLVABLE
        assert rep.trace.termination_reason is TerminationReason.PSI_UNDEFINED

    def test_n1_solvable_by_definition(self):
        rep = decide_generic(JnfTuple([Jnf([[1]])] * 3))
        assert rep.verdict is Verdict.SOLVABLE

    def test_kappa_constant_along_trace(self):
        rep = decide_generic(EXTRA6)
        for step in rep.trace.steps:
            assert kappa_of(step.input) == rep.kappa
        assert kappa_of(rep.trace.terminal) == rep.kappa


def _plain_trace(tup):
    """The default-choice reduction on plain int tuples: a tuple is a tuple of
    entries, an entry a descending-sorted tuple of descending partitions.
    Returns (steps as (input, chosen slots, n1), terminal, reason)."""
    steps = []
    while True:
        n = sum(sum(p) for p in tup[0])
        rs = [n - max(len(p) for p in e) for e in tup]
        d_sum = sum(n * n - sum((2 * i + 1) * b for p in e for i, b in enumerate(p)) for e in tup)
        r_sum = sum(rs)
        if r_sum >= 2 * n:
            return steps, tup, "omega_holds"
        if n == 1:
            return steps, tup, "n_equals_1"
        if d_sum < 2 * n * n - 2 or any(r_sum - r < n for r in rs):
            return steps, tup, "psi_undefined"
        chosen = []
        for e in tup:
            top = max(len(p) for p in e)
            best = [i for i, p in enumerate(e) if len(p) == top]
            chosen.append(max(best, key=lambda i: (sum(e[i]), -i)))
        n1 = r_sum - n
        steps.append((tup, tuple(chosen), n1))
        cut = n - n1
        new_tup = []
        for e, c in zip(tup, chosen):
            p = e[c]
            shrunk = p[: len(p) - cut] + tuple(b - 1 for b in p[len(p) - cut :] if b > 1)
            slots = [q for i, q in enumerate(e) if i != c] + ([shrunk] if shrunk else [])
            new_tup.append(tuple(sorted(slots, reverse=True)))
        tup = tuple(new_tup)


def _plain(tup):
    return tuple(tuple(s.parts for s in e.slots) for e in tup.entries)


def _assert_trace_matches(tup) -> bool:
    """Check the trace and the verdict of `tup`; returns the verdict."""
    report = decide_generic(tup)
    root = star_root_verdict(tup)
    assert (report.verdict is Verdict.SOLVABLE) == root, tup
    assert is_good(tup) == root, tup
    steps, terminal, reason = _plain_trace(_plain(tup))
    got = [(_plain(s.input), s.chosen_slots, s.n1) for s in report.trace.steps]
    assert got == steps, tup
    assert _plain(report.trace.terminal) == terminal, tup
    assert report.trace.termination_reason.value == reason, tup
    if report.trace.steps:
        # every tuple after the input is built on the trusted path
        for t in [s.input for s in report.trace.steps[1:]] + [report.trace.terminal]:
            assert_same_as_checked(t, JnfTuple(_plain(t)))
    for step in report.trace.steps:
        for e in step.input.entries:
            top = max(len(s.parts) for s in e.slots)
            assert maximizer_slots(e) == [i for i, s in enumerate(e.slots) if len(s.parts) == top]
    return root


class TestTraceAgainstPlainTuples:
    """decide_generic traces equal a recomputation on plain int tuples, and
    its verdicts and is_good's equal the star-quiver root test (Kac;
    Crawley-Boevey 2003, Thm 1), which shares no code with the reduction.
    Every trace tuple equals the checked constructors' value from its parts."""

    def test_every_small_reduction_defined_tuple(self):
        """Every tuple with n <= 5 and 2-4 entries, reduction-defined or not."""
        seen = {True: 0, False: 0}
        defined = 0
        for n in range(1, 6):
            for m in (2, 3, 4):
                for combo in itertools.combinations_with_replacement(all_jnfs(n), m):
                    tup = JnfTuple(combo)
                    seen[_assert_trace_matches(tup)] += 1
                    defined += m > 2 and psi_defined(tup)
        assert seen == {True: 29865, False: 4854}
        assert defined == 5552

    def test_seeded_random_tuples(self):
        """Beta holds at the start of these tuples and kappa is invariant, so
        every not-solvable one stops on the beta re-gate after some steps."""
        rng = random.Random(4)
        seen = {True: 0, False: 0}
        while sum(seen.values()) < 2000:
            tup = random_psi_defined_tuple(rng, max_n=12)
            if tup is None:
                continue
            seen[_assert_trace_matches(tup)] += 1
        assert seen[True] and seen[False], seen


class TestDecideWeakDistinct:
    def test_hypergeometric(self):
        rep = decide_weak_distinct(HYPER2)
        assert rep.verdict is Verdict.SOLVABLE

    def test_pair_n3(self):
        tup = JnfTuple([diag(1, 1, 1), diag(2, 1)])
        rep = decide_weak_distinct(tup)
        assert rep.verdict is Verdict.NOT_SOLVABLE

    def test_n1(self):
        rep = decide_weak_distinct(JnfTuple([Jnf([[1]])] * 2))
        assert rep.verdict is Verdict.SOLVABLE

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            decide_weak_distinct(JnfTuple([Jnf([[2, 2]])] * 4))


class TestRandomProperties:
    def test_kappa_invariance_sample(self):
        rng = random.Random(20240817)
        checked = 0
        while checked < 100:
            tup = random_psi_defined_tuple(rng)
            if tup is None:
                continue
            assert kappa_of(psi_step(tup)) == kappa_of(tup)
            checked += 1

    def test_monotone_termination(self):
        rng = random.Random(99)
        for _ in range(40):
            tup = random_psi_defined_tuple(rng)
            if tup is None:
                continue
            rep = decide_generic(tup)
            sizes = [s.input.n for s in rep.trace.steps] + [rep.trace.terminal.n]
            assert all(a > b for a, b in zip(sizes, sizes[1:]))
            assert len(rep.trace.steps) < tup.n

    def test_regating_cases_are_not_solvable(self):
        """Where iteration halts on a gate failure, the verdict must be
        not_solvable; record how often re-gating actually fires."""
        rng = random.Random(7)
        fired = 0
        for _ in range(300):
            tup = random_psi_defined_tuple(rng, max_n=10)
            if tup is None:
                continue
            rep = decide_generic(tup)
            if rep.trace.termination_reason is TerminationReason.PSI_UNDEFINED:
                fired += 1
                assert rep.verdict is Verdict.NOT_SOLVABLE
                assert len(rep.trace.steps) >= 1  # beta held at the start
        print(f"re-gating terminated {fired} randomized runs")

    def test_sweep_enumerator_matches_naive_filter(self):
        """The fast sweep enumerator yields exactly the reduction-defined
        multisets (elementwise, against a naive psi_defined filter)."""
        from psi_sweep import iter_psi_defined_states

        engine = ReductionEngine()
        for n in range(2, 6):
            for m in (3, 4):
                fast = list(iter_psi_defined_states(engine, n, m))
                naive = {
                    tuple(sorted(engine.state(tup)))
                    for combo in itertools.combinations_with_replacement(all_jnfs(n), m)
                    for tup in [JnfTuple(combo)]
                    if psi_defined(tup)
                }
                assert len(fast) == len(set(fast)) and set(fast) == naive, (n, m)

    def test_regating_never_changes_small_verdicts(self):
        """Recorder: re-gating beta at every step versus checking it only at
        the start gives identical verdicts on every reduction-defined tuple
        of size <= 6 (same slot-choice rule in both variants); any difference
        would be reported here."""
        from psi_sweep import iter_psi_defined_states

        engine = ReductionEngine()
        r, d = engine.r, engine.d

        def walk(state, regate_beta):
            # beta holds at the start: every state swept here is reduction-defined
            while True:
                count = engine.gate(state)
                if count in (TerminationReason.OMEGA_HOLDS, TerminationReason.N_EQUALS_1):
                    return "solvable"
                if count is TerminationReason.PSI_UNDEFINED:
                    n = engine.jnfs[state[0]].size
                    if regate_beta or sum(d[e] for e in state) < 2 * n * n - 2:
                        return "not_solvable"
                    # without beta, step on while each entry has the blocks to shrink
                    count = 2 * n - sum(r[e] for e in state)
                    if count >= n or any(count > n - r[e] for e in state):
                        return "not_solvable"
                state = [engine.choices(e, count)[0] for e in state]

        differences = []
        for n in range(2, 7):
            for m in (3, 4):
                for state in iter_psi_defined_states(engine, n, m):
                    if walk(state, True) != walk(state, False):
                        differences.append(JnfTuple([engine.jnfs[e] for e in state]))
        print(f"re-gating changed {len(differences)} verdicts (size <= 6)")
        for tup in differences[:20]:
            print("  differs:", tup)
        assert not differences


@pytest.fixture(scope="module")
def engine_population():
    """All 5,552 reduction-defined tuples with n <= 5 and 3-4 entries, then
    2,000 seeded random reduction-defined tuples with n <= 12."""
    tups = [
        tup
        for n in range(2, 6)
        for m in (3, 4)
        for combo in itertools.combinations_with_replacement(all_jnfs(n), m)
        for tup in [JnfTuple(combo)]
        if psi_defined(tup)
    ]
    assert len(tups) == 5552
    rng = random.Random(4)
    while len(tups) < 5552 + 2000:
        tup = random_psi_defined_tuple(rng, max_n=12)
        if tup is not None:
            tups.append(tup)
    return tups


def _engine_results(tups):
    """Per tuple: the decision report's repr, is_good, and psi_step's output
    (repr, hash and stored invariants) at the default choice and at every
    choice of maximizer slots."""
    out = []
    for tup in tups:
        steps = []
        for choice in [None, *itertools.product(*[maximizer_slots(e) for e in tup.entries])]:
            child = psi_step(tup, choice)
            invariants = [(e.size, e.max_blocks, e.r, e.z, e.d) for e in child.entries]
            steps.append((repr(child), hash(child), invariants))
        out.append((repr(decide_generic(tup)), is_good(tup), steps))
    return out


@pytest.fixture(scope="module")
def fresh_engine_results(engine_population):
    """The results with a fresh ReductionEngine for every call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_engine", ReductionEngine)
        mp.setattr(classify, "_engine", ReductionEngine)
        return _engine_results(engine_population)


class TestSharedEngine:
    """decide_generic, is_good and psi_step share one bounded engine per
    thread; on every tuple and choice they give what a fresh engine per call
    gives, cold and warm, across replacements at the cap and on threads."""

    @pytest.fixture(autouse=True)
    def cold_engines(self, monkeypatch):
        monkeypatch.setattr(decide, "_local", threading.local())

    def test_cold_and_warm(self, engine_population, fresh_engine_results):
        assert _engine_results(engine_population) == fresh_engine_results
        engine = decide._engine()
        assert len(engine.jnfs) <= decide._ENGINE_CAP
        assert _engine_results(engine_population) == fresh_engine_results
        assert decide._engine() is engine

    def test_choice_rows_only_where_choices_ran(self):
        """The shared engine never calls `choices`, so it holds no choice
        rows; an engine that runs `verdict` holds one per id it chose from."""
        tups = [HYPER2, ODD3, EXTRA6, JnfTuple([((2,), (1,), (1,)), ((3,), (1,)), ((2, 1, 1),)])]
        for tup in tups:
            decide_generic(tup)
            is_good(tup)
            for choice in itertools.product(*[maximizer_slots(e) for e in tup.entries]):
                psi_step(tup, choice)
        assert len(decide._engine().jnfs) > 10 and decide._engine()._kids == {}
        engine = ReductionEngine()
        for tup in tups:
            engine.trace(tup)
        assert engine._kids == {}
        for tup in tups:
            assert engine.verdict(engine.state(tup)) is Verdict.SOLVABLE
        rows = engine._kids
        assert rows and set(rows) < set(range(len(engine.jnfs)))
        for e, row in rows.items():
            assert len(row) == engine.jnfs[e].max_blocks + 1 and any(row)
            assert all(got == engine.choices(e, c) for c, got in enumerate(row) if got)

    def test_replaced_past_the_cap(self, monkeypatch, engine_population, fresh_engine_results):
        monkeypatch.setattr(decide, "_ENGINE_CAP", 8)
        first = decide._engine()
        assert _engine_results(engine_population) == fresh_engine_results
        assert decide._engine() is not first
        assert len(decide._engine().jnfs) <= 8

    def test_one_engine_per_thread(self, engine_population, fresh_engine_results):
        """Four threads, more than the cores, switching every 10 us: an
        engine shared between them would hand out wrong ids."""
        slices = 4
        start = threading.Barrier(slices, timeout=60)
        results = [None] * slices
        engines = [None] * slices

        def work(i):
            start.wait()
            results[i] = _engine_results(engine_population[i::slices])
            engines[i] = decide._engine()

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
            assert results[i] == fresh_engine_results[i::slices], i
        assert len({id(e) for e in engines}) == slices
        assert decide._engine() not in engines
