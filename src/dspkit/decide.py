"""Solvability conditions and the block-reduction decision procedure.

Implements the three integer conditions on a JNF tuple

    alpha:  sum d_j >= 2n^2 - 2
    beta:   for all j, sum_{i != j} r_i >= n
    omega:  sum r_j >= 2n

and the size-reducing construction on JNF tuples (choose per entry an
eigenvalue with the maximal number of Jordan blocks, shrink its smallest
blocks) whose iteration decides solvability at generic eigenvalues.
`ReductionEngine` is the one implementation of that iteration: the
default-choice walk behind `decide_generic` and `classify.is_good`, the
single step of `psi_step` and the verdict over every choice of maximizer
slots all run on its interned ids.  The package's own calls share one
bounded engine per thread (`_engine`), so a child met again is looked up,
not rebuilt.
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Optional, Sequence

from ._record import Record
from .errors import (
    ChoiceDependenceError,
    InvalidChoiceError,
    NotApplicableError,
    PsiUndefinedError,
)
from .jnf import Jnf, JnfTuple, Partition, kappa_of

__all__ = [
    "ConditionCheck",
    "Verdict",
    "TerminationReason",
    "PsiStep",
    "PsiTrace",
    "DecisionReport",
    "check_conditions",
    "psi_defined",
    "maximizer_slots",
    "default_choice",
    "psi_step",
    "ReductionEngine",
    "decide_generic",
    "is_distinct_eigenvalue_jnf",
    "decide_weak_distinct",
]


class ConditionCheck(Record):
    alpha: bool
    alpha_strict: bool
    beta: bool
    omega: bool
    n: int

    def __init__(self, alpha: bool, alpha_strict: bool, beta: bool, omega: bool, n: int):
        self.__dict__.update(alpha=alpha, alpha_strict=alpha_strict, beta=beta, omega=omega, n=n)


def _sums(tup: JnfTuple) -> tuple[int, int, int]:
    """The sum of r, the largest r and the sum of d over the entries."""
    # Plain loop: on 3.11 a comprehension costs more than these few entries.
    r_sum = d_sum = top_r = 0
    for e in tup.entries:
        r = e.r
        r_sum += r
        d_sum += e.d
        if r > top_r:
            top_r = r
    return r_sum, top_r, d_sum


def check_conditions(tup: JnfTuple) -> ConditionCheck:
    """Evaluate alpha, beta, omega exactly from the class invariants."""
    n = tup.n
    r_sum, top_r, d_sum = _sums(tup)
    bound = 2 * n * n - 2
    # beta asks r_sum - r_j >= n for every j; the largest r_j is the binding one
    return ConditionCheck(d_sum >= bound, d_sum > bound, r_sum - top_r >= n, r_sum >= 2 * n, n)


class Verdict(enum.Enum):
    SOLVABLE = "solvable"
    NOT_SOLVABLE = "not_solvable"
    UNKNOWN = "unknown"
    NOT_APPLICABLE = "not_applicable"


class TerminationReason(enum.Enum):
    OMEGA_HOLDS = "omega_holds"
    N_EQUALS_1 = "n_equals_1"
    PSI_UNDEFINED = "psi_undefined"


class PsiStep(Record):
    input: JnfTuple
    chosen_slots: tuple[int, ...]
    n1: int

    def __init__(self, input: JnfTuple, chosen_slots: tuple[int, ...], n1: int):
        self.__dict__.update(input=input, chosen_slots=chosen_slots, n1=n1)


class PsiTrace(Record):
    steps: tuple[PsiStep, ...]
    terminal: JnfTuple
    termination_reason: TerminationReason

    def __init__(
        self, steps: tuple[PsiStep, ...], terminal: JnfTuple, termination_reason: TerminationReason
    ):
        self.__dict__.update(steps=steps, terminal=terminal, termination_reason=termination_reason)


class DecisionReport(Record):
    verdict: Verdict
    conditions: ConditionCheck
    kappa: int
    trace: Optional[PsiTrace]
    expected_moduli_dimension: Optional[int]

    def __init__(
        self,
        verdict: Verdict,
        conditions: ConditionCheck,
        kappa: int,
        trace: Optional[PsiTrace],
        expected_moduli_dimension: Optional[int],
    ):
        self.__dict__.update(
            verdict=verdict,
            conditions=conditions,
            kappa=kappa,
            trace=trace,
            expected_moduli_dimension=expected_moduli_dimension,
        )


def maximizer_slots(jnf: Jnf) -> list[int]:
    """Canonical slot indices attaining the maximal Jordan-block count, as a
    fresh list (the value keeps its own tuple, `Jnf.maximizers`)."""
    return list(jnf.maximizers)


def default_choice(jnf: Jnf) -> int:
    """Deterministic tie-break: maximal block count, then largest slot total,
    then lowest canonical slot index (stored on the value as
    `Jnf.default_slot`)."""
    return jnf.default_slot


# enum members read through the class cost ~10x a global on 3.11; the sweeps
# read these once per state
_OMEGA = TerminationReason.OMEGA_HOLDS
_N1 = TerminationReason.N_EQUALS_1
_UNDEFINED = TerminationReason.PSI_UNDEFINED
_SOLVABLE = Verdict.SOLVABLE
_NOT_SOLVABLE = Verdict.NOT_SOLVABLE


def _gate(n: int, r_sum: int, top_r: int, d_sum: int) -> int | TerminationReason:
    """Why the reduction stops at a tuple of size n with these sums of r and
    d and this largest r, or, where the step is defined, the number
    n - n1 = 2n - sum r of smallest blocks it shrinks per entry.

    The stops, in order: omega holds; n == 1; alpha or beta fails (the step
    is undefined).  Beta bounds the count by every entry's largest block
    count, and not-omega makes it positive.
    """
    if r_sum >= 2 * n:
        return _OMEGA
    if n == 1:
        return _N1
    if r_sum - top_r < n or d_sum < 2 * n * n - 2:
        return _UNDEFINED
    return 2 * n - r_sum


def _tuple_gate(tup: JnfTuple) -> int | TerminationReason:
    return _gate(tup.n, *_sums(tup))


class ReductionEngine:
    """The reduction step on interned JNF ids.

    Every distinct `Jnf` the engine meets gets one small int id.  Per id it
    keeps the Jnf (`jnfs`), its `r` and `d` and, computed on first use, its
    child per (slot, shrink count) and the children over the distinct
    maximizer slots per shrink count; that last row is allocated the first
    time `choices` runs for the id, so engines that never call it (the
    shared one) hold none.  A state is a sequence of ids of one
    size, one per entry.  Every table, the verdict memo included, lives as
    long as the engine and grows with it; an engine is not safe to share
    between threads, since `intern` reads the next id before it stores it.

    `decide_generic`, `classify.is_good` and `psi_step` share one engine per
    thread (`_engine`); only engines a caller builds for itself fill the
    verdict memo, as the exhaustive sweeps do.
    """

    def __init__(self) -> None:
        self._ids: dict[Jnf, int] = {}
        self.jnfs: list[Jnf] = []
        self.r: list[int] = []
        self.d: list[int] = []
        # id -> [shrink count] -> choices(id, count), None until first use;
        # beta keeps the count within the entry's largest block count
        self._kids: dict[int, list[Optional[tuple[int, ...]]]] = {}
        self._children: dict[tuple[int, int, int], int] = {}
        self._verdicts: dict[tuple[int, ...], Verdict] = {}

    def intern(self, jnf: Jnf) -> int:
        """The id of `jnf`, assigned on first sight."""
        new = len(self.jnfs)
        got = self._ids.setdefault(jnf, new)
        if got == new:
            self.jnfs.append(jnf)
            self.r.append(jnf.r)
            self.d.append(jnf.d)
        return got

    def state(self, tup: JnfTuple) -> list[int]:
        """The ids of the entries of `tup`, in entry order."""
        return [self.intern(e) for e in tup.entries]

    def gate(self, state: Sequence[int]) -> int | TerminationReason:
        """Why the reduction stops at `state`, or the number of smallest
        blocks the step shrinks per entry (the rule is `_gate`)."""
        r, d = self.r, self.d
        # Plain loop: on 3.11 a comprehension costs more than these few entries.
        r_sum = d_sum = top_r = 0
        for e in state:
            r_e = r[e]
            r_sum += r_e
            d_sum += d[e]
            if r_e > top_r:
                top_r = r_e
        return _gate(self.jnfs[state[0]].size, r_sum, top_r, d_sum)

    def child(self, e: int, slot: int, count: int) -> int:
        """Entry `e` with the `count` smallest blocks of `slot` shrunk by 1,
        built on the first call for (e, slot, count) and looked up after."""
        key = (e, slot, count)
        got = self._children.get(key)
        if got is None:
            got = self._children[key] = self.intern(self.jnfs[e]._shrunk(slot, count))
        return got

    def choices(self, e: int, count: int) -> tuple[int, ...]:
        """The children of entry `e` at one shrink count over every maximizer
        slot, one per distinct slot partition (equal slots, equal children)."""
        row = self._kids.get(e)
        if row is None:
            row = self._kids[e] = [None] * (self.jnfs[e].max_blocks + 1)
        got = row[count]
        if got is None:
            jnf = self.jnfs[e]
            firsts: dict[Partition, int] = {}
            for i in jnf.maximizers:
                firsts.setdefault(jnf.slots[i], i)
            got = row[count] = tuple(self.child(e, i, count) for i in firsts.values())
        return got

    def verdict(self, state: Sequence[int]) -> Verdict:
        """The final verdict of the reduction from `state`, the same over
        every choice of maximizer slots.

        Solvable iff the reduction stops at omega or n == 1.  The verdicts of
        children are memoized by sorted id state, the state's own is not, so
        a sweep over many roots keeps only the states reached as children.
        Raises ChoiceDependenceError as soon as two choice paths disagree.
        """
        count = self.gate(state)
        if isinstance(count, TerminationReason):
            return _NOT_SOLVABLE if count is _UNDEFINED else _SOLVABLE
        kids = self._kids
        options = []
        for e in state:
            row = kids.get(e)
            got = None if row is None else row[count]
            options.append(self.choices(e, count) if got is None else got)
        memo = self._verdicts
        verdict = None
        for combo in itertools.product(*options):
            child = tuple(sorted(combo))
            got = memo.get(child)
            if got is None:
                got = memo[child] = self.verdict(child)
            if verdict is None:
                verdict = got
            elif got is not verdict:
                tup = JnfTuple([self.jnfs[e] for e in state])
                raise ChoiceDependenceError(
                    f"choice paths disagree on {tup}: {verdict.value} vs {got.value}"
                )
        return verdict

    def walk(
        self, tup: JnfTuple
    ) -> tuple[list[list[int]], list[tuple[int, ...]], TerminationReason]:
        """Run the reduction from `tup` with the default tie-break until it
        stops, on ids: the id state of `tup` and of every later tuple, the
        slots chosen at each step, and why it stopped."""
        jnfs = self.jnfs
        state = self.state(tup)
        states = [state]
        chosen_slots: list[tuple[int, ...]] = []
        while True:
            count = self.gate(state)
            if isinstance(count, TerminationReason):
                return states, chosen_slots, count
            chosen = tuple([jnfs[e].default_slot for e in state])
            chosen_slots.append(chosen)
            state = [self.child(e, c, count) for e, c in zip(state, chosen)]
            states.append(state)

    def trace(self, tup: JnfTuple) -> PsiTrace:
        """The default-choice reduction of `walk` as a trace of tuples; they
        are built only here, once per state, from entries already checked."""
        states, chosen_slots, reason = self.walk(tup)
        jnfs = self.jnfs
        tuples = [tup]
        for state in states[1:]:
            tuples.append(JnfTuple._of_one_size(tuple([jnfs[e] for e in state])))
        steps = tuple(
            PsiStep(t, c, after.n) for t, c, after in zip(tuples, chosen_slots, tuples[1:])
        )
        return PsiTrace(steps, tuples[-1], reason)


# Ids one thread's shared engine may hold before `_engine` replaces it.  An
# id costs about 0.56 KB (its Jnf, children and table rows) on tuples with
# n <= 5 and about 1.7 KB on random tuples with n <= 12, so a full engine
# holds 2.3-6.9 MB; deciding and sweeping all 5,552 reduction-defined tuples
# with n <= 5 and 800 random ones meets about 1,000 distinct JNFs.
_ENGINE_CAP = 4096
_local = threading.local()


def _engine() -> ReductionEngine:
    """This thread's shared engine (one per thread, since an engine is not
    thread-safe), replaced by a fresh one once it holds more than
    `_ENGINE_CAP` ids."""
    engine = getattr(_local, "engine", None)
    if engine is None or len(engine.jnfs) > _ENGINE_CAP:
        engine = _local.engine = ReductionEngine()
    return engine


def psi_defined(tup: JnfTuple) -> bool:
    """The reduction step is defined iff alpha and beta hold, omega fails, n > 1."""
    return not isinstance(_tuple_gate(tup), TerminationReason)


def psi_step(tup: JnfTuple, choice: Optional[Sequence[int]] = None) -> JnfTuple:
    """One application of the block-reduction construction.

    Produces the tuple of size n1 = sum r_j - n obtained by decrementing, in
    each entry, the n - n1 smallest blocks of a slot with maximal block count.
    `choice` optionally fixes the chosen slot per entry; every chosen slot
    must attain the maximal block count of its entry.  Raises
    PsiUndefinedError where the step is undefined and InvalidChoiceError for
    a bad `choice`.
    """
    count = _tuple_gate(tup)
    if isinstance(count, TerminationReason):
        raise PsiUndefinedError(
            "reduction step undefined: needs alpha and beta to hold, omega to fail, n > 1"
        )
    entries = tup.entries
    if choice is None:
        chosen = [e.default_slot for e in entries]
    else:
        try:
            chosen = list(choice)
        except TypeError:
            raise InvalidChoiceError(
                f"choice must be a sequence of slot indices, got {choice!r}"
            ) from None
        if len(chosen) != len(entries):
            raise InvalidChoiceError("one slot choice per entry required")
        for e, c in zip(entries, chosen):
            if c.__class__ is not int:
                raise InvalidChoiceError(f"slot choices must be ints, got {c!r}")
            if not (0 <= c < len(e.slots) and e.slots[c].num_parts == e.max_blocks):
                raise InvalidChoiceError(
                    f"slot {c} of {e} does not attain the maximal block count"
                )
    engine = _engine()
    jnfs, intern, child = engine.jnfs, engine.intern, engine.child
    # every shrunk entry has size n1, so the tuple needs no size check
    return JnfTuple._of_one_size(
        tuple([jnfs[child(intern(e), c, count)] for e, c in zip(entries, chosen)])
    )


def decide_generic(tup: JnfTuple) -> DecisionReport:
    """Solvability verdict for generic eigenvalues, with the full reduction trace.

    Solvable iff beta holds for the input and the reduction, iterated as long
    as defined, stops at a tuple satisfying omega or of size 1.  Size-1 input
    is solvable by definition.  The step is re-gated on the current tuple at
    every iteration; a gate failure before a stop condition is not_solvable.
    """
    trace = _engine().trace(tup)
    kappa = kappa_of(tup)
    solvable = trace.termination_reason is not _UNDEFINED
    return DecisionReport(
        Verdict.SOLVABLE if solvable else Verdict.NOT_SOLVABLE,
        check_conditions(tup),
        kappa,
        trace,
        2 - kappa if solvable else None,
    )


def is_distinct_eigenvalue_jnf(jnf: Jnf) -> bool:
    """n eigenvalue slots, each a single block of size 1."""
    return all(s.parts == (1,) for s in jnf.slots)


def decide_weak_distinct(tup: JnfTuple) -> DecisionReport:
    """Weak-problem verdict when some entry has all-distinct eigenvalues.

    With such an entry, alpha and beta together are necessary and sufficient.
    """
    if not any(is_distinct_eigenvalue_jnf(e) for e in tup.entries):
        raise NotApplicableError(
            "no entry has n distinct eigenvalues",
            requirement="one entry must be the distinct-eigenvalue JNF",
        )
    conditions = check_conditions(tup)
    kappa = kappa_of(tup)
    solvable = tup.n == 1 or (conditions.alpha and conditions.beta)
    return DecisionReport(
        Verdict.SOLVABLE if solvable else Verdict.NOT_SOLVABLE,
        conditions,
        kappa,
        None,
        2 - kappa if solvable else None,
    )
