"""Solvability conditions and the block-reduction decision procedure.

Implements the three integer conditions on a JNF tuple

    alpha:  sum d_j >= 2n^2 - 2
    beta:   for all j, sum_{i != j} r_i >= n
    omega:  sum r_j >= 2n

and the size-reducing construction on JNF tuples (choose per entry an
eigenvalue with the maximal number of Jordan blocks, shrink its smallest
blocks) whose iteration decides solvability at generic eigenvalues.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidChoiceError, NotApplicableError, PsiUndefinedError
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
    "decide_generic",
    "is_distinct_eigenvalue_jnf",
    "decide_weak_distinct",
]


@dataclass(frozen=True)
class ConditionCheck:
    alpha: bool
    alpha_strict: bool
    beta: bool
    omega: bool
    n: int


def check_conditions(tup: JnfTuple) -> ConditionCheck:
    """Evaluate alpha, beta, omega exactly from the class invariants."""
    n = tup.n
    rs = [e.r for e in tup.entries]
    d_sum = sum(e.d for e in tup.entries)
    r_sum = sum(rs)
    # beta asks r_sum - r_j >= n for every j; the largest r_j is the binding one
    return ConditionCheck(
        alpha=d_sum >= 2 * n * n - 2,
        alpha_strict=d_sum > 2 * n * n - 2,
        beta=r_sum - max(rs) >= n,
        omega=r_sum >= 2 * n,
        n=n,
    )


class Verdict(enum.Enum):
    SOLVABLE = "solvable"
    NOT_SOLVABLE = "not_solvable"
    UNKNOWN = "unknown"
    NOT_APPLICABLE = "not_applicable"


class TerminationReason(enum.Enum):
    OMEGA_HOLDS = "omega_holds"
    N_EQUALS_1 = "n_equals_1"
    PSI_UNDEFINED = "psi_undefined"


@dataclass(frozen=True)
class PsiStep:
    input: JnfTuple
    chosen_slots: tuple[int, ...]
    n1: int


@dataclass(frozen=True)
class PsiTrace:
    steps: tuple[PsiStep, ...]
    terminal: JnfTuple
    termination_reason: TerminationReason


@dataclass(frozen=True)
class DecisionReport:
    verdict: Verdict
    conditions: ConditionCheck
    kappa: int
    trace: Optional[PsiTrace]
    expected_moduli_dimension: Optional[int]


def _defined(c: ConditionCheck) -> bool:
    return c.n > 1 and c.alpha and c.beta and not c.omega


def psi_defined(tup: JnfTuple) -> bool:
    """The reduction step is defined iff alpha and beta hold, omega fails, n > 1."""
    return _defined(check_conditions(tup))


def maximizer_slots(jnf: Jnf) -> list[int]:
    """Canonical slot indices attaining the maximal Jordan-block count."""
    top = jnf.max_blocks
    return [i for i, s in enumerate(jnf.slots) if s.num_parts == top]


def default_choice(jnf: Jnf) -> int:
    """Deterministic tie-break: maximal block count, then largest slot total,
    then lowest canonical slot index."""
    top = jnf.max_blocks
    best, best_total = -1, 0
    for i, s in enumerate(jnf.slots):
        if s.num_parts == top and s.total > best_total:
            best, best_total = i, s.total
    return best


def _shrink_slot(jnf: Jnf, slot: int, count: int) -> Jnf:
    """Decrement the `count` smallest blocks of one slot by 1, dropping zeros."""
    parts = jnf.slots[slot].parts
    # parts are stored descending; the smallest blocks sit at the tail
    assert count <= len(parts), "cannot shrink more blocks than the slot has"
    keep = len(parts) - count
    new_parts = parts[:keep] + tuple(p - 1 for p in parts[keep:] if p > 1)
    new_slots = [s for i, s in enumerate(jnf.slots) if i != slot]
    if new_parts:
        new_slots.append(Partition(new_parts))
    if not new_slots:
        raise PsiUndefinedError("reduction would empty an entry completely")
    return Jnf(new_slots)


def _step(tup: JnfTuple, chosen: Sequence[int], n1: int) -> JnfTuple:
    """The reduction step on a tuple already gated as defined, with valid slots
    `chosen` and reduced size n1 = sum r_j - n."""
    n = tup.n
    # beta guarantees n1 >= 1 and not-omega guarantees n1 < n; re-derive both
    assert 1 <= n1 < n, f"reduced size out of range: n1={n1}, n={n}"
    new_entries = []
    for e, c in zip(tup.entries, chosen):
        reduced = _shrink_slot(e, c, n - n1)
        assert reduced.size == n1, f"entry shrank to {reduced.size}, expected {n1}"
        new_entries.append(reduced)
    return JnfTuple(new_entries)


def psi_step(tup: JnfTuple, choice: Optional[Sequence[int]] = None) -> JnfTuple:
    """One application of the block-reduction construction.

    Produces the tuple of size n1 = sum r_j - n obtained by decrementing, in
    each entry, the n - n1 smallest blocks of a slot with maximal block count.
    `choice` optionally fixes the chosen slot per entry; every chosen slot
    must attain the maximal block count of its entry.
    """
    if not _defined(check_conditions(tup)):
        raise PsiUndefinedError(
            "reduction step undefined: needs alpha and beta to hold, omega to fail, n > 1"
        )
    if choice is None:
        chosen = [default_choice(e) for e in tup.entries]
    else:
        chosen = list(choice)
        if len(chosen) != len(tup.entries):
            raise InvalidChoiceError("one slot choice per entry required")
        for e, c in zip(tup.entries, chosen):
            if c not in maximizer_slots(e):
                raise InvalidChoiceError(
                    f"slot {c} of {e} does not attain the maximal block count"
                )
    return _step(tup, chosen, sum(e.r for e in tup.entries) - tup.n)


def _iterate(tup: JnfTuple, conditions: ConditionCheck) -> PsiTrace:
    """Run the reduction with the default tie-break until a stop condition.

    `conditions` are those of `tup`; each later tuple is checked once."""
    steps: list[PsiStep] = []
    current, c = tup, conditions
    while True:
        if c.omega:
            return PsiTrace(tuple(steps), current, TerminationReason.OMEGA_HOLDS)
        if c.n == 1:
            return PsiTrace(tuple(steps), current, TerminationReason.N_EQUALS_1)
        if not _defined(c):
            return PsiTrace(tuple(steps), current, TerminationReason.PSI_UNDEFINED)
        chosen = tuple(default_choice(e) for e in current.entries)
        n1 = sum(e.r for e in current.entries) - c.n
        steps.append(PsiStep(current, chosen, n1))
        current = _step(current, chosen, n1)
        c = check_conditions(current)


def decide_generic(tup: JnfTuple) -> DecisionReport:
    """Solvability verdict for generic eigenvalues, with the full reduction trace.

    Solvable iff beta holds for the input and the reduction, iterated as long
    as defined, stops at a tuple satisfying omega or of size 1.  Size-1 input
    is solvable by definition.  The step is re-gated on the current tuple at
    every iteration; a gate failure before a stop condition is not_solvable.
    """
    conditions = check_conditions(tup)
    kappa = kappa_of(tup)
    if tup.n == 1:
        trace = PsiTrace((), tup, TerminationReason.N_EQUALS_1)
        return DecisionReport(Verdict.SOLVABLE, conditions, kappa, trace, 2 - kappa)
    if not conditions.beta:
        trace = PsiTrace((), tup, TerminationReason.PSI_UNDEFINED)
        return DecisionReport(Verdict.NOT_SOLVABLE, conditions, kappa, trace, None)
    trace = _iterate(tup, conditions)
    solvable = trace.termination_reason in (
        TerminationReason.OMEGA_HOLDS,
        TerminationReason.N_EQUALS_1,
    )
    return DecisionReport(
        Verdict.SOLVABLE if solvable else Verdict.NOT_SOLVABLE,
        conditions,
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
