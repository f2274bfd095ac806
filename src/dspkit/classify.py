"""Recognizers for the exceptional families and the weak-problem verdicts.

Covers: the four rigid diagonalizable triples, the equal-block-size special
and almost-special unipotent/nilpotent cases with their solvability verdicts,
goodness of a JNF tuple, special-diagonal recognition at rigidity index 2,
and the gcd-reduction verdict at rigidity index 0.  Open conjectures surface
as UNKNOWN, never as a definite verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .decide import TerminationReason, Verdict, _engine, check_conditions
from .errors import (
    InvalidInputError,
    KappaNotTwoError,
    NotApplicableError,
    ResourceExceededError,
)
from .genericity import ClassSpec, _relation_counts, check_evs, gcd_reduction, specs_tuple
from .jnf import Jnf, JnfTuple, Partition, Subordination, is_subordinate, kappa_of

__all__ = [
    "RigidFamily",
    "SpecialKind",
    "SpecialCaseTag",
    "SpecialDiagonalWitness",
    "rigid_family_tuple",
    "match_rigid_family",
    "special_case_tuple",
    "almost_special_tuple",
    "match_special",
    "decide_unipotent_nilpotent",
    "is_good",
    "is_special_diagonal",
    "weak_verdict_kappa2",
    "weak_verdict_kappa0",
]


class RigidFamily(enum.Enum):
    HYPERGEOMETRIC = "hypergeometric"
    ODD_FAMILY = "odd_family"
    EVEN_FAMILY = "even_family"
    EXTRA_CASE = "extra_case"
    NONE = "none"


def _diag(mults: Sequence[int]) -> Jnf:
    return Jnf([Partition((1,) * m) for m in mults if m > 0])


def _family_rows(n: int) -> list[tuple[RigidFamily, tuple[tuple[int, ...], ...]]]:
    rows = []
    if n >= 2:
        rows.append((RigidFamily.HYPERGEOMETRIC, ((n - 1, 1), (1,) * n, (1,) * n)))
    if n >= 3 and n % 2 == 1:
        h = (n - 1) // 2
        rows.append((RigidFamily.ODD_FAMILY, ((h + 1, h), (h, h, 1), (1,) * n)))
    if n >= 4 and n % 2 == 0:
        h = n // 2
        rows.append((RigidFamily.EVEN_FAMILY, ((h, h), (h, h - 1, 1), (1,) * n)))
    if n == 6:
        rows.append((RigidFamily.EXTRA_CASE, ((4, 2), (2, 2, 2), (1,) * 6)))
    return rows


def rigid_family_tuple(tag: RigidFamily, n: int) -> JnfTuple:
    """Instantiate one of the four rigid diagonalizable triples at size n."""
    for row_tag, mvs in _family_rows(n):
        if row_tag is tag:
            return JnfTuple([_diag(mv) for mv in mvs])
    raise InvalidInputError(f"{tag.value} is not defined at size {n}")


def match_rigid_family(tup: JnfTuple) -> RigidFamily:
    """Match the multiplicity vectors against the four rigid-triple rows.

    A hit requires three diagonal entries; vectors are compared as multisets
    (order inside a vector and among entries is irrelevant).
    """
    if len(tup.entries) != 3 or not all(e.is_diagonal() for e in tup.entries):
        return RigidFamily.NONE
    got = sorted(tuple(sorted(e.multiplicities(), reverse=True)) for e in tup.entries)
    for tag, mvs in _family_rows(tup.n):
        want = sorted(tuple(sorted(mv, reverse=True)) for mv in mvs)
        if got == want:
            return tag
    return RigidFamily.NONE


class SpecialKind(enum.Enum):
    SPECIAL_A = "special_a"
    SPECIAL_B = "special_b"
    SPECIAL_C = "special_c"
    SPECIAL_D = "special_d"
    ALMOST_A = "almost_a"
    ALMOST_B = "almost_b"
    ALMOST_C = "almost_c"
    ALMOST_D = "almost_d"
    NONE = "none"


@dataclass(frozen=True)
class SpecialCaseTag:
    kind: SpecialKind
    k: Optional[int]


# (block size per entry, n divisor) per special row; entries hold blocks of
# one size each, all attached to a single eigenvalue
_SPECIAL_ROWS = {
    SpecialKind.SPECIAL_A: ((2, 2, 2, 2), 2),
    SpecialKind.SPECIAL_B: ((3, 3, 3), 3),
    SpecialKind.SPECIAL_C: ((4, 4, 2), 4),
    SpecialKind.SPECIAL_D: ((6, 3, 2), 6),
}
# each almost-special row splits one pair of largest blocks of its special row
_ALMOST_ROWS = {
    SpecialKind.ALMOST_A: SpecialKind.SPECIAL_A,
    SpecialKind.ALMOST_B: SpecialKind.SPECIAL_B,
    SpecialKind.ALMOST_C: SpecialKind.SPECIAL_C,
    SpecialKind.ALMOST_D: SpecialKind.SPECIAL_D,
}


def _row_blocks(kind: SpecialKind, k: int) -> tuple[tuple[int, ...], ...]:
    """Descending block list per entry of a special or almost-special row at
    n = divisor * k; the first entry of largest block size l carries the
    split pair l+1, l-1 in an almost-special row."""
    base = _ALMOST_ROWS.get(kind, kind)
    sizes, divisor = _SPECIAL_ROWS[base]
    n = divisor * k
    blocks = [(size,) * (n // size) for size in sizes]
    if base is not kind:
        l_max = max(sizes)
        blocks[sizes.index(l_max)] = (l_max + 1,) + (l_max,) * (n // l_max - 2) + (l_max - 1,)
    return tuple(blocks)


def special_case_tuple(kind: SpecialKind, k: int) -> JnfTuple:
    """Equal-block-size tuple of the given special row at parameter k >= 1."""
    if kind not in _SPECIAL_ROWS:
        raise InvalidInputError(f"not a special row: {kind}")
    return JnfTuple([Jnf([blocks]) for blocks in _row_blocks(kind, k)])


def almost_special_tuple(kind: SpecialKind, k: int) -> JnfTuple:
    """Special row with one pair of largest blocks split into sizes l+1, l-1."""
    if kind not in _ALMOST_ROWS:
        raise InvalidInputError(f"not an almost-special row: {kind}")
    if k < 2:
        raise InvalidInputError("almost-special rows need k > 1")
    return JnfTuple([Jnf([blocks]) for blocks in _row_blocks(kind, k)])


def match_special(tup: JnfTuple) -> SpecialCaseTag:
    """Exact match against the eight equal-block-size tables (k > 1 rows only).

    Entries must each carry a single eigenvalue slot (the unipotent/nilpotent
    situation); block lists and entries are compared as multisets.
    """
    if not all(e.num_slots == 1 for e in tup.entries):
        return SpecialCaseTag(SpecialKind.NONE, None)
    n = tup.n
    got = sorted(e.slots[0].parts for e in tup.entries)
    for kind in (*_SPECIAL_ROWS, *_ALMOST_ROWS):
        sizes, divisor = _SPECIAL_ROWS[_ALMOST_ROWS.get(kind, kind)]
        k = n // divisor
        if len(got) == len(sizes) and n % divisor == 0 and k >= 2:
            if got == sorted(_row_blocks(kind, k)):
                return SpecialCaseTag(kind, k)
    return SpecialCaseTag(SpecialKind.NONE, None)


def decide_unipotent_nilpotent(tup: JnfTuple, problem: str, mode: str) -> Verdict:
    """Solvability for single-eigenvalue (unipotent/nilpotent) classes.

    omega is necessary here; with omega and no special/almost-special match
    both problems are solvable.  Special rows are unsolvable for both
    problems; almost-special rows keep the weak problem solvable while the
    full problem is unsolvable additively and open multiplicatively.
    """
    if problem not in ("dsp", "weak_dsp"):
        raise InvalidInputError(f"problem must be dsp or weak_dsp, got {problem!r}")
    if mode not in ("additive", "multiplicative"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if not all(e.num_slots == 1 for e in tup.entries):
        raise NotApplicableError(
            "every entry must have a single eigenvalue slot",
            requirement="unipotent/multiplicative or nilpotent/additive classes",
        )
    if not check_conditions(tup).omega:
        return Verdict.NOT_SOLVABLE
    tag = match_special(tup)
    if tag.kind is SpecialKind.NONE:
        return Verdict.SOLVABLE
    if tag.kind in _SPECIAL_ROWS:
        return Verdict.NOT_SOLVABLE
    if problem == "weak_dsp":
        return Verdict.SOLVABLE
    return Verdict.NOT_SOLVABLE if mode == "additive" else Verdict.UNKNOWN


def is_good(tup: JnfTuple) -> bool:
    """Whether the generic-eigenvalue criterion declares the tuple solvable.

    Runs the default-choice reduction on ids and builds no trace."""
    return _engine().walk(tup)[2] is not TerminationReason.PSI_UNDEFINED


@dataclass(frozen=True)
class SpecialDiagonalWitness:
    l: int
    n1: int
    quotient: tuple[ClassSpec, ...]


def is_special_diagonal(specs: Sequence[ClassSpec]) -> Optional[SpecialDiagonalWitness]:
    """Witness that the classes dominate n1-fold replicated diagonal classes
    with a good quotient tuple, or None.

    Requires rigidity index 2.  For a factorization n = l * n1 (n1 > 1) the
    candidate quotient is forced: diagonal classes with the same eigenvalues
    and multiplicities divided by n1.  The tuple is special-diagonal when some
    factorization divides all multiplicities, the quotient tuple is good, and
    (multiplicatively) the quotient eigenvalue product is exactly 1.
    """
    tup = specs_tuple(specs)
    kappa = kappa_of(tup)
    if kappa != 2:
        raise KappaNotTwoError(f"special-diagonal recognition needs rigidity index 2, got {kappa}")
    n = tup.n
    mode = specs[0].mode
    for n1 in range(2, n + 1):
        if n % n1 != 0:
            continue
        if any(m % n1 != 0 for s in specs for m in s.multiplicities()):
            continue
        quotient = [
            ClassSpec(
                [
                    (Partition((1,) * (m // n1)), ev)
                    for ev, m in zip(s.eigenvalues, s.multiplicities())
                ],
                mode,
            )
            for s in specs
        ]
        if not is_good(specs_tuple(quotient)):
            continue
        if mode == "multiplicative" and not check_evs(quotient):
            continue
        # the replicated diagonal class is the closure-minimal class with
        # these multiplicities; re-check it is subordinate as a sanity guard
        for s in specs:
            replicated = {
                ev: Partition((1,) * m) for ev, m in zip(s.eigenvalues, s.multiplicities())
            }
            assert is_subordinate(replicated, s.labelled_slots()) is Subordination.SUBORDINATE
        return SpecialDiagonalWitness(l=n // n1, n1=n1, quotient=tuple(quotient))
    return None


def weak_verdict_kappa2(specs: Sequence[ClassSpec]) -> tuple[Verdict, Optional[SpecialDiagonalWitness]]:
    """Weak-problem verdict at rigidity index 2.

    Special-diagonal tuples are not solvable; for the rest the converse is
    only conjectured, so the verdict stays UNKNOWN.
    """
    witness = is_special_diagonal(specs)
    if witness is not None:
        return Verdict.NOT_SOLVABLE, witness
    return Verdict.UNKNOWN, None


def weak_verdict_kappa0(specs: Sequence[ClassSpec]) -> Verdict:
    """Weak-problem verdict at rigidity index 0 via the gcd-reduced relation.

    Applies when the tuple is good, the multiplicity gcd d exceeds 1, and the
    only relations present are exactly those generated by the d-fold reduced
    selection (checked by exact counting per cardinality, within budget, on
    one relation DP grown across all cardinalities).
    Additively the weak problem is then unsolvable; multiplicatively it is
    solvable iff the reduced product is a primitive d-th root of unity.
    """
    tup = specs_tuple(specs)
    kappa = kappa_of(tup)
    if kappa != 0:
        raise InvalidInputError(f"this verdict needs rigidity index 0, got {kappa}")
    if not check_evs(specs):
        raise InvalidInputError("eigenvalues must satisfy the global product/sum constraint")
    if not is_good(tup):
        return Verdict.NOT_APPLICABLE
    red = gcd_reduction(specs)
    if red.d <= 1:
        return Verdict.NOT_APPLICABLE
    base = tup.n // red.d
    mode = specs[0].mode
    try:
        for k, count in enumerate(_relation_counts(specs), start=1):
            if k % base == 0:
                t = k // base
                if mode == "additive":
                    expected = 1
                else:
                    expected = 1 if (red.xi**t).is_one() else 0
            else:
                expected = 0
            if count != expected:
                return Verdict.NOT_APPLICABLE
    except ResourceExceededError:
        return Verdict.NOT_APPLICABLE
    if mode == "additive":
        return Verdict.NOT_SOLVABLE
    return Verdict.SOLVABLE if red.xi_primitive else Verdict.NOT_SOLVABLE
