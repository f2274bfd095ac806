"""Eigenvalue assignments, non-genericity relations and related exact tests.

A non-genericity relation picks the same number k < n of eigenvalue copies
from every entry (respecting multiplicities) so that the selection sums to 0
(additive) or multiplies to 1 (multiplicative).  Eigenvalues are generic when
no such relation exists.  All tests here are exact; enumeration is done by
dynamic programming over achievable partial values with a hard state budget,
never by raw subset enumeration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    InvalidInputError,
    ResourceExceededError,
    SamplingExhaustedError,
    SlotCollisionError,
    UnsupportedScalarError,
)
from .jnf import Jnf, JnfTuple, Partition, r_of
from .scalars import AdditiveScalar, MultiplicativeScalar, Scalar

__all__ = [
    "ClassSpec",
    "RelationWitness",
    "GcdReduction",
    "specs_tuple",
    "validate_specs",
    "check_evs",
    "find_relation",
    "relation_selection_count",
    "gcd_reduction",
    "check_generalized_beta",
    "sample_generic",
    "exp_map",
    "MAX_RELATION_SIZE",
    "DEFAULT_STATE_BUDGET",
]

MAX_RELATION_SIZE = 16
DEFAULT_STATE_BUDGET = 200_000


@dataclass(frozen=True)
class ClassSpec:
    """A JNF with one exact eigenvalue per slot and a problem mode.

    Slots are kept in the JNF's canonical order with eigenvalues aligned;
    equal partitions are ordered by their eigenvalue so equality of specs is
    structural.
    """

    jnf: Jnf
    eigenvalues: tuple[Scalar, ...]
    mode: str

    def __init__(self, slots: Sequence[tuple], mode: str):
        if mode not in ("additive", "multiplicative"):
            raise InvalidInputError(f"mode must be additive or multiplicative, got {mode!r}")
        want = AdditiveScalar if mode == "additive" else MultiplicativeScalar
        pairs = []
        for blocks, ev in slots:
            part = blocks if isinstance(blocks, Partition) else Partition(blocks)
            if not isinstance(ev, want):
                raise InvalidInputError(
                    f"{mode} mode needs {want.__name__} eigenvalues, got {type(ev).__name__}"
                )
            pairs.append((part, ev))
        pairs.sort(key=lambda pe: (pe[0].parts, pe[1].sort_key()), reverse=True)
        evs = tuple(ev for _, ev in pairs)
        if len(set(evs)) != len(evs):
            raise InvalidInputError("eigenvalues within one class must be pairwise distinct")
        jnf = Jnf([part for part, _ in pairs])
        assert jnf.slots == tuple(part for part, _ in pairs), "slot order must be stable"
        object.__setattr__(self, "jnf", jnf)
        object.__setattr__(self, "eigenvalues", evs)
        object.__setattr__(self, "mode", mode)

    @property
    def n(self) -> int:
        return self.jnf.size

    def multiplicities(self) -> tuple[int, ...]:
        return self.jnf.multiplicities()

    def labelled_slots(self) -> dict:
        """Eigenvalue -> partition map (for subordination checks)."""
        return dict(zip(self.eigenvalues, self.jnf.slots))


@dataclass(frozen=True)
class RelationWitness:
    """A concrete non-genericity relation: per-entry selection counts per slot."""

    cardinality: int
    selections: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GcdReduction:
    """gcd of all eigenvalue multiplicities and the reduced product, if any."""

    d: int
    xi: Optional[MultiplicativeScalar]
    xi_primitive: Optional[bool]


def validate_specs(specs: Sequence[ClassSpec]) -> str:
    if len(specs) < 2:
        raise InvalidInputError("need at least two classes (p >= 1)")
    modes = {s.mode for s in specs}
    if len(modes) != 1:
        raise InvalidInputError(f"mixed modes: {sorted(modes)}")
    sizes = {s.n for s in specs}
    if len(sizes) != 1:
        raise InvalidInputError(f"all classes must share one size, got {sorted(sizes)}")
    return specs[0].mode


def specs_tuple(specs: Sequence[ClassSpec]) -> JnfTuple:
    return JnfTuple([s.jnf for s in specs])


def _identity(mode: str) -> Scalar:
    return AdditiveScalar.zero() if mode == "additive" else MultiplicativeScalar.one()


def _combine(mode: str, value: Scalar, ev: Scalar, copies: int) -> Scalar:
    if copies == 0:
        return value
    if mode == "additive":
        return value + ev.scale(copies)
    return value * ev**copies


def check_evs(specs: Sequence[ClassSpec]) -> bool:
    """Whether the full eigenvalue product is 1 (resp. the full sum is 0)."""
    mode = validate_specs(specs)
    total = _identity(mode)
    for spec in specs:
        for ev, m in zip(spec.eigenvalues, spec.multiplicities()):
            total = _combine(mode, total, ev, m)
    return total.is_zero() if mode == "additive" else total.is_one()


class _StateBudget:
    """Counts the exact-value DP states of one cardinality k against a cap."""

    def __init__(self, what: str, k: int, limit: int):
        self.what = what
        self.k = k
        self.limit = limit
        self.used = 0

    def take(self, count: int = 1) -> None:
        self.used += count
        if self.used > self.limit:
            raise ResourceExceededError(
                f"{self.what} exceeded its state budget at cardinality k={self.k}: "
                f"{self.used} states used, budget {self.limit}"
            )


def _entry_values(spec: ClassSpec, k: int, budget: _StateBudget):
    """value -> selection counts for choosing exactly k eigenvalue copies."""
    mode = spec.mode
    dp: list[dict] = [dict() for _ in range(k + 1)]
    dp[0][_identity(mode)] = ()
    for ev, m in zip(spec.eigenvalues, spec.multiplicities()):
        new_dp: list[dict] = [dict() for _ in range(k + 1)]
        for t in range(k + 1):
            for value, counts in dp[t].items():
                for c in range(0, min(m, k - t) + 1):
                    nv = _combine(mode, value, ev, c)
                    bucket = new_dp[t + c]
                    if nv not in bucket:
                        bucket[nv] = counts + (c,)
                        budget.take()
        dp = new_dp
    return dp[k]


def _fold_values(mode: str, dicts: list[dict], budget: _StateBudget) -> dict:
    """Combine per-entry value maps; values merge, witnesses concatenate."""
    acc = {_identity(mode): ()}
    for d in dicts:
        new_acc: dict = {}
        for v1, w1 in acc.items():
            for v2, w2 in d.items():
                nv = (v1 + v2) if mode == "additive" else (v1 * v2)
                if nv not in new_acc:
                    new_acc[nv] = w1 + (w2,)
                    budget.take()
        acc = new_acc
    return acc


def find_relation(
    specs: Sequence[ClassSpec], state_budget: int = DEFAULT_STATE_BUDGET
) -> Optional[RelationWitness]:
    """Smallest-cardinality non-genericity relation, or None when generic.

    For each cardinality k the per-entry achievable values are built by
    bounded-knapsack DP over slot multiplicities, then the entries are merged
    as two halves and checked pairwise (meet in the middle).
    """
    mode = validate_specs(specs)
    n = specs[0].n
    if n > MAX_RELATION_SIZE:
        raise ResourceExceededError(f"relation enumeration capped at size {MAX_RELATION_SIZE}")
    for k in range(1, n):
        budget = _StateBudget("relation search", k, state_budget)
        per_entry = [_entry_values(s, k, budget) for s in specs]
        half = len(per_entry) // 2
        left = _fold_values(mode, per_entry[:half], budget)
        right = _fold_values(mode, per_entry[half:], budget)
        for value, witness_left in left.items():
            need = -value if mode == "additive" else value.inverse()
            hit = right.get(need)
            if hit is not None:
                return RelationWitness(k, witness_left + hit)
    return None


def relation_selection_count(
    specs: Sequence[ClassSpec], cardinality: int, state_budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Number of distinct selection-count tuples realizing a relation at `cardinality`.

    Selections are counted at the level of per-slot copy counts (index sets
    with equal counts realize the same equality).
    """
    mode = validate_specs(specs)
    k = cardinality
    budget = _StateBudget("relation counting", k, state_budget)
    per_entry = []
    for spec in specs:
        counting: list[dict] = [dict() for _ in range(k + 1)]
        counting[0][_identity(mode)] = 1
        for ev, m in zip(spec.eigenvalues, spec.multiplicities()):
            new_dp: list[dict] = [dict() for _ in range(k + 1)]
            for t in range(k + 1):
                for value, cnt in counting[t].items():
                    for c in range(0, min(m, k - t) + 1):
                        nv = _combine(mode, value, ev, c)
                        bucket = new_dp[t + c]
                        if nv not in bucket:
                            budget.take()
                            bucket[nv] = 0
                        bucket[nv] += cnt
            counting = new_dp
        per_entry.append(counting[k])
    acc = {_identity(mode): 1}
    for d in per_entry:
        new_acc: dict = {}
        for v1, c1 in acc.items():
            for v2, c2 in d.items():
                nv = (v1 + v2) if mode == "additive" else (v1 * v2)
                if nv not in new_acc:
                    budget.take()
                    new_acc[nv] = 0
                new_acc[nv] += c1 * c2
        acc = new_acc
    target = _identity(specs[0].mode)
    return acc.get(target, 0)


def gcd_reduction(specs: Sequence[ClassSpec]) -> GcdReduction:
    """gcd d of all eigenvalue multiplicities, with the d-fold reduced product.

    In multiplicative mode with d > 1 the product taken with multiplicities
    divided by d is some d-th root of unity xi (the full product being 1);
    the reduced selection is a relation exactly when xi is non-primitive.
    In additive mode the reduced sum is automatically 0 and xi is absent.
    """
    mode = validate_specs(specs)
    mults = [m for s in specs for m in s.multiplicities()]
    d = 0
    for m in mults:
        d = math.gcd(d, m)
    if mode == "additive" or d <= 1:
        return GcdReduction(d, None, None)
    xi = MultiplicativeScalar.one()
    for spec in specs:
        for ev, m in zip(spec.eigenvalues, spec.multiplicities()):
            xi = xi * ev ** (m // d)
    return GcdReduction(d, xi, xi.is_primitive_root(d))


def check_generalized_beta(specs: Sequence[ClassSpec]) -> bool:
    """Eigenvalue-aware rank condition generalizing beta.

    Evaluates min over scalar shifts b_j (product 1, resp. sum 0) of the total
    rank of the shifted matrices, which amounts to maximizing the total Jordan
    block count over per-entry choices of one eigenvalue (or none) under the
    exact constraint; true iff the minimum is >= 2n.
    """
    mode = validate_specs(specs)
    n = specs[0].n
    max_blocks = [n - r_of(s.jnf) for s in specs]
    # dropping one entry frees the constraint; the rest pick their best slots
    best_proper = sum(max_blocks) - min(max_blocks)
    # full selection: one eigenvalue per entry, constrained product/sum
    acc: dict = {_identity(mode): 0}
    # after j entries the states are selections of k = j eigenvalue copies
    for k, spec in enumerate(specs, start=1):
        options = [
            (ev, slot.num_parts) for ev, slot in zip(spec.eigenvalues, spec.jnf.slots)
        ]
        new_acc: dict = {}
        for value, blocks in acc.items():
            for ev, b in options:
                nv = _combine(mode, value, ev, 1)
                got = blocks + b
                if new_acc.get(nv, -1) < got:
                    new_acc[nv] = got
        _StateBudget("generalized rank condition", k, DEFAULT_STATE_BUDGET).take(len(new_acc))
        acc = new_acc
    target = _identity(mode)
    best = max(best_proper, acc.get(target, -1))
    min_rank_sum = (len(specs)) * n - best
    return min_rank_sum >= 2 * n


def _random_fraction(rng: random.Random, denominator_bound: int) -> Fraction:
    den = rng.randint(1, denominator_bound)
    num = rng.randint(-3 * den, 3 * den)
    return Fraction(num, den)


_VALUE_CAP = Fraction(12)
_MIN_GAP = Fraction(1, 8)


def _well_scaled(values, mode: str) -> bool:
    """Keep sampled spectra numerically tame: bounded values, separated slots."""
    if mode == "additive":
        if any(abs(v.re) > _VALUE_CAP or abs(v.im) > _VALUE_CAP for v in values):
            return False
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                if abs(a.re - b.re) < _MIN_GAP and abs(a.im - b.im) < _MIN_GAP:
                    return False
    else:
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                gap = abs(a.arg - b.arg)
                if min(gap, 1 - gap) < _MIN_GAP / 2 and a.modulus == b.modulus:
                    return False
    return True


def sample_generic(
    tup: JnfTuple,
    mode: str,
    seed: int,
    denominator_bound: int = 97,
    max_retries: int = 1000,
) -> list[ClassSpec]:
    """Seeded rejection sampler for generic exact eigenvalue assignments.

    All slots but the last receive random small rationals; the last slot is
    solved exactly from the global sum-0 / product-1 constraint.  Assignments
    with a non-genericity relation (or colliding slot values) are rejected.
    Raises SamplingExhaustedError when the retry budget runs out, e.g. when a
    relation is forced by the multiplicities, and ResourceExceededError when
    the relation search on a draw exceeds its size cap or state budget.
    """
    if mode not in ("additive", "multiplicative"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    slots_per_entry = [e.num_slots for e in tup.entries]
    for _ in range(max_retries):
        specs = []
        ok = True
        if mode == "additive":
            running = AdditiveScalar.zero()
        else:
            running_arg = Fraction(0)
        for idx, entry in enumerate(tup.entries):
            last_entry = idx == len(tup.entries) - 1
            values: list[Scalar] = []
            for slot_idx, slot in enumerate(entry.slots):
                m = slot.total
                last_slot = last_entry and slot_idx == slots_per_entry[idx] - 1
                if not last_slot:
                    if mode == "additive":
                        v: Scalar = AdditiveScalar(_random_fraction(rng, denominator_bound))
                        running = running + v.scale(m)
                    else:
                        v = MultiplicativeScalar(
                            1, Fraction(rng.randint(0, denominator_bound - 1), denominator_bound)
                        )
                        running_arg += m * v.arg
                else:
                    if mode == "additive":
                        v = AdditiveScalar(-running.re / m, -running.im / m)
                    else:
                        shift = rng.randint(0, m - 1)
                        v = MultiplicativeScalar(1, (-running_arg + shift) / m)
                values.append(v)
            if len(set(values)) != len(values) or not _well_scaled(values, mode):
                ok = False
                break
            specs.append(ClassSpec(list(zip(entry.slots, values)), mode))
        if not ok:
            continue
        assert check_evs(specs), "solved assignment must satisfy the global constraint"
        if find_relation(specs) is None:
            return specs
    raise SamplingExhaustedError(
        f"no generic assignment found in {max_retries} tries "
        "(the multiplicities may force a relation)"
    )


def exp_map(spec: ClassSpec) -> ClassSpec:
    """Map an additive class with real rational eigenvalues to modulus-1 scalars.

    lambda goes to exp(2*pi*i*lambda); eigenvalues differing by integers
    collide and are rejected, as are non-real eigenvalues (their image is not
    exactly representable).
    """
    if spec.mode != "additive":
        raise InvalidInputError("exp_map expects an additive class")
    images = []
    for ev in spec.eigenvalues:
        if ev.im != 0:
            raise UnsupportedScalarError(f"cannot exactly exponentiate {ev} with im != 0")
        images.append(MultiplicativeScalar(1, ev.re))
    if len(set(images)) != len(images):
        raise SlotCollisionError("two eigenvalues map to the same value under exp")
    return ClassSpec(list(zip(spec.jnf.slots, images)), "multiplicative")
