"""Partitions, Jordan normal forms and their exact conjugacy-class invariants.

A Jordan normal form (JNF) of size n is a family of integer partitions, one
per eigenvalue slot, recording the Jordan block sizes attached to that
eigenvalue.  Slots are anonymous: two JNFs are equal when their multisets of
partitions agree.  Everything in this module is exact integer arithmetic on
immutable values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InvalidInputError

__all__ = [
    "Partition",
    "Jnf",
    "JnfTuple",
    "InvariantSummary",
    "Subordination",
    "z_of",
    "d_of",
    "r_of",
    "kappa_of",
    "invariant_summary",
    "corresponding_diagonal",
    "power_rank",
    "is_subordinate",
]


class _lazy:
    """Non-data descriptor for an invariant computed on first read.

    The value goes into the instance `__dict__`, where every later read finds
    it without calling the descriptor.  Unlike `functools.cached_property` on
    Python 3.11 it takes no lock.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers (Jordan block sizes).

    Parts must be ints (bools are not); anything else raises
    InvalidInputError.  `total` (the sum of the parts) and `num_parts` are
    stored on the value.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        try:
            norm = tuple(sorted(parts, reverse=True))
            total = sum(norm)
        except TypeError:
            raise InvalidInputError(
                f"partition parts must be integers, got {parts!r}"
            ) from None
        # a float, string or other non-int part shows in the type of the sum;
        # a bool does not, since bool is an int subclass
        if total.__class__ is not int or bool in map(type, norm):
            raise InvalidInputError(f"partition parts must be integers, got {norm!r}")
        if not norm:
            raise InvalidInputError("partition must have at least one part")
        if norm[-1] < 1:
            raise InvalidInputError(f"partition parts must be positive, got {norm}")
        # frozen: write the instance dict directly, as object.__setattr__ would
        self.__dict__.update(parts=norm, total=total, num_parts=len(norm), _hash=hash((norm,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.parts == other.parts

    def dual(self) -> "Partition":
        """Conjugate partition: dual()_k counts parts that are >= k."""
        return Partition(
            tuple(sum(1 for p in self.parts if p >= k) for k in range(1, self.parts[0] + 1))
        )

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


_parts_of = attrgetter("parts")


@dataclass(frozen=True)
class Jnf:
    """Jordan normal form: one partition per (anonymous) eigenvalue slot.

    Slots are stored in a canonical order (partitions sorted descending by
    their parts tuple) so structural equality means multiset equality.
    A slot is a `Partition` or an iterable of int parts; anything else
    raises InvalidInputError.  The size, the largest block count of a slot
    (`max_blocks`) and r = size - max_blocks are stored on the value; z, d,
    the maximizer slots and the default slot are computed on first use and
    then stored.  This constructor is the one way a Jnf is built, reduction
    children (`_shrunk`) and interned entries (`_interned`) included.
    """

    slots: tuple[Partition, ...]

    def __init__(self, slots: Iterable[Iterable[int] | Partition]):
        try:
            norm = tuple(
                sorted(
                    (s if isinstance(s, Partition) else Partition(s) for s in slots),
                    key=_parts_of,
                    reverse=True,
                )
            )
        except TypeError:
            raise InvalidInputError(
                f"JNF slots must be an iterable of partitions, got {slots!r}"
            ) from None
        if not norm:
            raise InvalidInputError("JNF must have at least one eigenvalue slot")
        size = 0
        max_blocks = 0
        for s in norm:
            size += s.total
            if s.num_parts > max_blocks:
                max_blocks = s.num_parts
        self.__dict__.update(
            slots=norm, size=size, max_blocks=max_blocks, r=size - max_blocks, _hash=hash((norm,))
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.slots == other.slots

    @_lazy
    def z(self) -> int:
        """Centralizer dimension, computed on first use."""
        return sum((2 * i - 1) * b for s in self.slots for i, b in enumerate(s.parts, start=1))

    @_lazy
    def d(self) -> int:
        """Class dimension size^2 - z, computed on first use; always even."""
        d = self.size * self.size - self.z
        assert d % 2 == 0, f"class dimension must be even, got {d} for {self}"
        return d

    @_lazy
    def maximizers(self) -> tuple[int, ...]:
        """Canonical slot indices attaining the largest block count, computed
        on first use."""
        top = self.max_blocks
        return tuple([i for i, s in enumerate(self.slots) if s.num_parts == top])

    @_lazy
    def default_slot(self) -> int:
        """The reduction's default choice, computed on first use: the
        maximizer slot with the largest total, the lowest index on ties."""
        top = self.max_blocks
        best, best_total = -1, 0
        for i, s in enumerate(self.slots):
            if s.num_parts == top and s.total > best_total:
                best, best_total = i, s.total
        return best

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    def multiplicities(self) -> tuple[int, ...]:
        """Eigenvalue multiplicities, one per slot in canonical order."""
        return self._multiplicities

    @_lazy
    def _multiplicities(self) -> tuple[int, ...]:
        """`multiplicities()`, computed on first use."""
        return tuple(s.total for s in self.slots)

    def is_diagonal(self) -> bool:
        return all(p == 1 for s in self.slots for p in s.parts)

    def _shrunk(self, slot: int, count: int) -> "Jnf":
        """This JNF with the `count` smallest blocks of slot `slot` shrunk by
        1 and zero blocks dropped; 1 <= count <= that slot's block count.
        Raises InvalidInputError when no slot is left."""
        slots = self.slots
        parts = slots[slot].parts
        keep = len(parts) - count
        assert 0 <= keep < len(parts), "cannot shrink more blocks than the slot has"
        shrunk = parts[:keep] + tuple([b - 1 for b in parts[keep:] if b > 1])
        rest = slots[:slot] + slots[slot + 1 :]
        return Jnf(rest + (shrunk,) if shrunk else rest)

    def __repr__(self) -> str:
        inner = ",".join(str(list(s.parts)) for s in self.slots)
        return f"Jnf[{inner}]"


# Distinct plain entries `_interned` keeps.  One `exact` benchmark round
# (5,552 tuples with n <= 5 and 800 random ones with n <= 12) meets 756-793
# over seeds 0-2.  A random entry with n <= 12 costs about 1.8 KB with its
# key and its Jnf's lazy fields (tracemalloc), so a full table holds about
# 3.7 MB.
_INTERN_CAP = 2048


@lru_cache(maxsize=_INTERN_CAP)
def _interned(entry: tuple[tuple[int, ...], ...]) -> Jnf:
    """The one Jnf of a plain entry, built by the checked constructor on
    first sight (two threads that miss at once may each build one, equal).
    Only `_jnf_of` calls it, and only with a tuple of tuples of exact ints:
    `(True,)` and `(1.0,)` equal `(1,)` as keys, so a looser entry could be
    answered with another entry's Jnf."""
    return Jnf(entry)


def _jnf_of(entry) -> Jnf:
    """A tuple entry as a Jnf: a Jnf as it is, a plain entry (a tuple of
    tuples of exact ints) through `_interned`, anything else through the
    checked constructor, which raises what it always has."""
    # Plain loops: on 3.11 they check a small entry 3x faster than type sets.
    if entry.__class__ is not tuple:
        return entry if isinstance(entry, Jnf) else Jnf(entry)
    for slot in entry:
        if slot.__class__ is not tuple:
            return Jnf(entry)
        for part in slot:
            if part.__class__ is not int:
                return Jnf(entry)
    return _interned(entry)


_object_new = object.__new__


@dataclass(frozen=True)
class JnfTuple:
    """Tuple of p+1 JNFs sharing one size n (the conjugacy-class prescriptions).

    Entry order matters for equality.  An entry is a `Jnf` or an iterable of
    slots as `Jnf` takes them; anything else raises InvalidInputError.  Equal
    plain entries (tuples of tuples of ints) share one interned Jnf.  `n` is
    stored on the value.
    """

    entries: tuple[Jnf, ...]

    def __init__(self, entries: Iterable[Jnf | Iterable]):
        try:
            norm = tuple([_jnf_of(e) for e in entries])
        except TypeError:
            raise InvalidInputError(
                f"tuple entries must be an iterable of JNFs, got {entries!r}"
            ) from None
        if len(norm) < 2:
            raise InvalidInputError("a tuple needs at least two entries (p >= 1)")
        sizes = {e.size for e in norm}
        if len(sizes) != 1:
            raise InvalidInputError(f"all entries must share one size, got {sorted(sizes)}")
        self.__dict__.update(entries=norm, n=norm[0].size, _hash=hash((norm,)))

    @classmethod
    def _of_one_size(cls, entries: tuple[Jnf, ...]) -> "JnfTuple":
        """A tuple of at least two entries already known to share one size,
        built without the checks: the one trusted constructor in this module.
        Traces and `psi_step` build one per reduction step, and a checked
        tuple costs twice as much (1.8 against 0.8 us on Python 3.11)."""
        tup = _object_new(cls)
        tup.__dict__.update(entries=entries, n=entries[0].size, _hash=hash((entries,)))
        return tup

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.entries == other.entries

    @property
    def p(self) -> int:
        return len(self.entries) - 1

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"JnfTuple(n={self.n}, {list(self.entries)})"


def z_of(jnf: Jnf) -> int:
    """Centralizer dimension of a matrix with this JNF.

    Closed form: sum over slots of sum_i (2i-1)*b_i with b the decreasing
    block sizes (i 1-based).  For a diagonal JNF this is the sum of squared
    multiplicities.
    """
    return jnf.z


def d_of(jnf: Jnf) -> int:
    """Conjugacy-class dimension n^2 - z; always even."""
    return jnf.d


def r_of(jnf: Jnf) -> int:
    """n minus the maximal number of Jordan blocks sharing one eigenvalue.

    Equals min over lambda of rank(Y - lambda*I) for Y with this JNF.
    """
    return jnf.r


def kappa_of(tup: JnfTuple) -> int:
    """Index of rigidity 2n^2 - sum of class dimensions."""
    n = tup.n
    return 2 * n * n - sum(e.d for e in tup.entries)


@dataclass(frozen=True)
class InvariantSummary:
    """Per-entry (r, d, z) plus the tuple's rigidity index."""

    r: tuple[int, ...]
    d: tuple[int, ...]
    z: tuple[int, ...]
    kappa: int


def invariant_summary(tup: JnfTuple) -> InvariantSummary:
    return InvariantSummary(
        r=tuple(e.r for e in tup.entries),
        d=tuple(e.d for e in tup.entries),
        z=tuple(e.z for e in tup.entries),
        kappa=kappa_of(tup),
    )


def corresponding_diagonal(jnf: Jnf) -> Jnf:
    """Diagonal JNF with the same invariants, via dual partitions.

    Each slot's partition is replaced by fresh distinct eigenvalue slots
    whose multiplicities are the parts of the dual partition.
    """
    new_slots: list[Partition] = []
    for slot in jnf.slots:
        for mult in slot.dual().parts:
            new_slots.append(Partition((1,) * mult))
    return Jnf(new_slots)


def power_rank(partition: Partition, j: int, n: int) -> int:
    """rank((A - lambda*I)^j) for the eigenvalue carrying `partition`.

    The nilpotent part on the eigenvalue's generalized eigenspace contributes
    sum_i max(b_i - j, 0); the rest of the space contributes n minus the
    eigenvalue multiplicity.  Computed in closed form, never by matrix powers.
    Raises InvalidInputError when j is not an int (bools included) or j < 1.
    """
    if j.__class__ is not int:
        raise InvalidInputError(f"power must be an int, got {j!r}")
    if j < 1:
        raise InvalidInputError("power must be >= 1")
    return sum(max(b - j, 0) for b in partition.parts) + (n - partition.total)


class Subordination(enum.Enum):
    """Three-valued closure-order comparison of eigenvalue-labelled JNFs."""

    SUBORDINATE = "subordinate"
    NOT_SUBORDINATE = "not_subordinate"
    NOT_COMPARABLE = "not_comparable"

    def __bool__(self) -> bool:
        return self is Subordination.SUBORDINATE


def is_subordinate(
    lower: Mapping[Hashable, Partition] | Sequence[tuple[Hashable, Partition]],
    upper: Mapping[Hashable, Partition] | Sequence[tuple[Hashable, Partition]],
) -> Subordination:
    """Whether the class `lower` lies in the closure of the class `upper`.

    Both arguments map eigenvalue labels (any hashable) to block partitions.
    True requires identical eigenvalue multisets (labels and multiplicities)
    and, for every shared eigenvalue and every power j,
    rank((upper - lambda)^j) >= rank((lower - lambda)^j).
    A multiplicity or label mismatch yields NOT_COMPARABLE, distinct from a
    rank failure.
    """
    lo = dict(lower.items() if isinstance(lower, Mapping) else lower)
    up = dict(upper.items() if isinstance(upper, Mapping) else upper)
    if set(lo) != set(up):
        return Subordination.NOT_COMPARABLE
    if any(lo[ev].total != up[ev].total for ev in lo):
        return Subordination.NOT_COMPARABLE
    n_lo = sum(p.total for p in lo.values())
    n_up = sum(p.total for p in up.values())
    if n_lo != n_up:
        return Subordination.NOT_COMPARABLE
    for ev in lo:
        max_j = max(lo[ev].parts[0], up[ev].parts[0])
        for j in range(1, max_j + 1):
            if power_rank(up[ev], j, n_up) < power_rank(lo[ev], j, n_lo):
                return Subordination.NOT_SUBORDINATE
    return Subordination.SUBORDINATE
