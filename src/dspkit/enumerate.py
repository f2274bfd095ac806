"""Exhaustive and randomized generation of partitions, JNFs and JNF tuples."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterator, Optional

from .decide import psi_defined
from .errors import InvalidInputError
from .jnf import Jnf, JnfTuple, Partition, kappa_of

__all__ = [
    "partitions",
    "all_partitions",
    "all_jnfs",
    "diagonal_jnfs",
    "diagonal_tuples",
    "enumerate_rigid_diagonal",
    "random_jnf",
    "random_psi_defined_tuple",
]


def partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts bounded by max_part, descending parts."""
    if n == 0:
        yield ()
        return
    top = min(n, max_part) if max_part else n
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(Partition(p) for p in partitions(n))


def _check_size(n) -> None:
    if n.__class__ is not int or n < 1:
        raise InvalidInputError(f"a JNF needs size n >= 1, got {n!r}")


@lru_cache(maxsize=None)
def all_jnfs(n: int) -> tuple[Jnf, ...]:
    """Every JNF of size n: multisets of partitions with total n.

    Raises InvalidInputError when n is not an int (bools included) or n < 1.
    """
    _check_size(n)
    pool = sorted(
        (p for total in range(1, n + 1) for p in all_partitions(total)),
        key=lambda p: p.parts,
        reverse=True,
    )

    results: list[Jnf] = []

    def extend(remaining: int, start: int, chosen: list[Partition]):
        if remaining == 0:
            results.append(Jnf(list(chosen)))
            return
        for i in range(start, len(pool)):
            part = pool[i]
            if part.total > remaining:
                continue
            chosen.append(part)
            extend(remaining - part.total, i, chosen)
            chosen.pop()

    extend(n, 0, [])
    return tuple(results)


def diagonal_jnfs(n: int) -> tuple[Jnf, ...]:
    """Diagonal JNFs of size n, one per multiplicity vector (partition of n).

    Raises InvalidInputError when n is not an int (bools included) or n < 1.
    """
    _check_size(n)
    return tuple(
        Jnf([Partition((1,) * m) for m in mv]) for mv in partitions(n)
    )


def diagonal_tuples(n: int, p: int) -> Iterator[JnfTuple]:
    """All multisets of p+1 diagonal JNFs of size n.

    Raises InvalidInputError, at the first draw, when n or p is not an int
    (bools included), or is below 1.
    """
    _check_size(n)
    if p.__class__ is not int or p < 1:
        raise InvalidInputError(f"a tuple needs p >= 1 (p + 1 entries), got {p!r}")
    for combo in itertools.combinations_with_replacement(diagonal_jnfs(n), p + 1):
        yield JnfTuple(combo)


def enumerate_rigid_diagonal(n: int, p: int) -> list[JnfTuple]:
    """Deduplicated diagonal tuples of p + 1 entries with rigidity index 2
    passing the generic criterion (canonical entry order from the Jnf
    ordering).

    Raises InvalidInputError when n or p is not an int (bools included), or
    is below 1.
    """
    from .classify import is_good

    out = []
    for tup in diagonal_tuples(n, p):
        if kappa_of(tup) == 2 and is_good(tup):
            out.append(tup)
    return out


def random_jnf(n: int, rng: random.Random, max_blocks: Optional[int] = None) -> Jnf:
    """Random JNF of size n; max_blocks, when given, pins the largest slot
    block count (hence r = n - max_blocks).

    Raises InvalidInputError when n is not an int (bools included), n < 1 or
    max_blocks is outside 1..n.
    """
    _check_size(n)
    if max_blocks is not None and not 1 <= max_blocks <= n:
        raise InvalidInputError(f"max_blocks must be in 1..{n}, got {max_blocks}")
    if max_blocks is None:
        max_blocks = rng.randint(1, n)
    s = max_blocks
    slots: list[Partition] = []
    # first slot realizes the target block count exactly
    budget = n - s
    first = [1] * s
    while budget > 0 and rng.random() < 0.5:
        take = rng.randint(1, budget)
        first[rng.randrange(s)] += take
        budget -= take
    slots.append(Partition(first))
    while budget > 0:
        width = rng.randint(1, min(s, budget))
        size = [1] * width
        extra = rng.randint(0, budget - width)
        for _ in range(extra):
            size[rng.randrange(width)] += 1
        slots.append(Partition(size))
        budget -= width + extra
    jnf = Jnf(slots)
    assert jnf.size == n
    return jnf


def random_psi_defined_tuple(
    rng: random.Random, max_n: int = 12, max_p: int = 4, max_tries: int = 2000
) -> Optional[JnfTuple]:
    """Random JNF tuple on which the reduction step is defined, or None.

    Draws a feasible r-vector first (beta holds, omega fails), then JNFs with
    the matching maximal block counts, retrying until alpha holds as well.
    Sizes are drawn from 2..max_n and p from 2..max_p.

    Raises InvalidInputError when max_n < 2 or max_p < 2.
    """
    if max_n < 2:
        raise InvalidInputError(f"max_n must be at least 2, got {max_n}")
    if max_p < 2:
        raise InvalidInputError(f"max_p must be at least 2, got {max_p}")
    for _ in range(max_tries):
        n = rng.randint(2, max_n)
        count = rng.randint(3, max_p + 1)
        rs = [rng.randint(0, n - 1) for _ in range(count)]
        total = sum(rs)
        if total >= 2 * n:
            continue
        if any(total - r < n for r in rs):
            continue
        entries = [random_jnf(n, rng, max_blocks=n - r) for r in rs]
        tup = JnfTuple(entries)
        if psi_defined(tup):
            return tup
    return None
