"""Seeded input generation shared by the workloads.

Tuples are diagonal: a class is a list of eigenvalue multiplicities.  Exact
eigenvalues are the plain pairs of `reference` (additive (re, im),
multiplicative (modulus, arg)); drawn values have prime denominators, which
keeps accidental relations out, and callers confirm genericity by brute force.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref
from dspkit.genericity import ClassSpec
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar

LARGE_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179)
SMALL_PRIMES = (29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def rigid_rows(n: int) -> dict:
    """Multiplicity vectors of the rigid diagonal rows of size n."""
    rows = {}
    if n >= 2:
        rows["hypergeometric"] = [[n - 1, 1], [1] * n, [1] * n]
    if n >= 3 and n % 2:
        h = (n - 1) // 2
        rows["odd"] = [[h + 1, h], [h, h, 1], [1] * n]
    if n >= 4 and n % 2 == 0:
        h = n // 2
        rows["even"] = [[h, h], [h, h - 1, 1], [1] * n]
    if n == 6:
        rows["extra"] = [[4, 2], [2, 2, 2], [1] * 6]
    return rows


def plain(mults) -> tuple:
    """Diagonal JNF tuple (one slot per multiplicity) as plain int tuples."""
    return tuple(tuple(sorted(((1,) * m for m in mv), reverse=True)) for mv in mults)


def scalar(mode: str, value):
    if mode == "additive":
        return AdditiveScalar(value[0], value[1])
    return MultiplicativeScalar(value[0], value[1])


def specs(mode: str, mults, values) -> list:
    return [
        ClassSpec([((1,) * m, scalar(mode, v)) for m, v in zip(mv, vals)], mode)
        for mv, vals in zip(mults, values)
    ]


def specs_values(spec_list) -> list:
    """Eigenvalues of the specs in their own slot order, as plain pairs."""
    out = []
    for spec in spec_list:
        if spec.mode == "additive":
            out.append([(ev.re, ev.im) for ev in spec.eigenvalues])
        else:
            out.append([(ev.modulus, ev.arg) for ev in spec.eigenvalues])
    return out


def draw(rng, mode: str, mults, counts=None, shift=None, primes=LARGE_PRIMES, spread=3):
    """Exact values per slot satisfying the global constraint and, when
    `counts` is given, the relation sum(counts * values) = 0 (product 1).

    Free additive values lie in [-spread, spread]; multiplicative values have
    modulus 1.  `shift` picks which m-th root the constrained last slot takes
    (random when None).
    """
    values = [[None] * len(mv) for mv in mults]
    solved = []
    if counts is not None:
        e0 = next(e for e, c in enumerate(counts) if any(c))
        solved.append((e0, next(s for s, c in enumerate(counts[e0]) if c)))
    last_e, last_s = max(
        (e, s)
        for e, mv in enumerate(mults)
        for s in range(len(mv))
        if counts is None or counts[e][s] == 0
    )
    solved.append((last_e, last_s))
    for e, mv in enumerate(mults):
        for s in range(len(mv)):
            if (e, s) in solved:
                continue
            p = rng.choice(primes)
            if mode == "additive":
                values[e][s] = (Fraction(rng.randint(-spread * p, spread * p), p), Fraction(0))
            else:
                values[e][s] = (Fraction(1), Fraction(rng.randrange(1, p), p))

    def solve(weights, target_e, target_s, root_shift):
        rest = ref.identity(mode)
        for e, w in enumerate(weights):
            for s, c in enumerate(w):
                if c and (e, s) != (target_e, target_s):
                    rest = ref.combine(mode, rest, ref.power(mode, values[e][s], c))
        c = weights[target_e][target_s]
        if mode == "additive":
            return (-rest[0] / c, -rest[1] / c)
        j = rng.randrange(c) if root_shift is None else root_shift
        return (Fraction(1), ((-rest[1] + j) / c) % 1)

    if counts is not None:
        values[solved[0][0]][solved[0][1]] = solve(counts, *solved[0], None)
    values[last_e][last_s] = solve(mults, last_e, last_s, shift)
    return values


def draw_distinct(rng, mode: str, mults):
    """`draw` until no two slots of a class share a value."""
    while True:
        values = draw(rng, mode, mults)
        if distinct(values):
            return values


def planted_counts(rng, mults, k: int):
    """A random selection of exactly k copies per entry."""
    counts = []
    for mv in mults:
        c = [0] * len(mv)
        for _ in range(k):
            s = rng.choice([i for i, m in enumerate(mv) if c[i] < m])
            c[s] += 1
        counts.append(c)
    return counts


def distinct(values) -> bool:
    """No two slots of a class share a value."""
    return all(len(set(v)) == len(v) for v in values)


def separated(mode: str, values, gap) -> bool:
    """Values within each class differ by at least `gap` (in arg, circularly,
    for multiplicative values)."""
    for vals in values:
        for i, a in enumerate(vals):
            for b in vals[i + 1 :]:
                if mode == "additive":
                    d = abs(a[0] - b[0]) + abs(a[1] - b[1])
                else:
                    d = min((a[1] - b[1]) % 1, (b[1] - a[1]) % 1)
                if d < gap:
                    return False
    return True


def generic_values(rng, mode: str, mults, gap=Fraction(1, 5), bound=4):
    """Numerically tame values with no relation of any size below n."""
    n = sum(mults[0])
    for _ in range(1000):
        values = draw(rng, mode, mults, primes=SMALL_PRIMES, spread=2)
        if mode == "additive" and any(abs(v[0]) > bound for vals in values for v in vals):
            continue
        if not separated(mode, values, gap if mode == "additive" else gap / 4):
            continue
        if ref.smallest_relation(mode, values, mults, n) is None:
            return values
    raise ValueError(f"no generic values found for {mults} ({mode})")


def realize_fault():
    """The additive hypergeometric row at n=5 on fixed generic values, on
    which `realize` finds no witness at 10 restarts x 60 iterations, search
    seed 0 (a known fault, counted as failed)."""
    mults = rigid_rows(5)["hypergeometric"]
    return mults, generic_values(random.Random(0), "additive", mults)
