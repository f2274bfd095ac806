"""Independent reference computations the workloads check dspkit against.

Nothing here imports dspkit.  A JNF is a plain tuple of partitions (each a
descending tuple of block sizes), a tuple of JNFs is a tuple of those.
Eigenvalues are plain Fractions: additive values are (re, im) pairs,
multiplicative values are (modulus, arg) pairs standing for
modulus * exp(2*pi*i*arg) with arg taken mod 1.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


class CheckError(Exception):
    """An output of the program disagrees with the reference or a property."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- the reduction criterion on plain int tuples ----------------------------


def size(entry) -> int:
    return sum(sum(part) for part in entry)


def r_of(entry) -> int:
    return size(entry) - max(len(part) for part in entry)


def z_of(entry) -> int:
    return sum((2 * i - 1) * b for part in entry for i, b in enumerate(part, start=1))


def kappa(tup) -> int:
    n = size(tup[0])
    return 2 * n * n - sum(n * n - z_of(e) for e in tup)


def kappa_from_multiplicities(mults) -> int:
    """Rigidity index of a diagonal tuple given only its multiplicity vectors."""
    n = sum(mults[0])
    return 2 * n * n - sum(n * n - sum(m * m for m in mv) for mv in mults)


def conditions(tup) -> tuple[bool, bool, bool]:
    """(alpha, beta, omega) straight from their definitions."""
    n = size(tup[0])
    rs = [r_of(e) for e in tup]
    alpha = sum(n * n - z_of(e) for e in tup) >= 2 * n * n - 2
    beta = all(sum(rs) - r >= n for r in rs)
    omega = sum(rs) >= 2 * n
    return alpha, beta, omega


def _shrink(entry, count: int):
    """Decrement the `count` smallest blocks of the first slot with the most
    blocks; drop blocks and slots that reach size 0."""
    top = max(len(part) for part in entry)
    pick = next(i for i, part in enumerate(entry) if len(part) == top)
    part = sorted(entry[pick], reverse=True)
    keep, cut = part[: len(part) - count], [b - 1 for b in part[len(part) - count :]]
    new_part = tuple(sorted((b for b in keep + cut if b > 0), reverse=True))
    rest = [p for i, p in enumerate(entry) if i != pick]
    if new_part:
        rest.append(new_part)
    return tuple(rest)


def reduction_verdict(tup) -> tuple[bool, list[int]]:
    """Generic-eigenvalue verdict by the reduction, with the sizes visited.

    Solvable iff beta holds and the reduction, applied while alpha and beta
    hold, reaches omega or size 1.  Slots are chosen by first maximizer; the
    verdict does not depend on that choice.
    """
    n = size(tup[0])
    sizes = [n]
    if n == 1:
        return True, sizes
    if not conditions(tup)[1]:
        return False, sizes
    while True:
        alpha, beta, omega = conditions(tup)
        if omega or n == 1:
            return True, sizes
        if not (alpha and beta):
            return False, sizes
        n1 = sum(r_of(e) for e in tup) - n
        tup = tuple(_shrink(e, n - n1) for e in tup)
        n = n1
        sizes.append(n)


# --- exact eigenvalue arithmetic --------------------------------------------


def identity(mode: str):
    return (Fraction(0), Fraction(0)) if mode == "additive" else (Fraction(1), Fraction(0))


def combine(mode: str, a, b):
    if mode == "additive":
        return (a[0] + b[0], a[1] + b[1])
    return (a[0] * b[0], (a[1] + b[1]) % 1)


def power(mode: str, value, c: int):
    if mode == "additive":
        return (value[0] * c, value[1] * c)
    return (value[0] ** c, (value[1] * c) % 1)


def selection_value(mode: str, values, counts):
    """Sum (product) of a selection: counts[e][s] copies of values[e][s]."""
    total = identity(mode)
    for entry_values, entry_counts in zip(values, counts):
        for v, c in zip(entry_values, entry_counts):
            total = combine(mode, total, power(mode, v, c))
    return total


def _entry_selections(mode: str, values, mults, k: int) -> dict:
    """value -> number of count vectors choosing exactly k copies."""
    out: dict = {}
    for counts in itertools.product(*[range(m + 1) for m in mults]):
        if sum(counts) == k:
            v = selection_value(mode, [values], [counts])
            out[v] = out.get(v, 0) + 1
    return out


def _sumset(mode: str, maps) -> dict:
    acc = {identity(mode): 1}
    for m in maps:
        nxt: dict = {}
        for v1, c1 in acc.items():
            for v2, c2 in m.items():
                v = combine(mode, v1, v2)
                nxt[v] = nxt.get(v, 0) + c1 * c2
        acc = nxt
    return acc


def _inverse(mode: str, v):
    if mode == "additive":
        return (-v[0], -v[1])
    return (1 / v[0], (-v[1]) % 1)


def relation_count(mode: str, values, mults, k: int) -> int:
    """Selections of k copies per entry whose sum is 0 (product is 1), counted
    over every combination of per-entry count vectors."""
    per_entry = [_entry_selections(mode, v, m, k) for v, m in zip(values, mults)]
    half = len(per_entry) // 2
    left = _sumset(mode, per_entry[:half])
    right = _sumset(mode, per_entry[half:])
    return sum(c * right.get(_inverse(mode, v), 0) for v, c in left.items())


def smallest_relation(mode: str, values, mults, below: int):
    """Smallest cardinality k < below carrying a relation, or None."""
    for k in range(1, below):
        if relation_count(mode, values, mults, k):
            return k
    return None


def generalized_beta(mode: str, values, block_counts, n: int) -> bool:
    """min over constrained scalar shifts of the total rank is >= 2n.

    Each entry drops either nothing or the blocks of one eigenvalue; dropping
    one eigenvalue from every entry needs those eigenvalues to sum to 0
    (multiply to 1).  Every choice is enumerated.
    """
    best_blocks = [max(b) for b in block_counts]
    best = sum(best_blocks) - min(best_blocks)
    for pick in itertools.product(*[range(len(v)) for v in values]):
        total = identity(mode)
        for entry_values, s in zip(values, pick):
            total = combine(mode, total, entry_values[s])
        if total == identity(mode):
            best = max(best, sum(b[s] for b, s in zip(block_counts, pick)))
    return len(values) * n - best >= 2 * n


def multiplicity_gcd(mults) -> int:
    d = 0
    for mv in mults:
        for m in mv:
            d = math.gcd(d, m)
    return d


def to_complex(mode: str, value) -> complex:
    if mode == "additive":
        return complex(float(value[0]), float(value[1]))
    return float(value[0]) * complex(math.cos(2 * math.pi * value[1]), math.sin(2 * math.pi * value[1]))


# --- numerical witnesses ----------------------------------------------------


def jordan(blocks, eigenvalues) -> np.ndarray:
    """Jordan matrix with the given block lists, one complex value per slot."""
    n = sum(sum(part) for part in blocks)
    g = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for part, lam in zip(blocks, eigenvalues):
        for b in part:
            for i in range(b):
                g[pos + i, pos + i] = lam
                if i + 1 < b:
                    g[pos + i, pos + i + 1] = 1.0
            pos += b
    return g


def witness_errors(mode: str, blocks, eigenvalues, conjugators, matrices) -> dict:
    """Recompute a witness from its conjugators and the exact eigenvalues.

    Returns the residual of the recomputed matrices, their largest relative
    distance from the returned matrices, the largest distance of a computed
    eigenvalue from its nearest prescribed one (scaled by the tolerance a
    Jordan block of that size allows), whether the eigenvalue multiplicities
    match, and the centralizer nullity of the recomputed tuple.
    """
    eps = float(np.finfo(np.float64).eps)
    mats = []
    drift = 0.0
    for q, blk, evs, returned in zip(conjugators, blocks, eigenvalues, matrices):
        q = np.asarray(q, dtype=np.complex128)
        a = q @ jordan(blk, evs) @ np.linalg.inv(q)
        ret = np.asarray(returned, dtype=np.complex128)
        drift = max(drift, float(np.linalg.norm(a - ret) / max(1.0, np.linalg.norm(a))))
        mats.append(a)
    n = mats[0].shape[0]
    if mode == "additive":
        residual = float(np.linalg.norm(sum(mats)))
    else:
        prod = np.eye(n, dtype=np.complex128)
        for a in mats:
            prod = prod @ a
        residual = float(np.linalg.norm(prod - np.eye(n)))
    eig_excess = 0.0
    counts_ok = True
    for a, blk, evs in zip(mats, blocks, eigenvalues):
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        tols = [max(1e-6, 10.0 * (eps * scale * 1e4) ** (1.0 / max(part))) for part in blk]
        counts = [0] * len(evs)
        for e in np.linalg.eigvals(a):
            dists = [abs(e - t) for t in evs]
            best = int(np.argmin(dists))
            eig_excess = max(eig_excess, dists[best] / tols[best])
            counts[best] += 1
        counts_ok = counts_ok and counts == [sum(part) for part in blk]
    eye = np.eye(n, dtype=np.complex128)
    system = np.vstack([np.kron(eye, a.T) - np.kron(a, eye) for a in mats])
    s = np.linalg.svd(system, compute_uv=False)
    nullity = n * n - int(np.sum(s > 1e-6 * s[0]))
    return {
        "residual": residual,
        "drift": drift,
        "eig_excess": eig_excess,
        "eig_counts_ok": counts_ok,
        "nullity": nullity,
    }
