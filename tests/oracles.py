"""Independent brute-force oracles used by the tests.

Exact rational linear algebra on explicit Jordan matrices: these never touch
the closed forms they are checking.  The Gauss-Newton references build the
Jacobian from np.kron and solve the dense normal equations, the forms the
kernel avoids.  The half-split relation DP is the relation search's earlier
fold, kept to compare the search's size-based split against on the same
integer keys.  The global-constraint test sums (multiplies) the eigenvalues
in plain Fraction arithmetic, the form `check_evs` replaced by the keys, and
the sampler's spacing test subtracts Fractions where `_well_scaled`
compares integer cross products.  The class slot order sorts on the
eigenvalues' Fraction `sort_key` and checks distinctness on Fraction hashes,
where `ClassSpec` compares scaled ints.  The rigid diagonal enumeration
builds every multiset of diagonal classes and computes its kappa, where
`enumerate_rigid_diagonal` sums the classes' stored z first.  Each record
type has a frozen dataclass twin with the fields it had as a dataclass, the
reference for its repr, equality, hashing and immutability.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np

from dspkit.classify import is_good
from dspkit.enumerate import diagonal_jnfs
from dspkit.genericity import Assignment, _grow_layers, _StateBudget
from dspkit.jnf import Jnf, JnfTuple, kappa_of
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar


def jordan_matrix_exact(jnf: Jnf, eigenvalues=None) -> list[list[Fraction]]:
    """Dense Jordan matrix over Q with distinct integer eigenvalues per slot."""
    n = jnf.size
    if eigenvalues is None:
        eigenvalues = [Fraction(7 + 2 * i) for i in range(jnf.num_slots)]
    mat = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for slot, lam in zip(jnf.slots, eigenvalues):
        for size in slot.parts:
            for i in range(size):
                mat[pos + i][pos + i] = Fraction(lam)
                if i + 1 < size:
                    mat[pos + i][pos + i + 1] = Fraction(1)
            pos += size
    return mat


def frac_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination."""
    mat = [row[:] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def commutant_nullity_exact(mat: list[list[Fraction]]) -> int:
    """Nullity of [X, J] = 0 as an n^2 x n^2 rational system.

    Row-major vec: vec(JX) = kron(J, I) x, vec(XJ) = kron(I, J^T) x.
    """
    n = len(mat)
    n2 = n * n
    system = [[Fraction(0)] * n2 for _ in range(n2)]
    for i in range(n):
        for k in range(n):
            row = i * n + k
            for a in range(n):
                for b in range(n):
                    col = a * n + b
                    val = Fraction(0)
                    if k == b:
                        val += mat[i][a]  # J X term
                    if i == a:
                        val -= mat[b][k]  # X J term
                    system[row][col] += val
    return n2 - frac_rank(system)


def min_shifted_rank_exact(jnf: Jnf) -> int:
    """min over lambda of rank(J - lambda I) on the explicit matrix.

    Scans the slot eigenvalues plus one non-eigenvalue.
    """
    slots = jnf.num_slots
    eigenvalues = [Fraction(7 + 2 * i) for i in range(slots)]
    mat = jordan_matrix_exact(jnf, eigenvalues)
    n = jnf.size
    best = n
    for lam in eigenvalues + [Fraction(1, 3)]:
        shifted = [
            [mat[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)
        ]
        best = min(best, frac_rank(shifted))
    return best


def fraction_check_evs(specs) -> bool:
    """Whether the full eigenvalue sum is 0 (product is 1), in Fractions.

    Each eigenvalue counts with its multiplicity: re and im parts are summed
    additively; multiplicatively the moduli are multiplied and the arguments
    summed mod 1.  Uses only the components of each scalar, never its
    operators or the integer keys.
    """
    pairs = [(ev, m) for s in specs for ev, m in zip(s.eigenvalues, s.multiplicities())]
    if specs[0].mode == "additive":
        re = sum((Fraction(ev.re) * m for ev, m in pairs), Fraction(0))
        im = sum((Fraction(ev.im) * m for ev, m in pairs), Fraction(0))
        return re == 0 and im == 0
    modulus, arg = Fraction(1), Fraction(0)
    for ev, m in pairs:
        modulus *= Fraction(ev.modulus) ** m
        arg += Fraction(ev.arg) * m
    return modulus == 1 and arg.denominator == 1


def fraction_class_order(pairs):
    """The (partition, eigenvalue) pairs of one class in slot order, by the
    partitions' parts and then the eigenvalues' Fraction `sort_key`, both
    descending; None when two eigenvalues are equal."""
    if len({ev for _, ev in pairs}) != len(pairs):
        return None
    return sorted(pairs, key=lambda pe: (pe[0].parts, pe[1].sort_key()), reverse=True)


def fraction_well_scaled(values, mode: str) -> bool:
    """`_well_scaled` on Fraction differences: |re|, |im| <= 12; additive
    values 1/8 apart in re or im; arguments of equal modulus at a circular
    distance of at least min(1/16, 1/(2S)) among S values."""
    if mode == "additive":
        if any(abs(v.re) > 12 or abs(v.im) > 12 for v in values):
            return False
        return all(abs(a.re - b.re) >= Fraction(1, 8) or abs(a.im - b.im) >= Fraction(1, 8)
                   for i, a in enumerate(values) for b in values[i + 1 :])
    min_arc = min(Fraction(1, 16), Fraction(1, 2 * len(values)))
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            gap = abs(a.arg - b.arg)
            if min(gap, 1 - gap) < min_arc and a.modulus == b.modulus:
                return False
    return True


def naive_relation_counts(specs) -> list[int]:
    """Number of per-entry copy-count choices, k copies from every entry,
    whose values sum to 0 (multiply to 1), for k = 1..n-1; exhaustive, tiny
    sizes only.

    Every entry's copy-count choices are listed slot by slot and grouped by
    their number of copies; at each cardinality the sums (products) of every
    choice from the entries but the last are listed, and the last entry's
    choices that close each are counted by value.  Computes with the scalar
    operators of `dspkit.scalars` only, so it shares no arithmetic with the
    integer keys of the relation DPs.
    """
    additive = specs[0].mode == "additive"
    identity = AdditiveScalar.zero() if additive else MultiplicativeScalar.one()
    n = specs[0].n

    def combine(a, b):
        return a + b if additive else a * b

    per_entry = []
    for spec in specs:
        partial = [(0, identity)]
        for ev, m in zip(spec.eigenvalues, spec.multiplicities()):
            powers = [ev.scale(c) if additive else ev**c for c in range(m + 1)]
            partial = [
                (used + c, combine(value, powers[c])) for used, value in partial for c in range(m + 1)
            ]
        by_copies = [[] for _ in range(n + 1)]
        for used, value in partial:
            by_copies[used].append(value)
        per_entry.append(by_copies)
    counts = []
    for k in range(1, n):
        totals = [identity]
        for by_copies in per_entry[:-1]:
            totals = [combine(t, v) for t in totals for v in by_copies[k]]
        last = Counter(per_entry[-1][k])
        counts.append(sum(last[-t if additive else t.inverse()] for t in totals))
    return counts


def half_split_pairs(keys, per_entry, k, budget):
    """The relation DP's earlier meet in the middle, kept as a reference: grow
    every entry's DP to layer k, fold layer k over each half of the entries
    (split at len // 2), and yield the [selections, number] of each left
    value together with that of its complement on the right."""
    modulus, slots = keys
    for entry_slots, layers in zip(slots, per_entry):
        _grow_layers(modulus, entry_slots, layers, k, budget)
    half = len(per_entry) // 2
    folds = []
    for part in (per_entry[:half], per_entry[half:]):
        acc = {0: [(), 1]}
        for layers in part:
            row = list(layers[k][-1].items())
            new_acc: dict = {}
            for v1, (w1, c1) in acc.items():
                for v2, (w2, c2) in row:
                    nv = (v1 + v2) % modulus
                    hit = new_acc.get(nv)
                    if hit is None:
                        budget.take()
                        new_acc[nv] = [w1 + (w2,), c1 * c2]
                    else:
                        hit[1] += c1 * c2
            acc = new_acc
        folds.append(acc)
    left, right = folds
    for value, entry in left.items():
        hit = right.get(-value % modulus)
        if hit is not None:
            yield entry, hit


def half_split_relations(specs):
    """Per-k relation counts for k = 1..n-1 and the first witness (k,
    selections) of the smallest k, or None, by `half_split_pairs` on one DP
    grown across k, with no practical state budget; it never stops early at
    n/2."""
    keys = Assignment(specs).keys
    per_entry = [[] for _ in specs]
    budget = _StateBudget("reference relation search", 0, 10**18)
    counts, witness = [], None
    for k in range(1, specs[0].n):
        pairs = list(half_split_pairs(keys, per_entry, k, budget))
        counts.append(sum(left[1] * right[1] for left, right in pairs))
        if pairs and witness is None:
            witness = k, pairs[0][0][0] + pairs[0][1][0]
    return counts, witness


def shrink_plain(slots, slot: int, count: int) -> list[list[int]]:
    """Plain int slots with the `count` smallest blocks of slot `slot` shrunk
    by 1 and zero blocks dropped, in no particular order."""
    out = [sorted(parts) for parts in slots]
    smallest_first = out.pop(slot)
    shrunk = [b - 1 for b in smallest_first[:count]] + smallest_first[count:]
    shrunk = [b for b in shrunk if b > 0]
    return out + ([shrunk] if shrunk else [])


def assert_same_as_checked(fast, checked) -> None:
    """A Jnf or JnfTuple `fast` built on a trusted path equals `checked`, the
    value a public constructor built from plain int parts: same slot order,
    hashes and stored invariants."""
    if isinstance(fast, JnfTuple):
        assert fast == checked and hash(fast) == hash(checked), (fast, checked)
        assert fast.n == checked.n and len(fast.entries) == len(checked.entries)
        for a, b in zip(fast.entries, checked.entries):
            assert_same_as_checked(a, b)
        return
    assert [s.parts for s in fast.slots] == [s.parts for s in checked.slots], (fast, checked)
    assert fast == checked and hash(fast) == hash(checked), (fast, checked)
    for name in ("size", "max_blocks", "r", "z", "d"):
        assert getattr(fast, name) == getattr(checked, name), (name, fast)
    for a, b in zip(fast.slots, checked.slots):
        assert (a.total, a.num_parts, hash(a)) == (b.total, b.num_parts, hash(b)), fast


def rigid_diagonal_brute(n: int, p: int) -> list[JnfTuple]:
    """Every multiset of p + 1 diagonal classes of size n, in
    `combinations_with_replacement` order, built as a checked tuple and kept
    when its kappa is 2 and `is_good` passes it."""
    combos = itertools.combinations_with_replacement(diagonal_jnfs(n), p + 1)
    return [tup for tup in map(JnfTuple, combos) if kappa_of(tup) == 2 and is_good(tup)]


def star_root_verdict(tup: JnfTuple) -> bool:
    """Whether the star-quiver dimension vector of `tup` is a positive root.

    By Kac's theorem and Crawley-Boevey (Duke Math. J. 118 (2003), Thm 1),
    at generic eigenvalues an irreducible additive solution exists iff this
    holds.  The vector has n at the centre; arm j lists the positive ranks of
    prod_{l<=k} (A_j - xi_l), each eigenvalue repeated as often as its largest
    block.  Decided by reflecting at any vertex i with (alpha, e_i) > 0: a
    simple root is a root, a negative coordinate is not, and in the
    fundamental region alpha is a root iff its support is connected.  Uses
    only the Euler form, never the reduction it is checked against.
    """
    n = tup.n
    alpha = [n]
    nbrs: list[list[int]] = [[]]
    for e in tup.entries:
        rank, prev = n, 0
        for s in e.slots:
            for k in range(1, s.parts[0] + 1):
                rank -= sum(1 for b in s.parts if b >= k)
                if rank == 0:
                    break
                alpha.append(rank)
                nbrs.append([prev])
                nbrs[prev].append(len(alpha) - 1)
                prev = len(alpha) - 1
    while sum(alpha) != 1:
        for i, a in enumerate(alpha):
            pairing = 2 * a - sum(alpha[j] for j in nbrs[i])
            if pairing > 0:
                break
        else:
            support = {i for i, a in enumerate(alpha) if a}
            seen, todo = set(), [min(support)]
            while todo:
                i = todo.pop()
                if i not in seen:
                    seen.add(i)
                    todo.extend(j for j in nbrs[i] if j in support)
            return seen == support
        alpha[i] = a - pairing
        if alpha[i] < 0:
            return False
    return True


def kron_jacobian(G, Q, inv, A, multiplicative):
    """dF/dQ of the Gauss-Newton kernel built block by block from np.kron,
    in row-major vec: vec(L X R) = kron(L, R^T) vec(X)."""
    m, n, _ = G.shape
    n2 = n * n
    eye = np.eye(n, dtype=np.complex128)
    J = np.empty((n2, m * n2), dtype=np.complex128)
    if multiplicative:
        left = np.empty_like(A)
        right = np.empty_like(A)
        left[0] = eye
        for j in range(1, m):
            left[j] = left[j - 1] @ A[j - 1]
        right[m - 1] = eye
        for j in range(m - 2, -1, -1):
            right[j] = A[j + 1] @ right[j + 1]
        for j in range(m):
            K = G[j] @ inv[j]
            J[:, j * n2 : (j + 1) * n2] = np.kron(left[j], (K @ right[j]).T) - np.kron(
                left[j] @ A[j], (inv[j] @ right[j]).T
            )
    else:
        for j in range(m):
            K = G[j] @ inv[j]
            J[:, j * n2 : (j + 1) * n2] = np.kron(eye, K.T) - np.kron(A[j], inv[j].T)
    return J


def normal_equations_step(J, F, lam):
    """The Levenberg step at ridge lam, solved from the dense mn^2 x mn^2
    normal equations (J^H J + lam * scale * I) delta = -J^H F, with scale the
    mean of diag(J^H J)."""
    mn2 = J.shape[1]
    ridge_eye = np.eye(mn2, dtype=np.complex128)
    Jh = J.conj().T
    g = Jh @ F.reshape(-1)
    H = Jh @ J
    scale = float(np.mean(np.abs(np.diag(H).real))) + 1e-30
    return np.linalg.solve(H + (lam * scale) * ridge_eye, -g)


def _budget_field(name: str, default):
    return (name, object, dataclasses.field(default=default))


# name -> frozen dataclass with that name and the record's fields, in order
RECORD_TWINS = {
    twin.__name__: twin
    for twin in (
        dataclasses.make_dataclass(name, fields, frozen=True)
        for name, fields in (
            ("Partition", ["parts"]),
            ("Jnf", ["slots"]),
            ("JnfTuple", ["entries"]),
            ("InvariantSummary", ["r", "d", "z", "kappa"]),
            ("ConditionCheck", ["alpha", "alpha_strict", "beta", "omega", "n"]),
            ("PsiStep", ["input", "chosen_slots", "n1"]),
            ("PsiTrace", ["steps", "terminal", "termination_reason"]),
            (
                "DecisionReport",
                ["verdict", "conditions", "kappa", "trace", "expected_moduli_dimension"],
            ),
            ("SpecialCaseTag", ["kind", "k"]),
            ("SpecialDiagonalWitness", ["l", "n1", "quotient"]),
            ("ClassSpec", ["jnf", "eigenvalues", "mode"]),
            ("RelationWitness", ["cardinality", "selections"]),
            ("GcdReduction", ["d", "xi", "xi_primitive"]),
            ("AdditiveScalar", ["re", "im"]),
            ("MultiplicativeScalar", ["modulus", "arg"]),
            (
                "SearchBudget",
                [
                    _budget_field("restarts", 50),
                    _budget_field("iters", 200),
                    _budget_field("seed", 0),
                    _budget_field("residual_tol", 1e-8),
                    _budget_field("jobs", 1),
                    _budget_field("warm_start", None),
                ],
            ),
            (
                "RealizationResult",
                [
                    "conjugators",
                    "matrices",
                    "residual",
                    "burnside_dim",
                    "centralizer_nullity",
                    "class_membership_ok",
                    "certified",
                    "restart_index",
                    "backend",
                ],
            ),
        )
    )
}


def twin_of(record):
    """The frozen dataclass twin holding the record's values of the twin's
    fields (read by attribute, so a field the record lacks raises)."""
    twin = RECORD_TWINS[type(record).__name__]
    return twin(*[getattr(record, f.name) for f in dataclasses.fields(twin)])
