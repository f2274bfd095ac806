"""Jordan matrices of the classes and the certification routines.

The certificates are independent of the search path: irreducibility via the
dimension of the generated matrix algebra (full n^2 iff no common invariant
subspace), centralizer triviality via the nullity of the stacked commutation
system, and class membership via eigenvalue matching plus the closed-form
power ranks of the prescribed JNF, all at the fixed tolerances below.
"""

from __future__ import annotations

import numpy as np

from ..genericity import ClassSpec
from ..jnf import power_rank

__all__ = [
    "jordan_matrix",
    "burnside_dim",
    "centralizer_nullity",
    "class_membership",
    "RANK_TOL",
    "EIG_TOL",
    "COND_CAP",
]

RANK_TOL = 1e-6  # singular values below RANK_TOL times the largest count as zero
EIG_TOL = 1e-6  # floor of the distance at which an eigenvalue matches its target
# the search's cap on the condition numbers of random starts and of restart
# results; eigenvalue matching widens with it
COND_CAP = 1e4


def jordan_matrix(spec: ClassSpec) -> np.ndarray:
    """Dense Jordan matrix of the class, slots and blocks in canonical order."""
    n = spec.n
    G = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for slot, ev in zip(spec.jnf.slots, spec.eigenvalues):
        lam = ev.to_complex()
        for size in slot.parts:
            for i in range(size):
                G[pos + i, pos + i] = lam
                if i + 1 < size:
                    G[pos + i, pos + i + 1] = 1.0
            pos += size
    return G


def _rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def burnside_dim(matrices) -> int:
    """Dimension of the algebra generated by the identity and the matrices.

    Grows an orthonormal basis of the span (as vectors of length n^2) by
    right-multiplying with the generators until the rank stabilizes; n^2
    means the tuple acts irreducibly.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]
    n = mats[0].shape[0]
    seed = [np.eye(n, dtype=np.complex128)] + mats
    stack = np.array([m.reshape(-1) for m in seed])

    def orthobasis(rows):
        u, s, vh = np.linalg.svd(rows, full_matrices=False)
        keep = s > RANK_TOL * s[0] if s.size and s[0] > 0 else []
        return vh[: int(np.sum(keep))]

    basis = orthobasis(stack)
    while True:
        products = [
            (basis[i].reshape(n, n) @ g).reshape(-1)
            for i in range(basis.shape[0])
            for g in mats
        ]
        grown = orthobasis(np.vstack([basis] + [p[None, :] for p in products]))
        if grown.shape[0] == basis.shape[0]:
            return int(basis.shape[0])
        basis = grown


def centralizer_nullity(matrices) -> int:
    """Nullity of the stacked system [X, A_j] = 0 over all j (>= 1 always)."""
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]
    n = mats[0].shape[0]
    eye = np.eye(n, dtype=np.complex128)
    blocks = [np.kron(eye, a.T) - np.kron(a, eye) for a in mats]
    system = np.vstack(blocks)
    return n * n - _rank(system)


def class_membership(matrix: np.ndarray, spec: ClassSpec) -> bool:
    """Whether the matrix lies in the prescribed conjugacy class (within tolerance).

    Eigenvalues are matched to the prescribed ones by nearest distance with
    exact multiplicity counts, then rank((A - lambda)^j) is compared against
    the closed-form partition ranks up to each eigenvalue's largest block.
    The rank checks carry the certificate; eigenvalue matching uses a
    block-aware tolerance because an eigenvalue inside a size-b Jordan block
    is only stable to O(eps^(1/b)) under perturbation.
    """
    A = np.asarray(matrix, dtype=np.complex128)
    n = spec.n
    eps = float(np.finfo(np.float64).eps)
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    targets = [ev.to_complex() for ev in spec.eigenvalues]
    mults = spec.multiplicities()
    # scatter of an eigenvalue in a size-b Jordan block under a backward
    # error of eps*scale*cond is O((eps*scale*cond)^(1/b)); allow for the
    # search's conjugator condition cap
    match_tols = [
        max(EIG_TOL, 10.0 * (eps * scale * COND_CAP) ** (1.0 / slot.parts[0]))
        for slot in spec.jnf.slots
    ]
    eigs = np.linalg.eigvals(A)
    counts = [0] * len(targets)
    for e in eigs:
        dists = [abs(e - t) for t in targets]
        best = int(np.argmin(dists))
        if dists[best] > match_tols[best]:
            return False
        counts[best] += 1
    if tuple(counts) != tuple(mults):
        return False
    eye = np.eye(n, dtype=np.complex128)
    for slot, target in zip(spec.jnf.slots, targets):
        shifted = A - target * eye
        sscale = float(np.linalg.norm(shifted, 2))
        if sscale <= 1e-9 * scale:
            # numerically the scalar matrix: every shifted power is zero
            if any(power_rank(slot, j, n) != 0 for j in range(1, slot.parts[0] + 1)):
                return False
            continue
        # thresholds: relative to the power's own largest singular value for
        # genuine rank cuts, floored by the noise an exactly-vanishing power
        # accumulates (|X|^(j-1) times the absolute error carried by X).
        # Powers beyond the largest block add no structural information and
        # their widening singular-value spread only breeds false negatives.
        powered = eye.copy()
        for j in range(1, slot.parts[0] + 1):
            powered = powered @ shifted
            s = np.linalg.svd(powered, compute_uv=False)
            threshold = max(
                RANK_TOL * float(s[0]),
                1e3 * eps * sscale**j,
                1e4 * eps * scale * sscale ** (j - 1),
            )
            got = int(np.sum(s > threshold))
            if got != power_rank(slot, j, n):
                return False
    return True
