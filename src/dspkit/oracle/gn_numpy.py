"""Damped Gauss-Newton kernel of the realization search.

Minimizes the squared Frobenius norm of sum(Q_j G_j Q_j^-1) (additive) or
prod(Q_j G_j Q_j^-1) - I (multiplicative) over the conjugators Q_j.  The
residual map is holomorphic in the Q entries, so the step solves the complex
normal equations with a Levenberg ridge, in the push-through form
(J^H J + mu I)^-1 J^H f = J^H (J J^H + mu I)^-1 f: an n^2 x n^2 solve per
ridge instead of an mn^2 x mn^2 one.  Matrices use row-major vec, for which
vec(L X R) = kron(L, R^T) vec(X).
"""

from __future__ import annotations

import numpy as np

_RCOND_FLOOR = 1e-13
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12


def _forward(G, Q, multiplicative):
    """Per-entry matrices, inverses and the constraint residual F, or None
    when some conjugator is non-finite or numerically singular."""
    if not np.isfinite(Q).all():
        return None
    s = np.linalg.svd(Q, compute_uv=False)
    if not np.isfinite(s[:, 0]).all() or (s[:, -1] <= s[:, 0] * _RCOND_FLOOR).any():
        return None
    inv = np.linalg.inv(Q)
    A = Q @ G @ inv
    if multiplicative:
        F = A[0]
        for j in range(1, len(A)):
            F = F @ A[j]
        F = F - np.eye(len(F), dtype=np.complex128)
    else:
        F = A.sum(axis=0)
    return A, inv, F


def _jacobian(G, inv, A, multiplicative):
    """dF/dQ as an n^2 x mn^2 matrix.  Class j contributes
    dQ -> L1 dQ R1 - L2 dQ R2, whose block is kron(L1, R1^T) - kron(L2, R2^T),
    that is entry [(a,b),(c,d)] = L1[a,c] R1[d,b] - L2[a,c] R2[d,b]."""
    m, n, _ = G.shape
    K = G @ inv
    if multiplicative:
        left = np.empty_like(A)
        right = np.empty_like(A)
        left[0] = np.eye(n)
        for j in range(1, m):
            left[j] = left[j - 1] @ A[j - 1]
        right[m - 1] = np.eye(n)
        for j in range(m - 2, -1, -1):
            right[j] = A[j + 1] @ right[j + 1]
        L1, R1, L2, R2 = left, K @ right, left @ A, inv @ right
    else:
        L1, R1, L2, R2 = np.eye(n)[None], K, A, inv
    return (_blocks(L1, R1) - _blocks(L2, R2)).reshape(n * n, m * n * n)


def _blocks(L, R):
    """Entry (a, b, j, c, d) = L[j, a, c] R[j, d, b] by broadcasting, the
    same products np.kron forms; the (a, b, j) order lays class j's block in
    columns j n^2 .. (j+1) n^2 - 1 of the reshaped Jacobian."""
    return L.transpose(1, 0, 2)[:, None, :, :, None] * R.transpose(2, 0, 1)[None, :, :, None, :]


def _gram(J):
    """J J^H and the ridge scale trace(J J^H) / mn^2, which is the mean of
    the diagonal of J^H J."""
    M = J @ J.conj().T
    return M, float(np.trace(M).real) / J.shape[1] + 1e-30


def _step(J, M, f, mu):
    """The ridge step -(J^H J + mu I)^-1 J^H f, as -J^H (M + mu I)^-1 f."""
    ridged = M.copy()
    ridged.flat[:: len(M) + 1] += mu
    y = np.linalg.solve(ridged, f)
    return -(y.conj() @ J).conj()


def run(G, Q0, multiplicative, iters, stop_tol):
    """Returns (Q, residual_norm, iterations_used); (Q0, inf, 0) when a
    starting conjugator is non-finite or numerically singular."""
    G = np.ascontiguousarray(G, dtype=np.complex128)
    Q = np.ascontiguousarray(Q0, dtype=np.complex128).copy()
    m, n, _ = G.shape

    state = _forward(G, Q, multiplicative)
    if state is None:
        return Q, np.inf, 0
    A, inv, F = state
    r2 = float(np.sum(np.abs(F) ** 2))
    lam = _LAMBDA_INIT
    used = 0
    for _ in range(iters):
        if np.sqrt(r2) < stop_tol:
            break
        used += 1
        J = _jacobian(G, inv, A, multiplicative)
        M, scale = _gram(J)
        f = F.reshape(-1)
        accepted = False
        while lam <= _LAMBDA_MAX:
            Qn = Q + _step(J, M, f, lam * scale).reshape(m, n, n)
            trial = _forward(G, Qn, multiplicative)
            if trial is not None:
                r2n = float(np.sum(np.abs(trial[2]) ** 2))
                if np.isfinite(r2n) and r2n < r2:
                    Q = Qn
                    A, inv, F = trial
                    r2 = r2n
                    lam = max(lam * 0.3, 1e-12)
                    accepted = True
                    break
            lam *= 10.0
        if not accepted:
            break
    return Q, float(np.sqrt(r2)), used
