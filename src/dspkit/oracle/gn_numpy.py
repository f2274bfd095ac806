"""Damped Gauss-Newton kernel of the realization search.

Minimizes the squared Frobenius norm of sum(Q_j G_j Q_j^-1) (additive) or
prod(Q_j G_j Q_j^-1) - I (multiplicative) over the conjugators Q_j.  The
residual map is holomorphic in the Q entries, so the step solves the complex
normal equations with a Levenberg ridge.  Matrices use row-major vec, for
which vec(A X B) = kron(A, B^T) vec(X).
"""

from __future__ import annotations

import numpy as np

_RCOND_FLOOR = 1e-13
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12


def _forward(G, Q, multiplicative):
    """Per-entry matrices, inverses and the constraint residual F, or None
    when some conjugator is numerically singular."""
    m, n, _ = G.shape
    eye = np.eye(n, dtype=np.complex128)
    inv = np.empty_like(Q)
    A = np.empty_like(Q)
    for j in range(m):
        s = np.linalg.svd(Q[j], compute_uv=False)
        if not np.isfinite(s[0]) or s[-1] <= s[0] * _RCOND_FLOOR:
            return None
        inv[j] = np.linalg.solve(Q[j], eye)
        A[j] = Q[j] @ G[j] @ inv[j]
    if multiplicative:
        F = np.eye(n, dtype=np.complex128)
        for j in range(m):
            F = F @ A[j]
        F = F - eye
    else:
        F = A.sum(axis=0)
    return A, inv, F


def _jacobian(G, Q, inv, A, multiplicative):
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


def run(G, Q0, multiplicative, iters, stop_tol):
    """Returns (Q, residual_norm, iterations_used)."""
    G = np.ascontiguousarray(G, dtype=np.complex128)
    Q = np.ascontiguousarray(Q0, dtype=np.complex128).copy()
    m, n, _ = G.shape
    mn2 = m * n * n
    ridge_eye = np.eye(mn2, dtype=np.complex128)

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
        J = _jacobian(G, Q, inv, A, multiplicative)
        Jh = J.conj().T
        g = Jh @ F.reshape(-1)
        H = Jh @ J
        scale = float(np.mean(np.abs(np.diag(H).real))) + 1e-30
        accepted = False
        while lam <= _LAMBDA_MAX:
            delta = np.linalg.solve(H + (lam * scale) * ridge_eye, -g)
            Qn = Q + delta.reshape(m, n, n)
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
