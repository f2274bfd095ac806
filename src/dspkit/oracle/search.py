"""Random-restart realization search for matrix tuples in prescribed classes.

Searches for conjugators Q_j with sum(Q_j G_j Q_j^-1) = 0 (additive) or
prod(Q_j G_j Q_j^-1) = I (multiplicative) by damped Gauss-Newton from seeded
random starts, then certifies any near-solution independently of the search:
residual, class membership, irreducibility and centralizer nullity.  Failure
to find a witness is reported as None, never as a nonexistence claim.
"""

from __future__ import annotations

import numbers
import operator
from typing import Optional, Sequence

import numpy as np

from .._record import Record
from ..errors import IllConditionedError, InvalidInputError
from ..genericity import ClassSpec, _assignment
from . import gn_numpy, numeric
from .numeric import burnside_dim, centralizer_nullity, class_membership, jordan_matrix

__all__ = ["SearchBudget", "RealizationResult", "realize", "backend_name", "MAX_SIZE", "MAX_ENTRIES"]

MAX_SIZE = 8
MAX_ENTRIES = 6


class SearchBudget(Record):
    """Limits of one search.  `jobs` starts no threads: it is kept for
    existing callers and the report's echo, and restarts always run one at a
    time in index order.

    Raises InvalidInputError unless `restarts`, `iters`, `jobs` and `seed`
    pass `operator.index` (numpy ints do, bools do not) and `residual_tol` is
    a real number other than a bool; when `restarts`, `iters` or `jobs` is
    below 1 or `residual_tol` is not positive (NaN included), so that no
    search could run; when `residual_tol` is infinite, with which any tuple
    would certify, or above `numeric.EIG_TOL`, with which a tuple whose
    residual is far from 0 certifies; or when `seed` lies outside [0, 2**32),
    which cannot seed the restarts.
    """

    restarts: int
    iters: int
    seed: int
    residual_tol: float
    jobs: int
    warm_start: Optional[tuple]

    def __init__(
        self,
        restarts: int = 50,
        iters: int = 200,
        seed: int = 0,
        residual_tol: float = 1e-8,
        jobs: int = 1,
        warm_start: Optional[tuple] = None,
    ):
        for name, value in (("restarts", restarts), ("iters", iters), ("jobs", jobs), ("seed", seed)):
            try:
                if isinstance(value, bool):
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
            if name != "seed" and value < 1:
                raise InvalidInputError(f"{name} must be at least 1, got {value}")
        tol = residual_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise InvalidInputError(f"residual_tol must be a real number, got {tol!r}")
        if not tol > 0:
            raise InvalidInputError(f"residual_tol must be positive, got {tol}")
        if tol == float("inf"):
            raise InvalidInputError(f"residual_tol must be finite, got {tol}")
        if tol > numeric.EIG_TOL:
            raise InvalidInputError(f"residual_tol must be at most {numeric.EIG_TOL}, got {tol}")
        if not 0 <= seed < 2**32:
            raise InvalidInputError(f"seed must be in [0, 2**32), got {seed}")
        self.__dict__.update(
            restarts=restarts,
            iters=iters,
            seed=seed,
            residual_tol=residual_tol,
            jobs=jobs,
            warm_start=warm_start,
        )


class RealizationResult(Record):
    conjugators: tuple
    matrices: tuple
    residual: float
    burnside_dim: int
    centralizer_nullity: int
    class_membership_ok: bool
    certified: bool
    restart_index: int
    backend: str

    def __init__(
        self,
        conjugators: tuple,
        matrices: tuple,
        residual: float,
        burnside_dim: int,
        centralizer_nullity: int,
        class_membership_ok: bool,
        certified: bool,
        restart_index: int,
        backend: str,
    ):
        self.__dict__.update(
            conjugators=conjugators,
            matrices=matrices,
            residual=residual,
            burnside_dim=burnside_dim,
            centralizer_nullity=centralizer_nullity,
            class_membership_ok=class_membership_ok,
            certified=certified,
            restart_index=restart_index,
            backend=backend,
        )

    @property
    def irreducible(self) -> bool:
        return self.burnside_dim == len(self.matrices[0]) ** 2


def backend_name() -> str:
    """Name of the Gauss-Newton kernel, carried by every realize report."""
    return "numpy"


def _random_start(seed: int, restart: int, m: int, n: int):
    """Unit-disc random conjugators, deterministic in (seed, restart)."""
    rng = np.random.default_rng([np.uint32(seed), np.uint32(restart)])
    Q = np.empty((m, n, n), dtype=np.complex128)
    for j in range(m):
        for _ in range(100):
            radius = np.sqrt(rng.uniform(0, 1, size=(n, n)))
            angle = rng.uniform(0, 2 * np.pi, size=(n, n))
            cand = radius * np.exp(1j * angle)
            if np.linalg.cond(cand) <= numeric.COND_CAP:
                Q[j] = cand
                break
        else:
            raise IllConditionedError("could not draw a well-conditioned start")
    return Q


def _residual_of(G, Q, multiplicative: bool) -> tuple[np.ndarray, float]:
    m, n, _ = G.shape
    A = np.empty_like(Q)
    for j in range(m):
        A[j] = Q[j] @ G[j] @ np.linalg.inv(Q[j])
    if multiplicative:
        F = np.eye(n, dtype=np.complex128)
        for j in range(m):
            F = F @ A[j]
        F = F - np.eye(n, dtype=np.complex128)
    else:
        F = A.sum(axis=0)
    return A, float(np.linalg.norm(F))


def _run_restart(G, multiplicative: bool, budget: SearchBudget, index: int):
    """The conjugators one restart ends with and their largest condition
    number, inf when the kernel ends without a finite residual, as it does
    from a numerically singular start."""
    m, n, _ = G.shape
    if budget.warm_start is not None and index == 0:
        try:
            Q0 = np.ascontiguousarray(np.array(budget.warm_start, dtype=np.complex128))
        except (TypeError, ValueError):
            raise InvalidInputError(f"warm start must be {m} numeric {n}x{n} matrices") from None
        if Q0.shape != (m, n, n):
            raise InvalidInputError(f"warm start must have shape {(m, n, n)}, got {Q0.shape}")
        if not np.isfinite(Q0).all():
            raise InvalidInputError("warm start must have finite entries")
    else:
        Q0 = _random_start(budget.seed, index, m, n)
    stop_tol = budget.residual_tol * 1e-4
    Q, residual, _ = gn_numpy.run(G, Q0, multiplicative, budget.iters, stop_tol)
    if not np.isfinite(residual):
        return Q, np.inf
    conds = [float(np.linalg.cond(Q[j])) for j in range(m)]
    return Q, max(conds)


def realize(specs: Sequence[ClassSpec], budget: SearchBudget = SearchBudget()):
    """Search for a certified realization; None when the budget is exhausted.

    Certification recomputes the residual and all certificates independently
    of the Gauss-Newton kernel.  Restarts run in index order, each seeded by
    (seed, restart_index); the first certified restart is returned.  A
    restart whose conjugators are numerically singular is never certified
    and counts as above the condition cap.

    Raises InvalidInputError above the size caps or for a warm start of the
    wrong shape (ragged included) or with non-numeric or non-finite entries,
    and IllConditionedError when every restart ends above the condition cap.
    """
    specs = _assignment(specs)
    multiplicative = specs.mode == "multiplicative"
    n = specs.n
    m = len(specs)
    if n > MAX_SIZE:
        raise InvalidInputError(f"numerical search capped at size {MAX_SIZE}")
    if m > MAX_ENTRIES:
        raise InvalidInputError(f"numerical search capped at {MAX_ENTRIES} classes")
    G = np.array([jordan_matrix(s) for s in specs])

    all_over_cap = True
    for index in range(budget.restarts):
        Q, cond_max = _run_restart(G, multiplicative, budget, index)
        if cond_max == np.inf:
            continue
        if cond_max <= numeric.COND_CAP:
            all_over_cap = False
        A, residual = _residual_of(G, Q, multiplicative)
        # the residual is cheap; membership runs eigenvalue and rank SVDs
        if not residual < budget.residual_tol:
            continue
        membership = all(class_membership(A[j], specs[j]) for j in range(m))
        if not membership:
            continue
        bdim = burnside_dim(list(A))
        nullity = centralizer_nullity(list(A))
        if bdim == n * n:
            assert nullity == 1, "irreducible tuple must have a trivial centralizer"
        return RealizationResult(
            conjugators=tuple(Q[j].copy() for j in range(m)),
            matrices=tuple(A[j].copy() for j in range(m)),
            residual=residual,
            burnside_dim=bdim,
            centralizer_nullity=nullity,
            class_membership_ok=membership,
            certified=True,
            restart_index=index,
            backend=backend_name(),
        )
    if all_over_cap:
        raise IllConditionedError(
            "every restart ended with conjugators above the condition cap"
        )
    return None
