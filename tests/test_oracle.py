"""Numerical realization search, its Gauss-Newton kernel and its
certificates."""

import re

import numpy as np
import pytest

from dspkit.enumerate import all_jnfs
from dspkit.errors import IllConditionedError, InvalidInputError
from dspkit.genericity import ClassSpec, sample_generic
from dspkit.jnf import Jnf, JnfTuple, Partition
from dspkit.oracle import (
    SearchBudget,
    gn_numpy,
    numeric,
    burnside_dim,
    centralizer_nullity,
    class_membership,
    jordan_matrix,
    realize,
)
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar
from oracles import jordan_matrix_exact, kron_jacobian, normal_equations_step


def strata_specs():
    pairs = [(1, -2), (2, 4), (-3, -2)]
    return [
        ClassSpec(
            [(Partition([1]), AdditiveScalar(a)), (Partition([1]), AdditiveScalar(b))],
            "additive",
        )
        for a, b in pairs
    ]


S1_WARM = (
    np.eye(2, dtype=complex),
    np.array([[1, 1], [2, 0]], dtype=complex),
    np.array([[1, 1], [-1, 0]], dtype=complex),
)
SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
S0_WARM = (np.eye(2, dtype=complex), SWAP, SWAP)


class TestJordanMatrix:
    def test_blocks_and_eigenvalues(self):
        spec = ClassSpec(
            [(Partition([2, 1]), AdditiveScalar(5))],
            "additive",
        )
        G = jordan_matrix(spec)
        expected = np.array([[5, 1, 0], [0, 5, 0], [0, 0, 5]], dtype=complex)
        assert np.array_equal(G, expected)

    def test_every_small_jnf_matches_exact_and_is_a_member(self):
        """Superdiagonal ones sit where the JNF's blocks are, checked against
        the exact Jordan matrix for every JNF with n <= 6."""
        for n in range(1, 7):
            for jnf in all_jnfs(n):
                evs = [AdditiveScalar(7 + 2 * i) for i in range(jnf.num_slots)]
                spec = ClassSpec(list(zip(jnf.slots, evs)), "additive")
                assert spec.jnf == jnf
                # the spec orders equal slots by eigenvalue, so read it back
                exact = jordan_matrix_exact(spec.jnf, [e.re for e in spec.eigenvalues])
                G = jordan_matrix(spec)
                assert np.array_equal(G, np.array(exact, dtype=float)), jnf
                assert class_membership(G, spec), jnf

    def test_multiplicative_values(self):
        spec = ClassSpec(
            [(Partition([1]), MultiplicativeScalar(1, 0)),
             (Partition([1]), MultiplicativeScalar(1, 0.5))],
            "multiplicative",
        )
        G = jordan_matrix(spec)
        assert sorted(np.diag(G).real.tolist()) == [-1.0, 1.0]


class TestCertificates:
    def test_burnside_commuting_diagonal(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([3.0, 5.0]).astype(complex)
        assert burnside_dim([a, b]) == 2

    def test_burnside_identity_singleton(self):
        assert burnside_dim([np.eye(3, dtype=complex)]) == 1

    def test_burnside_full(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        b = np.array([[0, 0], [1, 0]], dtype=complex)
        assert burnside_dim([a, b]) == 4

    def test_centralizer_scalar(self):
        assert centralizer_nullity([2.0 * np.eye(3, dtype=complex)]) == 9

    def test_centralizer_s1(self):
        A1 = np.diag([1.0, -2.0]).astype(complex)
        A2 = np.array([[2, 1], [0, 4]], dtype=complex)
        A3 = np.array([[-3, -1], [0, -2]], dtype=complex)
        assert centralizer_nullity([A1, A2, A3]) == 1
        assert burnside_dim([A1, A2, A3]) == 3

    def test_centralizer_s0(self):
        A1 = np.diag([1.0, -2.0]).astype(complex)
        A2 = np.diag([2.0, 4.0]).astype(complex)
        A3 = np.diag([-3.0, -2.0]).astype(complex)
        assert centralizer_nullity([A1, A2, A3]) == 2

    def test_membership_conjugation_invariance(self):
        spec = ClassSpec([(Partition([2, 1]), AdditiveScalar(2))], "additive")
        G = jordan_matrix(spec)
        rng = np.random.default_rng(1)
        Q = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        A = Q @ G @ np.linalg.inv(Q)
        assert class_membership(A, spec)

    def test_membership_detects_wrong_block_structure(self):
        spec = ClassSpec([(Partition([2]), AdditiveScalar(2))], "additive")
        diagonalizable = 2.0 * np.eye(2, dtype=complex)
        assert not class_membership(diagonalizable, spec)

    def test_membership_identity_vs_distinct(self):
        spec = ClassSpec(
            [(Partition([1]), AdditiveScalar(0)), (Partition([1]), AdditiveScalar(1))],
            "additive",
        )
        assert not class_membership(np.eye(2, dtype=complex), spec)

    def test_block_matching_tolerance_follows_condition_cap(self, monkeypatch):
        # eigenvalues +-sqrt(1.5e-12) ~ 1.2e-6 split the size-2 block at 0:
        # within 10 * sqrt(eps * COND_CAP) ~ 1.5e-5, beyond the EIG_TOL floor
        spec = ClassSpec([(Partition([2]), AdditiveScalar(0))], "additive")
        A = np.array([[0, 1], [1.5e-12, 0]], dtype=complex)
        assert class_membership(A, spec)
        monkeypatch.setattr(numeric, "COND_CAP", 1.0)
        assert not class_membership(A, spec)


class TestRealize:
    def test_s1_warm_start(self):
        res = realize(strata_specs(), SearchBudget(restarts=1, warm_start=S1_WARM))
        assert res is not None and res.certified
        assert res.residual < 1e-12
        assert res.centralizer_nullity == 1
        assert res.burnside_dim < 4
        assert not res.irreducible

    def test_s0_warm_start(self):
        res = realize(strata_specs(), SearchBudget(restarts=1, warm_start=S0_WARM))
        assert res is not None and res.certified
        assert res.residual < 1e-12
        assert res.centralizer_nullity == 2

    def test_hypergeometric_certified_irreducible(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "additive", seed=7)
        res = realize(specs, SearchBudget(restarts=20, iters=150, seed=3))
        assert res is not None and res.certified
        assert res.burnside_dim == 4
        assert res.centralizer_nullity == 1
        assert res.class_membership_ok
        assert res.backend == "numpy"

    def test_hypergeometric_n3_full_algebra(self):
        tup = JnfTuple([Jnf([[1, 1], [1]]), Jnf([[1], [1], [1]]), Jnf([[1], [1], [1]])])
        specs = sample_generic(tup, "additive", seed=13)
        res = realize(specs, SearchBudget(restarts=30, iters=200, seed=4))
        assert res is not None and res.certified
        assert res.burnside_dim == 9
        assert res.centralizer_nullity == 1

    def test_multiplicative_n3_certified_irreducible(self):
        tup = JnfTuple([Jnf([[1, 1], [1]]), Jnf([[1], [1], [1]]), Jnf([[1], [1], [1]])])
        specs = sample_generic(tup, "multiplicative", seed=21)
        res = realize(specs, SearchBudget(restarts=12, iters=200, seed=6))
        assert res is not None and res.certified
        assert res.burnside_dim == 9
        assert res.centralizer_nullity == 1

    def test_trace_sum_consistency(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "additive", seed=7)
        res = realize(specs, SearchBudget(restarts=20, iters=150, seed=3))
        total_trace = sum(np.trace(m) for m in res.matrices)
        assert abs(total_trace) < 1e-10

    def test_multiplicative_det_product(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "multiplicative", seed=5)
        res = realize(specs, SearchBudget(restarts=30, iters=200, seed=1))
        assert res is not None and res.certified
        det_product = np.prod([np.linalg.det(m) for m in res.matrices])
        assert abs(det_product - 1) < 1e-8

    def test_pair_returns_none(self):
        specs = [
            ClassSpec([(Partition([1]), AdditiveScalar(1)), (Partition([1]), AdditiveScalar(2))], "additive"),
            ClassSpec([(Partition([1]), AdditiveScalar(-3)), (Partition([1]), AdditiveScalar(0))], "additive"),
        ]
        res = realize(specs, SearchBudget(restarts=5, iters=60, seed=0))
        assert res is None

    def test_determinism(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "additive", seed=7)
        budget = SearchBudget(restarts=8, iters=120, seed=42)
        res1 = realize(specs, budget)
        res2 = realize(specs, budget)
        assert res1.restart_index == res2.restart_index
        assert res1.residual == res2.residual
        for a, b in zip(res1.matrices, res2.matrices):
            assert np.array_equal(a, b)

    def test_size_caps(self):
        big = [
            ClassSpec([(Partition([1] * 9), AdditiveScalar(j))], "additive")
            for j in (-1, 0, 1)
        ]
        with pytest.raises(InvalidInputError):
            realize(big)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("restarts", 0, "restarts must be at least 1, got 0"),
            ("iters", 0, "iters must be at least 1, got 0"),
            ("residual_tol", float("nan"), "residual_tol must be positive, got nan"),
            ("jobs", -5, "jobs must be at least 1, got -5"),
            ("seed", -1, "seed must be in [0, 2**32), got -1"),
            ("seed", 2**32, f"seed must be in [0, 2**32), got {2**32}"),
            ("restarts", 2.5, "restarts must be an integer, got 2.5"),
            ("restarts", "3", "restarts must be an integer, got '3'"),
            ("restarts", True, "restarts must be an integer, got True"),
            ("iters", None, "iters must be an integer, got None"),
            ("jobs", 1.0, "jobs must be an integer, got 1.0"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", False, "seed must be an integer, got False"),
            ("residual_tol", True, "residual_tol must be a real number, got True"),
            ("residual_tol", "1e-8", "residual_tol must be a real number, got '1e-8'"),
            ("residual_tol", 1j, "residual_tol must be a real number, got 1j"),
        ],
    )
    def test_budget_with_which_nothing_runs_rejected(self, field, value, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SearchBudget(**{field: value})

    def test_numpy_integers_accepted(self):
        plain = realize(strata_specs(), SearchBudget(restarts=2, iters=60, seed=3))
        numpy_ints = SearchBudget(restarts=np.int64(2), iters=np.int32(60), seed=np.uint32(3))
        res = realize(strata_specs(), numpy_ints)
        assert res.restart_index == plain.restart_index
        for a, b in zip(res.matrices, plain.matrices):
            assert np.array_equal(a, b)

    def test_unreachable_condition_cap(self, monkeypatch):
        """No matrix has a condition number below 1, so under a cap of 0.9
        the first restart cannot draw its start."""
        specs = strata_specs()
        monkeypatch.setattr(numeric, "COND_CAP", 0.9)
        with pytest.raises(IllConditionedError, match="^could not draw a well-conditioned start$"):
            realize(specs, SearchBudget(restarts=2, iters=5))

    def test_condition_cap_bounds_the_final_conjugators(self, monkeypatch):
        """A warm start draws no random start.  From this one a single
        iteration ends uncertified with conjugators of condition about 3:
        under the cap that is a failed search, above it an ill-conditioned one."""
        warm = (np.eye(2, dtype=complex), S1_WARM[1], np.array([[2, 1], [1, 1]], dtype=complex))
        budget = SearchBudget(restarts=1, iters=1, warm_start=warm)
        assert realize(strata_specs(), budget) is None
        monkeypatch.setattr(numeric, "COND_CAP", 0.9)
        message = "^every restart ended with conjugators above the condition cap$"
        with pytest.raises(IllConditionedError, match=message):
            realize(strata_specs(), budget)

    def test_parallel_restart_merge_matches_serial(self):
        tup = JnfTuple([Jnf([[1], [1]])] * 3)
        specs = sample_generic(tup, "additive", seed=7)
        serial = realize(specs, SearchBudget(restarts=8, iters=120, seed=42, jobs=1))
        parallel = realize(specs, SearchBudget(restarts=8, iters=120, seed=42, jobs=4))
        assert serial.restart_index == parallel.restart_index
        for a, b in zip(serial.matrices, parallel.matrices):
            assert np.array_equal(a, b)


def _random_problem(rng, m, n):
    G = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    Q = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    return G, Q


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestKernelAgainstDenseReference:
    """The broadcast Jacobian and the push-through ridge step against the
    np.kron Jacobian and the dense normal equations."""

    @pytest.mark.parametrize("multiplicative", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_jacobian_and_step(self, multiplicative, m):
        rng = np.random.default_rng(100 * m + multiplicative)
        lam = gn_numpy._LAMBDA_INIT
        for n in range(2, 9):
            G, Q = _random_problem(rng, m, n)
            A, inv, F = gn_numpy._forward(G, Q, multiplicative)
            J = gn_numpy._jacobian(G, inv, A, multiplicative)
            J_ref = kron_jacobian(G, Q, inv, A, multiplicative)
            assert _relative(J, J_ref) < 1e-12, (m, n)
            M, scale = gn_numpy._gram(J)
            step = gn_numpy._step(J, M, F.reshape(-1), lam * scale)
            assert _relative(step, normal_equations_step(J_ref, F, lam)) < 1e-9, (m, n)

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_singular_or_non_finite_start(self, fill, multiplicative):
        G, _ = _random_problem(np.random.default_rng(3), 3, 3)
        Q0 = np.eye(3) * np.ones((3, 1, 1), dtype=complex)
        Q0[1] = fill
        Q, residual, used = gn_numpy.run(G, Q0, multiplicative, 10, 0.0)
        assert (residual, used) == (np.inf, 0)
        assert np.array_equal(Q, Q0, equal_nan=True)


class TestWarmStartRejects:
    def test_zero_warm_start_counts_above_cap(self):
        zero = (np.zeros((2, 2), dtype=complex),) * 3
        with pytest.raises(IllConditionedError):
            realize(strata_specs(), SearchBudget(restarts=1, warm_start=zero))

    def test_zero_warm_start_skipped(self):
        zero = (np.zeros((2, 2), dtype=complex),) * 3
        res = realize(strata_specs(), SearchBudget(restarts=2, iters=60, warm_start=zero))
        assert res is not None and res.certified
        assert res.restart_index == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_warm_start_rejected(self, bad):
        warm = (np.full((2, 2), bad, dtype=complex),) + S1_WARM[1:]
        with pytest.raises(InvalidInputError, match="^warm start must have finite entries$"):
            realize(strata_specs(), SearchBudget(restarts=2, warm_start=warm))
