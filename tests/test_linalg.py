"""Tests for the dense linear-algebra primitives."""

import numpy as np
import pytest

from hbs.errors import ConfigurationError, DimensionError, IllConditionedProbeError, NonFiniteError
from hbs.flops import count_madds, svdvals_madds
from hbs.linalg import col, gaussian_matrix, lstsq_right, nullspace, power_method_relnorm

# Frozen regression values for the committed generator (seed 7, stream 0).
FROZEN_GAUSS_MEAN = -0.01581890868143026
FROZEN_GAUSS_VAR = 0.9942184780399852


class TestGaussianMatrix:
    def test_deterministic_under_seed(self):
        a = gaussian_matrix(3, 2, seed=7, stream=0)
        b = gaussian_matrix(3, 2, seed=7, stream=0)
        assert np.array_equal(a, b)

    def test_streams_decorrelate(self):
        a = gaussian_matrix(3, 2, seed=7, stream=0)
        b = gaussian_matrix(3, 2, seed=7, stream=1)
        assert not np.array_equal(a, b)

    def test_sample_statistics(self):
        g = gaussian_matrix(10000, 1, seed=7, stream=0)
        mean = g.mean()
        var = g.var(ddof=1)
        assert -0.05 <= mean <= 0.05
        assert 0.9 <= var <= 1.1
        np.testing.assert_allclose(mean, FROZEN_GAUSS_MEAN, rtol=1e-12)
        np.testing.assert_allclose(var, FROZEN_GAUSS_VAR, rtol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            gaussian_matrix(0, 3, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            gaussian_matrix(3, 2, seed=-1)


class TestCol:
    def test_identity_input(self):
        q = col(np.eye(3), 2)
        assert q.shape == (3, 2)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-13 * 2)
        # spans span(e1, e2): projecting e1, e2 onto range(q) is lossless
        for j in range(2):
            e = np.zeros(3)
            e[j] = 1.0
            assert np.linalg.norm(e - q @ (q.T @ e)) <= 1e-13

    def test_rank_one_span(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        q = col(np.column_stack((u, 2.0 * u)), 1)
        assert np.linalg.norm(u - q @ (q.T @ u)) <= 1e-13

    def test_matches_full_qr_range(self):
        rng = np.random.default_rng(42)
        b = rng.standard_normal((50, 10))
        q = col(b, 10)
        # independent oracle: reduced QR captures the whole column space
        q_oracle, _ = np.linalg.qr(b)
        scale = np.linalg.norm(b)
        assert np.linalg.norm(b - q_oracle @ (q_oracle.T @ b)) <= 1e-13 * scale
        assert np.linalg.norm(b - q @ (q.T @ b)) <= 1e-13 * scale

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(9)
        for rows, cols, k in ((5, 5, 3), (40, 12, 12), (8, 3, 1)):
            q = col(rng.standard_normal((rows, cols)), k)
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12

    def test_rejects_oversized_rank(self):
        with pytest.raises(DimensionError):
            col(np.eye(3), 4)

    def test_non_finite_input_raises_typed_error(self):
        b = np.ones((4, 2))
        b[1, 0] = np.nan
        with pytest.raises(NonFiniteError):
            col(b, 2)

    def test_huge_finite_input_is_orthonormalized(self):
        # entries near 1e301: the input is finite, so no norm of it is taken
        q = col(2.0**1000 * gaussian_matrix(20, 5, seed=3), 5)
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-12


class TestNullspace:
    def test_coordinate_nullspace(self):
        b = np.array([[1.0, 0.0, 0.0]])
        z = nullspace(b, 2).null
        np.testing.assert_allclose(b @ z, 0.0, atol=1e-14)
        np.testing.assert_allclose(z.T @ z, np.eye(2), atol=1e-13)

    def test_gaussian_residual(self):
        b = gaussian_matrix(5, 15, seed=3)
        z = nullspace(b, 10).null
        assert np.linalg.norm(b @ z) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(z.T @ z - np.eye(10)) <= 1e-12

    def test_zero_matrix(self):
        z = nullspace(np.zeros((2, 4)), 2).null
        assert z.shape == (4, 2)
        np.testing.assert_allclose(z.T @ z, np.eye(2), atol=1e-14)
        assert np.linalg.norm(np.zeros((2, 4)) @ z) == 0.0

    def test_residual_invariant_many_shapes(self):
        rng = np.random.default_rng(17)
        for rows, cols, k in ((3, 9, 4), (30, 90, 30), (60, 90, 30), (1, 2, 1)):
            b = rng.standard_normal((rows, cols))
            z = nullspace(b, k).null
            assert np.linalg.norm(b @ z) <= 1e-12 * max(1.0, np.linalg.norm(b))
            assert np.linalg.norm(z.T @ z - np.eye(k)) <= 1e-12

    def test_rejects_excess_nullity(self):
        with pytest.raises(DimensionError):
            nullspace(np.zeros((4, 6)), 3)


class TestLstsqRight:
    def test_self_solve(self):
        m = np.zeros((2, 4))
        m[0, 0] = 2.0
        m[1, 1] = 2.0
        x = lstsq_right(m, m)
        np.testing.assert_allclose(x, np.eye(2), atol=1e-14)

    def test_planted_solution(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((4, 12))
        c = rng.standard_normal((3, 4))
        x = lstsq_right(c @ m, m)
        assert np.linalg.norm(x - c) <= 1e-12 * np.linalg.norm(c)

    def test_zero_rhs(self):
        m = gaussian_matrix(3, 9, seed=2)
        x = lstsq_right(np.zeros((5, 9)), m)
        np.testing.assert_allclose(x, 0.0, atol=1e-15)

    def test_residual_optimality(self):
        # no unit perturbation direction can beat the minimizer
        rng = np.random.default_rng(31)
        m = rng.standard_normal((4, 10))
        b = rng.standard_normal((6, 10))
        x = lstsq_right(b, m)
        base = np.linalg.norm(x @ m - b)
        for _ in range(10):
            delta = rng.standard_normal(x.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert np.linalg.norm((x + delta) @ m - b) >= base - 1e-9

    def test_rank_deficient_raises(self):
        m = np.vstack((np.ones(8), np.ones(8)))  # two identical rows
        with pytest.raises(IllConditionedProbeError):
            lstsq_right(np.ones((3, 8)), m)

    def test_rejects_tall_probe(self):
        with pytest.raises(DimensionError):
            lstsq_right(np.ones((3, 2)), np.ones((4, 2)))

    def test_rejects_column_mismatch(self):
        with pytest.raises(DimensionError, match="column mismatch: B has 8, M is 2 x 9"):
            lstsq_right(np.ones((3, 8)), gaussian_matrix(2, 9, seed=5))

    def test_non_finite_probe_raises_typed_error(self):
        for bad in (np.nan, np.inf):
            m = gaussian_matrix(3, 9, seed=4)
            m[1, 5] = bad
            with pytest.raises(NonFiniteError):
                lstsq_right(np.ones((2, 9)), m)

    def test_scaled_probe_scales_solve(self):
        # ||R1||_F of a probe near 1e180 overflows a plain sum of squares;
        # a power-of-two scale of M scales M^+ exactly
        m = gaussian_matrix(3, 9, seed=5)
        b = gaussian_matrix(2, 9, seed=6)
        for e in (600, -600):
            assert np.array_equal(lstsq_right(b, 2.0**e * m), 2.0**-e * lstsq_right(b, m))

    def test_screen_defers_to_exact_ratio(self):
        # half the singular values at 1, half at 2e-10: the Frobenius bound
        # 1 / (||R1||_F ||R1^-1||_F) = 6.25e-12 cannot certify R1, but the
        # exact ratio 2e-10 clears the 1e-10 tolerance, so the solve runs
        rng = np.random.default_rng(60)
        rows, cols, ratio = 64, 96, 2e-10
        sig = np.r_[np.ones(rows // 2), np.full(rows // 2, ratio)]
        u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
        m = (u * sig) @ v.T
        b = rng.standard_normal((5, cols))
        with count_madds() as doubtful:
            x = lstsq_right(b, m)
        with count_madds() as certified:
            lstsq_right(b, gaussian_matrix(rows, cols, seed=61))
        # only the entry the screen cannot certify pays for an SVD
        assert doubtful.madds - certified.madds == svdvals_madds(rows)
        ref = np.linalg.lstsq(m.T, b.T, rcond=None)[0].T
        # agreement within the roundoff bound scaled by the condition number
        eps = np.finfo(float).eps
        assert np.linalg.norm(x - ref) <= 100 * eps / ratio * np.linalg.norm(ref)

    def test_repeat_solves_are_identical(self):
        rng = np.random.default_rng(62)
        qr = nullspace(rng.standard_normal((4, 6, 15)), 5)
        before = [a.copy() for a in qr]
        rhs = rng.standard_normal((4, 5, 15))
        assert np.array_equal(lstsq_right(rhs, qr), lstsq_right(rhs, qr))
        assert all(np.array_equal(a, b) for a, b in zip(qr, before))


class TestStacks:
    """A (b, rows, cols) stack is handled as b separate calls."""

    def test_bitwise_equal_to_per_matrix_calls(self):
        rng = np.random.default_rng(50)
        wide = rng.standard_normal((4, 6, 15))
        tall = rng.standard_normal((4, 15, 6))
        rhs = rng.standard_normal((4, 5, 15))
        with count_madds() as stacked:
            qr, q = nullspace(wide, 5), col(tall, 6)
            x, x_qr = lstsq_right(rhs, wide), lstsq_right(rhs, qr)
        with count_madds() as single:
            for j in range(4):
                qr_j = nullspace(wide[j], 5)
                assert np.array_equal(qr.null[j], qr_j.null)
                assert np.array_equal(q[j], col(tall[j], 6))
                assert np.array_equal(x[j], lstsq_right(rhs[j], wide[j]))
                assert np.array_equal(x_qr[j], lstsq_right(rhs[j], qr_j))
        assert stacked.madds == single.madds
        # the nullspace factor solves exactly as a fresh factorization does
        assert np.array_equal(x_qr, x)

    def test_rank_deficient_entry_is_reported(self):
        rng = np.random.default_rng(51)
        m = rng.standard_normal((5, 3, 9))
        m[3, 1] = m[3, 0]
        with pytest.raises(IllConditionedProbeError) as excinfo:
            lstsq_right(rng.standard_normal((5, 4, 9)), m)
        assert excinfo.value.index == 3

    def test_exactly_singular_entry_is_reported(self):
        # a zero row gives R1 an exact zero on its diagonal, which the
        # triangular inverse reports instead of inverting
        rng = np.random.default_rng(52)
        m = rng.standard_normal((5, 3, 9))
        m[2, 1] = 0.0
        qr = nullspace(m, 2)
        assert np.all(np.isinf(qr.r1_inv[2]))
        with pytest.raises(IllConditionedProbeError) as excinfo:
            lstsq_right(rng.standard_normal((5, 4, 9)), qr)
        assert excinfo.value.index == 2

    def test_rank_deficient_factor_is_reported(self):
        # the nullspace step factors without judging rank; the solve checks
        rng = np.random.default_rng(51)
        m = rng.standard_normal((5, 3, 9))
        m[3, 1] = m[3, 0]
        qr = nullspace(m, 2)
        with pytest.raises(IllConditionedProbeError) as excinfo:
            lstsq_right(rng.standard_normal((5, 4, 9)), qr)
        assert excinfo.value.index == 3


class TestPowerMethodRelnorm:
    def test_zero_error_operator(self):
        n = 16
        zero = lambda x: np.zeros_like(x)
        ident = lambda x: x
        assert power_method_relnorm(zero, zero, ident, ident, n, iters=20, seed=0) == 0.0

    def test_dominant_diagonal(self):
        n = 8
        d = np.ones(n)
        d[0] = 3.0
        op = lambda x: d[:, None] * x
        ident = lambda x: x
        est = power_method_relnorm(op, op, ident, ident, n, iters=50, seed=0)
        assert 2.999 <= est <= 3.001

    def test_identical_operators_give_one(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((32, 32))
        op = lambda x: a @ x
        op_t = lambda x: a.T @ x
        est = power_method_relnorm(op, op_t, op, op_t, 32, iters=20, seed=4)
        assert 0.9 <= est <= 1.0

    def test_estimate_is_lower_bound(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            a = rng.standard_normal((24, 24))
            true = np.linalg.norm(a, 2)
            op = lambda x: a @ x
            op_t = lambda x: a.T @ x
            ident = lambda x: x
            est = power_method_relnorm(op, op_t, ident, ident, 24, iters=20, seed=seed)
            assert est <= true * (1.0 + 1e-12)

    def test_rejects_zero_iterations(self):
        # the same error and text as `run_once` and `hbs verify` give
        ident = lambda x: x
        with pytest.raises(ConfigurationError, match="power iterations must be positive, got 0"):
            power_method_relnorm(ident, ident, ident, ident, 4, iters=0)
