"""Tests for the dense linear-algebra primitives."""

import sys

import numpy as np
import pytest
from conftest import dense_factorization

from hbs import linalg
from hbs.bench import estimate_rel_err
from hbs.errors import ConfigurationError, DimensionError, IllConditionedProbeError, NonFiniteError
from hbs.flops import add_madds, count_madds, matmul, svd_madds
from hbs.linalg import (
    L2_FLOATS,
    STREAM_NULL,
    blocks,
    col,
    gaussian_matrix,
    lstsq_right,
    nullspace,
    seeded_rng,
)
from hbs.operators import dense_oracle

# Frozen regression values for the committed generator (seed 7, stream 0).
FROZEN_GAUSS_MEAN = -0.01581890868143026
FROZEN_GAUSS_VAR = 0.9942184780399852


def test_matmul_counts_each_product_of_a_broadcast_stack():
    a, b = np.ones((3, 1, 4, 5)), np.ones((2, 5, 6))
    with count_madds() as counter:
        c = matmul(a, b)
    np.testing.assert_array_equal(c, np.matmul(a, b))
    assert counter.madds == 3 * 2 * (4 * 5 * 6)


class TestBlocks:
    """`blocks` tiles range(count) in order with L2-sized slices."""

    @staticmethod
    def spans(count, width):
        return [(part.start, part.stop) for part in blocks(count, width)]

    @pytest.mark.parametrize("count", [1, 7, 3 * L2_FLOATS + 5])
    @pytest.mark.parametrize("width", [0, 3, 100, L2_FLOATS + 1])
    def test_slices_tile_the_range_in_order(self, count, width):
        parts = list(blocks(count, width))
        assert parts[0].start == 0 and parts[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        assert all(0 < part.stop - part.start <= max(1, L2_FLOATS // max(1, width))
                   for part in parts)
        assert all(part.step is None for part in parts)

    def test_no_items_give_no_slices(self):
        assert self.spans(0, 10) == [] and self.spans(0, 0) == []

    def test_zero_width_takes_l2_floats_items(self):
        # rank-0 stacks or no columns: items of no floats
        assert self.spans(5, 0) == [(0, 5)]
        assert self.spans(L2_FLOATS + 1, 0) == [(0, L2_FLOATS), (L2_FLOATS, L2_FLOATS + 1)]

    def test_items_wider_than_l2_go_one_by_one(self):
        assert self.spans(3, L2_FLOATS + 1) == [(0, 1), (1, 2), (2, 3)]
        assert self.spans(3, 10 * L2_FLOATS) == [(0, 1), (1, 2), (2, 3)]

    def test_last_slice_is_ragged(self):
        width = L2_FLOATS // 4  # four items a slice
        assert self.spans(10, width) == [(0, 4), (4, 8), (8, 10)]
        assert self.spans(8, width) == [(0, 4), (4, 8)]


class TestMapBlocks:
    """`map_blocks` runs a function on each of `blocks`, on WORKERS threads."""

    def test_results_come_back_in_block_order(self, monkeypatch):
        monkeypatch.setattr(linalg, "L2_FLOATS", 3)
        monkeypatch.setattr(linalg, "WORKERS", 2)
        assert linalg.map_blocks(lambda b: (b.start, b.stop), 7, 1) == [(0, 3), (3, 6), (6, 7)]
        assert linalg.map_blocks(lambda b: b, 0, 1) == []

    def test_madds_from_many_threads_add_up(self, monkeypatch):
        # more workers than cores, switching threads as often as possible: an
        # unlocked `counter.madds += n` would lose updates
        monkeypatch.setattr(linalg, "L2_FLOATS", 1)
        monkeypatch.setattr(linalg, "WORKERS", 8)

        def add(part):
            for _ in range(10000):
                add_madds(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with count_madds() as counter:
                linalg.map_blocks(add, 32, 1)
        finally:
            sys.setswitchinterval(interval)
        assert counter.madds == 32 * 10000


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
            gaussian_matrix(0, 3, seed=1, stream=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            gaussian_matrix(3, 2, seed=-1, stream=0)


class TestCol:
    def test_float32_input_gives_its_upcasts_basis(self):
        b = np.random.default_rng(41).standard_normal((12, 4)).astype(np.float32)
        q = col(b)
        assert q.dtype == np.float64
        assert np.array_equal(q, col(b.astype(np.float64)))

    def test_identity_input(self):
        q = col(np.eye(3)[:, :2])
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
        q = col(np.column_stack((u, 2.0 * u))[:, :1])
        assert np.linalg.norm(u - q @ (q.T @ u)) <= 1e-13

    def test_matches_full_qr_range(self):
        rng = np.random.default_rng(42)
        b = rng.standard_normal((50, 10))
        q = col(b)
        # independent oracle: reduced QR captures the whole column space
        q_oracle, _ = np.linalg.qr(b)
        scale = np.linalg.norm(b)
        assert np.linalg.norm(b - q_oracle @ (q_oracle.T @ b)) <= 1e-13 * scale
        assert np.linalg.norm(b - q @ (q.T @ b)) <= 1e-13 * scale

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(9)
        for rows, cols, k in ((5, 5, 3), (40, 12, 12), (8, 3, 1)):
            q = col(rng.standard_normal((rows, cols))[:, :k])
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12

    def test_rejects_oversized_rank(self):
        with pytest.raises(DimensionError, match="cannot extract 4 basis columns from a 3 x 4"):
            col(np.eye(3, 4))

    def test_non_finite_input_raises_typed_error(self):
        b = np.ones((4, 2))
        b[1, 0] = np.nan
        with pytest.raises(NonFiniteError):
            col(b)

    def test_huge_finite_input_is_orthonormalized(self):
        # entries near 1e301: the input is finite, so no norm of it is taken
        q = col(2.0**1000 * gaussian_matrix(20, 5, seed=3, stream=0))
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-12

    def test_finite_input_near_overflow_gives_finite_columns(self):
        # column norms past the float64 range overflow an unscaled QR without
        # a floating-point flag; col scales each entry by a power of two first
        rng = np.random.default_rng(0)
        b = 8.6e307 * rng.uniform(0.9, 1.0, (8, 4)) * rng.choice([-1.0, 1.0], (8, 4))
        with np.errstate(all="raise"):
            q = col(b)
        assert np.isfinite(q).all()
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e-3, 3.7, 1e200])
    def test_scaling_leaves_householder_bits_alone(self, scale):
        # a power-of-two scale is exact in every Householder step, so the
        # guarded QR is bit for bit the unscaled one on in-range stacks
        b = scale * np.random.default_rng(3).standard_normal((6, 30, 15))
        assert np.array_equal(col(b), np.linalg.qr(b)[0])


def conditioned(seed, rows, cols, kappa):
    """A rows x cols matrix with singular values spread from 1 to 1/kappa."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
    return (u * np.geomspace(1.0, 1.0 / kappa, rows)) @ v.T


class TestNullspace:
    def test_coordinate_nullspace(self):
        b = np.array([[1.0, 0.0, 0.0]])
        z = nullspace(b, 2).null
        np.testing.assert_allclose(b @ z, 0.0, atol=1e-14)
        assert np.linalg.matrix_rank(z) == 2

    def test_gaussian_residual(self):
        b = gaussian_matrix(5, 15, seed=3, stream=0)
        z = nullspace(b, 10).null
        assert np.linalg.norm(b @ z) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.matrix_rank(z) == 10

    def test_zero_matrix(self):
        z = nullspace(np.zeros((2, 4)), 2).null
        assert z.shape == (4, 2)
        assert np.linalg.matrix_rank(z) == 2
        assert np.linalg.norm(np.zeros((2, 4)) @ z) == 0.0

    def test_residual_invariant_many_shapes(self):
        rng = np.random.default_rng(17)
        for rows, cols, k in ((3, 9, 4), (30, 90, 30), (60, 90, 30), (1, 2, 1)):
            b = rng.standard_normal((rows, cols))
            z = nullspace(b, k).null
            assert np.linalg.norm(b @ z) <= 1e-12 * max(1.0, np.linalg.norm(b))
            assert np.linalg.matrix_rank(z) == k

    def test_sketch_of_the_whole_nullspace_is_conditioned(self):
        # nullity == k: a Gaussian G gives N = Z (Z^T G) with a square Z^T G,
        # often ill conditioned; orthonormalizing it between the passes makes
        # the sketch orthonormal up to roundoff, also on entry 5, which is past
        # the Gram bound's reach and takes the thin SVD
        m = np.random.default_rng(18).standard_normal((64, 30, 45))
        m[5] = conditioned(17, 30, 45, 1e7)
        z = nullspace(m, 15).null
        sig = np.linalg.svd(z, compute_uv=False)
        assert np.abs(sig - 1.0).max() <= 1e-8
        assert np.linalg.norm(m @ z) <= 1e-12 * np.linalg.norm(m)

    def test_sketch_of_a_parent_level_stack_is_orthonormal(self):
        # 8192 entries of 30 x 45, the parent level's shape at n=131072 with
        # r=15: among that many square Gaussian factors some are conditioned
        # badly enough that one CholeskyQR step would leave kappa^2 eps behind;
        # the Gram bound hands those to the thin SVD
        m = np.random.default_rng(0).standard_normal((8192, 30, 45))
        sig = np.linalg.svd(nullspace(m, 15).null, compute_uv=False)
        assert np.abs(sig - 1.0).max() <= 1e-7

    def test_sketch_survives_a_test_column_in_the_row_space(self):
        # the first column of the fixed G lies in M's row space, so its
        # projection vanishes and the sketch's Gram matrix is nearly singular
        rows, cols, k = 6, 9, 3
        g = seeded_rng(0, STREAM_NULL).standard_normal((cols, k))
        m = np.vstack((g[:, 0], gaussian_matrix(rows - 1, cols, seed=19, stream=0)))
        z = nullspace(m, k).null
        assert np.isfinite(z).all()
        assert np.linalg.norm(m @ z) <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(z)

    def test_rejects_excess_nullity(self):
        with pytest.raises(DimensionError):
            nullspace(np.zeros((4, 6)), 3)

    def test_sketch_is_drawn_once_per_shape(self):
        # the sweep factors once per node range; every call shares one
        # read-only draw of the named stream
        g = linalg._sketch(9, 3)
        assert linalg._sketch(9, 3) is g
        assert np.array_equal(g, seeded_rng(0, STREAM_NULL).standard_normal((9, 3)))
        assert not g.flags.writeable


class TestLstsqRight:
    def test_float32_probe_solves_as_its_upcast(self):
        # LAPACK must see float64 whatever the probe's dtype: on a float32 entry
        # scipy's in-place triangular inverse writes into a float64 copy, which is lost
        rng = np.random.default_rng(42)
        m = rng.standard_normal((4, 12)).astype(np.float32)
        b = rng.standard_normal((3, 12))
        x = lstsq_right(b, nullspace(m, 2))
        assert np.array_equal(x, lstsq_right(b, nullspace(m.astype(np.float64), 2)))

    def test_self_solve(self):
        m = np.zeros((2, 4))
        m[0, 0] = 2.0
        m[1, 1] = 2.0
        x = lstsq_right(m, nullspace(m, 0))
        np.testing.assert_allclose(x, np.eye(2), atol=1e-14)

    def test_planted_solution(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((4, 12))
        c = rng.standard_normal((3, 4))
        x = lstsq_right(c @ m, nullspace(m, 0))
        assert np.linalg.norm(x - c) <= 1e-12 * np.linalg.norm(c)

    def test_zero_rhs(self):
        m = gaussian_matrix(3, 9, seed=2, stream=0)
        x = lstsq_right(np.zeros((5, 9)), nullspace(m, 0))
        np.testing.assert_allclose(x, 0.0, atol=1e-15)

    def test_residual_optimality(self):
        # no unit perturbation direction can beat the minimizer
        rng = np.random.default_rng(31)
        m = rng.standard_normal((4, 10))
        b = rng.standard_normal((6, 10))
        x = lstsq_right(b, nullspace(m, 0))
        base = np.linalg.norm(x @ m - b)
        for _ in range(10):
            delta = rng.standard_normal(x.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert np.linalg.norm((x + delta) @ m - b) >= base - 1e-9

    def test_rank_deficient_raises(self):
        m = np.vstack((np.ones(8), np.ones(8)))  # two identical rows
        with pytest.raises(IllConditionedProbeError):
            lstsq_right(np.ones((3, 8)), nullspace(m, 0))

    def test_rejects_tall_probe(self):
        with pytest.raises(DimensionError):
            lstsq_right(np.ones((3, 2)), nullspace(np.ones((4, 2)), 0))

    def test_rejects_column_mismatch(self):
        with pytest.raises(DimensionError, match="column mismatch: B has 8, M is 2 x 9"):
            lstsq_right(np.ones((3, 8)), nullspace(gaussian_matrix(2, 9, seed=5, stream=0), 0))

    def test_non_finite_probe_raises_typed_error(self):
        for bad in (np.nan, np.inf):
            m = gaussian_matrix(3, 9, seed=4, stream=0)
            m[1, 5] = bad
            with pytest.raises(NonFiniteError):
                lstsq_right(np.ones((2, 9)), nullspace(m, 0))

    def test_scaled_probe_scales_solve(self):
        # the Gram matrix of a probe near 1e180 overflows a plain product;
        # a power-of-two scale of M scales M^+ exactly
        m = gaussian_matrix(3, 9, seed=5, stream=0)
        b = gaussian_matrix(2, 9, seed=6, stream=0)
        x = lstsq_right(b, nullspace(m, 0))
        for e in (600, -600):
            assert np.array_equal(lstsq_right(b, nullspace(2.0**e * m, 0)), 2.0**-e * x)

    def test_screen_defers_to_exact_ratio(self):
        # half the singular values at 1, half at 2e-10: the Gram matrix cannot
        # certify M, but the thin SVD's exact ratio 2e-10 clears the 1e-10
        # tolerance, so the solve runs
        rng = np.random.default_rng(60)
        rows, cols, ratio = 64, 96, 2e-10
        sig = np.r_[np.ones(rows // 2), np.full(rows // 2, ratio)]
        u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
        m = (u * sig) @ v.T
        b = rng.standard_normal((5, cols))
        with count_madds() as doubtful:
            x = lstsq_right(b, nullspace(m, 0))
        with count_madds() as certified:
            lstsq_right(b, nullspace(gaussian_matrix(rows, cols, seed=61, stream=0), 0))
        # only the entry the Gram bound cannot certify pays for one thin SVD
        assert doubtful.madds - certified.madds == svd_madds(cols, rows)
        ref = np.linalg.lstsq(m.T, b.T, rcond=None)[0].T
        # agreement within the roundoff bound scaled by the condition number
        eps = np.finfo(float).eps
        assert np.linalg.norm(x - ref) <= 100 * eps / ratio * np.linalg.norm(ref)

    def test_repeat_solves_are_identical(self):
        rng = np.random.default_rng(62)
        factor = nullspace(rng.standard_normal((4, 6, 15)), 5)
        before = [a.copy() for a in factor]
        rhs = rng.standard_normal((4, 5, 15))
        assert np.array_equal(lstsq_right(rhs, factor), lstsq_right(rhs, factor))
        assert all(np.array_equal(a, b) for a, b in zip(factor, before))


class TestStacks:
    """A (b, rows, cols) stack is handled as b separate calls."""

    def test_bitwise_equal_to_per_matrix_calls(self):
        rng = np.random.default_rng(50)
        wide = rng.standard_normal((4, 6, 15))
        tall = rng.standard_normal((4, 15, 6))
        rhs = rng.standard_normal((4, 5, 15))
        with count_madds() as stacked:
            factor, q = nullspace(wide, 5), col(tall)
            x, x_null = lstsq_right(rhs, nullspace(wide, 0)), lstsq_right(rhs, factor)
        with count_madds() as single:
            for j in range(4):
                factor_j = nullspace(wide[j], 5)
                assert np.array_equal(factor.null[j], factor_j.null)
                assert np.array_equal(q[j], col(tall[j]))
                assert np.array_equal(x[j], lstsq_right(rhs[j], nullspace(wide[j], 0)))
                assert np.array_equal(x_null[j], lstsq_right(rhs[j], factor_j))
        assert stacked.madds == single.madds
        # the nullspace factor solves exactly as a fresh factorization does
        assert np.array_equal(x_null, x)

    def test_rank_deficient_entry_is_reported(self):
        rng = np.random.default_rng(51)
        m = rng.standard_normal((5, 3, 9))
        m[3, 1] = m[3, 0]
        with pytest.raises(IllConditionedProbeError) as excinfo:
            lstsq_right(rng.standard_normal((5, 4, 9)), nullspace(m, 0))
        assert excinfo.value.index == 3

    def test_exactly_singular_entry_is_reported(self):
        # a zero row fails that entry's Cholesky factor and gives its thin SVD
        # an exact zero singular value; its nullspace sketch still holds, and
        # the solve reports it
        rng = np.random.default_rng(52)
        m = rng.standard_normal((5, 3, 9))
        m[2, 1] = 0.0
        factor = nullspace(m, 2)
        assert np.linalg.norm(m[2] @ factor.null[2]) <= 1e-12 * np.linalg.norm(m[2])
        assert np.linalg.matrix_rank(factor.null[2]) == 2
        with pytest.raises(IllConditionedProbeError) as excinfo:
            lstsq_right(rng.standard_normal((5, 4, 9)), factor)
        assert excinfo.value.index == 2

    def test_rank_deficient_factor_is_reported(self):
        # the nullspace step factors without judging rank; the solve checks
        rng = np.random.default_rng(51)
        m = rng.standard_normal((5, 3, 9))
        m[3, 1] = m[3, 0]
        factor = nullspace(m, 2)
        with pytest.raises(IllConditionedProbeError) as excinfo:
            lstsq_right(rng.standard_normal((5, 4, 9)), factor)
        assert excinfo.value.index == 3

    def test_mixed_stack_factor_contract(self):
        # Gaussian, kappa ~1e7, exactly singular and zero entries in one
        # stack: every Q1 is orthonormal, and wherever the ratio clears the
        # tolerance, Q1 F is M's pseudoinverse to the roundoff kappa eps
        rows, cols, eps = 6, 20, np.finfo(float).eps
        m = np.random.default_rng(56).standard_normal((6, rows, cols))
        m[2] = conditioned(57, rows, cols, 1e7)
        m[3, 4] = m[3, 1]
        m[4] = 0.0
        factor = nullspace(m, 4)
        for j in range(6):
            q1 = factor.q1[j]
            assert np.linalg.norm(q1.T @ q1 - np.eye(rows)) <= 1e-12
            if factor.ratio[j] >= 1e-10:
                ref, kappa = np.linalg.pinv(m[j]), np.linalg.cond(m[j])
                err = np.linalg.norm(q1 @ factor.inv[j] - ref)
                assert err <= 100 * eps * kappa * np.linalg.norm(ref)
        assert [j for j in range(6) if factor.ratio[j] < 1e-10] == [3, 4]

    def test_hard_entries_fall_back_one_by_one(self):
        # an exactly singular entry, a zero entry, one at kappa ~1e7 (past the
        # Gram bound's reach) and one at kappa ~1e12 (past the tolerance) in
        # one stack: no LinAlgError escapes, each entry's nullspace sketch
        # holds, and the stack equals its per-matrix calls bit for bit
        rows, cols, k, eps = 4, 12, 3, np.finfo(float).eps
        rng = np.random.default_rng(53)
        m = rng.standard_normal((6, rows, cols))
        m[1, 2] = 0.0
        m[2] = 0.0
        m[3] = conditioned(54, rows, cols, 1e7)
        m[4] = conditioned(55, rows, cols, 1e12)
        rhs = rng.standard_normal((6, 5, cols))
        factor = nullspace(m, k)
        for j in range(6):
            single = nullspace(m[j], k)
            assert all(np.array_equal(a[j], b) for a, b in zip(factor[:3], single[:3]))
            assert factor.ratio[j] == single.ratio[0]
            z = factor.null[j]
            assert np.linalg.norm(m[j] @ z) <= 1e-12 * np.linalg.norm(m[j])
            assert np.linalg.matrix_rank(z) == k
        with pytest.raises(IllConditionedProbeError) as excinfo:
            lstsq_right(rhs, factor)
        assert excinfo.value.index == 1
        # each hard entry among Gaussian ones: a solution or its own index
        for j in (1, 2, 3, 4):
            mixed = rng.standard_normal((6, rows, cols))
            mixed[j] = m[j]
            if j != 3:
                with pytest.raises(IllConditionedProbeError) as excinfo:
                    lstsq_right(rhs, nullspace(mixed, k))
                assert excinfo.value.index == j
                continue
            gaussian = mixed.copy()
            gaussian[j] = rng.standard_normal((rows, cols))
            with count_madds() as hard:
                x = lstsq_right(rhs, nullspace(mixed, k))
            with count_madds() as easy:
                lstsq_right(rhs, nullspace(gaussian, k))
            # the kappa ~1e7 entry alone takes the thin SVD
            assert hard.madds - easy.madds == svd_madds(cols, rows)
            ref = np.linalg.lstsq(m[j].T, rhs[j].T, rcond=None)[0].T
            assert np.linalg.norm(x[j] - ref) <= 100 * eps * 1e7 * np.linalg.norm(ref)
            # a consistent right-hand side C M comes back as C, as the SVD
            # solves it: normal equations would lose kappa^2 eps
            c = rng.standard_normal((5, rows))
            consistent = np.broadcast_to(c @ m[j], rhs.shape)
            x_c = lstsq_right(consistent, nullspace(mixed, k))
            assert np.linalg.norm(x_c[j] - c) <= 100 * eps * 1e7 * np.linalg.norm(c)
            for i in range(6):
                assert np.array_equal(x[i], lstsq_right(rhs[i], nullspace(mixed[i], k)))


class TestPowerMethodRelnorm:
    # `bench.estimate_rel_err` on dense operators.  Each case names an error E
    # and a compressed operator F, whose norm is the reference, and hands the
    # estimator F and the oracle A = F + E.
    def test_zero_error_operator(self):
        n = 16
        ident = np.eye(n)
        f = dense_factorization(ident)
        assert estimate_rel_err(dense_oracle(ident), f, iters=20, seed=0) == 0.0

    def test_dominant_diagonal(self):
        n = 8
        d = np.ones(n)
        d[0] = 3.0
        f = dense_factorization(np.eye(n))
        est = estimate_rel_err(dense_oracle(np.eye(n) + np.diag(d)), f, iters=50, seed=0)
        assert 2.999 <= est <= 3.001

    def test_identical_operators_give_one(self):
        # E = F: the oracle 2F takes both chains along the same vectors
        rng = np.random.default_rng(7)
        a = rng.standard_normal((32, 32))
        est = estimate_rel_err(dense_oracle(2.0 * a), dense_factorization(a), iters=20, seed=4)
        assert abs(est - 1.0) <= 1e-12

    def test_estimate_is_lower_bound(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            a = rng.standard_normal((24, 24))
            true = np.linalg.norm(a, 2)
            f = dense_factorization(np.eye(24))
            est = estimate_rel_err(dense_oracle(np.eye(24) + a), f, iters=20, seed=seed)
            assert est <= true * (1.0 + 1e-12)

    def test_rejects_zero_iterations(self):
        ident = np.eye(4)
        with pytest.raises(ConfigurationError, match="power iterations must be positive, got 0"):
            estimate_rel_err(dense_oracle(ident), dense_factorization(ident), iters=0)

    def test_rejects_non_integer_seed(self):
        ident = np.eye(4)
        with pytest.raises(ConfigurationError, match="seed must be an integer, got 1.5"):
            estimate_rel_err(dense_oracle(ident), dense_factorization(ident), seed=1.5)
