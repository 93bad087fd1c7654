"""Tests for the experiment operators and their oracles."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from conftest import circle_contour
from scipy.spatial import cKDTree

from hbs import linalg
from hbs.errors import ConfigurationError, DimensionError
from hbs.operators import (
    adjoint_double_layer_matrix,
    bie_oracle,
    default_contour,
    dense_oracle,
    double_layer_matrix,
    hbs_oracle,
    ntd_oracle,
    schur_oracle,
    single_layer_matrix,
)

# The interior Gauss identity for this kernel normalization makes every row
# of the second-kind system sum to 1/2 - 1/4 on any smooth closed contour
# (constant-density double layer integrates to -1/4); frozen from the circle
# closed form.
ROW_SUM_CONSTANT = 0.25


class TestDenseOracle:
    def test_identity(self):
        oracle = dense_oracle(np.eye(6))
        x = np.random.default_rng(0).standard_normal((6, 3))
        np.testing.assert_array_equal(oracle.apply_batch(x), x)

    def test_counters_track_batch_width(self):
        oracle = dense_oracle(np.eye(6))
        oracle.apply_batch(np.ones((6, 3)))
        oracle.apply_transpose_batch(np.ones((6, 2)))
        oracle.apply_batch(np.ones((6, 1)))
        assert oracle.matvec_count == (4, 2)

    def test_transpose_path(self):
        a = np.random.default_rng(1).standard_normal((5, 5))
        oracle = dense_oracle(a)
        x = np.random.default_rng(2).standard_normal((5, 4))
        np.testing.assert_allclose(oracle.apply_transpose_batch(x), a.T @ x)

    def test_linearity_spot_check(self):
        a = np.random.default_rng(3).standard_normal((7, 7))
        oracle = dense_oracle(a)
        x, w = np.random.default_rng(4).standard_normal((2, 7, 2))
        lhs = oracle.apply_batch(2.0 * x + 0.5 * w)
        rhs = 2.0 * oracle.apply_batch(x) + 0.5 * oracle.apply_batch(w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            dense_oracle(np.ones((3, 4)))

    def test_rejects_wrong_input_rows(self):
        oracle = dense_oracle(np.eye(6))
        with pytest.raises(DimensionError):
            oracle.apply_batch(np.ones((5, 2)))

    def test_rejects_misbehaving_product(self):
        from hbs.oracle import MatVecOracle

        oracle = MatVecOracle(4, lambda x: x[:2], lambda x: x)
        with pytest.raises(DimensionError):
            oracle.apply_batch(np.ones((4, 1)))
        assert oracle.matvec_count == (0, 0)  # failed calls do not count

    def test_rejects_complex_product(self):
        # casting to float64 would drop the imaginary part with only a warning
        from hbs.oracle import MatVecOracle

        oracle = MatVecOracle(4, lambda x: x * (1 + 1j), lambda x: x)
        with pytest.raises(DimensionError, match="forward product is complex"):
            oracle.apply_batch(np.ones((4, 1)))
        assert oracle.matvec_count == (0, 0)

    @pytest.mark.parametrize("value", [1 + 1j, "1"], ids=["complex", "string"])
    @pytest.mark.parametrize("direction", ["apply_batch", "apply_transpose_batch"])
    def test_rejects_non_real_input(self, direction, value):
        # a float64 cast would drop an imaginary part with only a ComplexWarning,
        # and fail on strings with an untyped ValueError
        oracle = dense_oracle(np.eye(4))
        with pytest.raises(DimensionError, match="oracle input is .*, not real"):
            getattr(oracle, direction)(np.full((4, 1), value))
        assert oracle.matvec_count == (0, 0)

    def test_rejects_ragged_input(self):
        # numpy raises an untyped ValueError converting a ragged array-like
        oracle = dense_oracle(np.eye(2))
        with pytest.raises(DimensionError, match="oracle input is ragged"):
            oracle.apply_batch([[1.0], [1.0, 2.0]])
        assert oracle.matvec_count == (0, 0)

    def test_rejects_non_finite_product(self):
        from hbs.errors import NonFiniteError
        from hbs.oracle import MatVecOracle

        oracle = MatVecOracle(4, lambda x: x, lambda x: np.full_like(x, np.inf))
        oracle.apply_batch(np.ones((4, 1)))
        with pytest.raises(NonFiniteError, match="transpose"):
            oracle.apply_transpose_batch(np.ones((4, 1)))
        assert oracle.matvec_count == (1, 0)


class TestContours:
    def test_default_contour_closed(self):
        c = default_contour()
        np.testing.assert_allclose(
            c.points(np.array(0.0)), c.points(np.array(2.0 * np.pi)), atol=1e-14
        )

    def test_default_contour_simple_at_scale(self):
        # no node collisions on a fine discretization
        c = default_contour()
        theta, pts, _, _ = c.quadrature(100_000)
        dist, idx = cKDTree(pts).query(pts, k=2)
        assert dist[:, 1].min() > 0.0

    def test_normals_point_outward(self):
        c = default_contour()
        theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        # for a star-shaped curve about the origin, x . n(x) > 0
        assert np.all(np.sum(c.points(theta) * c.normals(theta), axis=-1) > 0.0)

    def test_circle_geometry(self):
        c = circle_contour(2.0)
        theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        np.testing.assert_allclose(np.linalg.norm(c.points(theta), axis=-1), 2.0)
        np.testing.assert_allclose(c.speed(theta), 2.0)


class TestDoubleLayerMatrix:
    def test_circle_kernel_is_constant(self):
        # closed form on a circle of radius a: kernel = -1/(8 pi a) everywhere
        a = 2.0
        n = 64
        c = circle_contour(a)
        mat = double_layer_matrix(n, c)
        mat[np.diag_indices(n)] -= 0.5
        _, _, _, w = c.quadrature(n)
        kernel = mat / w[None, :]
        target = -1.0 / (8.0 * np.pi * a)
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_allclose(kernel[off], target, rtol=1e-12)
        # the diagonal goes through the eps-extrapolated smooth limit
        np.testing.assert_allclose(np.diag(kernel), target, atol=1e-9)

    def test_circle_row_sum_regression(self):
        c = circle_contour(1.0)
        mat = double_layer_matrix(256, c)
        np.testing.assert_allclose(mat @ np.ones(256), ROW_SUM_CONSTANT, atol=1e-10)

    def test_star_row_sum(self):
        mat = double_layer_matrix(400, default_contour())
        np.testing.assert_allclose(mat @ np.ones(400), ROW_SUM_CONSTANT, atol=1e-9)

    def test_distance_symmetry(self):
        c = default_contour()
        theta, pts, _, _ = c.quadrature(40)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.testing.assert_allclose(dist, dist.T, atol=0)


class TestAdjointDoubleLayerMatrix:
    def test_circle_kernel_is_constant(self):
        # closed form on a circle of radius a: kernel = 1/(4 pi a) everywhere
        a = 2.0
        n = 64
        c = circle_contour(a)
        mat = adjoint_double_layer_matrix(n, c)
        _, _, _, w = c.quadrature(n)
        kernel = mat / w[None, :]
        target = 1.0 / (4.0 * np.pi * a)
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_allclose(kernel[off], target, rtol=1e-12)
        # the diagonal goes through the eps-extrapolated smooth limit
        np.testing.assert_allclose(np.diag(kernel), target, atol=1e-9)


LAYER_BUILDERS = [double_layer_matrix, single_layer_matrix, adjoint_double_layer_matrix]


class TestLayerMatrices:
    @pytest.mark.parametrize("build", LAYER_BUILDERS, ids=lambda build: build.__name__)
    def test_rejects_tiny_n(self, build):
        with pytest.raises(DimensionError):
            build(8, default_contour())

    @pytest.mark.parametrize("build", LAYER_BUILDERS, ids=lambda build: build.__name__)
    def test_block_size_changes_no_bit(self, build, monkeypatch):
        # one row per block, 10 rows (which do not divide 97), one block for all:
        # every entry, the self-pair fill inside each block included, is the same
        n = 97
        blocks = []
        for rows in (1, 10, n):
            monkeypatch.setattr(linalg, "L2_FLOATS", rows * n)
            blocks.append(build(n, default_contour()))
        assert all(np.array_equal(blocks[0], other) for other in blocks[1:])

    @pytest.mark.parametrize("build", LAYER_BUILDERS, ids=lambda build: build.__name__)
    def test_assembly_holds_one_matrix(self, build):
        # a row block's temporaries are small next to the n x n result
        n = 2048
        tracemalloc.start()
        try:
            build(n, default_contour())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n


class TestBieOracle:
    def test_matches_dense_assembly(self):
        n = 128
        c = default_contour()
        oracle = bie_oracle(n, c)
        mat = double_layer_matrix(n, c)
        x = np.random.default_rng(5).standard_normal((n, 4))
        np.testing.assert_allclose(oracle.apply_batch(x), mat @ x, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            oracle.apply_transpose_batch(x), mat.T @ x, rtol=1e-13, atol=1e-13
        )
        assert oracle.matvec_count == (4, 4)


class TestNtdOracle:
    def test_adjoint_consistency(self):
        n = 200
        oracle = ntd_oracle(n, default_contour())
        rng = np.random.default_rng(6)
        for _ in range(5):
            q = rng.standard_normal((n, 1))
            w = rng.standard_normal((n, 1))
            lhs = (w.T @ oracle.apply_batch(q)).item()
            rhs = (oracle.apply_transpose_batch(w).T @ q).item()
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_matches_dense_product(self):
        n = 256
        c = default_contour()
        oracle = ntd_oracle(n, c)
        s = single_layer_matrix(n, c)
        system = adjoint_double_layer_matrix(n, c)
        system[np.diag_indices(n)] += 0.5
        t_dense = s @ np.linalg.inv(system)
        got = oracle.apply_batch(np.eye(n))
        for j in range(0, n, 17):
            col_norm = np.linalg.norm(t_dense[:, j])
            assert np.linalg.norm(got[:, j] - t_dense[:, j]) <= 1e-12 * col_norm

    def test_concurrent_products_match_serial(self):
        # scipy's lu_solve on one shared factor returns wrong solutions when two
        # threads enter it at once, so the oracle must serialize its products
        n = 1000
        oracle = ntd_oracle(n, default_contour())
        x = np.random.default_rng(8).standard_normal((n, 32))
        calls = [oracle.apply_batch, oracle.apply_transpose_batch] * 2
        want = [call(x) for call in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(20):
                    futures = [pool.submit(call, x) for call in calls]
                    for future, expected in zip(futures, want):
                        np.testing.assert_array_equal(future.result(timeout=60), expected)
        finally:
            sys.setswitchinterval(interval)
        assert oracle.matvec_count == (32 * 42, 32 * 42)

    def test_in_place_factor_changes_no_bit(self):
        # the system is assembled in Fortran order and factored in place; the
        # products are those of lu_factor on a copy of the C-ordered system
        n = 300
        c = default_contour()
        oracle = ntd_oracle(n, c)
        s = single_layer_matrix(n, c)
        system = adjoint_double_layer_matrix(n, c)
        system[np.diag_indices(n)] += 0.5
        lu_piv = scipy.linalg.lu_factor(system)
        x = np.random.default_rng(9).standard_normal((n, 7))
        assert np.array_equal(oracle.apply_batch(x), s @ scipy.linalg.lu_solve(lu_piv, x))
        assert np.array_equal(
            oracle.apply_transpose_batch(x), scipy.linalg.lu_solve(lu_piv, s.T @ x, trans=1)
        )

    def test_holds_two_matrices_at_peak(self):
        # the single layer and the factored system, plus one assembly block
        n = 2048
        tracemalloc.start()
        try:
            ntd_oracle(n, default_contour())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * n * n

    def test_linearity(self):
        n = 64
        oracle = ntd_oracle(n, default_contour())
        x, w = np.random.default_rng(7).standard_normal((2, n, 3))
        lhs = oracle.apply_batch(1.5 * x - 2.0 * w)
        rhs = 1.5 * oracle.apply_batch(x) - 2.0 * oracle.apply_batch(w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-12)


class TestSchurOracle:
    def test_symmetry(self):
        oracle = schur_oracle(32, 11)
        q = np.random.default_rng(8).standard_normal((32, 1))
        fwd = oracle.apply_batch(q)
        bwd = oracle.apply_transpose_batch(q)
        assert np.linalg.norm(fwd - bwd) <= 1e-12 * np.linalg.norm(fwd)

    def test_positive_definite(self):
        width = 32
        oracle = schur_oracle(width, 11)
        dense = oracle.apply_batch(np.eye(width))
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert eigs.min() > 0.0
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = rng.standard_normal((width, 1))
            assert (q.T @ oracle.apply_batch(q)).item() > 0.0

    def test_matches_dense_elimination(self):
        # eliminate the whole interior at once, so the reference does not
        # assume that no stencil edge joins the two halves
        def line(k):  # second difference on k nodes, Dirichlet ends
            return 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)

        for width, height in [(8, 5), (12, 7), (32, 11)]:
            a = np.kron(np.eye(height), line(width)) + np.kron(line(height), np.eye(width))
            sep = np.arange(height // 2 * width, (height // 2 + 1) * width)
            rest = np.setdiff1d(np.arange(width * height), sep)
            expected = a[np.ix_(sep, sep)] - a[np.ix_(sep, rest)] @ np.linalg.solve(
                a[np.ix_(rest, rest)], a[np.ix_(rest, sep)]
            )
            got = schur_oracle(width, height).apply_batch(np.eye(width))
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_rejects_narrow_grid(self):
        with pytest.raises(DimensionError, match="grid width must be at least 8, got 7"):
            schur_oracle(7, 5)

    def test_rejects_even_height(self):
        with pytest.raises(DimensionError, match="grid height must be odd and at least 3, got 6"):
            schur_oracle(10, 6)


class TestHbsOracle:
    def test_matches_factorization_apply(self):
        from hbs.factorization import apply_matrix, random_hbs
        from hbs.tree import build_tree

        f = random_hbs(build_tree(96, 12), 4, seed=10)
        oracle = hbs_oracle(f)
        x = np.random.default_rng(11).standard_normal((96, 3))
        np.testing.assert_array_equal(oracle.apply_batch(x), apply_matrix(f, x))
        np.testing.assert_array_equal(
            oracle.apply_transpose_batch(x), apply_matrix(f, x, transpose=True)
        )
        assert oracle.matvec_count == (3, 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: schur_oracle(8.5, 5), "grid width must be an integer, got 8.5"),
        (lambda: schur_oracle(10, 5.0), "grid height must be an integer, got 5.0"),
        (lambda: schur_oracle(10, True), "grid height must be an integer, got True"),
        (lambda: bie_oracle(100.5, default_contour()), "n must be an integer, got 100.5"),
        (lambda: ntd_oracle(100.5, default_contour()), "n must be an integer, got 100.5"),
        (lambda: double_layer_matrix(True, default_contour()), "n must be an integer, got True"),
    ],
    ids=["grid-width", "grid-height", "schur", "bie", "ntd", "bool"],
)
def test_sizes_must_be_integers(build, message):
    with pytest.raises(ConfigurationError, match=message):
        build()
