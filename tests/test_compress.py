"""Tests for the randomized compressor, stage by stage against dense oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from conftest import level_bounds

from hbs import compress, linalg
from hbs.compress import (
    CompressionConfig,
    SampleSet,
    compress_from_samples,
    compress_node_bases,
    compress_operator,
    compute_discrepancy,
    compute_root,
    draw_samples,
    lift_to_parent,
)
from hbs.errors import ConfigurationError, DimensionError, IllConditionedProbeError, NonFiniteError
from hbs.factorization import random_hbs, to_dense
from hbs.flops import count_madds
from hbs.linalg import gaussian_matrix, lstsq_right, nullspace
from hbs.operators import dense_oracle
from hbs.tree import build_tree


def sample_dense(a, s, seed):
    """Draw the probe quadruple directly from a dense matrix."""
    n = a.shape[0]
    omega = gaussian_matrix(n, s, seed, stream=0)
    psi = gaussian_matrix(n, s, seed, stream=1)
    return SampleSet(omega=omega, psi=psi, y=a @ omega, z=a.T @ psi)


def leaf_ranges(tree):
    """(begin, end) of every leaf, left to right."""
    return list(zip(tree.offsets, tree.offsets[1:]))


def compress_leaves(a, tree, r, s, seed):
    """Run the leaf stage densely-sampled; returns per-leaf (u, v, disc,
    samples), left to right."""
    samples = sample_dense(a, s, seed)
    state = []
    for begin, end in leaf_ranges(tree):
        ns = samples[begin:end]
        u, v, *solves = compress_node_bases(ns, r)
        state.append((u, v, compute_discrepancy(u, v, *solves), ns))
    return samples, state


def stack_nodes(state):
    """Per-node (u, v, disc, samples) as one level's stacks, the way the
    sweep holds them: (nodes, rows, .) arrays zero-padded to the largest
    node, then the nodes' real sizes."""
    width = max(ns.rows for *_, ns in state)

    def stacked(blocks, cols=None):
        out = np.zeros((len(blocks), width, cols or blocks[0].shape[1]))
        for j, block in enumerate(blocks):
            out[j, : block.shape[0], : block.shape[1]] = block
        return out

    u, v, d, ns = zip(*state)
    samples = SampleSet(*(stacked([getattr(x, k) for x in ns]) for k in ("omega", "psi", "y", "z")))
    return stacked(u), stacked(v), stacked(d, width), samples, [x.rows for x in ns]


class TestDrawSamples:
    def test_identity_oracle(self):
        oracle = dense_oracle(np.eye(12))
        samples = draw_samples(oracle, 5, seed=0)
        np.testing.assert_array_equal(samples.y, samples.omega)
        np.testing.assert_array_equal(samples.z, samples.psi)

    def test_counters_advance_exactly(self):
        oracle = dense_oracle(np.eye(12))
        draw_samples(oracle, 7, seed=0)
        assert oracle.matvec_count == (7, 7)

    def test_diagonal_action(self):
        d = np.arange(1.0, 11.0)
        oracle = dense_oracle(np.diag(d))
        samples = draw_samples(oracle, 4, seed=1)
        np.testing.assert_allclose(samples.y, d[:, None] * samples.omega)

    @pytest.mark.parametrize(
        "s, seed", [(2.5, 0), (5, 1.5), (True, 0)], ids=["float-s", "float-seed", "bool-s"]
    )
    def test_non_integer_probe_count_or_seed_is_config_error(self, s, seed):
        # a float would otherwise escape as numpy's or SeedSequence's TypeError,
        # and True would draw one column
        with pytest.raises(ConfigurationError, match="must be an integer"):
            draw_samples(dense_oracle(np.eye(64)), s, seed)


class TestLeafNodeSamples:
    def test_first_leaf_rows(self):
        a = np.diag(np.arange(1.0, 5.0))
        samples = sample_dense(a, 3, seed=2)
        tree = build_tree(4, 2)
        begin, end = leaf_ranges(tree)[0]
        ns = samples[begin:end]
        np.testing.assert_array_equal(ns.omega, samples.omega[0:2])
        np.testing.assert_array_equal(ns.y, samples.y[0:2])

    def test_leaves_cover_all_rows(self):
        a = np.eye(10)
        samples = sample_dense(a, 3, seed=3)
        tree = build_tree(10, 3)
        seen = np.zeros(10, dtype=int)
        for begin, end in leaf_ranges(tree):
            ns = samples[begin:end]
            assert ns.rows == end - begin
            seen[begin:end] += 1
        assert np.all(seen == 1)

    def test_full_range_slice(self):
        a = np.eye(6)
        samples = sample_dense(a, 3, seed=4)
        tree = build_tree(6, 3)
        begin, end = level_bounds(tree, 0)  # hypothetical whole-matrix slice
        ns = samples[begin:end]
        np.testing.assert_array_equal(ns.omega, samples.omega)


class TestCompressNodeBases:
    def test_structured_nullspace_zeroes_block_rows(self):
        m, s, r = 4, 12, 3
        omega_t = np.hstack((np.eye(m), np.zeros((m, s - m))))
        ns = SampleSet(
            omega=omega_t,
            psi=gaussian_matrix(m, s, 5, 0),
            y=gaussian_matrix(m, s, 5, 1),
            z=gaussian_matrix(m, s, 5, 2),
        )
        p = nullspace(ns.omega, r).null
        # nullspace vectors cannot touch the identity block
        np.testing.assert_allclose(p[:m], 0.0, atol=1e-14)

    def test_rank_one_off_diagonal_recovered(self):
        n, m, r, s = 32, 8, 2, 16
        tree = build_tree(n, m)
        begin, end = leaf_ranges(tree)[0]
        rng = np.random.default_rng(6)
        a = np.zeros((n, n))
        a[begin:end, begin:end] = rng.standard_normal((m, m))
        u_true = rng.standard_normal(m)
        v_true = rng.standard_normal(n - m)
        a[begin:end, end:] = np.outer(u_true, v_true)
        samples = sample_dense(a, s, seed=7)
        u, v, _, _ = compress_node_bases(samples[begin:end], r)
        off = a[begin:end, end:]
        assert np.linalg.norm(off - u @ (u.T @ off)) <= 1e-11 * np.linalg.norm(off)
        assert np.linalg.norm(u.T @ u - np.eye(r)) <= 1e-12
        assert np.linalg.norm(v.T @ v - np.eye(r)) <= 1e-12

    def test_block_diagonal_gives_vacuous_sample(self):
        n, m, r, s = 24, 6, 2, 12
        tree = build_tree(n, m)
        begin, end = leaf_ranges(tree)[0]
        a = scipy.linalg.block_diag(
            *(np.random.default_rng(i).standard_normal((6, 6)) for i in range(4))
        )
        samples = sample_dense(a, s, seed=8)
        ns = samples[begin:end]
        u, *_ = compress_node_bases(ns, r)
        p = nullspace(ns.omega, r).null
        # the projected sample is exactly zero, the basis merely orthonormal
        np.testing.assert_allclose(ns.y @ p, 0.0, atol=1e-12)
        assert np.linalg.norm(u.T @ u - np.eye(r)) <= 1e-12

    def test_nullity_shortfall_is_config_error(self):
        # 6-row leaves with 8 probes leave nullity 2 < rank 3
        tree = build_tree(12, 6)
        samples = sample_dense(np.eye(12), 8, seed=9)
        with pytest.raises(ConfigurationError, match="probe count 8"):
            compress_from_samples(samples, tree, CompressionConfig(rank=3, leaf_threshold=6))


class TestComputeDiscrepancy:
    def test_matches_dense_formula_on_exact_hbs(self):
        k, r, m, s = 3, 5, 10, 25
        tree = build_tree(80, m)
        a = to_dense(random_hbs(tree, k, seed=10))
        samples = sample_dense(a, s, seed=11)
        for begin, end in leaf_ranges(tree)[:3]:
            ns = samples[begin:end]
            u, v, *solves = compress_node_bases(ns, r)
            d = compute_discrepancy(u, v, *solves)
            att = a[begin:end, begin:end]
            expected = att - u @ (u.T @ att @ v) @ v.T
            assert np.linalg.norm(d - expected) <= 1e-10 * np.linalg.norm(att)

    def test_projector_free_limit_recovers_diagonal_block(self):
        # with zero-width bases the formula reduces to Y Omega^+ = A_tt
        m, s = 5, 12
        att = np.random.default_rng(12).standard_normal((m, m))
        omega_t = gaussian_matrix(m, s, 13, 0)
        psi_t = gaussian_matrix(m, s, 13, 1)
        left = lstsq_right(att @ omega_t, nullspace(omega_t, 0))
        right = lstsq_right(att.T @ psi_t, nullspace(psi_t, 0))
        d = compute_discrepancy(np.zeros((m, 0)), np.zeros((m, 0)), left, right)
        np.testing.assert_allclose(d, att, atol=1e-12)

    def test_identity_matrix_oracle(self):
        m, s, r = 6, 15, 2
        rng = np.random.default_rng(14)
        u = np.linalg.qr(rng.standard_normal((m, r)))[0]
        v = np.linalg.qr(rng.standard_normal((m, r)))[0]
        omega_t = gaussian_matrix(m, s, 15, 0)
        psi_t = gaussian_matrix(m, s, 15, 1)
        left = lstsq_right(omega_t, nullspace(omega_t, 0))
        right = lstsq_right(psi_t, nullspace(psi_t, 0))
        d = compute_discrepancy(u, v, left, right)
        expected = np.eye(m) - u @ u.T @ v @ v.T
        np.testing.assert_allclose(d, expected, atol=1e-11)


class TestLiftToParent:
    def test_block_diagonal_lifts_to_zero_samples(self):
        n, m, r, s = 16, 4, 2, 8
        tree = build_tree(n, m)
        rng = np.random.default_rng(16)
        a = scipy.linalg.block_diag(*(rng.standard_normal((4, 4)) for _ in range(4)))
        samples = sample_dense(a, s, seed=17)
        state = []
        for begin, end in leaf_ranges(tree):
            ns = samples[begin:end]
            u = np.linalg.qr(rng.standard_normal((m, r)))[0]
            v = np.linalg.qr(rng.standard_normal((m, r)))[0]
            att = a[begin:end, begin:end]
            state.append((u, v, att, ns))
        # the first parent of the level above the leaves
        lifted = lift_to_parent(*stack_nodes(state[:2]))
        np.testing.assert_allclose(lifted.y, 0.0, atol=1e-12)
        np.testing.assert_allclose(lifted.z, 0.0, atol=1e-12)

    def test_matches_dense_telescoping(self):
        # depth-2 exact structure: lifted samples equal the blocked dense products
        k, r, m, s = 2, 4, 8, 20
        n = 32
        tree = build_tree(n, m)
        a = to_dense(random_hbs(tree, k, seed=18))
        samples, state = compress_leaves(a, tree, r, s, seed=19)
        u_blk = scipy.linalg.block_diag(*(u for u, _, _, _ in state))
        v_blk = scipy.linalg.block_diag(*(v for _, v, _, _ in state))
        d_blk = scipy.linalg.block_diag(*(d for _, _, d, _ in state))
        y_coarse = u_blk.T @ (samples.y - d_blk @ samples.omega)
        omega_coarse = v_blk.T @ samples.omega
        # the first node of level 1, parent of leaves 0 and 1 on this depth-2 tree
        lifted = lift_to_parent(*stack_nodes(state[:2]))[0]
        scale = np.linalg.norm(samples.y)
        assert np.linalg.norm(lifted.y - y_coarse[: 2 * r]) <= 1e-11 * scale
        assert np.linalg.norm(lifted.omega - omega_coarse[: 2 * r]) <= 1e-11 * scale

    def test_shape_is_always_2r_by_s(self):
        # uneven leaves still lift to 2r rows
        n, m, r, s = 21, 4, 2, 10
        tree = build_tree(n, m)
        a = np.random.default_rng(20).standard_normal((n, n))
        _, state = compress_leaves(a, tree, r, s, seed=21)
        lifted = lift_to_parent(*stack_nodes(state[:2]))[0]
        assert lifted.omega.shape == (2 * r, s)
        assert lifted.y.shape == (2 * r, s)

    def test_padded_children_lift_as_real_rows(self):
        # leaves 2 and 3 hold 3 and 2 rows: the short one is zero-padded
        n, m, r, s = 21, 4, 2, 10
        tree = build_tree(n, m)
        a = np.random.default_rng(45).standard_normal((n, n))
        _, state = compress_leaves(a, tree, r, s, seed=46)
        pair = state[2:4]
        assert [ns.rows for *_, ns in pair] == [3, 2]
        lifted = lift_to_parent(*stack_nodes(pair))[0]
        expected_y = np.vstack([u.T @ (ns.y - d @ ns.omega) for u, _, d, ns in pair])
        expected_z = np.vstack([v.T @ (ns.z - d.T @ ns.psi) for _, v, d, ns in pair])
        expected_omega = np.vstack([v.T @ ns.omega for _, v, _, ns in pair])
        scale = np.linalg.norm(a)
        assert np.linalg.norm(lifted.y - expected_y) <= 1e-13 * scale
        assert np.linalg.norm(lifted.z - expected_z) <= 1e-13 * scale
        assert np.linalg.norm(lifted.omega - expected_omega) <= 1e-13 * scale


class TestComputeRoot:
    def test_depth_one_dense_oracle(self):
        k, r, m, s = 2, 4, 8, 20
        n = 16
        tree = build_tree(n, m)
        a = to_dense(random_hbs(tree, k, seed=22))
        _, state = compress_leaves(a, tree, r, s, seed=23)
        left, right = state
        root_disc = compute_root(lift_to_parent(*stack_nodes(state))[0])
        u_blk = scipy.linalg.block_diag(left[0], right[0])
        v_blk = scipy.linalg.block_diag(left[1], right[1])
        d_blk = scipy.linalg.block_diag(left[2], right[2])
        expected = u_blk.T @ (a - d_blk) @ v_blk
        assert np.linalg.norm(root_disc - expected) <= 1e-10 * np.linalg.norm(a)

    def test_zero_matrix(self):
        n, r, m, s = 16, 3, 8, 17
        tree = build_tree(n, m)
        _, state = compress_leaves(np.zeros((n, n)), tree, r, s, seed=24)
        root_disc = compute_root(lift_to_parent(*stack_nodes(state))[0])
        np.testing.assert_allclose(root_disc, 0.0, atol=1e-12)

    def test_scaling_commutes(self):
        # generic full-rank operator: every per-node sample has full rank, so
        # the whole pipeline is scale-equivariant at fixed random draws
        n = 64
        a = np.random.default_rng(25).standard_normal((n, n))
        config = CompressionConfig(rank=4, leaf_threshold=8, seed=26)
        f1 = compress_operator(dense_oracle(a), config)
        f2 = compress_operator(dense_oracle(3.0 * a), config)
        assert np.linalg.norm(f2.root_disc - 3.0 * f1.root_disc) <= 1e-12 * np.linalg.norm(
            f1.root_disc
        )


class TestCompress:
    def test_exact_rank_recovery(self):
        n, k, r, m = 960, 10, 15, 30
        tree = build_tree(n, m)
        a = to_dense(random_hbs(tree, k, seed=27))
        oracle = dense_oracle(a)
        config = CompressionConfig(rank=r, leaf_threshold=m, probes=45, seed=28)
        f = compress_operator(oracle, config)
        err = np.linalg.norm(to_dense(f) - a, 2) / np.linalg.norm(a, 2)
        assert err <= 1e-10
        assert oracle.matvec_count == (45, 45)

    def test_diagonal_matrix(self):
        n = 200
        a = np.diag(np.linspace(1.0, 2.0, n))
        oracle = dense_oracle(a)
        f = compress_operator(oracle, CompressionConfig(rank=5, leaf_threshold=10, seed=29))
        err = np.linalg.norm(to_dense(f) - a, 2) / np.linalg.norm(a, 2)
        assert err <= 1e-12

    def test_probe_budget_is_exact(self):
        n = 128
        a = to_dense(random_hbs(build_tree(n, 16), 4, seed=30))
        oracle = dense_oracle(a)
        config = CompressionConfig(rank=6, leaf_threshold=16, seed=31)
        s = config.validate_for(build_tree(n, 16))
        compress_operator(oracle, config)
        assert oracle.matvec_count == (s, s)

    def test_deterministic_bitwise(self):
        n = 96
        a = to_dense(random_hbs(build_tree(n, 12), 3, seed=32))
        config = CompressionConfig(rank=5, leaf_threshold=12, seed=33)
        f1 = compress_operator(dense_oracle(a), config)
        f2 = compress_operator(dense_oracle(a), config)
        assert np.array_equal(f1.root_disc, f2.root_disc)
        for level in range(1, f1.tree.depth + 1):
            assert np.array_equal(f1.U[level], f2.U[level])
            assert np.array_equal(f1.V[level], f2.V[level])
            assert np.array_equal(f1.D[level], f2.D[level])

    def test_oversampling_monotonicity(self):
        # median true error over ten seeds must not degrade with more padding
        tree = build_tree(960, 30)
        a = to_dense(random_hbs(tree, 5, seed=11))
        norm_a = np.linalg.norm(a, 2)
        medians = {}
        for rank in (7, 15):
            errs = []
            for seed in range(10):
                f = compress_operator(
                    dense_oracle(a),
                    CompressionConfig(rank=rank, leaf_threshold=30, seed=seed),
                )
                errs.append(np.linalg.norm(to_dense(f) - a, 2) / norm_a)
            medians[rank] = np.median(errs)
        assert medians[15] <= medians[7]

    def test_arithmetic_scales_linearly(self):
        r, m = 5, 10
        madds = {}
        for n in (2048, 4096):
            tree = build_tree(n, m)
            a_f = random_hbs(tree, 2, seed=34)
            from hbs.operators import hbs_oracle

            oracle = hbs_oracle(a_f)
            config = CompressionConfig(rank=r, leaf_threshold=m, seed=35)
            samples = draw_samples(oracle, config.validate_for(tree), config.seed)
            with count_madds() as counter:
                compress_from_samples(samples, tree, config)
            madds[n] = counter.madds
        assert 1.8 <= madds[4096] / madds[2048] <= 2.3

    def test_ill_conditioned_probe_names_node(self):
        # duplicated probe rows inside the first leaf destroy its row rank
        n, m, r = 16, 2, 2
        tree = build_tree(n, m)
        # need leaf_threshold >= rank = 2 and nullity: use probes wide enough
        config = CompressionConfig(rank=1, leaf_threshold=2, probes=6, seed=36)
        omega = gaussian_matrix(n, 6, 36, 0)
        omega[1] = omega[0]  # leaf 0 rows identical
        psi = gaussian_matrix(n, 6, 36, 1)
        a = np.eye(n)
        samples = SampleSet(omega=omega, psi=psi, y=a @ omega, z=a.T @ psi)
        with pytest.raises(IllConditionedProbeError) as excinfo:
            compress_from_samples(samples, tree, config)
        assert excinfo.value.node_id == 2**tree.depth - 1  # level-order id of leaf 0
        assert excinfo.value.level == tree.depth

    def test_ill_conditioned_short_leaf_names_node(self):
        # leaves are (3, 3, 3, 2, 3, 2, 3, 2): duplicate the rows of leaf 3,
        # one of the shorter leaves
        n, s = 21, 6
        tree = build_tree(n, 4)
        assert tree.leaf_sizes[3] == tree.min_leaf_size < tree.max_leaf_size
        config = CompressionConfig(rank=1, leaf_threshold=4, probes=s, seed=44)
        omega = gaussian_matrix(n, s, 44, 0)
        begin = tree.offsets[3]
        omega[begin + 1] = omega[begin]
        psi = gaussian_matrix(n, s, 44, 1)
        samples = SampleSet(omega=omega, psi=psi, y=omega.copy(), z=psi.copy())
        with pytest.raises(IllConditionedProbeError) as excinfo:
            compress_from_samples(samples, tree, config)
        assert excinfo.value.node_id == 2**tree.depth - 1 + 3
        assert excinfo.value.level == tree.depth

    def test_ill_conditioned_root_names_node(self):
        # [[B, C], [C, B]] probed with the same test rows in both leaves: the
        # leaves' test matrices have full rank, but both leaves see the same
        # samples, (B + C) omega and (B + C)^T psi, and compress identically,
        # so the lifted root test matrix repeats its r rows: rank r < 2r
        m, r, s = 8, 2, 12
        tree = build_tree(2 * m, m)
        assert tree.depth == 1
        rng = np.random.default_rng(47)
        b, c = rng.standard_normal((2, m, m))
        omega, psi = gaussian_matrix(m, s, 47, 0), gaussian_matrix(m, s, 47, 1)
        y, z = (b + c) @ omega, (b + c).T @ psi
        samples = SampleSet(*(np.vstack([x, x]) for x in (omega, psi, y, z)))
        config = CompressionConfig(rank=r, leaf_threshold=m, probes=s, seed=47)
        with pytest.raises(IllConditionedProbeError) as excinfo:
            compress_from_samples(samples, tree, config)
        assert excinfo.value.node_id == 0
        assert excinfo.value.level == 0

    def test_depth_one_tree(self):
        # n just above the threshold: two leaves and the root core only
        n, k, r, m = 40, 3, 6, 20
        tree = build_tree(n, m)
        assert tree.depth == 1
        a = to_dense(random_hbs(tree, k, seed=40))
        f = compress_operator(dense_oracle(a), CompressionConfig(rank=r, leaf_threshold=m, seed=41))
        err = np.linalg.norm(to_dense(f) - a, 2) / np.linalg.norm(a, 2)
        assert err <= 1e-11

    def test_uneven_leaves(self):
        # odd n forces leaf sizes that differ by one through every stage
        n, k, r, m = 333, 4, 8, 24
        tree = build_tree(n, m)
        assert tree.min_leaf_size != tree.max_leaf_size
        a = to_dense(random_hbs(tree, k, seed=42))
        f = compress_operator(dense_oracle(a), CompressionConfig(rank=r, leaf_threshold=m, seed=43))
        err = np.linalg.norm(to_dense(f) - a, 2) / np.linalg.norm(a, 2)
        assert err <= 1e-10
        f.validate()  # leaf blocks written by size class keep zero padding

    def test_one_cholesky_per_probe_stack(self, monkeypatch):
        # each probe side's solve reuses the factor of its basis, so each
        # omega and psi stack (one per level and leaf size) and the root omega
        # get one Cholesky factorization and no complete QR; with Gaussian
        # probes the Gram bound certifies every entry, so no SVD fallback
        # runs at all
        n, k, r, m = 333, 4, 8, 24
        tree = build_tree(n, m)
        a = to_dense(random_hbs(tree, k, seed=48))
        qr, svd, cholesky = np.linalg.qr, np.linalg.svd, np.linalg.cholesky
        modes, uv, factored = [], [], []

        def counting_qr(b, mode="reduced"):
            modes.append(mode)
            return qr(b, mode=mode)

        def counting_svd(b, full_matrices=True, compute_uv=True):
            uv.append(compute_uv)
            return svd(b, full_matrices=full_matrices, compute_uv=compute_uv)

        def counting_cholesky(b, upper=False):
            factored.append(b.shape)
            return cholesky(b, upper=upper)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        compress_operator(dense_oracle(a), CompressionConfig(rank=r, leaf_threshold=m, seed=48))
        size_classes = tree.depth + 1  # the leaf level holds two leaf sizes
        assert len([shape for shape in factored if shape[-1] != r]) == 2 * size_classes + 1
        # s = 29 leaves the 21-row leaves a nullity of exactly r, so there each
        # side's sketch also takes one CholeskyQR step, on an r x r Gram matrix
        wide = tree.leaf_sizes.count(21)
        assert [shape for shape in factored if shape[-1] == r] == [(wide, r, r)] * 2
        assert "complete" not in modes
        # the only QRs left orthonormalize the two projected samples per stack
        assert len(modes) == 2 * size_classes
        assert uv == []

    def test_compressed_bases_are_orthonormal(self):
        n = 200
        a = to_dense(random_hbs(build_tree(n, 20), 4, seed=37))
        config = CompressionConfig(rank=8, leaf_threshold=20, seed=38)
        f = compress_operator(dense_oracle(a), config)
        f.validate()  # orthonormality <= 1e-10 at every node, finite blocks

    def test_config_validation(self):
        tree = build_tree(64, 8)
        with pytest.raises(ConfigurationError):
            CompressionConfig(rank=9, leaf_threshold=8).validate_for(tree)
        with pytest.raises(ConfigurationError):
            CompressionConfig(rank=2, leaf_threshold=8, probes=9).validate_for(tree)
        with pytest.raises(ConfigurationError):
            CompressionConfig(rank=0, leaf_threshold=8).validate_for(tree)

    def test_rank_above_smallest_leaf_is_config_error(self):
        # the sweep checks its config on entry, before any level is factored
        tree = build_tree(64, 16)
        assert tree.min_leaf_size == 16
        samples = sample_dense(np.eye(64), 60, seed=49)
        with pytest.raises(ConfigurationError, match="smallest leaf has 16 rows < rank 20"):
            compress_from_samples(samples, tree, CompressionConfig(rank=20, leaf_threshold=16))

    def test_tree_for_another_leaf_threshold_is_config_error(self):
        tree = build_tree(256, 16)
        samples = sample_dense(np.eye(256), 24, seed=51)
        config = CompressionConfig(rank=6, leaf_threshold=64)
        with pytest.raises(ConfigurationError, match="leaf threshold 16, config has 64"):
            compress_from_samples(samples, tree, config)

    def test_negative_seed_is_config_error(self):
        tree = build_tree(64, 16)
        samples = sample_dense(np.eye(64), 24, seed=50)
        config = CompressionConfig(rank=4, leaf_threshold=16, seed=-1)
        with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
            compress_from_samples(samples, tree, config)


class TestSweepRanges:
    """Each level is one pass over node ranges; the ranges change no bit."""

    @staticmethod
    def sweep(samples, tree, config, chunk, monkeypatch):
        """The sweep with `chunk` floats per range, its madds and its lift calls."""
        monkeypatch.setattr(linalg, "L2_FLOATS", chunk)
        lifts = []

        def counting_lift(*args):
            lifts.append(args[0].shape[0])
            return lift_to_parent(*args)

        monkeypatch.setattr(compress, "lift_to_parent", counting_lift)
        with count_madds() as counter:
            f = compress_from_samples(samples, tree, config)
        return f, counter.madds, lifts

    @pytest.mark.parametrize(
        "n, k, r, m", [(512, 4, 6, 16), (333, 4, 8, 24), (40, 3, 6, 20)],
        ids=["uniform", "uneven", "depth-one"],
    )
    def test_bitwise_equal_to_whole_levels(self, n, k, r, m, monkeypatch):
        # 2-node ranges (the smallest: a range must hold whole parents) against
        # one range per level; on the uneven tree some ranges hold two leaf sizes
        tree = build_tree(n, m)
        a = to_dense(random_hbs(tree, k, seed=60))
        config = CompressionConfig(rank=r, leaf_threshold=m, seed=61)
        samples = sample_dense(a, config.validate_for(tree), seed=61)
        f, madds, lifts = self.sweep(samples, tree, config, 1, monkeypatch)
        g, whole_madds, whole_lifts = self.sweep(samples, tree, config, 1 << 40, monkeypatch)
        assert lifts == [2] * (2**tree.depth - 1)
        assert whole_lifts == [2**level for level in range(tree.depth, 0, -1)]
        assert madds == whole_madds
        assert np.array_equal(f.root_disc, g.root_disc)
        for level in range(1, tree.depth + 1):
            assert np.array_equal(f.U[level], g.U[level])
            assert np.array_equal(f.V[level], g.V[level])
            assert np.array_equal(f.D[level], g.D[level])

    def test_ill_conditioned_leaf_in_later_range_names_node(self, monkeypatch):
        # 2-row leaves in 2-node ranges: leaf 5 sits in the third range
        n, s = 16, 6
        tree = build_tree(n, 2)
        monkeypatch.setattr(linalg, "L2_FLOATS", 1)
        omega = gaussian_matrix(n, s, 63, 0)
        omega[11] = omega[10]  # leaf 5 owns rows 10 and 11
        psi = gaussian_matrix(n, s, 63, 1)
        samples = SampleSet(omega=omega, psi=psi, y=omega.copy(), z=psi.copy())
        config = CompressionConfig(rank=1, leaf_threshold=2, probes=s, seed=63)
        with pytest.raises(IllConditionedProbeError) as excinfo:
            compress_from_samples(samples, tree, config)
        assert excinfo.value.node_id == 2**tree.depth - 1 + 5
        assert excinfo.value.level == tree.depth

    def test_ill_conditioned_short_leaf_in_mixed_range_names_node(self, monkeypatch):
        # leaves are (3, 3, 3, 2, 3, 2, 3, 2): the range of leaves 2 and 3
        # holds both sizes, and leaf 3 is the second of its own size class
        n, s = 21, 6
        tree = build_tree(n, 4)
        monkeypatch.setattr(linalg, "L2_FLOATS", 1)
        omega = gaussian_matrix(n, s, 44, 0)
        begin = tree.offsets[3]
        omega[begin + 1] = omega[begin]
        psi = gaussian_matrix(n, s, 44, 1)
        samples = SampleSet(omega=omega, psi=psi, y=omega.copy(), z=psi.copy())
        config = CompressionConfig(rank=1, leaf_threshold=4, probes=s, seed=44)
        with pytest.raises(IllConditionedProbeError) as excinfo:
            compress_from_samples(samples, tree, config)
        assert excinfo.value.node_id == 2**tree.depth - 1 + 3
        assert excinfo.value.level == tree.depth

    def test_sweep_peak_stays_near_a_level(self):
        # synthetic-coarse shapes on 32 leaves of 128 rows: one sample array is
        # 5.5 MB.  Whole-level steps peaked at 6.64 of them above the inputs,
        # ranges of at most linalg.L2_FLOATS floats at 4.31 (with the 10 MB result)
        n, r, m, s = 4096, 40, 160, 168
        tree = build_tree(n, m)
        samples = SampleSet(*(gaussian_matrix(n, s, 62, stream) for stream in range(4)))
        config = CompressionConfig(rank=r, leaf_threshold=m, probes=s, seed=62)
        tracemalloc.start()
        try:
            compress_from_samples(samples, tree, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 8 * n * s


def test_package_compress_attribute_is_the_module():
    # no function of the package namespace shadows the compressor module
    import importlib

    import hbs

    assert hbs.compress is importlib.import_module("hbs.compress")


class TestInputChecks:
    @pytest.mark.parametrize(
        "field, value",
        [("rank", 8.0), ("rank", True), ("probes", 30.0), ("seed", 1.5), ("leaf_threshold", 16.0)],
    )
    def test_non_integer_config_field_is_config_error(self, field, value):
        # a float or bool would otherwise escape later as an untyped numpy,
        # SeedSequence or struct error
        fields = {"rank": 8, "leaf_threshold": 16, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            CompressionConfig(**fields)

    def test_numpy_integer_config_fields_are_accepted(self):
        config = CompressionConfig(
            rank=np.int64(4), leaf_threshold=np.int32(16), probes=np.int64(24), seed=np.uint8(3)
        )
        assert config.validate_for(build_tree(64, 16)) == 24

    @pytest.mark.parametrize(
        "reshape, probes, error, match",
        [
            (lambda a: a[:, 0], None, DimensionError, "n x s matrices"),  # 1-D arrays
            (lambda a: a[:, :, None], None, DimensionError, "n x s matrices"),  # (n, s, 1)
            (lambda a: a[:40], None, DimensionError, "samples are for n=40, tree has n=64"),
            (lambda a: a, 30, ConfigurationError, "asks for 30 probes, samples have 40"),
        ],
        ids=["one-dimensional", "three-dimensional", "wrong-rows", "probe-count"],
    )
    def test_malformed_samples_are_rejected(self, reshape, probes, error, match):
        tree = build_tree(64, 16)
        samples = sample_dense(np.eye(64), 40, seed=52).map(reshape)
        config = CompressionConfig(rank=4, leaf_threshold=16, probes=probes)
        with pytest.raises(error, match=match):
            compress_from_samples(samples, tree, config)

    def test_sample_matrices_must_share_one_shape(self):
        a = np.zeros((8, 4))
        with pytest.raises(DimensionError, match="must share one shape"):
            SampleSet(omega=a, psi=a, y=a, z=np.zeros((8, 5)))

    SAMPLES = sample_dense(np.random.default_rng(1).standard_normal((256, 256)), 28, seed=0)

    @staticmethod
    def compress_or_nonfinite(samples):
        """The factorization of finite samples, with no non-finite block, or
        None where they raise NonFiniteError."""
        try:
            f = compress_from_samples(samples, build_tree(256, 16), CompressionConfig(4, 16))
        except NonFiniteError:
            return None
        assert all(np.isfinite(b).all() for b in (*f.U[1:], *f.V[1:], *f.D[1:], f.root_disc))
        return f

    @pytest.mark.parametrize(
        "field, peak, error",
        [("y", None, DimensionError), ("y", np.inf, NonFiniteError),
         ("y", 1e308, NonFiniteError), ("z", 1e308, NonFiniteError), ("y", 1e307, None)],
        ids=["complex", "infinite-row", "overflow-y", "overflow-z", "overflow-in-lapack"],
    )
    def test_samples_out_of_range_raise_typed_errors(self, field, peak, error):
        # under filterwarnings = error numpy's overflow and invalid-value
        # warnings would escape untyped.  At 1e307 the samples are finite, so
        # the contract for finite samples applies (error None); col's QR, which
        # would overflow without a warning, sees them scaled
        a = getattr(self.SAMPLES, field)
        if peak is None:
            a = a + 0j
        elif np.isinf(peak):
            a = a.copy()
            a[0] = peak
        else:
            a = a * (peak / np.abs(a).max())
        if error is None:
            self.compress_or_nonfinite(replace(self.SAMPLES, **{field: a}))
            return
        with pytest.raises(error):
            samples = replace(self.SAMPLES, **{field: a})
            compress_from_samples(samples, build_tree(256, 16), CompressionConfig(4, 16))

    @pytest.mark.parametrize("peak", [1e300, 1e305, 1e306, 1e307, 1e308, 1.7e308])
    @pytest.mark.parametrize(
        "fields", [("y",), ("z",), ("omega",), ("psi",), ("y", "z")], ids="y z omega psi y+z".split()
    )
    def test_finite_samples_compress_or_raise_nonfinite(self, fields, peak):
        # the README contract at every scale up to the float64 limit; up to
        # 1e306 each of these sample sets compresses (col scales its input)
        samples = replace(
            self.SAMPLES,
            **{f: getattr(self.SAMPLES, f) * (peak / np.abs(getattr(self.SAMPLES, f)).max())
               for f in fields},
        )
        f = self.compress_or_nonfinite(samples)
        assert f is not None or peak > 1e306

    def test_sample_matrices_must_be_arrays(self):
        # an array-like has no .shape; it is a typed error, not an AttributeError
        with pytest.raises(DimensionError, match=r"must be numpy arrays, got \[.list.\]"):
            SampleSet(omega=[[1.0]], psi=[[1.0]], y=[[1.0]], z=[[1.0]])
