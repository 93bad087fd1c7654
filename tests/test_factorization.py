"""Tests for the telescoping factorization container."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from conftest import level_bounds, node_blocks

import hbs
from hbs import linalg
from hbs.errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    NonFiniteError,
    ResourceLimitError,
)
from hbs.factorization import (
    HbsFactorization,
    apply,
    apply_matrix,
    apply_transpose,
    fill_records,
    random_hbs,
    storage,
    to_dense,
)
from hbs.flops import count_madds
from hbs.linalg import STREAM_SYNTHETIC
from hbs.tree import build_tree


def zeroed_discs(f):
    """Copy of f with every discrepancy block and the root core zeroed."""
    discs = [None] + [np.zeros_like(d) for d in f.D[1:]]
    return HbsFactorization(f.tree, f.rank, f.U, f.V, discs, np.zeros_like(f.root_disc))


def symmetrized(f):
    """Copy of f with shared bases and symmetric blocks (a self-adjoint map)."""
    discs = [None] + [0.5 * (d + d.transpose(0, 2, 1)) for d in f.D[1:]]
    root = 0.5 * (f.root_disc + f.root_disc.T)
    return HbsFactorization(f.tree, f.rank, f.U, f.U, discs, root)


class TestApply:
    def test_zero_core_gives_zero(self):
        f = zeroed_discs(random_hbs(build_tree(64, 8), 3, seed=1))
        q = np.arange(64, dtype=float)
        np.testing.assert_allclose(apply(f, q), 0.0, atol=1e-14)

    def test_matches_dense_columns(self):
        f = random_hbs(build_tree(96, 12), 4, seed=2)
        a = to_dense(f)
        scale = np.linalg.norm(a, 2)
        for j in (0, 17, 95):
            e = np.zeros(96)
            e[j] = 1.0
            assert np.linalg.norm(apply(f, e) - a[:, j]) <= 1e-12 * scale

    def test_linear(self):
        f = random_hbs(build_tree(60, 10), 3, seed=3)
        rng = np.random.default_rng(0)
        q1, q2 = rng.standard_normal((2, 60))
        lhs = apply(f, 2.5 * q1 - 1.5 * q2)
        rhs = 2.5 * apply(f, q1) - 1.5 * apply(f, q2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())

    def test_rejects_bad_length(self):
        f = random_hbs(build_tree(60, 10), 3, seed=3)
        with pytest.raises(DimensionError):
            apply(f, np.ones(61))

    def test_cost_linear_in_n(self):
        # counted multiply-adds stay under 16 r^2 n on an m = 2r tree
        r = 5
        n = 4096
        f = random_hbs(build_tree(n, 2 * r), r, seed=4)
        with count_madds() as counter:
            apply(f, np.ones(n))
        assert counter.madds <= 16 * r * r * n

    @pytest.mark.parametrize("n", [96, 101])  # uniform and uneven leaves
    @pytest.mark.parametrize("c", [1, 64])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_madds_are_columns_times_stored_floats(self, n, c, transpose):
        f = random_hbs(build_tree(n, 12), 4, seed=8)
        q = np.random.default_rng(3).standard_normal((n, c))
        with count_madds() as counter:
            apply_matrix(f, q, transpose=transpose)
        assert counter.madds == c * storage(f).total_floats


class TestApplyTranspose:
    def test_self_adjoint_case(self):
        f = symmetrized(random_hbs(build_tree(80, 10), 3, seed=5))
        q = np.random.default_rng(1).standard_normal(80)
        fwd = apply(f, q)
        np.testing.assert_allclose(apply_transpose(f, q), fwd, rtol=0, atol=1e-12 * np.abs(fwd).max())

    def test_adjoint_identity(self):
        f = random_hbs(build_tree(70, 9), 3, seed=6)
        rng = np.random.default_rng(2)
        scale = np.linalg.norm(to_dense(f), 2)
        for _ in range(20):
            q = rng.standard_normal(70)
            w = rng.standard_normal(70)
            lhs = w @ apply(f, q)
            rhs = apply_transpose(f, w) @ q
            assert abs(lhs - rhs) <= 1e-11 * np.linalg.norm(w) * np.linalg.norm(q) * scale

    def test_matches_dense_rows(self):
        f = random_hbs(build_tree(96, 12), 4, seed=7)
        a = to_dense(f)
        scale = np.linalg.norm(a, 2)
        for j in (0, 40, 95):
            e = np.zeros(96)
            e[j] = 1.0
            assert np.linalg.norm(apply_transpose(f, e) - a[j, :]) <= 1e-12 * scale


class TestApplyMatrix:
    def test_single_column_matches_apply(self):
        f = random_hbs(build_tree(50, 7), 2, seed=8)
        q = np.random.default_rng(3).standard_normal(50)
        np.testing.assert_array_equal(apply_matrix(f, q[:, None])[:, 0], apply(f, q))

    def test_identity_probe_recovers_dense(self):
        f = random_hbs(build_tree(48, 6), 2, seed=9)
        a = to_dense(f)
        got = apply_matrix(f, np.eye(48))
        assert np.linalg.norm(got - a) <= 1e-12 * np.linalg.norm(a)

    def test_columnwise_agreement(self):
        f = random_hbs(build_tree(64, 8), 3, seed=10)
        q = np.random.default_rng(4).standard_normal((64, 5))
        got = apply_matrix(f, q)
        for j in range(5):
            np.testing.assert_allclose(got[:, j], apply(f, q[:, j]), rtol=0, atol=1e-13)

    def test_rejects_bad_rows(self):
        f = random_hbs(build_tree(64, 8), 3, seed=10)
        with pytest.raises(DimensionError):
            apply_matrix(f, np.ones((63, 2)))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_overflow_raises_nonfinite(self, transpose):
        # finite input whose products overflow: a typed error, not numpy's
        # RuntimeWarning (under filterwarnings = error) or an inf result
        f = random_hbs(build_tree(64, 8), 3, 1)
        with pytest.raises(NonFiniteError, match="overflow: an operand or a product left"):
            apply_matrix(f, np.full((64, 1), 1e308), transpose=transpose)


def per_level_apply(f, q, transpose=False):
    """Reference apply: one stacked product per level and step, each into a
    new array (the down sweep before it wrote in place, range by range)."""
    tree, r, c = f.tree, f.rank, q.shape[1]
    up_bases, down_bases = (f.U, f.V) if transpose else (f.V, f.U)
    x = [None] * tree.depth + [fill_records(q, tree.real_rows)]
    for level in range(tree.depth, 0, -1):
        qhat = up_bases[level].transpose(0, 2, 1) @ x[level]
        x[level - 1] = qhat.reshape(1 << (level - 1), 2 * r, c)
    y = (f.root_disc.T if transpose else f.root_disc) @ x[0][0]
    for level in range(1, tree.depth + 1):
        disc = f.D[level].transpose(0, 2, 1) if transpose else f.D[level]
        y = down_bases[level] @ y.reshape(1 << level, r, c)
        y += disc @ x[level]
    return y[tree.real_rows]


class TestApplyInPlace:
    """The down sweep writes over the up sweep's stacks, range by range."""

    @pytest.mark.parametrize("chunk", [1, 5000, 1 << 40], ids=["one-node", "ragged", "whole-level"])
    @pytest.mark.parametrize("n, m", [(512, 16), (333, 24)], ids=["uniform", "uneven"])
    def test_bitwise_equal_to_per_level_apply(self, n, m, chunk, monkeypatch):
        # one-node ranges, ranges that leave a shorter last one, and one range
        # per level; c = 45 is the synthetic-fine probe count
        f = random_hbs(build_tree(n, m), 4, seed=40)
        monkeypatch.setattr(linalg, "L2_FLOATS", chunk)
        rng = np.random.default_rng(41)
        for c in (1, 2, 45, 64):
            q = rng.standard_normal((n, c))
            for transpose in (False, True):
                want = per_level_apply(f, q, transpose)
                assert np.array_equal(apply_matrix(f, q, transpose=transpose), want)

    @pytest.mark.parametrize("k, c", [(0, 3), (2, 0)], ids=["rank-zero", "no-columns"])
    def test_empty_stacks(self, k, c):
        # rank 0 leaves the parent levels 0 rows; c = 0 empties every stack
        f = random_hbs(build_tree(40, 5), k, seed=47)
        q = np.random.default_rng(48).standard_normal((40, c))
        for transpose in (False, True):
            want = per_level_apply(f, q, transpose)
            assert np.array_equal(apply_matrix(f, q, transpose=transpose), want)

    @pytest.mark.parametrize("chunk", [1, 1 << 40], ids=["one-node", "whole-level"])
    def test_input_is_not_written(self, chunk, monkeypatch):
        # on a uniform tree the leaf stack is a view of q itself
        tree = build_tree(256, 16)
        f = random_hbs(tree, 4, seed=42)
        monkeypatch.setattr(linalg, "L2_FLOATS", chunk)
        q = np.random.default_rng(43).standard_normal((256, 8))
        assert np.shares_memory(fill_records(q, tree.real_rows), q)
        before = q.copy()
        for transpose in (False, True):
            apply_matrix(f, q, transpose=transpose)
            assert np.array_equal(q, before)

    def test_no_state_is_kept_on_the_factorization(self):
        # the first apply caches total_floats; later ones add nothing
        f = random_hbs(build_tree(256, 16), 4, seed=44)
        apply_matrix(f, np.ones((256, 1)))
        attributes = dict(vars(f))
        apply_matrix(f, np.ones((256, 64)))
        assert vars(f).keys() == attributes.keys()
        assert all(vars(f)[key] is value for key, value in attributes.items())

    def test_peak_is_the_up_sweep_stacks_and_the_output(self):
        # 64 columns on 256 leaves of 16 rows: the output (2 MB) is larger
        # than the 1 MiB left for range temporaries, so a level-sized
        # discrepancy product or a second leaf-level output would exceed it
        n, c, r = 4096, 64, 4
        f = random_hbs(build_tree(n, 16), r, seed=45)
        q = np.random.default_rng(46).standard_normal((n, c))
        stacks = (2 ** (f.tree.depth + 1) - 2) * r * c
        tracemalloc.start()
        try:
            for transpose in (False, True, False):
                apply_matrix(f, q, transpose=transpose)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (stacks + n * c) + (1 << 20)


class TestNonRealInput:
    """Every apply entry takes real input only, by a dtype test."""

    ENTRIES = {
        "apply": apply,
        "apply_transpose": apply_transpose,
        "apply_matrix": lambda f, q: apply_matrix(f, q[:, None]),
    }

    @pytest.mark.parametrize("value", [1 + 1j, "1"], ids=["complex", "string"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_rejects_non_real(self, entry, value):
        # a float64 cast would drop an imaginary part with only a ComplexWarning,
        # and fail on strings with an untyped ValueError
        f = random_hbs(build_tree(64, 8), 3, seed=1)
        with pytest.raises(DimensionError, match="apply input is .*, not real"):
            self.ENTRIES[entry](f, np.full(64, value))

    def test_rejects_ragged_input(self):
        f = random_hbs(build_tree(64, 8), 3, seed=1)
        ragged = [1.0] * 63 + [[1.0, 2.0]]
        with pytest.raises(DimensionError, match="apply input is ragged"):
            hbs.apply(f, ragged)

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_bool_int_and_float32_input_apply_as_float64(self, entry):
        f = random_hbs(build_tree(64, 8), 3, seed=1)
        q = np.arange(64) % 2
        expected = self.ENTRIES[entry](f, q.astype(np.float64))
        for a in (q, q.astype(np.float32), q.astype(bool)):
            np.testing.assert_array_equal(self.ENTRIES[entry](f, a), expected, strict=True)


class TestToDense:
    def test_depth_one_formula(self):
        # two-level expansion written out block by block
        tree = build_tree(4, 2)
        rng = np.random.default_rng(11)
        u = np.stack([np.linalg.qr(rng.standard_normal((2, 1)))[0] for _ in range(2)])
        v = np.stack([np.linalg.qr(rng.standard_normal((2, 1)))[0] for _ in range(2)])
        d = np.stack([rng.standard_normal((2, 2)) for _ in range(2)])
        root = rng.standard_normal((2, 2))
        f = HbsFactorization(tree, 1, [None, u], [None, v], [None, d], root)
        u_blk = scipy.linalg.block_diag(*u)
        v_blk = scipy.linalg.block_diag(*v)
        d_blk = scipy.linalg.block_diag(*d)
        expected = u_blk @ root @ v_blk.T + d_blk
        np.testing.assert_allclose(to_dense(f), expected, atol=1e-14)

    def test_zero_factorization(self):
        f = zeroed_discs(random_hbs(build_tree(32, 4), 2, seed=12))
        np.testing.assert_array_equal(to_dense(f), np.zeros((32, 32)))

    def test_respects_cap(self):
        f = random_hbs(build_tree(64, 8), 3, seed=13)
        with pytest.raises(ResourceLimitError):
            to_dense(f, max_n=32)


class TestStorage:
    def test_hand_count_depth_one(self):
        # N=4, r=1, two leaves of size 2:
        # bases 2*(2*1)*2 = 8, leaf discs 2*(2*2) = 8, root 2*2 = 4 -> 20
        tree = build_tree(4, 2)
        f = random_hbs(tree, 1, seed=14)
        report = storage(f)
        assert report.total_floats == 20
        assert report.floats_per_dof == 5.0

    def test_breakdown_sums_to_total(self):
        f = random_hbs(build_tree(300, 20), 5, seed=15)
        report = storage(f)
        blocks = sum(block.size
                     for level in range(1, f.tree.depth + 1)
                     for j in range(2**level)
                     for block in node_blocks(f, level, j))
        assert report.total_floats == blocks + f.root_disc.size

    def test_flat_per_dof_when_n_doubles(self):
        r = 5
        reports = [
            storage(random_hbs(build_tree(n, 2 * r), r, seed=16)) for n in (640, 1280)
        ]
        ratio = reports[1].floats_per_dof / reports[0].floats_per_dof
        assert 0.95 <= ratio <= 1.05


def reference_random_hbs(tree, k, seed):
    """The generator written node by node: each node's column basis, row
    basis and discrepancy drawn in turn, in level order."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_SYNTHETIC,))
    )
    f = HbsFactorization.zeros(tree, k)
    for level in range(1, tree.depth + 1):
        for j in range(1 << level):
            blocks = node_blocks(f, level, j)
            rows = blocks[0].shape[0]
            u = np.linalg.qr(rng.standard_normal((rows, k)))[0]
            v = np.linalg.qr(rng.standard_normal((rows, k)))[0]
            d = rng.standard_normal((rows, rows))
            d -= u @ (u.T @ d @ v) @ v.T
            for block, value in zip(blocks, (u, v, d)):
                block[...] = value
    f.root_disc[...] = rng.standard_normal((2 * k, 2 * k))
    return f


class TestRandomHbs:
    @pytest.mark.parametrize(
        "n, m, k",
        [(96, 12, 4), (101, 12, 5), (16001, 160, 35)],
        ids=["uniform", "uneven", "uneven-blocked-qr"],
    )
    def test_matches_per_node_reference(self, n, m, k):
        # k > 32 takes LAPACK's blocked QR
        tree = build_tree(n, m)
        f, ref = random_hbs(tree, k, seed=30), reference_random_hbs(tree, k, seed=30)
        for level in range(1, tree.depth + 1):
            for got, want in ((f.U, ref.U), (f.V, ref.V), (f.D, ref.D)):
                assert np.array_equal(got[level], want[level])
        assert np.array_equal(f.root_disc, ref.root_disc)

    def test_zero_rank_is_block_diagonal(self):
        tree = build_tree(40, 5)
        f = random_hbs(tree, 0, seed=17)
        a = to_dense(f)
        for begin, end in zip(tree.offsets, tree.offsets[1:]):
            mask = np.ones(40, dtype=bool)
            mask[begin:end] = False
            assert np.all(a[begin:end][:, mask] == 0.0)

    def test_off_diagonal_blocks_have_rank_k(self):
        k = 3
        tree = build_tree(120, 15)
        a = to_dense(random_hbs(tree, k, seed=18))
        for level in range(1, tree.depth + 1):
            b = level_bounds(tree, level)
            for j2 in (1, len(b) - 2):
                block = a[b[0] : b[1], b[j2] : b[j2 + 1]]
                sv = np.linalg.svd(block, compute_uv=False)
                assert sv[k] <= 1e-12 * sv[0]

    def test_deterministic(self):
        tree = build_tree(64, 8)
        f1 = random_hbs(tree, 3, seed=19)
        f2 = random_hbs(tree, 3, seed=19)
        np.testing.assert_array_equal(to_dense(f1), to_dense(f2))

    def test_rejects_oversized_rank(self):
        with pytest.raises(DimensionError):
            random_hbs(build_tree(40, 5), 6, seed=20)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            random_hbs(build_tree(40, 5), 2, seed=-1)

    def test_non_integer_rank_is_config_error(self):
        # a float rank escaped as a bare TypeError
        with pytest.raises(ConfigurationError, match="k must be an integer"):
            random_hbs(build_tree(40, 5), 2.5, seed=0)


class TestValidation:
    def test_rejects_non_orthonormal_basis(self):
        f = random_hbs(build_tree(32, 4), 2, seed=26)
        f.U[1][0] = 2.0 * f.U[1][0]
        with pytest.raises(ValueError):
            f.validate()

    def test_malformed_blocks_are_format_error(self):
        f = random_hbs(build_tree(32, 4), 2, seed=26)
        f.V[2][1] = 2.0 * f.V[2][1]
        with pytest.raises(FormatError, match="node 4: row basis orthonormality"):
            f.validate()

    def test_rejects_non_finite_disc(self):
        f = random_hbs(build_tree(32, 4), 2, seed=27)
        f.D[2][0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            f.validate()

    def test_rejects_wrong_block_shape(self):
        f = random_hbs(build_tree(32, 4), 2, seed=28)
        bad_u = list(f.U)
        bad_u[1] = np.zeros((2, 5, 2))
        with pytest.raises(DimensionError):
            HbsFactorization(f.tree, f.rank, bad_u, f.V, f.D, f.root_disc)

    def test_rejects_wrong_root_shape(self):
        f = random_hbs(build_tree(32, 4), 2, seed=29)
        with pytest.raises(DimensionError):
            HbsFactorization(f.tree, f.rank, f.U, f.V, f.D, np.zeros((3, 3)))


def _pad_disc_entry(f):
    """Set one padding entry of a leaf discrepancy block of an uneven tree."""
    j = f.tree.leaf_sizes.index(f.tree.min_leaf_size)
    f.D[f.tree.depth][j, -1, 0] = 1.0


def _nan_root(f):
    f.root_disc[0, 0] = np.nan


class TestMalformedInput:
    @pytest.mark.parametrize(
        "corrupt, match",
        [(_pad_disc_entry, "outside the leaf size"), (_nan_root, "root core has non-finite")],
        ids=["leaf-padding", "root-core"],
    )
    def test_validate_rejects(self, corrupt, match):
        f = random_hbs(build_tree(36, 5), 2, seed=30)  # leaves of 4 and 5 rows
        corrupt(f)
        with pytest.raises(FormatError, match=match):
            f.validate()

    def test_rejects_stack_lists_of_wrong_length(self):
        f = random_hbs(build_tree(32, 4), 2, seed=31)
        with pytest.raises(DimensionError, match="need block stacks for levels 0..3"):
            HbsFactorization(f.tree, f.rank, f.U[:-1], f.V, f.D, f.root_disc)

    def test_random_hbs_rejects_negative_rank(self):
        with pytest.raises(DimensionError, match="block rank must be nonnegative"):
            random_hbs(build_tree(32, 4), -1, seed=32)


class TestInvariants:
    def test_apply_dense_equivalence(self):
        rng = np.random.default_rng(21)
        for n, m, k in ((100, 10, 3), (256, 16, 5), (515, 33, 7)):
            f = random_hbs(build_tree(n, m), k, seed=int(rng.integers(1 << 30)))
            a = to_dense(f)
            scale = np.linalg.norm(a, 2)
            cols = rng.choice(n, size=8, replace=False)
            for j in cols:
                e = np.zeros(n)
                e[j] = 1.0
                assert np.linalg.norm(apply(f, e) - a[:, j]) <= 1e-12 * scale

    def test_adjoint_identity_many_pairs(self):
        f = random_hbs(build_tree(128, 16), 4, seed=22)
        scale = np.linalg.norm(to_dense(f), 2)
        rng = np.random.default_rng(23)
        for _ in range(100):
            q = rng.standard_normal(128)
            w = rng.standard_normal(128)
            gap = abs(w @ apply(f, q) - apply_transpose(f, w) @ q)
            assert gap <= 1e-11 * np.linalg.norm(q) * np.linalg.norm(w) * scale

    def test_storage_flat_across_decade(self):
        r = 4
        per_dof = [
            storage(random_hbs(build_tree(n, 2 * r), r, seed=24)).floats_per_dof
            for n in (256, 512, 1024, 2048)
        ]
        assert max(per_dof) / min(per_dof) <= 1.2
