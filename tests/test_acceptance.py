"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, printing one pass line per criterion (run with -s to see them).

The error metric throughout is the 20-iteration power-method estimate of
||A_compressed - A|| / ||A||, evaluated through matvecs only.  Probe
counters are snapshotted immediately after compression, before any
verification matvecs, so they show exactly what compression consumed.
"""

import numpy as np
from conftest import dense_factorization

import hbs
from hbs import bench, operators
from hbs.compress import CompressionConfig, compress_from_samples, compress_operator, draw_samples
from hbs.factorization import apply_matrix, random_hbs, to_dense
from hbs.flops import count_madds
from hbs.operators import default_contour, dense_oracle, hbs_oracle, ntd_oracle, schur_oracle
from hbs.serialize import load_factorization, save_factorization
from hbs.tree import build_tree


def report(name, detail):
    print(f"ACCEPTANCE PASS: {name} ({detail})")


def test_exact_rank_oracle_recovery():
    # k in {1,5,10} x depths 1..4, r = k+5, m = 2r, s = 3r: rel_err <= 1e-9
    worst = 0.0
    for k in (1, 5, 10):
        r = k + 5
        m = 2 * r
        s = 3 * r
        for depth in (1, 2, 3, 4):
            n = m * 2**depth
            assert n <= 4096
            tree = build_tree(n, m)
            assert tree.depth == depth
            a = to_dense(random_hbs(tree, k, seed=100 + k + depth))
            oracle = dense_oracle(a)
            config = CompressionConfig(rank=r, leaf_threshold=m, probes=s, seed=0)
            f = compress_operator(oracle, config)
            assert oracle.matvec_count == (s, s)
            err = bench.estimate_rel_err(oracle, f, iters=20, seed=0)
            worst = max(worst, err)
            assert err <= 1e-9, f"k={k} depth={depth}: rel_err {err:.3e} > 1e-9"
    report("exact-rank oracle recovery", f"worst rel_err {worst:.3e} <= 1e-9")


def test_probe_budget_exactness():
    # exactly s columns through each direction; the oracle interface has no
    # entrywise access path at all
    for n, r, m in ((512, 8, 16), (960, 15, 30), (2048, 10, 20)):
        tree = build_tree(n, m)
        a = to_dense(random_hbs(tree, max(1, r - 5), seed=n))
        oracle = dense_oracle(a)
        config = CompressionConfig(rank=r, leaf_threshold=m, seed=1)
        s = config.validate_for(tree)
        compress_operator(oracle, config)
        assert oracle.matvec_count == (s, s)
    assert not hasattr(oracle, "entry")  # no entry-access channel exists
    report("probe budget exactness", "counters == (s, s) on every run")


def test_apply_matches_dense_reconstruction():
    # 50 random factorizations, N <= 2048: columnwise agreement <= 1e-12
    rng = np.random.default_rng(2024)
    shapes = [(64, 8, 3), (100, 10, 4), (192, 16, 5), (257, 18, 6), (512, 32, 9)] * 9
    shapes += [(1024, 64, 12), (1536, 48, 10), (2048, 128, 15), (96, 12, 2), (333, 21, 7)]
    assert len(shapes) == 50
    worst = 0.0
    for n, m, k in shapes:
        f = random_hbs(build_tree(n, m), k, seed=int(rng.integers(1 << 31)))
        dense = to_dense(f)
        scale = np.linalg.norm(dense, 2) if n <= 512 else np.linalg.norm(dense)
        diff = apply_matrix(f, np.eye(n)) - dense
        col_err = np.linalg.norm(diff, axis=0).max() / scale
        worst = max(worst, col_err)
        assert col_err <= 1e-12, f"n={n} m={m} k={k}: columnwise err {col_err:.3e}"
    report("telescoping apply vs dense", f"50 factorizations, worst {worst:.3e} <= 1e-12")


def test_bie_double_layer_sweep():
    # r=30, m=60, s=90 on the default contour across four doublings
    contour = default_contour()
    errs, per_dof = [], []
    for n in (1200, 2400, 4800, 9600):
        oracle = operators.bie_oracle(n, contour)
        config = CompressionConfig(rank=30, leaf_threshold=60, probes=90, seed=0)
        f = compress_operator(oracle, config)
        assert oracle.matvec_count == (90, 90)
        errs.append(bench.estimate_rel_err(oracle, f, iters=20, seed=0))
        per_dof.append(hbs.storage(f).floats_per_dof)
        del oracle, f  # free the dense stand-in before the next size
    assert all(err <= 1e-8 for err in errs), errs
    assert max(errs) / min(errs) < 10.0, errs
    top = per_dof[-3:]
    mean = sum(top) / 3.0
    assert all(abs(x - mean) <= 0.1 * mean for x in top), per_dof
    report(
        "boundary integral sweep",
        f"rel_err {min(errs):.2e}..{max(errs):.2e} <= 1e-8, "
        f"spread {max(errs)/min(errs):.2f}x < 10x, floats/dof {per_dof}",
    )


def test_neumann_to_dirichlet_sweep():
    # r=40, m=80; the hard bound is 1e-7.  The flatness bound is 100x: the
    # log kernel's touching-block ranks grow slowly with N, so the
    # fixed-rank error floor itself rises ~10x over this sweep (verified
    # densely); 100x guards against genuine error aggregation on top.
    contour = default_contour()
    errs = []
    for n in (1000, 2000, 4000):
        oracle = ntd_oracle(n, contour)
        f = compress_operator(oracle, CompressionConfig(rank=40, leaf_threshold=80, seed=0))
        s = max(40 + build_tree(n, 80).max_leaf_size, 120)
        assert oracle.matvec_count == (s, s)
        errs.append(bench.estimate_rel_err(oracle, f, iters=20, seed=0))
        del oracle, f
    assert all(err <= 1e-7 for err in errs), errs
    assert max(errs) / min(errs) <= 100.0, errs
    report(
        "neumann-to-dirichlet sweep",
        f"rel_err {min(errs):.2e}..{max(errs):.2e} <= 1e-7, spread {max(errs)/min(errs):.1f}x",
    )


def test_schur_complement_sweep():
    # height-51 grid, separator widths 400/800/1600, r=30, m=60
    errs, syms = [], []
    for width in (400, 800, 1600):
        oracle = schur_oracle(width, 51)
        config = CompressionConfig(rank=30, leaf_threshold=60, probes=90, seed=0)
        f = compress_operator(oracle, config)
        assert oracle.matvec_count == (90, 90)
        errs.append(bench.estimate_rel_err(oracle, f, iters=20, seed=0))
        dense = to_dense(f)
        syms.append(np.linalg.norm(dense - dense.T) / np.linalg.norm(dense))
        del oracle, f, dense
    assert all(err <= 1e-8 for err in errs), errs
    assert all(sym <= 1e-10 for sym in syms), syms
    report(
        "schur complement sweep",
        f"rel_err <= {max(errs):.2e} (bound 1e-8), symmetry defect <= {max(syms):.2e} (1e-10)",
    )


def test_linear_complexity_of_compression():
    # counted post-sampling multiply-adds double when N doubles (r=15, m=30,
    # matrix-free synthetic oracle); flat madds/N rules out N log N drift
    madds = {}
    sizes = (16384, 32768, 65536, 131072)
    for n in sizes:
        tree = build_tree(n, 30)
        oracle = hbs_oracle(random_hbs(tree, 10, seed=7))
        config = CompressionConfig(rank=15, leaf_threshold=30, probes=45, seed=0)
        samples = draw_samples(oracle, 45, 0)
        with count_madds() as counter:
            compress_from_samples(samples, tree, config)
        madds[n] = counter.madds
    ratios = [madds[b] / madds[a] for a, b in zip(sizes, sizes[1:])]
    assert all(1.8 <= ratio <= 2.3 for ratio in ratios), ratios
    per_n = [madds[n] / n for n in sizes]
    assert max(per_n) / min(per_n) <= 1.1, per_n  # an N log N term would grow ~23%
    report(
        "linear complexity",
        f"doubling ratios {[f'{x:.3f}' for x in ratios]} in [1.8, 2.3], "
        f"madds/N flat at {per_n[0]:.0f}..{per_n[-1]:.0f}",
    )


def test_serialization_round_trip():
    # 100 random factorizations restore every block bit-exactly
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(99)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.hbsf"
        for i in range(100):
            n = int(rng.integers(24, 320))
            m = int(rng.integers(4, max(5, n // 4)))
            tree = build_tree(n, m)
            k = int(rng.integers(0, min(tree.min_leaf_size, 6) + 1))
            f = random_hbs(tree, k, seed=i)
            save_factorization(f, path)
            g = load_factorization(path)
            assert np.array_equal(f.root_disc, g.root_disc)
            for level in range(1, tree.depth + 1):
                assert np.array_equal(f.U[level], g.U[level])
                assert np.array_equal(f.V[level], g.V[level])
                assert np.array_equal(f.D[level], g.D[level])
    report("serialization", "100 factorizations round-tripped bit-exactly")


def test_power_method_metric_sanity():
    # the estimate, at most 20 steps, lands in [0.9, 1.0] x true norm for operators
    # with a well-separated top singular value (it is a lower-bound estimator)
    rng = np.random.default_rng(41)
    checked = []
    for trial in range(5):
        n = 48
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sing = np.concatenate(([3.0], rng.uniform(0.1, 1.5, size=n - 1)))
        e = (u * sing) @ v.T
        true = 3.0
        # the oracle is the identity, the compressed operator I - E
        f = dense_factorization(np.eye(n) - e)
        est = bench.estimate_rel_err(dense_oracle(np.eye(n)), f, iters=20, seed=trial)
        checked.append(est / true)
        assert 0.9 * true <= est <= true * (1.0 + 1e-12)
    report("power-method metric", f"estimate/true in {min(checked):.4f}..{max(checked):.4f}")
