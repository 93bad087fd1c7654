"""Tests for the measurement harness."""

import numpy as np
import pytest
from conftest import dense_factorization

from hbs import factorization, linalg
from hbs.bench import CSV_HEADER, RunRecord, build_oracle, estimate_rel_err, run_once, sweep
from hbs.compress import CompressionConfig, compress_operator
from hbs.errors import ConfigurationError, NonFiniteError
from hbs.linalg import STREAM_POWER, gaussian_matrix
from hbs.operators import default_contour, dense_oracle, ntd_oracle
from hbs.oracle import MatVecOracle
from hbs.tree import build_tree


class TestRunOnce:
    def test_synthetic_record(self):
        config = CompressionConfig(rank=15, leaf_threshold=30, probes=45, seed=1)
        record, _ = run_once("synthetic", 960, config)
        assert record.problem == "synthetic"
        assert (record.n, record.r, record.m, record.s) == (960, 15, 30, 45)
        assert record.rel_err <= 1e-9
        assert record.matvecs_a == record.matvecs_at == 45
        assert 1 <= record.verify_matvecs <= linalg.POWER_ITERS  # counted apart from them
        assert record.t_sample >= 0 and record.t_compress >= 0 and record.t_apply >= 0
        assert record.t_verify > 0 and record.t_build > 0
        assert record.workers == linalg.WORKERS

    def test_default_probe_resolution(self):
        config = CompressionConfig(rank=10, leaf_threshold=20, seed=2)
        record, _ = run_once("synthetic", 400, config)
        assert record.s == 30  # max(r + max leaf, 3r) = max(10 + 20, 30)

    def test_deterministic(self):
        config = CompressionConfig(rank=8, leaf_threshold=16, seed=3)
        r1, _ = run_once("synthetic", 256, config)
        r2, _ = run_once("synthetic", 256, config)
        assert r1.rel_err == r2.rel_err
        assert r1.floats_per_dof == r2.floats_per_dof

    def test_bie_uses_requested_probes(self):
        config = CompressionConfig(rank=10, leaf_threshold=20, probes=30, seed=4)
        record, _ = run_once("bie-dl", 240, config)
        assert record.s == 30
        assert record.matvecs_a == record.matvecs_at == 30

    def test_bie_benchmark_parameterization(self):
        # the reference operating point: s = 3r with m = 2r
        config = CompressionConfig(rank=30, leaf_threshold=60, probes=90, seed=0)
        record, _ = run_once("bie-dl", 2000, config)
        assert record.s == 90 == 3 * record.r
        assert record.m == 2 * record.r
        assert record.matvecs_a == record.matvecs_at == 90

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            build_oracle("laplace", 64, CompressionConfig(rank=4, leaf_threshold=8))

    def test_bie_ntd_oracle(self):
        oracle = build_oracle("bie-ntd", 64, CompressionConfig(rank=4, leaf_threshold=8))
        x = np.random.default_rng(11).standard_normal((64, 2))
        expected = ntd_oracle(64, default_contour()).apply_batch(x)
        np.testing.assert_array_equal(oracle.apply_batch(x), expected)

    def test_negative_seed_rejected_before_oracle_assembly(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the oracle was built for a negative seed")

        monkeypatch.setattr("hbs.bench.build_oracle", no_oracle)
        config = CompressionConfig(rank=30, leaf_threshold=60, probes=90, seed=-1)
        with pytest.raises(ConfigurationError, match="seed must be nonnegative, got -1"):
            run_once("bie-dl", 4800, config)

    @pytest.mark.parametrize("iters", [2.5, True])
    @pytest.mark.parametrize("entry", [estimate_rel_err], ids=["estimate_rel_err"])
    def test_power_iters_must_be_an_integer(self, entry, iters):
        f = dense_factorization(np.eye(4))
        message = f"power iterations must be an integer, got {iters}"
        with pytest.raises(ConfigurationError, match=message):
            entry(dense_oracle(np.eye(4)), f, iters=iters)


class TestSweep:
    def test_csv_schema_and_flatness(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = CompressionConfig(rank=6, leaf_threshold=12, seed=5)
        records = sweep("synthetic", [256, 512], config, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        ratio = records[1].floats_per_dof / records[0].floats_per_dof
        assert 0.9 <= ratio <= 1.1

    def test_rerun_reproduces_errors(self, tmp_path):
        config = CompressionConfig(rank=6, leaf_threshold=12, seed=6)
        r1 = sweep("synthetic", [128, 256], config, tmp_path / "a.csv")
        r2 = sweep("synthetic", [128, 256], config, tmp_path / "b.csv")
        assert [x.rel_err for x in r1] == [x.rel_err for x in r2]

    def test_json_lines(self, tmp_path):
        import json

        out = tmp_path / "sweep.jsonl"
        config = CompressionConfig(rank=6, leaf_threshold=12, seed=7)
        sweep("synthetic", [128], config, out, as_json=True)
        (line,) = out.read_text().strip().splitlines()
        row = json.loads(line)
        assert row["problem"] == "synthetic" and row["n"] == 128
        assert set(row) == set(CSV_HEADER.split(","))

    def test_rejects_unsorted_sizes(self, tmp_path):
        config = CompressionConfig(rank=6, leaf_threshold=12, seed=8)
        with pytest.raises(ConfigurationError):
            sweep("synthetic", [256, 128], config, tmp_path / "c.csv")

    def test_rejects_empty_sizes(self, tmp_path):
        config = CompressionConfig(rank=6, leaf_threshold=12, seed=8)
        with pytest.raises(ConfigurationError, match=r"nonempty, got \[\]"):
            sweep("synthetic", [], config, tmp_path / "c.csv")
        assert not (tmp_path / "c.csv").exists()

    def test_partial_rows_survive_failure(self, tmp_path, monkeypatch):
        out = tmp_path / "partial.csv"
        # the config passes at both sizes; the second size fails in its run
        build = build_oracle

        def failing_oracle(problem, n, config):
            if n == 192:
                raise NonFiniteError("oracle product holds non-finite entries")
            return build(problem, n, config)

        monkeypatch.setattr("hbs.bench.build_oracle", failing_oracle)
        config = CompressionConfig(rank=5, leaf_threshold=12, probes=20, seed=9)
        with pytest.raises(NonFiniteError):
            sweep("synthetic", [128, 192], config, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2  # header plus the completed first row

    def test_config_rejected_at_a_later_size_writes_no_file(self, tmp_path):
        # 15 probes satisfy max(r + max leaf, 3r) at n=128 (leaves of 8) but
        # not at n=192 (leaves of 12): no size runs, and no file is opened
        out = tmp_path / "rejected.csv"
        config = CompressionConfig(rank=5, leaf_threshold=12, probes=15, seed=9)
        with pytest.raises(ConfigurationError):
            sweep("synthetic", [128, 192], config, out)
        assert not out.exists()


class TestCsvSchema:
    # The schema's contract: columns are only ever appended, in these formats.
    def test_header_is_pinned(self):
        assert CSV_HEADER == (
            "problem,n,r,m,s,seed,t_sample,t_compress,t_apply,rel_err,floats_per_dof,"
            "matvecs_a,matvecs_at,t_verify,t_build,workers,verify_matvecs"
        )

    def test_row_format_is_pinned(self):
        record = RunRecord(
            "synthetic", 256, 6, 12, 18, 5, 0.001, 0.002, 0.0003, 1.5e-12, 12.25, 18, 18, 0.004,
            0.005, 2, 7,
        )
        assert record.csv_row() == (
            "synthetic,256,6,12,18,5,1.000000e-03,2.000000e-03,3.000000e-04,1.500000e-12,"
            "12.250000,18,18,4.000000e-03,5.000000e-03,2,7"
        )


class TestSchurRecord:
    def test_schur_small(self):
        config = CompressionConfig(rank=16, leaf_threshold=32, seed=10)
        record, _ = run_once("schur", 80, config)
        assert record.rel_err <= 1e-10
        assert record.matvecs_a == record.matvecs_at == record.s


def lanczos(v, iters):
    """Golub-Kahan-Lanczos on one operator, one n x 1 vector at a time: a
    generator that yields the vector to multiply next (v_1, u_1, v_2, ...)
    and is sent its product.  It returns (estimate, steps).  The arithmetic
    is the estimator's, so the two agree bit for bit.  Other arithmetic
    would not even agree closely: each product of A - F carries rounding
    of order eps ||A||, which at a ratio near 1e-14 moves the estimate in
    its fourth digit."""

    def unit_rest(p, basis):  # classical Gram-Schmidt, taken twice
        q = np.asfortranarray(np.hstack(basis)) if basis else np.zeros((len(p), 0))
        for _ in range(2):
            p = p - q @ (q.T @ p)
        norm = np.linalg.norm(p)
        return norm, p / norm if norm else p

    vs, us, b, estimate = [v], [], np.zeros((iters, iters + 1)), 0.0
    while True:
        alpha, u = unit_rest((yield vs[-1]), us)
        if alpha == 0.0:
            break
        us.append(u)
        k = len(us)
        b[k - 1, k - 1] = alpha
        beta, v = unit_rest((yield u), vs)
        vs.append(v)
        b[k - 1, k] = beta
        top = np.linalg.svd(b[:k, : k + 1], compute_uv=False)[0]
        grew, estimate = top - estimate, top
        if beta == 0.0 or k == iters or grew <= 1e-4 * estimate:
            break
    return estimate, len(vs) - 1


def reference_rel_err(oracle, f, iters, seed):
    """The two chains in lockstep, one vector at a time: every oracle product
    is a single column, and F's products are stacked n x 2, error chain
    first, while both chains run.  Returns (rel_err, error chain steps): the
    error chain's estimate over the reference chain's, which runs on F."""
    x0 = gaussian_matrix(oracle.n, 1, seed, STREAM_POWER)
    chains = [lanczos(x0 / np.linalg.norm(x0), iters) for _ in range(2)]
    qs, results = [next(chain) for chain in chains], [None, None]
    transpose = False
    while any(q is not None for q in qs):
        live = [i for i in (0, 1) if qs[i] is not None]
        fq = factorization.apply_matrix(f, np.hstack([qs[i] for i in live]), transpose)
        a = oracle.apply_transpose_batch if transpose else oracle.apply_batch
        products = {i: fq[:, j : j + 1] for j, i in enumerate(live)}
        if 0 in products:  # the error chain, on A - F
            products[0] = a(qs[0]) - products[0]
        for i, product in products.items():
            try:
                qs[i] = chains[i].send(product)
            except StopIteration as stop:
                qs[i], results[i] = None, stop.value
        transpose = not transpose
    (estimate, steps), (reference, _) = results
    return estimate / reference, steps


class TestEstimateRelErr:
    @pytest.mark.parametrize(
        "problem, n, rank, leaf, iters",
        [
            ("synthetic", 256, 8, 16, 20),  # uniform leaves
            ("synthetic", 1001, 8, 16, 20),  # uneven leaves
            ("bie-dl", 480, 30, 60, 7),  # dense oracle
        ],
    )
    def test_matches_per_vector_reference(self, problem, n, rank, leaf, iters):
        config = CompressionConfig(rank=rank, leaf_threshold=leaf, seed=3)
        oracle = build_oracle(problem, n, config)
        f = compress_operator(oracle, config)
        before = oracle.matvec_count
        rel_err = estimate_rel_err(oracle, f, iters=iters, seed=5)
        after = oracle.matvec_count
        expected, steps = reference_rel_err(oracle, f, iters, seed=5)
        # one oracle column per direction for each error step, none for the reference norm
        assert (after[0] - before[0], after[1] - before[1]) == (steps, steps)
        assert steps < iters  # the convergence stop, not the cap
        assert rel_err == expected
        assert 0.0 < rel_err < 1e-6

    def test_close_to_the_true_ratio(self):
        # a dense check of what the estimate stands for: ||A - F||_2 / ||A||_2.
        # Rounding of order eps ||A|| in each product of A - F lets it read a
        # little above the dense value at this ratio of 1e-9
        config = CompressionConfig(rank=30, leaf_threshold=60, seed=3)
        oracle = build_oracle("bie-dl", 480, config)
        f = compress_operator(oracle, config)
        a = oracle.apply_batch(np.eye(480))
        true = np.linalg.norm(a - factorization.to_dense(f), 2) / np.linalg.norm(a, 2)
        rel_err = estimate_rel_err(oracle, f, seed=5)
        assert 0.99 * true <= rel_err <= 1.001 * true

    @pytest.mark.parametrize("rank", [1, 2])
    def test_low_rank_error_is_exact_within_three_steps(self, rank):
        # with F = I the reference is 1 and the estimate is ||E||_2 itself;
        # the Krylov space of a rank-r E holds its top singular vector after r steps
        rng = np.random.default_rng(20 + rank)
        e = rng.standard_normal((64, rank)) @ rng.standard_normal((rank, 64))
        oracle = dense_oracle(np.eye(64) + e)
        rel_err = estimate_rel_err(oracle, dense_factorization(np.eye(64)), seed=3)
        assert abs(rel_err - np.linalg.norm(e, 2)) <= 1e-12 * np.linalg.norm(e, 2)
        assert oracle.matvec_count[0] == oracle.matvec_count[1] <= 3

    def test_zero_error_returns_zero(self):
        # E = 0 breaks the error chain down on its first product, the one
        # oracle column; the reference runs on F alone
        ident = np.eye(16)
        oracle = dense_oracle(ident)
        assert estimate_rel_err(oracle, dense_factorization(ident), seed=2) == 0.0
        assert oracle.matvec_count == (1, 0)

    def test_one_step(self):
        # iters=1: sqrt(alpha^2 + beta^2) = ||E^T E v|| / ||E v|| for the unit
        # start v, over the same for F = I, which is 1
        rng = np.random.default_rng(5)
        e = 1e-3 * rng.standard_normal((32, 32))
        oracle = dense_oracle(np.eye(32) + e)
        rel_err = estimate_rel_err(oracle, dense_factorization(np.eye(32)), iters=1, seed=4)
        v = gaussian_matrix(32, 1, 4, STREAM_POWER)[:, 0]
        v /= np.linalg.norm(v)
        expected = np.linalg.norm(e.T @ (e @ v)) / np.linalg.norm(e @ v)
        assert rel_err == pytest.approx(expected, rel=1e-9)
        assert oracle.matvec_count == (1, 1)

    def test_reaches_the_factorization_through_its_module(self, monkeypatch):
        # the benchmark's tracer times verification's F products and its draw by
        # wrapping hbs.factorization.apply_matrix and hbs.linalg.gaussian_matrix;
        # a name bound at import would escape it.  The oracle sees single
        # columns only, and F at most the two chains' columns stacked.
        rng = np.random.default_rng(9)
        f = factorization.random_hbs(build_tree(64, 8), 2, seed=6)
        a = factorization.to_dense(f) + 1e-3 * rng.standard_normal((64, 64))
        oracle_widths, f_calls, draws = [], [], []
        oracle = MatVecOracle(
            64,
            lambda x: oracle_widths.append(x.shape[1]) or a @ x,
            lambda x: oracle_widths.append(x.shape[1]) or a.T @ x,
        )
        apply_matrix, draw = factorization.apply_matrix, linalg.gaussian_matrix

        def counting(f, q, transpose=False):
            f_calls.append((transpose, q.shape[1]))
            return apply_matrix(f, q, transpose)

        def counting_draw(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(factorization, "apply_matrix", counting)
        monkeypatch.setattr(linalg, "gaussian_matrix", counting_draw)
        iters = 6
        estimate_rel_err(oracle, f, iters=iters, seed=1)
        assert set(oracle_widths) == {1} and len(oracle_widths) == sum(oracle.matvec_count)
        widths = {width for _, width in f_calls}
        assert 2 in widths and widths <= {1, 2}
        # each chain takes as many F columns forward as transposed, one per step
        forward = sum(width for transpose, width in f_calls if not transpose)
        assert forward == sum(width for transpose, width in f_calls if transpose)
        steps_e = oracle.matvec_count[0]
        assert steps_e < forward <= 2 * iters
        assert draws == [(64, 1, 1, STREAM_POWER)]

    def test_zero_factorization_is_non_finite_error(self):
        # F x_0 = 0 gives a zero reference, and ||E|| / ||F|| no value
        rng = np.random.default_rng(8)
        oracle = dense_oracle(rng.standard_normal((64, 64)))
        f = factorization.HbsFactorization.zeros(build_tree(64, 8), 3)
        with pytest.raises(NonFiniteError, match="norm estimate is zero"):
            estimate_rel_err(oracle, f, iters=9, seed=2)

    def test_zero_operator_reads_one(self):
        # with A = 0 the error chain runs on -F: the reference chain's
        # arithmetic with every sign flipped, so the two estimates agree
        f = factorization.random_hbs(build_tree(64, 8), 2, seed=6)
        assert estimate_rel_err(dense_oracle(np.zeros((64, 64))), f) == 1.0

    def test_compressed_zero_operator_is_non_finite_error(self):
        # compressing A = 0 gives a valid F = 0 (orthonormal bases, zero blocks)
        oracle = dense_oracle(np.zeros((256, 256)))
        f = compress_operator(oracle, CompressionConfig(rank=8, leaf_threshold=32, seed=1))
        f.validate()
        with pytest.raises(NonFiniteError, match="norm estimate is zero"):
            estimate_rel_err(oracle, f, seed=1)
