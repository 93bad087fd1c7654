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
from hbs.tree import build_tree


class TestRunOnce:
    def test_synthetic_record(self):
        config = CompressionConfig(rank=15, leaf_threshold=30, probes=45, seed=1)
        record, _ = run_once("synthetic", 960, config)
        assert record.problem == "synthetic"
        assert (record.n, record.r, record.m, record.s) == (960, 15, 30, 45)
        assert record.rel_err <= 1e-9
        assert record.matvecs_a == record.matvecs_at == 45
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
    @pytest.mark.parametrize("entry", ["run_once", "estimate_rel_err"])
    def test_power_iters_must_be_an_integer(self, entry, iters):
        config = CompressionConfig(rank=6, leaf_threshold=12, seed=5)
        f = dense_factorization(np.eye(4))
        estimate = {
            "run_once": lambda: run_once("synthetic", 256, config, power_iters=iters),
            "estimate_rel_err": lambda: estimate_rel_err(dense_oracle(np.eye(4)), f, iters=iters),
        }[entry]
        message = f"power iterations must be an integer, got {iters}"
        with pytest.raises(ConfigurationError, match=message):
            estimate()

    def test_zero_power_iters_rejected_before_oracle_assembly(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the oracle was built for zero power iterations")

        monkeypatch.setattr("hbs.bench.build_oracle", no_oracle)
        config = CompressionConfig(rank=30, leaf_threshold=60, probes=90, seed=0)
        with pytest.raises(ConfigurationError, match="power iterations must be positive, got 0"):
            run_once("bie-dl", 4800, config, power_iters=0)


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

    def test_partial_rows_survive_failure(self, tmp_path):
        out = tmp_path / "partial.csv"
        # 15 probes satisfy max(r + max leaf, 3r) at n=128 (leaves of 8) but
        # not at n=192 (leaves of 12), so the second row must fail cleanly
        config = CompressionConfig(rank=5, leaf_threshold=12, probes=15, seed=9)
        with pytest.raises(ConfigurationError):
            sweep("synthetic", [128, 192], config, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2  # header plus the completed first row


class TestCsvSchema:
    # The schema's contract: columns are only ever appended, in these formats.
    def test_header_is_pinned(self):
        assert CSV_HEADER == (
            "problem,n,r,m,s,seed,t_sample,t_compress,t_apply,rel_err,floats_per_dof,"
            "matvecs_a,matvecs_at,t_verify,t_build,workers"
        )

    def test_row_format_is_pinned(self):
        record = RunRecord(
            "synthetic", 256, 6, 12, 18, 5, 0.001, 0.002, 0.0003, 1.5e-12, 12.25, 18, 18, 0.004,
            0.005, 2,
        )
        assert record.csv_row() == (
            "synthetic,256,6,12,18,5,1.000000e-03,2.000000e-03,3.000000e-04,1.500000e-12,"
            "12.250000,18,18,4.000000e-03,5.000000e-03,2"
        )


class TestSchurRecord:
    def test_schur_small(self):
        config = CompressionConfig(rank=16, leaf_threshold=32, seed=10)
        record, _ = run_once("schur", 80, config)
        assert record.rel_err <= 1e-10
        assert record.matvecs_a == record.matvecs_at == record.s


def reference_rel_err(oracle, f, iters, seed):
    """The two chains one vector at a time: every oracle product is a single
    column, and the compressed operator's products are stacked n x 2, error
    chain first, where the estimator stacks them."""
    a = lambda q: oracle.apply_batch(q[:, None])[:, 0]
    a_t = lambda q: oracle.apply_transpose_batch(q[:, None])[:, 0]
    f_pair = lambda p, q: factorization.apply_matrix(f, np.column_stack([p, q])).T
    f_t_pair = lambda p, q: factorization.apply_matrix(f, np.column_stack([p, q]), True).T
    x0 = gaussian_matrix(oracle.n, 1, seed, STREAM_POWER)[:, 0]
    x_e = x_a = x0 / np.linalg.norm(x0)
    on_oracle = False
    for step in range(iters):
        fx_e, fx_a = f_pair(x_e, x_a)  # F x for both chains
        y_e = a(x_e) - fx_e
        fy_e, fy_a = f_t_pair(y_e, fx_a)  # F^T y for both chains
        z_e, z_a = a_t(y_e) - fy_e, fy_a
        gain_e, gain_a = np.linalg.norm(z_e), np.linalg.norm(z_a)
        on_oracle = on_oracle or step == iters - 1 or gain_a == 0.0
        if on_oracle:  # the last step, or every step once F's gain is zero
            z_a = a_t(a(x_a))
            gain_a = np.linalg.norm(z_a)
        x_e, x_a = z_e / gain_e, z_a / gain_a
    return np.sqrt(gain_e) / np.sqrt(gain_a)


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
        # iters oracle columns per direction for the error, one for the reference norm
        assert (after[0] - before[0], after[1] - before[1]) == (iters + 1, iters + 1)
        assert rel_err == reference_rel_err(oracle, f, iters, seed=5)
        assert 0.0 < rel_err < 1e-6

    def test_reaches_the_factorization_through_its_module(self, monkeypatch):
        # the benchmark's tracer times verification's F products and its draw by
        # wrapping hbs.factorization.apply_matrix and hbs.linalg.gaussian_matrix;
        # a name bound at import would escape it
        rng = np.random.default_rng(9)
        f = factorization.random_hbs(build_tree(64, 8), 2, seed=6)
        oracle = dense_oracle(factorization.to_dense(f) + 1e-3 * rng.standard_normal((64, 64)))
        calls, draws = [], []
        apply_matrix, draw = factorization.apply_matrix, linalg.gaussian_matrix

        def counting(f, q, transpose=False):
            calls.append(transpose)
            return apply_matrix(f, q, transpose)

        def counting_draw(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(factorization, "apply_matrix", counting)
        monkeypatch.setattr(linalg, "gaussian_matrix", counting_draw)
        iters = 6
        estimate_rel_err(oracle, f, iters=iters, seed=1)
        assert (calls.count(False), calls.count(True)) == (iters, iters)
        assert oracle.matvec_count == (iters + 1, iters + 1)
        assert draws == [(64, 1, 1, STREAM_POWER)]

    def test_zero_factorization_falls_back_on_the_oracle(self):
        # F = 0 gives the norm chain no gain, so it runs on the oracle
        # throughout as the error chain's twin: the ratio is 1, at 2 iters columns
        rng = np.random.default_rng(8)
        oracle = dense_oracle(rng.standard_normal((64, 64)))
        f = factorization.HbsFactorization.zeros(build_tree(64, 8), 3)
        rel_err = estimate_rel_err(oracle, f, iters=9, seed=2)
        assert abs(rel_err - 1.0) <= 1e-12
        assert oracle.matvec_count == (18, 18)

    def test_zero_operator_is_non_finite_error(self):
        # ||E|| / ||A|| with ||A|| = 0 has no value
        f = factorization.random_hbs(build_tree(64, 8), 2, seed=6)
        with pytest.raises(NonFiniteError, match="norm estimate is zero"):
            estimate_rel_err(dense_oracle(np.zeros((64, 64))), f)
