"""Tests for the measurement harness."""

import numpy as np
import pytest

from hbs import factorization
from hbs.bench import CSV_HEADER, build_oracle, estimate_rel_err, run_once, sweep
from hbs.compress import CompressionConfig, compress_operator
from hbs.errors import ConfigurationError
from hbs.linalg import STREAM_POWER, gaussian_matrix


class TestRunOnce:
    def test_synthetic_record(self):
        config = CompressionConfig(rank=15, leaf_threshold=30, probes=45, seed=1)
        record, _ = run_once("synthetic", 960, config)
        assert record.problem == "synthetic"
        assert (record.n, record.r, record.m, record.s) == (960, 15, 30, 45)
        assert record.rel_err <= 1e-9
        assert record.matvecs_a == record.matvecs_at == 45
        assert record.t_sample >= 0 and record.t_compress >= 0 and record.t_apply >= 0

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


class TestSchurRecord:
    def test_schur_small(self):
        config = CompressionConfig(rank=16, leaf_threshold=32, seed=10)
        record, _ = run_once("schur", 80, config)
        assert record.rel_err <= 1e-10
        assert record.matvecs_a == record.matvecs_at == record.s


def reference_rel_err(oracle, f, iters, seed):
    """The power iteration one vector at a time: every product is a single
    column, every handle maps a length-n vector to a length-n vector."""
    a = lambda q: oracle.apply_batch(q[:, None])[:, 0]
    a_t = lambda q: oracle.apply_transpose_batch(q[:, None])[:, 0]
    e = lambda q: a(q) - factorization.apply(f, q)
    e_t = lambda q: a_t(q) - factorization.apply_transpose(f, q)
    x0 = gaussian_matrix(oracle.n, 1, seed, STREAM_POWER)[:, 0]

    def gram_norm(op, op_t):
        x = x0 / np.linalg.norm(x0)
        estimate = 0.0
        for _ in range(iters):
            y = op_t(op(x))
            gain = np.linalg.norm(y)
            if gain == 0.0:
                return 0.0
            estimate = np.sqrt(gain)
            x = y / gain
        return estimate

    return gram_norm(e, e_t) / gram_norm(a, a_t)


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
        assert (after[0] - before[0], after[1] - before[1]) == (2 * iters, 2 * iters)
        assert rel_err == reference_rel_err(oracle, f, iters, seed=5)
        assert 0.0 < rel_err < 1e-6
