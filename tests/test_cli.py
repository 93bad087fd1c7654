"""Tests for the command-line driver and its exit-code contract."""

import json
import subprocess
import sys

import pytest

from hbs import cli, linalg
from hbs.errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    IllConditionedProbeError,
    NonFiniteError,
    ResourceLimitError,
)
from hbs.serialize import load_factorization, save_factorization


class TestCompressCommand:
    def test_compress_and_save(self, tmp_path, capsys):
        path = tmp_path / "f.hbsf"
        code = cli.main(
            [
                "compress",
                "--problem", "synthetic",
                "--n", "256",
                "--rank", "8",
                "--leaf", "16",
                "--seed", "1",
                "--save", str(path),
                "--json",
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n"] == 256
        assert record["matvecs_a"] == record["s"]
        f = load_factorization(path)
        assert f.n == 256 and f.rank == 8

    def test_plain_output(self, capsys):
        code = cli.main(
            ["compress", "--problem", "synthetic", "--n", "128", "--rank", "6", "--leaf", "12"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rel_err:" in out and "floats_per_dof:" in out
        assert f"workers: {linalg.WORKERS}\n" in out

    def test_config_error_exit_code(self, capsys):
        # leaf threshold >= n: the tree has no levels
        code = cli.main(
            ["compress", "--problem", "synthetic", "--n", "16", "--rank", "4", "--leaf", "16"]
        )
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_ill_conditioned_exit_code(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise IllConditionedProbeError("synthetic failure", node_id=3, level=2)

        monkeypatch.setattr(cli, "run_once", explode)
        code = cli.main(
            ["compress", "--problem", "synthetic", "--n", "128", "--rank", "6", "--leaf", "12"]
        )
        assert code == 3
        assert "ill-conditioned" in capsys.readouterr().err


class TestFailureContract:
    # Every library error maps to its type's exit status and one stderr line
    # that starts with its type's label.
    ARGV = ["compress", "--problem", "synthetic", "--n", "128", "--rank", "6", "--leaf", "12"]

    def _fails(self, error, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_once", explode)
        code = cli.main(self.ARGV)
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        return code, lines[0]

    @pytest.mark.parametrize(
        "error_type, kind, exit_code",
        [
            (ConfigurationError, "configuration error", 2),
            (DimensionError, "configuration error", 2),
            (NonFiniteError, "non-finite data", 2),
            (FormatError, "file error", 2),
            (IllConditionedProbeError, "ill-conditioned probe", 3),
            (ResourceLimitError, "resource limit", 2),
        ],
    )
    def test_library_error(self, error_type, kind, exit_code, monkeypatch, capsys):
        code, line = self._fails(error_type("boom"), monkeypatch, capsys)
        assert code == exit_code
        assert line == f"{kind}: boom"
        assert (error_type.kind, error_type.exit_code) == (kind, exit_code)

    def test_out_of_memory(self, monkeypatch, capsys):
        code, line = self._fails(MemoryError("Unable to allocate 29.1 TiB"), monkeypatch, capsys)
        assert code == 2
        assert line == "resource limit: out of memory (Unable to allocate 29.1 TiB)"


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "sweep",
                "--problem", "synthetic",
                "--n-list", "128,256",
                "--rank", "6",
                "--leaf", "12",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("synthetic,128,")

    def test_bad_size_list_exit_code(self, tmp_path, capsys):
        argv = ["sweep", "--problem", "synthetic", "--n-list", "256,x", "--rank", "6"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--leaf", "12", "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n-list" in err and "Traceback" not in err

    @pytest.mark.parametrize("sizes", [",", ""], ids=["comma", "blank"])
    def test_empty_size_list_exit_code(self, tmp_path, capsys, sizes):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--problem", "synthetic", "--n-list", sizes, "--rank", "6"]
        assert cli.main([*argv, "--leaf", "12", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: size list must be ascending and nonempty")
        assert not out.exists()

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "sweep.csv"
        argv = ["sweep", "--problem", "synthetic", "--n-list", "128", "--rank", "6"]
        assert cli.main([*argv, "--leaf", "12", "--out", str(out)]) == 2
        assert "missing-dir" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_round_trip(self, tmp_path, capsys):
        path = tmp_path / "f.hbsf"
        base = [
            "--problem", "synthetic",
            "--n", "256",
            "--rank", "8",
            "--leaf", "16",
            "--seed", "2",
        ]
        assert cli.main(["compress", *base, "--save", str(path)]) == 0
        capsys.readouterr()
        code = cli.main(["verify", "--load", str(path), "--problem", "synthetic", "--seed", "2"])
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("rel_err: ")
        assert float(first.split(": ")[1]) <= 1e-9

    def test_verify_prints_its_oracle_columns(self, tmp_path, capsys):
        path = tmp_path / "f.hbsf"
        base = ["--problem", "synthetic", "--n", "256", "--rank", "8", "--leaf", "16"]
        assert cli.main(["compress", *base, "--save", str(path)]) == 0
        capsys.readouterr()
        argv = ["verify", "--load", str(path), "--problem", "synthetic", "--power-iters", "5"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        # 5 oracle columns per direction for the error, 1 for the reference norm
        assert lines[0].startswith("rel_err: ")
        assert lines[1] == "oracle columns (a / at): 6 / 6"

    def test_size_rank_and_leaf_come_from_the_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(flag in out for flag in ("--load", "--problem", "--seed", "--power-iters"))
        assert not any(flag in out for flag in ("--n ", "--rank", "--leaf"))


class TestNegativeSeed:
    # A negative seed is a configuration error: exit code 2 with a one-line
    # message, not a traceback.
    CONFIG = ["--problem", "synthetic", "--rank", "6", "--leaf", "12"]

    def _fails(self, argv, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "configuration error" in err and "seed" in err

    def test_compress(self, capsys):
        self._fails(["compress", *self.CONFIG, "--n", "128", "--seed", "-1"], capsys)

    def test_sweep(self, tmp_path, capsys):
        argv = ["sweep", *self.CONFIG, "--n-list", "128", "--seed", "-1"]
        self._fails([*argv, "--out", str(tmp_path / "sweep.csv")], capsys)

    def test_verify(self, tmp_path, capsys):
        path = tmp_path / "f.hbsf"
        assert cli.main(["compress", *self.CONFIG, "--n", "128", "--save", str(path)]) == 0
        capsys.readouterr()
        argv = ["verify", "--load", str(path), "--problem", "synthetic", "--seed", "-1"]
        self._fails(argv, capsys)

    def test_verify_rejects_before_oracle_assembly(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "f.hbsf"
        assert cli.main(["compress", *self.CONFIG, "--n", "128", "--save", str(path)]) == 0
        capsys.readouterr()

        def no_oracle(*args):
            raise AssertionError("the oracle was built for a negative seed")

        monkeypatch.setattr(cli, "build_oracle", no_oracle)
        argv = ["verify", "--load", str(path), "--problem", "bie-dl", "--seed", "-1"]
        self._fails(argv, capsys)


class TestPowerIters:
    CONFIG = ["--problem", "synthetic", "--rank", "6", "--leaf", "12"]

    def test_verify_rejects_zero_before_oracle_assembly(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "f.hbsf"
        assert cli.main(["compress", *self.CONFIG, "--n", "128", "--save", str(path)]) == 0
        capsys.readouterr()

        def no_oracle(*args):
            raise AssertionError("the oracle was built for zero power iterations")

        monkeypatch.setattr(cli, "build_oracle", no_oracle)
        argv = ["verify", "--load", str(path), "--problem", "bie-dl", "--power-iters", "0"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "configuration error: power iterations must be positive, got 0" in err


class TestVerifyBadFile:
    # A missing or malformed --load file is bad outside input: exit code 2
    # with a one-line message, not a traceback.
    ARGS = ["--problem", "synthetic", "--n", "128", "--rank", "6", "--leaf", "12"]

    def _saved(self, tmp_path, capsys):
        path = tmp_path / "f.hbsf"
        assert cli.main(["compress", *self.ARGS, "--save", str(path)]) == 0
        capsys.readouterr()
        return path

    def _verify_fails(self, path, capsys):
        code = cli.main(["verify", "--load", str(path), "--problem", "synthetic"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        return err

    def test_truncated_file(self, tmp_path, capsys):
        path = self._saved(tmp_path, capsys)
        path.write_bytes(path.read_bytes()[:-8])
        assert "truncated" in self._verify_fails(path, capsys)

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "missing.hbsf"
        assert "missing.hbsf" in self._verify_fails(path, capsys)

    def test_non_orthonormal_basis(self, tmp_path, capsys):
        path = self._saved(tmp_path, capsys)
        f = load_factorization(path)
        f.U[f.tree.depth] *= 2.0
        save_factorization(f, path)
        assert "orthonormality" in self._verify_fails(path, capsys)


class TestNonFiniteData:
    # A NaN in an oracle product must end in exit code 2 with a message,
    # also under -O, where assert statements are stripped.
    SCRIPT = (
        "import sys\n"
        "import numpy as np\n"
        "from hbs import bench, cli\n"
        "from hbs.oracle import MatVecOracle\n"
        "def nan_oracle(problem, n, config):\n"
        "    return MatVecOracle(n, lambda x: x, lambda x: np.where(x > 0, np.nan, x))\n"
        "bench.build_oracle = nan_oracle\n"
        "sys.exit(cli.main(['compress', '--problem', 'synthetic', '--n', '128',\n"
        "                   '--rank', '6', '--leaf', '12']))\n"
    )

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
    def test_nan_oracle_exit_code(self, flags, child_env):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "non-finite data" in proc.stderr and "transpose" in proc.stderr
        assert "Traceback" not in proc.stderr
