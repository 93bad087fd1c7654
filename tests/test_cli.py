"""Tests for the command-line driver and its exit-code contract."""

import json
import subprocess
import sys

import pytest

from hbs import cli
from hbs.errors import IllConditionedProbeError
from hbs.serialize import load_factorization


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
        code = cli.main(["verify", "--load", str(path), *base])
        assert code == 0
        out = capsys.readouterr().out
        rel_err = float(out.split("rel_err:")[1])
        assert rel_err <= 1e-9

    def test_verify_size_mismatch(self, tmp_path, capsys):
        path = tmp_path / "f.hbsf"
        assert (
            cli.main(
                [
                    "compress",
                    "--problem", "synthetic",
                    "--n", "128",
                    "--rank", "6",
                    "--leaf", "12",
                    "--save", str(path),
                ]
            )
            == 0
        )
        code = cli.main(
            ["verify", "--load", str(path), "--problem", "synthetic", "--n", "256"]
        )
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


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
