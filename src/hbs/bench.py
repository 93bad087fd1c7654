"""Measurement harness: build a problem oracle, compress it, and report
timing, accuracy, storage, and probe-budget figures per run.

Sampling time is the wall time spent inside the black-box product
routines; compression time covers only the post-sampling arithmetic.  The
relative error ||A_compressed - A|| / ||A|| is estimated with the power
method on the difference operator, after the probe counters have been
snapshotted, so every record shows exactly the probes compression used.
"""

import dataclasses
import json
import time
from dataclasses import dataclass

from . import factorization
from .compress import CompressionConfig, compress_from_samples, draw_samples
from .errors import ConfigurationError
from .linalg import gaussian_matrix, power_method_relnorm
from .operators import (
    bie_oracle,
    default_contour,
    hbs_oracle,
    ntd_oracle,
    schur_oracle,
)
from .oracle import MatVecOracle
from .tree import build_tree

PROBLEMS = ("synthetic", "bie-dl", "bie-ntd", "schur")
CSV_HEADER = "problem,n,r,m,s,seed,t_sample,t_compress,t_apply,rel_err,floats_per_dof,matvecs_a,matvecs_at"

SCHUR_GRID_HEIGHT = 51
SYNTHETIC_OVERSAMPLING = 5  # synthetic block rank is config rank minus this


@dataclass(frozen=True)
class RunRecord:
    problem: str
    n: int
    r: int
    m: int
    s: int
    seed: int
    t_sample: float
    t_compress: float
    t_apply: float
    rel_err: float
    floats_per_dof: float
    matvecs_a: int
    matvecs_at: int

    def csv_row(self) -> str:
        return (
            f"{self.problem},{self.n},{self.r},{self.m},{self.s},{self.seed},"
            f"{self.t_sample:.6e},{self.t_compress:.6e},{self.t_apply:.6e},"
            f"{self.rel_err:.6e},{self.floats_per_dof:.6f},{self.matvecs_a},{self.matvecs_at}"
        )

    def json_row(self) -> str:
        return json.dumps(dataclasses.asdict(self))


def build_oracle(problem: str, n: int, config: CompressionConfig) -> MatVecOracle:
    """Construct the black-box oracle for one problem family at size n."""
    if problem == "synthetic":
        tree = build_tree(n, config.leaf_threshold)
        block_rank = max(1, config.rank - SYNTHETIC_OVERSAMPLING)
        return hbs_oracle(factorization.random_hbs(tree, block_rank, config.seed))
    if problem == "bie-dl":
        return bie_oracle(n, default_contour())
    if problem == "bie-ntd":
        return ntd_oracle(n, default_contour())
    if problem == "schur":
        return schur_oracle(n, SCHUR_GRID_HEIGHT)
    raise ConfigurationError(f"unknown problem {problem!r}; choose from {PROBLEMS}")


def estimate_rel_err(oracle, f, iters=20, seed=0):
    """Power-method estimate of the compression error relative to the
    operator norm, using only batched products of both representations."""
    return power_method_relnorm(
        lambda x: oracle.apply_batch(x) - factorization.apply_matrix(f, x),
        lambda x: oracle.apply_transpose_batch(x)
        - factorization.apply_matrix(f, x, transpose=True),
        oracle.apply_batch,
        oracle.apply_transpose_batch,
        oracle.n,
        iters=iters,
        seed=seed,
    )


def _timed_apply(f, seed):
    q = gaussian_matrix(f.n, 1, seed, stream=9)[:, 0]
    factorization.apply(f, q)  # warm up
    reps = 3
    start = time.perf_counter()
    for _ in range(reps):
        factorization.apply(f, q)
    return (time.perf_counter() - start) / reps


def run_once(
    problem: str, n: int, config: CompressionConfig, power_iters: int = 20
) -> tuple[RunRecord, factorization.HbsFactorization]:
    """Compress one problem instance and measure the reported quantities;
    returns (record, factorization)."""
    tree = build_tree(n, config.leaf_threshold)
    s = config.validate_for(tree)  # reject bad configs before oracle assembly
    oracle = build_oracle(problem, n, config)
    samples = draw_samples(oracle, s, config.seed)
    t_sample = oracle.seconds_in_products
    start = time.perf_counter()
    f = compress_from_samples(samples, tree, config)
    t_compress = time.perf_counter() - start
    matvecs_a, matvecs_at = oracle.matvec_count  # snapshot before verification
    record = RunRecord(
        problem=problem,
        n=oracle.n,
        r=config.rank,
        m=config.leaf_threshold,
        s=s,
        seed=config.seed,
        t_sample=t_sample,
        t_compress=t_compress,
        t_apply=_timed_apply(f, config.seed),
        rel_err=estimate_rel_err(oracle, f, iters=power_iters, seed=config.seed),
        floats_per_dof=factorization.storage(f).floats_per_dof,
        matvecs_a=matvecs_a,
        matvecs_at=matvecs_at,
    )
    return record, f


def sweep(problem, n_list, config, out_path, power_iters=20, as_json=False):
    """Run `run_once` over ascending sizes, flushing one output row per run
    so partial results survive a failed size."""
    if list(n_list) != sorted(n_list):
        raise ConfigurationError(f"size list must be ascending, got {list(n_list)}")
    records = []
    with open(out_path, "w") as fh:
        if not as_json:
            fh.write(CSV_HEADER + "\n")
            fh.flush()
        for n in n_list:
            record, _ = run_once(problem, n, config, power_iters=power_iters)
            fh.write((record.json_row() if as_json else record.csv_row()) + "\n")
            fh.flush()
            records.append(record)
    return records
