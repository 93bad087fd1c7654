"""Measurement harness: build a problem oracle, compress it, and report
timing, accuracy, storage, and probe-budget figures per run.

Sampling time is the wall time spent inside the black-box product
routines; compression time covers only the post-sampling arithmetic, and
verification time the whole error estimate.  The relative error
||A_compressed - A|| / ||A|| is estimated after the probe counters have been
snapshotted, so every record shows exactly the probes compression used.
"""

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import factorization, linalg
from .compress import CompressionConfig, compress_from_samples, draw_samples
from .errors import ConfigurationError, NonFiniteError
from .linalg import POWER_ITERS, STREAM_APPLY, STREAM_POWER, check_power_iters, gaussian_matrix
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

SCHUR_GRID_HEIGHT = 51
SYNTHETIC_OVERSAMPLING = 5  # synthetic block rank is config rank minus this


@dataclass(frozen=True)
class RunRecord:
    """One run's figures.  They are also the CSV columns, in field order:
    floats as `.6e` unless a field's metadata names another format."""

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
    floats_per_dof: float = field(metadata={"csv": ".6f"})
    matvecs_a: int
    matvecs_at: int
    t_verify: float
    t_build: float

    def csv_row(self) -> str:
        return ",".join(
            format(getattr(self, f.name), f.metadata.get("csv", ".6e" if f.type is float else ""))
            for f in dataclasses.fields(self)
        )

    def json_row(self) -> str:
        return json.dumps(dataclasses.asdict(self))


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(RunRecord))


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


def estimate_rel_err(oracle, f, iters=POWER_ITERS, seed=0):
    """Estimate ||A - F|| / ||A|| for the oracle A and the factorization f,
    from batched products of both.

    Two power iterations on Gram operators start from one random unit vector.
    The error chain takes `iters` steps on E = A - F.  The norm chain takes
    its first iters - 1 steps on F, whose norm is within ||E|| of ||A||, and
    its last on the oracle, so the reference sqrt(||A^T A x||) for a unit x
    is a lower bound on ||A||, as the error estimate is on ||E||.  Should F's
    gain reach zero, the norm chain takes its remaining steps on the oracle.
    Each step makes one n x 2 product of F per direction for both chains; the
    oracle sees single columns only, iters + 1 per direction (up to 2 iters
    if F runs out).  A zero reference raises NonFiniteError.
    """
    check_power_iters(iters)
    # linalg's draw and factorization's apply through their module attributes,
    # where the benchmark's tracer wraps them
    x0 = linalg.gaussian_matrix(oracle.n, 1, seed, STREAM_POWER)
    x_e = x_a = x0 / np.linalg.norm(x0)
    on_oracle = False  # the norm chain, from its last step or once F's gain is zero
    for step in range(iters):
        fx = factorization.apply_matrix(f, np.hstack([x_e, x_a]))
        y_e = oracle.apply_batch(x_e) - fx[:, :1]
        fy = factorization.apply_matrix(f, np.hstack([y_e, fx[:, 1:]]), transpose=True)
        z_e, z_a = oracle.apply_transpose_batch(y_e) - fy[:, :1], fy[:, 1:]
        gain_e, gain_a = np.linalg.norm(z_e), np.linalg.norm(z_a)
        on_oracle = on_oracle or step == iters - 1 or gain_a == 0.0
        if on_oracle:
            z_a = oracle.apply_transpose_batch(oracle.apply_batch(x_a))
            gain_a = np.linalg.norm(z_a)
            if gain_a == 0.0:
                raise NonFiniteError(
                    "reference operator norm estimate is zero; relative error undefined"
                )
        if gain_e == 0.0:
            return 0.0
        x_e, x_a = z_e / gain_e, z_a / gain_a
    return np.sqrt(gain_e) / np.sqrt(gain_a)


def _timed_apply(f, seed):
    q = gaussian_matrix(f.n, 1, seed, STREAM_APPLY)[:, 0]
    factorization.apply(f, q)  # warm up
    reps = 3
    start = time.perf_counter()
    for _ in range(reps):
        factorization.apply(f, q)
    return (time.perf_counter() - start) / reps


def run_once(
    problem: str, n: int, config: CompressionConfig, power_iters: int = POWER_ITERS
) -> tuple[RunRecord, factorization.HbsFactorization]:
    """Compress one problem instance and measure the reported quantities;
    returns (record, factorization)."""
    tree = build_tree(n, config.leaf_threshold)
    s = config.validate_for(tree)  # reject bad configs before oracle assembly
    check_power_iters(power_iters)
    start = time.perf_counter()
    oracle = build_oracle(problem, n, config)
    t_build = time.perf_counter() - start
    samples = draw_samples(oracle, s, config.seed)
    t_sample = oracle.seconds_in_products
    start = time.perf_counter()
    f = compress_from_samples(samples, tree, config)
    t_compress = time.perf_counter() - start
    matvecs_a, matvecs_at = oracle.matvec_count  # snapshot before verification
    t_apply = _timed_apply(f, config.seed)
    start = time.perf_counter()
    rel_err = estimate_rel_err(oracle, f, iters=power_iters, seed=config.seed)
    t_verify = time.perf_counter() - start
    record = RunRecord(
        problem=problem,
        n=oracle.n,
        r=config.rank,
        m=config.leaf_threshold,
        s=s,
        seed=config.seed,
        t_sample=t_sample,
        t_compress=t_compress,
        t_apply=t_apply,
        rel_err=rel_err,
        floats_per_dof=factorization.storage(f).floats_per_dof,
        matvecs_a=matvecs_a,
        matvecs_at=matvecs_at,
        t_verify=t_verify,
        t_build=t_build,
    )
    return record, f


def sweep(problem, n_list, config, out_path, power_iters=POWER_ITERS, as_json=False):
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
