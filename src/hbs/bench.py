"""Measurement harness: build a problem oracle, compress it, and report
timing, accuracy, storage, and probe-budget figures per run.

Sampling time is the wall time spent inside the black-box product
routines; compression time covers only the post-sampling arithmetic, and
verification time the whole error estimate; compression time also depends
on `workers`, the threads its level sweep ran on (`linalg.WORKERS`).  The
relative error ||A_compressed - A|| / ||A|| is estimated after the probe
counters have been snapshotted, so every record shows exactly the probes
compression used, and apart from them the oracle columns the estimate took:
one per direction for each step on A_compressed - A, as the reference norm
is A_compressed's own.
"""

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import factorization, linalg
from .compress import CompressionConfig, compress_from_samples, draw_samples
from .errors import ConfigurationError, NonFiniteError, check_integer
from .linalg import POWER_ITERS, STREAM_APPLY, STREAM_POWER, gaussian_matrix
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
    workers: int
    verify_matvecs: int

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


# A Lanczos chain stops once a step grew its estimate by at most this fraction.
_STOP_TOL = 1e-4


def _orthonormalized(p, basis):
    """(norm, p / norm) for the part of the column p orthogonal to the
    orthonormal columns of `basis`, by classical Gram-Schmidt taken twice; a
    zero part comes back as (0.0, zeros)."""
    for _ in range(2):
        p = p - basis @ (basis.T @ p)
    norm = np.linalg.norm(p)
    return norm, p / norm if norm else p


class _Bidiagonalization:
    """Golub-Kahan-Lanczos bidiagonalization of one operator M from a unit
    start vector v_1, fed one single-column product at a time in the order
    M v_1, M^T u_1, M v_2, M^T u_2, ...; `q` is the vector the next product
    takes.  Both bases are reorthogonalized in full.

    After k steps U_k^T M V_{k+1} is the k x (k+1) upper bidiagonal
    `b[:k, :k + 1]`, alphas on its diagonal and betas above it, so its largest
    singular value, `estimate`, is a lower bound on ||M||.  The chain is
    `done` after `iters` steps, at an exact breakdown (a zero alpha or beta),
    or once a step grew `estimate` by at most _STOP_TOL of itself.
    """

    def __init__(self, v, iters):
        n = v.shape[0]
        # F order: each v[:, :j] is contiguous, and a column never reached
        # stays an uncommitted zero page, so a high cap costs no memory
        self.v = np.zeros((n, iters + 1), order="F")
        self.u = np.zeros((n, iters), order="F")
        self.b = np.zeros((iters, iters + 1))
        self.v[:, :1] = v
        self.iters, self.k, self.forward = iters, 0, True
        self.estimate, self.done = 0.0, False

    @property
    def q(self):
        return (self.v if self.forward else self.u)[:, self.k : self.k + 1]

    def take(self, product):
        """Advance half a step on the product of M (forward) or M^T with `q`."""
        k = self.k
        if self.forward:  # M v_{k+1} gives alpha_{k+1} and u_{k+1}
            alpha, self.u[:, k : k + 1] = _orthonormalized(product, self.u[:, :k])
            self.b[k, k] = alpha
            self.forward, self.done = False, alpha == 0.0
            return
        # M^T u_{k+1} gives beta_{k+1} and v_{k+2}
        beta, self.v[:, k + 1 : k + 2] = _orthonormalized(product, self.v[:, : k + 1])
        self.b[k, k + 1] = beta
        self.k = k = k + 1
        top = np.linalg.svd(self.b[:k, : k + 1], compute_uv=False)[0]
        grew, self.estimate = top - self.estimate, top
        self.forward = True
        self.done = beta == 0.0 or k == self.iters or grew <= _STOP_TOL * top


def estimate_rel_err(oracle, f, iters=POWER_ITERS, seed=0):
    """Estimate ||A - F|| / ||A|| for the oracle A and the factorization f,
    from single-column oracle products and at most two-column products of F.

    Two Golub-Kahan-Lanczos chains start from one random unit vector and run
    in lockstep, each for at most `iters` steps (`_Bidiagonalization` says when
    one stops sooner).  The error chain runs on E = A - F, at one oracle
    column per direction a step, so the oracle sees k columns per direction
    for k error steps.  The reference chain runs on F alone: since
    | ||F|| - ||A|| | <= ||E||, its estimate of ||F|| stands for ||A|| to
    within a factor 1 +- rel_err.  Both estimates are lower bounds on their
    norms.  While both chains run, each step makes one n x 2 product of F per
    direction, error chain first.  A zero reference (F x_0 = 0) raises
    NonFiniteError.
    """
    if check_integer("power iterations", iters) < 1:
        raise ConfigurationError(f"power iterations must be positive, got {iters}")
    # linalg's draw and factorization's apply through their module attributes,
    # where the benchmark's tracer wraps them
    x0 = linalg.gaussian_matrix(oracle.n, 1, seed, STREAM_POWER)
    x0 = x0 / np.linalg.norm(x0)
    err, ref = _Bidiagonalization(x0, iters), _Bidiagonalization(x0, iters)
    for half in range(2 * iters):
        if err.done and ref.done:
            break
        transpose = half % 2 == 1
        live = [c for c in (err, ref) if not c.done]
        fq = factorization.apply_matrix(f, np.hstack([c.q for c in live]), transpose)
        if not err.done:
            a = oracle.apply_transpose_batch if transpose else oracle.apply_batch
            err.take(a(err.q) - fq[:, :1])
        if not ref.done:
            ref.take(fq[:, -1:])
    if ref.estimate == 0.0:
        raise NonFiniteError("reference operator norm estimate is zero; relative error undefined")
    return err.estimate / ref.estimate


def _timed_apply(f, seed):
    q = gaussian_matrix(f.n, 1, seed, STREAM_APPLY)[:, 0]
    factorization.apply(f, q)  # warm up
    reps = 3
    start = time.perf_counter()
    for _ in range(reps):
        factorization.apply(f, q)
    return (time.perf_counter() - start) / reps


def run_once(
    problem: str, n: int, config: CompressionConfig
) -> tuple[RunRecord, factorization.HbsFactorization]:
    """Compress one problem instance and measure the reported quantities;
    returns (record, factorization)."""
    tree = build_tree(n, config.leaf_threshold)
    s = config.validate_for(tree)  # reject bad configs before oracle assembly
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
    rel_err = estimate_rel_err(oracle, f, seed=config.seed)
    t_verify = time.perf_counter() - start
    verify_matvecs = oracle.matvec_count[0] - matvecs_a
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
        workers=linalg.WORKERS,
        verify_matvecs=verify_matvecs,
    )
    return record, f


def sweep(problem, n_list, config, out_path, as_json=False):
    """Run `run_once` over ascending sizes, flushing one output row per run
    so partial results survive a failed size.  The config is checked against
    every size's tree first, so a rejected config writes no file."""
    if not n_list or list(n_list) != sorted(n_list):
        raise ConfigurationError(f"size list must be ascending and nonempty, got {list(n_list)}")
    for n in n_list:
        config.validate_for(build_tree(n, config.leaf_threshold))
    records = []
    with open(out_path, "w") as fh:
        if not as_json:
            fh.write(CSV_HEADER + "\n")
            fh.flush()
        for n in n_list:
            record, _ = run_once(problem, n, config)
            fh.write((record.json_row() if as_json else record.csv_row()) + "\n")
            fh.flush()
            records.append(record)
    return records
