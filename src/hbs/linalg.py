"""Dense linear-algebra primitives: seeded Gaussian test matrices, QR column
bases, the CholeskyQR probe factor of a wide test matrix (certified rank
screen, per-entry thin-SVD fallback) that gives a nullspace sketch and the
pseudoinverse action by products.

All routines work on float64 ndarrays and are pure functions of their
inputs, so identical seeds reproduce runs bit-for-bit on one platform.
Basis and solve routines treat a (..., rows, cols) stack matrix by matrix.
"""

import math
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (
    ConfigurationError,
    DimensionError,
    IllConditionedProbeError,
    NonFiniteError,
    check_integer,
    check_seed,
)
from .flops import add_madds, cholesky_madds, matmul, qr_madds, svd_madds, trtri_madds

# Named substreams of a single user seed, so one seed reproduces a full run.
STREAM_OMEGA = 0
STREAM_PSI = 1
STREAM_POWER = 2
STREAM_SYNTHETIC = 3
STREAM_NULL = 4
STREAM_APPLY = 9

# Most Lanczos steps behind every rel_err estimate unless a caller asks otherwise.
POWER_ITERS = 20

# sigma_min / sigma_max below which a probe matrix counts as rank deficient.
_ILL_CONDITIONING_TOL = 1e-10

# Floats (512 KiB) in one block of a loop over independent items (`blocks`): the
# sweep's node ranges, apply's down-sweep ranges, the .hbsf record chunks and the
# kernel assembly's row blocks.  A block's temporaries then stay near a core's L2
# cache instead of streaming a whole level or matrix through DRAM once per step.
# On a 2-vCPU Xeon with 2 MiB of L2 per core and one BLAS thread, the
# synthetic-coarse sweep (n=16384, r=40, s=168) took a median 0.57 s against
# 0.73 s with whole levels, its traced peak falling from 147 to 90 MB, and
# double_layer_matrix(4800) took 0.28-0.34 s against 0.61 s with 4M entries a
# block, its traced peak at n=2048 falling from 6.0 to 1.1 times the matrix
# (5 interleaved runs each; 16K to 128K floats a block were within noise).
# No block size changes a bit.
L2_FLOATS = 64 * 1024


def blocks(count: int, width: int):
    """Consecutive slices of range(count), in order, each of at most
    L2_FLOATS // width items and at least one: the blocks of a loop over
    `count` independent items of `width` floats each."""
    step = max(1, L2_FLOATS // max(1, width))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _blas_threads(usable: int) -> int:
    """The threads OpenBLAS starts per call: the first of its variables, in the
    order it reads them, that holds a positive integer, else every usable CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return usable


# Threads that `map_blocks` runs blocks on: the CPUs that BLAS leaves free.
# Workers and BLAS threads beyond the CPUs oversubscribe them: on a 2-vCPU Xeon
# the synthetic-coarse sweep (n=16384, r=40, s=168) took a median 0.59 s on one
# worker and 1.02 s on two with two BLAS threads, and 0.54 s on one worker and
# 0.40 s on two with one BLAS thread (7 sweeps each).  No worker count changes a bit.
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _CPUS = os.cpu_count() or 1
WORKERS = max(1, _CPUS // _blas_threads(_CPUS))


def map_blocks(fn, count: int, width: int) -> list:
    """[fn(block) for block in blocks(count, width)], on up to WORKERS threads
    that live for this call only, so `fn` must write only its own blocks.
    Each block runs in a copy of the caller's context (numpy's errstate and
    the madd counter are context variables); the first block that raised, in
    block order, raises here.  One block or one worker runs inline."""
    parts = list(blocks(count, width))
    workers = min(WORKERS, len(parts))
    if workers <= 1:
        return [fn(part) for part in parts]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(copy_context().run, fn, part) for part in parts]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of named substream `stream` of a user seed."""
    seed = check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def gaussian_matrix(n: int, s: int, seed: int, stream: int) -> np.ndarray:
    """Draw an n x s matrix of iid standard normals.

    `stream` selects a decorrelated substream of `seed`; the same
    (n, s, seed, stream) always yields the same matrix.
    """
    n, s = check_integer("n", n), check_integer("s", s)
    if n < 1 or s < 1:
        raise DimensionError(f"gaussian_matrix needs positive dimensions, got {n} x {s}")
    return seeded_rng(seed, stream).standard_normal((n, s))


def _unit(m: np.ndarray, what: str):
    """The one way into LAPACK: (U, shift), U = M 2^shift with each entry's
    peak brought into [1/2, 1), which keeps its Gram matrix and QR in range
    and leaves Q's bits alone; a non-finite entry raises NonFiniteError."""
    peak = np.maximum(m.max(axis=(-2, -1), initial=0.0), -m.min(axis=(-2, -1), initial=0.0))
    if not np.isfinite(peak).all():
        raise NonFiniteError(f"{what} ({m.shape[-2]} x {m.shape[-1]}) holds non-finite entries")
    shift = -np.asarray(np.frexp(peak)[1])[..., None, None]
    return np.ldexp(m, shift), shift


def col(b: np.ndarray) -> np.ndarray:
    """Return orthonormal columns spanning the column space of a tall `b`
    (or stack), one per column, from an unpivoted QR (safe here because
    callers only pass random-derived matrices, whose columns are generic)."""
    rows, cols = b.shape[-2:]
    if cols > rows:
        raise DimensionError(f"cannot extract {cols} basis columns from a {rows} x {cols} matrix")
    add_madds(math.prod(b.shape[:-2]) * qr_madds(rows, cols))
    return np.linalg.qr(_unit(b, "sample matrix")[0])[0]


# The probe factor of a wide M (or stack), M^+ = Q1 F, and k columns `null` of null(M);
# `ratio` (flat) bounds sigma_min / sigma_max below, exactly under the tolerance.
ProbeFactor = namedtuple("ProbeFactor", "q1 inv null ratio")


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each matrix of a stack; one that is not
    positive definite comes back all NaN, alone."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if gram.ndim == 2:
            return np.full_like(gram, np.nan)
        entries = [_cholesky(a) for a in gram.reshape(-1, *gram.shape[-2:])]
        return np.array(entries).reshape(gram.shape)


def _orthonormalize(a: np.ndarray):
    """(Q, F, ratio) for a tall `a` (or stack): orthonormal Q with
    (A^T)^+ = Q F, and a lower bound on each entry's sigma_min / sigma_max.

    CholeskyQR, Q = A L^{-T} and F = L^{-1} with L L^T = A^T A, serves each
    entry that 1 / (||L||_F ||L^{-1}||_F) >= sqrt(_ILL_CONDITIONING_TOL)
    certifies.  Each other entry, a failed factor's too, takes a thin SVD
    alone, A = W S X^T, so Q = W, F = S^{-1} X^T and its ratio is exact; F
    is zero where that ratio is under the tolerance, so every F is finite."""
    rows, cols = a.shape[-2:]
    add_madds(math.prod(a.shape[:-2]) * (cholesky_madds(cols) + trtri_madds(cols)))
    inv = _cholesky(matmul(a.swapaxes(-1, -2), a))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = np.sqrt(np.einsum("...ij,...ij->...", inv, inv))
        # LAPACK in place on L^T, the Fortran view of a C-ordered entry: 3-5x a batched inv.
        for entry in inv.reshape(-1, cols, cols) if cols else ():
            dtrtri(entry.T, lower=0, overwrite_c=1)
        ratio = np.ravel(1.0 / (norm * np.sqrt(np.einsum("...ij,...ij->...", inv, inv))))
        q = matmul(a, inv.swapaxes(-1, -2))
        hard = np.flatnonzero(~(ratio >= math.sqrt(_ILL_CONDITIONING_TOL)))
        if hard.size:
            add_madds(hard.size * svd_madds(rows, cols))
            w, sig, xt = np.linalg.svd(a.reshape(-1, rows, cols)[hard], full_matrices=False)
            ratio[hard] = np.nan_to_num(sig[:, -1] / sig[:, 0])
            q.reshape(-1, rows, cols)[hard] = w
            fine = ratio[hard, None, None] >= _ILL_CONDITIONING_TOL
            inv.reshape(-1, cols, cols)[hard] = np.where(fine, xt / sig[..., None], 0.0)
    return q, inv, ratio


@lru_cache(maxsize=16)
def _sketch(cols: int, k: int) -> np.ndarray:
    """The fixed read-only Gaussian cols x k start of every nullspace sketch,
    drawn once per shape: the sweep asks for it once per node range."""
    g = seeded_rng(0, STREAM_NULL).standard_normal((cols, k))
    g.flags.writeable = False
    return g


def nullspace(m: np.ndarray, k: int) -> ProbeFactor:
    """Factor a wide `m` (or stack) as M^+ = Q1 F for `lstsq_right` and
    sketch k columns of its nullspace, N = (I - Q1 Q1^T) G, projected
    twice, the second pass against M's own residual M N.

    Where N spans all of null(M), G's share of it is a square Gaussian,
    often ill conditioned, so N is orthonormalized between the passes."""
    rows, cols = m.shape[-2:]
    if cols - rows < k:
        raise DimensionError(f"need a wide matrix of nullity at least {k}, got {rows} x {cols}")
    unit, shift = _unit(m, "probe matrix")
    q1, inv, ratio = _orthonormalize(unit.swapaxes(-1, -2))
    g = _sketch(cols, k)
    null = g - matmul(q1, matmul(q1.swapaxes(-1, -2), g))
    if 0 < k == cols - rows:
        null = _orthonormalize(null)[0]
    null -= matmul(q1, matmul(inv, matmul(unit, null)))
    return ProbeFactor(q1=q1, inv=np.ldexp(inv, shift, out=inv), null=null, ratio=ratio)


def lstsq_right(b: np.ndarray, factor: ProbeFactor) -> np.ndarray:
    """X = B M^+ = (B Q1) F for wide, full-row-rank M, from the
    ProbeFactor `nullspace` returned for M.  A ratio sigma_min / sigma_max
    below _ILL_CONDITIONING_TOL raises IllConditionedProbeError, whose
    `index` is the flat position of the first such matrix in a stack."""
    cols, rows = factor.q1.shape[-2:]
    if b.shape[-1] != cols:
        raise DimensionError(f"column mismatch: B has {b.shape[-1]}, M is {rows} x {cols}")
    bad = np.flatnonzero(factor.ratio < _ILL_CONDITIONING_TOL)
    if bad.size:
        raise IllConditionedProbeError(
            f"probe matrix ({rows} x {cols}) is rank deficient within tolerance "
            f"{_ILL_CONDITIONING_TOL:g} (sigma_min/sigma_max = {factor.ratio[bad[0]]:.3e}); "
            "increase the probe count s",
            index=int(bad[0]) if factor.q1.ndim > 2 else None,
        )
    return matmul(matmul(b, factor.q1), factor.inv)


def check_power_iters(iters: int) -> None:
    """Reject a cap on rel_err's Lanczos steps (`--power-iters`) that is not an
    integer of at least one."""
    if check_integer("power iterations", iters) < 1:
        raise ConfigurationError(f"power iterations must be positive, got {iters}")
