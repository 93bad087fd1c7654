"""Dense linear-algebra primitives: seeded Gaussian test matrices, QR column
bases, the CholeskyQR probe factor of a wide test matrix (certified rank
screen, per-entry thin-SVD fallback) that gives a nullspace sketch and the
pseudoinverse action by products, and a power-method norm estimator.

All routines work on float64 ndarrays and are pure functions of their
inputs, so identical seeds reproduce runs bit-for-bit on one platform.
Basis and solve routines treat a (..., rows, cols) stack matrix by matrix.
"""

import math
from collections import namedtuple

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (
    ConfigurationError,
    DimensionError,
    IllConditionedProbeError,
    NonFiniteError,
    check_integer,
)
from .flops import add_madds, cholesky_madds, matmul, qr_madds, svd_madds, trtri_madds

# Named substreams of a single user seed, so one seed reproduces a full run.
STREAM_OMEGA = 0
STREAM_PSI = 1
STREAM_POWER = 2
STREAM_SYNTHETIC = 3
STREAM_NULL = 4
STREAM_APPLY = 9

# Power-method iterations behind every rel_err estimate unless a caller asks otherwise.
POWER_ITERS = 20

# sigma_min / sigma_max below which a probe matrix counts as rank deficient.
_ILL_CONDITIONING_TOL = 1e-10


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of named substream `stream` of a user seed."""
    seed = check_integer("seed", seed)
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def gaussian_matrix(n: int, s: int, seed: int, stream: int = 0) -> np.ndarray:
    """Draw an n x s matrix of iid standard normals.

    `stream` selects a decorrelated substream of `seed`; the same
    (n, s, seed, stream) always yields the same matrix.
    """
    n, s = check_integer("n", n), check_integer("s", s)
    if n < 1 or s < 1:
        raise DimensionError(f"gaussian_matrix needs positive dimensions, got {n} x {s}")
    return seeded_rng(seed, stream).standard_normal((n, s))


def col(b: np.ndarray) -> np.ndarray:
    """Return orthonormal columns spanning the column space of a tall `b`
    (or stack), one per column, from an unpivoted QR (safe here because
    callers only pass random-derived matrices, whose columns are generic)."""
    rows, cols = b.shape[-2:]
    if cols > rows:
        raise DimensionError(f"cannot extract {cols} basis columns from a {rows} x {cols} matrix")
    if not np.isfinite(b).all():
        raise NonFiniteError(f"{rows} x {cols} sample matrix holds non-finite entries")
    add_madds(math.prod(b.shape[:-2]) * qr_madds(rows, cols))
    return np.linalg.qr(b)[0]


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


def nullspace(m: np.ndarray, k: int) -> ProbeFactor:
    """Factor a wide `m` (or stack) as M^+ = Q1 F for `lstsq_right` and
    sketch k columns of its nullspace, N = (I - Q1 Q1^T) G, projected
    twice, the second pass against M's own residual M N.  Each entry is
    scaled by a power of two first, so its Gram matrix stays in range.

    Where N spans all of null(M), G's share of it is a square Gaussian,
    often ill conditioned, so N is orthonormalized between the passes."""
    rows, cols = m.shape[-2:]
    if cols - rows < k:
        raise DimensionError(f"need a wide matrix of nullity at least {k}, got {rows} x {cols}")
    peak = np.maximum(m.max(axis=(-2, -1), initial=0.0), -m.min(axis=(-2, -1), initial=0.0))
    if not np.isfinite(peak).all():
        raise NonFiniteError(f"probe matrix ({rows} x {cols}) holds non-finite entries")
    shift = -np.asarray(np.frexp(peak)[1])[..., None, None]
    unit = np.ldexp(m, shift)
    q1, inv, ratio = _orthonormalize(unit.swapaxes(-1, -2))
    g, spare = seeded_rng(0, STREAM_NULL).standard_normal((cols, k)), None
    fwd, mid = np.empty((2, *m.shape[:-2], rows, k))
    null = matmul(q1, matmul(q1.swapaxes(-1, -2), g, out=fwd))
    np.subtract(g, null, out=null)
    if 0 < k == cols - rows:
        spare, null = null, _orthonormalize(null)[0]
    matmul(inv, matmul(unit, null, out=fwd), out=mid)
    null -= matmul(q1, mid, out=spare)
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
    x = matmul(b, factor.q1)
    return matmul(x, factor.inv, out=x)


def check_power_iters(iters: int) -> None:
    """Reject a power-iteration count below one."""
    if iters < 1:
        raise ConfigurationError(f"power iterations must be positive, got {iters}")


def _gram_norm_estimate(op, op_t, x0, iters):
    """Power iteration on the Gram operator x <- op_t(op(x)) over an n x 1
    block; returns a lower-bound estimate of the largest singular value of op.
    Needs iters >= 1."""
    x = x0 / np.linalg.norm(x0)
    for _ in range(iters):
        y = op_t(op(x))
        gain = np.linalg.norm(y)
        if gain == 0.0:
            return 0.0
        x = y / gain
    return np.sqrt(gain)


def power_method_relnorm(op_e, op_et, op_a, op_at, n, iters=POWER_ITERS, seed=0):
    """Estimate ||E|| / ||A|| from batched-product handles only.

    Each handle maps an n x c array to an n x c array; the iteration runs
    on one n x 1 block.  Both norms are estimated by `iters` power
    iterations on the respective Gram operators, started from the same
    random block, so each estimate is a lower bound on its true norm (up to
    roundoff) and E == A reports exactly 1.  One iteration costs one apply
    of the operator and one of its transpose.
    """
    check_power_iters(iters)
    x0 = gaussian_matrix(n, 1, seed, STREAM_POWER)
    e_norm = _gram_norm_estimate(op_e, op_et, x0, iters)
    a_norm = _gram_norm_estimate(op_a, op_at, x0, iters)
    if a_norm == 0.0:
        raise NonFiniteError("reference operator norm estimate is zero; relative error undefined")
    return e_norm / a_norm
