"""Dense linear-algebra primitives: seeded Gaussian test matrices, QR column
bases, one complete QR per wide probe matrix for its nullspace basis and its
pseudoinverse action, and a power-method estimator for relative norms.

All routines work on float64 ndarrays and are pure functions of their
inputs, so identical seeds reproduce runs bit-for-bit on one platform.
Basis and solve routines treat a (..., rows, cols) stack matrix by matrix.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import ConfigurationError, DimensionError, IllConditionedProbeError, NonFiniteError
from .flops import add_madds, matmul_madds, qr_madds, solve_madds, svdvals_madds

# Named substreams of a single user seed, so one seed reproduces a full run.
STREAM_OMEGA = 0
STREAM_PSI = 1
STREAM_POWER = 2
STREAM_SYNTHETIC = 3

# sigma_min / sigma_max below which a probe matrix counts as rank deficient.
_ILL_CONDITIONING_TOL = 1e-10


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of named substream `stream` of a user seed."""
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def gaussian_matrix(n: int, s: int, seed: int, stream: int = 0) -> np.ndarray:
    """Draw an n x s matrix of iid standard normals.

    `stream` selects a decorrelated substream of `seed`; the same
    (n, s, seed, stream) always yields the same matrix.
    """
    if n < 1 or s < 1:
        raise DimensionError(f"gaussian_matrix needs positive dimensions, got {n} x {s}")
    return seeded_rng(seed, stream).standard_normal((n, s))


def col(b: np.ndarray, k: int) -> np.ndarray:
    """Return k orthonormal columns spanning the column space captured by an
    unpivoted QR of `b` (safe here because callers only pass random-derived
    matrices, for which leading columns are generic)."""
    rows, cols = b.shape[-2:]
    if k > min(rows, cols):
        raise DimensionError(f"cannot extract {k} basis columns from a {rows} x {cols} matrix")
    add_madds(math.prod(b.shape[:-2]) * qr_madds(rows, cols))
    q, _ = np.linalg.qr(b)
    q = q[..., :k]
    if k == cols:
        # Full-width request must reproduce the input's column space exactly.
        residual = np.linalg.norm(b - q @ (q.swapaxes(-1, -2) @ b), axis=(-2, -1))
        if not np.all(residual <= 1e-8 * np.linalg.norm(b, axis=(-2, -1))):
            raise NonFiniteError(
                f"QR basis of a {rows} x {cols} matrix does not reproduce it; "
                "the matrix holds non-finite or overflowing entries"
            )
    return q


# One complete QR of a wide probe matrix M (or stack) transposed, M^T = [Q1 Q2] [R1; 0]:
# `null` holds trailing columns of Q2, orthonormal in M's nullspace; M^+ = Q1 R1^{-T}.
ProbeQR = namedtuple("ProbeQR", "null q1 r1")


def nullspace(m: np.ndarray, k: int) -> ProbeQR:
    """Factor a wide matrix `m` by one complete QR of m^T, whose `null` holds
    k orthonormal nullspace columns; `lstsq_right` reuses it for m^+."""
    rows, cols = m.shape[-2:]
    if cols - rows < k:
        raise DimensionError(f"need a wide matrix of nullity at least {k}, got {rows} x {cols}")
    add_madds(math.prod(m.shape[:-2]) * qr_madds(cols, rows, full=True))
    q, r = np.linalg.qr(m.swapaxes(-1, -2), mode="complete")
    return ProbeQR(null=q[..., cols - k :], q1=q[..., :rows], r1=r[..., :rows, :].copy())


def lstsq_right(b: np.ndarray, m) -> np.ndarray:
    """Solve min_X ||X M - B||_F for wide, full-row-rank M (i.e. apply M's
    pseudoinverse on the right: X = B M^+).

    `m` is M itself or the ProbeQR that `nullspace` returned for it.  From
    M^T = [Q1 Q2] [R1; 0], X = (B Q1) R1^{-T}: one product and one solve
    against R1.  R1 has M's singular values; a ratio sigma_min / sigma_max
    below _ILL_CONDITIONING_TOL raises IllConditionedProbeError, whose
    `index` is the flat position of the first such matrix in a stack.
    """
    qr = m if isinstance(m, ProbeQR) else nullspace(m, 0)
    cols, rows = qr.q1.shape[-2:]
    if b.shape[-1] != cols:
        raise DimensionError(f"column mismatch: B has {b.shape[-1]}, M is {rows} x {cols}")
    sig = np.linalg.svd(qr.r1, compute_uv=False)
    ratio = sig[..., -1] / np.maximum(sig[..., 0], np.finfo(float).tiny)
    bad = np.flatnonzero(ratio < _ILL_CONDITIONING_TOL)
    if bad.size:
        raise IllConditionedProbeError(
            f"probe matrix ({rows} x {cols}) is rank deficient within tolerance "
            f"{_ILL_CONDITIONING_TOL:g} (sigma_min/sigma_max = {ratio.flat[bad[0]]:.3e}); "
            "increase the probe count s",
            index=int(bad[0]) if qr.r1.ndim > 2 else None,
        )
    b_rows = b.shape[-2]
    solve = matmul_madds(b_rows, cols, rows) + solve_madds(rows, b_rows)
    add_madds(math.prod(qr.r1.shape[:-2]) * (svdvals_madds(rows) + solve))
    # Batched and copy-free; on triangular R1 the LU does not pivot: a back substitution.
    return np.linalg.solve(qr.r1, (b @ qr.q1).swapaxes(-1, -2)).swapaxes(-1, -2)


def _gram_norm_estimate(op, op_t, x0, iters):
    """Power iteration on the Gram operator x <- op_t(op(x)) over an n x 1
    block; returns a lower-bound estimate of the largest singular value of op."""
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


def power_method_relnorm(op_e, op_et, op_a, op_at, n, iters=20, seed=0):
    """Estimate ||E|| / ||A|| from batched-product handles only.

    Each handle maps an n x c array to an n x c array; the iteration runs
    on one n x 1 block.  Both norms are estimated by `iters` power
    iterations on the respective Gram operators, started from the same
    random block, so each estimate is a lower bound on its true norm (up to
    roundoff) and E == A reports exactly 1.  One iteration costs one apply
    of the operator and one of its transpose.
    """
    if iters < 1:
        raise DimensionError("power method needs at least one iteration")
    x0 = gaussian_matrix(n, 1, seed, STREAM_POWER)
    e_norm = _gram_norm_estimate(op_e, op_et, x0, iters)
    a_norm = _gram_norm_estimate(op_a, op_at, x0, iters)
    if a_norm == 0.0:
        raise ValueError("reference operator norm estimate is zero; relative error undefined")
    return e_norm / a_norm
