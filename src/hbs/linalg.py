"""Dense linear-algebra primitives: seeded Gaussian test matrices, QR column
bases, one complete QR and one triangular inverse per wide probe matrix for
its nullspace basis and its pseudoinverse action, with a certified rank
screen, and a power-method estimator for relative norms.

All routines work on float64 ndarrays and are pure functions of their
inputs, so identical seeds reproduce runs bit-for-bit on one platform.
Basis and solve routines treat a (..., rows, cols) stack matrix by matrix.
"""

import math
from collections import namedtuple

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import ConfigurationError, DimensionError, IllConditionedProbeError, NonFiniteError
from .flops import add_madds, matmul_madds, qr_madds, svdvals_madds, trtri_madds

# Named substreams of a single user seed, so one seed reproduces a full run.
STREAM_OMEGA = 0
STREAM_PSI = 1
STREAM_POWER = 2
STREAM_SYNTHETIC = 3
STREAM_APPLY = 9

# Power-method iterations behind every rel_err estimate unless a caller asks otherwise.
POWER_ITERS = 20

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
    if not np.isfinite(b).all():
        raise NonFiniteError(f"{rows} x {cols} sample matrix holds non-finite entries")
    add_madds(math.prod(b.shape[:-2]) * qr_madds(rows, cols))
    return np.linalg.qr(b)[0][..., :k]


# One complete QR of a wide probe matrix M (or stack) transposed, M^T = [Q1 Q2] [R1; 0]:
# `null` holds trailing columns of Q2, orthonormal in M's nullspace; M^+ = Q1 R1^{-T}.
# `r1_inv` holds R1^{-1} (all inf where R1 is exactly singular), `r1_norm` ||R1||_F.
ProbeQR = namedtuple("ProbeQR", "null q1 r1_inv r1_norm")


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, with no temporary stack; an
    entry whose plain sum of squares overflows is rescaled by a power of two."""
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.einsum("...ij,...ij->...", a, a)).reshape(-1)
    entries = a.reshape(norm.size, *a.shape[-2:])
    for j in np.flatnonzero(~np.isfinite(norm)):
        scale = np.ldexp(1.0, np.frexp(np.abs(entries[j]).max())[1])
        norm[j] = scale * np.linalg.norm(entries[j] / scale)
    return norm.reshape(a.shape[:-2])


def nullspace(m: np.ndarray, k: int) -> ProbeQR:
    """Factor a wide matrix `m` by one complete QR of m^T, whose `null` holds
    k orthonormal nullspace columns, and invert its triangular factor R1;
    `lstsq_right` reuses both for m^+ and judges R1's conditioning."""
    rows, cols = m.shape[-2:]
    if cols - rows < k:
        raise DimensionError(f"need a wide matrix of nullity at least {k}, got {rows} x {cols}")
    add_madds(math.prod(m.shape[:-2]) * (qr_madds(cols, rows, full=True) + trtri_madds(rows)))
    q, r = np.linalg.qr(m.swapaxes(-1, -2), mode="complete")
    # Contiguous float64 and private to this call, so LAPACK inverts it in place.
    r1 = np.ascontiguousarray(r[..., :rows, :], dtype=np.float64)
    r1_norm = _frobenius(r1)
    # Per-matrix LAPACK inverse in place: R1^T is the Fortran-ordered view of a
    # C-ordered entry.  It beats a batched np.linalg.inv 3-5x at these sizes.
    for entry in r1.reshape(-1, rows, rows) if rows else ():
        _, info = dtrtri(entry.T, lower=1, overwrite_c=1)
        if info > 0:  # a zero on R1's diagonal: exactly singular, no inverse
            entry.fill(np.inf)
    return ProbeQR(null=q[..., cols - k :], q1=q[..., :rows], r1_inv=r1, r1_norm=r1_norm)


def _conditioning(qr: ProbeQR) -> np.ndarray:
    """sigma_min / sigma_max of every R1 in `qr`, flattened, exact wherever it
    is below _ILL_CONDITIONING_TOL.

    1 / (||R1||_F ||R1^{-1}||_F) bounds the ratio from below, so only the
    entries it cannot certify pay for a values-only SVD, taken of R1^{-1}
    (whose singular values are the reciprocals of R1's, so its ratio is the
    same).  An inverse that is not finite counts as ratio 0.
    """
    rows = qr.r1_inv.shape[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = np.ravel(1.0 / (qr.r1_norm * _frobenius(qr.r1_inv)))
    doubt = np.flatnonzero(~(ratio >= _ILL_CONDITIONING_TOL))
    if doubt.size:
        inv = qr.r1_inv.reshape(-1, rows, rows)[doubt]
        finite = np.isfinite(inv).all(axis=(-2, -1))
        exact = np.zeros(doubt.size)
        if finite.any():
            add_madds(int(finite.sum()) * svdvals_madds(rows))
            sig = np.linalg.svd(inv[finite], compute_uv=False)
            exact[finite] = sig[..., -1] / sig[..., 0]
        ratio[doubt] = exact
    return ratio


def lstsq_right(b: np.ndarray, m) -> np.ndarray:
    """Solve min_X ||X M - B||_F for wide, full-row-rank M (i.e. apply M's
    pseudoinverse on the right: X = B M^+).

    `m` is M itself or the ProbeQR that `nullspace` returned for it.  From
    M^T = [Q1 Q2] [R1; 0], X = (B Q1) R1^{-T}: two products.  R1 has M's
    singular values; a ratio sigma_min / sigma_max below
    _ILL_CONDITIONING_TOL raises IllConditionedProbeError, whose `index` is
    the flat position of the first such matrix in a stack, and a non-finite
    ||R1||_F raises NonFiniteError.
    """
    qr = m if isinstance(m, ProbeQR) else nullspace(m, 0)
    cols, rows = qr.q1.shape[-2:]
    if b.shape[-1] != cols:
        raise DimensionError(f"column mismatch: B has {b.shape[-1]}, M is {rows} x {cols}")
    if not np.all(np.isfinite(qr.r1_norm)):
        raise NonFiniteError(
            f"probe matrix ({rows} x {cols}) holds non-finite or overflowing entries"
        )
    ratio = _conditioning(qr)
    bad = np.flatnonzero(ratio < _ILL_CONDITIONING_TOL)
    if bad.size:
        raise IllConditionedProbeError(
            f"probe matrix ({rows} x {cols}) is rank deficient within tolerance "
            f"{_ILL_CONDITIONING_TOL:g} (sigma_min/sigma_max = {ratio[bad[0]]:.3e}); "
            "increase the probe count s",
            index=int(bad[0]) if qr.r1_inv.ndim > 2 else None,
        )
    b_rows = b.shape[-2]
    products = matmul_madds(b_rows, cols, rows) + matmul_madds(b_rows, rows, rows)
    add_madds(math.prod(qr.r1_inv.shape[:-2]) * products)
    return (b @ qr.q1) @ qr.r1_inv.swapaxes(-1, -2)


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
