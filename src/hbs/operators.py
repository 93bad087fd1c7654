"""Desk-scale experiment operators exposed as black-box oracles.

Three problem families: a second-kind boundary integral operator on a
smooth planar contour (Nystrom/trapezoidal discretization of the Laplace
double layer), a Neumann-to-Dirichlet operator assembled as a product of
layer-potential matrices with a dense factorization of the second-kind
part, and the Schur complement of a five-point Poisson stencil onto a grid
separator.  Dense matrices and synthetic factorizations can also be
wrapped directly, which is how the test oracles are built.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import factorization
from .errors import DimensionError, check_integer
from .linalg import blocks
from .oracle import MatVecOracle


class Contour:
    """Smooth simple closed curve in polar form rho(theta) about the origin.

    Vectorized evaluators for points, tangents, outward normals and
    arclength density; `quadrature(n)` places n equispaced-parameter nodes
    with trapezoidal weights (spectrally accurate for smooth closed curves).
    """

    def __init__(self, radius, dradius):
        self._radius = radius
        self._dradius = dradius

    def points(self, theta):
        rho = self._radius(theta)
        return np.stack((rho * np.cos(theta), rho * np.sin(theta)), axis=-1)

    def derivatives(self, theta):
        rho, drho = self._radius(theta), self._dradius(theta)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        return np.stack(
            (drho * cos_t - rho * sin_t, drho * sin_t + rho * cos_t), axis=-1
        )

    def speed(self, theta):
        return np.linalg.norm(self.derivatives(theta), axis=-1)

    def normals(self, theta):
        """Outward unit normals (the parametrization is counterclockwise)."""
        d = self.derivatives(theta)
        return np.stack((d[..., 1], -d[..., 0]), axis=-1) / np.linalg.norm(
            d, axis=-1, keepdims=True
        )

    def quadrature(self, n: int):
        """Equispaced parameter nodes with trapezoidal arclength weights:
        returns (theta, points, normals, weights)."""
        theta = 2.0 * np.pi * np.arange(n) / n
        weights = (2.0 * np.pi / n) * self.speed(theta)
        return theta, self.points(theta), self.normals(theta), weights


_STAR_LOBES = 5
_STAR_AMPLITUDE = 0.15


def default_contour() -> Contour:
    """Five-lobed smooth star rho(theta) = 1 + 0.15 cos(5 theta), simple and
    closed.  The lobe amplitude is chosen so the benchmark rank budgets
    resolve the operator's off-diagonal blocks with comfortable margin
    (deeper lobes raise the coarse-level block ranks)."""
    return Contour(
        radius=lambda t: 1.0 + _STAR_AMPLITUDE * np.cos(_STAR_LOBES * t),
        dradius=lambda t: -_STAR_AMPLITUDE * _STAR_LOBES * np.sin(_STAR_LOBES * t),
    )


# Layer kernels of target x and source y, from the components (dx, dy) of x - y,
# r2 = |x - y|^2 and the unit normals n_x, n_y as component pairs; arrays broadcast.


def _double_layer_kernel(dx, dy, r2, n_x, n_y):
    """(x - y) . n(y) / (4 pi |x - y|^2)"""
    return (dx * n_y[0] + dy * n_y[1]) / (4.0 * np.pi * r2)


def _adjoint_double_layer_kernel(dx, dy, r2, n_x, n_y):
    """n(x) . (x - y) / (2 pi |x - y|^2)"""
    return (dx * n_x[0] + dy * n_x[1]) / (2.0 * np.pi * r2)


def _single_layer_kernel(dx, dy, r2, n_x, n_y):
    """-(1/2 pi) log |x - y|, as -(1/4 pi) log |x - y|^2"""
    return -np.log(r2) / (4.0 * np.pi)


def _diagonal_limit(kernel, contour, theta):
    """Smooth diagonal limit of a layer kernel along the contour, by
    symmetric evaluation at theta +/- eps and one Richardson step (the
    symmetric average has only even-order error terms)."""
    x, n_x = contour.points(theta).T, contour.normals(theta).T

    def at(source):
        dx, dy = x - contour.points(source).T
        return kernel(dx, dy, dx * dx + dy * dy, n_x, contour.normals(source).T)

    coarse, fine = (0.5 * (at(theta + eps) + at(theta - eps)) for eps in (1.0e-3, 5.0e-4))
    return (4.0 * fine - coarse) / 3.0


def _layer_matrix(n, contour, kernel, diagonal=None, order="C"):
    """Fill the n x n Nystrom matrix K[i, j] = w_j * kernel(i, j) in the row
    blocks of `linalg.blocks`, stored in C or Fortran `order` with the same
    bits.  The diagonal holds w_i times `diagonal(weights)`, or by default the
    kernel's extrapolated smooth limit."""
    n = check_integer("n", n)
    if n < 16:
        raise DimensionError(f"need at least 16 quadrature nodes, got {n}")
    theta, pts, normals, weights = contour.quadrature(n)
    diag = _diagonal_limit(kernel, contour, theta) if diagonal is None else diagonal(weights)
    out = np.empty((n, n), order=order)
    for rows in blocks(n, n):
        dx, dy = (c[rows, None] - c for c in pts.T)
        r2 = dx * dx + dy * dy
        np.fill_diagonal(r2[:, rows], 1.0)  # keep self-pairs finite
        k = kernel(dx, dy, r2, normals.T[:, rows, None], normals.T)
        np.multiply(k, weights, out=out[rows])
        del dx, dy, r2, k  # freed before the next block's are made
    np.fill_diagonal(out, weights * diag)
    return out


def double_layer_matrix(n: int, contour: Contour) -> np.ndarray:
    """Nystrom matrix of the second-kind operator 1/2 I + K, where K is the
    Laplace double layer (x - y) . n(y) / (4 pi |x - y|^2) on n equispaced
    nodes with trapezoidal weights and extrapolated diagonal limits."""
    out = _layer_matrix(n, contour, _double_layer_kernel)
    out[np.diag_indices(n)] += 0.5
    return out


def single_layer_matrix(n: int, contour: Contour) -> np.ndarray:
    """Nystrom matrix of the single layer -(1/2 pi) log |x - y| with a
    panel-averaged self-interaction rule on the diagonal:
    S[i, i] = w_i * (-1/2 pi) * log(w_i / (2 e))."""
    return _layer_matrix(
        n, contour, _single_layer_kernel, lambda w: -np.log(w / (2.0 * np.e)) / (2.0 * np.pi)
    )


def adjoint_double_layer_matrix(n: int, contour: Contour) -> np.ndarray:
    """Nystrom matrix of the adjoint double layer
    n(x) . (x - y) / (2 pi |x - y|^2), diagonal by extrapolated limits."""
    return _layer_matrix(n, contour, _adjoint_double_layer_kernel)


def dense_oracle(a: np.ndarray) -> MatVecOracle:
    """Wrap an explicit square matrix as a black-box oracle."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"dense oracle needs a square matrix, got shape {a.shape}")
    return MatVecOracle(a.shape[0], lambda x: a @ x, lambda x: a.T @ x)


def hbs_oracle(f: "factorization.HbsFactorization") -> MatVecOracle:
    """Wrap a telescoping factorization as a matrix-free oracle (used for
    large synthetic problems that must never be densified)."""
    return MatVecOracle(
        f.n,
        lambda x: factorization.apply_matrix(f, x),
        lambda x: factorization.apply_matrix(f, x, transpose=True),
    )


def bie_oracle(n: int, contour: Contour) -> MatVecOracle:
    """Black-box oracle for the second-kind double-layer operator (a dense
    desk-scale stand-in; the product interface is the contract)."""
    return dense_oracle(double_layer_matrix(n, contour))


def ntd_oracle(n: int, contour: Contour) -> MatVecOracle:
    """Neumann-to-Dirichlet operator S (1/2 I + D*)^-1 as a black-box
    oracle: assembles both layer matrices, factorizes the second-kind part
    once, and applies the product without ever forming it densely."""
    s_mat = single_layer_matrix(n, contour)
    # Fortran order is LAPACK's, so the factorization overwrites the system in
    # place, and it skips the finite-entry scan and its n x n mask: distinct
    # quadrature nodes give finite entries.  The oracle then holds two n x n
    # matrices at its peak, not three, with the same bits.
    system = _layer_matrix(n, contour, _adjoint_double_layer_kernel, order="F")
    system[np.diag_indices(n)] += 0.5
    lu_piv = scipy.linalg.lu_factor(system, overwrite_a=True, check_finite=False)

    def apply_batch(x):
        return s_mat @ scipy.linalg.lu_solve(lu_piv, x)

    def apply_transpose_batch(x):
        return scipy.linalg.lu_solve(lu_piv, s_mat.T @ x, trans=1)

    return MatVecOracle(n, apply_batch, apply_transpose_batch)


def schur_oracle(width: int, height: int) -> MatVecOracle:
    """Schur complement of the five-point Poisson stencil on a width x height
    grid onto its middle row, applied via one sparse factorization per
    interior half.  The grid is numbered row by row, so the top half, the
    separator row and the bottom half are contiguous index ranges and every
    block is a slice of the stiffness matrix.  A stencil edge joins only
    neighbouring rows, so none joins the two halves and each half is
    eliminated on its own.  The target is symmetric, so the transpose path
    reuses the forward apply."""
    width = check_integer("grid width", width)
    height = check_integer("grid height", height)
    if width < 8:
        raise DimensionError(f"grid width must be at least 8, got {width}")
    if height < 3 or height % 2 == 0:
        raise DimensionError(f"grid height must be odd and at least 3, got {height}")

    def line(k):  # second difference on k nodes, Dirichlet ends
        return scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))

    c = scipy.sparse.kronsum(line(width), line(height), format="csc")
    mid = height // 2 * width  # first index of the separator row
    top, sep, bottom = slice(0, mid), slice(mid, mid + width), slice(mid + width, None)
    c11 = scipy.sparse.linalg.splu(c[top, top])
    c22 = scipy.sparse.linalg.splu(c[bottom, bottom])
    c13, c31 = c[top, sep].tocsr(), c[sep, top].tocsr()
    c23, c32 = c[bottom, sep].tocsr(), c[sep, bottom].tocsr()
    c33 = c[sep, sep].toarray()

    def apply_batch(x):
        return c33 @ x - c31 @ c11.solve(c13 @ x) - c32 @ c22.solve(c23 @ x)

    return MatVecOracle(width, apply_batch, apply_batch)
