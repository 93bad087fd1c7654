"""Reconstruct a telescoping factorization from randomized probes.

The operator is touched exactly twice: one batched product per direction
against Gaussian test matrices of s columns each.  Every node's bases are
then recovered by projecting the global probes onto the nullspace of the
node's own test rows (so the samples see only off-diagonal contributions),
discrepancy blocks come from least-squares solves against the test rows,
and compressed nodes lift their samples into coarser-level test/sample
quadruples until the root core is solved directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, IllConditionedProbeError
from .factorization import HbsFactorization
from .flops import add_madds, matmul_madds
from .linalg import (
    DEFAULT_ILL_CONDITIONING_TOL,
    STREAM_OMEGA,
    STREAM_PSI,
    col,
    gaussian_matrix,
    lstsq_right,
    nullspace,
)
from .oracle import MatVecOracle
from .tree import ClusterTree, build_tree


@dataclass(frozen=True)
class CompressionConfig:
    """Run parameters: basis rank r, leaf threshold m, probe count s (None
    selects the default max(r + max leaf size, 3r)), RNG seed, and the
    relative tolerance below which a probe matrix counts as rank deficient."""

    rank: int
    leaf_threshold: int
    probes: int | None = None
    seed: int = 0
    ill_conditioning_tol: float = DEFAULT_ILL_CONDITIONING_TOL

    def resolved_probes(self, tree: ClusterTree) -> int:
        if self.probes is not None:
            return self.probes
        return max(self.rank + tree.max_leaf_size, 3 * self.rank)

    def validate_for(self, tree: ClusterTree) -> int:
        """Check feasibility against a concrete tree; returns the probe
        count to use."""
        if self.rank < 1:
            raise ConfigurationError(f"rank must be positive, got {self.rank}")
        if self.leaf_threshold < self.rank:
            raise ConfigurationError(
                f"leaf threshold {self.leaf_threshold} < rank {self.rank}: "
                "leaf bases would be wider than tall"
            )
        if tree.min_leaf_size < self.rank:
            raise ConfigurationError(
                f"smallest leaf has {tree.min_leaf_size} rows < rank {self.rank}; "
                "lower the rank or raise the leaf threshold"
            )
        s = self.resolved_probes(tree)
        s_min = max(self.rank + tree.max_leaf_size, 3 * self.rank)
        if s < s_min:
            raise ConfigurationError(
                f"probe count {s} below the required max(r + max leaf, 3r) = {s_min}"
            )
        return s


@dataclass(frozen=True)
class SampleSet:
    """Probe quadruple: test matrices omega/psi and their images
    y = A omega, z = A^T psi.  Globally these have n rows; one node's
    quadruple is a row slice of them (leaf), or their lifted 2r-row
    counterparts (parent)."""

    omega: np.ndarray
    psi: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        shapes = {self.omega.shape, self.psi.shape, self.y.shape, self.z.shape}
        if len(shapes) != 1:
            raise DimensionError(f"sample matrices must share one shape, got {shapes}")

    def __getitem__(self, rows) -> "SampleSet":
        """The quadruple restricted to some rows, e.g. one leaf's range."""
        return SampleSet(omega=self.omega[rows], psi=self.psi[rows], y=self.y[rows], z=self.z[rows])

    @property
    def rows(self) -> int:
        return self.omega.shape[0]

    @property
    def probes(self) -> int:
        return self.omega.shape[1]


def draw_samples(oracle: MatVecOracle, s: int, seed: int) -> SampleSet:
    """Draw the two Gaussian test matrices and take one batched product
    through each direction of the oracle."""
    if s < 1:
        raise DimensionError(f"need at least one probe column, got {s}")
    omega = gaussian_matrix(oracle.n, s, seed, STREAM_OMEGA)
    psi = gaussian_matrix(oracle.n, s, seed, STREAM_PSI)
    y = oracle.apply_batch(omega)
    z = oracle.apply_transpose_batch(psi)
    return SampleSet(omega=omega, psi=psi, y=y, z=z)


def compress_node_bases(ns: SampleSet, r: int):
    """Recover the node's bases from its samples.

    Projecting the probes onto null(omega) removes the diagonal block's
    contribution, so y @ P is a randomized sample of the node's
    off-diagonal row block; orthonormalizing it gives the column basis.
    The row basis comes from the transposed-side quadruple the same way.
    Returns (u, v, p, q) with p, q the nullspace projectors used.
    """
    if ns.probes - ns.rows < r:
        raise ConfigurationError(
            f"probe count {ns.probes} leaves nullity {ns.probes - ns.rows} < rank {r} "
            f"for a {ns.rows}-row node; increase the probe count s"
        )
    p = nullspace(ns.omega, r)
    add_madds(matmul_madds(ns.rows, ns.probes, r))
    u = col(ns.y @ p, r)
    q = nullspace(ns.psi, r)
    add_madds(matmul_madds(ns.rows, ns.probes, r))
    v = col(ns.z @ q, r)
    return u, v, p, q


def compute_discrepancy(
    u: np.ndarray,
    v: np.ndarray,
    ns: SampleSet,
    tol: float = DEFAULT_ILL_CONDITIONING_TOL,
) -> np.ndarray:
    """Recover the discrepancy block from the node's samples.

    The part of the diagonal block outside range(u) is read off the
    forward samples, the part inside range(u) but outside range(v)^T off
    the transposed ones; both reduce to least-squares solves against the
    node's test rows.
    """
    rows = ns.rows
    y_solve = lstsq_right(ns.y, ns.omega, tol)
    z_solve = lstsq_right(ns.z, ns.psi, tol)
    add_madds(6 * matmul_madds(u.shape[1], rows, rows))
    left = y_solve - u @ (u.T @ y_solve)
    right = u @ (u.T @ (z_solve - v @ (v.T @ z_solve)).T)
    return left + right


def lift_to_parent(alpha, beta) -> SampleSet:
    """Combine two compressed children, each given as (u, v, disc,
    samples), into their parent's test/sample rows.

    Test rows are the probes seen through the children's bases; sample rows
    first subtract what the children's own discrepancy blocks already
    explain, then project onto the bases.  The result is an exact probe
    quadruple for the coarser-level operator.
    """

    def lifted(child):
        u, v, disc, ns = child
        rows, s = ns.rows, ns.probes
        r = u.shape[1]
        add_madds(4 * matmul_madds(r, rows, s) + 2 * matmul_madds(rows, rows, s))
        return (
            v.T @ ns.omega,
            u.T @ ns.psi,
            u.T @ (ns.y - disc @ ns.omega),
            v.T @ (ns.z - disc.T @ ns.psi),
        )

    return SampleSet(*(np.vstack(pair) for pair in zip(lifted(alpha), lifted(beta))))


def compute_root(ns: SampleSet, tol: float = DEFAULT_ILL_CONDITIONING_TOL) -> np.ndarray:
    """At the root the whole remaining operator is the core, so one
    least-squares solve against the lifted test rows recovers it."""
    return lstsq_right(ns.y, ns.omega, tol)


def compress_from_samples(
    samples: SampleSet, tree: ClusterTree, config: CompressionConfig
) -> HbsFactorization:
    """Run the level sweep on an already-drawn sample quadruple (the
    post-sampling arithmetic; touches no oracle)."""
    if samples.rows != tree.n:
        raise DimensionError(f"samples are for n={samples.rows}, tree has n={tree.n}")
    r = config.rank
    tol = config.ill_conditioning_tol
    f = HbsFactorization.zeros(tree, r)
    bounds = tree.offsets
    level_samples = [samples[begin:end] for begin, end in zip(bounds, bounds[1:])]
    for level in range(tree.depth, 0, -1):
        done = []  # (u, v, disc, samples) of this level's nodes, left to right
        for j, ns in enumerate(level_samples):
            try:
                u, v, _, _ = compress_node_bases(ns, r)
                d = compute_discrepancy(u, v, ns, tol)
            except IllConditionedProbeError as exc:
                raise _at_node(exc, level, j) from exc
            for block, value in zip(f.node_blocks(level, j), (u, v, d)):
                block[...] = value
            done.append((u, v, d, ns))
        level_samples = [lift_to_parent(done[k], done[k + 1]) for k in range(0, len(done), 2)]
    try:
        f.root_disc[...] = compute_root(level_samples[0], tol)
    except IllConditionedProbeError as exc:
        raise _at_node(exc, 0, 0) from exc
    return f


def _at_node(exc: IllConditionedProbeError, level: int, j: int) -> IllConditionedProbeError:
    node_id = (1 << level) - 1 + j  # level-order id
    return IllConditionedProbeError(
        f"node {node_id} (level {level}): {exc}", node_id=node_id, level=level
    )


def compress(oracle: MatVecOracle, config: CompressionConfig) -> HbsFactorization:
    """Compress a black-box operator end to end: build the tree, draw the
    probe quadruple (exactly s columns through each direction), and sweep
    from the leaves to the root."""
    tree = build_tree(oracle.n, config.leaf_threshold)
    s = config.validate_for(tree)
    samples = draw_samples(oracle, s, config.seed)
    return compress_from_samples(samples, tree, config)
