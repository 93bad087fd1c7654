"""Reconstruct a telescoping factorization from randomized probes.

The operator is touched exactly twice: one batched product per direction
against Gaussian test matrices of s columns each.  A level sweep over the
block stacks that apply uses then recovers each level's bases by projecting
its probes onto the nullspace of the nodes' own test rows (so the samples
see only off-diagonal contributions), its discrepancy blocks from
least-squares solves against the test rows that reuse the same factor, one
probe side at a time, and lifts its samples into the parent level's
test/sample stacks until the root core is solved directly.  Nodes of a level
are independent, so each level is one pass over L2-sized ranges of nodes:
a range's bases, discrepancy blocks and lift run back to back while its
samples are still in cache.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    IllConditionedProbeError,
    check_integer,
    check_real,
    check_seed,
    raise_out_of_range,
)
from .factorization import HbsFactorization, fill_records, node_sizes
from .flops import add_madds, matmul
from .linalg import STREAM_OMEGA, STREAM_PSI, blocks, col, gaussian_matrix, lstsq_right, nullspace
from .oracle import MatVecOracle
from .tree import ClusterTree, build_tree


@dataclass(frozen=True)
class CompressionConfig:
    """Run parameters: basis rank r, leaf threshold m, probe count s (None
    selects the default max(r + max leaf size, 3r)) and RNG seed."""

    rank: int
    leaf_threshold: int
    probes: int | None = None
    seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None or field.name != "probes":
                check_integer(field.name, value)

    def validate_for(self, tree: ClusterTree) -> int:
        """Check feasibility against a concrete tree, which must be built
        for this leaf threshold; returns the probe count to use."""
        if tree.leaf_threshold != self.leaf_threshold:
            raise ConfigurationError(
                f"tree has leaf threshold {tree.leaf_threshold}, config has {self.leaf_threshold}"
            )
        if self.rank < 1:
            raise ConfigurationError(f"rank must be positive, got {self.rank}")
        check_seed(self.seed)
        if tree.min_leaf_size < self.rank:
            raise ConfigurationError(
                f"smallest leaf has {tree.min_leaf_size} rows < rank {self.rank}; "
                "lower the rank or raise the leaf threshold"
            )
        s_min = max(self.rank + tree.max_leaf_size, 3 * self.rank)
        s = s_min if self.probes is None else self.probes
        if s < s_min:
            raise ConfigurationError(
                f"probe count {s} below the required max(r + max leaf, 3r) = {s_min}"
            )
        return s


@dataclass(frozen=True)
class SampleSet:
    """Probe quadruple: test matrices omega/psi and their images
    y = A omega, z = A^T psi.  Globally these have n rows; in the sweep they
    are (nodes, rows, s) stacks of one level's leaf slices or lifted 2r-row
    counterparts."""

    omega: np.ndarray
    psi: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        arrays = self.arrays
        if not all(isinstance(a, np.ndarray) for a in arrays):
            kinds = sorted({type(a).__name__ for a in arrays})
            raise DimensionError(f"sample matrices must be numpy arrays, got {kinds}")
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise DimensionError(f"sample matrices must share one shape, got {shapes}")
        for name, a in zip(("omega", "psi", "y", "z"), arrays):
            check_real(f"sample matrix {name}", a)

    def map(self, fn) -> "SampleSet":
        """The quadruple with `fn` applied to each of its four arrays."""
        return SampleSet(omega=fn(self.omega), psi=fn(self.psi), y=fn(self.y), z=fn(self.z))

    def __getitem__(self, index) -> "SampleSet":
        """The quadruple restricted by one index, e.g. one leaf's rows."""
        return self.map(lambda a: a[index])

    @property
    def arrays(self) -> tuple:
        """(omega, psi, y, z)."""
        return self.omega, self.psi, self.y, self.z

    @property
    def rows(self) -> int:
        return self.omega.shape[-2]

    @property
    def probes(self) -> int:
        return self.omega.shape[-1]


def draw_samples(oracle: MatVecOracle, s: int, seed: int) -> SampleSet:
    """Draw the two Gaussian test matrices and take one batched product
    through each direction of the oracle."""
    omega = gaussian_matrix(oracle.n, s, seed, STREAM_OMEGA)
    psi = gaussian_matrix(oracle.n, s, seed, STREAM_PSI)
    y = oracle.apply_batch(omega)
    z = oracle.apply_transpose_batch(psi)
    return SampleSet(omega=omega, psi=psi, y=y, z=z)


def _probe_side(test: np.ndarray, samples: np.ndarray, r: int):
    """One probe side of a node stack: factor the test rows once, take an
    r-column basis of the samples projected onto their nullspace, and solve
    samples @ test^+ from the same factor, which is dropped on return."""
    factor = nullspace(test, r)
    return col(matmul(samples, factor.null)), lstsq_right(samples, factor)


def compress_node_bases(ns: SampleSet, r: int):
    """Recover the bases of a node (or a stack of same-size nodes).

    Projecting the probes onto null(omega) removes the diagonal block's
    contribution, so y @ P is a randomized sample of the node's
    off-diagonal row block; orthonormalizing it gives the column basis.
    The row basis comes from the transposed-side quadruple the same way.
    Each side's factor also gives its least-squares solve, so this returns
    (u, v, y omega^+, z psi^+) and keeps only one side's factor at a time.
    """
    u, left = _probe_side(ns.omega, ns.y, r)
    v, right = _probe_side(ns.psi, ns.z, r)
    return u, v, left, right


def compute_discrepancy(u, v, left, right) -> np.ndarray:
    """Recover the discrepancy block of a node (or a stack of same-size nodes)
    from its bases and the two solves L = Y Omega^+ and Z Psi^+, products only.

    The part of the diagonal block outside range(u) is read off the
    forward samples, the part inside range(u) but outside range(v)^T off
    the transposed ones: D = L + U (R - U^T L) with R = U^T (Z Psi^+)^T (I - V V^T),
    formed in L's storage from r-row products and one full-size product.
    """
    ut, vt = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    right = matmul(ut, right.swapaxes(-1, -2))
    right -= matmul(matmul(right, v), vt)
    right -= matmul(ut, left)
    left += matmul(u, right)
    return left


def lift_to_parent(u, v, disc, samples: SampleSet, sizes) -> SampleSet:
    """Lift one level's (nodes, rows, .) stacks of bases, discrepancy blocks
    and samples, zero-padded beyond each node's real size in `sizes`, into
    the parent level's (nodes / 2, 2r, s) test/sample stacks.

    Test rows are the probes seen through the nodes' bases; sample rows
    first subtract what the nodes' own discrepancy blocks already explain,
    then project onto the bases.  Each parent stacks its two children's
    rows, an exact probe quadruple for the coarser-level operator.
    """
    nodes, _, s = samples.omega.shape
    r, sizes = u.shape[-1], np.asarray(sizes)
    add_madds(4 * r * s * int(sizes.sum()) + 2 * s * int((sizes * sizes).sum()))
    ut, vt = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    lifted = SampleSet(
        omega=vt @ samples.omega,
        psi=ut @ samples.psi,
        y=ut @ (samples.y - disc @ samples.omega),
        z=vt @ (samples.z - disc.swapaxes(-1, -2) @ samples.psi),
    )
    return lifted.map(lambda a: a.reshape(nodes // 2, 2 * r, s))


def compute_root(ns: SampleSet) -> np.ndarray:
    """At the root the whole remaining operator is the core, so one
    least-squares solve against the lifted test rows recovers it."""
    return lstsq_right(ns.y, nullspace(ns.omega, 0))


@np.errstate(over="call", invalid="call", call=raise_out_of_range)
def compress_from_samples(
    samples: SampleSet, tree: ClusterTree, config: CompressionConfig
) -> HbsFactorization:
    """Run the level sweep on an already-drawn sample quadruple (the
    post-sampling arithmetic; touches no oracle).  Each level is one pass
    over the `linalg.blocks` of its parents, a range of nodes holding their
    children: at most linalg.L2_FLOATS floats per sample array, and two
    nodes at least.  A range takes one stack per node size for its bases and
    discrepancy blocks, on real rows only: padded rows make omega rank
    deficient.  Its padded blocks then lift at once into its parents' rows
    of the next level's stacks.
    Samples out of floating-point range raise NonFiniteError: at numpy's
    first overflow or invalid operation in the sweep, or, for what LAPACK
    does not flag, at a non-finite block in the result.
    """
    if samples.omega.ndim != 2:
        raise DimensionError(f"samples must be n x s matrices, got shape {samples.omega.shape}")
    if samples.rows != tree.n:
        raise DimensionError(f"samples are for n={samples.rows}, tree has n={tree.n}")
    if config.probes is not None and config.probes != samples.probes:
        raise ConfigurationError(
            f"config asks for {config.probes} probes, samples have {samples.probes} columns"
        )
    replace(config, probes=samples.probes).validate_for(tree)
    r = config.rank
    f = HbsFactorization.zeros(tree, r)
    # A view of the caller's samples when leaves are uniform: read, never written.
    stack = samples.map(lambda a: fill_records(a, tree.real_rows))
    for level in range(tree.depth, 0, -1):
        sizes = np.array(node_sizes(tree, r, level))
        nodes, rows, s = stack.omega.shape
        parent = stack.map(lambda _: np.empty((nodes // 2, 2 * r, s)))
        for up in blocks(nodes // 2, 2 * rows * s):
            down = slice(2 * up.start, 2 * up.stop)
            part, part_sizes = stack[down], sizes[down]
            u_blk, v_blk, d_blk = f.U[level][down], f.V[level][down], f.D[level][down]
            classes = np.unique(part_sizes)
            for size in classes:
                # A slice keeps a view when the whole range has one size.
                members = slice(None) if classes.size == 1 else np.flatnonzero(part_sizes == size)
                try:
                    u, v, left, right = compress_node_bases(part[members, :size], r)
                except IllConditionedProbeError as exc:
                    j = down.start + np.arange(part_sizes.size)[members][exc.index]
                    raise _at_node(exc, level, j) from exc
                u_blk[members, :size] = u
                v_blk[members, :size] = v
                d_blk[members, :size, :size] = compute_discrepancy(u, v, left, right)
            lifted = lift_to_parent(u_blk, v_blk, d_blk, part, part_sizes)
            for out, block in zip(parent.arrays, lifted.arrays):
                out[up] = block
        stack = parent
    try:
        f.root_disc[...] = compute_root(stack[0])
    except IllConditionedProbeError as exc:
        raise _at_node(exc, 0, 0) from exc
    if not all(np.isfinite(b).all() for b in (*f.U[1:], *f.V[1:], *f.D[1:], f.root_disc)):
        raise_out_of_range("non-finite blocks")
    return f


def _at_node(exc: IllConditionedProbeError, level: int, j: int) -> IllConditionedProbeError:
    node_id = (1 << level) - 1 + int(j)  # level-order id
    return IllConditionedProbeError(
        f"node {node_id} (level {level}): {exc}", node_id=node_id, level=level
    )


def compress_operator(oracle: MatVecOracle, config: CompressionConfig) -> HbsFactorization:
    """Compress a black-box operator end to end: build the tree, draw the
    probe quadruple (exactly s columns through each direction), and sweep
    from the leaves to the root."""
    tree = build_tree(oracle.n, config.leaf_threshold)
    s = config.validate_for(tree)
    samples = draw_samples(oracle, s, config.seed)
    return compress_from_samples(samples, tree, config)
