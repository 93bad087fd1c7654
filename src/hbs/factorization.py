"""Compressed-operator container: a telescoping factorization over a cluster
tree with per-node orthonormal bases and dense discrepancy blocks, stored
as one stack of blocks per tree level.

Every non-root node tau stores a column basis, a row basis (both with
`rank` orthonormal columns), and a square discrepancy block holding the
part of the node's diagonal block the bases cannot express.  The root
stores only a 2*rank square core.  Applying the represented operator is an
upward sweep, a root product, and a downward sweep, one stacked matrix
product per level and step, in O(rank^2 * n) multiply-adds.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    ResourceLimitError,
    check_integer,
    check_real,
    raise_out_of_range,
)
from .flops import add_madds
from .linalg import STREAM_SYNTHETIC, blocks, seeded_rng
from .tree import ClusterTree

DENSE_CAP = 8192  # largest n that to_dense expands
_ORTHONORMALITY_TOL = 1e-10


def node_sizes(tree: ClusterTree, rank: int, level: int) -> tuple[int, ...]:
    """Block rows of each node of one level: the leaf sizes at the leaf
    level, 2*rank above it."""
    return tree.leaf_sizes if level == tree.depth else (2 * rank,) * (1 << level)


def stack_shapes(tree: ClusterTree, rank: int, level: int):
    """Shapes of one level's column-basis, row-basis and discrepancy stacks,
    every node's blocks zero-padded to the level's largest node."""
    nodes, rows = 1 << level, max(node_sizes(tree, rank, level))
    return (nodes, rows, rank), (nodes, rows, rank), (nodes, rows, rows)


def stored_floats(tree: ClusterTree, rank: int) -> int:
    """Real floats of a factorization on `tree` (leaf padding excluded): every
    non-root node's two bases and discrepancy, and the 2*rank square root core."""
    return 4 * rank * rank + sum(2 * rank * q + q * q for level in range(1, tree.depth + 1)
                                 for q in node_sizes(tree, rank, level))


class HbsFactorization:
    """Telescoping factorization of a square operator over a cluster tree.

    For each level l = 1..depth, U[l] and V[l] stack the column and row
    bases of the level's 2^l nodes, left to right, as (2^l, rows, rank)
    arrays, and D[l] stacks their discrepancy blocks as (2^l, rows, rows);
    index 0 of each list is None, since the root keeps only the
    (2*rank x 2*rank) core `root_disc`.  Parent levels have rows = 2*rank.
    The leaf level has rows = the largest leaf size: a leaf of size k keeps
    its blocks in the leading k rows (and columns) and the rest is zero.
    """

    def __init__(self, tree: ClusterTree, rank: int, U, V, D, root_disc):
        self.tree = tree
        self.rank = rank
        self.U = list(U)
        self.V = list(V)
        self.D = list(D)
        self.root_disc = np.asarray(root_disc, dtype=np.float64)
        self._check_shapes()

    @classmethod
    def zeros(cls, tree: ClusterTree, rank: int) -> "HbsFactorization":
        """An all-zero factorization, for writers to fill block by block."""
        shapes = [stack_shapes(tree, rank, level) for level in range(1, tree.depth + 1)]
        U, V, D = ([None] + [np.zeros(shape) for shape in kind] for kind in zip(*shapes))
        return cls(tree, rank, U, V, D, np.zeros((2 * rank, 2 * rank)))

    @property
    def n(self) -> int:
        return self.tree.n

    @cached_property
    def total_floats(self) -> int:
        """`stored_floats` of this factorization, counted on first use."""
        return stored_floats(self.tree, self.rank)

    def _check_shapes(self):
        r, depth = self.rank, self.tree.depth
        if self.root_disc.shape != (2 * r, 2 * r):
            raise DimensionError(
                f"root core must be {2 * r} x {2 * r}, got {self.root_disc.shape}"
            )
        for stacks in (self.U, self.V, self.D):
            if len(stacks) != depth + 1:
                raise DimensionError(
                    f"need block stacks for levels 0..{depth}, got {len(stacks)} entries"
                )
        kinds = ("column bases", "row bases", "discrepancies")
        for level in range(1, depth + 1):
            shapes = stack_shapes(self.tree, r, level)
            for stacks, shape, kind in zip((self.U, self.V, self.D), shapes, kinds):
                if np.shape(stacks[level]) != shape:
                    raise DimensionError(
                        f"level {level}: {kind} must be {shape}, got {np.shape(stacks[level])}"
                    )

    def validate(self):
        """Check orthonormality of every stored basis, finiteness of all
        blocks, and zero leaf padding; raises FormatError on violation."""
        eye = np.eye(self.rank)
        for level in range(1, self.tree.depth + 1):
            first = (1 << level) - 1  # level-order id of the level's first node
            for stack, kind in ((self.U[level], "column basis"), (self.V[level], "row basis")):
                defect = np.linalg.norm(stack.transpose(0, 2, 1) @ stack - eye, axis=(1, 2))
                bad = np.flatnonzero(~(defect <= _ORTHONORMALITY_TOL))
                if bad.size:
                    raise FormatError(
                        f"node {first + bad[0]}: {kind} orthonormality defect "
                        f"{defect[bad[0]]:.3e}"
                    )
            bad = np.flatnonzero(~np.isfinite(self.D[level]).all(axis=(1, 2)))
            if bad.size:
                raise FormatError(
                    f"node {first + bad[0]}: discrepancy block has non-finite entries"
                )
        if not np.isfinite(self.root_disc).all():
            raise FormatError("root core has non-finite entries")
        depth = self.tree.depth
        pad = ~self.tree.real_rows
        leaf_d = self.D[depth]
        for stack in (self.U[depth], self.V[depth], leaf_d, leaf_d.transpose(0, 2, 1)):
            if stack[pad].any():
                raise FormatError("leaf blocks have nonzero entries outside the leaf size")
        return self


def record_views(records: np.ndarray, rank: int, column_major: bool = False):
    """Views of the column bases, row bases and discrepancies in a (nodes,
    rows * (2 * rank + rows)) array of node records: each node's three blocks,
    zero-padded to `rows`, flattened row- (or column-) major, one after another."""
    nodes, rows = len(records), math.isqrt(rank * rank + records.shape[1]) - rank
    blocks = zip(np.split(records, [rows * rank, 2 * rows * rank], axis=1), (rank, rank, rows))
    return tuple(b.reshape(nodes, cols, rows).transpose(0, 2, 1) if column_major
                 else b.reshape(nodes, rows, cols) for b, cols in blocks)


def record_mask(real: np.ndarray, rank: int, column_major: bool = False):
    """Mask of the real entries of node records whose real rows `real` marks,
    one (nodes, rows) row per record; in row-major order its True entries are
    the unpadded blocks' entries, node by node."""
    mask = np.empty((len(real), real.shape[1] * (2 * rank + real.shape[1])), dtype=bool)
    u, v, d = record_views(mask, rank, column_major)
    u[...] = v[...] = real[:, :, None]
    d[...] = real[:, :, None] & real[:, None, :]
    return mask


def fill_records(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Rows of `data` at the True entries of `mask`, zeros elsewhere (a view if all True)."""
    if mask.all():
        return data.reshape(mask.shape + data.shape[1:])
    records = np.zeros(mask.shape + data.shape[1:])
    records[mask] = data
    return records


@np.errstate(over="call", invalid="call", call=raise_out_of_range)
def apply_matrix(f: HbsFactorization, q: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Apply the represented operator (or its transpose) to the columns of q.

    The upward pass projects each node's slice onto its row basis, the root
    core couples the two halves, and the downward pass expands through
    column bases while discrepancy blocks re-inject what the bases miss:
    one stacked product per level and pass, one madd per stored float and column.
    Besides the up sweep's stacks and the result, a call allocates only
    temporaries of at most linalg.L2_FLOATS floats, and it never writes q.
    A product that overflows, or an invalid operation, raises NonFiniteError.
    """
    q = check_real("apply input", q)
    if q.ndim != 2 or q.shape[0] != f.n:
        raise DimensionError(f"expected a {f.n} x c matrix, got array of shape {q.shape}")
    tree, r, depth = f.tree, f.rank, f.tree.depth
    c = q.shape[1]
    add_madds(c * f.total_floats)
    # Transposing swaps the roles of the two basis families and transposes
    # every discrepancy block.
    up_bases = f.U if transpose else f.V
    down_bases = f.V if transpose else f.U

    # x[l] stacks the inputs of the level-l nodes: leaf slices of q, then
    # the two children's projections one above the other.
    x = [None] * depth + [fill_records(q, tree.real_rows)]
    for level in range(depth, 0, -1):
        qhat = up_bases[level].transpose(0, 2, 1) @ x[level]
        x[level - 1] = qhat.reshape(1 << (level - 1), 2 * r, c)

    # The down sweep writes each parent level's output over x[level], range by
    # range: a range of x[level] is dead once its discrepancy product is taken,
    # which is freed before the next range's is made.  Only the leaf level's
    # output is new.
    root_core = f.root_disc.T if transpose else f.root_disc
    y = root_core @ x[0][0]
    for level in range(1, depth + 1):
        disc = f.D[level].transpose(0, 2, 1) if transpose else f.D[level]
        bases, parent, inputs = down_bases[level], y.reshape(1 << level, r, c), x[level]
        y = inputs if level < depth else np.empty(inputs.shape)
        nodes, rows = inputs.shape[:2]
        for part in blocks(nodes, rows * c):
            product = disc[part] @ inputs[part]
            out = np.matmul(bases[part], parent[part], out=y[part])
            out += product
            del product
    if tree.min_leaf_size == tree.max_leaf_size:
        return y.reshape(tree.n, c)  # a view; a mask gather slows one-vector applies
    return y[tree.real_rows]


def _column(f: HbsFactorization, q) -> np.ndarray:
    """One vector as an n x 1 matrix, after checking its shape."""
    q = check_real("apply input", q)
    if q.ndim != 1 or q.shape[0] != f.n:
        raise DimensionError(f"expected a length-{f.n} vector, got array of shape {q.shape}")
    return q[:, None]


def apply(f: HbsFactorization, q: np.ndarray) -> np.ndarray:
    """Apply the represented operator to one vector."""
    return apply_matrix(f, _column(f, q))[:, 0]


def apply_transpose(f: HbsFactorization, q: np.ndarray) -> np.ndarray:
    """Apply the transpose of the represented operator to one vector."""
    return apply_matrix(f, _column(f, q), transpose=True)[:, 0]


def to_dense(f: HbsFactorization) -> np.ndarray:
    """Expand the factorization level by level into an explicit dense matrix
    (test oracle; refuses n above DENSE_CAP to keep the linear-memory contract)."""
    if f.n > DENSE_CAP:
        raise ResourceLimitError(f"refusing to densify a {f.n} x {f.n} matrix (cap {DENSE_CAP})")
    core = f.root_disc
    for u, v, d in zip(f.U[1:], f.V[1:], f.D[1:]):
        nodes, rows, r = u.shape
        left = (u @ core.reshape(nodes, r, nodes * r)).reshape(nodes * rows, nodes * r)
        core_t = (v @ left.T.reshape(nodes, r, nodes * rows)).reshape(nodes, rows, nodes, rows)
        core_t[np.arange(nodes), :, np.arange(nodes)] += d.transpose(0, 2, 1)
        core = core_t.reshape(nodes * rows, nodes * rows).T
    real = f.tree.real_rows.ravel()
    return core[real][:, real]


@dataclass(frozen=True)
class StorageReport:
    total_floats: int
    floats_per_dof: float


def storage(f: HbsFactorization) -> StorageReport:
    """Exact count of the stored floats (leaf padding excluded), in total
    and per degree of freedom."""
    return StorageReport(total_floats=f.total_floats, floats_per_dof=f.total_floats / f.n)


def random_hbs(tree: ClusterTree, k: int, seed: int) -> HbsFactorization:
    """Generate a factorization whose dense expansion is exactly block-rank-k
    compressible on `tree` (off-diagonal blocks at every level have rank at
    most k by construction).

    Bases are orthonormalized Gaussian blocks; discrepancy blocks are
    Gaussian with their basis-visible component projected out, which makes
    the emitted blocks coincide with the canonical telescoping factors of
    the generator's own dense matrix.  One Gaussian draw per level fills its
    node records (`record_mask`), so blocks are drawn node by node.
    """
    k, seed = check_integer("k", k), check_integer("seed", seed)
    if k < 0:
        raise DimensionError(f"block rank must be nonnegative, got {k}")
    if k > tree.min_leaf_size:
        raise DimensionError(
            f"block rank {k} exceeds the smallest leaf size {tree.min_leaf_size}"
        )
    rng = seeded_rng(seed, STREAM_SYNTHETIC)
    f = HbsFactorization.zeros(tree, k)
    for level in range(1, tree.depth + 1):
        real = tree.real_rows if level == tree.depth else np.ones((1 << level, 2 * k), bool)
        mask = record_mask(real, k)
        u, v, d = record_views(fill_records(rng.standard_normal(np.count_nonzero(mask)), mask), k)
        u, v = np.linalg.qr(u)[0], np.linalg.qr(v)[0]
        visible = u @ (u.transpose(0, 2, 1) @ d @ v) @ v.transpose(0, 2, 1)
        f.U[level][...], f.V[level][...] = u, v
        np.subtract(d, visible, out=f.D[level])
    f.root_disc[...] = rng.standard_normal((2 * k, 2 * k))
    return f.validate()
