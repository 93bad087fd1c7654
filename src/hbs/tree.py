"""Fully populated binary trees over contiguous index ranges.

The tree fixes the block structure of a compressed operator: the root owns
[0, n), every parent splits its range into two nearly equal halves (left
child takes the ceiling half), and all leaves sit at one global depth, the
smallest at which every leaf fits under the size threshold.

Nodes are implicit: node j of level l (0 <= j < 2^l, level order) owns
[offsets[j * 2^(depth - l)], offsets[(j + 1) * 2^(depth - l)]), where
`offsets` are the leaf boundaries.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, check_integer


@dataclass(frozen=True)
class ClusterTree:
    n: int
    depth: int
    leaf_threshold: int
    offsets: tuple[int, ...] = field(repr=False)  # 2^depth + 1 leaf boundaries

    @cached_property
    def leaf_sizes(self) -> tuple[int, ...]:
        return tuple(end - begin for begin, end in zip(self.offsets, self.offsets[1:]))

    @cached_property
    def min_leaf_size(self) -> int:
        return min(self.leaf_sizes)

    @cached_property
    def max_leaf_size(self) -> int:
        return max(self.leaf_sizes)

    @cached_property
    def real_rows(self) -> np.ndarray:
        """Read-only (2^depth, max leaf size) mask of the leaf-stack rows that
        hold data; in row-major order its True entries are the indices 0..n-1."""
        mask = np.arange(self.max_leaf_size) < np.array(self.leaf_sizes)[:, None]
        mask.flags.writeable = False
        return mask


def build_tree(n: int, leaf_threshold: int) -> ClusterTree:
    """Build the depth-L fully populated binary tree on [0, n), where L is
    the smallest depth at which ceil(n / 2^L) <= leaf_threshold.

    Every branch is split all the way to depth L, so leaf sizes differ by at
    most one; compression sweeps can then proceed level by level.
    """
    n, leaf_threshold = check_integer("n", n), check_integer("leaf_threshold", leaf_threshold)
    if leaf_threshold < 2:
        raise ConfigurationError(f"leaf threshold must be at least 2, got {leaf_threshold}")
    if leaf_threshold >= n:
        raise ConfigurationError(
            f"leaf threshold {leaf_threshold} >= matrix dimension {n}: "
            "tree would have no levels"
        )

    depth = 1
    while (n + (1 << depth) - 1) >> depth > leaf_threshold:  # ceil(n / 2**depth)
        depth += 1

    offsets = [0, n]
    for _ in range(depth):
        mids = [begin + (end - begin + 1) // 2 for begin, end in zip(offsets, offsets[1:])]
        offsets = [x for pair in zip(offsets, mids) for x in pair] + [n]
    return ClusterTree(n=n, depth=depth, leaf_threshold=leaf_threshold, offsets=tuple(offsets))
