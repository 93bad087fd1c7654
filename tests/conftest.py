"""Shared fixtures."""

import os
from pathlib import Path

import numpy as np
import pytest

import hbs
from hbs.factorization import HbsFactorization, node_sizes
from hbs.operators import Contour
from hbs.tree import build_tree


@pytest.fixture
def child_env():
    """Environment for a child Python process that must import the same
    hbs package as the tests, also when it is not installed."""
    src = str(Path(hbs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def node_blocks(f, level, j):
    """Views of (column basis, row basis, discrepancy) of node j of a level
    of a factorization, leaf blocks cut to the leaf's size."""
    rows = node_sizes(f.tree, f.rank, level)[j]
    return f.U[level][j, :rows], f.V[level][j, :rows], f.D[level][j, :rows, :rows]


def level_bounds(tree, level):
    """The 2^level + 1 boundaries of the nodes of one level of `tree`; node j
    owns [bounds[j], bounds[j + 1])."""
    return tree.offsets[:: 1 << (tree.depth - level)]


def dense_factorization(a):
    """A depth-1 factorization of the n x n matrix `a` (n even) whose apply is
    exactly `a @ q`: rank n/2, identity bases, zero discrepancies and `a` as
    the root core."""
    n = len(a)
    f = HbsFactorization.zeros(build_tree(n, n // 2), n // 2)
    f.U[1][...] = f.V[1][...] = np.eye(n // 2)
    f.root_disc[...] = a
    return f


def circle_contour(radius: float = 1.0) -> Contour:
    """Circle of the given radius, for closed-form kernel checks."""
    r = float(radius)
    return Contour(
        radius=lambda t: np.full_like(np.asarray(t, dtype=np.float64), r),
        dradius=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
    )
