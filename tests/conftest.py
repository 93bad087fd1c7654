"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import hbs
from hbs.factorization import node_sizes


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
