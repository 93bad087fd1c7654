"""Container file format for factorizations.

Layout: magic bytes "HBSF", a u32 format version, a self-describing header
(n, rank, depth, leaf threshold, then one u32 row count per non-root node
in level order), followed by all blocks as little-endian float64 in
column-major order — for each non-root node in level order its record of
column basis, row basis, and discrepancy block (`factorization.record_views`),
and the root core last.  Round trips are bit-exact.
"""

import os
import struct

import numpy as np

from . import linalg
from .errors import ConfigurationError, FormatError
from .factorization import (
    HbsFactorization,
    fill_records,
    node_sizes,
    record_mask,
    record_views,
    stack_shapes,
    stored_floats,
)
from .tree import build_tree

MAGIC = b"HBSF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQIII")  # magic, version, n, rank, depth, leaf_threshold


def _record_chunks(tree, rank: int):
    """The node records of every non-root level in level order, in the
    `linalg.blocks` of their floats, all through one reused buffer: yields each
    chunk's level, node slice, records and the mask of their real entries, None
    when the level has no padding."""

    def width(rows):
        return rows * (2 * rank + rows)

    # A chunk is one record, or at most L2_FLOATS floats and at most a level:
    # 2^depth records of the widest kind.
    widest = width(max(tree.max_leaf_size, 2 * rank))
    buffer = np.empty(max(widest, min(linalg.L2_FLOATS, widest << tree.depth)), "<f8")
    for level in range(1, tree.depth + 1):
        nodes, rows, _ = stack_shapes(tree, rank, level)[2]
        padded = level == tree.depth and tree.min_leaf_size < tree.max_leaf_size
        for chunk in linalg.blocks(nodes, width(rows)):
            count = chunk.stop - chunk.start
            real = record_mask(tree.real_rows[chunk], rank, column_major=True) if padded else None
            yield level, chunk, buffer[: count * width(rows)].reshape(count, width(rows)), real


def save_factorization(f: HbsFactorization, path) -> None:
    """Write a factorization to `path` (see module docstring for layout)."""
    tree, r = f.tree, f.rank
    levels = range(1, tree.depth + 1)
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(MAGIC, FORMAT_VERSION, tree.n, r, tree.depth, tree.leaf_threshold)
        )
        for level in levels:
            fh.write(np.array(node_sizes(tree, r, level), dtype="<u4").tobytes())
        for level, chunk, records, real in _record_chunks(tree, r):
            for view, stacks in zip(record_views(records, r, True), (f.U, f.V, f.D)):
                view[...] = stacks[level][chunk]
            fh.write(records if real is None else records[real])
        fh.write(np.ascontiguousarray(f.root_disc.T, dtype="<f8"))


def _read_into(fh, out, what):
    """Fill the contiguous buffer `out` from `fh`; FormatError if the file ends first."""
    offset, nbytes = fh.tell(), memoryview(out).nbytes
    if fh.readinto(out) != nbytes:
        raise FormatError(f"truncated file: {what} needs {nbytes} bytes past offset {offset}")
    return out


def load_factorization(path) -> HbsFactorization:
    """Read a factorization written by `save_factorization`; raises FormatError
    on a bad header (magic, version, tree or node sizes), truncation or trailing
    bytes.  Blocks stream through chunks of at most linalg.L2_FLOATS floats (or
    one node record): no buffer holds the file or a level."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = _read_into(fh, bytearray(_HEADER.size), "header")
        magic, version, n, rank, depth, leaf_threshold = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")

        if 8 * n > size:  # leaf discrepancies alone hold at least n floats
            raise FormatError(f"truncated file: {size} bytes cannot hold an n={n} operator")
        try:
            tree = build_tree(n, leaf_threshold)
        except ConfigurationError as exc:
            raise FormatError(f"header describes no tree: {exc}") from exc
        if tree.depth != depth:
            raise FormatError(
                f"header depth {depth} does not match the depth-{tree.depth} tree for "
                f"n={n}, leaf threshold {leaf_threshold}"
            )
        levels = range(1, depth + 1)
        expected = np.array([q for level in levels for q in node_sizes(tree, rank, level)])
        rows = _read_into(fh, np.empty(expected.size, dtype="<u4"), "node dimensions")
        mismatch = np.flatnonzero(rows != expected)
        if mismatch.size:
            node = mismatch[0]
            raise FormatError(
                f"node {node + 1}: header row count {rows[node]} does not match {expected[node]}"
            )

        # Check the size of the block section before allocating anything.
        nbytes, remain = 8 * stored_floats(tree, rank), size - fh.tell()
        if remain != nbytes:
            what = "truncated file" if remain < nbytes else "trailing bytes"
            raise FormatError(f"{what}: blocks need {nbytes} bytes, {remain} remain")

        f = HbsFactorization.zeros(tree, rank)
        for level, chunk, records, real in _record_chunks(tree, rank):
            if real is None:
                _read_into(fh, records, "blocks")
            else:  # the real floats, read to the buffer's front, into zeroed records
                data = records.reshape(-1)[: np.count_nonzero(real)]
                records = fill_records(_read_into(fh, data, "blocks"), real)
            for view, stacks in zip(record_views(records, rank, True), (f.U, f.V, f.D)):
                stacks[level][chunk] = view
        root = _read_into(fh, np.empty(f.root_disc.shape, dtype="<f8"), "root core")
        f.root_disc[...] = root.T
    return f
