"""Container file format for factorizations.

Layout: magic bytes "HBSF", a u32 format version, a self-describing header
(n, rank, depth, leaf threshold, then one u32 row count per non-root node
in level order), followed by all blocks as little-endian float64 in
column-major order — for each non-root node in level order its record of
column basis, row basis, and discrepancy block (`factorization.record_views`),
and the root core last.  Round trips are bit-exact.
"""

import struct

import numpy as np

from .errors import ConfigurationError, FormatError
from .factorization import HbsFactorization, node_sizes, record_mask, record_views, stored_floats
from .tree import build_tree

MAGIC = b"HBSF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQIII")  # magic, version, n, rank, depth, leaf_threshold
_CHUNK_FLOATS = 1 << 17  # 1 MiB: records are written in chunks, not level-sized copies


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
        for level in levels:
            mask = record_mask(tree, r, level, column_major=True)
            padded, step = not mask.all(), max(1, _CHUNK_FLOATS // max(1, mask.shape[1]))
            buffer = np.empty((min(step, len(mask)), mask.shape[1]), dtype="<f8")
            for first in range(0, len(mask), step):
                chunk = slice(first, first + step)
                records = buffer[: len(mask[chunk])]
                for view, stacks in zip(record_views(records, r, True), (f.U, f.V, f.D)):
                    view[...] = stacks[level][chunk]
                fh.write(records[mask[chunk]] if padded else records)
        fh.write(np.ascontiguousarray(f.root_disc.T, dtype="<f8"))


def _take(buffer, offset, nbytes, what):
    if offset + nbytes > len(buffer):
        raise FormatError(f"truncated file: {what} needs {nbytes} bytes past offset {offset}")
    return buffer[offset : offset + nbytes], offset + nbytes


def load_factorization(path) -> HbsFactorization:
    """Read a factorization written by `save_factorization`; raises FormatError
    on a bad header (magic, version, tree or node sizes), truncation or trailing bytes."""
    with open(path, "rb") as fh:
        buffer = memoryview(fh.read())  # slices without copying
    raw, offset = _take(buffer, 0, _HEADER.size, "header")
    magic, version, n, rank, depth, leaf_threshold = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")

    if 8 * n > len(buffer):  # leaf discrepancies alone hold at least n floats
        raise FormatError(f"truncated file: {len(buffer)} bytes cannot hold an n={n} operator")
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
    raw, offset = _take(buffer, offset, 4 * expected.size, "node dimensions")
    rows = np.frombuffer(raw, dtype="<u4")
    mismatch = np.flatnonzero(rows != expected)
    if mismatch.size:
        node = mismatch[0]
        raise FormatError(
            f"node {node + 1}: header row count {rows[node]} does not match {expected[node]}"
        )

    # Check the size of the block section before allocating anything.
    nbytes, remain = 8 * stored_floats(tree, rank), len(buffer) - offset
    if remain != nbytes:
        what = "truncated file" if remain < nbytes else "trailing bytes"
        raise FormatError(f"{what}: blocks need {nbytes} bytes, {remain} remain")

    # Node by node, unlike save: its many small block views keep glibc from trimming
    # the heap the next large apply reuses (read level-wise, apply_block_s ran 36% slower).
    f = HbsFactorization.zeros(tree, rank)
    blocks = [b for level in levels for j, q in enumerate(node_sizes(tree, rank, level))
              for b in (f.U[level][j, :q], f.V[level][j, :q], f.D[level][j, :q, :q])]
    for block in (*blocks, f.root_disc):
        data = np.frombuffer(buffer, dtype="<f8", count=block.size, offset=offset)
        block[...] = data.reshape(block.shape, order="F")
        offset += 8 * block.size
    return f
