"""Tests for the factorization container format."""

import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import node_blocks

from hbs import linalg, serialize
from hbs.errors import FormatError
from hbs.factorization import HbsFactorization, apply, random_hbs, to_dense
from hbs.serialize import load_factorization, save_factorization
from hbs.tree import build_tree


def assert_identical(f1, f2):
    assert f1.n == f2.n and f1.rank == f2.rank
    assert f1.tree.depth == f2.tree.depth
    np.testing.assert_array_equal(f1.root_disc, f2.root_disc)
    for level in range(1, f1.tree.depth + 1):
        np.testing.assert_array_equal(f1.U[level], f2.U[level])
        np.testing.assert_array_equal(f1.V[level], f2.V[level])
        np.testing.assert_array_equal(f1.D[level], f2.D[level])


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        f = random_hbs(build_tree(100, 12), 4, seed=0)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        assert_identical(f, load_factorization(path))

    def test_uneven_leaves_round_trip(self, tmp_path):
        f = random_hbs(build_tree(101, 12), 4, seed=1)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        g = load_factorization(path)
        assert_identical(f, g)
        q = np.random.default_rng(2).standard_normal(101)
        np.testing.assert_array_equal(apply(f, q), apply(g, q))

    @pytest.mark.parametrize("n, m", [(64, 8), (101, 12)], ids=["uniform", "uneven"])
    def test_loaded_copy_applies_identically(self, tmp_path, n, m):
        f = random_hbs(build_tree(n, m), 3, seed=3)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        dense_before = to_dense(f)
        del f
        g = load_factorization(path)
        np.testing.assert_array_equal(to_dense(g), dense_before)

    def test_fresh_process_applies_identically(self, tmp_path, child_env):
        import subprocess
        import sys

        f = random_hbs(build_tree(96, 12), 4, seed=8)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        q = np.random.default_rng(9).standard_normal(96)
        np.save(tmp_path / "q.npy", q)
        script = (
            "import numpy as np\n"
            "from hbs.factorization import apply\n"
            "from hbs.serialize import load_factorization\n"
            f"f = load_factorization({str(path)!r})\n"
            f"np.save({str(tmp_path / 'u.npy')!r}, apply(f, np.load({str(tmp_path / 'q.npy')!r})))\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, env=child_env)
        np.testing.assert_array_equal(np.load(tmp_path / "u.npy"), apply(f, q))


class TestStreaming:
    """Save and load go through record chunks of at most linalg.L2_FLOATS
    floats, never the whole file or a level."""

    @pytest.mark.parametrize("chunk", [1, 1000, 1 << 40], ids=["one-node", "ragged", "whole-level"])
    @pytest.mark.parametrize("n", [96, 101], ids=["uniform", "uneven"])
    def test_chunks_change_no_byte(self, tmp_path, n, chunk, monkeypatch):
        # one-node chunks reuse the buffer for leaves of both sizes, whose
        # padding must come back zero; 1000 floats leave a shorter last chunk
        f = random_hbs(build_tree(n, 12), 4, seed=11)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        digest = hashlib.sha256(path.read_bytes()).digest()
        monkeypatch.setattr(linalg, "L2_FLOATS", chunk)
        g = load_factorization(path)
        assert_identical(f, g.validate())
        save_factorization(g, path)
        assert hashlib.sha256(path.read_bytes()).digest() == digest

    @pytest.mark.parametrize(
        "n, m, r", [(8192, 32, 8), (16001, 160, 35)], ids=["uniform", "padded"]
    )
    def test_peak_is_the_stacks(self, tmp_path, n, m, r):
        # 4.2 and 26 MB files: holding one whole, or a level-sized copy, would
        # exceed the bound of the loaded stacks plus 2 MiB; on the padded tree
        # (leaves of 125 and 126 rows) so would a mask of the whole leaf level
        f = random_hbs(build_tree(n, m), r, seed=12)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        stacks = f.root_disc.nbytes + sum(s.nbytes for s in (*f.U[1:], *f.V[1:], *f.D[1:]))
        assert path.stat().st_size > 4_000_000
        del f
        tracemalloc.start()
        try:
            load_factorization(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stacks + (2 << 20)


def blocks_in_level_order(f):
    """(column basis, row basis, discrepancy) of every non-root node, in
    level order."""
    return [
        node_blocks(f, level, j) for level in range(1, f.tree.depth + 1) for j in range(2**level)
    ]


class TestFileLayout:
    @pytest.mark.parametrize(
        "n, leaf_sizes", [(96, {12}), (101, {6, 7})], ids=["uniform", "uneven"]
    )
    def test_byte_layout(self, tmp_path, n, leaf_sizes):
        # parse the bytes by hand, per the README "File format" section,
        # so a drift shared by save and load still fails; uniform leaves
        # leave no padding in any node record, uneven ones pad the leaves
        tree = build_tree(n, 12)
        r = 4
        f = random_hbs(tree, r, seed=10)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        data = path.read_bytes()

        header = struct.Struct("<4sIQIII")
        assert header.unpack_from(data, 0) == (b"HBSF", 1, n, r, tree.depth, 12)
        offset = header.size

        blocks = blocks_in_level_order(f)
        assert len(blocks) == 2 ** (tree.depth + 1) - 2
        rows = struct.unpack_from(f"<{len(blocks)}I", data, offset)
        offset += 4 * len(blocks)
        leaf_rows = rows[-(2**tree.depth) :]
        assert rows[: -len(leaf_rows)] == (2 * r,) * (len(rows) - len(leaf_rows))
        assert set(leaf_rows) == leaf_sizes and sum(leaf_rows) == n

        def take(shape):
            nonlocal offset
            count = shape[0] * shape[1]
            block = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
            offset += 8 * count
            return block.reshape(shape, order="F")

        for (u, v, d), q in zip(blocks, rows):
            np.testing.assert_array_equal(take((q, r)), u)
            np.testing.assert_array_equal(take((q, r)), v)
            np.testing.assert_array_equal(take((q, q)), d)
        np.testing.assert_array_equal(take((2 * r, 2 * r)), f.root_disc)
        assert offset == len(data)


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        f = random_hbs(build_tree(32, 4), 2, seed=4)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_factorization(path)

    def test_bad_version(self, tmp_path):
        f = random_hbs(build_tree(32, 4), 2, seed=5)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_factorization(path)

    def test_truncated(self, tmp_path):
        f = random_hbs(build_tree(32, 4), 2, seed=6)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            load_factorization(path)

    @pytest.mark.parametrize("cut, match", [(-16, "truncated file: blocks need"),
                                            (8, "trailing bytes: blocks need")],
                             ids=["truncated", "trailing"])
    def test_size_is_checked_before_allocating(self, tmp_path, monkeypatch, cut, match):
        f = random_hbs(build_tree(101, 12), 4, seed=13)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + bytes(cut))

        def zeros(cls, *args):
            raise AssertionError("stacks allocated before the size check")

        monkeypatch.setattr(HbsFactorization, "zeros", classmethod(zeros))
        with pytest.raises(FormatError, match=match):
            load_factorization(path)

    @pytest.mark.parametrize("missing", [8, 8 * 4 * 4 * 4 + 8], ids=["root", "leaf-records"])
    def test_short_read_is_format_error(self, tmp_path, monkeypatch, missing):
        # the file shrinks after its size was read: the read that comes up
        # short raises, and no zero-filled factorization comes back
        f = random_hbs(build_tree(101, 12), 4, seed=14)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-missing])
        fstat = os.fstat
        monkeypatch.setattr(serialize.os, "fstat", lambda fd: os.stat_result(
            (*fstat(fd)[:6], full, *fstat(fd)[7:10])))
        with pytest.raises(FormatError, match="truncated file: .* needs .* bytes past offset"):
            load_factorization(path)

    def test_oversized_header_fields(self, tmp_path):
        # a corrupt n or rank must fail on the file size, before any
        # tree or block allocation sized by the header
        f = random_hbs(build_tree(32, 4), 2, seed=8)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        good = path.read_bytes()
        for field, value in ((slice(8, 16), (1 << 60).to_bytes(8, "little")),
                             (slice(16, 20), (1 << 31).to_bytes(4, "little"))):
            data = bytearray(good)
            data[field] = value
            path.write_bytes(bytes(data))
            with pytest.raises(FormatError):
                load_factorization(path)

    def test_header_tree_out_of_range(self, tmp_path):
        # a leaf threshold no tree can be built from is a corrupt file, not
        # a bad configuration
        f = random_hbs(build_tree(64, 8), 2, seed=9)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        good = path.read_bytes()
        for leaf_threshold in (0, 1, 10**6):
            data = bytearray(good)
            data[24:28] = leaf_threshold.to_bytes(4, "little")
            path.write_bytes(bytes(data))
            with pytest.raises(FormatError):
                load_factorization(path)

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "f.hbsf"
        path.write_bytes(b"HBSF\x01\x00\x00\x00")
        with pytest.raises(FormatError, match="truncated file: header needs 28 bytes"):
            load_factorization(path)

    def test_header_depth_disagrees_with_tree(self, tmp_path):
        f = random_hbs(build_tree(32, 4), 2, seed=10)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        data = bytearray(path.read_bytes())
        data[20:24] = (5).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="header depth 5 does not match the depth-3 tree"):
            load_factorization(path)

    def test_trailing_garbage(self, tmp_path):
        f = random_hbs(build_tree(32, 4), 2, seed=7)
        path = tmp_path / "f.hbsf"
        save_factorization(f, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_factorization(path)
