"""Tests for the binary index tree."""

import numpy as np
import pytest
from conftest import level_bounds

from hbs.errors import ConfigurationError
from hbs.tree import build_tree


class TestBuildTree:
    def test_even_split_depth_two(self):
        # 400 indices under threshold 100: two levels, four equal leaves
        tree = build_tree(400, 100)
        assert tree.depth == 2
        assert tree.offsets == (0, 100, 200, 300, 400)

    def test_uneven_split(self):
        tree = build_tree(5, 2)
        assert tree.depth == 2
        assert sorted(tree.leaf_sizes) == [1, 1, 1, 2]

    def test_depth_rule(self):
        # ceil(1000/32) = 32 <= 60 but ceil(1000/16) = 63 > 60
        tree = build_tree(1000, 60)
        assert tree.depth == 5
        assert set(tree.leaf_sizes) == {31, 32}

    def test_leaf_sizes_bounded_by_threshold(self):
        for n in (17, 100, 777, 4096):
            for m in (2, 5, 16, n - 1):
                tree = build_tree(n, m)
                assert all(size <= m for size in tree.leaf_sizes)
                # depth is minimal: one level up would overflow the threshold
                assert (n + 2 ** (tree.depth - 1) - 1) // 2 ** (tree.depth - 1) > m or (
                    tree.depth == 1
                )

    def test_structure_invariants(self):
        for n, m in ((64, 8), (1000, 60), (5, 2), (97, 13)):
            tree = build_tree(n, m)
            assert len(tree.offsets) == 2**tree.depth + 1
            assert sum(tree.leaf_sizes) == n
            floor, ceil = n // 2**tree.depth, -(-n // 2**tree.depth)
            assert set(tree.leaf_sizes) <= {floor, ceil}
            for level in range(tree.depth):
                parents, children = level_bounds(tree, level), level_bounds(tree, level + 1)
                for j in range(2**level):
                    begin, mid, end = children[2 * j : 2 * j + 3]
                    assert (begin, end) == (parents[j], parents[j + 1])
                    a, b = mid - begin, end - mid
                    assert abs(a - b) <= 1
                    assert a >= b  # left child takes the ceiling half

    def test_deterministic(self):
        assert build_tree(123, 10) == build_tree(123, 10)

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            build_tree(10, 10)
        with pytest.raises(ConfigurationError):
            build_tree(1, 2)
        with pytest.raises(ConfigurationError):
            build_tree(10, 1)

    @pytest.mark.parametrize("n, leaf", [(100.0, 10), (100, 10.5)], ids=["float-n", "float-leaf"])
    def test_non_integer_argument_is_config_error(self, n, leaf):
        # a float n escaped as a bare TypeError; a float threshold built a tree
        with pytest.raises(ConfigurationError, match="must be an integer"):
            build_tree(n, leaf)

    def test_numpy_integers_are_accepted(self):
        tree = build_tree(np.int64(100), np.int32(10))
        assert tree == build_tree(100, 10)
        assert all(type(x) is int for x in (tree.n, tree.leaf_threshold, *tree.offsets))


class TestRealRows:
    def test_marks_each_leafs_rows(self):
        tree = build_tree(36, 5)  # leaves of 5 and 4 rows
        mask = tree.real_rows
        assert mask.shape == (8, 5)
        assert mask.sum(axis=1).tolist() == list(tree.leaf_sizes)
        assert all(mask[j, :q].all() for j, q in enumerate(tree.leaf_sizes))

    def test_is_read_only_and_computed_once(self):
        tree = build_tree(36, 5)
        assert tree.real_rows is tree.real_rows
        with pytest.raises(ValueError):
            tree.real_rows[0, 0] = False


class TestNodesAtLevel:
    def test_root_level(self):
        tree = build_tree(400, 100)
        assert level_bounds(tree, 0) == (0, 400)

    def test_leaf_level_partitions(self):
        tree = build_tree(400, 100)
        leaves = level_bounds(tree, 2)
        assert len(leaves) - 1 == 4
        assert leaves[0] == 0 and leaves[-1] == 400

    def test_every_level_partitions_range(self):
        tree = build_tree(97, 13)
        for level in range(tree.depth + 1):
            bounds = level_bounds(tree, level)
            assert len(bounds) - 1 == 2**level
            assert bounds[0] == 0 and bounds[-1] == 97
            assert all(begin < end for begin, end in zip(bounds, bounds[1:]))
