"""Tests for group-structure detection (section 9)."""

import pytest

from repro.core import classify
from repro.core.groups import GroupStructure, _classify_mesh
from repro.sim import Hypercube, LinearArray, Mesh2D, Torus2D


class TestLinearArrayGroups:
    topo = LinearArray(16)

    def test_contiguous(self):
        s = classify([3, 4, 5, 6], self.topo)
        assert s.kind == "contiguous"
        assert s.stride == 1

    def test_strided(self):
        s = classify([0, 4, 8, 12], self.topo)
        assert s.kind == "strided"
        assert s.stride == 4

    def test_unstructured(self):
        assert classify([0, 1, 5], self.topo).kind == "unstructured"

    def test_reversed_is_unstructured(self):
        assert classify([5, 4, 3], self.topo).kind == "unstructured"

    def test_singleton(self):
        assert classify([7], self.topo).kind == "contiguous"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify([], self.topo)


class TestMeshGroups:
    mesh = Mesh2D(4, 8)

    def test_full_row(self):
        s = classify(self.mesh.row_nodes(2), self.mesh)
        assert s.kind == "row"
        assert s.shape == (1, 8)
        assert s.is_mesh_aligned

    def test_partial_row(self):
        s = classify([17, 18, 19], self.mesh)
        assert s.kind == "row"
        assert s.shape == (1, 3)

    def test_full_column(self):
        s = classify(self.mesh.col_nodes(5), self.mesh)
        assert s.kind == "col"
        assert s.stride == 8
        assert s.shape == (4, 1)

    def test_whole_mesh_is_submesh(self):
        s = classify(range(32), self.mesh)
        assert s.kind == "submesh"
        assert s.shape == (4, 8)

    def test_interior_submesh(self):
        nodes = [9, 10, 11, 17, 18, 19, 25, 26, 27]
        s = classify(nodes, self.mesh)
        assert s.kind == "submesh"
        assert s.shape == (3, 3)

    def test_submesh_requires_row_major_order(self):
        nodes = [9, 17, 10, 18]  # column-major 2x2
        s = classify(nodes, self.mesh)
        assert s.kind != "submesh"

    def test_scattered_is_unstructured(self):
        assert classify([0, 9, 27, 3], self.mesh).kind == "unstructured"

    def test_strided_non_column(self):
        # stride 3 on a width-8 mesh wraps across rows: not a column
        s = classify([0, 3, 6], self.mesh)
        assert s.kind in ("strided", "row")
        # ids 0,3,6 are all row 0 but stride 3 -> not kind "row"
        assert s.kind == "strided"


class TestOtherTopologies:
    def test_hypercube_falls_back_to_stride_rules(self):
        h = Hypercube(4)
        assert classify([0, 1, 2, 3], h).kind == "contiguous"
        assert classify([0, 2, 4, 6], h).kind == "strided"
        assert classify([0, 3, 5], h).kind == "unstructured"


class TestMeshClassifyMemo:
    """Mesh classification is cached on the topology object."""

    def test_repeated_calls_agree(self):
        mesh = Mesh2D(4, 8)
        groups = [list(range(8)), [2, 10, 18, 26], [9, 10, 17, 18],
                  [0, 3, 5], [0, 2, 4, 6]]
        first = [classify(g, mesh) for g in groups]
        assert [classify(g, mesh) for g in groups] == first
        assert [classify(tuple(g), mesh) for g in groups] == first
        assert first == [_classify_mesh(g, mesh) for g in groups]

    def test_shapes_do_not_share_entries(self):
        nodes = (0, 1, 2, 3)
        square, row, col = Mesh2D(2, 2), Mesh2D(1, 4), Mesh2D(4, 1)
        for _ in range(2):
            assert classify(nodes, square) == GroupStructure(
                "submesh", 1, shape=(2, 2))
            assert classify(nodes, row) == GroupStructure(
                "row", 1, shape=(1, 4))
            assert classify(nodes, col) == GroupStructure(
                "col", 1, shape=(4, 1))

    def test_torus_is_memoized_too(self):
        torus = Torus2D(4, 4)
        s = classify([4, 5, 6, 7], torus)
        assert s == GroupStructure("row", 1, shape=(1, 4))
        assert classify([4, 5, 6, 7], torus) is s
