"""Node groups and physical-structure detection (section 9).

"Performance for group operations is maintained by extracting information
about the physical layout of a user-specified group.  In cases where a
group comprises a physical rectangular submesh, the same row- and
column-based techniques are used as in the whole-mesh operations.  When a
group is unstructured or its structure cannot be ascertained, it is
treated as though it were a linear array."

:func:`classify` performs that extraction for our topologies.  The result
feeds strategy selection: submesh groups get mesh-aware conflict factors
(rows and columns are conflict-free highways), everything else gets the
linear-array model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .topology import Mesh2D, Topology, Torus2D


@dataclass(frozen=True)
class GroupStructure:
    """Physical layout information extracted from a group.

    ``kind`` is one of:

    ``"contiguous"``
        consecutive node ids (a physical sub-line on a linear array; on
        a mesh, a run in row-major order);
    ``"strided"``
        an arithmetic progression of node ids with stride > 1;
    ``"row"`` / ``"col"``
        a full or partial physical mesh row/column, in order;
    ``"submesh"``
        a rectangular ``subrows x subcols`` block of a 2-D mesh,
        enumerated row-major (``shape`` holds the block shape);
    ``"unstructured"``
        anything else — treated as a linear array.
    """

    kind: str
    stride: int = 1
    shape: Optional[Tuple[int, int]] = None

    @property
    def is_mesh_aligned(self) -> bool:
        return self.kind in ("row", "col", "submesh")


def _common_stride(nodes: Sequence[int]) -> Optional[int]:
    """Stride if the ids form an arithmetic progression, else None."""
    if len(nodes) < 2:
        return 1
    step = nodes[1] - nodes[0]
    if step <= 0:
        return None
    for a, b in zip(nodes, nodes[1:]):
        if b - a != step:
            return None
    return step


def classify(nodes: Sequence[int], topology: Topology) -> GroupStructure:
    """Extract the physical structure of a group on a topology."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("empty group")
    if len(nodes) == 1:
        return GroupStructure("contiguous", 1)

    if isinstance(topology, (Mesh2D, Torus2D)):
        # every rank of a group classifies the same tuple: memoize on
        # the topology, as ``Topology._adjacency`` does its adjacency
        cache = getattr(topology, "_classify_cache", None)
        if cache is None:
            cache = topology._classify_cache = {}
        key = tuple(nodes)
        struct = cache.get(key)
        if struct is None:
            struct = cache[key] = _classify_mesh(nodes, topology)
        return struct

    stride = _common_stride(nodes)
    if stride == 1:
        return GroupStructure("contiguous", 1)
    if stride is not None:
        return GroupStructure("strided", stride)
    return GroupStructure("unstructured")


def _classify_mesh(nodes: Sequence[int], mesh) -> GroupStructure:
    coords = [mesh.coords(v) for v in nodes]
    rows = sorted({r for r, _ in coords})
    cols = sorted({c for _, c in coords})

    # single physical row, in column order?
    if len(rows) == 1:
        cs = [c for _, c in coords]
        if _common_stride(cs) == 1:
            return GroupStructure("row", 1, shape=(1, len(nodes)))
    # single physical column, in row order?
    if len(cols) == 1:
        rs = [r for r, _ in coords]
        if _common_stride(rs) == 1:
            return GroupStructure("col", mesh.cols, shape=(len(nodes), 1))

    # rectangular submesh enumerated row-major?
    nr, nc = len(rows), len(cols)
    if (nr * nc == len(nodes)
            and rows == list(range(rows[0], rows[0] + nr))
            and cols == list(range(cols[0], cols[0] + nc))):
        expect = [(rows[0] + i // nc, cols[0] + i % nc)
                  for i in range(len(nodes))]
        if coords == expect:
            return GroupStructure("submesh", 1, shape=(nr, nc))

    stride = _common_stride(list(nodes))
    if stride == 1:
        return GroupStructure("contiguous", 1)
    if stride is not None:
        return GroupStructure("strided", stride)
    return GroupStructure("unstructured")
