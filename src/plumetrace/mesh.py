"""Two-dimensional triangular meshes: construction, point location, file I/O.

Meshes are conforming triangulations with counter-clockwise element
connectivity.  All geometric helpers work from edge coordinate differences
``x_ij = x_i - x_j`` so that element matrices elsewhere in the package can be
written directly in those terms.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MeshError",
    "TriMesh",
    "build_structured_mesh",
    "locate_points",
    "load_mesh",
    "save_mesh",
]


class MeshError(ValueError):
    """Raised when mesh data violates a structural invariant."""


class TriMesh:
    """Immutable triangular mesh.

    Parameters
    ----------
    nodes : array_like
        Node coordinates, shape ``(C, 2)``.
    elements : array_like
        Node index triplets, shape ``(E, 3)``, each in counter-clockwise
        order.

    Raises
    ------
    MeshError
        If an element references a node out of range or twice, has zero or
        negative (clockwise) signed area, or two elements overlap by sharing
        a directed edge.
    """

    def __init__(self, nodes, elements):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError(f"nodes must have shape (C, 2), got {nodes.shape}")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError(
                f"elements must have shape (E, 3), got {elements.shape}"
            )
        if not np.isfinite(nodes).all():
            raise MeshError("node coordinates must be finite")
        n_nodes = nodes.shape[0]
        if elements.size and (elements.min() < 0 or elements.max() >= n_nodes):
            raise MeshError("element references a node index out of range")
        if elements.shape[0] == 0:
            raise MeshError("mesh has no elements")
        same = (
            (elements[:, 0] == elements[:, 1])
            | (elements[:, 0] == elements[:, 2])
            | (elements[:, 1] == elements[:, 2])
        )
        if same.any():
            raise MeshError(
                f"element {int(np.flatnonzero(same)[0])} repeats a node index"
            )

        self.nodes = nodes
        self.elements = elements
        self.nodes.setflags(write=False)
        self.elements.setflags(write=False)

        p1 = nodes[elements[:, 0]]
        p2 = nodes[elements[:, 1]]
        p3 = nodes[elements[:, 2]]
        self._x21 = p2[:, 0] - p1[:, 0]
        self._x31 = p3[:, 0] - p1[:, 0]
        self._x32 = p3[:, 0] - p2[:, 0]
        self._y21 = p2[:, 1] - p1[:, 1]
        self._y31 = p3[:, 1] - p1[:, 1]
        self._y32 = p3[:, 1] - p2[:, 1]
        signed = 0.5 * (self._x21 * self._y31 - self._x31 * self._y21)
        if (signed <= 0.0).any():
            bad = int(np.flatnonzero(signed <= 0.0)[0])
            kind = "degenerate" if signed[bad] == 0.0 else "clockwise"
            raise MeshError(f"element {bad} is {kind} (signed area {signed[bad]:g})")
        self._areas = signed
        self._corners = np.stack([p1, p2, p3], axis=1)  # (E, 3, 2)
        self._centroids = self._corners.mean(axis=1)
        self._centroids.setflags(write=False)
        self._boxes = {}    # locate_points' padded element boxes, per tol
        self._check_overlap()

    def _check_overlap(self) -> None:
        # In a conforming CCW triangulation every directed edge appears at
        # most once; a repeat means two elements overlap or one is duplicated.
        e = self.elements
        edges = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
        packed = edges[:, 0] * self.node_count + edges[:, 1]
        uniq, counts = np.unique(packed, return_counts=True)
        if (counts > 1).any():
            first = uniq[counts > 1][0]
            i, j = divmod(int(first), self.node_count)
            raise MeshError(
                f"directed edge ({i}, {j}) is shared by {int(counts.max())} "
                "elements; elements overlap"
            )

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def element_count(self) -> int:
        return self.elements.shape[0]

    @property
    def areas(self) -> np.ndarray:
        """Element areas, shape ``(E,)``."""
        return self._areas

    @property
    def centroids(self) -> np.ndarray:
        """Element centroids, shape ``(E, 2)``, computed once."""
        return self._centroids

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Return ``(xmin, ymin, xmax, ymax)`` over all nodes."""
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])

    def _barycentric(self, e, x, y) -> np.ndarray:
        """Shape-function values of elements ``e`` (an index array or a
        slice) at points ``(x, y)`` that broadcast against them, ``(K, 3)``;
        the barycentric (linear shape function) values of each element
        extended to the whole plane, which lie in ``[0, 1]`` inside it."""
        two_s = 2.0 * self._areas[e]
        c = self._corners[e]
        b1 = (-self._y32[e] * (x - c[:, 1, 0]) + self._x32[e] * (y - c[:, 1, 1])) / two_s
        b2 = (self._y31[e] * (x - c[:, 2, 0]) - self._x31[e] * (y - c[:, 2, 1])) / two_s
        b3 = (-self._y21[e] * (x - c[:, 0, 0]) + self._x21[e] * (y - c[:, 0, 1])) / two_s
        return np.stack([b1, b2, b3], axis=1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriMesh):
            return NotImplemented
        return (
            self.nodes.shape == other.nodes.shape
            and self.elements.shape == other.elements.shape
            and bool((self.nodes == other.nodes).all())
            and bool((self.elements == other.elements).all())
        )

    def __repr__(self) -> str:
        return f"TriMesh(nodes={self.node_count}, elements={self.element_count})"


def build_structured_mesh(
    x0: float, y0: float, x1: float, y1: float, nx: int, ny: int
) -> TriMesh:
    """Triangulate the rectangle ``[x0, x1] x [y0, y1]`` on a regular grid.

    The rectangle is divided into ``nx`` by ``ny`` cells and each cell is
    split along its lower-left to upper-right diagonal into two
    counter-clockwise triangles.  Nodes are numbered row by row with the x
    index varying fastest; cells are emitted row by row with the
    lower-right triangle of each cell before the upper-left one.

    Returns
    -------
    TriMesh
        Mesh with ``(nx + 1) * (ny + 1)`` nodes and ``2 * nx * ny`` elements.
    """
    nx = int(nx)
    ny = int(ny)
    if nx < 1 or ny < 1:
        raise MeshError(f"grid resolution must be at least 1x1, got {nx}x{ny}")
    if not (x1 > x0 and y1 > y0):
        raise MeshError(
            f"rectangle must have positive extent, got [{x0}, {x1}] x [{y0}, {y1}]"
        )
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys)  # row-major over y, x fastest within a row
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    # lower-left node of every cell, cells row by row; each cell gives its
    # lower-right triangle (a, b, c), then its upper-left one (a, c, d)
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    b = a + 1
    c = b + (nx + 1)
    d = a + (nx + 1)
    elements = np.stack([np.stack([a, b, c], axis=1),
                         np.stack([a, c, d], axis=1)], axis=1).reshape(-1, 3)
    return TriMesh(nodes, elements)


# Points located per pass: bounds the (points, elements) candidate mask
_LOCATE_CHUNK = 1 << 20


def _element_boxes(mesh: TriMesh, tol: float) -> tuple:
    """Each element's bounding box ``(x_lo, y_lo, x_hi, y_hi)``, padded so
    that no point whose shape values are all ``>= -tol`` lies outside it."""
    c = mesh._corners
    lo = np.minimum(np.minimum(c[:, 0], c[:, 1]), c[:, 2]).T    # (2, E)
    hi = np.maximum(np.maximum(c[:, 0], c[:, 1]), c[:, 2]).T
    side = np.maximum(hi[0] - lo[0], hi[1] - lo[1])
    # An accepted point has exact barycentrics >= -(tol + err), with
    # err <= 16 eps side**2 / area bounding the formula's rounding, so it
    # lies within 2 (tol + err) side of the element's box; 4 eps |corner|
    # more covers rounding the padded bounds themselves.
    eps = np.finfo(float).eps
    pad = 2.0 * side * (tol + 16.0 * eps * side * side / mesh.areas)
    pad = pad + 4.0 * eps * np.maximum(np.abs(lo), np.abs(hi))
    boxes = tuple(np.ascontiguousarray(bound)
                  for bound in (*(lo - pad), *(hi + pad)))
    for bound in boxes:
        bound.setflags(write=False)
    return boxes


def locate_points(mesh: TriMesh, points, tol: float = 1e-10):
    """Find the element containing each of the ``(P, 2)`` points.

    A point is accepted by an element when all three shape-function values
    are at least ``-tol``, so points on shared edges or nodes belong to
    every adjacent element; the lowest element index wins.  The formula
    runs only on (point, element) pairs whose element bounding box, padded
    so that no pair the test accepts is dropped, holds the point; the
    padded boxes are computed once per mesh and ``tol`` and kept on the
    mesh.

    Returns the ``(P,)`` element indices, ``-1`` for a point outside the
    mesh, and the ``(P, 3)`` shape values there (``NaN`` for a point
    outside).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (P, 2), got {points.shape}")
    tol = float(tol)
    if tol not in mesh._boxes:
        mesh._boxes[tol] = _element_boxes(mesh, tol)
    x_lo, y_lo, x_hi, y_hi = mesh._boxes[tol]

    count = points.shape[0]
    elements = np.full(count, -1, dtype=np.int64)
    values = np.full((count, 3), np.nan)
    rows = max(1, _LOCATE_CHUNK // mesh.element_count)
    for start in range(0, count, rows):
        x = points[start:start + rows, :1]
        y = points[start:start + rows, 1:]
        near = (x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi)
        # candidate pairs ordered by point, then by element index
        pi, ei = np.divmod(np.flatnonzero(near), mesh.element_count)
        vals = mesh._barycentric(ei, x[pi, 0], y[pi, 0])
        hits = np.flatnonzero((vals >= -tol).all(axis=1))
        found, first = np.unique(pi[hits], return_index=True)
        elements[start + found] = ei[hits[first]]
        values[start + found] = vals[hits[first]]
    return elements, values


def _data_lines(path) -> list[str]:
    """The lines of a text file with ``#`` comments, surrounding whitespace
    and blank lines removed."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return [line for line in map(str.strip, lines) if line]


def _table(lines: list[str], width: int, dtype, message: str) -> np.ndarray:
    """Data lines of ``width`` values each as one array, parsed in one
    ``numpy.loadtxt`` pass; any other count on a line, even one that keeps
    the total right, raises ``ValueError(message)``, and a value that does
    not convert raises ``ValueError`` quoting the first line holding one."""
    if not lines:
        return np.empty((0, width), dtype=dtype)
    try:
        table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        if any(len(line.split()) != width for line in lines):
            raise ValueError(message) from None
        for line in lines:
            try:
                np.loadtxt([line], dtype=dtype, comments=None)
            except ValueError:
                raise ValueError(f"bad line {line!r}") from None
        raise
    if table.shape[1] != width:
        raise ValueError(message)
    return table


def load_mesh(path) -> TriMesh:
    """Read a mesh from a text file.

    The format is a ``nodes <C>`` header followed by ``C`` lines of ``x y``
    coordinates, then an ``elements <E>`` header followed by ``E`` lines of
    three whitespace-separated node indices.  ``#`` starts a comment and
    blank lines are ignored.  Each block is converted in one pass.
    """
    lines = _data_lines(path)
    tables = []
    at = 0
    try:
        for name, width, dtype, message in (
                ("nodes", 2, float, "exactly two coordinates"),
                ("elements", 3, np.int64, "exactly three indices")):
            header = lines[at].split()
            if len(header) != 2 or header[0] != name:
                raise MeshError(f"expected '{name} <count>' header, got {header!r}")
            count = max(int(header[1]), 0)
            if at + 1 + count > len(lines):
                raise IndexError(name)
            tables.append(_table(lines[at + 1:at + 1 + count], width, dtype,
                                 f"{name[:-1]} lines must contain {message}"))
            at += 1 + count
    except IndexError:
        raise MeshError(f"mesh file {path} ended before all records were read")
    except ValueError as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from exc
    return TriMesh(*tables)


def save_mesh(mesh: TriMesh, path) -> None:
    """Write a mesh in the format accepted by :func:`load_mesh`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {mesh.node_count}\n")
        for x, y in mesh.nodes:
            fh.write(f"{format(float(x), '.17g')} {format(float(y), '.17g')}\n")
        fh.write(f"elements {mesh.element_count}\n")
        for i, j, k in mesh.elements:
            fh.write(f"{int(i)} {int(j)} {int(k)}\n")
