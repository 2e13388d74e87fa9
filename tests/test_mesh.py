import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from plumetrace.mesh import (
    MeshError,
    TriMesh,
    build_structured_mesh,
    load_mesh,
    locate_points,
    save_mesh,
)
from plumetrace import mesh as meshmod

from oracles import element_geometry, locate_point_brute_force, shape_values


def _signed_area(a, b, c):
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


coords = st.floats(-50.0, 50.0)


@st.composite
def triangles(draw, min_area=1.0):
    """A single-element mesh over a non-degenerate triangle."""
    pts = [np.array([draw(coords), draw(coords)]) for _ in range(3)]
    area = _signed_area(*pts)
    assume(abs(area) > min_area)
    if area < 0.0:
        pts[1], pts[2] = pts[2], pts[1]
    return TriMesh(np.array(pts), np.array([[0, 1, 2]]))


class TestStructuredMesh:
    @pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (20, 20)])
    def test_counts(self, nx, ny):
        m = build_structured_mesh(0.0, 0.0, 2.0, 1.0, nx, ny)
        assert m.node_count == (nx + 1) * (ny + 1)
        assert m.element_count == 2 * nx * ny

    def test_node_order_row_major_x_fastest(self):
        m = build_structured_mesh(0.0, 0.0, 3.0, 2.0, 3, 2)
        for j in range(3):
            for i in range(4):
                np.testing.assert_allclose(m.nodes[j * 4 + i], [i, j])

    def test_areas_positive_and_tile_the_domain(self):
        m = build_structured_mesh(-1.0, 2.0, 5.0, 4.0, 7, 3)
        assert (m.areas > 0.0).all()
        assert np.isclose(m.areas.sum(), 6.0 * 2.0)

    def test_all_elements_counter_clockwise(self):
        m = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 4, 5)
        for tri in m.elements:
            assert _signed_area(*m.nodes[tri]) > 0.0

    def test_bounding_box(self):
        m = build_structured_mesh(-2.0, 1.0, 3.0, 6.0, 2, 2)
        assert m.bounding_box() == (-2.0, 1.0, 3.0, 6.0)

    def test_element_table_cell_by_cell(self):
        nx, ny = 4, 3
        m = build_structured_mesh(0.0, 0.0, 1.0, 1.0, nx, ny)
        expected = []
        for j in range(ny):
            for i in range(nx):
                a = j * (nx + 1) + i
                b, d = a + 1, a + nx + 1
                expected += [(a, b, d + 1), (a, d + 1, d)]
        np.testing.assert_array_equal(m.elements, expected)
        assert m.elements.dtype == np.int64

    def test_bad_resolution_and_extent(self):
        with pytest.raises(MeshError):
            build_structured_mesh(0, 0, 1, 1, 0, 3)
        with pytest.raises(MeshError):
            build_structured_mesh(0, 0, -1, 1, 2, 2)


class TestTriMeshValidation:
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_clockwise_element_rejected(self):
        with pytest.raises(MeshError, match="area"):
            TriMesh(self.nodes, [[0, 2, 1]])

    def test_collinear_element_rejected(self):
        with pytest.raises(MeshError, match="area"):
            TriMesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])

    def test_repeated_node_rejected(self):
        with pytest.raises(MeshError, match="repeats"):
            TriMesh(self.nodes, [[0, 1, 1]])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(MeshError, match="out of range"):
            TriMesh(self.nodes, [[0, 1, 7]])

    def test_empty_element_list_rejected(self):
        with pytest.raises(MeshError, match="no elements"):
            TriMesh(self.nodes, np.empty((0, 3), dtype=int))

    def test_non_finite_nodes_rejected(self):
        bad = self.nodes.copy()
        bad[0, 0] = np.nan
        with pytest.raises(MeshError, match="finite"):
            TriMesh(bad, [[0, 1, 3]])

    def test_overlapping_elements_rejected(self):
        # both triangles traverse the directed edge 0 -> 1
        nodes = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.8]]
        with pytest.raises(MeshError):
            TriMesh(nodes, [[0, 1, 2], [0, 1, 3]])

    def test_bad_shapes_rejected(self):
        with pytest.raises(MeshError):
            TriMesh(np.zeros((4, 3)), [[0, 1, 2]])
        with pytest.raises(MeshError):
            TriMesh(self.nodes, [[0, 1, 2, 3]])

    def test_equality(self):
        a = build_structured_mesh(0, 0, 1, 1, 2, 2)
        b = build_structured_mesh(0, 0, 1, 1, 2, 2)
        c = build_structured_mesh(0, 0, 1, 1, 2, 3)
        assert a == b
        assert a != c


class TestElementGeometry:
    def test_reference_right_triangle(self):
        m = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        g = element_geometry(m, 0)
        assert g.area == pytest.approx(0.5)
        assert (g.x21, g.x31, g.x32) == (1.0, 0.0, -1.0)
        assert (g.y21, g.y31, g.y32) == (0.0, 1.0, 1.0)

    @given(triangles())
    def test_difference_convention(self, m):
        g = element_geometry(m, 0)
        (x1, y1), (x2, y2), (x3, y3) = g.coords
        assert g.x21 == x2 - x1 and g.x31 == x3 - x1 and g.x32 == x3 - x2
        assert g.y21 == y2 - y1 and g.y31 == y3 - y1 and g.y32 == y3 - y2
        assert g.area == pytest.approx(_signed_area(*g.coords))


class TestShapeFunctions:
    @given(triangles(), st.floats(-60.0, 60.0), st.floats(-60.0, 60.0))
    def test_partition_of_unity_everywhere(self, m, x, y):
        vals = shape_values(m, (x, y))[0]
        assert vals.sum() == pytest.approx(1.0, abs=1e-9)

    @given(triangles(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
           st.floats(-5.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_linear_reproduction(self, m, a, b, c, s, t):
        # barycentric sample inside the element
        if s + t > 1.0:
            s, t = 1.0 - s, 1.0 - t
        p = m.nodes[0] + s * (m.nodes[1] - m.nodes[0]) + t * (m.nodes[2] - m.nodes[0])
        f = lambda q: a + b * q[0] + c * q[1]
        vals = shape_values(m, p)[0]
        interp = sum(v * f(node) for v, node in zip(vals, m.nodes))
        scale = 1.0 + abs(a) + 5.0 * (abs(b) + abs(c))
        assert interp == pytest.approx(f(p), abs=1e-8 * scale)

    def test_nodal_interpolation(self):
        m = build_structured_mesh(0, 0, 2, 1, 2, 1)
        for e in range(m.element_count):
            for local, node in enumerate(m.elements[e]):
                vals = shape_values(m, m.nodes[node])[e]
                np.testing.assert_allclose(vals, np.eye(3)[local], atol=1e-12)

    def test_inside_flag(self):
        m = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        assert (shape_values(m, (0.2, 0.2))[0] >= 0.0).all()
        assert not (shape_values(m, (0.9, 0.9))[0] >= 0.0).all()

    def test_shape_values_matrix(self):
        m = build_structured_mesh(0, 0, 1, 1, 2, 2)
        vals = shape_values(m, (0.3, 0.4))
        assert vals.shape == (m.element_count, 3)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0)


def _locate(m, point, tol=1e-10):
    """The element :func:`locate_points` finds for ``point`` alone, -1
    outside the mesh."""
    return int(locate_points(m, [point], tol)[0][0])


class TestLocatePoint:
    def setup_method(self):
        self.m = build_structured_mesh(0, 0, 1, 1, 2, 2)

    def test_interior_points_found(self):
        for p in [(0.1, 0.05), (0.9, 0.9), (0.3, 0.7)]:
            e = _locate(self.m, p)
            assert e >= 0
            assert (shape_values(self.m, p)[e] >= 0.0).all()

    def test_shared_edge_takes_lowest_index(self):
        # the cell diagonal belongs to elements 0 and 1
        assert _locate(self.m, (0.25, 0.25)) == 0

    def test_outside_returns_none(self):
        assert _locate(self.m, (1.5, 0.5)) == -1
        assert _locate(self.m, (0.5, -0.01)) == -1

    def test_corner_found(self):
        assert _locate(self.m, (0.0, 0.0)) >= 0


def _jittered_mesh(tmp_path):
    """A 6 x 5 grid with its interior nodes moved, its elements shuffled and
    each element's nodes rotated, written with :func:`save_mesh` and read
    back."""
    base = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 6, 5)
    rng = np.random.default_rng(12)
    nodes = base.nodes.copy()
    interior = ~((nodes == 0.0) | (nodes == 1.0)).any(axis=1)
    nodes[interior] += (rng.uniform(-0.15, 0.15, (interior.sum(), 2))
                        * [1.0 / 6.0, 1.0 / 5.0])
    order = rng.permutation(base.element_count)
    shifts = rng.integers(0, 3, base.element_count)
    elements = [np.roll(base.elements[e], k) for e, k in zip(order, shifts)]
    path = tmp_path / "jittered.txt"
    save_mesh(TriMesh(nodes, elements), path)
    return load_mesh(path)


def _probe_points(m, rng, outside=1e-12):
    """Nodes, edge midpoints, centroids, the bounding-box corners, points
    ``outside`` beyond each side of the bounding box, and random points over
    a box a little larger than the mesh's."""
    xmin, ymin, xmax, ymax = m.bounding_box()
    xmid, ymid = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    corners = m.nodes[m.elements]
    edges = 0.5 * (corners + np.roll(corners, 1, axis=1))
    span = max(xmax - xmin, ymax - ymin)
    beyond = [(xmin - outside, ymid), (xmax + outside, ymid),
              (xmid, ymin - outside), (xmid, ymax + outside),
              (xmin - outside, ymin - outside), (xmax + outside, ymax + outside)]
    return np.vstack([
        m.nodes, edges.reshape(-1, 2), m.centroids,
        [(xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax)], beyond,
        rng.uniform([xmin - 0.05 * span, ymin - 0.05 * span],
                    [xmax + 0.05 * span, ymax + 0.05 * span], (400, 2)),
    ])


def _assert_matches_brute_force(m, points, tol=1e-10):
    elements, values = locate_points(m, points, tol)
    assert elements.shape == (len(points),) and values.shape == (len(points), 3)
    for j, p in enumerate(points):
        element, row = locate_point_brute_force(m, p, tol)
        # one point alone is placed as it is among all of them
        assert _locate(m, p, tol) == (-1 if element is None else element)
        if element is None:
            assert elements[j] == -1 and np.isnan(values[j]).all()
        else:
            assert elements[j] == element
            assert values[j].tobytes() == row.tobytes()


class TestLocatePoints:
    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_structured_mesh_matches_brute_force(self, tol):
        m = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 4, 3)
        _assert_matches_brute_force(m, _probe_points(m, np.random.default_rng(1)), tol)

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_jittered_mesh_matches_brute_force(self, tmp_path, tol):
        m = _jittered_mesh(tmp_path)
        _assert_matches_brute_force(m, _probe_points(m, np.random.default_rng(2)), tol)

    def test_far_from_the_origin_matches_brute_force(self):
        # box bounds near 1e6 round at about 1e-10, the scale of tol * h
        m = build_structured_mesh(1e6, -2e6, 1e6 + 1.0, -2e6 + 1.0, 5, 4)
        _assert_matches_brute_force(m, _probe_points(m, np.random.default_rng(3)))

    def test_tolerance_band_edge_matches_brute_force(self):
        # the right-hand column has h = 0.5: x - 1 <= tol / 2 is accepted
        m = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
        offsets = np.arange(0, 21) * 5e-12
        points = np.column_stack([1.0 + offsets, np.full(offsets.size, 0.3)])
        _assert_matches_brute_force(m, points)
        found = locate_points(m, points)[0] >= 0
        assert found[0] and not found[-1]

    def test_shared_node_takes_lowest_incident_element(self):
        m = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
        centre = 4                                 # node (0.5, 0.5)
        incident = [e for e in range(m.element_count) if centre in m.elements[e]]
        elements, values = locate_points(m, m.nodes[[centre]])
        assert elements[0] == min(incident)
        local = list(m.elements[elements[0]]).index(centre)
        np.testing.assert_array_equal(values[0], np.eye(3)[local])

    def test_just_outside_found_only_within_the_tolerance(self):
        m = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
        points = [(1.0 + 1e-12, 0.5), (0.5, -1e-12), (-1e-12, -1e-12)]
        assert (locate_points(m, points)[0] >= 0).all()
        assert (locate_points(m, points, tol=0.0)[0] == -1).all()
        assert (locate_points(m, [(1.0 + 1e-6, 0.5)])[0] == -1).all()

    def test_chunked_passes_agree(self, tmp_path, monkeypatch):
        m = _jittered_mesh(tmp_path)
        points = _probe_points(m, np.random.default_rng(4))
        whole = locate_points(m, points)
        monkeypatch.setattr(meshmod, "_LOCATE_CHUNK", 7 * m.element_count)
        chunked = locate_points(m, points)
        np.testing.assert_array_equal(chunked[0], whole[0])
        assert chunked[1].tobytes() == whole[1].tobytes()

    def test_empty_and_misshapen_input(self):
        m = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
        elements, values = locate_points(m, np.empty((0, 2)))
        assert elements.shape == (0,) and values.shape == (0, 3)
        with pytest.raises(ValueError, match="shape"):
            locate_points(m, [0.5, 0.5])
        with pytest.raises(ValueError):
            locate_points(m, [(0.5, 0.5, 0.5)])


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        m = build_structured_mesh(-1.0, 0.5, 2.5, 3.0, 3, 4)
        path = tmp_path / "m.txt"
        save_mesh(m, path)
        assert load_mesh(path) == m

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        m = TriMesh([[0.1, 0.2], [1.0 / 3.0, 0.0], [0.0, 5.0 / 7.0]], [[0, 1, 2]])
        path = tmp_path / "m.txt"
        save_mesh(m, path)
        loaded = load_mesh(path)
        np.testing.assert_array_equal(loaded.nodes, m.nodes)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "# a comment\nnodes 3\n\n0 0\n1 0  # inline\n0 1\nelements 1\n0 1 2\n"
        )
        m = load_mesh(path)
        assert m.node_count == 3 and m.element_count == 1

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("vertices 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2\n")
        with pytest.raises(MeshError, match="header"):
            load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("nodes 3\n0 0\n1 0\n")
        with pytest.raises(MeshError, match="ended"):
            load_mesh(path)

    def test_ragged_lines_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        # three values, then one: two per line in total
        path.write_text("nodes 3\n0 0 1\n0\n0 1\nelements 1\n0 1 2\n")
        with pytest.raises(MeshError, match="exactly two coordinates"):
            load_mesh(path)
        path.write_text("nodes 3\n0 0\n1 0\n0 1\nelements 2\n0 1\n2 0 1 2\n")
        with pytest.raises(MeshError, match="exactly three indices"):
            load_mesh(path)
        path.write_text("nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1.0 2\n")
        with pytest.raises(MeshError, match="malformed"):
            load_mesh(path)

    def test_malformed_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("nodes 3\n0 0\n1 zero\n0 1\nelements 1\n0 1 2\n")
        with pytest.raises(MeshError, match="malformed"):
            load_mesh(path)
