import numpy as np
import pytest
from hypothesis import given, strategies as st

from plumetrace.flowfield import (
    GriddedFlow,
    RigidRotationFlow,
    UniformFlow,
    element_velocities,
    load_gridded_flow,
    save_gridded_flow,
)
from plumetrace.mesh import build_structured_mesh

from oracles import velocity_at

pos = st.floats(-100.0, 100.0)


def at(flow, point) -> tuple[float, float]:
    """An analytic flow's one sample at one point, as a ``(u, v)`` pair."""
    u, v = flow.velocity_samples([point])[0, 0]
    return float(u), float(v)


class TestAnalyticFlows:
    @given(pos, pos)
    def test_uniform(self, x, y):
        flow = UniformFlow(0.3, -0.7)
        assert at(flow, (x, y)) == (0.3, -0.7)
        many = flow.velocity_samples([(x, y), (0.0, 0.0)])
        np.testing.assert_array_equal(many, [[[0.3, -0.7], [0.3, -0.7]]])

    def test_rotation_center_is_stagnant(self):
        flow = RigidRotationFlow(center=(1.0, 2.0), omega=0.5)
        assert at(flow, (1.0, 2.0)) == (0.0, 0.0)

    def test_rotation_known_value(self):
        flow = RigidRotationFlow(center=(1.0, 1.0), omega=2.0)
        assert at(flow, (2.0, 1.0)) == (0.0, 2.0)
        assert at(flow, (1.0, 2.0)) == (-2.0, 0.0)

    @given(pos, pos, st.floats(-3.0, 3.0))
    def test_rotation_is_perpendicular_and_scaled(self, x, y, omega):
        center = (5.0, -3.0)
        flow = RigidRotationFlow(center=center, omega=omega)
        u, v = at(flow, (x, y))
        r = np.array([x - center[0], y - center[1]])
        assert u * r[0] + v * r[1] == pytest.approx(0.0, abs=1e-9)
        assert np.hypot(u, v) == pytest.approx(abs(omega) * np.hypot(*r), abs=1e-9)

    @pytest.mark.parametrize("flow", [
        UniformFlow(0.2, -0.1),
        RigidRotationFlow(center=(0.5, 0.5), omega=1.3),
    ])
    def test_one_sample_at_time_zero(self, flow):
        pts = np.array([[0.1, 0.2], [0.9, 0.4], [0.5, 0.5]])
        assert flow.sample_times == (0.0,)
        np.testing.assert_array_equal(flow.velocity_samples(pts),
                                      [[at(flow, p) for p in pts]])


class TestElementVelocities:
    def test_uniform_fills_all_elements(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 3, 3)
        vel = element_velocities(UniformFlow(0.2, 0.1), mesh)
        assert vel.shape == (1, mesh.element_count, 2)
        np.testing.assert_array_equal(
            vel[0], np.tile([0.2, 0.1], (mesh.element_count, 1)))

    def test_rotation_sampled_at_centroids(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 3, 3)
        flow = RigidRotationFlow(center=(0.5, 0.5), omega=2.0)
        vel = element_velocities(flow, mesh)
        np.testing.assert_array_equal(vel,
                                      flow.velocity_samples(mesh.centroids))


def _bilinear_grid(a, b, c, d):
    xs = np.array([0.0, 1.0, 2.5, 4.0])
    ys = np.array([0.0, 0.5, 2.0])
    gx, gy = np.meshgrid(xs, ys)
    f = a + b * gx + c * gy + d * gx * gy
    return xs, ys, f


class TestGriddedFlow:
    def test_constructor_validation(self):
        ok = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="increasing"):
            GriddedFlow([1.0, 0.0], [0.0, 1.0], [0.0], ok, ok)
        with pytest.raises(ValueError, match="non-empty"):
            GriddedFlow([], [0.0, 1.0], [0.0], ok, ok)
        with pytest.raises(ValueError, match="shape"):
            GriddedFlow([0.0, 1.0], [0.0, 1.0], [0.0], np.zeros((1, 3, 2)), ok)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_bilinear_functions_reproduced_exactly(self, a, b, c, d, sx, sy):
        xs, ys, f = _bilinear_grid(a, b, c, d)
        flow = GriddedFlow(xs, ys, [0.0], f[None], -f[None])
        x = xs[0] + sx * (xs[-1] - xs[0])
        y = ys[0] + sy * (ys[-1] - ys[0])
        u, v = flow.velocity_samples([(x, y)])[0, 0]
        expected = a + b * x + c * y + d * x * y
        scale = 1.0 + abs(a) + 4 * abs(b) + 2 * abs(c) + 8 * abs(d)
        assert u == pytest.approx(expected, abs=1e-12 * scale)
        assert v == pytest.approx(-expected, abs=1e-12 * scale)

    def test_every_sample_matches_the_bilinear_oracle(self):
        # three samples on an uneven grid with one land cell; the points
        # include grid nodes, grid lines, the land cell and the corners
        xs = np.array([0.0, 1.0, 2.5, 4.0])
        ys = np.array([-1.0, 0.5, 2.0])
        rng = np.random.default_rng(12)
        u, v = rng.normal(size=(2, 3, ys.size, xs.size))
        u[:, 1, 2] = v[:, 1, 2] = np.nan
        flow = GriddedFlow(xs, ys, [0.0, 3.0, 7.5], u, v)
        gx, gy = np.meshgrid(xs, ys)
        points = np.concatenate([
            np.column_stack([gx.ravel(), gy.ravel()]),
            [[2.5, 0.0], [1.7, 0.5], [3.0, 1.0], [4.0, 2.0], [0.0, -1.0]],
            rng.uniform([0.0, -1.0], [4.0, 2.0], (20, 2)),
        ])
        samples = flow.velocity_samples(points)
        assert flow.sample_times == (0.0, 3.0, 7.5)
        assert samples.shape == (3, points.shape[0], 2)
        for sample in range(3):
            expected = [velocity_at(flow, p, sample) for p in points]
            np.testing.assert_allclose(samples[sample], expected,
                                       rtol=1e-13, atol=1e-15)

    def test_each_sample_is_kept_whole(self):
        xs = ys = np.array([0.0, 1.0])
        u0 = np.zeros((2, 2))
        u1 = np.ones((2, 2))
        flow = GriddedFlow(xs, ys, [0.0, 10.0], np.stack([u0, u1]),
                           np.stack([u1, u0]))
        np.testing.assert_array_equal(
            flow.velocity_samples([(0.5, 0.5)]), [[[0.0, 1.0]], [[1.0, 0.0]]])

    def test_queries_outside_range_raise(self):
        xs = ys = np.array([0.0, 1.0])
        u = np.zeros((1, 2, 2))
        flow = GriddedFlow(xs, ys, [5.0], u, u)
        with pytest.raises(ValueError, match="x query"):
            flow.velocity_samples([(1.5, 0.5)])
        with pytest.raises(ValueError, match="y query"):
            flow.velocity_samples([(0.5, -0.1)])
        assert flow.sample_times == (5.0,)

    def test_missing_cells_contribute_zero(self):
        xs = ys = np.array([0.0, 1.0])
        u = np.full((1, 2, 2), 2.0)
        u[0, 0, 0] = np.nan
        flow = GriddedFlow(xs, ys, [0.0], u, u.copy())
        corner, middle = flow.velocity_samples([(0.0, 0.0), (0.5, 0.5)])[0]
        np.testing.assert_array_equal(corner, [0.0, 0.0])
        # interior queries blend the zeroed land cell
        assert middle[0] == pytest.approx(1.5)
        assert flow.mask[0, 0, 0] and not flow.mask[0, 1, 1]

    def test_round_trip(self, tmp_path):
        xs = np.array([0.0, 1.0, 3.0])
        ys = np.array([0.0, 2.0])
        ts = np.array([0.0, 50.0])
        rng = np.random.default_rng(8)
        u = rng.normal(size=(2, 2, 3))
        v = rng.normal(size=(2, 2, 3))
        u[0, 1, 2] = np.nan
        v[0, 1, 2] = np.nan
        path = tmp_path / "flow.txt"
        save_gridded_flow(GriddedFlow(xs, ys, ts, u, v), path)
        loaded = load_gridded_flow(path)
        np.testing.assert_array_equal(loaded.xs, xs)
        np.testing.assert_array_equal(loaded.ts, ts)
        np.testing.assert_array_equal(loaded.mask, np.isnan(u))
        np.testing.assert_array_equal(loaded.u, np.where(np.isnan(u), 0.0, u))
        np.testing.assert_array_equal(loaded.v, np.where(np.isnan(v), 0.0, v))

    def test_load_errors_mention_file(self, tmp_path):
        path = tmp_path / "flow.txt"
        path.write_text("mesh 2 2 1\n")
        with pytest.raises(ValueError, match="grid"):
            load_gridded_flow(path)
        path.write_text("grid 2 1 1\nxs: 0 1\nys: 0\nts: 0\n0 0\n")
        with pytest.raises(ValueError, match="sample lines"):
            load_gridded_flow(path)
        path.write_text("grid 2 1 1\nxs: 0 1 2\nys: 0\nts: 0\n0 0\n0 0\n")
        with pytest.raises(ValueError, match="'xs:' line"):
            load_gridded_flow(path)

    def test_ragged_sample_lines_rejected(self, tmp_path):
        path = tmp_path / "flow.txt"
        # four values over two lines: the total is right, the lines are not
        path.write_text("grid 2 1 1\nxs: 0 1\nys: 0\nts: 0\n1 2 3\n4\n")
        with pytest.raises(ValueError, match="sample lines") as err:
            load_gridded_flow(path)
        assert "exactly 'u v'" in str(err.value)
        assert str(path) in str(err.value)
        path.write_text("grid 2 1 1\nxs: 0 1\nys: 0\nts: 0\n1 2\n3 four\n")
        with pytest.raises(ValueError, match="malformed flow file") as err:
            load_gridded_flow(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("text,message", [
        ("grid 0 1 1\nxs:\nys: 0\nts: 0\n", "non-empty"),
        ("grid 2 1 1\nxs: 1 0\nys: 0\nts: 0\n0 0\n0 0\n", "increasing"),
    ])
    def test_refused_grids_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "flow.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as err:
            load_gridded_flow(path)
        assert str(path) in str(err.value)

    def test_comments_inside_the_sample_block_ignored(self, tmp_path):
        path = tmp_path / "flow.txt"
        path.write_text("grid 2 1 2\nxs: 0 1\nys: 0\nts: 0 5\n"
                        "0.5 -1  # first sample\n# a whole-line comment\n"
                        "\n1.5 nan\n2 3\n  # indented comment\n4e-2 5\n")
        flow = load_gridded_flow(path)
        np.testing.assert_array_equal(flow.u, [[[0.5, 0.0]], [[2.0, 0.04]]])
        np.testing.assert_array_equal(flow.v, [[[-1.0, 0.0]], [[3.0, 5.0]]])
        np.testing.assert_array_equal(flow.mask, [[[False, True]],
                                                  [[False, False]]])
