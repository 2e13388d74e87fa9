import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from plumetrace import experiment
from plumetrace.experiment import draw_observation
from plumetrace.mesh import build_structured_mesh
from plumetrace.sensing import (
    QuantisedObservation,
    SensorNetwork,
    build_measurement_matrix,
    fence_positions,
    generate_positions,
    load_sensor_layout,
    save_sensor_layout,
)

from oracles import (
    cell_probability,
    level_values,
    one_sensor,
    reference_log_cell_mass,
    reference_log_likelihood,
    reference_observation,
    reference_quantise,
)

scales = st.floats(0.5, 2000.0)
level_counts = st.integers(1, 11000)


def assert_log_close(actual, expected):
    """Finite and equal to 1e-13: absolute, relative below -1."""
    actual, expected = np.broadcast_arrays(actual, expected)
    assert np.isfinite(expected).all()
    tolerance = 1e-13 * np.maximum(1.0, -expected)
    assert (np.abs(actual - expected) <= tolerance).all()


@st.composite
def placed_cells(draw):
    """A level count over ``[-2, 2]``, one of its levels, a mean placed
    against that level's cell and a variance: the mean inside the cell, on
    an edge, within a few standard deviations of an edge (or a hair from
    it), or 50-60 standard deviations out.  The cell is 0.01 to 10 standard
    deviations wide."""
    levels = draw(st.sampled_from([25, 100, 400]))
    level = float(level_values(2.0, levels)[draw(st.integers(0, levels - 1))])
    w = 2.0 / levels
    sd = 2.0 * w / draw(st.floats(0.01, 10.0))
    place = draw(st.sampled_from(["inside", "edge", "near", "far"]))
    if place == "inside":
        mean = level - w + 2.0 * w * draw(st.floats(0.0, 1.0))
    else:
        edge = level + draw(st.sampled_from([-w, w]))
        if place == "edge":
            offset = 0.0
        elif place == "near":
            offset = draw(st.one_of(st.floats(-1e-6, 1e-6), st.floats(-3.0, 3.0)))
        else:
            offset = draw(st.floats(50.0, 60.0)) * draw(st.sampled_from([-1, 1]))
        mean = edge + offset * sd
    return levels, level, mean, sd * sd


class TestQuantiser:
    @given(scales, level_counts)
    def test_level_values(self, scale, count):
        q, w = one_sensor(scale, count), scale / count
        levels = level_values(scale, count)
        assert levels.shape == (count,)
        assert levels[0] == pytest.approx(-scale + w)
        assert levels[-1] == pytest.approx(scale - w)
        if count > 1:
            np.testing.assert_allclose(np.diff(levels), 2.0 * w, rtol=1e-9)
        assert abs(levels.mean()) < 1e-9 * scale  # symmetric about zero
        np.testing.assert_array_equal(q.quantise(levels), levels)

    @given(scales, level_counts, st.floats(-1.0, 1.0))
    def test_error_bounded_by_half_cell(self, scale, count, frac):
        y = frac * scale
        error = abs(one_sensor(scale, count).quantise(y) - y)
        assert error <= scale / count * (1.0 + 1e-12)

    @given(scales, level_counts, st.floats(-1.0, 1.0))
    def test_idempotent(self, scale, count, frac):
        q = one_sensor(scale, count)
        v = q.quantise(frac * scale)
        np.testing.assert_array_equal(q.quantise(v), v)

    @given(scales, level_counts)
    def test_monotone(self, scale, count):
        y = np.linspace(-1.5 * scale, 1.5 * scale, 501)
        assert (np.diff(one_sensor(scale, count).quantise(y)) >= 0.0).all()

    def test_saturation(self):
        q = one_sensor(2.0, 4)
        np.testing.assert_allclose(level_values(2.0, 4), [-1.5, -0.5, 0.5, 1.5])
        # the upper boundary maps to the top level
        np.testing.assert_array_equal(q.quantise([10.0, -10.0, 2.0]),
                                      [1.5, -1.5, 1.5])


def network_of(scale, levels, noise_var=None, detect_rate=1.0):
    """A network of ``len(scale)`` sensors, each reading its own node of a
    state with one node per sensor plus the strength."""
    n = len(scale)
    return SensorNetwork(
        positions=np.zeros((n, 2)), H=np.eye(n, n + 1),
        noise_var=np.ones(n) if noise_var is None else np.asarray(noise_var),
        detect_rate=np.full(n, detect_rate),
        scale=np.asarray(scale, dtype=float),
        levels=np.asarray(levels, dtype=float))


@st.composite
def quantiser_readings(draw):
    """A network of 1-4 sensors and an ``(M, N)`` array of its readings:
    anywhere within three scales, on a cell edge, or at a range bound or
    a signed zero."""
    n = draw(st.integers(1, 4))
    scale = draw(st.lists(scales, min_size=n, max_size=n))
    levels = draw(st.lists(st.one_of(st.sampled_from([1, 2, 3]),
                                     level_counts), min_size=n, max_size=n))

    def reading(s, count):
        return st.one_of(
            st.floats(-3.0, 3.0).map(lambda f: f * s),
            st.integers(0, count).map(lambda i: -s + 2.0 * s * i / count),
            st.sampled_from([s, -s, 0.0, -0.0]))

    rows = draw(st.integers(1, 5))
    y = np.array([[draw(reading(s, c)) for s, c in zip(scale, levels)]
                  for _ in range(rows)])
    return network_of(scale, levels), y


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestQuantiserOracle:
    """``quantise`` takes its constants from one cached tuple and clamps
    in place; its bytes are those of the ``np.clip`` form."""

    @given(quantiser_readings())
    def test_arrays_lists_and_scalars(self, case):
        network, y = case
        for given_y in (y, y[0], y.tolist(), y[0].tolist(), float(y[0, 0])):
            assert_same_bytes(network.quantise(given_y),
                              reference_quantise(network, given_y))

    def test_edges_bounds_and_one_level(self):
        network = network_of([2.0, 3.0, 5.0], [4, 1, 7])
        edges = np.array([-2.0 + i for i in range(5)])
        y = np.stack([edges, 0.6 * edges, 2.5 * edges], axis=1)
        y = np.vstack([y, [[1e300, -1e300, 5.0]], [[-0.0, 0.0, -5.0]]])
        assert_same_bytes(network.quantise(y), reference_quantise(network, y))
        # one level maps every reading to the range's centre
        np.testing.assert_array_equal(network.quantise(y)[:, 1], 0.0)


class TestObservationDrawOracle:
    """``draw_observation`` scales standard normals by the cached
    ``noise_sd``; its draws are those of ``rng.normal(0, sqrt(var))``."""

    @given(seed=st.integers(0, 2 ** 63),
           noise_var=st.lists(st.floats(1e-12, 1e4), min_size=1, max_size=8),
           detect_rate=st.floats(0.0, 1.0))
    def test_matches_the_normal_form(self, seed, noise_var, detect_rate):
        n = len(noise_var)
        network = network_of(np.full(n, 50.0), np.full(n, 1000), noise_var,
                             detect_rate)
        state = np.append(np.linspace(-40.0, 40.0, n), 1.0)
        ob = draw_observation(network, state, np.random.default_rng(seed))
        values, raw, alpha = reference_observation(
            network, state, np.random.default_rng(seed))
        assert_same_bytes(ob.values, values)
        np.testing.assert_array_equal(ob.raw, raw)
        np.testing.assert_array_equal(ob.detections, alpha)

    def test_noise_sd_is_cached_and_read_only(self):
        network = network_of([1.0, 1.0], [4, 4], noise_var=[4.0, 0.25])
        np.testing.assert_array_equal(network.noise_sd, [2.0, 0.5])
        assert network.noise_sd is network.noise_sd
        with pytest.raises(ValueError, match="read-only"):
            network.noise_sd[0] = 1.0


class TestCellProbability:
    @given(st.floats(-5.0, 5.0), st.floats(0.01, 4.0))
    def test_matches_gaussian_cdf_difference(self, mean, var):
        level = float(level_values(3.0, 7)[2])
        w = 3.0 / 7
        sd = np.sqrt(var)
        expected = norm.cdf(level + w, mean, sd) - norm.cdf(level - w, mean, sd)
        assert cell_probability(3.0, 7, level, mean, var) == pytest.approx(
            expected, abs=1e-13
        )

    def test_far_tail_log_mass_stays_finite(self):
        cells = one_sensor(2000.0, 10_000, noise_var=5e-3)
        # a cell 50+ standard deviations from the mean
        lp = cells.log_likelihood(1000.0, 0.0)
        assert np.isfinite(lp).all() and (lp < -1e5).all()

    def test_log_is_monotone_in_distance(self):
        levels = level_values(100.0, 1000)[500:]
        lp = one_sensor(100.0, 1000).log_likelihood(levels, 0.0)
        assert (np.diff(lp) < 0.0).all()

    def test_partition_sums_to_one(self):
        rng = np.random.default_rng(7)
        for levels in (3, 100, 2000):
            values = level_values(5.0, levels)
            for _ in range(5):
                z = rng.normal(0.0, 3.0)
                var = rng.uniform(0.001, 4.0)
                sd = np.sqrt(var)
                total = cell_probability(5.0, levels, values, z, var).sum()
                total += norm.cdf((-5.0 - z) / sd) + norm.sf((5.0 - z) / sd)
                assert abs(total - 1.0) < 1e-10

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError, match="variance"):
            one_sensor(1.0, 4, noise_var=0.0)


class TestObservationLikelihood:
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.01, 1.0),
           st.floats(0.0, 1.0))
    def test_mixture_composition(self, y_frac, z, var, rate):
        y_hat = one_sensor(3.0, 25).quantise(y_frac)
        detect = cell_probability(3.0, 25, y_hat, z, var)
        miss = cell_probability(3.0, 25, y_hat, 0.0, var)
        expected = rate * detect + (1.0 - rate) * miss
        mixed = one_sensor(3.0, 25, noise_var=var, detect_rate=rate)
        assert np.exp(mixed.log_likelihood(y_hat, z)) == pytest.approx(
            expected, abs=1e-13
        )

    @given(placed_cells(), st.sampled_from([0.0, 0.85, 1.0]))
    def test_kernels_match_the_tail_form_reference(self, cell, rate):
        levels, level, mean, var = cell
        lo, hi = level - 2.0 / levels, level + 2.0 / levels
        detect = one_sensor(2.0, levels, noise_var=var)
        assert_log_close(detect.log_likelihood(level, mean),
                         reference_log_cell_mass(lo, hi, mean, var))
        mixed = one_sensor(2.0, levels, noise_var=var, detect_rate=rate)
        assert_log_close(mixed.log_likelihood(level, mean),
                         reference_log_likelihood(lo, hi, mean, var, rate))

    def test_degenerate_rates(self):
        y_hat = one_sensor(3.0, 25).quantise(1.0)
        lo, hi = y_hat - 3.0 / 25, y_hat + 3.0 / 25
        full = one_sensor(3.0, 25, 0.1, 1.0).log_likelihood(y_hat, 0.7)
        assert full == pytest.approx(reference_log_cell_mass(lo, hi, 0.7, 0.1))
        none = one_sensor(3.0, 25, 0.1, 0.0).log_likelihood(y_hat, 0.7)
        assert none == pytest.approx(reference_log_cell_mass(lo, hi, 0.0, 0.1))


class TestMeasurementMatrix:
    def setup_method(self):
        self.mesh = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 5, 5)

    def test_rows_are_interpolation_weights(self):
        positions = np.array([[0.13, 0.42], [0.77, 0.9], [0.5, 0.5]])
        h = build_measurement_matrix(self.mesh, positions)
        assert h.shape == (3, self.mesh.node_count + 1)
        np.testing.assert_allclose(h.sum(axis=1), 1.0)
        assert (h[:, -1] == 0.0).all()
        assert ((h != 0.0).sum(axis=1) <= 3).all()

    def test_linear_field_sampled_exactly(self):
        positions = np.array([[0.13, 0.42], [0.77, 0.9]])
        h = build_measurement_matrix(self.mesh, positions)
        field = 2.0 + 3.0 * self.mesh.nodes[:, 0] - self.mesh.nodes[:, 1]
        state = np.append(field, 7.0)  # strength must not leak into readings
        expected = 2.0 + 3.0 * positions[:, 0] - positions[:, 1]
        np.testing.assert_allclose(h @ state, expected, atol=1e-12)

    def test_outside_position_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_measurement_matrix(self.mesh, [[1.2, 0.5]])


class TestPositionGenerators:
    def test_random_positions_inside_and_reproducible(self):
        mesh = build_structured_mesh(0, 0, 2, 1, 4, 4)
        a = generate_positions(mesh, 17, np.random.default_rng(3))
        b = generate_positions(mesh, 17, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (17, 2)
        from plumetrace.mesh import locate_points
        assert (locate_points(mesh, a)[0] >= 0).all()

    def test_zero_count(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 2, 2)
        assert generate_positions(mesh, 0, np.random.default_rng(0)).shape == (0, 2)

    def setup_method(self):
        self.desk = build_structured_mesh(0, 0, 1000, 1000, 20, 20)
        self.center = np.array([250.0, 500.0])

    def test_fence_ring_structure(self):
        pos = fence_positions(self.desk, self.center, 40)
        assert pos.shape == (40, 2)
        assert len(np.unique(pos, axis=0)) == 40
        rings = np.max(np.abs(pos - self.center), axis=1)
        counts = {50.0: 4, 100.0: 16, 150.0: 12}
        for radius, expected in counts.items():
            assert int((rings == radius).sum()) == expected
        assert int((rings > 150.0).sum()) == 8  # background grid

    def test_fence_snaps_to_nodes_on_matching_grid(self):
        pos = fence_positions(self.desk, self.center, 32)  # rings only
        for p in pos:
            nearest = np.abs(self.desk.nodes - p).max(axis=1).min()
            assert nearest == 0.0

    def test_fence_corner_positions(self):
        pos = fence_positions(self.desk, self.center, 4)
        expected = {(200.0, 450.0), (200.0, 550.0), (300.0, 450.0), (300.0, 550.0)}
        assert {tuple(p) for p in pos} == expected

    def test_fence_partial_ring_is_evenly_thinned(self):
        pos = fence_positions(self.desk, self.center, 25)
        rings = np.max(np.abs(pos - self.center), axis=1)
        assert int((rings == 150.0).sum()) == 5

    def test_fence_near_boundary_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            fence_positions(self.desk, (50.0, 500.0), 40)

    def test_fence_needs_four_sensors(self):
        with pytest.raises(ValueError, match="at least 4"):
            fence_positions(self.desk, self.center, 3)


class TestSimulateMeasurement:
    def test_formula(self):
        h = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        x = np.array([3.0, 4.0, 9.0])
        net = SensorNetwork(positions=np.zeros((2, 2)), H=h,
                            noise_var=np.array([1e-2, 4e-2]),
                            detect_rate=np.array([1.0, 0.0]),
                            scale=np.full(2, 8.0), levels=np.full(2, 64))
        obs = draw_observation(net, x, np.random.default_rng(3))
        # detection indicators first, then the noise
        rng = np.random.default_rng(3)
        alpha = (rng.random(2) < net.detect_rate).astype(float)
        noise = rng.normal(0.0, np.sqrt(net.noise_var))
        np.testing.assert_array_equal(alpha, [1.0, 0.0])
        np.testing.assert_allclose(obs.raw, [3.0, 0.0] + noise)
        np.testing.assert_array_equal(obs.detections, alpha)


class TestSensorNetwork:
    def setup_method(self):
        self.mesh = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 4, 4)
        self.positions = np.array([[0.2, 0.2], [0.6, 0.7], [0.85, 0.3]])
        self.net = SensorNetwork.build(
            self.mesh, self.positions, noise_var=5e-3, detect_rate=0.85,
            scale=2.0, levels=100,
        )

    def test_build_broadcasts_scalars(self):
        assert self.net.count == 3
        np.testing.assert_array_equal(self.net.noise_var, np.full(3, 5e-3))
        np.testing.assert_array_equal(self.net.detect_rate, np.full(3, 0.85))
        np.testing.assert_array_equal(self.net.levels, np.full(3, 100))
        np.testing.assert_allclose(self.net.cell_half_width, 2.0 / 100)
        np.testing.assert_allclose(
            self.net.proposal_log_density, np.log(100 / 4.0)
        )

    def test_quantise_matches_per_sensor_quantisers(self):
        y = np.array([0.513, -1.99, 3.7])
        expected = [one_sensor(self.net.scale[j], self.net.levels[j])
                    .quantise(y[j])[0] for j in range(3)]
        np.testing.assert_allclose(self.net.quantise(y), expected)

    def test_log_likelihood_matches_scalar_form(self):
        rng = np.random.default_rng(0)
        y_hat = self.net.quantise(rng.normal(0, 1, 3))
        z = rng.normal(0, 1, (4, 3))
        out = self.net.log_likelihood(y_hat, z)
        assert out.shape == (4, 3)
        for m in range(4):
            for j in range(3):
                sensor = one_sensor(self.net.scale[j], self.net.levels[j],
                                    5e-3, 0.85)
                expected = sensor.log_likelihood(y_hat[j], z[m, j])[0]
                assert out[m, j] == pytest.approx(expected, abs=1e-12)

    def test_log_likelihood_on_particle_draws_matches_the_reference(self):
        # latents drawn uniformly in each received cell, as the particle
        # filter draws them, plus the two cell edges
        scenario = experiment.build_scenario(experiment.ScenarioConfig())
        net = scenario.network
        _, observations = experiment.simulate_trial(scenario, 0)
        w = net.cell_half_width
        rng = np.random.default_rng(11)
        for obs in observations[::16]:
            y = obs.values
            z = np.vstack([(y - w) + 2.0 * w * rng.random((1000, net.count)),
                           y - w, y + w])
            assert_log_close(
                net.log_likelihood(y, z),
                reference_log_likelihood(y - w, y + w, z, net.noise_var,
                                         net.detect_rate))

    def test_validation(self):
        with pytest.raises(ValueError, match="noise"):
            SensorNetwork.build(self.mesh, self.positions, noise_var=0.0,
                                detect_rate=0.85, scale=2.0, levels=100)
        with pytest.raises(ValueError, match="detection"):
            SensorNetwork.build(self.mesh, self.positions, noise_var=1e-3,
                                detect_rate=1.5, scale=2.0, levels=100)
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError,
                               match="quantiser scales must be positive"):
                SensorNetwork.build(self.mesh, self.positions, noise_var=1e-3,
                                    detect_rate=0.85, scale=scale, levels=100)
        with pytest.raises(ValueError, match="scalar or shape"):
            SensorNetwork.build(self.mesh, self.positions, noise_var=[1e-3, 1e-3],
                                detect_rate=0.85, scale=2.0, levels=100)
        h = self.net.H.copy()
        h[0, -1] = 0.5
        with pytest.raises(ValueError, match="strength column"):
            SensorNetwork(positions=self.positions.copy(), H=h,
                          noise_var=np.full(3, 1e-3),
                          detect_rate=np.full(3, 0.85),
                          scale=np.full(3, 2.0), levels=np.full(3, 100))

    def test_arrays_are_frozen(self):
        with pytest.raises(ValueError):
            self.net.H[0, 0] = 1.0

    def test_sparse_operator_is_built_once(self):
        h = self.net.H_csr
        assert h.format == "csr"
        np.testing.assert_array_equal(h.toarray(), self.net.H)
        assert h.nnz == np.count_nonzero(self.net.H)
        assert self.net.H_csr is h

    def test_layout_round_trip(self, tmp_path):
        path = tmp_path / "sensors.txt"
        save_sensor_layout(self.net, path)
        loaded = load_sensor_layout(path, self.mesh)
        np.testing.assert_array_equal(loaded.positions, self.net.positions)
        np.testing.assert_array_equal(loaded.H, self.net.H)
        np.testing.assert_array_equal(loaded.noise_var, self.net.noise_var)
        np.testing.assert_array_equal(loaded.detect_rate, self.net.detect_rate)
        np.testing.assert_array_equal(loaded.levels, self.net.levels)

    def test_layout_file_errors(self, tmp_path):
        path = tmp_path / "sensors.txt"
        path.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no sensors"):
            load_sensor_layout(path, self.mesh)
        path.write_text("0.5 0.5 2.0 100\n")
        with pytest.raises(ValueError, match="6 fields"):
            load_sensor_layout(path, self.mesh)

    def test_layout_file_non_number_names_the_file(self, tmp_path):
        # and quotes the bad line: under a header, as save_sensor_layout
        # writes, it is file line 3, which numpy's data-row index calls row 1
        path = tmp_path / "sensors.txt"
        path.write_text("# x y scale levels noise_var detect_rate\n"
                        "0.2 0.2 2.0 100 1e-3 0.9\n0.5 x 2.0 100 1e-3 0.9\n")
        with pytest.raises(ValueError) as exc:
            load_sensor_layout(path, self.mesh)
        message = str(exc.value)
        assert message.startswith(f"malformed sensor layout file {path}")
        assert "'0.5 x 2.0 100 1e-3 0.9'" in message
        assert "row" not in message

    @pytest.mark.parametrize("line,field", [
        ("0.5 0.5 2.0 2.5 1e-3 0.9", "levels"),
        ("0.5 0.5 2.0 inf 1e-3 0.9", "levels"),
        ("0.5 0.5 2.0 1e30 1e-3 0.9", "levels"),
        ("0.5 0.5 2.0 0 1e-3 0.9", "levels"),
        ("0.5 0.5 2.0 100 nan 0.9", "noise_var"),
        ("0.5 0.5 nan 100 1e-3 0.9", "scale"),
        ("0.5 0.5 inf 100 1e-3 0.9", "scale"),
        ("0.5 0.5 2.0 100 1e-3 nan", "detect_rate"),
    ])
    def test_layout_file_rejects_non_finite_and_fractional_values(
            self, tmp_path, line, field):
        path = tmp_path / "sensors.txt"
        path.write_text(f"0.2 0.2 2.0 100 1e-3 0.9\n{line}\n")
        with pytest.raises(ValueError, match=f"^{field} must be"):
            load_sensor_layout(path, self.mesh)

    def test_observation_container_defaults(self):
        obs = QuantisedObservation(values=np.zeros(3))
        assert obs.detections is None and obs.raw is None
