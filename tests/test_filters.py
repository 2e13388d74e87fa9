import hashlib
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from scipy.stats import norm

from plumetrace import experiment, fem, filters, flowfield, sensing
from plumetrace.filters import (
    FilterError,
    GaussianBelief,
    default_jitter,
    effective_sample_size,
    enkf_init,
    enkf_step,
    enkf_update,
    gain_schedule,
    kf_predict,
    kf_update,
    latent_transition_logpdf,
    multinomial_resample,
    normalise_weights,
    rbpf_init,
    rbpf_step,
)
from plumetrace.mesh import TriMesh, build_structured_mesh
from plumetrace.sensing import QuantisedObservation, SensorNetwork

from oracles import (
    LinearModel,
    _digests_at_one_and_two_blas_threads,
    latent_transition_density,
    means,
    one_sensor,
    particles,
    propose_latent,
    recording_steps,
    reference_log_likelihood,
    reference_rbpf_step,
)


def _random_system(rng, dim=5, obs=2):
    a = rng.normal(0.0, 0.5, (dim, dim))
    w = rng.normal(0.0, 0.3, (dim, dim))
    w = w @ w.T + 0.1 * np.eye(dim)
    p = rng.normal(0.0, 0.4, (dim, dim))
    p = p @ p.T + 0.2 * np.eye(dim)
    h = rng.normal(0.0, 1.0, (obs, dim))
    mean = rng.normal(0.0, 2.0, dim)
    z = rng.normal(0.0, 2.0, obs)
    return (LinearModel(a=a, w=np.diag(w)), GaussianBelief(mean=mean, cov=p),
            h, z)


def _small_setup(seed=0, sensors=3, particles=5):
    """A real dispersion model and network on a 3x3 mesh."""
    mesh = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 3, 3)
    system = fem.assemble(mesh, (0.02, 0.0), 1e-3, source=(0.4, 0.5))
    model = fem.build_model(system, 0.05, 1e-4, 1e-6)
    positions = [(0.3, 0.3), (0.6, 0.7), (0.8, 0.2), (0.2, 0.8)][:sensors]
    net = SensorNetwork.build(mesh, positions, noise_var=5e-3,
                              detect_rate=0.9, scale=4.0, levels=50)
    state = rbpf_init(model, net, particles, np.random.default_rng(seed))
    return model, net, state


def _first_step(model, net):
    """Step 0 of the gain schedule from the default prior ``10 I``."""
    return list(gain_schedule([model], net.H, 10.0))[0]


@pytest.fixture(scope="module")
def desk():
    config = experiment.ScenarioConfig()
    scenario = experiment.build_scenario(config)
    _, observations = experiment.simulate_ground_truth(
        scenario, np.random.default_rng(5))
    return config, scenario, observations


def _state_major(population):
    """Whether a (population, state) array views C-ordered (state, population)
    storage."""
    return population.T.flags.c_contiguous


class TestKalman:
    def test_predict_and_update_match_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model, belief, h, z = _random_system(rng)
            pred = kf_predict(model, belief)
            exp_mean = model.a @ belief.mean
            exp_cov = model.a @ belief.cov @ model.a.T + np.diag(model.w)
            np.testing.assert_allclose(pred.mean, exp_mean, atol=1e-10)
            np.testing.assert_allclose(pred.cov, 0.5 * (exp_cov + exp_cov.T),
                                       atol=1e-10)
            post = kf_update(pred, h, z, jitter=0.0)
            s = h @ pred.cov @ h.T
            gain = pred.cov @ h.T @ np.linalg.inv(s)
            exp_mean = pred.mean + gain @ (z - h @ pred.mean)
            exp_cov = (np.eye(5) - gain @ h) @ pred.cov
            np.testing.assert_allclose(post.mean, exp_mean, atol=1e-10)
            np.testing.assert_allclose(post.cov, 0.5 * (exp_cov + exp_cov.T),
                                       atol=1e-10)

    def test_update_accepts_single_row(self):
        belief = GaussianBelief(mean=np.zeros(3), cov=np.eye(3))
        post = kf_update(belief, np.array([1.0, 0.0, 0.0]), 2.0, jitter=0.0)
        np.testing.assert_allclose(post.mean, [2.0, 0.0, 0.0])

    def test_default_jitter_formula(self):
        cov = np.diag([1.0, 3.0])
        assert default_jitter(cov) == pytest.approx(1e-9 * 2.0)

    def test_singular_innovation_raises(self):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.zeros((2, 2)))
        with pytest.raises(FilterError, match="singular"):
            kf_update(belief, np.eye(2), np.zeros(2), jitter=0.0)

    def test_posterior_covariance_shrinks(self):
        belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
        post = kf_update(belief, np.array([[1.0, 0.0]]), 0.5)
        assert post.cov[0, 0] < 1e-6
        assert post.cov[1, 1] == pytest.approx(1.0)


class TestLatentDensities:
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 10.0))
    def test_logpdf_matches_reference(self, z, mean, var):
        expected = norm.logpdf(z, mean, np.sqrt(var))
        assert latent_transition_logpdf(z, mean, var) == pytest.approx(
            expected, abs=1e-10
        )

    def test_density_projects_belief_through_sensor_row(self):
        belief = GaussianBelief(mean=np.array([1.0, 2.0]),
                                cov=np.array([[2.0, 0.5], [0.5, 1.0]]))
        h_row = np.array([0.3, 0.7])
        mean = h_row @ belief.mean
        var = h_row @ belief.cov @ h_row
        got = latent_transition_density(belief, h_row, 1.4, jitter=0.0)
        assert got == pytest.approx(norm.pdf(1.4, mean, np.sqrt(var)), abs=1e-12)

    def test_vectorised(self):
        z = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = latent_transition_logpdf(z, np.array([0.0, 1.0]), 2.0)
        assert out.shape == (2, 2)

    def test_propose_latent_stays_in_cell(self):
        rng = np.random.default_rng(4)
        y_hat = one_sensor(2.0, 8).quantise(np.array([0.3, -1.7, 1.2]))
        w = 2.0 / 8
        draws = propose_latent(w, y_hat, rng, size=(1000, 3))
        assert (np.abs(draws - y_hat) <= w).all()

    def test_propose_latent_reproducible(self):
        a = propose_latent(2.0 / 8, 0.25, np.random.default_rng(9))
        b = propose_latent(2.0 / 8, 0.25, np.random.default_rng(9))
        assert a == b and isinstance(a, float)


class TestWeights:
    def test_normalise_weights(self):
        w = normalise_weights(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(w, [0.25, 0.75])
        # invariant under a common shift, even an extreme one
        w2 = normalise_weights(np.array([-1e6, -1e6 + np.log(3.0)]))
        np.testing.assert_allclose(w2, [0.25, 0.75])

    def test_normalise_weights_all_vanished(self):
        with pytest.raises(FilterError, match="degenerated"):
            normalise_weights(np.array([-np.inf, -np.inf]))

    def test_effective_sample_size(self):
        assert effective_sample_size(np.full(8, 1 / 8)) == pytest.approx(8.0)
        assert effective_sample_size(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_multinomial_resample_statistics(self):
        weights = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(12)
        idx = multinomial_resample(weights, rng, size=200_000)
        freq = np.bincount(idx, minlength=3) / idx.size
        # three-sigma binomial bands
        for j in range(3):
            sd = np.sqrt(weights[j] * (1 - weights[j]) / idx.size)
            assert abs(freq[j] - weights[j]) < 3 * sd

    def test_multinomial_resample_validation_and_determinism(self):
        with pytest.raises(ValueError, match="normalised"):
            multinomial_resample(np.array([0.7, 0.7]), np.random.default_rng(0))
        a = multinomial_resample(np.array([0.5, 0.5]), np.random.default_rng(3), 10)
        b = multinomial_resample(np.array([0.5, 0.5]), np.random.default_rng(3), 10)
        np.testing.assert_array_equal(a, b)


def _assert_steps_match_the_reference(models, schedule, net, observations,
                                      particle_count):
    """Run the filter and the reference step side by side from one seed:
    the latents, the weights, the ancestry and the means agree bit for
    bit, and the filter keeps one survivor per distinct ancestor."""
    state = rbpf_init(models[0], net, particle_count, np.random.default_rng(8))
    reference = replace(state, rng=np.random.default_rng(8))
    for model, kalman, obs in zip(models, schedule, observations):
        with recording_steps() as record:
            state, estimate = rbpf_step(state, obs, model, kalman)
        expected = reference_rbpf_step(reference, obs, model, kalman)
        reference = expected.state
        (weights,), (latents,) = record.weights, record.latents
        np.testing.assert_array_equal(weights, expected.weights)
        np.testing.assert_array_equal(latents, expected.latents)
        keep, lineage = np.unique(expected.ancestors, return_inverse=True)
        np.testing.assert_array_equal(state.lineage, lineage)
        assert state.survivors.shape == (model.state_dim, keep.size)
        np.testing.assert_array_equal(means(state), means(reference))
        assert _relative_gap(estimate, expected.estimate) < 1e-12


class TestRbpf:
    def test_init_population(self):
        model, net, state = _small_setup(particles=7)
        assert means(state).shape == (7, model.state_dim)
        np.testing.assert_array_equal(means(state), np.zeros_like(means(state)))
        assert state.particle_count == 7

    def test_state_holds_only_the_population(self):
        assert [f.name for f in fields(filters.RbpfState)] == [
            "network", "survivors", "lineage", "rng"]

    def test_init_validation(self):
        model, net, _ = _small_setup()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="particle count"):
            rbpf_init(model, net, 0, rng)

    def test_single_particle_replicates_shared_kalman_update(self):
        model, net, _ = _small_setup()
        obs = net.quantise(np.array([0.08, -0.08, 0.24]))
        seed = 42
        state = rbpf_init(model, net, 1, np.random.default_rng(seed))
        kalman = list(gain_schedule([model], net.H, 2.0))[0]
        new_state, estimate = rbpf_step(state, obs, model, kalman)

        rng = np.random.default_rng(seed)
        a = model.augmented_transition().toarray()
        p_pred = (a @ (2.0 * np.eye(model.state_dim)) @ a.T
                  + np.diag(model.process_variances()))
        p_pred = 0.5 * (p_pred + p_pred.T)
        w = net.cell_half_width
        z = (obs - w) + 2.0 * w * rng.random((1, net.count))
        manual = kf_update(
            GaussianBelief(mean=a @ np.zeros(model.state_dim), cov=p_pred),
            net.H, z[0],
        )
        np.testing.assert_allclose(estimate, manual.mean, atol=1e-13)
        np.testing.assert_allclose(kalman.cov, manual.cov, atol=1e-13)

    def test_covariance_recursion_ignores_sampled_latents(self):
        model, net, _ = _small_setup()
        obs = net.quantise(np.array([0.1, 0.0, -0.2]))
        kalman = _first_step(model, net)
        a, h = model.augmented_transition().toarray(), net.H
        for seed in (1, 99):
            st_ = rbpf_init(model, net, 6, np.random.default_rng(seed))
            predicted = means(st_) @ a.T
            reference = reference_rbpf_step(
                replace(st_, rng=np.random.default_rng(seed)), obs, model,
                kalman)
            with recording_steps() as record:
                st_, _ = rbpf_step(st_, obs, model, kalman)
            # whatever latents were drawn, every particle takes the one gain
            (latents,) = record.latents
            innovations = latents - predicted @ h.T
            updated = predicted + innovations @ kalman.gain_t
            np.testing.assert_allclose(reference.means, updated, atol=1e-12)
            np.testing.assert_allclose(
                means(st_), updated[reference.ancestors], atol=1e-12)

    def test_weights_follow_the_scalar_oracles(self):
        model, net, state = _small_setup(particles=5)
        obs = net.quantise(np.array([0.1, 0.0, -0.2]))
        rng = np.random.default_rng(17)
        # three distinct means shared by five particles
        survivors = rng.normal(0.0, 0.05, (model.state_dim, 3))
        lineage = np.array([0, 2, 1, 2, 0])
        means = survivors.T[lineage]
        state = replace(state, survivors=survivors, lineage=lineage)
        with recording_steps() as record:
            rbpf_step(state, obs, model, _first_step(model, net))
        (weights,), (latents,) = record.weights, record.latents

        a = model.augmented_transition().toarray()
        p_pred = (a @ (10.0 * np.eye(model.state_dim)) @ a.T
                  + np.diag(model.process_variances()))
        p_pred = 0.5 * (p_pred + p_pred.T)
        expected = np.full(5, 1 / 5)
        for m in range(5):
            predicted = GaussianBelief(mean=a @ means[m], cov=p_pred)
            for j in range(net.count):
                z, w = latents[m, j], net.cell_half_width[j]
                log_obs = reference_log_likelihood(
                    obs[j] - w, obs[j] + w, z, net.noise_var[j],
                    net.detect_rate[j])
                expected[m] *= (
                    np.exp(log_obs)
                    * latent_transition_density(predicted, net.H[j], z)
                    / (net.levels[j] / (2.0 * net.scale[j])))
        expected /= expected.sum()
        assert np.ptp(expected) > 0.01     # the weights tell particles apart
        np.testing.assert_allclose(weights, expected, rtol=1e-9)

    def test_estimate_is_weighted_mean_before_resampling(self):
        model, net, _ = _small_setup()
        obs = net.quantise(np.array([0.1, 0.0, -0.2]))
        kalman = _first_step(model, net)
        st_ = rbpf_init(model, net, 6, np.random.default_rng(5))
        reference = reference_rbpf_step(
            replace(st_, rng=np.random.default_rng(5)), obs, model, kalman)
        with recording_steps() as record:
            st_, estimate = rbpf_step(st_, obs, model, kalman)
        (weights,) = record.weights
        np.testing.assert_allclose(estimate, weights @ reference.means,
                                   atol=1e-14)
        # the weights were not uniform, and the population was resampled
        assert np.ptp(weights) > 0.0
        assert st_.particle_count == 6

    def test_population_stays_state_major(self):
        model, net, state = _small_setup(particles=6)
        obs = net.quantise(np.array([0.1, 0.0, -0.2]))
        assert state.survivors.flags.c_contiguous
        for kalman in gain_schedule([model, model], net.H, 10.0):
            state, _ = rbpf_step(state, obs, model, kalman)
            assert state.survivors.flags.c_contiguous

    def test_accepts_observation_object_and_array(self):
        model, net, _ = _small_setup()
        obs = net.quantise(np.array([0.1, 0.0, -0.2]))
        st_a = rbpf_init(model, net, 4, np.random.default_rng(2))
        st_b = rbpf_init(model, net, 4, np.random.default_rng(2))
        kalman = _first_step(model, net)
        _, est_a = rbpf_step(st_a, QuantisedObservation(values=obs), model,
                             kalman)
        _, est_b = rbpf_step(st_b, obs, model, kalman)
        np.testing.assert_array_equal(est_a, est_b)

    def test_wrong_observation_length(self):
        model, net, state = _small_setup()
        with pytest.raises(ValueError, match="observation"):
            rbpf_step(state, np.zeros(net.count + 1), model,
                      _first_step(model, net))

    # one particle takes the matrix-vector gain product, 1000 the full-width
    # gemm, and 30 leave a partial block of columns
    @pytest.mark.parametrize("particle_count", [1, 30, 1000])
    def test_steps_match_the_reference_on_a_desk_trial(self, desk,
                                                       particle_count):
        _, scenario, observations = desk
        models = [scenario.provider.model_at(k)
                  for k in range(len(observations))]
        _assert_steps_match_the_reference(
            models, scenario.gain_schedule(), scenario.network, observations,
            particle_count)

    def test_steps_match_the_reference_on_a_gridded_flow(self):
        models, net = _time_varying_models()
        rng = np.random.default_rng(4)
        observations = [net.quantise(rng.normal(0.0, 0.1, net.count))
                        for _ in models]
        _assert_steps_match_the_reference(
            models, gain_schedule(models, net.H, 3.0), net, observations, 50)

    def test_particles_snapshot(self):
        model, net, state = _small_setup(particles=4)
        obs = net.quantise(np.array([0.1, 0.0, -0.2]))
        with recording_steps() as record:
            state, _ = rbpf_step(state, obs, model, _first_step(model, net))
        parts = particles(state)
        assert len(parts) == 4
        total = sum(p.weight for p in parts)
        assert total == pytest.approx(1.0)
        np.testing.assert_array_equal(parts[0].mean, means(state)[0])
        assert parts[0].strength == means(state)[0, -1]
        (latents,) = record.latents
        assert latents.shape == (4, net.count)


# A mesh whose state fits in one covariance band, and one whose state spans
# more than two bands and is not a multiple of the band (n = 157).
ONE_BAND, THREE_BANDS = (5, 4), (12, 11)


def _time_varying_models(steps=5, cells=ONE_BAND, shuffled=False):
    """Per-step models of a gridded flow that changes at every step, on a
    10 x 10 domain split into ``cells`` = (nx, ny) cells; ``shuffled``
    numbers the nodes in a random order, which scatters the nonzeros of
    every row band of the transition over the whole state."""
    mesh = build_structured_mesh(0.0, 0.0, 10.0, 10.0, *cells)
    if shuffled:
        perm = np.random.default_rng(17).permutation(mesh.node_count)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        mesh = TriMesh(mesh.nodes[perm], inv[mesh.elements])
    xs = np.array([-1.0, 4.0, 11.0])
    ys = np.array([-1.0, 11.0])
    ts = np.arange(steps + 1, dtype=float)
    rng = np.random.default_rng(31)
    u = rng.uniform(-0.2, 0.2, (ts.size, ys.size, xs.size))
    v = rng.uniform(-0.2, 0.2, (ts.size, ys.size, xs.size))
    flow = flowfield.GriddedFlow(xs, ys, ts, u, v)
    provider = experiment.ModelProvider(
        mesh, flow, flowfield.element_velocities(flow, mesh), 0.5, 1.0, 1e-3,
        1e-6, source=(4.0, 6.0))
    models = [provider.model_at(k) for k in range(steps)]
    net = SensorNetwork.build(mesh, [(2.0, 2.0), (7.5, 3.0), (5.0, 8.0)],
                              noise_var=1e-3, detect_rate=0.9, scale=4.0,
                              levels=64)
    return models, net


def _belief(cov):
    """A belief with covariance ``cov`` and a zero mean."""
    return GaussianBelief(mean=np.zeros(cov.shape[0]), cov=cov)


def _relative_gap(got, expected):
    return float(np.abs(got - expected).max() / np.abs(expected).max())


def _assert_sparse_step_matches_dense_algebra(cells, shuffled=False):
    models, net = _time_varying_models(cells=cells, shuffled=shuffled)
    assert _relative_gap(models[0].transition.toarray(),
                         models[-1].transition.toarray()) > 1e-3
    h = net.H
    sensors = filters._sensor_plan(sp.csr_matrix(h))
    rng = np.random.default_rng(7)
    root = rng.normal(0.0, 1.0, (models[0].state_dim,) * 2)
    cov = root @ root.T + np.eye(models[0].state_dim)
    for model in models:
        a = model.augmented_transition().toarray()
        predicted = kf_predict(model, _belief(cov)).cov
        dense = a @ cov @ a.T + np.diag(model.process_variances())
        assert _relative_gap(predicted, dense) < 1e-12
        step = filters._condition_lower(predicted, sensors, None)
        s = h @ dense @ h.T + default_jitter(dense) * np.eye(net.count)
        gain = np.linalg.solve(s, h @ dense).T
        posterior = (np.eye(model.state_dim) - gain @ h) @ dense
        assert _relative_gap(step.gain_t, gain.T) < 1e-12
        np.testing.assert_allclose(step.innovation_var, np.diag(s),
                                   rtol=1e-12)
        assert _relative_gap(step.cov, posterior) < 1e-12
        np.testing.assert_array_equal(step.cov, step.cov.T)
        cov = step.cov


def _assert_schedule_follows_the_recursion(cells, shuffled=False):
    models, net = _time_varying_models(cells=cells, shuffled=shuffled)
    schedule = list(gain_schedule(models, net.H, 3.0))
    assert len(schedule) == len(models)
    sensors = filters._sensor_plan(sp.csr_matrix(net.H))
    cov = 3.0 * np.eye(models[0].state_dim)
    for k, model in enumerate(models):
        step = filters._condition_lower(kf_predict(model, _belief(cov)).cov,
                                        sensors, None)
        np.testing.assert_array_equal(schedule[k].gain_t, step.gain_t)
        np.testing.assert_array_equal(schedule[k].innovation_var,
                                      step.innovation_var)
        assert (schedule[k].cov is None) == (k < len(models) - 1)
        cov = step.cov
    np.testing.assert_array_equal(schedule[-1].cov, cov)


class TestCovarianceStep:
    def test_sparse_step_matches_dense_algebra_on_time_varying_flow(self):
        _assert_sparse_step_matches_dense_algebra(ONE_BAND)

    def test_sparse_step_matches_dense_algebra_across_bands(self):
        models, _ = _time_varying_models(steps=1, cells=THREE_BANDS)
        dim = models[0].state_dim
        assert dim > 2 * filters._BAND and dim % filters._BAND
        _assert_sparse_step_matches_dense_algebra(THREE_BANDS)

    def test_band_windows_narrow_only_on_ordered_node_numbers(self):
        for shuffled, narrowed in ((False, True), (True, False)):
            models, _ = _time_varying_models(steps=1, cells=THREE_BANDS,
                                             shuffled=shuffled)
            plan = filters._band_plan(models[0].augmented_transition())
            assert any(band.rows is not None for band in plan) == narrowed

    def test_sparse_step_matches_dense_algebra_on_shuffled_nodes(self):
        _assert_sparse_step_matches_dense_algebra(THREE_BANDS, shuffled=True)

    def test_condition_reads_only_the_lower_triangle(self):
        models, net = _time_varying_models(steps=1, cells=THREE_BANDS)
        rng = np.random.default_rng(3)
        root = rng.normal(0.0, 1.0, (models[0].state_dim,) * 2)
        cov = kf_predict(models[0], _belief(root @ root.T)).cov
        lower = np.where(np.triu(np.ones_like(cov, dtype=bool), 1), np.nan,
                         cov)
        kept = lower.copy()
        sensors = filters._sensor_plan(sp.csr_matrix(net.H))
        expected = filters._condition_lower(cov.copy(), sensors, None)
        got = filters._condition_lower(lower.copy(), sensors, None)
        for x, y in zip(got, expected):
            assert x.tobytes() == y.tobytes()
        z = np.arange(1.0, net.count + 1.0)
        expected = kf_update(_belief(cov), net.H, z)
        got = kf_update(_belief(lower), net.H, z)
        for x, y in ((got.mean, expected.mean), (got.cov, expected.cov)):
            assert x.tobytes() == y.tobytes()
        np.testing.assert_array_equal(lower, kept)

    def test_kf_predict_and_kf_update_leave_their_input_unchanged(self):
        models, net = _time_varying_models(steps=1, cells=THREE_BANDS)
        model = models[0]
        rng = np.random.default_rng(5)
        root = rng.normal(0.0, 1.0, (model.state_dim,) * 2)
        cov = root @ root.T
        kept = cov.copy()
        belief = GaussianBelief(mean=np.ones(model.state_dim), cov=cov)
        for result in (kf_predict(model, belief),
                       kf_update(belief, net.H, np.zeros(net.count))):
            np.testing.assert_array_equal(belief.cov, kept)
            np.testing.assert_array_equal(belief.mean,
                                          np.ones(model.state_dim))
            assert not np.shares_memory(result.cov, cov)

    def test_results_are_arrays_not_matrices(self):
        models, net = _time_varying_models(steps=2)
        cov = np.eye(models[0].state_dim)
        schedule = list(gain_schedule(models, net.H, 2.0))
        predicted = kf_predict(models[0], GaussianBelief(
            mean=np.ones(models[0].state_dim), cov=cov))
        belief = kf_update(predicted, net.H, np.zeros(3))
        state = rbpf_init(models[0], net, 4, np.random.default_rng(1))
        state, estimate = rbpf_step(state, np.zeros(3), models[0], schedule[0])
        arrays = (predicted.mean, predicted.cov, *schedule[0][:2],
                  *schedule[1], belief.mean, belief.cov, estimate,
                  means(state))
        assert all(type(x) is np.ndarray for x in arrays)

    def test_schedule_covariances_and_gains_follow_the_recursion(self):
        _assert_schedule_follows_the_recursion(ONE_BAND)

    def test_schedule_follows_the_recursion_across_bands(self):
        _assert_schedule_follows_the_recursion(THREE_BANDS)

    def test_schedule_follows_the_recursion_on_shuffled_nodes(self):
        _assert_schedule_follows_the_recursion(THREE_BANDS, shuffled=True)

    def test_panels_wait_for_the_last_band_that_reads_them(self):
        # on a 70 x 6 mesh a row reaches more than a band of columns away
        for shuffled, most in ((False, 3), (True, 7)):
            models, _ = _time_varying_models(steps=1, cells=(70, 6),
                                             shuffled=shuffled)
            plan = filters._band_plan(models[0].augmented_transition())
            last_reader = {b: k for k, band in enumerate(plan)
                           for b in band.writes}
            assert sorted(last_reader) == list(range(len(plan)))
            for b, band in enumerate(plan):
                readers = [k for k in range(b, len(plan))
                           if plan[k].lo < band.j]
                assert last_reader[b] == max(readers)
            assert max(k - b for b, k in last_reader.items()) == most

    # sha256 of every step's gain and innovation variances and the final
    # covariance on the 70 x 6 mesh, ordered and shuffled, across five
    # flow intervals
    SCHEDULE_DIGESTS = {
        False: "b6c1e8f69ca68e78c3a6739ecdcef7f1"
               "5dc8ce73021df3ca3993f95fc0ec183c",
        True: "731317c3e0137d4ed259e2e78e550dc0"
              "8cfdb063cb776553dab6368da29f84c2",
    }

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_schedule_bytes_are_pinned_across_bands(self, shuffled):
        models, net = _time_varying_models(cells=(70, 6), shuffled=shuffled)
        assert len({id(model) for model in models}) >= 2
        digest = hashlib.sha256()
        for step in gain_schedule(models, net.H, 3.0):
            for array in step:
                if array is not None:
                    digest.update(array.tobytes())
        assert digest.hexdigest() == self.SCHEDULE_DIGESTS[shuffled]

    def test_schedule_takes_dense_or_sparse_h(self):
        models, net = _time_varying_models(steps=3)
        dense = gain_schedule(models, net.H, 3.0)
        sparse = gain_schedule(models, net.H_csr, 3.0)
        for a, b in zip(dense, sparse):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_schedule_forms_the_band_plans_at_the_call(self):
        # so a process forked after the call, before any step, inherits them
        models, net = _time_varying_models(steps=3, cells=THREE_BANDS)
        filters._plan_of_pattern.cache_clear()
        gain_schedule(models, net.H, 3.0)
        assert filters._plan_of_pattern.cache_info().currsize == 1

    def test_schedule_rejects_a_non_positive_prior(self):
        models, net = _time_varying_models(steps=1)
        for bad in (-1.0, 0.0, np.nan):
            with pytest.raises(ValueError, match="covariance must be positive"):
                gain_schedule(models, net.H, bad)
        with pytest.raises(ValueError, match="scalar variance"):
            gain_schedule(models, net.H, np.eye(models[0].state_dim))
        # no default of its own: the prior comes from the scenario's init_cov
        with pytest.raises(ValueError, match="None"):
            gain_schedule(models, net.H, None)


class TestGainSchedule:
    def test_posterior_stays_symmetric_and_semidefinite_over_2000_steps(self):
        config = experiment.ScenarioConfig(nx=10, ny=10, source=(500.0, 500.0),
                                           sensor_count=12, steps=2000)
        scenario = experiment.build_scenario(config)
        cov = list(scenario.gain_schedule())[-1].cov
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9 * np.abs(cov).max()

    # the particle filter's own steps; the schedule that feeds them has its
    # own n x n working covariance (test_schedule_holds_one_covariance_buffer)
    def test_rbpf_steps_never_hold_a_dense_prior(self, desk):
        config, scenario, observations = desk
        schedule = list(scenario.gain_schedule())
        models = [scenario.provider.model_at(k)
                  for k in range(len(observations))]
        tracemalloc.start()
        try:
            state = rbpf_init(models[0], scenario.network, config.size,
                              np.random.default_rng(0))
            for obs, model, kalman in zip(observations, models, schedule):
                state, _ = rbpf_step(state, obs, model, kalman)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * scenario.state_dim ** 2

    def test_schedule_holds_one_covariance_buffer(self):
        # n = 962; the first bands' panels wait up to three bands
        models, net = _time_varying_models(steps=3, cells=(30, 30))
        for model in models:
            model.augmented_transition()
        tracemalloc.start()
        try:
            schedule = list(gain_schedule(models, net.H_csr, 10.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(array.nbytes for step in schedule for array in step
                   if array is not None)
        assert peak - kept < 8 * models[0].state_dim ** 2

    def test_schedule_bytes_do_not_depend_on_the_blas_thread_count(self):
        script = (
            "import hashlib\n"
            "from plumetrace import experiment\n"
            "config = experiment.ScenarioConfig()\n"
            "scenario = experiment.build_scenario(config)\n"
            "digest = hashlib.sha256()\n"
            "for step in scenario.gain_schedule():\n"
            "    for array in step:\n"
            "        if array is not None:\n"
            "            digest.update(array.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = _digests_at_one_and_two_blas_threads(script)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("size", [30, 1000])
    def test_rbpf_bytes_do_not_depend_on_the_blas_thread_count(self, size):
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from plumetrace import experiment\n"
            f"config = experiment.ScenarioConfig(size={size})\n"
            "scenario = experiment.build_scenario(config)\n"
            "_, observations = experiment.simulate_ground_truth(\n"
            "    scenario, np.random.default_rng(5))\n"
            "estimates = experiment.run_filter(scenario, observations,\n"
            "                                  np.random.default_rng(0))\n"
            "print(hashlib.sha256(estimates.tobytes()).hexdigest())\n"
        )
        digests = _digests_at_one_and_two_blas_threads(script)
        assert digests[0] == digests[1]


class TestEnkf:
    def test_init_draws_from_prior(self):
        model, net, _ = _small_setup()
        rng = np.random.default_rng(8)
        state = enkf_init(model, net, 4000, rng, cov=2.0)
        assert state.members.shape == (4000, model.state_dim)
        assert abs(state.members.mean()) < 0.1
        assert state.members.var(axis=0).mean() == pytest.approx(2.0, rel=0.1)

    def test_init_validation(self):
        model, net, _ = _small_setup()
        with pytest.raises(ValueError, match="ensemble size"):
            enkf_init(model, net, 1, np.random.default_rng(0), cov=10.0)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="covariance must be positive"):
                enkf_init(model, net, 5, np.random.default_rng(0), cov=bad)
        with pytest.raises(ValueError, match="scalar variance"):
            enkf_init(model, net, 5, np.random.default_rng(0),
                      cov=np.eye(model.state_dim))
        with pytest.raises(ValueError, match="None"):
            enkf_init(model, net, 5, np.random.default_rng(0), cov=None)

    def test_isotropic_prior_members_equal_the_dense_root_draws(self, desk):
        _, scenario, _ = desk
        model, dim = scenario.provider.model_at(0), scenario.state_dim
        for c in (10.0, 0.3, 7.77):
            state = enkf_init(model, scenario.network, 200,
                              np.random.default_rng(4), cov=c)
            root = np.linalg.cholesky(c * np.eye(dim))
            draws = np.random.default_rng(4).standard_normal((200, dim))
            np.testing.assert_array_equal(state.members, draws @ root.T)

    def test_init_never_holds_a_dense_prior(self, desk):
        config, scenario, _ = desk
        tracemalloc.start()
        try:
            enkf_init(scenario.provider.model_at(0), scenario.network, 30,
                      np.random.default_rng(0), cov=config.init_cov)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * scenario.state_dim ** 2

    def test_update_algebra(self):
        rng = np.random.default_rng(13)
        members = rng.normal(0.0, 1.0, (50, 4))
        h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        noise_var = np.array([0.2, 0.3])
        y = np.array([0.5, -0.25])
        pert = rng.normal(0.0, 0.1, (50, 2))
        out = enkf_update(members, h, noise_var, y, pert)
        anomalies = members - members.mean(axis=0)
        ye = anomalies @ h.T
        s = ye.T @ ye / 49 + np.diag(noise_var)
        gain = (anomalies.T @ ye / 49) @ np.linalg.inv(s)
        expected = members + (y + pert - members @ h.T) @ gain.T
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_update_zero_perturbations_is_deterministic_shift(self):
        rng = np.random.default_rng(14)
        members = rng.normal(0.0, 1.0, (30, 3))
        h = np.array([[1.0, 0.0, 0.0]])
        out = enkf_update(members, h, np.array([0.5]), np.array([2.0]),
                          np.zeros((30, 1)))
        # every member moves toward the observation along the gain direction
        assert abs(out[:, 0].mean() - members[:, 0].mean()) > 0.1

    def test_update_singular_covariance_raises(self):
        members = np.ones((10, 3))  # zero spread
        h = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(FilterError, match="singular"), \
                pytest.warns(RuntimeWarning, match="collapsed"):
            enkf_update(members, h, np.array([0.0]), np.array([1.0]),
                        np.zeros((10, 1)))

    def test_update_takes_a_scalar_noise_variance(self):
        rng = np.random.default_rng(16)
        members = rng.normal(0.0, 1.0, (20, 4))
        h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        y, pert = np.array([0.5, -0.25]), rng.normal(0.0, 0.1, (20, 2))
        np.testing.assert_array_equal(
            enkf_update(members, h, 0.2, y, pert),
            enkf_update(members, h, np.full(2, 0.2), y, pert))

    def test_update_indefinite_covariance_raises(self):
        rng = np.random.default_rng(17)
        members = rng.normal(0.0, 1.0, (50, 4))
        h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(FilterError, match="indefinite"):
            enkf_update(members, h, np.array([0.2, -5.0]),
                        np.array([0.5, -0.25]), np.zeros((50, 2)))

    @pytest.mark.parametrize("size", [30, 1000])
    def test_update_matches_the_solve_reference_at_desk_size(self, desk,
                                                              size):
        config, scenario, observations = desk
        net, model = scenario.network, scenario.provider.model_at(0)
        state = enkf_init(model, net, size, np.random.default_rng(6),
                          cov=config.init_cov)
        state, _ = enkf_step(state, observations[0], model)
        members = state.members
        r_eff = net.noise_var + net.cell_half_width ** 2 / 3.0
        y = observations[1].values
        pert = np.random.default_rng(7).standard_normal(
            (size, net.count)) * np.sqrt(r_eff)
        out = enkf_update(members, net.H_csr, r_eff, y, pert)
        # reference gain: an LU solve of S against every row of P H^T
        anomalies = members - members.mean(axis=0)
        ye = anomalies @ net.H.T
        s = ye.T @ ye / (size - 1) + np.diag(r_eff)
        gain = np.linalg.solve(s, (anomalies.T @ ye / (size - 1)).T).T
        shift = (y + pert - members @ net.H.T) @ gain.T
        assert members.shape[1] == 442 and net.count == 40
        np.testing.assert_allclose(out - members, shift, rtol=0.0,
                                   atol=1e-12 * np.abs(shift).max())

    def test_large_ensemble_approaches_kalman_update(self):
        rng = np.random.default_rng(15)
        mean = np.array([1.0, -0.5])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        members = rng.multivariate_normal(mean, cov, size=200_000)
        h = np.array([[1.0, 0.0]])
        r = np.array([0.5])
        y = np.array([3.0])
        out = enkf_update(members, h, r, y, np.zeros((members.shape[0], 1)))
        gain = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + np.diag(r))
        expected = mean + gain @ (y - h @ mean)
        np.testing.assert_allclose(out.mean(axis=0), expected, atol=0.02)

    def test_step_reproducible_and_shaped(self):
        model, net, _ = _small_setup()
        obs = net.quantise(np.array([0.1, 0.0, -0.2]))
        outs = []
        for _ in range(2):
            state = enkf_init(model, net, 12, np.random.default_rng(21),
                              cov=10.0)
            state, est = enkf_step(state, obs, model)
            outs.append(est)
        np.testing.assert_array_equal(outs[0], outs[1])
        assert outs[0].shape == (model.state_dim,)
        np.testing.assert_allclose(outs[0], state.members.mean(axis=0))

    def test_ensemble_stays_state_major(self):
        model, net, _ = _small_setup()
        obs = net.quantise(np.array([0.1, 0.0, -0.2]))
        state = enkf_init(model, net, 12, np.random.default_rng(21), cov=10.0)
        assert _state_major(state.members)
        for _ in range(2):
            state, _ = enkf_step(state, obs, model)
            assert _state_major(state.members)

    def test_step_holds_at_most_three_ensembles(self, desk):
        config, scenario, observations = desk
        model = scenario.provider.model_at(0)
        state = enkf_init(model, scenario.network, 1000,
                          np.random.default_rng(0), cov=config.init_cov)
        tracemalloc.start()
        try:
            state, _ = enkf_step(state, observations[0], model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * state.members.nbytes

    def test_steps_match_dense_reference_draw_for_draw(self):
        models, net = _time_varying_models()
        size, r_eff = 8, net.noise_var + net.cell_half_width ** 2 / 3.0
        state = enkf_init(models[0], net, size, np.random.default_rng(3),
                          cov=10.0)
        rng = np.random.default_rng(3)
        members = enkf_init(models[0], net, size, rng, cov=10.0).members
        for k, model in enumerate(models):
            obs = net.quantise(np.full(net.count, 0.05 * k))
            state, estimate = enkf_step(state, obs, model)
            a = model.augmented_transition().toarray()
            root = np.linalg.cholesky(np.diag(model.process_variances()))
            members = (members @ a.T
                       + rng.standard_normal(members.shape) @ root.T)
            perturbations = rng.standard_normal((size, net.count)) * np.sqrt(
                r_eff)
            members = enkf_update(members, net.H, r_eff, obs, perturbations)
            np.testing.assert_allclose(state.members, members, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(estimate, members.mean(axis=0),
                                       rtol=0.0, atol=1e-12)

    def test_enkf_bytes_do_not_depend_on_the_blas_thread_count(self):
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from plumetrace import experiment\n"
            "config = experiment.ScenarioConfig(size=30, estimator='enkf')\n"
            "scenario = experiment.build_scenario(config)\n"
            "_, observations = experiment.simulate_ground_truth(\n"
            "    scenario, np.random.default_rng(5))\n"
            "estimates = experiment.run_filter(scenario, observations,\n"
            "                                  np.random.default_rng(0))\n"
            "print(hashlib.sha256(estimates.tobytes()).hexdigest())\n"
        )
        digests = _digests_at_one_and_two_blas_threads(script)
        assert digests[0] == digests[1]

    def test_step_wrong_observation_length(self):
        model, net, _ = _small_setup()
        state = enkf_init(model, net, 5, np.random.default_rng(0), cov=10.0)
        with pytest.raises(ValueError, match="observation"):
            enkf_step(state, np.zeros(net.count + 2), model)

    def test_collapse_warning(self):
        mesh = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
        system = fem.assemble(mesh, (0.0, 0.0), 1e-3)
        model = fem.build_model(system, 0.01, 1e-300, 1e-300)
        net = SensorNetwork.build(mesh, [(0.5, 0.5)], noise_var=1e-3,
                                  detect_rate=1.0, scale=2.0, levels=16)
        state = enkf_init(model, net, 5, np.random.default_rng(1), cov=1e-300)
        with pytest.warns(RuntimeWarning, match="collapsed"):
            enkf_step(state, np.array([0.0]), model)
