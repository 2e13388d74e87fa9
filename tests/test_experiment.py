import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plumetrace import experiment, fem, filters, flowfield, sensing
from plumetrace import mesh as meshmod
from plumetrace.cli import load_config
from plumetrace.experiment import (
    STREAM_ENKF,
    STREAM_RBPF,
    STREAM_SENSORS,
    STREAM_TRUTH,
    ModelProvider,
    ScenarioConfig,
    TrialResult,
    _trial_rng,
    build_scenario,
    compute_aee,
    draw_observation,
    load_observations_csv,
    run_filter,
    run_trials,
    simulate_ground_truth,
    simulate_trial,
    write_observations_csv,
    write_results_csv,
    write_summary_json,
    write_truth_csv,
)

from oracles import (
    assert_same_csr,
    level_values,
    reference_observation_rows,
)


def tiny_config(**overrides) -> ScenarioConfig:
    """A 4x4 mesh scenario that runs in milliseconds."""
    base = dict(
        domain=(0.0, 0.0, 10.0, 10.0), nx=4, ny=4,
        flow_kind="uniform", flow_u=0.05, flow_v=0.0,
        diffusivity=0.02, dt=None, steps=3,
        source=(5.0, 5.0), field_noise=1e-4, strength_walk=1e-4,
        sensor_layout="random", sensor_count=5,
        detect_rate=0.9, quantiser_scale=8.0, quantiser_levels=64,
        sensor_noise=1e-4,
        size=6, init_cov=4.0, trials=2, seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def gridded_config(tmp_path, **overrides) -> ScenarioConfig:
    """:func:`tiny_config` under a file flow that changes at t = 2."""
    xs = np.array([-1.0, 11.0])
    ys = np.array([-1.0, 11.0])
    ts = np.array([0.0, 2.0, 1e6])
    u = np.zeros((3, 2, 2))
    u[0] = 0.01
    u[1] = 0.05
    u[2] = 0.05
    flow = flowfield.GriddedFlow(xs, ys, ts, u, np.zeros_like(u))
    path = tmp_path / "flow.txt"
    flowfield.save_gridded_flow(flow, path)
    return tiny_config(flow_kind="file", flow_file=str(path), dt=1.5,
                       steps=4, **overrides)


def per_step_flow_config(tmp_path, **overrides) -> ScenarioConfig:
    """:func:`tiny_config` on a 12 x 12 mesh under a file flow with a new
    sample for each of its 5 steps, so every step has its own model."""
    steps, dt = 5, 1.5
    xs = np.array([-1.0, 4.0, 11.0])
    ys = np.array([-1.0, 11.0])
    # sample k starts half a step before step k
    ts = np.concatenate([[0.0], (np.arange(1, steps) - 0.5) * dt])
    u, v = np.random.default_rng(31).uniform(
        -0.05, 0.05, (2, ts.size, ys.size, xs.size))
    path = tmp_path / "flow.txt"
    flowfield.save_gridded_flow(flowfield.GriddedFlow(xs, ys, ts, u, v), path)
    return tiny_config(nx=12, ny=12, flow_kind="file", flow_file=str(path),
                       dt=dt, steps=steps, **overrides)


def _other_values(value) -> list:
    """Values of a config field's type that differ from ``value``, one per
    slot of a tuple."""
    if isinstance(value, tuple):
        return [value[:i] + (value[i] + 1.0,) + value[i + 1:]
                for i in range(len(value))]
    if value is None:
        return ["other.txt"]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, str):
        return [value + "-other"]
    return [value + 1]


class TestConfigValidation:
    @pytest.mark.parametrize("overrides,match", [
        (dict(domain=(0.0, 0.0, -1.0, 1.0)), "positive extent"),
        (dict(nx=0), "resolution"),
        (dict(flow_kind="vortex"), "unknown flow kind"),
        (dict(flow_kind="file"), "requires flow_file"),
        (dict(diffusivity=-1.0), "non-negative"),
        (dict(dt=-0.5), "time step"),
        (dict(steps=-1), "step count"),
        (dict(field_noise=0.0), "process noise"),
        (dict(strength_walk=-1e-9), "process noise"),
        (dict(sensor_layout="grid"), "unknown sensor layout"),
        (dict(sensor_count=0), "at least one sensor"),
        (dict(detect_rate=1.5), "detection rate"),
        (dict(quantiser_scale=0.0), "quantiser scale"),
        (dict(quantiser_levels=0), "level count"),
        (dict(sensor_noise=0.0), "sensor noise"),
        (dict(estimator="ukf"), "unknown estimator"),
        (dict(size=0), "size too small"),
        (dict(estimator="enkf", size=1), "size too small"),
        (dict(init_cov=0.0), "initial covariance"),
        (dict(trials=0), "at least one trial"),
        (dict(node_stride=0), "node stride"),
        (dict(strength=math.nan), "strength must be finite"),
        (dict(diffusivity=math.inf), "diffusivity must be finite"),
        (dict(dt=math.nan), "dt must be finite"),
        (dict(domain=(0.0, 0.0, math.inf, 1.0)), "domain must be finite"),
        (dict(flow_center=(0.0, math.nan)), "flow_center must be finite"),
        (dict(init_cov=math.inf), "init_cov must be finite"),
        (dict(steps=0), "step count must be at least 1"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
    ])
    def test_rejects_bad_values(self, overrides, match):
        config = dataclasses.replace(ScenarioConfig(), **overrides)
        with pytest.raises(ValueError, match=match):
            config.validate()

    def test_defaults_validate(self):
        ScenarioConfig().validate()

    def test_hash_covers_scenario_not_estimator(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)      # a file field's value names a file
        Path("other.txt").write_text("other\n")
        base = ScenarioConfig()
        unhashed = {"estimator", "size", "init_cov", "force_dt", "node_stride"}
        for f in dataclasses.fields(ScenarioConfig):
            for value in _other_values(getattr(base, f.name)):
                other = dataclasses.replace(base, **{f.name: value})
                same = other.scenario_hash() == base.scenario_hash()
                assert same == (f.name in unhashed), (f.name, value)
        auto_dt = dataclasses.replace(base, dt=None)
        assert auto_dt.scenario_hash() != base.scenario_hash()

    def test_hash_pins_a_non_default_scenario(self, tmp_path, monkeypatch):
        # the file fields enter by their files' bytes
        monkeypatch.chdir(tmp_path)
        for name in ("grid", "flow", "sensors"):
            Path(f"{name}.txt").write_text(f"{name}\n")
        config = ScenarioConfig(
            mesh_file="grid.txt", domain=(1.0, 2.0, 3.0, 4.0), nx=7, ny=9,
            flow_kind="file", flow_u=0.5, flow_v=-0.25,
            flow_center=(10.0, 20.0), flow_rate=0.125, flow_file="flow.txt",
            diffusivity=3.5, auto_stabilise=False, dt=None, steps=12,
            source=(1.5, 2.5), strength=2.0, field_noise=1e-3,
            strength_walk=1e-6, sensor_file="sensors.txt",
            sensor_layout="random", sensor_count=7, detect_rate=0.5,
            quantiser_scale=4.0, quantiser_levels=16, sensor_noise=1e-3,
            trials=3, seed=42,
        )
        assert config.scenario_hash() == "7262b1996cd4ef86"


class TestBuildScenario:
    def test_default_scenario_resolves(self):
        scen = build_scenario(ScenarioConfig())
        assert scen.network.count == 40
        positions = {tuple(p) for p in scen.network.positions}
        assert (200.0, 450.0) in positions  # inner ring corner
        assert scen.dt == 18.0
        assert scen.diffusivity_eff == 25.0  # mixing already dominates
        assert scen.report.approves(scen.dt)
        assert scen.state_dim == scen.mesh.node_count + 1

    def test_random_layout_reproducible(self):
        a = build_scenario(tiny_config())
        b = build_scenario(tiny_config())
        np.testing.assert_array_equal(a.network.positions, b.network.positions)
        c = build_scenario(tiny_config(seed=12))
        assert not np.array_equal(a.network.positions, c.network.positions)

    def test_sensor_file_layout(self, tmp_path):
        scen = build_scenario(tiny_config())
        path = tmp_path / "sensors.txt"
        sensing.save_sensor_layout(scen.network, path)
        scen2 = build_scenario(tiny_config(sensor_file=str(path)))
        np.testing.assert_allclose(scen2.network.positions,
                                   scen.network.positions)

    def test_unstable_step_rejected_unless_forced(self):
        config = tiny_config(dt=1e6, auto_stabilise=False)
        with pytest.raises(ValueError, match="stable limit"):
            build_scenario(config)
        forced = tiny_config(dt=1e6, auto_stabilise=False, force_dt=True)
        assert build_scenario(forced).dt == 1e6

    def test_auto_step_uses_conservative_default(self):
        scen = build_scenario(tiny_config())
        assert scen.dt == fem.default_time_step(scen.report)

    def test_auto_stabilise_raises_diffusivity(self):
        # cell diameter 2.5, speed 0.05: grid Peclet > 1 at the base mixing
        scen = build_scenario(tiny_config())
        assert scen.diffusivity_eff > 0.02
        frozen = build_scenario(tiny_config(auto_stabilise=False))
        assert frozen.diffusivity_eff == 0.02

    def test_zero_and_rotation_flows(self):
        still = build_scenario(tiny_config(flow_kind="zero"))
        assert_same_csr(still.provider.model_at(5).transition,
                        _transition(still, (0.0, 0.0)))
        spin = build_scenario(tiny_config(
            flow_kind="rotation", flow_center=(5.0, 5.0), flow_rate=0.01,
        ))
        [rotation] = flowfield.element_velocities(
            flowfield.RigidRotationFlow((5.0, 5.0), 0.01), spin.mesh)
        assert_same_csr(spin.provider.model_at(5).transition,
                        _transition(spin, rotation))

    @pytest.mark.parametrize("layout", ["fence", "random"])
    def test_each_build_computes_its_mesh_boxes_once(self, layout,
                                                     monkeypatch):
        located, computed = [], []
        locate, boxes = meshmod.locate_points, meshmod._element_boxes

        def locate_counted(mesh, points, tol=1e-10):
            located.append(mesh)
            return locate(mesh, points, tol)

        def boxes_counted(mesh, tol):
            computed.append(mesh)
            return boxes(mesh, tol)

        monkeypatch.setattr(meshmod, "locate_points", locate_counted)
        monkeypatch.setattr(meshmod, "_element_boxes", boxes_counted)
        config = tiny_config(sensor_layout=layout)
        first = build_scenario(config)
        # the source, then the sensors, on the build's one mesh
        assert len(located) >= 2
        assert all(mesh is first.mesh for mesh in located)
        assert len(computed) == 1 and computed[0] is first.mesh
        # a second build makes its own mesh, and its own boxes
        second = build_scenario(config)
        assert len(computed) == 2 and computed[1] is second.mesh
        assert second.mesh is not first.mesh

    def test_the_report_and_the_first_model_share_one_operator(
            self, monkeypatch):
        formed = []
        form = fem.GlobalSystem.operator.func

        def form_counted(system):
            formed.append(system)
            return form(system)

        counted = functools.cached_property(form_counted)
        counted.__set_name__(fem.GlobalSystem, "operator")
        monkeypatch.setattr(fem.GlobalSystem, "operator", counted)
        scenario = build_scenario(tiny_config())
        scenario.provider.model_at(0)
        # M^-1 N of flow interval 0 is formed once, for the report, and
        # the provider's first model reads the kept one
        assert len(formed) == 1
        assert scenario.report._operator is formed[0].operator

    def test_file_flow(self, tmp_path):
        xs = np.array([-1.0, 5.0, 11.0])
        ys = np.array([-1.0, 11.0])
        ts = np.array([0.0, 1e6])
        shape = (2, 2, 3)
        flow = flowfield.GriddedFlow(xs, ys, ts,
                                     np.full(shape, 0.03), np.zeros(shape))
        path = tmp_path / "flow.txt"
        flowfield.save_gridded_flow(flow, path)
        scen = build_scenario(tiny_config(flow_kind="file",
                                          flow_file=str(path)))
        # one interval from t = 0 past the last step, under a uniform 0.03
        assert scen.provider.model_at(0) is scen.provider.model_at(9)
        np.testing.assert_allclose(
            scen.provider.model_at(0).transition.toarray(),
            _transition(scen, (0.03, 0.0)).toarray(), rtol=1e-12, atol=1e-15)


def _transition(scen, velocities):
    """The transition of ``scen``'s model under element ``velocities``."""
    system = fem.assemble(scen.mesh, velocities, scen.diffusivity_eff,
                          source=scen.config.source)
    return fem.build_model(system, scen.dt, scen.config.field_noise,
                           scen.config.strength_walk).transition


class TestFenceLayout:
    # sha256 of the written layout and of H's bytes for the desk fence (40
    # sensors on 20 x 20) and for the same fence on 30 x 30 around
    # (300, 400): a change to point location must reproduce every byte
    FENCE_DIGESTS = {
        "desk": ("bca32672f95d596aa8e4afcda8fe3356"
                 "49e62eacc18deaf81b68746004be74f1",
                 "377c5f64e13faf1cffa4152a0462cd13"
                 "8923bae370422211cd7404b3dc559d1c"),
        "30x30": ("e4f22e281694168880fa3b8f9d3ef5b5"
                  "d8b77da0c80aadf456027063427e1925",
                  "ffea12e21ca8ae68b1c1ea61d2b1f164"
                  "34883924e46c2cca9da09c287208ea3a"),
    }

    @pytest.mark.parametrize("name", sorted(FENCE_DIGESTS))
    def test_fence_layout_is_pinned(self, name, tmp_path):
        config = load_config(
            Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")
        if name == "30x30":
            config = dataclasses.replace(config, nx=30, ny=30,
                                         source=(300.0, 400.0), dt=None)
        network = build_scenario(config).network
        sensing.save_sensor_layout(network, tmp_path / "sensors.txt")
        digests = (
            hashlib.sha256((tmp_path / "sensors.txt").read_bytes()).hexdigest(),
            hashlib.sha256(network.H.tobytes()).hexdigest(),
        )
        assert digests == self.FENCE_DIGESTS[name]


class TestSeeding:
    def test_trial_rng_reproducible_and_separated(self):
        config = tiny_config()
        a = _trial_rng(config, STREAM_TRUTH, 0).random(4)
        b = _trial_rng(config, STREAM_TRUTH, 0).random(4)
        np.testing.assert_array_equal(a, b)
        streams = [STREAM_SENSORS, STREAM_TRUTH, STREAM_RBPF, STREAM_ENKF]
        draws = [_trial_rng(config, s, 0).random() for s in streams]
        assert len(set(draws)) == len(streams)
        assert _trial_rng(config, STREAM_TRUTH, 1).random() != a[0]


class TestGroundTruth:
    def test_shapes_and_constant_strength(self):
        config = tiny_config(strength=2.5)
        scen = build_scenario(config)
        states, readings = simulate_ground_truth(
            scen, _trial_rng(config, STREAM_TRUTH, 0)
        )
        obs = readings.values
        assert states.shape == (config.steps + 1, scen.state_dim)
        np.testing.assert_array_equal(states[:, -1], 2.5)
        assert len(obs) == config.steps
        assert all(o.shape == (5,) for o in obs)

    def test_trial_draws_from_its_truth_stream(self):
        config = tiny_config()
        s1, o1 = simulate_trial(build_scenario(config), 0)
        s2, o2 = simulate_ground_truth(
            build_scenario(config), _trial_rng(config, STREAM_TRUTH, 0)
        )
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(o1.values, o2.values)
        np.testing.assert_array_equal(o1.detections, o2.detections)

    def test_draw_observation_detection_limits(self):
        scen = build_scenario(tiny_config())
        state = np.zeros(scen.state_dim)
        state[:-1] = 3.0
        net = scen.network
        always = sensing.SensorNetwork.build(
            scen.mesh, net.positions, noise_var=1e-12, detect_rate=1.0,
            scale=8.0, levels=64,
        )
        ob = draw_observation(always, state, np.random.default_rng(0))
        np.testing.assert_array_equal(ob.detections, 1.0)
        np.testing.assert_array_equal(ob.values, always.quantise(ob.raw))
        assert (np.abs(ob.raw - 3.0) < 1e-3).all()
        never = sensing.SensorNetwork.build(
            scen.mesh, net.positions, noise_var=1e-12, detect_rate=0.0,
            scale=8.0, levels=64,
        )
        ob = draw_observation(never, state, np.random.default_rng(0))
        np.testing.assert_array_equal(ob.detections, 0.0)
        assert (np.abs(ob.raw) < 1e-3).all()


class TestModelProvider:
    def test_analytic_flow_uses_single_model(self):
        scen = build_scenario(tiny_config())
        assert scen.provider.model_at(0) is scen.provider.model_at(7)
        assert scen.provider.interval_index(1000) == 0

    def test_gridded_flow_switches_models(self, tmp_path):
        scen = build_scenario(gridded_config(tmp_path))
        provider = scen.provider
        assert provider.interval_index(0) == 0   # t = 0.0
        assert provider.interval_index(1) == 0   # t = 1.5
        assert provider.interval_index(2) == 1   # t = 3.0
        early, late = provider.model_at(0), provider.model_at(2)
        assert early is provider.model_at(1)
        assert late is not early
        diff = early.transition - late.transition
        assert abs(diff).max() > 0.0


    def test_each_flow_sample_is_evaluated_once(self, tmp_path, monkeypatch):
        calls = []
        evaluate = flowfield.element_velocities

        def counted(flow, mesh):
            calls.append(flow.sample_times)
            return evaluate(flow, mesh)

        monkeypatch.setattr(flowfield, "element_velocities", counted)
        scen = build_scenario(gridded_config(tmp_path))
        for k in range(scen.config.steps):
            scen.provider.model_at(k)
        assert calls == [(0.0, 2.0, 1e6)]

    def test_the_source_is_located_once_per_mesh(self, tmp_path,
                                                 monkeypatch):
        # five flow intervals, each with its own model
        ts = np.arange(6) * 2.0
        u = np.linspace(0.01, 0.06, 6)[:, None, None] * np.ones((6, 2, 2))
        flowfield.save_gridded_flow(flowfield.GriddedFlow(
            np.array([-1.0, 11.0]), np.array([-1.0, 11.0]), ts, u,
            np.zeros_like(u)), tmp_path / "flow.txt")
        config = tiny_config(flow_kind="file",
                             flow_file=str(tmp_path / "flow.txt"),
                             dt=1.0, steps=10, sensor_layout="fence")
        located = []
        locate = meshmod.locate_points

        def counted(mesh, points, tol=1e-10):
            located.append(np.array(points, dtype=float))
            return locate(mesh, points, tol)

        assembled = []
        assemble = fem.assemble

        def assembled_counted(*args, **kwargs):
            assembled.append(kwargs.get("source"))
            return assemble(*args, **kwargs)

        # fem and sensing call the function through its module, so this one
        # patch sees the source location and the fence placement
        monkeypatch.setattr(meshmod, "locate_points", counted)
        monkeypatch.setattr(fem, "assemble", assembled_counted)
        scen = build_scenario(config)
        models = {id(scen.provider.model_at(k)) for k in range(config.steps)}
        assert len(models) == 5
        source = [list(config.source)]
        assert sum(np.array_equal(points, source) for points in located) == 1
        # the fence is located once, for its check and the operator alike
        assert sum(np.array_equal(points, scen.network.positions)
                   for points in located) == 1
        # one system per flow interval: the stability report reads the
        # first interval's, which its model is then built from
        assert len(assembled) == 5


class TestTrials:
    def test_run_trial_reproducible(self):
        config = tiny_config(trials=1)
        (a,) = run_trials(config)
        (b,) = run_trials(config)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.truth, b.truth)
        np.testing.assert_array_equal(a.errors, b.errors)
        assert a.aee_contribution == pytest.approx(a.errors.mean())
        assert a.estimates.shape == (config.steps, 26)
        np.testing.assert_array_equal(a.strengths, a.estimates[:, -1])
        assert a.steps == config.steps

    def test_estimators_share_truth_but_differ(self):
        base = tiny_config(trials=1)
        (r,) = run_trials(base)
        (e,) = run_trials(dataclasses.replace(base, estimator="enkf"))
        np.testing.assert_array_equal(r.truth, e.truth)
        assert not np.array_equal(r.estimates, e.estimates)

    def test_zero_steps_are_refused(self):
        # zero steps would simulate and estimate nothing and report an AEE
        with pytest.raises(ValueError, match="step count"):
            run_trials(ScenarioConfig(steps=0, trials=1))

    def test_observation_override_length_checked(self):
        config = tiny_config(trials=1)
        with pytest.raises(ValueError, match="observation log"):
            run_trials(config, observations={0: [np.zeros(5)] * 2})

    @pytest.mark.parametrize("threads", [1, 2])
    def test_observation_override_sensor_count_checked_before_a_fork(
            self, threads, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("forked for a log of the wrong shape")

        monkeypatch.setattr(experiment, "_forked", refuse)
        config = tiny_config(trials=2)
        logs = {0: np.zeros((config.steps, 5)),
                1: np.zeros((config.steps, 6))}
        with pytest.raises(ValueError, match=r"trial 1 has shape \(3, 6\), "
                                             r"config expects \(3, 5\)"):
            run_trials(config, threads, observations=logs)

    def test_observation_override_used(self):
        config = tiny_config(trials=1)
        scen = build_scenario(config)
        _, obs = simulate_ground_truth(scen, _trial_rng(config, STREAM_TRUTH, 0))
        arrays = obs.values
        (direct,) = run_trials(config)
        (replayed,) = run_trials(config, observations={0: arrays})
        np.testing.assert_array_equal(direct.estimates, replayed.estimates)

    def test_run_trials_ordering_and_parallel_equivalence(self):
        # three trials over two workers, and four over two and over three,
        # whose batches are unequal
        cases = [(3, 2, "rbpf")] + [
            (4, threads, estimator) for threads in (2, 3)
            for estimator in ("rbpf", "enkf")]
        for trials, threads, estimator in cases:
            config = tiny_config(trials=trials, estimator=estimator)
            serial = run_trials(config)
            assert [r.trial for r in serial] == list(range(trials))
            parallel = run_trials(config, threads=threads)
            assert [r.trial for r in parallel] == list(range(trials))
            for s, p in zip(serial, parallel):
                assert s.estimates.tobytes() == p.estimates.tobytes()
                assert s.truth.tobytes() == p.truth.tobytes()

    def test_run_trials_opens_no_more_workers_than_trials(self, monkeypatch):
        forked, opened = experiment._forked, []

        def counted(*args):
            opened.append(args[0])
            return forked(*args)

        config = tiny_config(trials=2)
        serial = run_trials(config)
        monkeypatch.setattr(experiment, "_forked", counted)
        pooled = run_trials(config, threads=8)
        # the workers fork their schedule processes, which this one never sees
        assert opened == ["trial-batch"] * 2
        assert [r.trial for r in pooled] == [0, 1]
        for s, p in zip(serial, pooled):
            assert s.estimates.tobytes() == p.estimates.tobytes()

    def test_run_trials_replays_observation_logs(self):
        config = tiny_config(trials=2)
        direct = run_trials(config)
        logs = {r.trial: None for r in direct}
        scen = build_scenario(config)
        for trial in logs:
            _, obs = simulate_ground_truth(
                scen, _trial_rng(config, STREAM_TRUTH, trial))
            logs[trial] = obs.values
        for threads in (1, 2):
            replayed = run_trials(config, threads, observations=logs)
            for d, r in zip(direct, replayed):
                np.testing.assert_array_equal(d.estimates, r.estimates)
        with pytest.raises(ValueError):
            run_trials(config, threads=0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_run_trials_refuses_no_threads_before_any_work(self, threads,
                                                           monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a scenario for no workers")

        monkeypatch.setattr(experiment, "build_scenario", refuse)
        with pytest.raises(ValueError, match="threads"):
            run_trials(tiny_config(), threads=threads)

    def test_streamed_trials_equal_run_filter_over_the_kept_schedule(
            self, tmp_path):
        # step k of the stream must meet model k: every step has its own
        config = per_step_flow_config(tmp_path, trials=3)
        streamed = run_trials(config)
        scenario = build_scenario(config)
        models = [scenario.provider.model_at(k) for k in range(config.steps)]
        assert len({id(model) for model in models}) == config.steps
        assert [r.trial for r in streamed] == [0, 1, 2]
        schedule = list(scenario.gain_schedule())
        for result in streamed:
            truth, readings = simulate_trial(scenario, result.trial)
            observations = readings.values
            estimates = experiment.run_filter(
                scenario, observations,
                _trial_rng(config, STREAM_RBPF, result.trial))
            assert result.estimates.tobytes() == estimates.tobytes()
            assert result.truth.tobytes() == truth[1:].tobytes()
            # the same steps spelled out, model k with schedule step k
            state = filters.rbpf_init(
                models[0], scenario.network, config.size,
                _trial_rng(config, STREAM_RBPF, result.trial))
            for k, obs in enumerate(observations):
                state, estimate = filters.rbpf_step(state, obs, models[k],
                                                    schedule[k])
                assert result.estimates[k].tobytes() == estimate.tobytes()

    def test_run_trials_never_holds_the_whole_schedule(self):
        config = ScenarioConfig(trials=1)
        # fill the per-pattern caches the first run on a mesh leaves
        run_trials(dataclasses.replace(config, steps=1))
        tracemalloc.start()
        try:
            (result,) = run_trials(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = (result.truth.base.nbytes + result.estimates.nbytes
                    + result.errors.nbytes)
        n = result.estimates.shape[1]
        gains = config.steps * config.sensor_count * n * 8
        assert peak - returned < 8 * n ** 2 + gains / 4

    # one process builds one schedule; two workers build one per batch,
    # in the workers, and the parent builds none
    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_trials_builds_one_schedule(self, threads, monkeypatch,
                                            tmp_path):
        calls = tmp_path / "calls.txt"
        build = filters.gain_schedule

        def counted(*args, **kwargs):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(*args, **kwargs)

        monkeypatch.setattr(filters, "gain_schedule", counted)
        results = run_trials(tiny_config(trials=3), threads=threads)
        assert len(results) == 3
        builders = calls.read_text().split()
        if threads == 1:
            assert builders == [str(os.getpid())]
        else:
            assert len(builders) == threads
            assert str(os.getpid()) not in builders
        assert results.runtime_schedule > 0.0

    def test_enkf_builds_no_schedule(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the ensemble filter built a gain schedule")

        monkeypatch.setattr(filters, "gain_schedule", refuse)
        assert len(run_trials(tiny_config(estimator="enkf", trials=1))) == 1

    @pytest.mark.parametrize("estimator", ["rbpf", "enkf"])
    def test_run_filter_refuses_a_log_beyond_the_horizon(self, estimator):
        config = tiny_config(estimator=estimator, trials=1)
        scenario = build_scenario(config)
        observations = simulate_trial(scenario, 0)[1].values
        stream = STREAM_RBPF if estimator == "rbpf" else STREAM_ENKF
        rng = _trial_rng(config, stream, 0)
        with pytest.raises(ValueError, match="horizon"):
            run_filter(scenario, np.concatenate([observations,
                                                 observations[:1]]), rng)
        estimates = run_filter(scenario, observations, rng)
        assert estimates.shape == (config.steps, scenario.state_dim)

    @pytest.mark.parametrize("estimator", ["rbpf", "enkf"])
    def test_the_loop_calls_the_traced_step_functions(self, estimator,
                                                      monkeypatch):
        # a tracer wraps the module attributes in place, so the loop must
        # look the step functions up when it runs
        calls = {"rbpf": 0, "enkf": 0}
        for kind in calls:
            step = getattr(filters, f"{kind}_step")

            def counted(*args, _kind=kind, _step=step):
                calls[_kind] += 1
                return _step(*args)

            monkeypatch.setattr(filters, f"{kind}_step", counted)
        config = tiny_config(estimator=estimator, trials=2, steps=3)
        assert len(run_trials(config, threads=1)) == 2
        assert calls[estimator] == config.trials * config.steps
        assert sum(calls.values()) == calls[estimator]

    @pytest.mark.parametrize("estimator", ["rbpf", "enkf"])
    def test_models_hold_no_dense_matrices(self, estimator, monkeypatch,
                                           tmp_path):
        scenarios = []

        def kept(config):
            scenarios.append(build_scenario(config))
            return scenarios[-1]

        monkeypatch.setattr(experiment, "build_scenario", kept)
        run_trials(gridded_config(tmp_path, estimator=estimator, trials=1))
        models = list(scenarios[0].provider._cache.values())
        assert len(models) == 2
        for model in models:
            for name, value in vars(model).items():
                dense = isinstance(value, np.ndarray) and value.ndim == 2
                assert not dense, name

    def test_compute_aee_validation(self):
        with pytest.raises(ValueError, match="no trial"):
            compute_aee([])
        results = run_trials(tiny_config(trials=2))
        short = run_trials(tiny_config(steps=2, trials=1))
        with pytest.raises(ValueError, match="mismatched"):
            compute_aee(results + short)
        expected = np.mean([r.aee_contribution for r in results])
        assert compute_aee(results) == pytest.approx(expected)


@contextlib.contextmanager
def within(seconds: float):
    """Fail with ``TimeoutError`` if the block is still running after
    ``seconds``: a read from a process that never answers would hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def failing_at_call(count: int, fail):
    """``filters._condition_lower`` that runs ``fail`` at its ``count``-th
    call, the schedule's step ``count``, and then conditions as before."""
    condition, calls = filters._condition_lower, []

    def wrapped(*args):
        calls.append(None)
        if len(calls) == count:
            fail()
        return condition(*args)
    return wrapped


class TestScheduleProcess:
    """The particle filter's schedule, computed in a forked child process."""

    def test_streamed_steps_keep_the_gain_layout(self):
        scenario = build_scenario(tiny_config(steps=4))
        kept = list(scenario.gain_schedule())
        with experiment._schedule_stream(scenario) as stream:
            streamed = list(stream)
        assert len(streamed) == len(kept)
        for step, expected in zip(streamed, kept):
            # rbpf_step's products follow the layout LAPACK gives the gain
            assert expected.gain_t.flags.f_contiguous
            assert step.gain_t.flags.f_contiguous
            assert step.gain_t.T.tobytes() == expected.gain_t.T.tobytes()
            assert (step.innovation_var.tobytes()
                    == expected.innovation_var.tobytes())
            assert step.cov is None

    def test_no_process_outlives_the_loop(self):
        config = tiny_config(steps=5)
        with within(20):
            assert len(run_trials(config)) == config.trials
        assert multiprocessing.active_children() == []
        scenario = build_scenario(config)
        observations = list(simulate_trial(scenario, 0)[1].values)
        observations[3] = np.zeros(scenario.network.count + 1)
        with within(20), pytest.raises(ValueError, match="observation"):
            run_filter(scenario, observations,
                       _trial_rng(config, STREAM_RBPF, 0))
        assert multiprocessing.active_children() == []

    def test_a_dropped_stream_ends_its_process(self):
        # 48 desk steps of 142 KB fill the 1 MiB pipe, so the child is still
        # sending when the reader stops; it ends at its next write, well
        # before it would be terminated
        scenario = build_scenario(ScenarioConfig(trials=1))
        start = time.perf_counter()
        with within(20), experiment._schedule_stream(scenario) as stream:
            next(stream)
            next(stream)
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - start < experiment._PRODUCER_GRACE

    def test_a_schedule_error_is_raised_as_the_child_raised_it(
            self, monkeypatch):
        def boom():
            raise filters.FilterError("boom")

        monkeypatch.setattr(filters, "_condition_lower",
                            failing_at_call(4, boom))
        steps = []
        rbpf_step = filters.rbpf_step
        monkeypatch.setattr(filters, "rbpf_step",
                            lambda *args: steps.append(None) or rbpf_step(*args))
        config = tiny_config(steps=6)
        with within(20), pytest.raises(filters.FilterError, match="boom"):
            run_trials(config)
        # raised where step 4 was read, after every trial took steps 1-3
        assert len(steps) == 3 * config.trials
        assert multiprocessing.active_children() == []

    def test_a_worker_error_is_raised_as_the_worker_raised_it(
            self, monkeypatch):
        def boom():
            raise filters.FilterError("boom")

        run_batch = experiment._run_batch

        def second_fails(scenario, indices, logs):
            if indices[0]:
                # in the second worker, whose schedule process, forked
                # next, fails at step 4
                filters._condition_lower = failing_at_call(4, boom)
            return run_batch(scenario, indices, logs)

        monkeypatch.setattr(experiment, "_run_batch", second_fails)
        with within(20), pytest.raises(filters.FilterError) as raised:
            run_trials(tiny_config(steps=6, trials=4), threads=2)
        assert type(raised.value) is filters.FilterError
        assert str(raised.value) == "boom"
        assert_no_child_left()

    def test_a_child_that_dies_is_named_by_its_exit_code(self, monkeypatch):
        parent = os.getpid()

        def die():
            if os.getpid() != parent:
                os._exit(3)

        monkeypatch.setattr(filters, "_condition_lower",
                            failing_at_call(3, die))
        with within(20), pytest.raises(RuntimeError, match="exit code 3"):
            run_trials(tiny_config(steps=6))
        assert multiprocessing.active_children() == []

    def test_run_trials_holds_no_covariance(self):
        config = ScenarioConfig(trials=1)
        # fill the per-pattern caches the first run on a mesh leaves
        run_trials(dataclasses.replace(config, steps=1))
        tracemalloc.start()
        try:
            (result,) = run_trials(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = (result.truth.base.nbytes + result.estimates.nbytes
                    + result.errors.nbytes)
        n = result.estimates.shape[1]
        # less than one n x n covariance: the child holds it.  Here stay the
        # scenario (0.47 MB on desk), the particle arrays and one step's
        # frame, 1.16 MB in all
        assert peak - returned < 8 * n ** 2


@pytest.fixture(scope="module")
def desk_enkf():
    """The desk scenario under the ensemble filter and trial 0's log."""
    scenario = build_scenario(ScenarioConfig(estimator="enkf", trials=1))
    return scenario, simulate_trial(scenario, 0)[1].values


# what the benchmark tracer wraps: every function in these modules'
# __all__, these methods and this private function
TRACED_MODULES = (meshmod, fem, flowfield, sensing, filters, experiment)
TRACED_METHODS = (
    (sensing.SensorNetwork, "build"),
    (sensing.SensorNetwork, "log_likelihood"),
    (sensing.SensorNetwork, "quantise"),
    (ModelProvider, "model_at"),
    (fem.DispersionModel, "augmented_transition"),
)


class TestEnsembleDrawsAhead:
    """The ensemble filter's draws, filled a step ahead on a worker thread."""

    @pytest.mark.parametrize("size", [30, 1000])
    def test_run_filter_equals_steps_that_draw_inline(self, desk_enkf, size):
        scenario, observations = desk_enkf
        config = dataclasses.replace(scenario.config, size=size)
        scenario = dataclasses.replace(scenario, config=config)
        log = observations[:4]
        rng = _trial_rng(config, STREAM_ENKF, 0)
        # switch threads as often as the interpreter allows, so that a draw
        # racing the main thread would show in the bytes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            estimates = run_filter(scenario, log, rng)
        finally:
            sys.setswitchinterval(interval)
        inline = _trial_rng(config, STREAM_ENKF, 0)
        state = filters.enkf_init(scenario.provider.model_at(0),
                                  scenario.network, size, inline,
                                  cov=config.init_cov)
        for k, obs in enumerate(log):
            state, estimate = filters.enkf_step(
                state, obs, scenario.provider.model_at(k))
            assert estimates[k].tobytes() == estimate.tobytes()
        # nothing is drawn past the last step
        assert rng.bit_generator.state == inline.bit_generator.state

    def test_no_thread_outlives_the_loop(self):
        before = threading.active_count()
        config = tiny_config(estimator="enkf", steps=5)
        assert len(run_trials(config)) == config.trials
        assert threading.active_count() == before
        scenario = build_scenario(config)
        observations = list(simulate_trial(scenario, 0)[1].values)
        observations[3] = np.zeros(scenario.network.count + 1)
        with pytest.raises(ValueError, match="observation"):
            run_filter(scenario, observations,
                       _trial_rng(config, STREAM_ENKF, 0))
        assert threading.active_count() == before

    @pytest.mark.parametrize("estimator", ["rbpf", "enkf"])
    def test_the_worker_calls_no_traced_function(self, estimator,
                                                 monkeypatch):
        # the tracer keeps one span stack, which only the main thread may
        # touch; the step's wrapper also counts the threads it runs beside
        callers, beside = set(), []

        def recorded(fn):
            def wrapper(*args, **kwargs):
                callers.add(threading.get_ident())
                if fn.__name__ in ("rbpf_step", "enkf_step"):
                    beside.append(threading.active_count())
                return fn(*args, **kwargs)
            return wrapper

        for module in TRACED_MODULES:
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    monkeypatch.setattr(module, name, recorded(fn))
        monkeypatch.setattr(experiment, "_build_flow",
                            recorded(experiment._build_flow))
        for cls, name in TRACED_METHODS:
            raw = inspect.getattr_static(cls, name)
            monkeypatch.setattr(cls, name, classmethod(recorded(raw.__func__))
                                if isinstance(raw, classmethod)
                                else recorded(raw))
        before = threading.active_count()
        config = tiny_config(estimator=estimator, trials=1, steps=3)
        assert len(run_trials(config, threads=1)) == 1
        assert callers == {threading.get_ident()}
        assert len(beside) == config.steps
        # only the ensemble filter starts a thread, and it ends with the run
        assert max(beside) == before + (estimator == "enkf")
        assert threading.active_count() == before

    def test_run_filter_holds_one_step_of_draws_ahead(self, desk_enkf):
        scenario, observations = desk_enkf
        config = dataclasses.replace(scenario.config, size=1000)
        scenario = dataclasses.replace(scenario, config=config)
        rng = _trial_rng(config, STREAM_ENKF, 0)
        run_filter(scenario, observations[:1], rng)    # fill the caches
        tracemalloc.start()
        try:
            estimates = run_filter(scenario, observations[:6], rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ensemble = config.size * scenario.state_dim * 8
        draws = config.size * (scenario.state_dim
                               + scenario.network.count) * 8
        # with the draws taken inline, the peak was 3.57 ensembles (12.6 MB);
        # the worker adds the next step's draws, and a quarter ensemble
        # (0.9 MB) is left for slack, well short of another step's draws
        assert peak - estimates.nbytes <= 3.57 * ensemble + draws + ensemble / 4


@pytest.fixture(scope="module")
def run():
    config = tiny_config(trials=2)
    return config, run_trials(config)


class TestOutputs:

    def test_results_csv_deterministic_bytes(self, run, tmp_path):
        config, results = run
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(results, p1, config)
        write_results_csv(results, p2, config)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == f"# config {config.scenario_hash()}"
        assert lines[1] == "trial,step,error,strength"
        assert len(lines) == 2 + config.trials * config.steps
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert float(first[2]) == results[0].errors[0]

    def test_summary_json(self, run, tmp_path):
        config, results = run
        path = tmp_path / "summary.json"
        doc = write_summary_json(results, path, config)
        loaded = json.loads(path.read_text())
        assert loaded == doc
        assert doc["aee"] == compute_aee(results)
        assert doc["estimator"] == "rbpf"
        assert doc["trials"] == 2 and doc["steps"] == config.steps
        assert doc["config_hash"] == config.scenario_hash()
        assert doc["trial_seeds"] == [[11, STREAM_RBPF, 0], [11, STREAM_RBPF, 1]]
        assert len(doc["per_step_error_mean"]) == config.steps
        assert doc["runtime_total"] == pytest.approx(
            sum(r.runtime for r in results)
        )
        assert doc["runtime_schedule"] == results.runtime_schedule > 0.0
        plain = write_summary_json(list(results), path, config)
        assert plain["runtime_schedule"] == 0.0

    def test_truth_csv_stride(self, run, tmp_path):
        config, results = run
        config = dataclasses.replace(config, node_stride=7)
        trajectories = {}
        for r in results:
            states = np.vstack([np.zeros(26), r.truth])
            trajectories[r.trial] = states
        path = tmp_path / "truth.csv"
        write_truth_csv(trajectories, path, config)
        lines = path.read_text().splitlines()
        kept = len(range(0, 25, 7))
        assert lines[1] == "trial,step," + ",".join(
            f"c_{i}" for i in range(0, 25, 7)
        ) + ",strength"
        assert all(len(l.split(",")) == kept + 3 for l in lines[1:])
        assert len(lines) == 2 + config.trials * (config.steps + 1)

    # sha256 of each file the tiny run writes, its sensor layout and a
    # small gridded flow with one land cell: a change to a writer must
    # reproduce every byte
    WRITTEN_DIGESTS = {
        "truth.csv": "0993829092675e79e263a03320bfd7ec"
                     "f49a56fdb6e304f09317269fd2d3444a",
        "truth_stride7.csv": "bf39b32086a190db0785b0b39a4bc817"
                             "9b8df073ff562a78dd1a803a2abf6474",
        "observations.csv": "b5b3ebdbfb1370517776a5e97b1e8dc9"
                            "6211697ad15e6ac434e0167282fd7c7b",
        "estimates_rbpf.csv": "e5613c97d766d817151ab099fe2ce86e"
                              "2aeba8b3416b0aa0546da7fcbff9dcaf",
        "estimates_enkf.csv": "b68d3cc9e900fe5643c5def840328e3d"
                              "2f8393259ed510162d34f1554774af45",
        "sensors.txt": "99a6e54d470f2aa191f733846de8966a"
                       "887dcdce62b59f65f937b531c6fded5e",
        "flow.txt": "407f36aabcc53e7ca25998ee4a759520"
                    "9a787c25167ca3f41e723fd98e8b0ed5",
    }

    def test_written_bytes_are_pinned(self, run, tmp_path):
        config, results = run
        scen = build_scenario(config)
        trajectories, logs = {}, {}
        for trial in range(config.trials):
            trajectories[trial], readings = simulate_trial(scen, trial)
            logs[trial] = readings.values
        write_truth_csv(trajectories, tmp_path / "truth.csv", config)
        write_truth_csv(trajectories, tmp_path / "truth_stride7.csv",
                        dataclasses.replace(config, node_stride=7))
        write_observations_csv(logs, tmp_path / "observations.csv", config)
        write_results_csv(results, tmp_path / "estimates_rbpf.csv", config)
        enkf = dataclasses.replace(config, estimator="enkf")
        write_results_csv(run_trials(enkf), tmp_path / "estimates_enkf.csv",
                          enkf)
        sensing.save_sensor_layout(scen.network, tmp_path / "sensors.txt")
        rng = np.random.default_rng(5)
        u, v = rng.normal(0.0, 0.1, (2, 2, 3, 4))
        u[1, 2, 0] = np.nan                  # one land cell
        flowfield.save_gridded_flow(flowfield.GriddedFlow(
            np.array([-1.0, 2.9, 7.1, 11.0]), np.array([-1.0, 4.5, 11.0]),
            np.array([0.0, 7.3]), u, v), tmp_path / "flow.txt")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in self.WRITTEN_DIGESTS}
        assert digests == self.WRITTEN_DIGESTS

    # sha256 of each file a 2-trial tiny run writes under a seeded
    # time-varying gridded flow with one land cell, artificial diffusivity
    # on and an explicit stable step: the flow reader, the per-sample
    # element velocities and the per-interval models, end to end
    GRIDDED_DIGESTS = {
        "truth.csv": "c50c7d9a6bcc5cd9c4cb805b140f9944"
                     "bea3f1f829b4a246c44274f5c08067ef",
        "observations.csv": "49e4de91b20a4d384fd0b1ea803b52ee"
                            "2b62fb5a944ab975861974e3ff3b5fa1",
        "estimates_rbpf.csv": "33698f8876e5156f6543468cca4014de"
                              "cf04f5903d385507994f01f0f0112ebf",
        "estimates_enkf.csv": "ad8696b546c16169fe218d819993c44d"
                              "c5b17821fcde29660c33d9d0ef59f45d",
    }

    def test_gridded_flow_run_bytes_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)      # the config names the flow file
        rng = np.random.default_rng(21)
        u, v = rng.normal(0.02, 0.05, (2, 3, 3, 4))
        u[1, 1, 2] = v[1, 1, 2] = np.nan     # one land cell
        flowfield.save_gridded_flow(flowfield.GriddedFlow(
            np.array([-1.0, 3.0, 7.5, 11.0]), np.array([-1.0, 5.0, 11.0]),
            np.array([0.0, 2.5, 7.0]), u, v), "flow.txt")
        config = tiny_config(flow_kind="file", flow_file="flow.txt",
                             auto_stabilise=True, dt=1.5, steps=4, trials=2)
        scen = build_scenario(config)
        trajectories, logs = {}, {}
        for trial in range(config.trials):
            trajectories[trial], readings = simulate_trial(scen, trial)
            logs[trial] = readings.values
        write_truth_csv(trajectories, "truth.csv", config)
        write_observations_csv(logs, "observations.csv", config)
        for estimator in ("rbpf", "enkf"):
            cfg = dataclasses.replace(config, estimator=estimator)
            write_results_csv(run_trials(cfg), f"estimates_{estimator}.csv",
                              cfg)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in self.GRIDDED_DIGESTS}
        assert digests == self.GRIDDED_DIGESTS

    # sha256 of estimates_rbpf.csv from the desk config at 1000 particles,
    # one trial of 8 steps: the likelihood kernel, the latent density and
    # the weights at the population size of the benchmark's particles run
    DESK_PARTICLES_DIGEST = ("d5e164b98f880796eff5bb165c55c0b4"
                             "c42a8eb283e4f0f82343a4cd33fbb751")

    def test_desk_run_at_1000_particles_is_pinned(self, tmp_path):
        config = dataclasses.replace(
            load_config(Path(__file__).resolve().parents[1] / "configs"
                        / "desk.cfg"), size=1000, trials=1, steps=8)
        path = tmp_path / "estimates_rbpf.csv"
        write_results_csv(run_trials(config), path, config)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == self.DESK_PARTICLES_DIGEST)

    def test_truth_csv_rejects_bad_trajectories(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "truth.csv"
        with pytest.raises(ValueError, match="no trajectories"):
            write_truth_csv({}, path, config)
        with pytest.raises(ValueError, match="trial 1 .* 8 columns.* 5"):
            write_truth_csv({0: np.zeros((3, 5)), 1: np.zeros((3, 8))},
                            path, config)
        with pytest.raises(ValueError,
                           match=r"trial 0 must be a \(steps, nodes \+ 1\)"):
            write_truth_csv({0: np.zeros(5)}, path, config)

    def test_observations_csv_rejects_an_empty_log(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "observations.csv"
        with pytest.raises(ValueError, match="no observation logs"):
            write_observations_csv({}, path, config)
        with pytest.raises(ValueError, match="trial 1 .* no steps"):
            write_observations_csv({0: np.zeros((1, 2)), 1: []}, path,
                                   config)

    @staticmethod
    def observations(*steps):
        """A trial's log, one step of the given values each."""
        return np.array(steps, dtype=float)

    # each log below was written without complaint, and then refused by
    # load_observations_csv with the message in the comment
    def test_observations_csv_rejects_trials_of_unequal_length(self,
                                                               tmp_path):
        # "no value for trial 1, step 3"
        logs = {0: self.observations([1.0, 2.0], [1.0, 2.0], [1.0, 2.0]),
                1: self.observations([1.0, 2.0], [1.0, 2.0])}
        with pytest.raises(ValueError, match="trial 1 has 2 steps, but "
                                             "trial 0 has 3"):
            write_observations_csv(logs, tmp_path / "obs.csv", tiny_config())

    def test_observations_csv_rejects_a_step_with_fewer_sensors(self,
                                                                tmp_path):
        # "no value for trial 0, step 2, sensor 2"; a ragged list, which
        # numpy cannot make a (steps, sensors) array of
        logs = {0: [[1.0, 2.0, 3.0], [1.0, 2.0]]}
        with pytest.raises(ValueError, match=r"trial 0 is not a \(steps, "
                                             r"sensors\) array"):
            write_observations_csv(logs, tmp_path / "obs.csv", tiny_config())

    def test_observations_csv_rejects_a_trial_with_another_sensor_count(
            self, tmp_path):
        # "no value for trial 1, step 1, sensor 2"
        logs = {0: self.observations([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
                1: self.observations([1.0, 2.0], [1.0, 2.0])}
        with pytest.raises(ValueError, match="trial 1 holds 2 values at "
                                             "step 1, but trial 0 holds 3"):
            write_observations_csv(logs, tmp_path / "obs.csv", tiny_config())
        with pytest.raises(ValueError, match=r"trial 0 holds values of shape "
                                             r"\(\) at step 1"):
            write_observations_csv({0: np.zeros(3)}, tmp_path / "obs.csv",
                                   tiny_config())

    def test_observations_csv_rejects_a_gap_in_the_trials(self, tmp_path):
        # "no value for trial 1"
        logs = {0: self.observations([1.0]), 2: self.observations([1.0])}
        with pytest.raises(ValueError, match="no observation log for "
                                             "trial 1"):
            write_observations_csv(logs, tmp_path / "obs.csv", tiny_config())

    # "bad row '1,2,1,nan'" and the like
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_observations_csv_rejects_a_non_finite_value(self, value,
                                                         tmp_path):
        logs = {0: self.observations([1.0, 2.0], [1.0, 2.0]),
                1: self.observations([1.0, 2.0], [1.0, value])}
        path = tmp_path / "obs.csv"
        with pytest.raises(ValueError, match=f"trial 1 holds {value} at "
                                             f"step 2, sensor 1: values must "
                                             f"be finite"):
            write_observations_csv(logs, path, tiny_config())
        assert not path.exists()

    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                           st.integers(1, 4)),
           data=st.data())
    def test_observations_csv_matches_the_per_reading_form(
            self, shape, data, tmp_path_factory):
        """One text per distinct value, spread back to its readings, gives
        the bytes of ``"%d,%d,%d,%.17g"`` per reading; repeated levels and
        both signed zeros included."""
        pool = [0.0, -0.0, *level_values(8.0, 5), 5e-324, -1e308]
        trials, steps, sensors = shape
        finite = st.floats(allow_nan=False, allow_infinity=False)
        logs = {t: self.observations(*[
            data.draw(st.lists(st.sampled_from(pool) | finite,
                               min_size=sensors, max_size=sensors))
            for _ in range(steps)]) for t in range(trials)}
        path = tmp_path_factory.mktemp("obs") / "obs.csv"
        config = tiny_config()
        write_observations_csv(logs, path, config)
        assert path.read_text() == (f"# config {config.scenario_hash()}\n"
                                    "trial,step,sensor,value\n"
                                    + reference_observation_rows(logs))

    def test_observations_csv_keeps_both_signed_zeros(self, tmp_path):
        logs = {0: self.observations([0.0, -0.0, 0.0, -0.0, 1.5, 1.5])}
        write_observations_csv(logs, tmp_path / "obs.csv", tiny_config())
        rows = (tmp_path / "obs.csv").read_text().splitlines()[2:]
        assert [row.split(",")[3] for row in rows] == [
            "0", "-0", "0", "-0", "1.5", "1.5"]
        assert "".join(f"{row}\n" for row in rows) == \
            reference_observation_rows(logs)

    def test_observations_round_trip(self, tmp_path):
        config = tiny_config(trials=2)
        scen = build_scenario(config)
        logs = {}
        for trial in range(config.trials):
            _, obs = simulate_ground_truth(
                scen, _trial_rng(config, STREAM_TRUTH, trial)
            )
            logs[trial] = obs.values
        path = tmp_path / "observations.csv"
        write_observations_csv(logs, path, config)
        got_hash, arrays = load_observations_csv(path)
        assert got_hash == config.scenario_hash()
        assert sorted(arrays) == [0, 1]
        for trial, obs in logs.items():
            np.testing.assert_array_equal(arrays[trial], obs)

    def test_observations_csv_writes_back_what_it_reads(
            self, observation_file, tmp_path):
        config_hash, logs = load_observations_csv(observation_file)
        config = tiny_config(trials=2)
        assert config_hash == config.scenario_hash()
        path = tmp_path / "again.csv"
        write_observations_csv(logs, path, config)
        assert path.read_bytes() == observation_file.read_bytes()

    @pytest.fixture
    def observation_file(self, tmp_path):
        config = tiny_config(trials=2)
        scen = build_scenario(config)
        logs = {
            trial: simulate_ground_truth(
                scen, _trial_rng(config, STREAM_TRUTH, trial))[1].values
            for trial in range(config.trials)
        }
        path = tmp_path / "observations.csv"
        write_observations_csv(logs, path, config)
        return path

    @pytest.mark.parametrize("row,cell", [
        (-1, "trial 1, step 3, sensor 4"),    # the last row
        (2, "trial 0, step 1, sensor 0"),     # the first data row
        (20, "trial 1, step 1, sensor 3"),    # a row inside a later trial
    ])
    def test_load_observations_rejects_a_missing_cell(self, observation_file,
                                                      row, cell):
        lines = observation_file.read_text().splitlines(keepends=True)
        del lines[row]
        observation_file.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"no value for {cell}$"):
            load_observations_csv(observation_file)

    def test_load_observations_rejects_bad_rows(
        self, observation_file,
    ):
        lines = observation_file.read_text().splitlines(keepends=True)
        observation_file.write_text("".join(lines + [lines[5]]))
        with pytest.raises(ValueError, match="repeated values for trial 0, "
                                             "step 1, sensor 3$"):
            load_observations_csv(observation_file)
        for bad in ("1,2,x,0.5", "1,0,0,0.5", "1,1,2,nan", "1,1.5,2,0.5",
                    "1,1,2", "nan,1,2,0.5", "1e19,1,2,0.5", "1,inf,2,0.5"):
            observation_file.write_text("".join(lines) + bad + "\n")
            with pytest.raises(ValueError, match="observation file"):
                load_observations_csv(observation_file)

    def test_load_observations_refuses_an_index_beyond_its_rows(self,
                                                               tmp_path):
        # a 10^12-trial grid would need 7 TiB; two rows fill two cells
        path = tmp_path / "huge.csv"
        path.write_text("trial,step,sensor,value\n0,1,0,0.5\n"
                        "1000000000000,1,0,0.5\n")
        with pytest.raises(ValueError, match="no value for trial 1, step 1, "
                                             "sensor 0$"):
            load_observations_csv(path)

    def test_load_observations_reads_rows_in_any_order(self,
                                                       observation_file):
        _, expected = load_observations_csv(observation_file)
        lines = observation_file.read_text().splitlines(keepends=True)
        rows = lines[2:]
        np.random.default_rng(4).shuffle(rows)
        observation_file.write_text("".join(lines[:2] + rows))
        _, got = load_observations_csv(observation_file)
        assert sorted(got) == sorted(expected)
        for trial in expected:
            np.testing.assert_array_equal(got[trial], expected[trial])

    def test_load_observations_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# config abc\ntrial,step,sensor,value\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_observations_csv(path)


def assert_no_child_left():
    """No child process of this one is alive or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedTruthWriter:
    """``write_truth_csv`` with the second half of the rows formatted in a
    forked child, forced here for files of any size and core count."""

    @staticmethod
    def force_split(patch) -> list:
        """Force the split under ``patch``; the list returned names the
        children forked."""
        patch.setattr(experiment, "_SPLIT_VALUES", 0)
        patch.setattr(experiment, "_usable_cores", lambda: 2)
        forked, names = experiment._forked, []

        def counted(*args):
            names.append(args[0])
            return forked(*args)
        patch.setattr(experiment, "_forked", counted)
        return names

    @pytest.fixture
    def forks(self, monkeypatch):
        return self.force_split(monkeypatch)

    @staticmethod
    def written(trajectories, config, path) -> bytes:
        write_truth_csv(trajectories, path, config)
        return path.read_bytes()

    def inline(self, trajectories, config, path, monkeypatch) -> bytes:
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "_SPLIT_VALUES", math.inf)
            return self.written(trajectories, config, path)

    @pytest.mark.parametrize("lengths,stride,split", [
        ([1], 1, False),            # one row: nothing to split
        ([5], 1, True),             # odd rows
        ([6], 1, True),             # even rows
        ([3, 4, 2], 1, True),       # the halves meet inside trial 1
        ([4, 4], 7, True),
    ])
    def test_split_bytes_equal_the_inline_bytes(self, forks, lengths, stride,
                                                split, tmp_path, monkeypatch):
        rng = np.random.default_rng(len(lengths) + stride)
        trajectories = {t: rng.normal(size=(n, 26))
                        for t, n in enumerate(lengths)}
        config = tiny_config(node_stride=stride)
        expected = self.inline(trajectories, config, tmp_path / "inline.csv",
                               monkeypatch)
        assert forks == []
        assert self.written(trajectories, config,
                            tmp_path / "split.csv") == expected
        assert forks == ["truth-writing"] * split
        assert_no_child_left()

    @settings(max_examples=25, deadline=None)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 5),
                           st.integers(2, 6), st.integers(1, 3)),
           data=st.data())
    def test_split_bytes_equal_the_inline_bytes_for_any_shape(
            self, shape, data, tmp_path_factory):
        trials, steps, columns, stride = shape
        trajectories = {t: np.array(data.draw(st.lists(
            st.lists(csv_floats, min_size=columns, max_size=columns),
            min_size=steps, max_size=steps))) for t in range(trials)}
        config = tiny_config(node_stride=stride)
        out = tmp_path_factory.mktemp("split")
        inline = self.written(trajectories, config, out / "inline.csv")
        with pytest.MonkeyPatch.context() as patch:
            forks = self.force_split(patch)
            split = self.written(trajectories, config, out / "split.csv")
        assert split == inline
        assert len(forks) == (trials * steps > 1)
        assert_no_child_left()

    def test_a_child_error_is_raised_as_the_child_raised_it(
            self, forks, tmp_path, monkeypatch):
        def fail(part, lines):
            raise filters.FilterError("the child failed")

        monkeypatch.setattr(experiment, "_write_rows", fail)
        with within(20), pytest.raises(filters.FilterError,
                                       match="the child failed"):
            write_truth_csv({0: np.ones((4, 3))}, tmp_path / "truth.csv",
                            tiny_config())
        assert forks == ["truth-writing"]
        assert_no_child_left()
        # the child's file had no name
        assert list(tmp_path.iterdir()) == [tmp_path / "truth.csv"]

    def test_a_child_that_stops_short_is_named_by_its_exit_code(
            self, forks, tmp_path, monkeypatch):
        def stop(part, lines):
            part.write(next(lines))
            part.flush()
            os._exit(3)

        monkeypatch.setattr(experiment, "_write_rows", stop)
        with within(20), pytest.raises(RuntimeError, match="exit code 3"):
            write_truth_csv({0: np.ones((4, 2))}, tmp_path / "truth.csv",
                            tiny_config())
        assert_no_child_left()
        assert list(tmp_path.iterdir()) == [tmp_path / "truth.csv"]

    def test_no_fork_beside_another_thread(self, forks, tmp_path,
                                           monkeypatch):
        config = tiny_config(trials=2)
        scenario = build_scenario(config)
        trajectories = {t: simulate_trial(scenario, t)[0]
                        for t in range(config.trials)}
        forked_truth = self.written(trajectories, config,
                                    tmp_path / "forked.csv")
        forked_estimates = [r.estimates.tobytes()
                            for r in run_trials(config)]
        assert forks == ["truth-writing", "gain-schedule"]

        def refuse(*args, **kwargs):
            raise AssertionError("forked beside another thread")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process",
                            refuse)
        monkeypatch.setattr(os, "fork", refuse)
        parked = threading.Event()
        helper = threading.Thread(target=parked.wait)
        helper.start()
        try:
            assert self.written(trajectories, config,
                                tmp_path / "inline.csv") == forked_truth
            for threads in (1, 2):
                assert [r.estimates.tobytes() for r in run_trials(
                    config, threads=threads)] == forked_estimates
        finally:
            parked.set()
            helper.join(5)
        assert not helper.is_alive()
        assert forks == ["truth-writing", "gain-schedule"]


# every float, with the edge cases named so a derandomised run always
# tries them
csv_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 2.2250738585072009e-308, 0.1,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(),
)


@given(values=st.lists(csv_floats, min_size=2, max_size=6))
def test_csv_fields_are_17_significant_digits(values, tmp_path_factory):
    """Each writer's float fields are ``format(x, ".17g")``, which reads back
    bit for bit for every finite ``x``; the observations writer, which
    refuses a non-finite value, is given the finite ones."""
    config = tiny_config()
    out = tmp_path_factory.mktemp("fields")
    array = np.array(values)
    finite = [x for x in values if math.isfinite(x)] or [0.0]
    write_truth_csv({0: array[None, :]}, out / "truth.csv", config)
    write_observations_csv(
        {0: np.array([finite])},
        out / "observations.csv", config)
    estimates = np.column_stack([np.zeros_like(array), array])
    write_results_csv([TrialResult(0, estimates, estimates, array, 0.0, 0.0)],
                      out / "results.csv", config)
    truth_row = (out / "truth.csv").read_text().splitlines()[2]
    observation_rows = (out / "observations.csv").read_text().splitlines()[2:]
    result_rows = (out / "results.csv").read_text().splitlines()[2:]
    written = {
        "truth": (truth_row.split(",")[2:], values),
        "observations": ([row.split(",")[3] for row in observation_rows],
                         finite),
        "errors": ([row.split(",")[2] for row in result_rows], values),
        "strengths": ([row.split(",")[3] for row in result_rows], values),
    }
    for name, (fields, source) in written.items():
        assert fields == [format(x, ".17g") for x in source], name
        for x, text in zip(source, fields):
            if math.isfinite(x):
                assert float(text).hex() == x.hex(), (name, text)


class TestEndToEnd:
    @pytest.mark.parametrize("estimator", ["rbpf", "enkf"])
    def test_estimates_stay_finite(self, estimator):
        config = tiny_config(estimator=estimator, steps=6, trials=1)
        (result,) = run_trials(config)
        assert np.isfinite(result.estimates).all()
        assert np.isfinite(result.errors).all()
        assert result.runtime > 0.0
