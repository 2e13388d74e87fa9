"""Acceptance gate: every shipped capability checked at its stated tolerance.

Each test prints one ``criterion NN PASS/FAIL`` line (visible with ``-v``
through the test name as well) and covers one commitment: FEM accuracy
against closed-form transport solutions, the stability machinery, the
quantisation and detection model, estimator correctness in the noise-free
limit, the full desk scenario recovery targets, the ensemble baseline
comparison, and byte-level reproducibility of the outputs.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from plumetrace import fem, filters
from plumetrace.experiment import (
    STREAM_RBPF,
    STREAM_TRUTH,
    ScenarioConfig,
    _trial_rng,
    build_scenario,
    compute_aee,
    draw_observation,
    run_filter,
    run_trials,
    simulate_ground_truth,
    write_observations_csv,
    write_results_csv,
)
from plumetrace.filters import GaussianBelief, kf_predict, kf_update
from plumetrace.mesh import build_structured_mesh

from oracles import LinearModel, level_values, one_sensor


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}  {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def desk_config():
    return ScenarioConfig()


@pytest.fixture(scope="module")
def desk_scenario(desk_config):
    return build_scenario(desk_config)


@pytest.fixture(scope="module")
def desk_rbpf(desk_config):
    start = time.perf_counter()
    results = run_trials(desk_config)
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def desk_enkf(desk_config):
    config = dataclasses.replace(desk_config, estimator="enkf")
    return run_trials(config)


def _gaussian_bump(mesh, center, sigma):
    r2 = ((mesh.nodes - np.asarray(center)) ** 2).sum(axis=1)
    return np.exp(-r2 / (2.0 * sigma ** 2))


def test_criterion_01_pure_diffusion_matches_heat_kernel():
    mesh = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 40, 40)
    lam = 1e-3
    system = fem.assemble(mesh, (0.0, 0.0), lam)
    report = fem.stability_report(mesh, (0.0, 0.0), lam)
    dt = 0.4 * report.critical_dt
    steps = math.ceil(5.0 / dt)
    sigma0 = 0.1
    c = _gaussian_bump(mesh, (0.5, 0.5), sigma0)
    model = fem.build_model(system, dt, 1e-4, 1e-6)
    start = time.perf_counter()
    for _ in range(steps):
        c = model.transition @ c
    elapsed = time.perf_counter() - start
    sigma_t2 = sigma0 ** 2 + 2.0 * lam * steps * dt
    r2 = ((mesh.nodes - 0.5) ** 2).sum(axis=1)
    exact = (sigma0 ** 2 / sigma_t2) * np.exp(-r2 / (2.0 * sigma_t2))
    rel = np.linalg.norm(c - exact) / np.linalg.norm(exact)
    _report(
        1, "pure diffusion matches the heat kernel",
        rel < 0.05 and elapsed < 10.0,
        f"rel L2 error {rel:.3g} (tol 0.05) in {elapsed:.2f} s over "
        f"{steps} steps",
    )


def test_criterion_02_advection_transports_at_flow_speed():
    mesh = build_structured_mesh(0.0, 0.0, 2.0, 1.0, 80, 40)
    vel = (0.05, 0.0)
    lam_eff = 1e-6 + fem.artificial_diffusivity(mesh, [vel], 1e-6)
    system = fem.assemble(mesh, vel, lam_eff)
    report = fem.stability_report(mesh, vel, lam_eff)
    dt = fem.default_time_step(report)
    c = _gaussian_bump(mesh, (0.5, 0.5), 0.1)
    weights = system.mass.diagonal()

    def centroid(field):
        w = weights * field
        return np.array([w @ mesh.nodes[:, 0], w @ mesh.nodes[:, 1]]) / w.sum()

    model = fem.build_model(system, dt, 1e-4, 1e-6)
    start = centroid(c)
    for _ in range(50):
        c = model.transition @ c
    drift = centroid(c) - start
    expected = np.array([vel[0] * 50 * dt, 0.0])
    err = np.linalg.norm(drift - expected)
    diameter = float(np.sqrt(2.0 * mesh.areas.max()) * np.sqrt(2.0))
    _report(
        2, "advected plume centroid moves with the flow",
        err < diameter,
        f"centroid drift error {err:.3g} vs element diameter {diameter:.3g} "
        f"after 50 steps of dt={dt:.4f}",
    )


def test_criterion_03_critical_step_separates_stable_from_unstable():
    mesh = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 20, 20)
    vel = (0.05, 0.02)
    system = fem.assemble(mesh, vel, 1e-3)
    report = fem.stability_report(mesh, vel, 1e-3)
    c0 = _gaussian_bump(mesh, (0.5, 0.5), 0.1)
    n0 = np.linalg.norm(c0)

    model = fem.build_model(system, 0.5 * report.critical_dt, 1e-4, 1e-6)
    c = c0.copy()
    peak = 0.0
    for _ in range(1000):
        c = model.transition @ c
        peak = max(peak, np.linalg.norm(c))
    bounded = np.isfinite(peak) and peak <= 10.0 * n0

    model = fem.build_model(system, 2.0 * report.critical_dt, 1e-4, 1e-6)
    c = c0.copy()
    blowup_step = None
    for k in range(100):
        c = model.transition @ c
        if np.linalg.norm(c) >= 10.0 * n0:
            blowup_step = k + 1
            break
    _report(
        3, "critical step bound separates stable from unstable",
        bounded and blowup_step is not None,
        f"half the bound stays at {peak / n0:.3g}x over 1000 steps; twice "
        f"the bound grows 10x by step {blowup_step}",
    )


def test_criterion_04_artificial_diffusivity_restores_unit_peclet():
    mesh = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 10, 10)
    vel = (0.04, 0.0)
    lam = 1e-3
    before = fem.stability_report(mesh, vel, lam)
    repaired = lam + before.artificial_diffusivity
    after = fem.stability_report(mesh, vel, repaired)
    _report(
        4, "artificial diffusivity pulls the worst cell to unit Peclet",
        before.max_peclet == pytest.approx(2.0, abs=1e-12)
        and abs(after.max_peclet - 1.0) < 1e-12,
        f"max Pe {before.max_peclet:.6g} -> {after.max_peclet:.15g} after "
        f"adding {before.artificial_diffusivity:.3g}",
    )


def test_criterion_05_quantiser_error_never_exceeds_half_cell():
    scale, levels = 2000.0, 10_000
    q = one_sensor(scale, levels)
    w = scale / levels
    rng = np.random.default_rng(7)
    y = rng.uniform(-scale, scale, 1_000_000)
    quantised = q.quantise(y)
    violations = int((np.abs(quantised - y) > w * (1.0 + 1e-12)).sum())
    idempotent = np.array_equal(q.quantise(quantised), quantised)
    ordered = bool((np.diff(q.quantise(np.sort(y))) >= 0.0).all())
    small = one_sensor(3.0, 11)
    ys = np.linspace(-3.0, 3.0, 10_001)
    small_ok = (np.abs(small.quantise(ys) - ys)
                <= 3.0 / 11 * (1.0 + 1e-12)).all()
    _report(
        5, "quantisation error stays within half a cell",
        violations == 0 and idempotent and ordered and bool(small_ok),
        f"0 of 1e6 draws exceed {w:g}; idempotent={idempotent}, "
        f"monotone={ordered}, coarse 11-level case holds too",
    )


def test_criterion_06_cell_probabilities_form_a_partition():
    rng = np.random.default_rng(17)
    worst = 0.0
    scale = 5.0
    for levels in (3, 100, 11_000):
        values = level_values(scale, levels)
        for _ in range(20):
            z = rng.uniform(-6.0, 6.0)
            var = rng.uniform(1e-4, 4.0)
            sd = np.sqrt(var)
            # the filter's likelihood of an always-detecting sensor: the
            # Gaussian mass of each received cell
            cells = one_sensor(scale, levels, noise_var=var)
            total = np.exp(cells.log_likelihood(values, z)).sum()
            total += norm.cdf((-scale - z) / sd) + norm.sf((scale - z) / sd)
            worst = max(worst, abs(total - 1.0))
    _report(
        6, "quantiser cell probabilities sum to one",
        worst < 1e-10,
        f"worst |sum - 1| = {worst:.3g} over 3 level counts x 20 random "
        f"(mean, variance) pairs",
    )


def test_criterion_07_kalman_update_matches_closed_form():
    rng = np.random.default_rng(23)
    worst_mean = worst_cov = 0.0
    for _ in range(100):
        a = rng.normal(0.0, 0.5, (5, 5))
        w = rng.normal(0.0, 0.3, (5, 5))
        w = w @ w.T + 0.1 * np.eye(5)
        p = rng.normal(0.0, 0.4, (5, 5))
        p = p @ p.T + 0.2 * np.eye(5)
        h = rng.normal(0.0, 1.0, (2, 5))
        belief = GaussianBelief(mean=rng.normal(0.0, 2.0, 5), cov=p)
        z = rng.normal(0.0, 2.0, 2)
        pred = kf_predict(LinearModel(a=a, w=np.diag(w)), belief)
        post = kf_update(pred, h, z, jitter=0.0)
        gain = pred.cov @ h.T @ np.linalg.inv(h @ pred.cov @ h.T)
        mean = pred.mean + gain @ (z - h @ pred.mean)
        cov = (np.eye(5) - gain @ h) @ pred.cov
        cov = 0.5 * (cov + cov.T)
        worst_mean = max(worst_mean, np.abs(post.mean - mean).max())
        worst_cov = max(worst_cov, np.abs(post.cov - cov).max())
    _report(
        7, "shared Kalman recursion matches the closed form",
        worst_mean < 1e-10 and worst_cov < 1e-10,
        f"worst mean dev {worst_mean:.2g}, cov dev {worst_cov:.2g} over "
        f"100 random systems (tol 1e-10)",
    )


def test_criterion_08_particle_filter_collapses_to_kalman_without_noise(
    desk_config,
):
    config = dataclasses.replace(
        desk_config, detect_rate=1.0, sensor_noise=1e-6,
        quantiser_levels=10_000_000,
    )
    scenario = build_scenario(config)
    truth, observations = simulate_ground_truth(
        scenario, _trial_rng(config, STREAM_TRUTH, 0)
    )
    estimates = run_filter(
        scenario, observations, _trial_rng(config, STREAM_RBPF, 0)
    )
    model = scenario.provider.model_at(0)
    linear = LinearModel(a=model.augmented_transition().toarray(),
                         w=model.process_variances())
    belief = GaussianBelief(
        mean=np.zeros(scenario.state_dim),
        cov=config.init_cov * np.eye(scenario.state_dim),
    )
    h = scenario.network.H
    reference = np.empty_like(estimates)
    for k in range(config.steps):
        belief = kf_predict(linear, belief)
        belief = kf_update(belief, h, h @ truth[k + 1])
        reference[k] = belief.mean
    rel = np.linalg.norm(estimates - reference) / np.linalg.norm(reference)
    _report(
        8, "particle filter tracks the exact filter when noise vanishes",
        rel < 0.01,
        f"relative RMS deviation {rel:.3g} over {config.steps} steps "
        f"(tol 0.01)",
    )


def test_criterion_09_source_strength_recovered_on_desk_scenario(desk_rbpf):
    results, elapsed = desk_rbpf
    medians = np.array([np.median(r.strengths[-10:]) for r in results])
    spreads = np.array([np.ptp(r.strengths[-10:]) for r in results])
    overall = float(np.median(medians))
    _report(
        9, "desk scenario recovers the unit source strength",
        0.85 <= overall <= 1.15 and (spreads < 0.2).all()
        and elapsed < 300.0,
        f"median strength {overall:.4f} in [0.85, 1.15], trial medians "
        f"[{medians.min():.3f}, {medians.max():.3f}], max settling spread "
        f"{spreads.max():.4f} < 0.2, {len(results)} trials in {elapsed:.1f} s",
    )


def test_criterion_10_particle_filter_beats_ensemble_baseline(
    desk_rbpf, desk_enkf,
):
    rbpf_results, _ = desk_rbpf
    wins = sum(
        r.aee_contribution < e.aee_contribution
        for r, e in zip(rbpf_results, desk_enkf)
    )
    ratio = compute_aee(desk_enkf) / compute_aee(rbpf_results)
    needed = math.ceil(0.8 * len(rbpf_results))
    _report(
        10, "particle filter beats the ensemble baseline",
        wins >= needed and ratio >= 1.5,
        f"lower error in {wins}/{len(rbpf_results)} trials (need "
        f"{needed}), mean error ratio {ratio:.2f} (need 1.5)",
    )


def test_criterion_11_miss_detection_rate_is_calibrated(desk_scenario):
    network = desk_scenario.network
    rng = np.random.default_rng(2026)
    state = np.zeros(desk_scenario.state_dim)
    calls = 2500
    hits = 0.0
    for _ in range(calls):
        hits += draw_observation(network, state, rng).detections.sum()
    draws = calls * network.count
    mean = hits / draws
    band = 3.0 * np.sqrt(0.85 * 0.15 / draws)
    _report(
        11, "simulated detection rate matches the configured one",
        abs(mean - 0.85) <= band,
        f"empirical rate {mean:.4f} within {band:.4f} of 0.85 over "
        f"{draws:.0f} indicator draws",
    )


def test_criterion_12_outputs_are_byte_reproducible(
    desk_config, desk_rbpf, desk_enkf, tmp_path,
):
    rbpf_results, _ = desk_rbpf
    enkf_config = dataclasses.replace(desk_config, estimator="enkf")
    repeats = {
        "rbpf": (desk_config, rbpf_results, run_trials(desk_config)),
        "enkf": (enkf_config, desk_enkf, run_trials(enkf_config)),
    }
    identical = []
    for name, (config, first, second) in repeats.items():
        pair = []
        for tag, results in (("a", first), ("b", second)):
            path = tmp_path / f"estimates_{name}_{tag}.csv"
            write_results_csv(results, path, config)
            pair.append(path.read_bytes())
        identical.append(pair[0] == pair[1])

    scenario = build_scenario(desk_config)
    obs_bytes = []
    for tag in ("a", "b"):
        _, observations = simulate_ground_truth(
            scenario, _trial_rng(desk_config, STREAM_TRUTH, 0)
        )
        path = tmp_path / f"observations_{tag}.csv"
        write_observations_csv({0: observations}, path, desk_config)
        obs_bytes.append(path.read_bytes())
    identical.append(obs_bytes[0] == obs_bytes[1])
    _report(
        12, "repeated runs reproduce outputs byte for byte",
        all(identical),
        f"rbpf estimates, enkf estimates and observations identical across "
        f"independent reruns: {identical}",
    )
