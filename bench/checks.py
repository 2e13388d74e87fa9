"""Correctness checks on one round's outputs.

Each check reads the files the CLI wrote, parses them itself and returns
``None`` when the outputs hold or a message saying what is wrong.  None of
them compares against a stored copy of earlier output: they test properties
any correct run must have.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

RADIUS_TOL = 1e-9          # spectral radius of A may exceed 1 by this much
RESIDUAL_TOL = 0.10        # truth residual sd within this share of sqrt(q)
STRENGTH_RANGE = (0.5, 1.5)


def read_csv(path):
    """Header ``# config`` digest, column names and rows of a program CSV."""
    digest, header, rows = None, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# config"):
                digest = line.split()[-1]
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return digest, header, rows


def parse_observations(path, trials, steps, sensors):
    """``(digest, {trial: (steps, sensors) array})``; raises on bad cells."""
    digest, header, rows = read_csv(path)
    if header != ["trial", "step", "sensor", "value"]:
        raise ValueError(f"unexpected observation header {header}")
    logs = {t: np.full((steps, sensors), np.nan) for t in range(trials)}
    for trial, step, sensor, value in rows:
        cell = logs[int(trial)][int(step) - 1]
        if not np.isnan(cell[int(sensor)]):
            raise ValueError(f"cell ({trial}, {step}, {sensor}) repeated")
        cell[int(sensor)] = float(value)
    if len(rows) != trials * steps * sensors:
        raise ValueError(f"{len(rows)} observation rows, expected "
                         f"{trials * steps * sensors}")
    return digest, logs


def check_levels(logs, scale, levels):
    """Every observed value is one of its quantiser's level values."""
    values = np.concatenate([a.ravel() for a in logs.values()])
    index = (values + scale) * levels / (2.0 * scale) - 0.5
    nearest = np.round(index)
    bad = (np.abs(index - nearest) > 1e-6) | (nearest < 0) | (nearest >= levels)
    if bad.any():
        return (f"{int(bad.sum())} observation(s) off the level grid, "
                f"first {values[bad][0]!r}")
    return None


def check_load_roundtrip(path, digest, logs, load_observations_csv):
    """The program's reader returns exactly the values parsed here."""
    got_digest, got = load_observations_csv(path)
    if got_digest != digest:
        return f"reader digest {got_digest} != file digest {digest}"
    if sorted(got) != sorted(logs):
        return f"reader trials {sorted(got)} != file trials {sorted(logs)}"
    for trial, arr in logs.items():
        if got[trial].shape != arr.shape or not np.array_equal(got[trial], arr):
            return f"reader values differ from the file in trial {trial}"
    return None


def truth_states(path):
    """``{trial: (steps + 1, n + 1) array}`` from the truth CSV."""
    _, header, rows = read_csv(path)
    if header[:2] != ["trial", "step"] or header[-1] != "strength":
        raise ValueError(f"unexpected truth header {header[:3]}...")
    data = np.array(rows, dtype=float)
    out = {}
    for trial in np.unique(data[:, 0]).astype(int):
        block = data[data[:, 0] == trial]
        out[trial] = block[np.argsort(block[:, 1]), 2:]
    return out


def estimate_rows(path):
    """``{trial: (errors, strengths)}`` ordered by step, from an estimates CSV."""
    _, header, rows = read_csv(path)
    if header != ["trial", "step", "error", "strength"]:
        raise ValueError(f"unexpected estimates header {header}")
    data = np.array(rows, dtype=float)
    out = {}
    for trial in np.unique(data[:, 0]).astype(int):
        block = data[data[:, 0] == trial]
        block = block[np.argsort(block[:, 1])]
        out[trial] = (block[:, 2], block[:, 3])
    return out


def check_error_bound(estimates, truth):
    """Each step's error norm is at least its strength error."""
    for trial, (errors, strengths) in estimates.items():
        true_strength = truth[trial][1:, -1]
        gap = np.abs(strengths - true_strength)
        bad = errors < gap * (1.0 - 1e-12)
        if bad.any():
            k = int(np.argmax(bad))
            return (f"trial {trial} step {k + 1}: error {errors[k]!r} < "
                    f"|strength error| {gap[k]!r}")
    return None


def check_aee(estimates, summary_path):
    """The summary's AEE is the mean over trials of each trial's mean error."""
    with open(summary_path, "r", encoding="utf-8") as fh:
        aee = float(json.load(fh)["aee"])
    recomputed = float(np.mean([e.mean() for e, _ in estimates.values()]))
    if abs(recomputed - aee) > 1e-12 * abs(aee):
        return f"summary aee {aee!r} != recomputed {recomputed!r}"
    return None


def model_digest(model) -> str:
    a = model.transition
    h = hashlib.sha256()
    for arr in (a.data, a.indices, a.indptr, model.injection,
                np.array([model.dt, model.strength_var])):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def spectral_radius(model) -> float:
    """Largest eigenvalue magnitude of the field transition ``A``."""
    a = model.transition
    try:
        vals = spla.eigs(a, k=1, which="LM", return_eigenvectors=False)
    except spla.ArpackNoConvergence:
        vals = np.linalg.eigvals(a.toarray())
    return float(np.abs(vals).max())


def check_radius(radii):
    """Every model's transition has spectral radius at most one."""
    worst = max(radii)
    if worst > 1.0 + RADIUS_TOL:
        return f"spectral radius {worst!r} exceeds 1 + {RADIUS_TOL:g}"
    return None


def kalman_probe(models, h, init_cov, filters):
    """One ``kf_predict`` + ``kf_update`` pass over the horizon.

    ``models`` holds the model of every step.  The covariance does not
    depend on the observed values, so each update conditions on the
    predicted measurement.  Returns the final covariance.
    """
    dim = models[0].state_dim
    belief = filters.GaussianBelief(mean=np.zeros(dim),
                                    cov=init_cov * np.eye(dim))
    for model in models:
        belief = filters.kf_predict(model, belief)
        belief = filters.kf_update(belief, h, h @ belief.mean)
    return belief.cov


def check_covariance(cov):
    """The probe's final covariance is symmetric and positive semidefinite."""
    scale = float(np.abs(cov).max())
    asym = float(np.abs(cov - cov.T).max())
    if asym > 1e-12 * scale:
        return f"final covariance asymmetric by {asym!r}"
    low = float(scipy.linalg.eigvalsh(cov, subset_by_index=[0, 0])[0])
    if low < -1e-9 * scale:
        return f"final covariance has eigenvalue {low!r}"
    return None


def check_residuals(truth, models, field_noise):
    """Truth increments ``c' - A c - B u`` have sd close to ``sqrt(q)``."""
    residuals = []
    for states in truth.values():
        for k, model in enumerate(models):
            c, u = states[k, :-1], states[k, -1]
            residuals.append(states[k + 1, :-1] - model.transition @ c
                             - model.injection * u)
    sd = float(np.std(np.concatenate(residuals)))
    expected = float(np.sqrt(field_noise))
    if abs(sd - expected) > RESIDUAL_TOL * expected:
        return f"truth residual sd {sd:.6g}, expected {expected:.6g}"
    return None


def check_rbpf_beats_enkf(aee_rbpf, aee_enkf):
    if not aee_rbpf < aee_enkf:
        return f"RBPF AEE {aee_rbpf!r} is not below EnKF AEE {aee_enkf!r}"
    return None


def final_strengths(estimates):
    """Per-trial median of the last 10 strength estimates."""
    return np.array([np.median(s[-10:]) for _, s in estimates.values()])


def check_strength_range(strengths):
    lo, hi = STRENGTH_RANGE
    bad = (strengths < lo) | (strengths > hi)
    if bad.any():
        return (f"{int(bad.sum())} trial(s) end with strength outside "
                f"[{lo}, {hi}], first {strengths[bad][0]!r}")
    return None
