"""Seeded end-to-end experiments: truth simulation, estimation, metrics.

A scenario couples a mesh, a flow, a source, and a sensor network into the
discrete model; Monte Carlo trials then simulate ground truth with fresh
noise, run an estimator on the quantised observations, and aggregate the
averaged estimation error (AEE).

Randomness is split into named streams derived from the master seed so that
the truth, the sensor layout, and each estimator never share draws: stream
0 seeds the sensor layout (one layout per scenario), stream 1 the per-trial
truth, and streams 2 and 3 the particle and ensemble filters.  Changing the
estimator or its size therefore never changes the simulated truth.
"""

from __future__ import annotations

import bisect
import contextlib
import fcntl
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from plumetrace import fem, filters, flowfield, mesh as meshmod, sensing

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "ModelProvider",
    "TrialResult",
    "TrialRun",
    "build_scenario",
    "simulate_ground_truth",
    "simulate_trial",
    "draw_observation",
    "run_filter",
    "run_trials",
    "compute_aee",
    "write_results_csv",
    "write_summary_json",
    "write_truth_csv",
    "write_observations_csv",
    "load_observations_csv",
]

STREAM_SENSORS = 0
STREAM_TRUTH = 1
STREAM_RBPF = 2
STREAM_ENKF = 3

_ESTIMATOR_STREAMS = {"rbpf": STREAM_RBPF, "enkf": STREAM_ENKF}

def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_dt(value: str) -> Optional[float]:
    if value.strip().lower() == "auto":
        return None
    return float(value)


def _setting(default, section=None, *keys, parse=float, hashed=True):
    """A config field read from ``keys`` of config-file ``[section]``.

    A tuple field takes one key per slot.  ``parse`` converts each raw
    value.  ``hashed`` fields enter the scenario digest; a field without a
    section has no config key.
    """
    return field(default=default, metadata={
        "section": section, "keys": keys, "parse": parse, "hashed": hashed})


@dataclass
class ScenarioConfig:
    """Complete description of one experiment, and the config-file schema.

    Each field's metadata names its config-file section and keys (see
    :func:`_setting`) and whether it enters :meth:`scenario_hash`.  The
    estimator choice and the output settings stay out of the hash, so runs
    of different estimators on the same scenario share it and can be
    compared.

    The defaults form the desk-scale demonstration scenario: a 1 km square
    meshed 20 by 20, a weak uniform current with strong eddy mixing, one
    constant unit-strength source, and a 40-sensor monitoring fence around
    the release point with miss detection and coarse quantisation.
    """

    # mesh: either a file or a structured rectangle
    mesh_file: Optional[str] = _setting(None, "mesh", "file", parse=str)
    domain: tuple[float, float, float, float] = _setting(
        (0.0, 0.0, 1000.0, 1000.0), "mesh", "x0", "y0", "x1", "y1")
    nx: int = _setting(20, "mesh", "nx", parse=int)
    ny: int = _setting(20, "mesh", "ny", parse=int)
    # flow: uniform | rotation | zero | file
    flow_kind: str = _setting("uniform", "flow", "kind", parse=str)
    flow_u: float = _setting(0.02, "flow", "u")
    flow_v: float = _setting(0.0, "flow", "v")
    flow_center: tuple[float, float] = _setting(
        (0.0, 0.0), "flow", "center_x", "center_y")
    flow_rate: float = _setting(0.0, "flow", "rate")
    flow_file: Optional[str] = _setting(None, "flow", "file", parse=str)
    # physics and time stepping; dt None selects the conservative default
    diffusivity: float = _setting(25.0, "physics", "diffusivity")
    auto_stabilise: bool = _setting(True, "physics", "auto_stabilise",
                                    parse=_parse_bool)
    dt: Optional[float] = _setting(18.0, "physics", "dt", parse=_parse_dt)
    steps: int = _setting(48, "physics", "steps", parse=int)
    source: tuple[float, float] = _setting(
        (250.0, 500.0), "physics", "source_x", "source_y")
    strength: float = _setting(1.0, "physics", "strength")
    field_noise: float = _setting(5e-3, "physics", "field_noise")
    strength_walk: float = _setting(1e-8, "physics", "strength_walk")
    # sensors: layout fence | random
    sensor_file: Optional[str] = _setting(None, "sensors", "file", parse=str)
    sensor_layout: str = _setting("fence", "sensors", "layout", parse=str)
    sensor_count: int = _setting(40, "sensors", "count", parse=int)
    detect_rate: float = _setting(0.85, "sensors", "detect_rate")
    quantiser_scale: float = _setting(24.0, "sensors", "scale")
    quantiser_levels: int = _setting(10_000, "sensors", "levels", parse=int)
    sensor_noise: float = _setting(5e-3, "sensors", "noise")
    # estimator
    estimator: str = _setting("rbpf", "estimator", "kind", parse=str,
                              hashed=False)
    size: int = _setting(30, "estimator", "size", parse=int, hashed=False)
    init_cov: float = _setting(10.0, "estimator", "init_cov", hashed=False)
    # trials; force_dt is set only by the command line's --force
    trials: int = _setting(20, "run", "trials", parse=int)
    seed: int = _setting(0, "run", "seed", parse=int)
    force_dt: bool = _setting(False, hashed=False)
    node_stride: int = _setting(1, "run", "node_stride", parse=int,
                                hashed=False)

    def validate(self) -> None:
        for f in fields(self):
            if f.metadata["parse"] not in (float, _parse_dt):
                continue
            value = getattr(self, f.name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.mesh_file is None:
            x0, y0, x1, y1 = self.domain
            if not (x1 > x0 and y1 > y0):
                raise ValueError("domain rectangle must have positive extent")
            if self.nx < 1 or self.ny < 1:
                raise ValueError("mesh resolution must be at least 1x1")
        if self.flow_kind not in ("uniform", "rotation", "zero", "file"):
            raise ValueError(f"unknown flow kind {self.flow_kind!r}")
        if self.flow_kind == "file" and not self.flow_file:
            raise ValueError("flow kind 'file' requires flow_file")
        if self.diffusivity < 0.0:
            raise ValueError("diffusivity must be non-negative")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if self.steps < 1:
            raise ValueError("step count must be at least 1")
        if self.field_noise <= 0.0 or self.strength_walk <= 0.0:
            raise ValueError("process noise variances must be positive")
        if self.sensor_layout not in ("fence", "random"):
            raise ValueError(f"unknown sensor layout {self.sensor_layout!r}")
        if self.sensor_file is None and self.sensor_count < 1:
            raise ValueError("at least one sensor is required")
        if not 0.0 <= self.detect_rate <= 1.0:
            raise ValueError("detection rate must lie in [0, 1]")
        if self.quantiser_scale <= 0.0:
            raise ValueError("quantiser scale must be positive")
        if self.quantiser_levels < 1:
            raise ValueError("quantiser level count must be positive")
        if self.sensor_noise <= 0.0:
            raise ValueError("sensor noise variance must be positive")
        if self.estimator not in _ESTIMATOR_STREAMS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.size < 1 or (self.estimator == "enkf" and self.size < 2):
            raise ValueError("estimator size too small")
        if self.init_cov <= 0.0:
            raise ValueError("initial covariance must be positive")
        if self.trials < 1:
            raise ValueError("at least one trial is required")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.node_stride < 1:
            raise ValueError("node stride must be at least 1")

    def scenario_hash(self) -> str:
        """Digest of the scenario-defining (``hashed``) fields, in field
        order.  A file field (config key ``file``) enters as the sha256 of
        the file's bytes, so a rewritten file changes the digest and the
        same file at another path does not.

        Embedded in every output file so estimates are never computed
        against observations from a different scenario.
        """
        parts = ["plumetrace-config-v1"]
        for f in fields(self):
            if not f.metadata["hashed"]:
                continue
            value = getattr(self, f.name)
            if f.metadata["keys"] == ("file",) and value:
                with open(value, "rb") as fh:
                    value = hashlib.sha256(fh.read()).hexdigest()
            parts.append(f"{f.name}={value!r}")
        digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
        return digest.hexdigest()[:16]


@dataclass
class Scenario:
    """A config resolved into concrete model objects."""

    config: ScenarioConfig
    mesh: meshmod.TriMesh
    network: sensing.SensorNetwork
    provider: "ModelProvider"
    report: fem.StabilityReport
    diffusivity_eff: float
    dt: float

    @property
    def state_dim(self) -> int:
        return self.mesh.node_count + 1

    def gain_schedule(self) -> Iterator[filters.KalmanStep]:
        """The particle filter's gain schedule over the configured horizon
        from the configured prior covariance, as a stream: each step is
        computed when read, and kept by no one."""
        models = [self.provider.model_at(k) for k in range(self.config.steps)]
        return filters.gain_schedule(models, self.network.H_csr,
                                     self.config.init_cov)


class ModelProvider:
    """Per-step dispersion models, one per flow interval.

    Step ``k``, at ``k dt`` after the flow's first sample time, is driven by
    the last sample at or before it; ``velocities`` holds the samples'
    ``(S, E, 2)`` element velocities.  Each model is built on first use,
    the first interval's from ``first_system`` when the caller assembled
    it already.
    """

    def __init__(self, mesh, flow, velocities, diffusivity, dt, field_noise,
                 strength_walk, source, first_system=None):
        self._mesh = mesh
        self._diffusivity = diffusivity
        self._dt = dt
        self._field_noise = field_noise
        self._strength_walk = strength_walk
        self._source = source
        # a per-step bisect on a tuple of floats is a fraction of what
        # np.searchsorted costs on a scalar
        self._times = flow.sample_times
        self._velocities = velocities
        self._cache: dict[int, fem.DispersionModel] = {}
        self._systems = {} if first_system is None else {0: first_system}

    def interval_index(self, step: int) -> int:
        t = self._times[0] + step * self._dt
        return max(bisect.bisect_right(self._times, t) - 1, 0)

    def model_at(self, step: int) -> fem.DispersionModel:
        idx = self.interval_index(step)
        if idx not in self._cache:
            system = self._systems.pop(idx, None) or fem.assemble(
                self._mesh, self._velocities[idx], self._diffusivity,
                source=self._source,
            )
            self._cache[idx] = fem.build_model(
                system, self._dt, self._field_noise, self._strength_walk,
            )
        return self._cache[idx]


def _build_flow(config: ScenarioConfig):
    if config.flow_kind == "uniform":
        return flowfield.UniformFlow(config.flow_u, config.flow_v)
    if config.flow_kind == "rotation":
        return flowfield.RigidRotationFlow(tuple(config.flow_center),
                                           config.flow_rate)
    if config.flow_kind == "zero":
        return flowfield.UniformFlow(0.0, 0.0)
    return flowfield.load_gridded_flow(config.flow_file)


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Resolve a config into mesh, sensors and a model provider.

    Evaluates the element velocities of every flow sample in one call, for
    the stability checks and the provider's models alike, and assembles
    the first flow interval once for its stability report and model.
    Chooses the artificial diffusivity from the worst flow sample, resolves
    the automatic time step from the first, and refuses an explicitly
    configured unstable step unless ``force_dt`` is set.
    """
    config.validate()
    if config.mesh_file:
        grid = meshmod.load_mesh(config.mesh_file)
    else:
        x0, y0, x1, y1 = config.domain
        grid = meshmod.build_structured_mesh(x0, y0, x1, y1, config.nx, config.ny)
    flow = _build_flow(config)
    velocities = flowfield.element_velocities(flow, grid)

    lam_eff = config.diffusivity
    if config.auto_stabilise:
        lam_eff += fem.artificial_diffusivity(grid, velocities,
                                              config.diffusivity)

    # flow interval 0's system serves the report and the provider's model
    first = fem.assemble(grid, velocities[0], lam_eff, source=config.source)
    report = fem.stability_report(grid, velocities[0], lam_eff, system=first)
    if config.dt is None:
        dt = fem.default_time_step(report)
    else:
        dt = float(config.dt)
        if not report.approves(dt) and not config.force_dt:
            raise ValueError(
                f"time step {dt:g} exceeds the stable limit "
                f"{report.critical_dt:g}; set force_dt (the command "
                f"line's --force) to run anyway"
            )

    if config.sensor_file:
        network = sensing.load_sensor_layout(config.sensor_file, grid)
    else:
        if config.sensor_layout == "fence":
            positions, located = sensing._fence_layout(
                grid, config.source, config.sensor_count
            )
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, STREAM_SENSORS))
            )
            positions = sensing.generate_positions(
                grid, config.sensor_count, rng
            )
            located = None
        network = sensing.SensorNetwork.build(
            grid, positions,
            noise_var=config.sensor_noise,
            detect_rate=config.detect_rate,
            scale=config.quantiser_scale,
            levels=config.quantiser_levels,
            located=located,
        )

    provider = ModelProvider(
        grid, flow, velocities, lam_eff, dt, config.field_noise,
        config.strength_walk, source=config.source, first_system=first,
    )
    return Scenario(
        config=config, mesh=grid, network=network, provider=provider,
        report=report, diffusivity_eff=lam_eff, dt=dt,
    )


def draw_observation(
    network: sensing.SensorNetwork, state_vector, rng
) -> sensing.QuantisedObservation:
    """One network reading of ``state_vector`` with fresh draws from ``rng``.

    The pre-quantisation reading is ``y = alpha * (H x) + noise``; the noise
    is added whether or not the signal was detected.  Draw order is fixed:
    detection indicators first, then measurement noise.
    """
    alpha = (rng.random(network.count) < network.detect_rate).astype(float)
    # the bytes of rng.normal(0.0, noise_sd) but for a sign of zero, which
    # the quantiser maps to the same level
    noise = network.noise_sd * rng.standard_normal(network.count)
    y = alpha * (network.H @ state_vector) + noise
    return sensing.QuantisedObservation(
        values=network.quantise(y), detections=alpha, raw=y,
    )


def simulate_ground_truth(
    scenario: Scenario, rng
) -> tuple[np.ndarray, sensing.QuantisedObservation]:
    """Simulate the true trajectory and its quantised observation log.

    The truth holds the source strength constant (the random walk is the
    filter's model, not the generator's) while the field receives Gaussian
    process noise each step.  Per step the draw order is field noise, then
    detection indicators, then measurement noise.

    Returns the ``(K + 1, C + 1)`` state trajectory (initial state first)
    and the readings after each step, one observation of ``(K, N)`` arrays.
    """
    config = scenario.config
    n = scenario.mesh.node_count
    states = np.zeros((config.steps + 1, n + 1))
    states[0, -1] = config.strength
    shape = (config.steps, scenario.network.count)
    values, detections, raw = (np.empty(shape) for _ in range(3))
    field_sd = np.sqrt(config.field_noise)
    noise = np.zeros(n + 1)            # the strength increment stays zero
    for k in range(config.steps):
        model = scenario.provider.model_at(k)
        noise[:-1] = rng.normal(0.0, field_sd, n)
        states[k + 1] = fem.step(model, states[k], noise)
        obs = draw_observation(scenario.network, states[k + 1], rng)
        values[k], detections[k], raw[k] = obs.values, obs.detections, obs.raw
    return states, sensing.QuantisedObservation(values, detections, raw)


def _trial_rng(config: ScenarioConfig, stream: int, trial: int):
    return np.random.default_rng(
        np.random.SeedSequence((config.seed, stream, trial))
    )


def simulate_trial(
    scenario: Scenario, trial: int
) -> tuple[np.ndarray, sensing.QuantisedObservation]:
    """Trial ``trial``'s truth and readings, drawn from its truth
    stream ``(seed, STREAM_TRUTH, trial)``; see :func:`simulate_ground_truth`.
    """
    return simulate_ground_truth(
        scenario, _trial_rng(scenario.config, STREAM_TRUTH, trial))


def run_filter(scenario: Scenario, observations: Sequence, rng) -> np.ndarray:
    """Run the configured estimator over a ``(K, N)`` observation log, or
    any sequence of ``(N,)`` rows; returns ``(K, C+1)`` estimates.

    The log may be no longer than the configured horizon, over which the
    particle filter's gain schedule runs.
    """
    config = scenario.config
    if len(observations) > config.steps:
        raise ValueError(
            f"observation log has {len(observations)} steps, the scenario "
            f"horizon is {config.steps}"
        )
    with _schedule_stream(scenario) as schedule:
        (estimates,), _, _ = _filter_in_lockstep(scenario, [observations],
                                                 [rng], schedule)
    return estimates


# A forked child's items stream the particle filter's schedule steps: the
# pipe's default 64 KiB holds less than one desk step (142 KB)
_PIPE_BYTES = 1 << 20
# seconds the caller waits for a forked child to end before ending it
_PRODUCER_GRACE = 5.0


@contextlib.contextmanager
def _forked(name: str, items, *args):
    """A child process ``name`` forked to send each item of ``items(*args)``
    through a pipe of up to 1 MiB; yields the receiving end and the child,
    for :func:`_receive`.

    The child sends an item as ``(True, item)`` and an exception it raises
    as ``(False, exc)``.  It ignores SIGINT, which the caller answers by
    leaving the block, and SIGTERM ends it through its ``finally`` blocks,
    so a child it forked itself ends with it.  Leaving the block closes the
    pipe and reaps the child: a child still sending ends at its next send,
    and one that has not ended within ``_PRODUCER_GRACE`` seconds, or at
    once when an exception leaves the block, is terminated.
    """
    # fork, not spawn: the child needs the caller's objects
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, name=name,
                            args=(items, args, reader, writer))
    grace = 0.0
    try:
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            with contextlib.suppress(OSError):      # a refusal keeps 64 KiB
                fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        child.start()
        writer.close()
        yield reader, child
        grace = _PRODUCER_GRACE
    finally:
        reader.close()
        writer.close()
        if child.pid is not None:
            child.join(grace)
            if child.exitcode is None:
                child.terminate()
                child.join()
            child.close()


def _child_main(items, args, reader, writer) -> None:
    """The body of a :func:`_forked` child."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # SIGTERM exits through the finally blocks, which end a child of this one
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    reader.close()      # so that a send fails once the caller closes its end
    try:
        for item in items(*args):
            writer.send((True, item))
    except Exception as exc:  # noqa: BLE001 - raised again by the caller
        with contextlib.suppress(OSError):  # the caller has stopped reading
            writer.send((False, exc))


def _receive(reader, child, missing: str):
    """The next item a :func:`_forked` child sends through ``reader``;
    raises what the child raised in its place, and ``RuntimeError`` saying
    it ended without sending ``missing`` if it ended without an item."""
    try:
        sent, item = reader.recv()
    except EOFError:
        child.join(_PRODUCER_GRACE)
        raise RuntimeError(
            f"the {child.name} process ended without sending {missing} "
            f"(exit code {child.exitcode})") from None
    if not sent:
        raise item
    return item


@contextlib.contextmanager
def _schedule_stream(scenario: Scenario):
    """Under the particle filter, the steps of ``scenario.gain_schedule()``,
    computed in a forked child process (see :func:`_forked`) while the
    caller works; None under the ensemble filter.

    The models and the schedule with its sensor and band plans are formed
    here, before the fork, so the child inherits them and a bad ``H`` or
    ``init_cov`` raises at the call.  The child sends each step as it is,
    its gain laid out as LAPACK returns it (F-ordered, which pickling
    keeps and the estimates' bytes depend on), but without the last step's
    covariance; it runs ahead of the reader by at most the pipe's 1 MiB
    and the step it is forming.  A step the child fails to form raises
    here, at that step, as the child raised it.  With other threads alive,
    which a fork could find holding a lock, the schedule is yielded as it
    is, computed as it is read.
    """
    if scenario.config.estimator != "rbpf":
        yield None
        return
    schedule = scenario.gain_schedule()
    if threading.active_count() > 1:
        yield schedule
        return
    with _forked("gain-schedule", _sent_steps, schedule) as (reader, child):
        del schedule
        yield (_receive(reader, child, "a step")
               for _ in range(scenario.config.steps))


def _sent_steps(schedule) -> Iterator[filters.KalmanStep]:
    """The schedule child's items: the steps of ``schedule``, none with its
    covariance."""
    for step in schedule:
        yield step._replace(cov=None)


def _filter_in_lockstep(
    scenario: Scenario, logs: Sequence[Sequence], rngs: Sequence,
    schedule: Optional[Iterator[filters.KalmanStep]],
) -> tuple[list[np.ndarray], list[float], float]:
    """Run the configured estimator once per observation log, ``rngs``
    giving each filter's stream; the logs share one length, at most the
    horizon.

    All filters advance together, one step at a time.  Each step's model
    is read once for every filter, and so is what each filter's step takes
    in its fourth slot.  For the particle filter that is the next step of
    ``schedule``, a :func:`_schedule_stream`, shared by every filter and
    dropped before the next is read.  For the ensemble filter it is each
    ensemble's draws, which one worker thread fills one step ahead (see
    :func:`_draws_ahead`) while this thread runs the step before; the
    thread ends with the loop, on success or failure.  Returns each log's
    ``(K, C+1)`` estimates, the seconds each filter spent in its steps, and
    the seconds spent waiting for the fourth slots: for schedule steps, or
    for draws.
    """
    config = scenario.config
    model = scenario.provider.model_at(0)
    horizon = len(logs[0])
    estimates = [np.empty((horizon, scenario.state_dim)) for _ in logs]
    seconds = [0.0] * len(logs)
    reading = 0.0
    with ThreadPoolExecutor(max_workers=1) as pool:   # no thread until a draw
        if config.estimator == "rbpf":
            states = [filters.rbpf_init(model, scenario.network, config.size,
                                        rng) for rng in rngs]
            step = filters.rbpf_step
            # a map holds no step once it has passed it on
            slots = map(lambda kalman: (kalman,) * len(logs), schedule)
        else:
            states = [filters.enkf_init(model, scenario.network, config.size,
                                        rng, cov=config.init_cov)
                      for rng in rngs]
            step = filters.enkf_step
            slots = _draws_ahead(pool, [(state.rng, filters._draw_shapes(state))
                                        for state in states], horizon)
        for k in range(horizon):
            start = time.perf_counter()
            kalmans = next(slots)
            reading += time.perf_counter() - start
            model = scenario.provider.model_at(k)
            for i, log in enumerate(logs):
                start = time.perf_counter()
                states[i], estimates[i][k] = step(states[i], log[k], model,
                                                  kalmans[i])
                seconds[i] += time.perf_counter() - start
            del kalmans     # so no gain is held while the next step is formed
    return estimates, seconds, reading


def _draws_ahead(pool: ThreadPoolExecutor, plans: list,
                 horizon: int) -> Iterator[list]:
    """Each of ``horizon`` steps' :func:`filters.enkf_step` draws for every
    ensemble of a lockstep group, one list per step, filled on ``pool``'s
    one worker thread; ``plans`` holds each ensemble's generator and draw
    shapes.

    The buffers are allocated here, on the calling thread, so the worker
    only fills them, and it calls nothing the benchmark tracer wraps (no
    function in a module's ``__all__``).  The next step's draws are
    ordered as the current ones are taken, and none past the horizon, so
    the worker runs at most one step ahead and draws what the steps would
    draw inline, in their order.
    """
    def order():
        return [pool.submit(filters._fill_draws, rng, *map(np.empty, shapes))
                for rng, shapes in plans]

    pending = order() if horizon else []
    for k in range(horizon):
        draws = [future.result() for future in pending]
        pending = order() if k + 1 < horizon else []
        yield draws
        del draws


@dataclass
class TrialResult:
    """Outcome of one Monte Carlo trial.

    ``truth`` and ``estimates`` cover steps 1..K (the estimated steps);
    ``errors`` holds per-step Euclidean norms over the augmented state.
    """

    trial: int
    truth: np.ndarray
    estimates: np.ndarray
    errors: np.ndarray
    aee_contribution: float
    runtime: float

    @property
    def strengths(self) -> np.ndarray:
        """Per-step strength estimates."""
        return self.estimates[:, -1]

    @property
    def steps(self) -> int:
        return self.errors.shape[0]


def _log_array(trial: int, log, shape=None) -> np.ndarray:
    """Trial ``trial``'s observation log as a float array, of ``shape`` if
    given; ``ValueError`` naming the trial if numpy cannot make one of it
    (a ragged list) or it has another shape."""
    try:
        log = np.asarray(log, dtype=float)
    except ValueError as exc:
        raise ValueError(f"observation log of trial {trial} is not a "
                         f"(steps, sensors) array: {exc}") from None
    if shape is not None and log.shape != shape:
        raise ValueError(f"observation log of trial {trial} has shape "
                         f"{log.shape}, config expects {shape}")
    return log


def _score(trial: int, truth_states: np.ndarray, estimates: np.ndarray,
           runtime: float) -> TrialResult:
    """The result of estimates scored against the truth states, initial
    state first."""
    truth = truth_states[1:]
    errors = np.linalg.norm(truth - estimates, axis=1)
    aee = float(errors.mean()) if errors.size else 0.0
    return TrialResult(
        trial=trial,
        truth=truth,
        estimates=estimates,
        errors=errors,
        aee_contribution=aee,
        runtime=runtime,
    )


def _run_batch(
    scenario: Scenario, indices: Sequence[int],
    logs: Sequence[Optional[np.ndarray]],
) -> tuple[list[TrialResult], float]:
    """Trials ``indices`` of ``scenario`` under the configured estimator,
    ``logs`` giving each trial's ``(K, N)`` observation log or None to use
    the simulated readings' quantised values, all a filter reads of them.

    The particle filter's schedule starts in its own process (see
    :func:`_schedule_stream`) before every trial's truth is simulated, so
    the two overlap.  The estimator then runs in lockstep groups (see
    :func:`_filter_in_lockstep`): one group of every trial for the particle
    filter, so that they read the one streamed schedule, and groups of one
    trial for the ensemble filter, which in lockstep would hold every
    trial's ensemble at once.  Returns the results in the order of
    ``indices`` and the seconds the loop waited for schedule steps, or, for
    the ensemble filter, for draws.
    """
    config = scenario.config
    truths, obs_logs, runtimes = [], [], []
    stream = _ESTIMATOR_STREAMS[config.estimator]
    rngs = [_trial_rng(config, stream, i) for i in indices]
    width = len(indices) if config.estimator == "rbpf" else 1
    estimates, seconds, schedule_seconds = [], [], 0.0
    with _schedule_stream(scenario) as schedule:
        for i, log in zip(indices, logs):
            start = time.perf_counter()
            truth_states, readings = simulate_trial(scenario, i)
            runtimes.append(time.perf_counter() - start)
            truths.append(truth_states)
            obs_logs.append(readings.values if log is None else log)
        for g in range(0, len(indices), width):
            group, own, reading = _filter_in_lockstep(
                scenario, obs_logs[g:g + width], rngs[g:g + width], schedule)
            estimates += group
            seconds += own
            schedule_seconds += reading
    results = [_score(i, truth, est, runtime + own) for i, truth, est, runtime,
               own in zip(indices, truths, estimates, runtimes, seconds)]
    return results, schedule_seconds


def _batch_results(*args) -> Iterator[tuple]:
    """A worker's one item: :func:`_run_batch` of ``args``."""
    yield _run_batch(*args)


class TrialRun(list):
    """Trial results in trial order; ``runtime_schedule`` holds the seconds
    the filter loop waited for the particle filter's gain-schedule steps
    from the process computing them, or for the ensemble filter's draws
    from the worker thread, summed over the processes that ran the trials,
    which no trial's ``runtime`` includes.  A trial's ``runtime`` is its
    truth simulation plus its own estimator steps."""

    runtime_schedule = 0.0


def run_trials(
    config: ScenarioConfig,
    threads: int = 1,
    observations: Optional[Mapping[int, np.ndarray]] = None,
) -> TrialRun:
    """Run all configured trials, in one process or across ``threads``.

    ``observations`` maps each trial index to a ``(steps, sensors)``
    observation log that replaces the simulated one (e.g. read from file);
    another shape is refused before anything forks.  The scenario is
    built once.  The trials are split into ``min(threads, trials)``
    contiguous batches, each run by a worker process forked through
    :func:`_forked`, whose one item is the batch's results; one batch, and
    every trial beside another live thread, runs in this process instead.
    Each batch runs its trials through the one filter loop (see
    :func:`_run_batch`); under the particle filter it streams its own gain
    schedule from a forked child process, so no process holds the schedule
    whole and with workers this process builds none.  An error or an
    interrupt here ends every worker still running, and its child, at once.
    Results are ordered by trial index, and every trial reseeds from the
    master seed, so the outcome does not depend on the degree of
    parallelism.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    scenario = build_scenario(config)
    shape = (config.steps, scenario.network.count)
    logs = [None if observations is None
            else _log_array(i, observations[i], shape)
            for i in range(config.trials)]
    workers = min(threads, config.trials)
    if workers == 1 or threading.active_count() > 1:
        batches = [_run_batch(scenario, range(config.trials), logs)]
    else:
        bounds = [config.trials * w // workers for w in range(workers + 1)]
        with contextlib.ExitStack() as stack:
            children = [stack.enter_context(_forked(
                "trial-batch", _batch_results, scenario, range(a, b),
                logs[a:b])) for a, b in zip(bounds, bounds[1:])]
            batches = [_receive(reader, child, "its results")
                       for reader, child in children]
    results = TrialRun(r for batch, _ in batches for r in batch)
    results.runtime_schedule = sum(seconds for _, seconds in batches)
    return results


def compute_aee(results: Sequence[TrialResult]) -> float:
    """Averaged estimation error over trials and steps.

    The mean over trials of each trial's mean per-step error norm; all
    trials must share the same horizon.
    """
    if not results:
        raise ValueError("no trial results given")
    horizons = {r.steps for r in results}
    if len(horizons) != 1:
        raise ValueError(f"trials have mismatched horizons: {sorted(horizons)}")
    return float(np.mean([r.aee_contribution for r in results]))


def write_results_csv(results: Sequence[TrialResult], path,
                      config: ScenarioConfig) -> None:
    """Per-step results: one row per (trial, step) with the error norm and
    the strength estimate."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config {config.scenario_hash()}\n")
        fh.write("trial,step,error,strength\n")
        for r in results:
            fh.writelines([
                "%d,%d,%.17g,%.17g\n" % (r.trial, k, error, strength)
                for k, (error, strength) in enumerate(
                    zip(r.errors.tolist(), r.strengths.tolist()), 1)
            ])


def write_summary_json(results: Sequence[TrialResult], path,
                       config: ScenarioConfig) -> dict:
    """Aggregate summary: AEE, per-step error statistics, settings, seeds.

    ``runtime_total`` sums the per-trial runtimes; ``runtime_schedule`` is
    the time the filter loop waited for gain-schedule steps, or for the
    ensemble filter for draws, that a :class:`TrialRun` carries (0 for a
    plain list).  Returns the written document as a dictionary.
    """
    errors = np.stack([r.errors for r in results])
    strengths = np.stack([r.strengths for r in results])
    doc = {
        "aee": compute_aee(results),
        "estimator": config.estimator,
        "size": config.size,
        "init_cov": config.init_cov,
        "trials": len(results),
        "steps": int(errors.shape[1]),
        "config_hash": config.scenario_hash(),
        "master_seed": config.seed,
        "trial_seeds": [
            [config.seed, _ESTIMATOR_STREAMS[config.estimator], r.trial]
            for r in results
        ],
        "per_step_error_mean": errors.mean(axis=0).tolist(),
        "per_step_error_std": errors.std(axis=0).tolist(),
        "per_step_strength_mean": strengths.mean(axis=0).tolist(),
        "per_step_strength_std": strengths.std(axis=0).tolist(),
        "runtime_total": float(sum(r.runtime for r in results)),
        "runtime_per_trial": [r.runtime for r in results],
        "runtime_schedule": float(getattr(results, "runtime_schedule", 0.0)),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def write_truth_csv(trajectories: dict[int, np.ndarray], path,
                    config: ScenarioConfig) -> None:
    """True trajectories: one row per (trial, step) with nodal values at the
    configured stride and the strength last.

    Every trajectory must be a ``(steps, C + 1)`` array with the same
    ``C``; otherwise a ``ValueError`` names the trial at fault.  A file of
    at least ``_SPLIT_VALUES`` values is formatted on two cores when two
    are usable and no other thread is alive: a forked child (see
    :func:`_forked`) writes the second half of the rows into an unnamed
    temporary file beside ``path`` while this process writes the first,
    then copies the child's file behind it.  Both halves go through one
    row format, so the bytes do not depend on the split.
    """
    if not trajectories:
        raise ValueError("no trajectories to write")
    arrays = {trial: np.asarray(states, dtype=float)
              for trial, states in sorted(trajectories.items())}
    first = next(iter(arrays))
    for trial, states in arrays.items():
        if states.ndim != 2 or states.shape[1] < 2:
            raise ValueError(f"trajectory of trial {trial} must be a (steps, "
                             f"nodes + 1) array, got shape {states.shape}")
        if states.shape[1] != arrays[first].shape[1]:
            raise ValueError(
                f"trajectory of trial {trial} has {states.shape[1]} columns, "
                f"but trial {first} has {arrays[first].shape[1]}")
    stride = config.node_stride
    nodes = range(0, arrays[first].shape[1] - 1, stride)
    # one format per row; "%.17g" writes the same 17 significant digits as
    # format(x, ".17g"), so every value reads back bit for bit
    row = "%d,%d," + ",".join(["%.17g"] * (len(nodes) + 1)) + "\n"
    rows = sum(len(states) for states in arrays.values())
    half = rows // 2
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config {config.scenario_hash()}\n")
        cols = ",".join(f"c_{i}" for i in nodes)
        fh.write(f"trial,step,{cols},strength\n")
        if not (half and rows * (len(nodes) + 1) >= _SPLIT_VALUES
                and _usable_cores() > 1
                and threading.active_count() == 1):
            fh.writelines(_truth_rows(row, arrays, stride, 0, rows))
            return
        folder = os.path.dirname(os.path.abspath(path))
        with tempfile.TemporaryFile("w+", encoding="utf-8",
                                    dir=folder) as part, _forked(
                "truth-writing", _write_rows, part, _truth_rows(
                    row, arrays, stride, half, rows)) as (reader, child):
            fh.writelines(_truth_rows(row, arrays, stride, 0, half))
            _receive(reader, child, "every row")
            fh.flush()
            part.seek(0)
            shutil.copyfileobj(part.buffer, fh.buffer)


# Values a truth file must hold before its second half is formatted in a
# forked child.  From an 80 MB process on 2 cores the fork, the copy of the
# child's text and the reaping cost about 5 ms over half the inline time
# (0.45-0.51 us a value), and the split broke even near 20,000 values
_SPLIT_VALUES = 20_000


def _usable_cores() -> int:
    """The cores this process may run on; 1 where the platform cannot
    tell."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


def _truth_rows(row: str, arrays: dict, stride: int, start: int,
                stop: int) -> Iterator[str]:
    """The text of rows ``start`` to ``stop`` (excluded) of a truth file's
    data, counted through the trajectories ``arrays`` in order: ``row``
    formatted with the trial, the step, every ``stride``-th nodal value and
    the strength."""
    for trial, states in arrays.items():
        lo, hi = max(start, 0), min(stop, len(states))
        if lo < hi:
            picked = np.column_stack(
                [states[lo:hi, :-1:stride], states[lo:hi, -1]])
            for k, values in enumerate(picked, lo):
                yield row % (trial, k, *values.tolist())
        start -= len(states)
        stop -= len(states)


def _write_rows(part, lines: Iterator[str]) -> Iterator[None]:
    """The truth writer's child: writes ``lines`` into the file ``part``;
    its one item, None, says they are all written."""
    part.writelines(lines)
    part.flush()
    yield None


def write_observations_csv(
    logs: Mapping[int, np.ndarray], path, config: ScenarioConfig,
) -> None:
    """Observation log: one row per (trial, step, sensor) quantised value.

    The logs must be those of trials ``0..T-1``, each a ``(K, N)`` array
    of the same shape, as :func:`load_observations_csv` returns them, and
    every value finite; any other ``logs`` raises ``ValueError`` naming
    the trial at fault, and for a value its step and sensor.  Each
    distinct value, told apart by its bits, is formatted once.
    """
    grid = _observation_grid(logs)
    trials, steps, sensors = grid.shape
    keys, index = np.unique(grid.reshape(-1).view(np.int64),
                            return_inverse=True)
    texts = np.array(["%.17g\n" % v for v in keys.view(np.float64).tolist()],
                     dtype=object)[index].tolist()
    cells = [f",{k},{j}," for k in range(1, steps + 1)
             for j in range(sensors)]
    count = len(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config {config.scenario_hash()}\n")
        fh.write("trial,step,sensor,value\n")
        for trial in range(trials):
            # the rows of one trial in one join: trial, ",step,sensor,",
            # then the value's text and newline
            row = [None] * (3 * count)
            row[0::3] = [str(trial)] * count
            row[1::3] = cells
            row[2::3] = texts[trial * count:(trial + 1) * count]
            fh.write("".join(row))


def _observation_grid(logs) -> np.ndarray:
    """The values of ``logs`` as one ``(T, K, N)`` array, trial ``t`` at
    ``[t]``; a log :func:`load_observations_csv` could not read back raises
    ``ValueError`` naming its trial, and for a non-finite value its step
    and sensor."""
    if not logs:
        raise ValueError("no observation logs to write")
    missing = [t for t in range(len(logs)) if t not in logs]
    if missing:
        raise ValueError(f"no observation log for trial {missing[0]}: the "
                         f"{len(logs)} logs must be trials 0..{len(logs) - 1}")
    grid = [_log_array(trial, logs[trial]) for trial in range(len(logs))]
    for trial, log in enumerate(grid):
        if not log.ndim or not len(log):
            raise ValueError(f"observation log of trial {trial} has no steps")
        if not trial and (log.ndim != 2 or not log.shape[1]):
            raise ValueError(f"observation log of trial {trial} holds "
                             f"values of shape {log.shape[1:]} at step 1, "
                             f"not one per sensor")
        if len(log) != len(grid[0]):
            raise ValueError(f"observation log of trial {trial} has "
                             f"{len(log)} steps, but trial 0 has "
                             f"{len(grid[0])}")
        if log.shape != grid[0].shape:
            raise ValueError(f"observation log of trial {trial} holds "
                             f"{log[0].size} values at step 1, but trial 0 "
                             f"holds {grid[0].shape[1]} at step 1")
    grid = np.array(grid)
    bad = ~np.isfinite(grid)
    if bad.any():
        trial, k, sensor = np.unravel_index(np.argmax(bad), grid.shape)
        raise ValueError(f"observation log of trial {trial} holds "
                         f"{grid[trial, k, sensor]} at step {k + 1}, sensor "
                         f"{sensor}: values must be finite")
    return grid


def load_observations_csv(path) -> tuple[str, dict[int, np.ndarray]]:
    """Read an observation CSV back into per-trial ``(K, N)`` arrays.

    Returns the embedded config hash and the per-trial arrays; values
    round-trip exactly thanks to full-precision formatting.  Every
    (trial, step, sensor) cell of trials ``0..T-1``, steps ``1..K`` and
    sensors ``0..N-1`` must hold exactly one finite value; otherwise a
    ``ValueError`` names the bad row or cell.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    config_hash = next(
        (line.split()[-1] for line in lines if line.startswith("# config")), "")
    rows = [line for line in lines
            if line.strip() and not line.startswith(("#", "trial"))]
    if not rows:
        raise ValueError(f"observation file {path} contains no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"observation file {path}: {exc}") from exc
    if data.shape[1] != 4:
        raise ValueError(f"observation file {path}: rows must hold trial, "
                         f"step, sensor and value")
    # whole indices from (0, 1, 0) on, checked before the cast, which a NaN
    # or an index beyond int64 would make warn and wrap
    index = data[:, :3]
    bad = ~((index >= (0, 1, 0)) & (index < 2.0 ** 53)
            & (index == np.floor(index))).all(axis=1)
    bad |= ~np.isfinite(data[:, 3])
    if bad.any():
        raise ValueError(f"observation file {path}: bad row "
                         f"{rows[np.argmax(bad)]!r}")
    cells = index.astype(int) - (0, 1, 0)
    # sorted, a complete file lists every cell once, each row the successor
    # of the row before, from (0, 0, 0) to the grid's last cell; the first
    # row that breaks the chain names the first repeated or missing cell.
    # Nothing is sized by an index, which may be far beyond the row count.
    order = np.lexsort(cells.T[::-1])
    cells = cells[order]
    shape = cells.max(axis=0) + 1
    expected = np.vstack([np.zeros((1, 3), dtype=int), cells])
    expected[1:, 2] += 1
    for axis in (2, 1):
        carry = expected[:, axis] == shape[axis]
        expected[carry, axis] = 0
        expected[carry, axis - 1] += 1
    broken = (expected != np.vstack([cells, (shape[0], 0, 0)])).any(axis=1)
    if broken.any():
        k = int(np.argmax(broken))
        repeated = 0 < k < len(cells) and (cells[k] == cells[k - 1]).all()
        trial, step, sensor = cells[k] if repeated else expected[k]
        what = "repeated values" if repeated else "no value"
        raise ValueError(f"observation file {path} has {what} for trial "
                         f"{trial}, step {step + 1}, sensor {sensor}")
    return config_hash, dict(enumerate(data[order, 3].reshape(shape)))
