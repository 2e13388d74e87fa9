#!/usr/bin/env python3
"""Benchmark of the plumetrace pipeline as a user runs it.

Each round calls the CLI in process, through ``plumetrace.cli.main``:
``simulate``, ``estimate`` with the RBPF config, ``estimate`` with the EnKF
config and ``compare``, one command after the other from one process with
one BLAS thread (a closed loop).  Rounds repeat until ``--seconds`` have
passed and at least the workload's quality rounds are done; every round
then runs the correctness checks of ``checks.py`` on its outputs, in a
forked child process so that their memory stays out of ``peak_rss_mb``.
Every command and every check is one operation; a failed one counts in
``failed``.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, taken from the
traced rounds, and the tracing overhead: traced minus untraced round time,
and the span count times the measured cost of one span.
The last line of standard output is the result as one JSON object; the
line before it gives the machine.  The full record, with every round's
samples, goes to ``.bench_work/BENCH_<workload>-seed<n>-trace<t>.json``,
and a traced run also writes its spans there.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:    # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from functools import cached_property  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import ocean_flow  # noqa: E402
from tracing import Tracer, span_cost  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_BUILDS = 15          # build_scenario repetitions behind setup_s
SIMULATE_REPEATS = 5       # simulate lasts 0.1-0.2 s: time it 5 times a round
ROUND_SEED_STRIDE = 1000   # round r of seed s runs the CLI with s * 1000 + r

# the checks run on each round's outputs, in order
CHECKS = ("observations_on_level_grid", "observations_reader_roundtrip",
          "error_bounds_strength_error", "summary_aee_recomputed",
          "spectral_radius", "probe_covariance_psd", "truth_residual_sd",
          "rbpf_beats_enkf", "rbpf_strength_range")

# Median times of the two calibration loops on the reference machine (2
# cores, OpenBLAS 0.3.31 on one thread).  Reported times are scaled to it,
# because that machine's speed drifts by 10-40% within minutes; see README.
REF_CALIBRATION = (0.035, 0.017)
# A command's time moves with the calibration time to this power.  Regressing
# log time on log calibration time over two sets of ten runs gave 0.9-1.1
# for simulate and set-up and 0.6-0.9 for the estimate commands, which gain
# less than the loops when the machine runs fast.
ESTIMATE_EXPONENT = 0.7

# per-layer metric -> (span name, statistic); statistics are per traced
# round: "s" total seconds, "calls" call count, "self" seconds minus the
# time of wrapped children
LAYERS = {
    "mesh.build_s": ("mesh.build_structured_mesh", "s"),
    "sensing.network_build_s": ("sensing.SensorNetwork.build", "s"),
    "fem.stability_report_s": ("fem.stability_report", "s"),
    "fem.assemble_s": ("fem.assemble", "s"),
    "fem.assemble_calls": ("fem.assemble", "calls"),
    "flowfield.load_s": ("experiment._build_flow", "s"),
    "flowfield.element_velocities_s": ("flowfield.element_velocities", "s"),
    "flowfield.element_velocities_calls": ("flowfield.element_velocities",
                                           "calls"),
    "fem.build_model_s": ("fem.build_model", "s"),
    "fem.build_model_calls": ("fem.build_model", "calls"),
    "experiment.model_at_calls": ("experiment.ModelProvider.model_at",
                                  "calls"),
    "fem.augmented_transition_s": ("fem.DispersionModel.augmented_transition",
                                   "s"),
    "filters.rbpf_step_s": ("filters.rbpf_step", "s"),
    "filters.rbpf_step_calls": ("filters.rbpf_step", "calls"),
    "filters.rbpf_step_self_s": ("filters.rbpf_step", "self"),
    "sensing.log_likelihood_s": ("sensing.SensorNetwork.log_likelihood", "s"),
    "sensing.log_likelihood_calls": ("sensing.SensorNetwork.log_likelihood",
                                     "calls"),
    "filters.latent_logpdf_s": ("filters.latent_transition_logpdf", "s"),
    "filters.normalise_weights_s": ("filters.normalise_weights", "s"),
    "filters.resample_s": ("filters.multinomial_resample", "s"),
    "filters.resample_count": ("filters.multinomial_resample", "calls"),
    "filters.enkf_step_s": ("filters.enkf_step", "s"),
    "filters.enkf_update_s": ("filters.enkf_update", "s"),
    "experiment.simulate_ground_truth_s": ("experiment.simulate_ground_truth",
                                           "s"),
    "fem.step_s": ("fem.step", "s"),
    "sensing.quantise_s": ("sensing.SensorNetwork.quantise", "s"),
    "experiment.write_truth_csv_s": ("experiment.write_truth_csv", "s"),
    "experiment.write_observations_csv_s": (
        "experiment.write_observations_csv", "s"),
    "experiment.load_observations_csv_s": (
        "experiment.load_observations_csv", "s"),
    "experiment.write_results_csv_s": ("experiment.write_results_csv", "s"),
    "experiment.write_summary_json_s": ("experiment.write_summary_json", "s"),
}


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def outcome(fn, *args):
    """``None`` when ``fn(*args)`` passes, else its message or exception."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return f"{type(exc).__name__}: {exc}"


def in_child(fn, *args):
    """Return ``fn(*args)``, computed in a forked child process.

    The benchmark's own checks run this way, so the memory they take stays
    out of this process's peak resident memory (``peak_rss_mb``), which then
    covers only the configs, set-up and the CLI commands.  An exception in
    ``fn`` is raised here as a ``RuntimeError`` carrying its message.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:    # child: send (ok, value) and leave without clean-up
        code = 0
        try:
            os.close(read_fd)
            try:
                reply = (True, fn(*args))
            except BaseException as exc:  # noqa: BLE001 - sent to the parent
                reply = (False, f"{type(exc).__name__}: {exc}")
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(reply, fh)
        except BaseException:  # noqa: BLE001 - the parent sees no reply
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 - no reply or a cut-off one
        raise RuntimeError(f"check process sent no reply (wait status "
                           f"{status}): {type(exc).__name__}") from exc
    if not ok:
        raise RuntimeError(value)
    return value


def import_program():
    """Import plumetrace from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "plumetrace" / "__init__.py").is_file():
        fail(f"no plumetrace sources under {src}")
    sys.path.insert(0, str(src))
    import plumetrace
    import plumetrace.cli
    if Path(plumetrace.__file__).resolve().parent != src / "plumetrace":
        fail(f"imported plumetrace from {plumetrace.__file__}, not {src}")
    return plumetrace


def machine() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


_CAL_MATRIX = np.linspace(0.0, 1.0, 442 * 442).reshape(442, 442)


def calibration():
    """Times of a fixed matrix-product loop and a fixed float-formatting loop.

    Both loops are fixed work, so their times follow the machine's speed.
    Each is timed in pieces and reported as its median piece times the
    piece count, so one interruption does not move it.
    """
    gemm, fmt = [], []
    for _ in range(10):
        start = time.perf_counter()
        _CAL_MATRIX @ _CAL_MATRIX
        gemm.append(time.perf_counter() - start)
    for _ in range(5):
        start = time.perf_counter()
        ",".join(format(i * 1.1, ".17g") for i in range(4000))
        fmt.append(time.perf_counter() - start)
    return 10 * statistics.median(gemm), 5 * statistics.median(fmt)


def speed(calibrations, exponent: float = 1.0) -> float:
    """Factor that takes a time to the reference machine's speed.

    ``calibrations`` were taken around the timed code; the factor is the
    reference over their mean loop time, to the power ``exponent``.
    """
    measured = statistics.mean(sum(c) for c in calibrations)
    return (sum(REF_CALIBRATION) / measured) ** exponent


class RoundFiles:
    """Lazily parsed outputs of one round; a parse error re-raises on use."""

    def __init__(self, out: Path, trials: int, steps: int, sensors: int):
        self.out = out
        self.trials = trials
        self.steps = steps
        self.sensors = sensors

    @cached_property
    def observations(self):
        return checks.parse_observations(
            self.out / "observations.csv", self.trials, self.steps,
            self.sensors)

    @cached_property
    def truth(self):
        return checks.truth_states(self.out / "truth.csv")

    @cached_property
    def estimates(self):
        return {kind: checks.estimate_rows(self.out / f"estimates_{kind}.csv")
                for kind in ("rbpf", "enkf")}

    def aee(self, kind: str) -> float:
        with open(self.out / f"summary_{kind}.json", encoding="utf-8") as fh:
            return float(json.load(fh)["aee"])


class Run:
    """One benchmark run of one workload."""

    def __init__(self, pt, workload, seed: int, work: Path, trace: bool):
        self.pt = pt
        self.wl = workload
        self.seed = seed
        self.work = work
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.rounds: list = []
        self.setup_samples: list = []
        self.setup_cal: list = []    # calibration before and after each build
        # memos of the model checks, filled in check processes
        self.radius: dict = {}       # model digest -> spectral radius
        self.probe: dict = {}        # probe key -> check message
        self.probe_s = None          # probe time at the reference speed

    # -- operations --------------------------------------------------------
    def op(self, name: str, fn, *args) -> None:
        """Run one operation; a message or an exception makes it fail."""
        self.record(name, outcome(fn, *args))

    def record(self, name: str, message) -> None:
        """Count one operation, failed when it gave a message."""
        self.attempted += 1
        if message is not None:
            self.failed += 1
            self.failures.append(f"round {len(self.rounds)} {name}: {message}")
            print(f"FAILED {self.failures[-1]}", file=sys.stderr)

    def cli(self, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = self.pt.cli.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            return f"exit code {code}: {buf.getvalue().strip()[-400:]}"
        return None

    # -- preparation -------------------------------------------------------
    def prepare(self) -> None:
        """Write the configs (and the ocean flow), then time set-up."""
        self.configs = {}
        flow = self.work / "flow.txt" if self.wl.ocean else None
        for kind in ("rbpf", "enkf"):
            path = self.work / f"{kind}.cfg"
            path.write_text(self.wl.config_text(kind, flow))
            self.configs[kind] = path
        if self.wl.ocean:
            ocean_flow.make_flow(self.seed, flow, self.configs["rbpf"])
        config = self.load_config(self.round_seed(0))
        self.setup_cal.append(calibration())
        for _ in range(SETUP_BUILDS):
            start = time.perf_counter()
            self.pt.experiment.build_scenario(config)
            self.setup_samples.append(time.perf_counter() - start)
            self.setup_cal.append(calibration())

    def load_config(self, seed: int):
        config = self.pt.cli.load_config(self.configs["rbpf"])
        config.seed = seed
        return config

    def round_seed(self, r: int) -> int:
        return self.seed * ROUND_SEED_STRIDE + r

    def scenario_models(self, seed: int):
        """The scenario the CLI builds for ``seed`` and its per-step models."""
        scenario = self.pt.experiment.build_scenario(self.load_config(seed))
        models = [scenario.provider.model_at(k)
                  for k in range(scenario.config.steps)]
        return scenario, models

    # -- model checks (memoised on the models' content) --------------------
    def check_radius(self, models):
        digests = {checks.model_digest(m): m for m in models}
        for digest, model in digests.items():
            if digest not in self.radius:
                self.radius[digest] = checks.spectral_radius(model)
        return checks.check_radius([self.radius[d] for d in digests])

    def check_probe(self, scenario, models):
        h = scenario.network.H
        key = hashlib.sha256(
            "".join(checks.model_digest(m) for m in models).encode()
            + np.ascontiguousarray(h).tobytes()
            + repr(scenario.config.init_cov).encode()).hexdigest()
        if key not in self.probe:
            cal = [calibration()]
            start = time.perf_counter()
            try:
                cov = checks.kalman_probe(models, h, scenario.config.init_cov,
                                          self.pt.filters)
            except self.pt.filters.FilterError as exc:
                self.probe[key] = f"probe failed: {exc}"
                return self.probe[key]
            seconds = time.perf_counter() - start
            cal.append(calibration())
            self.probe_s = seconds * speed(cal)
            self.probe[key] = checks.check_covariance(cov)
        return self.probe[key]

    def memos(self) -> dict:
        return {"radius": self.radius, "probe": self.probe,
                "probe_s": self.probe_s}

    def take_memos(self, memos: dict) -> None:
        self.radius, self.probe = memos["radius"], memos["probe"]
        self.probe_s = memos["probe_s"]

    def fill_memos(self) -> dict:
        """Model checks of round 0's models; returns the filled memos."""
        scenario, models = self.scenario_models(self.round_seed(0))
        self.check_radius(models)
        self.check_probe(scenario, models)
        return self.memos()

    # -- rounds ------------------------------------------------------------
    def run_round(self, traced: bool) -> None:
        r = len(self.rounds)
        seed = self.round_seed(r)
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        common = ["--seed", seed, "--out", out]
        rbpf, enkf = self.configs["rbpf"], self.configs["enkf"]
        commands = (
            (("simulate", ["simulate", "--config", rbpf, *common]),)
            * SIMULATE_REPEATS
        ) + (
            ("rbpf", ["estimate", "--config", rbpf, *common]),
            ("enkf", ["estimate", "--config", enkf, *common]),
            ("compare", ["compare", *common, out / "summary_rbpf.json",
                         out / "summary_enkf.json"]),
        )
        sample = {"round": r, "seed": seed, "traced": traced,
                  "calibration": [calibration()], "pipeline_s": 0.0,
                  "pipeline_ref_s": 0.0}
        if traced:
            self.tracer.round = r
            self.tracer.install(self.pt)
        try:
            for name, argv in commands:
                start = time.perf_counter()
                self.op(name, self.cli, *argv)
                seconds = time.perf_counter() - start
                sample["pipeline_s"] += seconds
                sample["calibration"].append(calibration())
                exponent = (ESTIMATE_EXPONENT if name in ("rbpf", "enkf")
                            else 1.0)
                scaled = seconds * speed(sample["calibration"][-2:], exponent)
                sample["pipeline_ref_s"] += scaled
                sample.setdefault(f"{name}_s", []).append(seconds)
                sample.setdefault(f"{name}_ref_s", []).append(scaled)
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.round = -1
        self.run_checks(sample, seed, out)
        self.rounds.append(sample)

    def run_checks(self, sample: dict, seed: int, out: Path) -> None:
        """Run the checks in a child process and count each one here."""
        try:
            reply = in_child(self.round_checks, seed, out)
        except RuntimeError as exc:
            for name in CHECKS:
                self.record(name, f"check process failed: {exc}")
            return
        self.take_memos(reply["memos"])
        sample.update(reply["sample"])
        for name, message in reply["checks"]:
            self.record(name, message)

    def round_checks(self, seed: int, out: Path) -> dict:
        """Messages of every check on one round's outputs, in ``CHECKS`` order.

        Also returns the accuracy figures for the round's sample and the
        memos of the model checks.
        """
        scenario, models = self.scenario_models(seed)
        config = scenario.config
        files = RoundFiles(out, self.wl.trials, config.steps,
                           scenario.network.count)
        obs_path = out / "observations.csv"

        def levels():
            return checks.check_levels(files.observations[1],
                                       config.quantiser_scale,
                                       config.quantiser_levels)

        def reader():
            digest, logs = files.observations
            return checks.check_load_roundtrip(
                obs_path, digest, logs, self.pt.experiment.load_observations_csv)

        def error_bound():
            for kind in ("rbpf", "enkf"):
                msg = checks.check_error_bound(files.estimates[kind],
                                               files.truth)
                if msg:
                    return f"{kind}: {msg}"
            return None

        def summary_aee():
            for kind in ("rbpf", "enkf"):
                msg = checks.check_aee(files.estimates[kind],
                                       out / f"summary_{kind}.json")
                if msg:
                    return f"{kind}: {msg}"
            return None

        def residuals():
            return checks.check_residuals(files.truth, models,
                                          config.field_noise)

        sample = {}

        def beats():
            sample["aee_rbpf"] = files.aee("rbpf")
            sample["aee_enkf"] = files.aee("enkf")
            return checks.check_rbpf_beats_enkf(sample["aee_rbpf"],
                                                sample["aee_enkf"])

        def strength():
            finals = checks.final_strengths(files.estimates["rbpf"])
            sample["strength_err"] = np.abs(finals - config.strength).tolist()
            return checks.check_strength_range(finals)

        results = [
            outcome(levels),
            outcome(reader),
            outcome(error_bound),
            outcome(summary_aee),
            outcome(self.check_radius, models),
            outcome(self.check_probe, scenario, models),
            outcome(residuals),
            outcome(beats),
            outcome(strength),
        ]
        return {"checks": list(zip(CHECKS, results)), "sample": sample,
                "memos": self.memos()}

    def run(self, seconds: float) -> None:
        """Rounds until ``seconds`` passed and the quality rounds are done.

        A traced run alternates untraced and traced rounds, starting
        untraced, and does at least one of each.
        """
        # fill the model checks' memos up front so the probe's cost stays
        # out of the rounds; a failure here shows again in round 0's checks
        try:
            self.take_memos(in_child(self.fill_memos))
        except RuntimeError as exc:
            print(f"model checks before the rounds: {exc}", file=sys.stderr)
        start = time.perf_counter()
        minimum = max(self.wl.quality_rounds, 2 if self.tracer else 1)
        while (time.perf_counter() - start < seconds
               or len(self.rounds) < minimum):
            traced = self.tracer is not None and len(self.rounds) % 2 == 1
            self.run_round(traced)

    # -- results -----------------------------------------------------------
    def end_to_end(self) -> dict:
        t = self.wl.trials
        untraced = [s for s in self.rounds if not s["traced"]]
        quality = self.rounds[:self.wl.quality_rounds]

        def per_trial(name):
            return statistics.median(
                x / t for s in untraced for x in s[f"{name}_ref_s"])

        def mean(key):
            if any(key not in s for s in quality):
                return None
            return float(np.mean([s[key] for s in quality]))

        cal = self.setup_cal
        setup = [x * speed(cal[i:i + 2])
                 for i, x in enumerate(self.setup_samples)]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "simulate_trial_s": (per_trial("simulate"), "s"),
            "rbpf_trial_s": (per_trial("rbpf"), "s"),
            "enkf_trial_s": (per_trial("enkf"), "s"),
            "aee_rbpf": (mean("aee_rbpf"), "state-norm"),
            "aee_enkf": (mean("aee_enkf"), "state-norm"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }

    def per_layer(self) -> dict:
        traced = [s for s in self.rounds if s["traced"]]
        totals = [self.tracer.totals(s["round"]) for s in traced]
        speeds = [speed(s["calibration"]) for s in traced]
        stat = {"s": 0, "calls": 1, "self": 2}
        metrics = {}
        for name, (span, kind) in LAYERS.items():
            values = [tot[span][stat[kind]] if span in tot else 0
                      for tot in totals]
            if kind == "calls":
                metrics[name] = (int(statistics.median(values)), "count")
            else:
                metrics[name] = (statistics.median(
                    v * f for v, f in zip(values, speeds)), "s")
        ess = [f for r, f in self.tracer.ess_fractions
               if r in {s["round"] for s in traced}]
        metrics["filters.ess_fraction"] = (float(np.median(ess)), "fraction")
        metrics["filters.strength_err"] = (float(np.mean(
            [e for s in self.rounds[:self.wl.quality_rounds]
             for e in s["strength_err"]])), "strength")
        metrics["filters.kalman_recursion_s"] = (self.probe_s, "s")
        metrics["experiment.bytes_written"] = (int(statistics.median(
            self.tracer.bytes_written[s["round"]] for s in traced)), "bytes")
        # rounds alternate untraced, traced: pair each traced round with the
        # untraced one before it
        by_round = {s["round"]: s for s in self.rounds}
        metrics["trace.overhead_s"] = (statistics.median(
            s["pipeline_ref_s"] - by_round[s["round"] - 1]["pipeline_ref_s"]
            for s in traced), "s")
        spans = statistics.median(
            sum(v[1] for v in tot.values()) for tot in totals)
        metrics["trace.spans"] = (int(spans), "count")
        cal = [calibration()]
        cost = span_cost()
        cal.append(calibration())
        metrics["trace.span_overhead_s"] = (spans * cost * speed(cal), "s")
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")
    pt = import_program()

    wl = WORKLOADS[args.workload]
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run = Run(pt, wl, args.seed, work, bool(args.trace))
    wall = time.perf_counter()
    run.prepare()
    run.run(args.seconds)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - wall,
        "machine": machine(), "setup_samples": run.setup_samples,
        "setup_calibration": run.setup_cal,
        "rounds": run.rounds, "failures": run.failures, "result": result,
    }
    (ROOT / ".bench_work" / f"BENCH_{label}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if run.tracer is not None:
        run.tracer.write(work / "spans.csv")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
