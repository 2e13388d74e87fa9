"""Tests of the benchmark itself: tiny runs and checks that catch faults.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import ocean_flow  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

pt = run.import_program()

TINY = {
    "desk": dataclasses.replace(WORKLOADS["desk"], trials=1, quality_rounds=1),
    "particles": dataclasses.replace(WORKLOADS["particles"], trials=1,
                                     quality_rounds=1),
    "ocean": dataclasses.replace(WORKLOADS["ocean"], quality_rounds=1, nx=20),
}


def fails(fn, *args) -> bool:
    """A check fails when it returns a message or raises."""
    try:
        return fn(*args) is not None
    except Exception:  # noqa: BLE001 - any exception fails the operation
        return True


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes(name, tmp_path):
    bench = run.Run(pt, TINY[name], seed=3, work=tmp_path, trace=False)
    bench.prepare()
    bench.run(0.0)
    assert bench.failures == []
    assert bench.attempted == (run.SIMULATE_REPEATS + 12) * len(bench.rounds)
    metrics = bench.end_to_end()
    assert all(value is not None and value > 0 for value, _ in metrics.values())


def test_tiny_traced_run_reports_every_layer(tmp_path):
    bench = run.Run(pt, TINY["desk"], seed=3, work=tmp_path, trace=True)
    bench.prepare()
    bench.run(0.0)
    assert bench.failures == [] and len(bench.rounds) == 2
    metrics = bench.per_layer()
    assert set(run.LAYERS) <= set(metrics)
    assert metrics["filters.rbpf_step_calls"][0] == 48
    assert 0 < metrics["filters.rbpf_step_self_s"][0] \
        < metrics["filters.rbpf_step_s"][0]
    assert 0 < metrics["filters.ess_fraction"][0] <= 1
    assert metrics["filters.kalman_recursion_s"][0] > 0
    assert 0 < metrics["trace.span_overhead_s"][0] < 1.0
    assert "trace.overhead_s" in metrics


def test_ocean_flow_depends_only_on_seed(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        ocean_flow.write_flow(7, tmp_path / sub / "flow.txt", 60.0)
    first = (tmp_path / "a" / "flow.txt").read_bytes()
    assert first == (tmp_path / "b" / "flow.txt").read_bytes()
    ocean_flow.write_flow(8, tmp_path / "a" / "flow.txt", 60.0)
    assert first != (tmp_path / "a" / "flow.txt").read_bytes()
    flow = pt.flowfield.load_gridded_flow(tmp_path / "b" / "flow.txt")
    assert flow.mask.any() and not flow.mask.all()
    assert flow.ts.size == ocean_flow.INTERVALS + 1


def test_flow_command_rebuilds_the_workload_flow(tmp_path):
    bench = run.Run(pt, WORKLOADS["ocean"], seed=4, work=tmp_path, trace=False)
    bench.prepare()
    assert ocean_flow.main(["--seed", "4", "--out",
                            str(tmp_path / "rebuilt.txt")]) == 0
    assert ((tmp_path / "rebuilt.txt").read_bytes()
            == (tmp_path / "flow.txt").read_bytes())


def test_check_process_keeps_its_memory_out_of_the_peak():
    # a fresh interpreter, so earlier tests' peaks do not hide the allocation
    code = (
        "import os, resource, sys; sys.path.insert(0, sys.argv[1]); import run\n"
        "import numpy as np\n"
        "def peak(): return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "def rss(): return int(open('/proc/self/statm').read().split()[1]) \\\n"
        "    * os.sysconf('SC_PAGE_SIZE') // 1024\n"
        "def alloc(): return float(np.ones(16_000_000).sum())\n"
        "before = peak()\n"
        "assert run.in_child(alloc) == 16e6\n"
        "child = peak() - before\n"
        "now = rss()\n"
        "alloc()\n"
        "print(child, peak() - now)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    child_kb, here_kb = map(int, proc.stdout.split())
    # the child's 128 MB did not raise the peak here; the same work in
    # process raises it above the resident memory it started from
    assert child_kb < 16 * 1024 < 100 * 1024 < here_kb, (child_kb, here_kb)


def test_check_process_failure_fails_every_check(tmp_path, monkeypatch):
    assert run.in_child(divmod, 7, 2) == (3, 1)
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        run.in_child(divmod, 1, 0)

    def crash(seed, out):
        raise ValueError("no outputs")

    bench = run.Run(pt, TINY["desk"], seed=3, work=tmp_path, trace=False)
    monkeypatch.setattr(bench, "round_checks", crash)
    sample = {}
    bench.run_checks(sample, 0, tmp_path)
    assert bench.attempted == bench.failed == len(run.CHECKS)
    assert all("no outputs" in f for f in bench.failures)


def test_tracer_restores_the_program():
    original = pt.fem.assemble
    tracer = Tracer()
    tracer.round = 0
    tracer.install(pt)
    try:
        assert pt.fem.assemble is not original
        grid = pt.mesh.build_structured_mesh(0, 0, 1, 1, 4, 4)
        pt.fem.stability_report(grid, (0.1, 0.0), 1.0)
    finally:
        tracer.uninstall()
    assert pt.fem.assemble is original
    totals = tracer.totals(0)
    report = totals["fem.stability_report"]
    assert totals["fem.assemble"][1] == 1
    assert report[2] <= report[0] - totals["fem.assemble"][0] + 1e-9


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- each check fails on a deliberately corrupted output ---------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny desk round's outputs, with the scenario and its models."""
    work = tmp_path_factory.mktemp("desk")
    bench = run.Run(pt, TINY["desk"], seed=5, work=work, trace=False)
    bench.prepare()
    bench.run(0.0)
    assert bench.failures == []
    scenario, models = bench.scenario_models(bench.round_seed(0))
    return work / "out", scenario, models


@pytest.fixture
def out(outputs, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(outputs[0], copy)
    return copy


def _rewrite(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _replace_field(line, index, value):
    fields = line.rstrip("\n").split(",")
    fields[index] = value
    return ",".join(fields) + "\n"


def _observations(path):
    return checks.parse_observations(path, 1, 48, 40)


def test_level_check_catches_off_grid_value(out):
    path = out / "observations.csv"
    assert checks.check_levels(_observations(path)[1], 24.0, 10000) is None

    def nudge(lines):
        value = float(lines[5].split(",")[3]) + 0.3 * 24.0 / 10000
        lines[5] = _replace_field(lines[5], 3, repr(value))
        return lines

    _rewrite(path, nudge)
    assert fails(checks.check_levels, _observations(path)[1], 24.0, 10000)


def test_reader_check_catches_a_missing_row(out):
    path = out / "observations.csv"
    digest, logs = _observations(path)
    _rewrite(path, lambda lines: lines[:-1])
    assert fails(checks.check_load_roundtrip, path, digest, logs,
                 pt.experiment.load_observations_csv)
    assert fails(_observations, path)


def test_error_bound_check_catches_small_error(out):
    truth = checks.truth_states(out / "truth.csv")
    path = out / "estimates_rbpf.csv"
    assert checks.check_error_bound(checks.estimate_rows(path), truth) is None
    _rewrite(path, lambda lines: lines[:2] + [_replace_field(lines[2], 2, "0")]
             + lines[3:])
    assert fails(checks.check_error_bound, checks.estimate_rows(path), truth)


def test_aee_check_catches_altered_summary(out):
    path = out / "summary_enkf.json"
    estimates = checks.estimate_rows(out / "estimates_enkf.csv")
    assert checks.check_aee(estimates, path) is None
    doc = json.loads(path.read_text())
    doc["aee"] *= 1.0 + 1e-9
    path.write_text(json.dumps(doc))
    assert fails(checks.check_aee, estimates, path)


def test_radius_check_catches_unstable_model(outputs):
    model = outputs[2][0]
    assert checks.check_radius([checks.spectral_radius(model)]) is None
    unstable = dataclasses.replace(model, transition=1.01 * model.transition)
    assert fails(checks.check_radius, [checks.spectral_radius(unstable)])


def test_covariance_check_catches_asymmetry_and_negative_eigenvalue():
    rng = np.random.default_rng(0)
    root = rng.standard_normal((6, 6))
    cov = root @ root.T
    assert checks.check_covariance(cov) is None
    skew = cov.copy()
    skew[0, 1] += 1e-6
    assert fails(checks.check_covariance, skew)
    vals, vecs = np.linalg.eigh(cov)
    vals[0] = -0.01 * vals[-1]
    assert fails(checks.check_covariance, (vecs * vals) @ vecs.T)


def test_probe_covariance_is_checked(outputs):
    _, scenario, models = outputs
    cov = checks.kalman_probe(models[:3], scenario.network.H, 10.0, pt.filters)
    assert checks.check_covariance(cov) is None


def test_residual_check_catches_scaled_truth(out, outputs):
    models = outputs[2]
    path = out / "truth.csv"
    assert checks.check_residuals(checks.truth_states(path), models,
                                  5e-3) is None
    truth = checks.truth_states(path)
    for states in truth.values():
        states[:, :-1] *= 1.2
    assert fails(checks.check_residuals, truth, models, 5e-3)


def test_rbpf_beats_enkf_check_catches_swapped_summaries():
    assert checks.check_rbpf_beats_enkf(5.0, 9.0) is None
    assert fails(checks.check_rbpf_beats_enkf, 9.0, 5.0)


def test_strength_check_catches_collapsed_estimate(out):
    path = out / "estimates_rbpf.csv"
    finals = checks.final_strengths(checks.estimate_rows(path))
    assert checks.check_strength_range(finals) is None
    _rewrite(path, lambda lines: lines[:-10]
             + [_replace_field(line, 3, "0.3") for line in lines[-10:]])
    finals = checks.final_strengths(checks.estimate_rows(path))
    assert fails(checks.check_strength_range, finals)
