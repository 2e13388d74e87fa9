"""Command-line entry point.

Subcommands: ``mesh`` (build or inspect a mesh, with a stability preview),
``simulate`` (write ground-truth and observation files), ``estimate`` (run
an estimator against an observation file) and ``compare`` (merge estimator
summaries into a table).  Configuration is a sectioned key-value text file;
unknown sections or keys are rejected rather than silently ignored, and a
scenario digest is embedded in every output so estimation against
mismatched observations fails loudly.

Exit codes: 0 on success, 2 on validation failure, 1 on runtime error,
130 when interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import re
import signal
import sys
from pathlib import Path

from plumetrace import experiment, fem, mesh as meshmod, sensing

__all__ = ["main", "run", "load_config"]


def load_config(path) -> experiment.ScenarioConfig:
    """Parse a sectioned key-value config file into a ScenarioConfig.

    Sections and keys come from the ``ScenarioConfig`` field metadata.
    Unknown sections or keys, and a file ``configparser`` cannot read (a
    repeated key or section, a key before any section header), raise
    ``ValueError`` so typos never pass silently.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    if not Path(path).is_file():
        raise ValueError(f"config file {path} not found")
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ValueError(f"config file {path} is malformed: {exc}") from exc
    schema = {}  # (section, key) -> (field, tuple slot)
    for f in dataclasses.fields(experiment.ScenarioConfig):
        for slot, key in enumerate(f.metadata["keys"]):
            schema[f.metadata["section"], key] = (f, slot)
    sections = {section for section, _ in schema}
    config = experiment.ScenarioConfig()
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in schema:
                raise ValueError(
                    f"unknown key '{key}' in config section [{section}]"
                )
            f, slot = schema[section, key]
            try:
                value = f.metadata["parse"](raw)
            except ValueError as exc:
                raise ValueError(
                    f"bad value for [{section}] {key}: {exc}"
                ) from exc
            if len(f.metadata["keys"]) > 1:
                old = getattr(config, f.name)
                value = old[:slot] + (value,) + old[slot + 1:]
            setattr(config, f.name, value)
    config.validate()
    return config


def _load_or_default(args) -> experiment.ScenarioConfig:
    config = (
        load_config(args.config) if args.config else experiment.ScenarioConfig()
    )
    if args.seed is not None:
        config.seed = args.seed
    config.force_dt = args.force
    config.validate()
    return config


def _print_stability(report: fem.StabilityReport) -> None:
    print(
        f"stability: lambda_max={report.lambda_max:.6g} "
        f"critical_dt={report.critical_dt:.6g} "
        f"courant_dt={report.courant_dt:.6g} "
        f"diffusion_dt={report.diffusion_dt:.6g}"
    )
    print(f"peclet: max={report.max_peclet:.6g}")
    if report.max_peclet > 1.0:
        print(
            "warning: Pe > 1; suggested artificial diffusivity "
            f"lambda*={report.artificial_diffusivity:.6g}"
        )


def _given(args, *flags) -> list[str]:
    """Those of ``flags`` (long options whose default is
    ``argparse.SUPPRESS``) that the command line set."""
    return [f for f in flags if hasattr(args, f[2:].replace("-", "_"))]


def cmd_mesh(args) -> int:
    building = _given(args, "--rect", "--nx", "--ny")
    if args.infile and building:
        raise ValueError(f"--in reads a mesh file; {', '.join(building)} "
                         f"cannot be combined with it")
    preview = _given(args, "--flow-u", "--flow-v", "--dt")
    if preview and args.diffusivity is None:
        raise ValueError(f"--diffusivity is required by {', '.join(preview)}")
    # the values a config may hold (ScenarioConfig.validate)
    if hasattr(args, "dt") and not 0.0 < args.dt < float("inf"):
        raise ValueError(f"--dt must be finite and positive, got {args.dt:g}")
    lam = args.diffusivity
    if lam is not None and not 0.0 <= lam < float("inf"):
        raise ValueError(
            f"--diffusivity must be finite and non-negative, got {lam:g}")
    flow = (getattr(args, "flow_u", 0.0), getattr(args, "flow_v", 0.0))
    for flag, value in zip(("--flow-u", "--flow-v"), flow):
        if not abs(value) < float("inf"):
            raise ValueError(f"{flag} must be finite, got {value:g}")
    if args.infile:
        grid = meshmod.load_mesh(args.infile)
    else:
        if not hasattr(args, "rect"):
            raise ValueError("either --rect or --in is required")
        x0, y0, x1, y1 = args.rect
        grid = meshmod.build_structured_mesh(
            x0, y0, x1, y1, getattr(args, "nx", 10), getattr(args, "ny", 10))
    print(f"nodes {grid.node_count}  elements {grid.element_count}")
    if lam is not None:
        report = fem.stability_report(grid, flow, lam)
        _print_stability(report)
        if hasattr(args, "dt"):
            verdict = "stable" if report.approves(args.dt) else "UNSTABLE"
            print(f"dt={args.dt:g}: {verdict}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        meshmod.save_mesh(grid, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_or_default(args)
    scenario = experiment.build_scenario(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    trajectories, logs = {}, {}
    for trial in range(config.trials):
        trajectories[trial], readings = experiment.simulate_trial(
            scenario, trial)
        logs[trial] = readings.values
    experiment.write_truth_csv(trajectories, out / "truth.csv", config)
    experiment.write_observations_csv(logs, out / "observations.csv", config)
    sensing.save_sensor_layout(scenario.network, out / "sensors.txt")
    print(
        f"simulated {config.trials} trial(s) x {config.steps} step(s), "
        f"dt={scenario.dt:g}, config {config.scenario_hash()}"
    )
    print(f"wrote {out / 'truth.csv'}, {out / 'observations.csv'}, "
          f"{out / 'sensors.txt'}")
    return 0


def cmd_estimate(args) -> int:
    config = _load_or_default(args)
    out = Path(args.out)
    obs_path = Path(args.obs) if args.obs else out / "observations.csv"
    if not obs_path.is_file():
        raise ValueError(f"observation file {obs_path} not found")
    file_hash, logs = experiment.load_observations_csv(obs_path)
    expected = config.scenario_hash()
    if file_hash != expected:
        raise ValueError(
            f"observation file {obs_path} was simulated under config "
            f"{file_hash}, but the current config hashes to {expected}"
        )
    if len(logs) != config.trials:
        raise ValueError(
            f"observation file {obs_path} holds {len(logs)} trial(s), but "
            f"the config runs {config.trials}"
        )
    out.mkdir(parents=True, exist_ok=True)
    results = experiment.run_trials(config, args.threads, observations=logs)
    results_path = out / f"estimates_{config.estimator}.csv"
    summary_path = out / f"summary_{config.estimator}.json"
    experiment.write_results_csv(results, results_path, config)
    doc = experiment.write_summary_json(results, summary_path, config)
    print(
        f"{config.estimator} size={config.size}: AEE={doc['aee']:.6g} over "
        f"{doc['trials']} trial(s)"
    )
    print(f"wrote {results_path}, {summary_path}")
    return 0


_SUMMARY_KEYS = {"config_hash": (str,), "estimator": (str,), "size": (int,),
                 "aee": (int, float), "runtime_total": (int, float)}


def _load_summary(path) -> dict:
    """A summary JSON as ``estimate`` writes it; ``ValueError`` naming the
    file unless it holds an object with every key ``compare`` reads, each
    of its type (a bool is no number)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ValueError(f"summary file {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"summary file {path} is not a JSON object")
    missing = [key for key in _SUMMARY_KEYS if key not in doc]
    if missing:
        raise ValueError(f"summary file {path} lacks {', '.join(missing)}")
    for key, types in _SUMMARY_KEYS.items():
        if isinstance(doc[key], bool) or not isinstance(doc[key], types):
            raise ValueError(f"summary file {path}: {key} is {doc[key]!r}, "
                             f"not {' or '.join(t.__name__ for t in types)}")
    return doc


def cmd_compare(args) -> int:
    rows = []
    hashes = set()
    for path in args.summaries:
        doc = _load_summary(path)
        hashes.add(doc["config_hash"])
        rows.append(
            (doc["estimator"], doc["size"], float(doc["aee"]),
             float(doc["runtime_total"]))
        )
    if len(hashes) > 1:
        raise ValueError(
            f"summaries come from different scenarios (hashes {sorted(hashes)})"
        )
    header = ("method", "size", "aee", "runtime_s")
    widths = [10, 6, 14, 12]
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    for method, size, aee, runtime in rows:
        print(
            f"{method.ljust(widths[0])}{str(size).ljust(widths[1])}"
            f"{format(aee, '.6g').ljust(widths[2])}"
            f"{format(runtime, '.3g').ljust(widths[3])}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "comparison.csv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(f"# config {next(iter(hashes))}\n")
        fh.write("method,size,aee,runtime_s\n")
        for method, size, aee, runtime in rows:
            fh.write(
                f"{method},{size},{format(aee, '.17g')},"
                f"{format(runtime, '.17g')}\n"
            )
    print(f"wrote {table_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    common.add_argument("--out", default="out", help="output directory")
    scenario = argparse.ArgumentParser(add_help=False, parents=[common])
    scenario.add_argument("--config", help="scenario config file")
    scenario.add_argument("--force", action="store_true",
                          help="run even if the time step is unstable")

    parser = argparse.ArgumentParser(
        prog="plumetrace",
        description="Dispersion simulation and source-strength estimation "
                    "from quantised sensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options without a default are absent unless given (see _given)
    p_mesh = sub.add_parser("mesh", help="build or inspect a triangular mesh",
                            argument_default=argparse.SUPPRESS)
    p_mesh.add_argument("--rect", nargs=4, type=float,
                        metavar=("X0", "Y0", "X1", "Y1"),
                        help="rectangle corners")
    p_mesh.add_argument("--nx", type=int, help="cells along x (default 10)")
    p_mesh.add_argument("--ny", type=int, help="cells along y (default 10)")
    p_mesh.add_argument("--in", dest="infile", default=None,
                        help="read a mesh file instead")
    p_mesh.add_argument("--out", default=None,
                        help="write the mesh to this file")
    p_mesh.add_argument("--diffusivity", type=float, default=None,
                        help="print a stability preview for this diffusivity")
    p_mesh.add_argument("--flow-u", type=float,
                        help="uniform flow x-velocity in the preview "
                             "(default 0)")
    p_mesh.add_argument("--flow-v", type=float,
                        help="uniform flow y-velocity in the preview "
                             "(default 0)")
    p_mesh.add_argument("--dt", type=float,
                        help="check this time step in the preview")
    # a value after a space may look like a flag (-1e-3, -inf): argparse
    # takes only -5 and -0.5 to be values unless told what else is
    p_mesh._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.I)
    p_mesh.set_defaults(func=cmd_mesh)

    p_sim = sub.add_parser("simulate", parents=[scenario],
                           help="simulate ground truth and observations")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", parents=[scenario],
                           help="run an estimator on simulated observations")
    p_est.add_argument("--obs", default=None,
                       help="observation CSV (default: <out>/observations.csv)")
    p_est.add_argument("--threads", type=int, default=1,
                       help="worker processes the trials are spread over")
    p_est.set_defaults(func=cmd_estimate)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="merge estimator summaries into a table")
    p_cmp.add_argument("summaries", nargs="+", help="summary JSON files")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def run() -> int:
    """The console entry: :func:`main` on the command line's arguments,
    then Ctrl-C is ignored.  A Ctrl-C that lands after ``main`` has
    returned, while the interpreter waits for its threads at exit, then
    neither prints a traceback nor changes the exit code.  ``main`` itself
    leaves the SIGINT handler alone, for callers in the same process."""
    code = main()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    return code


if __name__ == "__main__":
    sys.exit(run())
