"""Time-varying gridded ocean flow for the ``ocean`` workload.

The flow is a double gyre whose dividing line oscillates in time, plus a
uniform drift, sampled on a regular grid over the 1 km basin.  Grid points in
the north-east corner are land and are written as ``nan nan``.  Every
parameter is drawn from the workload seed, so one seed always gives the same
file and nothing has to be downloaded or checked in.

The sample times are spaced so that the scenario's horizon (``steps`` times
the automatic time step) covers exactly ``INTERVALS`` flow intervals; the
time step does not depend on that spacing, so it is found by building the
scenario once on provisional sample times.

Rebuild the file for a seed with::

    python3 bench/ocean_flow.py --seed 3 --out ocean_flow.txt

This also writes the ``ocean`` workload's RBPF config, which names the flow
file, next to it (``ocean_flow.cfg``), so the flow is timed for the
workload's own mesh.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

EXTENT = 1000.0      # the basin is [0, EXTENT] squared, in metres
GRID_POINTS = 21     # flow samples per axis
INTERVALS = 5        # flow intervals the horizon spans
LAND_FROM = 0.85     # grid points beyond this share of both axes are land


def gyre_samples(seed: int, times: int = INTERVALS + 1):
    """Velocity samples ``(u, v)`` indexed ``(time, y, x)`` for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x0CEA)))
    speed = rng.uniform(0.08, 0.12)          # gyre speed scale, m/s
    eps = rng.uniform(0.1, 0.3)              # oscillation of the dividing line
    phase = rng.uniform(0.0, 2.0 * np.pi)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    drift = rng.uniform(0.01, 0.03) * np.array([np.cos(angle), np.sin(angle)])

    axis = np.linspace(0.0, 1.0, GRID_POINTS)
    gx, gy = np.meshgrid(2.0 * axis, axis)   # gyre coordinates on [0,2]x[0,1]
    u = np.empty((times, GRID_POINTS, GRID_POINTS))
    v = np.empty_like(u)
    for i in range(times):
        s = eps * np.sin(phase + 2.0 * np.pi * i / INTERVALS)
        f = s * gx ** 2 + (1.0 - 2.0 * s) * gx
        dfdx = 2.0 * s * gx + 1.0 - 2.0 * s
        u[i] = -speed * np.sin(np.pi * f) * np.cos(np.pi * gy) + drift[0]
        v[i] = 2.0 * speed * np.cos(np.pi * f) * np.sin(np.pi * gy) * dfdx \
            + drift[1]
    land = (axis[None, :] > LAND_FROM) & (axis[:, None] > LAND_FROM)
    u[:, land] = np.nan
    v[:, land] = np.nan
    return u, v


def write_flow(seed: int, path, interval_s: float) -> None:
    """Write the seed's gyre with sample times ``interval_s`` apart."""
    from plumetrace import flowfield

    u, v = gyre_samples(seed)
    axis = np.linspace(0.0, EXTENT, GRID_POINTS)
    ts = interval_s * np.arange(INTERVALS + 1)
    flowfield.save_gridded_flow(
        flowfield.GriddedFlow(axis, axis, ts, u, v), path)


def make_flow(seed: int, path, config_path) -> float:
    """Write the flow file that ``config_path`` names; return its time step.

    The config must name ``path`` as its flow file.
    """
    from plumetrace import experiment
    from plumetrace.cli import load_config

    write_flow(seed, path, 1.0)
    config = load_config(config_path)
    dt = experiment.build_scenario(config).dt
    write_flow(seed, path, config.steps * dt / INTERVALS)
    return dt


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="flow file to write")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    out = Path(args.out).resolve()
    config_path = out.with_suffix(".cfg")
    config_path.write_text(WORKLOADS["ocean"].config_text("rbpf", out))
    dt = make_flow(args.seed, out, config_path)
    print(f"wrote {out} (dt={dt:.6g} s) and {config_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
