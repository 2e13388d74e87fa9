"""Workload definitions: the config files the benchmark writes.

``desk`` is the shipped desk scenario (``configs/desk.cfg``), ``particles``
the same scenario with 1000 particles and ensemble members, and ``ocean``
the real-flow setting: a finer mesh under a gridded, time-varying flow made
from the workload seed (see ``ocean_flow.py``), with the automatic time step
and artificial diffusivity.  The master seed is not written into the
configs; every command receives it through ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

_DESK = """\
[mesh]
x0 = 0
y0 = 0
x1 = 1000
y1 = 1000
nx = 20
ny = 20

[flow]
kind = uniform
u = 0.02
v = 0.0

[physics]
diffusivity = 25.0
dt = 18.0
steps = 48
source_x = 250.0
source_y = 500.0
strength = 1.0
field_noise = 5e-3
strength_walk = 1e-8
"""

_OCEAN = """\
[mesh]
x0 = 0
y0 = 0
x1 = 1000
y1 = 1000
nx = {nx}
ny = {nx}

[flow]
kind = file
file = {flow}

[physics]
diffusivity = 25.0
auto_stabilise = true
dt = auto
steps = 48
source_x = 300.0
source_y = 400.0
strength = 1.0
field_noise = 5e-3
strength_walk = 1e-8
"""

_SENSORS = """
[sensors]
layout = fence
count = 40
detect_rate = 0.85
scale = 24.0
levels = 10000
noise = 5e-3
"""

_ESTIMATOR = """
[estimator]
kind = {kind}
size = {size}
init_cov = 10.0

[run]
trials = {trials}
"""


def _config(scenario: str, kind: str, size: int, trials: int) -> str:
    return (scenario + _SENSORS
            + _ESTIMATOR.format(kind=kind, size=size, trials=trials))


@dataclass(frozen=True)
class Workload:
    """One set of inputs: scenario, estimator size and trials per round."""

    name: str
    trials: int            # trials simulated and estimated in each round
    size: int              # RBPF particles and EnKF members
    quality_rounds: int    # rounds whose trials give the accuracy metrics
    nx: int = 20           # mesh cells per axis
    ocean: bool = False

    def config_text(self, kind: str, flow_path=None) -> str:
        scenario = (_OCEAN.format(nx=self.nx, flow=flow_path) if self.ocean
                    else _DESK)
        return _config(scenario, kind, self.size, self.trials)


WORKLOADS = {
    "desk": Workload("desk", trials=4, size=30, quality_rounds=5),
    "particles": Workload("particles", trials=2, size=1000, quality_rounds=5),
    "ocean": Workload("ocean", trials=1, size=30, quality_rounds=4, nx=30,
                      ocean=True),
}
