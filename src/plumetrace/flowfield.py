"""Time-varying 2-D velocity fields for the transport model.

Provides analytic flows for synthetic studies and gridded flows read from
text files, both with the same contract: ``sample_times`` lists the times
at which the flow changes, and ``velocity_samples(points)`` gives the
``(S, P, 2)`` velocities of all ``S`` samples at ``P`` points.  Sample
``i`` holds over the interval from ``sample_times[i]`` to the next one.
An analytic flow has one sample, at time 0.  Gridded data is interpolated
bilinearly in space; grid cells marked as missing (land) contribute zero
velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from plumetrace.mesh import TriMesh, _data_lines, _table

__all__ = [
    "UniformFlow",
    "RigidRotationFlow",
    "GriddedFlow",
    "element_velocities",
    "load_gridded_flow",
    "save_gridded_flow",
]


@dataclass(frozen=True)
class UniformFlow:
    """Spatially and temporally constant flow; ``UniformFlow(0, 0)`` is rest."""

    u: float = 0.0
    v: float = 0.0
    sample_times = (0.0,)

    def velocity_samples(self, points) -> np.ndarray:
        return np.tile([float(self.u), float(self.v)], (1, len(points), 1))


@dataclass(frozen=True)
class RigidRotationFlow:
    """Solid-body rotation about ``center`` with angular rate ``omega``.

    At position p the velocity is ``omega x (p - center)`` in the plane,
    i.e. ``(-omega dy, omega dx)``.
    """

    center: tuple[float, float] = (0.0, 0.0)
    omega: float = 0.0
    sample_times = (0.0,)

    def velocity_samples(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return np.stack([-self.omega * (p[:, 1] - self.center[1]),
                         self.omega * (p[:, 0] - self.center[0])], -1)[None]


class GriddedFlow:
    """Velocity samples on a regular space-time grid.

    Parameters
    ----------
    xs, ys : array_like
        Strictly ascending grid coordinates in metres.
    ts : array_like
        Strictly ascending sample times in seconds.
    u, v : array_like
        Velocity components indexed ``(time, y, x)``.  ``NaN`` marks missing
        (land) cells, which are treated as zero velocity during
        interpolation.

    Queries outside the spatial bounding box raise ``ValueError``.
    """

    def __init__(self, xs, ys, ts, u, v):
        xs = np.ascontiguousarray(xs, dtype=float)
        ys = np.ascontiguousarray(ys, dtype=float)
        ts = np.ascontiguousarray(ts, dtype=float)
        u = np.ascontiguousarray(u, dtype=float)
        v = np.ascontiguousarray(v, dtype=float)
        for name, arr in (("xs", xs), ("ys", ys), ("ts", ts)):
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D array")
            if arr.size > 1 and not (np.diff(arr) > 0.0).all():
                raise ValueError(f"{name} must be strictly increasing")
        shape = (ts.size, ys.size, xs.size)
        if u.shape != shape or v.shape != shape:
            raise ValueError(
                f"velocity arrays must have shape (nt, ny, nx) = {shape}, "
                f"got {u.shape} and {v.shape}"
            )
        self.xs = xs
        self.ys = ys
        self.ts = ts
        self.sample_times = tuple(ts.tolist())
        # Missing cells (land) contribute zero velocity to interpolation.
        self.mask = np.isnan(u) | np.isnan(v)
        # both components side by side, so one gather serves the two
        self._uv = np.where(self.mask[..., None], 0.0, np.stack((u, v), -1))
        self.u = self._uv[..., 0]
        self.v = self._uv[..., 1]
        for arr in (self.xs, self.ys, self.ts, self._uv, self.mask):
            arr.setflags(write=False)

    def _axis_weights(self, coords: np.ndarray, q: np.ndarray, name: str):
        lo, hi = coords[0], coords[-1]
        if (q < lo).any() or (q > hi).any():
            bad = q[(q < lo) | (q > hi)][0]
            raise ValueError(
                f"{name} query {bad:g} outside grid range [{lo:g}, {hi:g}]"
            )
        idx = np.clip(np.searchsorted(coords, q, side="right") - 1, 0,
                      max(coords.size - 2, 0))
        if coords.size == 1:
            return idx, np.zeros_like(q)
        w = (q - coords[idx]) / (coords[idx + 1] - coords[idx])
        return idx, w

    def velocity_samples(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ix, wx = self._axis_weights(self.xs, points[:, 0], "x")
        iy, wy = self._axis_weights(self.ys, points[:, 1], "y")
        nx = self.xs.size
        ix1 = np.minimum(ix + 1, nx - 1)
        iy1 = np.minimum(iy + 1, self.ys.size - 1)
        wx, wy = wx[:, None], wy[:, None]
        x0, y0 = 1 - wx, 1 - wy
        # each sample's rows of the flattened (y, x) grid at the four corners
        s = self._uv.reshape(self.ts.size, -1, 2)
        return (s[:, iy * nx + ix] * x0 * y0 + s[:, iy * nx + ix1] * wx * y0
                + s[:, iy1 * nx + ix] * x0 * wy + s[:, iy1 * nx + ix1] * wx * wy)

    def __repr__(self) -> str:
        return (
            f"GriddedFlow(nx={self.xs.size}, ny={self.ys.size}, "
            f"nt={self.ts.size})"
        )


def element_velocities(flow, mesh: TriMesh) -> np.ndarray:
    """``flow.velocity_samples`` at every element centroid, shape
    ``(S, E, 2)``: row ``i`` drives flow interval ``i``."""
    return flow.velocity_samples(mesh.centroids)


def load_gridded_flow(path) -> GriddedFlow:
    """Read a gridded flow from a text file.

    The format is a ``grid <nx> <ny> <nt>`` header, then ``xs:``, ``ys:``
    and ``ts:`` lines listing the grid coordinates, then ``nt`` blocks of
    ``ny * nx`` lines of ``u v`` samples ordered row-major with y outermost.
    Missing (land) cells are written as ``nan nan``.  ``#`` starts a
    comment and blank lines are ignored, inside the sample block too.

    The sample block is converted in one ``numpy.loadtxt`` pass.  A wrong
    line count, a sample line without exactly two values (even when the
    values total two per line), a value that is not a number or a grid
    :class:`GriddedFlow` refuses raises ``ValueError`` naming the file.
    """
    lines = _data_lines(path)
    if not lines or not lines[0].startswith("grid"):
        raise ValueError(f"flow file {path} must start with a 'grid' header")
    try:
        _, nx, ny, nt = lines[0].split()
        nx, ny, nt = int(nx), int(ny), int(nt)
        axes = {}
        for i, name in enumerate(("xs", "ys", "ts")):
            label, _, rest = lines[1 + i].partition(":")
            if label.strip() != name:
                raise ValueError(f"expected '{name}:' line, got {lines[1 + i]!r}")
            values = np.array([float(v) for v in rest.split()])
            expected = {"xs": nx, "ys": ny, "ts": nt}[name]
            if values.size != expected:
                raise ValueError(
                    f"'{name}:' line has {values.size} values, expected {expected}"
                )
            axes[name] = values
        samples = lines[4:]
        if len(samples) != nt * ny * nx:
            raise ValueError(
                f"expected {nt * ny * nx} sample lines, found {len(samples)}"
            )
        uv = _table(samples, 2, float,
                    "sample lines must contain exactly 'u v'")
        return GriddedFlow(axes["xs"], axes["ys"], axes["ts"],
                           uv[:, 0].reshape(nt, ny, nx),
                           uv[:, 1].reshape(nt, ny, nx))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed flow file {path}: {exc}") from exc


def save_gridded_flow(flow: GriddedFlow, path) -> None:
    """Write a gridded flow in the format accepted by :func:`load_gridded_flow`,
    each value to 17 significant digits."""
    u = np.where(flow.mask, np.nan, flow.u)
    v = np.where(flow.mask, np.nan, flow.v)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"grid {flow.xs.size} {flow.ys.size} {flow.ts.size}\n")
        for name, axis in (("xs", flow.xs), ("ys", flow.ys), ("ts", flow.ts)):
            fh.write((name + ": " + " ".join(["%.17g"] * axis.size) + "\n")
                     % tuple(axis.tolist()))
        fh.writelines("%.17g %.17g\n" % uv
                      for uv in zip(u.ravel().tolist(), v.ravel().tolist()))
