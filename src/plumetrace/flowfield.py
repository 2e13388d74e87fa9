"""Time-varying 2-D velocity fields for the transport model.

Provides analytic flows for synthetic studies and gridded flows read from
text files, both queried through the same method: ``velocity_many(points,
t)`` gives the ``(P, 2)`` velocities at many points at one time.  Gridded
data is interpolated bilinearly in space and linearly in time; grid cells
marked as missing (land) contribute zero velocity.
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

    def velocity_many(self, points, t: float) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = np.empty((points.shape[0], 2))
        out[:, 0] = self.u
        out[:, 1] = self.v
        return out


@dataclass(frozen=True)
class RigidRotationFlow:
    """Solid-body rotation about ``center`` with angular rate ``omega``.

    At position p the velocity is ``omega x (p - center)`` in the plane,
    i.e. ``(-omega dy, omega dx)``.
    """

    center: tuple[float, float] = (0.0, 0.0)
    omega: float = 0.0

    def velocity_many(self, points, t: float) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = np.empty((points.shape[0], 2))
        out[:, 0] = -self.omega * (points[:, 1] - self.center[1])
        out[:, 1] = self.omega * (points[:, 0] - self.center[0])
        return out


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

    Queries outside the spatial bounding box or the time range raise
    ``ValueError``.
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
        # Missing cells (land) contribute zero velocity to interpolation.
        self.mask = np.isnan(u) | np.isnan(v)
        # both components side by side, so one gather serves the two
        self._uv = np.where(self.mask[..., None], 0.0, np.stack((u, v), -1))
        self.u = self._uv[..., 0]
        self.v = self._uv[..., 1]
        for arr in (self.xs, self.ys, self.ts, self._uv, self.mask):
            arr.setflags(write=False)
        self._weights = None

    @property
    def t_first(self) -> float:
        return float(self.ts[0])

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

    def _point_weights(self, points: np.ndarray) -> tuple:
        """Grid indices and bilinear weights of ``points``.  They are kept
        for the last read-only array queried, such as a mesh's centroids,
        which are queried once per sample time."""
        cached = self._weights
        if cached is not None and cached[0] is points:
            return cached[1]
        ix, wx = self._axis_weights(self.xs, points[:, 0], "x")
        iy, wy = self._axis_weights(self.ys, points[:, 1], "y")
        nx = self.xs.size
        ix1 = np.minimum(ix + 1, nx - 1)
        iy1 = np.minimum(iy + 1, self.ys.size - 1)
        wx, wy = wx[:, None], wy[:, None]
        # the four corners' rows of the flattened (y, x) grid, then weights
        weights = (iy * nx + ix, iy * nx + ix1, iy1 * nx + ix, iy1 * nx + ix1,
                   1 - wx, wx, 1 - wy, wy)
        if not points.flags.writeable:
            self._weights = (points, weights)
        return weights

    def velocity_many(self, points, t: float) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        i00, i01, i10, i11, x0, x1, y0, y1 = self._point_weights(points)
        it, wt = self._axis_weights(self.ts, np.asarray([float(t)]), "time")
        it, wt = int(it[0]), float(wt[0])

        def bilinear(sample: int) -> np.ndarray:
            s = self._uv[sample].reshape(-1, 2)
            return (s.take(i00, 0) * x0 * y0 + s.take(i01, 0) * x1 * y0
                    + s.take(i10, 0) * x0 * y1 + s.take(i11, 0) * x1 * y1)

        out = bilinear(it)
        if wt > 0.0:
            out = out * (1 - wt) + bilinear(it + 1) * wt
        return out

    def __repr__(self) -> str:
        return (
            f"GriddedFlow(nx={self.xs.size}, ny={self.ys.size}, "
            f"nt={self.ts.size})"
        )


def element_velocities(flow, mesh: TriMesh, t: float) -> np.ndarray:
    """``flow.velocity_many`` at every element centroid, shape ``(E, 2)``."""
    return flow.velocity_many(mesh.centroids, t)


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
