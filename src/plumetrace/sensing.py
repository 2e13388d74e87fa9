"""Sensor-network model: measurement operator, miss detection, quantisation.

Each static sensor reads the concentration at its position through the mesh
shape functions, so the network is a linear operator H on the augmented
state whose strength column is zero.  A reading is ``y = alpha * Hx + v``
where ``alpha`` is a Bernoulli detection indicator and ``v`` Gaussian noise;
the transmitted value is ``y`` pushed through a uniform quantiser.  The
network quantises its readings (:meth:`SensorNetwork.quantise`) and gives
the log likelihood of a received level that the particle filter weights
with (:meth:`SensorNetwork.log_likelihood`), which stays finite far into
the Gaussian tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.special import erf, log_ndtr

from plumetrace import mesh as meshmod
from plumetrace.mesh import TriMesh, _data_lines, _table

__all__ = [
    "SensorNetwork",
    "QuantisedObservation",
    "build_measurement_matrix",
    "generate_positions",
    "load_sensor_layout",
    "save_sensor_layout",
]

_SQRT_HALF = np.sqrt(0.5)


def _log_gauss_cell_mass(lo, hi, mean, var) -> np.ndarray:
    """``log(P(lo <= X < hi))`` for ``X ~ N(mean, var)``, stable in far tails.

    Both standardised bounds are first reflected so that ``a + b <= 0``.
    Each cell then takes one of two exact forms:

    - a cell that straddles the mean (``a < 0 < b``) has mass
      ``(erf(b/sqrt2) - erf(a/sqrt2)) / 2``, a sum of two non-negative terms,
      so it loses no precision to cancellation and has no tail to lose;
    - a cell with both bounds in the lower tail (``b <= 0``) takes the
      difference of CDFs from ``log_ndtr``, which keeps full precision there,
      through ``expm1``, so cells tens of standard deviations from the mean
      still produce finite logs.

    Infinite bounds give the corresponding tail mass.
    """
    return _log_cell_mass(*_reflected_bounds(lo, hi, mean, var))


def _reflected_bounds(lo, hi, mean, var):
    """Standardised bounds ``a, b`` of the cell, reflected about the mean
    (``a, b -> -b, -a``) when ``a + b > 0``; both have the broadcast shape."""
    sd = np.sqrt(var)
    a = (np.asarray(lo, dtype=float) - mean) / sd
    b = (np.asarray(hi, dtype=float) - mean) / sd
    return np.minimum(a, -b), np.minimum(b, -a)


def _by_cell_kind(straddles, straddling, tail, *arrays):
    """``straddling(*arrays)`` where ``straddles`` holds, ``tail(*arrays)``
    elsewhere; each form is evaluated on its own cells only.  The arrays
    share the shape of ``straddles``."""
    if straddles.all():             # a particle population's detection cells
        return straddling(*arrays)
    out = np.empty(straddles.shape)
    rest = ~straddles
    out[straddles] = straddling(*(x[straddles] for x in arrays))
    out[rest] = tail(*(x[rest] for x in arrays))
    return out


def _log_cell_mass(a, b):
    """``log(Phi(b) - Phi(a))`` for reflected bounds, ``a + b <= 0``."""
    return _by_cell_kind(b > 0.0, _log_straddling_mass, _log_tail_mass, a, b)


def _straddling_mass(a, b):
    """``Phi(b) - Phi(a)`` for ``a < 0 < b``: half the sum of the
    non-negative terms ``erf(b/sqrt2)`` and ``-erf(a/sqrt2)``."""
    return 0.5 * (erf(b * _SQRT_HALF) - erf(a * _SQRT_HALF))


def _log_straddling_mass(a, b):
    with np.errstate(divide="ignore"):
        return np.log(_straddling_mass(a, b))


def _log_tail_mass(a, b):
    """``log(Phi(b) - Phi(a))`` for ``a <= b <= 0``."""
    log_hi = log_ndtr(b)
    diff = log_ndtr(a) - log_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_hi + np.log(-np.expm1(diff))
    return np.where(diff < 0.0, out, -np.inf)


def _straddling_mixture(a, b, miss, log_miss, detect_rate):
    mixed = detect_rate * _straddling_mass(a, b) + miss
    with np.errstate(divide="ignore"):
        return np.log(mixed)


def _tail_mixture(a, b, miss, log_miss, detect_rate):
    log_detect = _log_cell_mass(a, b)
    with np.errstate(divide="ignore"):
        return np.logaddexp(np.log(detect_rate) + log_detect,
                            np.log1p(-detect_rate) + log_miss)


@dataclass(frozen=True)
class QuantisedObservation:
    """One network reading: quantised values plus simulation-only truth."""

    values: np.ndarray
    detections: Optional[np.ndarray] = None
    raw: Optional[np.ndarray] = None


def build_measurement_matrix(mesh: TriMesh, positions,
                             located=None) -> np.ndarray:
    """Measurement operator of a static sensor set, shape ``(N, C + 1)``.

    Row j holds the shape-function values of the element containing sensor
    j, as :func:`~plumetrace.mesh.locate_points` finds them for all sensors
    in one pass, at that element's node columns; the final (strength)
    column is zero.  Rows therefore have at most three nonzeros summing to
    one.  ``located``, when given, is what ``locate_points`` returns for
    ``positions``, which are then not located again.

    Raises
    ------
    ValueError
        If a sensor position lies outside the mesh; the first such sensor
        is named.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (N, 2), got {positions.shape}")
    if located is None:
        located = meshmod.locate_points(mesh, positions)
    elements, values = located
    if (elements < 0).any():
        j = int(np.argmax(elements < 0))
        p = positions[j]
        raise ValueError(
            f"sensor {j} at ({p[0]:g}, {p[1]:g}) lies outside the mesh"
        )
    h = np.zeros((positions.shape[0], mesh.node_count + 1))
    h[np.arange(positions.shape[0])[:, None], mesh.elements[elements]] = values
    return h


def generate_positions(mesh: TriMesh, count: int, rng) -> np.ndarray:
    """Sample ``count`` positions uniformly over the mesh.

    Draws uniformly over the bounding box, a batch at a time, and rejects
    points outside the mesh, so the accepted points are uniform over the
    meshed region.
    """
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    xmin, ymin, xmax, ymax = mesh.bounding_box()
    accepted = np.empty((0, 2))
    attempts = 0
    while accepted.shape[0] < count:
        attempts += 1
        if attempts > 1000:
            raise RuntimeError(
                "rejection sampling failed; mesh covers too little of its "
                "bounding box"
            )
        batch = rng.random((max(count, 64), 2))
        batch[:, 0] = xmin + batch[:, 0] * (xmax - xmin)
        batch[:, 1] = ymin + batch[:, 1] * (ymax - ymin)
        inside = batch[meshmod.locate_points(mesh, batch)[0] >= 0]
        accepted = np.concatenate(
            [accepted, inside[:count - accepted.shape[0]]])
    return accepted


def fence_positions(mesh: TriMesh, center, count: int) -> np.ndarray:
    """Deterministic monitoring array around a known release point.

    Builds concentric square rings of sensors centred on ``center`` with
    ring spacing equal to the median element diameter: the four diagonal
    corners at one spacing, the full perimeter at two spacings, an evenly
    thinned perimeter at three spacings, and the remainder on a coarse
    grid over the mesh bounding box for background coverage.  On a
    structured mesh whose node spacing matches the element diameter and
    with ``center`` on a node, every ring sensor lands exactly on a node.

    All positions are located in one :func:`~plumetrace.mesh.locate_points`
    pass; any outside the mesh raise, naming the first, as the measurement
    operator cannot interpolate there; keep the fence clear of the boundary.
    """
    return _fence_layout(mesh, center, count)[0]


def _fence_layout(mesh: TriMesh, center, count: int) -> tuple:
    """:func:`fence_positions` and what ``locate_points`` returns for
    them, one pass for the check and the measurement operator."""
    count = int(count)
    if count < 4:
        raise ValueError(f"a fence needs at least 4 sensors, got {count}")
    center = np.asarray(center, dtype=float).reshape(2)
    spacing = float(np.median(np.sqrt(2.0 * mesh.areas)))

    def ring(level: int) -> np.ndarray:
        span = np.arange(-level, level + 1)
        pts = [
            (i, j)
            for i in span
            for j in span
            if max(abs(i), abs(j)) == level
        ]
        return center + spacing * np.array(pts, dtype=float)

    corners = center + spacing * np.array(
        [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)])
    parts = [corners]
    for level, take in ((2, 16), (3, 12)):
        remaining = count - sum(len(p) for p in parts)
        if remaining <= 0:
            break
        full = ring(level)
        take = min(take, remaining, len(full))
        idx = np.unique(
            np.linspace(0, len(full) - 1, take).round().astype(int))
        parts.append(full[idx])
    remaining = count - sum(len(p) for p in parts)
    if remaining > 0:
        xmin, ymin, xmax, ymax = mesh.bounding_box()
        ncols = max(int(np.ceil(np.sqrt(2.0 * remaining))), 1)
        nrows = max(int(np.ceil(remaining / ncols)), 1)
        xs = xmin + (np.arange(ncols) + 0.5) * (xmax - xmin) / ncols
        ys = ymin + (np.arange(nrows) + 0.5) * (ymax - ymin) / nrows
        gx, gy = np.meshgrid(xs, ys)
        bg = np.column_stack([gx.ravel(), gy.ravel()])[:remaining]
        parts.append(bg)
    positions = np.vstack(parts)[:count]
    located = meshmod.locate_points(mesh, positions)
    outside = located[0] < 0
    if outside.any():
        p = positions[np.argmax(outside)]
        raise ValueError(
            f"fence sensor at ({p[0]:g}, {p[1]:g}) falls outside the "
            "mesh; move the fence away from the boundary"
        )
    return positions, located


def _per_sensor(values, count: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise ValueError(f"{name} must be scalar or shape ({count},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class SensorNetwork:
    """Static sensors with per-sensor noise, detection and quantiser settings.

    Attributes
    ----------
    positions : numpy.ndarray
        Sensor locations, shape ``(N, 2)``.
    H : numpy.ndarray
        Measurement operator on the augmented state, shape ``(N, C + 1)``;
        ``H_csr`` is the same operator as a CSR matrix, which the filters use.
    noise_var : numpy.ndarray
        Measurement noise variances, positive, shape ``(N,)``; ``noise_sd``
        holds their square roots.
    detect_rate : numpy.ndarray
        Probability that the signal term is present in each reading (misses
        occur with the complementary probability), in ``[0, 1]``.
    scale, levels : numpy.ndarray
        Per-sensor quantiser range bound and level count; the counts must
        be whole numbers and are stored as integers.

    Every per-sensor value must be finite; a bad one raises ``ValueError``
    naming its field or its rule.
    """

    positions: np.ndarray
    H: np.ndarray
    noise_var: np.ndarray
    detect_rate: np.ndarray
    scale: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        n = self.positions.shape[0]
        if self.H.shape[0] != n:
            raise ValueError("measurement matrix row count must match positions")
        for name in ("noise_var", "detect_rate", "scale", "levels"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if (self.noise_var <= 0.0).any():
            raise ValueError("noise variances must be positive")
        if ((self.detect_rate < 0.0) | (self.detect_rate > 1.0)).any():
            raise ValueError("detection rates must lie in [0, 1]")
        if (self.scale <= 0.0).any():
            raise ValueError("quantiser scales must be positive")
        lv = self.levels
        bad = lv[(lv < 1) | (lv > 2.0 ** 53) | (lv != np.floor(lv))]
        if bad.size:
            raise ValueError(
                f"levels must be whole numbers in [1, 2**53], got {bad[0]:g}")
        object.__setattr__(self, "levels", np.asarray(lv, dtype=np.int64))
        if self.H.size and np.abs(self.H[:, -1]).max() != 0.0:
            raise ValueError("strength column of the measurement matrix must be zero")
        for arr in (self.positions, self.H, self.noise_var, self.detect_rate,
                    self.scale, self.levels):
            arr.setflags(write=False)

    @classmethod
    def build(cls, mesh: TriMesh, positions, noise_var, detect_rate,
              scale, levels, located=None) -> "SensorNetwork":
        """Construct the network for ``positions`` on ``mesh``.

        Scalar parameters are broadcast to every sensor; ``located`` is as
        for :func:`build_measurement_matrix`.
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        n = positions.shape[0]
        return cls(
            positions=positions.copy(),
            H=build_measurement_matrix(mesh, positions, located),
            noise_var=_per_sensor(noise_var, n, "noise_var"),
            detect_rate=_per_sensor(detect_rate, n, "detect_rate"),
            scale=_per_sensor(scale, n, "scale"),
            levels=_per_sensor(levels, n, "levels"),
        )

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def H_csr(self) -> sp.csr_matrix:
        """``H`` as a CSR matrix, built on first use: each row has the few
        nonzeros of one sensor's shape functions."""
        return sp.csr_matrix(self.H)

    @cached_property
    def noise_sd(self) -> np.ndarray:
        """Measurement noise standard deviations, ``sqrt(noise_var)``,
        read-only and computed on first use."""
        sd = np.sqrt(self.noise_var)
        sd.setflags(write=False)
        return sd

    @cached_property
    def _quantiser(self) -> tuple:
        """``levels`` as floats, ``2 scale`` and the top level index, the
        constants of :meth:`quantise`."""
        return (self.levels.astype(float), 2.0 * self.scale,
                (self.levels - 1).astype(float))

    @property
    def cell_half_width(self) -> np.ndarray:
        return self.scale / self.levels

    @property
    def proposal_log_density(self) -> np.ndarray:
        """Log density of a uniform draw over one quantisation cell."""
        return np.log(self.levels / (2.0 * self.scale))

    def quantise(self, y) -> np.ndarray:
        """Quantise readings; the last axis indexes sensors.

        Sensor j quantises uniformly over ``[-scale_j, scale_j]`` with
        ``levels_j`` cells of half-width ``w_j = scale_j / levels_j``; level h
        (0-based) has the value ``-scale_j + (2h + 1) w_j``.  Readings outside
        the range saturate to the nearest extreme level, and the upper
        boundary ``y = scale_j`` maps to the top level.
        """
        levels, width, top = self._quantiser
        out = np.add(np.asarray(y, dtype=float), self.scale)
        out *= levels
        out /= width
        np.floor(out, out=out)
        np.maximum(out, 0.0, out=out)
        np.minimum(out, top, out=out)
        out *= 2.0
        out += 1.0
        out *= self.scale
        out /= levels
        out -= self.scale       # -scale + x, bit for bit
        return out

    def log_likelihood(self, y_hat, z) -> np.ndarray:
        """Log mixture likelihood of received levels, vectorised.

        ``y_hat`` has shape ``(N,)`` and ``z`` any shape broadcastable with
        it (e.g. ``(M, N)`` for a particle population); the result follows
        the broadcast shape.  A level's cell is ``[y_hat - w, y_hat + w)``;
        the detection branch centres the reading at ``z`` and the miss
        branch at zero, weighted by the detection rate ``p``.

        A particle filter draws each latent inside its received cell, so its
        detection cells straddle their means.  Where the detection cell
        straddles ``z`` and ``p`` is positive, the cell mass ``m`` is the sum
        of two non-negative ``erf`` terms, exact without a tail form, and the
        mixture is formed in linear space, ``log(p m + (1 - p) exp(log_miss))``.
        ``m`` is then at least about ``min(1/2, 0.4 (hi - lo) / sd)``, so a
        miss term that underflows in ``exp`` is negligible against ``p m``.
        Every other cell, each cell of a sensor with ``p = 0`` included,
        keeps the ``log_ndtr`` form and goes through ``logaddexp``, which
        gives exactly ``log_miss`` when ``p = 0``.
        """
        y_hat = np.asarray(y_hat, dtype=float)
        w = self.cell_half_width
        lo, hi = y_hat - w, y_hat + w
        log_miss = _log_gauss_cell_mass(lo, hi, 0.0, self.noise_var)
        miss = (1.0 - self.detect_rate) * np.exp(log_miss)   # unbroadcast
        a, b = _reflected_bounds(lo, hi, np.asarray(z, dtype=float),
                                 self.noise_var)
        arrays = np.broadcast_arrays(a, b, miss, log_miss, self.detect_rate)
        straddles = (arrays[1] > 0.0) & (arrays[4] > 0.0)
        return _by_cell_kind(straddles, _straddling_mixture, _tail_mixture,
                             *arrays)


def save_sensor_layout(network: SensorNetwork, path) -> None:
    """Write the layout as one ``x y scale levels noise_var detect_rate`` line
    per sensor, each float to 17 significant digits."""
    columns = (network.positions[:, 0], network.positions[:, 1],
               network.scale, network.levels, network.noise_var,
               network.detect_rate)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# x y scale levels noise_var detect_rate\n")
        fh.writelines("%.17g %.17g %.17g %d %.17g %.17g\n" % row
                      for row in zip(*(c.tolist() for c in columns)))


def load_sensor_layout(path, mesh: TriMesh) -> SensorNetwork:
    """Read a sensor layout file, one ``x y scale levels noise_var
    detect_rate`` line per sensor, and build its network on ``mesh``; a
    line that is not 6 numbers raises ``ValueError`` naming the file."""
    try:
        data = _table(_data_lines(path), 6, float,
                      "sensor lines must have 6 fields "
                      "(x y scale levels noise_var detect_rate)")
    except ValueError as exc:
        raise ValueError(f"malformed sensor layout file {path}: {exc}") from exc
    if not data.size:
        raise ValueError(f"sensor layout file {path} contains no sensors")
    return SensorNetwork.build(
        mesh,
        positions=data[:, :2],
        noise_var=data[:, 4],
        detect_rate=data[:, 5],
        scale=data[:, 2],
        levels=data[:, 3],
    )
