"""Reference implementations and helpers that only the tests use.

One element's geometry and its FEM matrices, checked against the
vectorised ``fem.assemble``; the scipy expressions for the transition,
the augmented transition and the stability operator, whose bytes ``fem``'s
array passes must reproduce; every element's shape values at one point,
and a point locator that tries every element for one point at a time,
checked against ``mesh.locate_points``; scalar forms of the particle
filter's latent proposal and predictive density, checked against closed
forms; a one-sensor network through which the tests reach the quantiser
and the likelihood kernel of ``SensorNetwork``, and the linear-domain cell
mass taken through it; the first forms of the quantiser, the observation
draw and the observation log's rows, checked against their rewrites; the tail-only form of the quantised log
likelihood, checked against that kernel; a dense linear model for the
Kalman functions; the particle filter step over every particle copy,
checked against the step over distinct means; a recorder of the weights
and latents each filter step computes; the conditional means and
per-particle views of a filter state; a quantiser's level values; a
gridded flow's velocity at one point by the textbook bilinear formula,
checked against ``GriddedFlow.velocity_samples``; and a runner that
compares a script's output at one and two BLAS threads.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.special import log_ndtr

from plumetrace import filters
from plumetrace.filters import (
    GaussianBelief,
    RbpfState,
    default_jitter,
    latent_transition_logpdf,
    multinomial_resample,
    normalise_weights,
)
from plumetrace.mesh import TriMesh
from plumetrace.sensing import SensorNetwork


@dataclass(frozen=True)
class ElementGeometry:
    """Geometry of one triangular element.

    Coordinate differences follow the convention ``x_ij = x_i - x_j`` for the
    element's nodes numbered 1..3 in counter-clockwise order, and ``area`` is
    the (positive) triangle area.

    Attributes
    ----------
    coords : numpy.ndarray
        Node coordinates, shape ``(3, 2)``.
    x21, x31, x32, y21, y31, y32 : float
        Signed coordinate differences between node pairs.
    area : float
        Triangle area.
    """

    coords: np.ndarray
    x21: float
    x31: float
    x32: float
    y21: float
    y31: float
    y32: float
    area: float


def element_geometry(mesh: TriMesh, element: int) -> ElementGeometry:
    """Coordinate differences and area of one element, read from the
    arrays ``fem.assemble`` works from."""
    e = int(element)
    return ElementGeometry(
        coords=mesh._corners[e].copy(),
        x21=float(mesh._x21[e]),
        x31=float(mesh._x31[e]),
        x32=float(mesh._x32[e]),
        y21=float(mesh._y21[e]),
        y31=float(mesh._y31[e]),
        y32=float(mesh._y32[e]),
        area=float(mesh._areas[e]),
    )


_MASS_TEMPLATE = np.array(
    [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
) / 12.0


def _require_area(geom: ElementGeometry) -> None:
    if not geom.area > 0.0:
        raise ValueError(f"degenerate element (area {geom.area:g})")


def element_mass(geom: ElementGeometry, lumped: bool = False) -> np.ndarray:
    """Element mass matrix, shape ``(3, 3)``.

    The consistent form is ``S/12 * [[2,1,1],[1,2,1],[1,1,2]]``; the lumped
    form concentrates each row on the diagonal, ``S/3 * I``.
    """
    _require_area(geom)
    if lumped:
        return (geom.area / 3.0) * np.eye(3)
    return geom.area * _MASS_TEMPLATE


def element_stiffness(
    geom: ElementGeometry, diffusivity: float, velocity
) -> np.ndarray:
    """Element transport matrix combining advection and diffusion.

    Advection contributes a rank-one matrix with identical rows built from
    the flow components against the opposite-edge coordinate differences;
    diffusion contributes ``lam/(4S)`` times outer products of the y and x
    edge-difference vectors.
    """
    _require_area(geom)
    u, v = float(velocity[0]), float(velocity[1])
    lam = float(diffusivity)
    if lam < 0.0:
        raise ValueError(f"diffusivity must be non-negative, got {lam}")
    row = np.array(
        [
            v * geom.x32 - u * geom.y32,
            u * geom.y31 - v * geom.x31,
            v * geom.x21 - u * geom.y21,
        ]
    ) / 6.0
    advection = np.tile(row, (3, 1))
    gy = np.array([geom.y32, -geom.y31, geom.y21])
    gx = np.array([geom.x32, -geom.x31, geom.x21])
    scale = lam / (4.0 * geom.area)
    return advection + scale * (np.outer(gy, gy) + np.outer(gx, gx))


def element_force(
    geom: ElementGeometry, strength: float, contains_source: bool
) -> np.ndarray:
    """Element load vector for a point source smeared over its element.

    Returns ``S * u / 3`` at each node when the element holds the source and
    zeros otherwise.
    """
    _require_area(geom)
    if not contains_source:
        return np.zeros(3)
    return np.full(3, geom.area * float(strength) / 3.0)


def scipy_transition(system, dt: float) -> sp.csr_matrix:
    """``A = I - dt M^-1 N`` by scipy's sparse algebra: the expression whose
    bytes ``fem.build_model``'s array passes reproduce."""
    n = system.source.shape[0]
    minv_n = sp.diags(1.0 / system.mass.diagonal()) @ system.stiffness.tocsr()
    return (sp.identity(n, format="csr") - dt * minv_n).tocsr()


def scipy_augmented_transition(model) -> sp.csr_matrix:
    """``[[A, B], [0, 1]]`` by ``sp.bmat``, the reference for
    ``DispersionModel.augmented_transition``."""
    return sp.bmat([
        [model.transition, sp.csr_matrix(model.injection[:, None])],
        [None, sp.csr_matrix([[1.0]])],
    ], format="csr")


def scipy_lambda_operator(system) -> sp.csr_matrix:
    """``diags(1/m) @ N`` with its indices sorted: the operator the
    stability report hands ARPACK."""
    operator = (sp.diags(1.0 / system.mass.diagonal())
                @ system.stiffness).tocsr()
    operator.sort_indices()
    return operator


def assert_same_csr(actual, expected) -> None:
    """``data``, ``indices`` and ``indptr`` equal, bit for bit and dtype for
    dtype."""
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert a.tobytes() == e.tobytes(), name


def latent_transition_density(
    predicted: GaussianBelief, h_row, z, jitter: Optional[float] = None
):
    """Gaussian predictive density of a drawn latent measurement.

    Under the predicted belief the latent ``z_j = H_j x`` is scalar Gaussian
    with mean ``H_j mean`` and variance ``H_j P H_j^T`` (plus the same
    jitter used in the update).
    """
    h_row = np.asarray(h_row, dtype=float)
    if jitter is None:
        jitter = default_jitter(predicted.cov)
    mean = float(h_row @ predicted.mean)
    var = float(h_row @ predicted.cov @ h_row) + jitter
    return float(np.exp(latent_transition_logpdf(z, mean, var)))


def propose_latent(w, y_hat, rng, size=None):
    """Draw latent measurements uniformly over a received cell of
    half-width ``w``.

    The proposal density is the constant ``1 / (2 * w)``.
    """
    y_hat = np.asarray(y_hat, dtype=float)
    out = rng.uniform(y_hat - w, y_hat + w, size=size)
    if np.ndim(out) == 0 and size is None:
        return float(out)
    return out


def shape_values(mesh: TriMesh, point) -> np.ndarray:
    """The three shape functions of every element at ``point``, ``(E, 3)``.

    Row ``e`` holds the barycentric (linear shape function) values of
    element ``e`` extended to the whole plane: a partition of unity
    everywhere that reproduces linear functions exactly, in ``[0, 1]``
    inside element ``e``.  The formula is the mesh's own, over every
    element.
    """
    return mesh._barycentric(slice(None), float(point[0]), float(point[1]))


def locate_point_brute_force(mesh: TriMesh, point, tol: float = 1e-10):
    """The containing element of ``point`` and its shape values there, found
    one point at a time over every element: the first element whose
    :func:`shape_values` row is at least ``-tol`` throughout, or
    ``(None, None)`` when there is none."""
    vals = shape_values(mesh, point)
    inside = (vals >= -tol).all(axis=1)
    if not inside.any():
        return None, None
    element = int(np.argmax(inside))
    return element, vals[element]


def velocity_at(flow, point, sample: int = 0) -> tuple[float, float]:
    """Velocity of sample ``sample`` of a gridded flow at ``point`` as a
    ``(u, v)`` pair, by the textbook bilinear formula over the grid cell
    found by scanning each axis (a point on a grid line takes the cell
    below it); land cells count as zero velocity."""

    def cell(coords, q):   # [(index, weight)] of the cell's two ends
        assert coords[0] <= q <= coords[-1]
        if coords.size == 1:
            return [(0, 1.0)]
        i = 0
        while q > coords[i + 1]:
            i += 1
        lo, hi = coords[i], coords[i + 1]
        return [(i, (hi - q) / (hi - lo)), (i + 1, (q - lo) / (hi - lo))]

    uv = np.zeros(2)
    for j, wy in cell(flow.ys, float(point[1])):
        for i, wx in cell(flow.xs, float(point[0])):
            if not flow.mask[sample, j, i]:
                uv += wx * wy * np.array([flow.u[sample, j, i],
                                          flow.v[sample, j, i]])
    return float(uv[0]), float(uv[1])


def one_sensor(scale, levels, noise_var=1.0, detect_rate=1.0) -> SensorNetwork:
    """A network of one sensor, with a zero ``H`` row, quantising over
    ``[-scale, scale]`` with ``levels`` cells.

    Its ``quantise`` and ``log_likelihood`` broadcast a ``(K,)`` input
    against the one sensor.  At ``detect_rate = 1`` its likelihood is the
    Gaussian mass of the received cell around the latent.
    """
    return SensorNetwork(
        positions=np.zeros((1, 2)), H=np.zeros((1, 1)),
        noise_var=np.array([noise_var], dtype=float),
        detect_rate=np.array([detect_rate], dtype=float),
        scale=np.array([scale], dtype=float),
        levels=np.array([levels], dtype=float))


def reference_quantise(network: SensorNetwork, y) -> np.ndarray:
    """``network.quantise(y)`` in its first form, every constant computed
    at the call and the cell index clipped by ``np.clip`` on the integer
    bounds ``0`` and ``levels - 1``."""
    y = np.asarray(y, dtype=float)
    scale, levels = network.scale, network.levels
    h = np.floor((y + scale) * levels / (2.0 * scale))
    h = np.clip(h, 0, levels - 1)
    return -scale + (2.0 * h + 1.0) * scale / levels


def reference_observation(network: SensorNetwork, state_vector, rng):
    """The quantised values, raw readings and detections of
    ``experiment.draw_observation`` in its first form, whose noise is
    ``rng.normal(0.0, np.sqrt(noise_var))``, drawn after the detections."""
    alpha = (rng.random(network.count) < network.detect_rate).astype(float)
    noise = rng.normal(0.0, np.sqrt(network.noise_var))
    y = alpha * (network.H @ state_vector) + noise
    return reference_quantise(network, y), y, alpha


def reference_observation_rows(logs) -> str:
    """The data rows of ``experiment.write_observations_csv`` in their
    first form, one ``"%d,%d,%d,%.17g"`` per reading, trials in order."""
    return "".join(
        "%d,%d,%d,%.17g\n" % (trial, k, j, v)
        for trial in sorted(logs)
        for k, obs in enumerate(logs[trial], 1)
        for j, v in enumerate(np.asarray(obs.values, dtype=float).tolist()))


def level_values(scale, levels) -> np.ndarray:
    """All reproduction values of a quantiser over ``[-scale, scale]`` with
    ``levels`` cells in ascending order, shape ``(levels,)``."""
    h = np.arange(levels)
    return -scale + (2.0 * h + 1.0) * scale / levels


def cell_probability(scale, levels, level, mean, var) -> np.ndarray:
    """Gaussian probability mass of a level's quantisation cell: the
    likelihood of a one-sensor network that always detects, with noise
    variance ``var``, at the latent ``mean``."""
    cells = one_sensor(scale, levels, noise_var=var)
    return np.exp(cells.log_likelihood(level, mean))


def reference_log_cell_mass(lo, hi, mean, var):
    """``log(P(lo <= X < hi))`` for ``X ~ N(mean, var)`` in the far-tail form,
    on every cell.

    Both bounds are reflected into the lower tail and the difference of
    ``log_ndtr`` values is taken through ``expm1``, whether or not the cell
    straddles the mean.
    """
    sd = np.sqrt(var)
    a = (np.asarray(lo, dtype=float) - mean) / sd
    b = (np.asarray(hi, dtype=float) - mean) / sd
    flip = (a + b) > 0.0
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    log_hi = log_ndtr(b)
    diff = log_ndtr(a) - log_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_hi + np.log(-np.expm1(diff))
    return np.where(diff < 0.0, out, -np.inf)


def reference_log_likelihood(lo, hi, z, var, detect_rate):
    """Log mixture likelihood of the cell ``[lo, hi)`` given ``z``: the
    tail-form cell masses of the detection and miss branches, mixed with
    ``logaddexp``."""
    detect_rate = np.asarray(detect_rate, dtype=float)
    with np.errstate(divide="ignore"):
        return np.logaddexp(
            np.log(detect_rate) + reference_log_cell_mass(lo, hi, z, var),
            np.log1p(-detect_rate) + reference_log_cell_mass(lo, hi, 0.0, var),
        )


@dataclass
class LinearModel:
    """Dense linear-Gaussian model: a transition matrix and the variances
    of its diagonal process noise.

    Stands in for :class:`~plumetrace.fem.DispersionModel` in the Kalman
    functions.
    """

    a: np.ndarray
    w: np.ndarray

    def augmented_transition(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.a)

    def process_variances(self) -> np.ndarray:
        """The process variances, the diagonal of ``W``."""
        return self.w


@dataclass
class Particle:
    """One particle of a filter population."""

    mean: np.ndarray
    weight: float

    @property
    def strength(self) -> float:
        return float(self.mean[-1])


def means(state: RbpfState) -> np.ndarray:
    """The ``(particles, state)`` conditional means that a filter state's
    survivors and lineage spell out, a fresh array."""
    return state.survivors[:, state.lineage].T


def particles(state: RbpfState) -> list[Particle]:
    """The population a filter state carries into its next step, each
    particle of weight ``1/M``, as every step resamples."""
    weight = 1.0 / state.particle_count
    return [Particle(mean=mean, weight=weight) for mean in means(state)]


@dataclass
class StepRecord:
    """What each particle filter step computed and dropped: its normalised
    weights and its ``(particles, sensors)`` drawn latents, one entry per
    step, in step order."""

    weights: list = field(default_factory=list)
    latents: list = field(default_factory=list)


@contextmanager
def recording_steps():
    """Record every :func:`filters.rbpf_step` taken inside the block in the
    :class:`StepRecord` it yields.

    The step looks up ``normalise_weights`` and ``latent_transition_logpdf``
    as globals of ``filters``; both are replaced there by wrappers that keep
    the result of the one and the first argument of the other.  This module
    holds its own references to both, so :func:`reference_rbpf_step` is not
    recorded.
    """
    record = StepRecord()

    def normalise(log_weights):
        weights = normalise_weights(log_weights)
        record.weights.append(weights)
        return weights

    def logpdf(z, mean, variance):
        record.latents.append(np.array(z, dtype=float))
        return latent_transition_logpdf(z, mean, variance)

    saved = filters.normalise_weights, filters.latent_transition_logpdf
    filters.normalise_weights, filters.latent_transition_logpdf = (
        normalise, logpdf)
    try:
        yield record
    finally:
        filters.normalise_weights, filters.latent_transition_logpdf = saved


class ReferenceRbpfStep(NamedTuple):
    """What :func:`reference_rbpf_step` returns."""

    state: RbpfState
    estimate: np.ndarray
    means: np.ndarray
    ancestors: np.ndarray
    weights: np.ndarray
    latents: np.ndarray


def reference_rbpf_step(state: RbpfState, observation, model, kalman):
    """One particle filter step over every particle, copies included.

    Each particle's conditional mean is predicted, a latent is drawn
    uniformly over each sensor's received cell, the weight takes, per
    sensor, the mixture likelihood times the latent's predictive density
    over the proposal density, every mean is updated with the shared gain,
    and the population is resampled multinomially.  Returns the new state,
    in which every resampled copy is its own survivor, the weighted
    estimate, the ``(particles, state)`` means before resampling and the
    resampled ancestors, and the step's normalised weights and
    ``(particles, sensors)`` drawn latents.
    """
    net = state.network
    y_hat = np.asarray(getattr(observation, "values", observation),
                       dtype=float)
    h = net.H_csr

    x = model.augmented_transition() @ means(state).T
    z_pred = (h @ x).T
    half = net.cell_half_width
    draws = state.rng.random((state.particle_count, net.count))
    z = (y_hat - half) + 2.0 * half * draws

    log_trans = latent_transition_logpdf(z, z_pred, kalman.innovation_var)
    log_obs = net.log_likelihood(y_hat, z)
    log_w = np.log(1.0 / state.particle_count) + (
        log_obs + log_trans - net.proposal_log_density).sum(axis=-1)
    weights = normalise_weights(log_w)

    x += kalman.gain_t.T @ (z - z_pred).T
    estimate = x @ weights

    ancestors = multinomial_resample(weights, state.rng)
    new_state = replace(state, survivors=np.take(x, ancestors, axis=1),
                        lineage=np.arange(weights.size))
    return ReferenceRbpfStep(new_state, estimate, x.T, ancestors, weights, z)


def _digests_at_one_and_two_blas_threads(script):
    """The output of ``script`` run in a subprocess with one BLAS thread and
    with two."""
    src = str(Path(filters.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout)
    return digests
