"""State estimators for the dispersion model under quantised sensing.

The main estimator is a Rao-Blackwellised particle filter: because the
model is linear-Gaussian conditional on the noise-free latent measurement
``z = H x``, each particle samples only ``z`` (one scalar per sensor, drawn
uniformly over the received quantisation cell) and keeps a Kalman
conditional mean.  The covariance recursion depends neither on the sampled
values nor on the data, so it is shared by all particles and all trials:
:func:`gain_schedule` runs it once per scenario and yields each step's gain
and innovation variances as it computes them, leaving only particle work to
:func:`rbpf_step`; trials that advance together read each step once and
then drop it, so no one holds the whole schedule.
Each step works in one n x n array, on the lower triangle of the
covariance.  The prediction forms it a band of columns at a time, each
from a band of transition rows that reads only the part of ``P`` those
rows reach, and writes each band back into the covariance it reads once no
later band reads those columns; the conditioning updates it in place and
copies it onto the upper triangle once.  What each band reads and when it
is written back depend only on the transition's sparsity pattern, and are
planned once per pattern.  The plain Kalman filter (:func:`kf_predict`,
:func:`kf_update`) runs the same two kernels on a copy of its belief's
covariance.  Particle weights combine the prior ``1/M`` of a resampled
population, the quantised-measurement likelihood, the Gaussian predictive
density of the drawn latent and the uniform proposal density, in log space.

An ensemble Kalman filter with perturbed observations serves as a baseline;
quantisation enters it only as extra additive observation noise.

Both filters keep their population state-major, as C-ordered
``(state, population)`` arrays, so the sparse transition and the sparse
``H`` act on them without a transposed copy.  Every RBPF step resamples,
and most resampled particles are copies: the RBPF keeps only its distinct
conditional means (``RbpfState.survivors``) and, per particle, the column
it reads (``RbpfState.lineage``), so each distinct mean is propagated and
updated once.  ``EnsembleState.members`` is a ``(size, state)``
transpose view of the ensemble array.

Both step functions take ``(state, observation, model, kalman)``, so that
one loop (``experiment.run_filter``) drives either estimator.  For the
particle filter the fourth slot is the step of a :func:`gain_schedule`;
the ensemble filter carries its own covariance and takes there the
step's standard normal draws, which the loop has drawn one step ahead on
a worker thread, or None to draw them from ``state.rng`` inline.  The
draws and their order do not depend on the data, so both give the same
bytes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dtrtri

from plumetrace.fem import DispersionModel
from plumetrace.sensing import QuantisedObservation, SensorNetwork

__all__ = [
    "FilterError",
    "GaussianBelief",
    "KalmanStep",
    "RbpfState",
    "EnsembleState",
    "default_jitter",
    "gain_schedule",
    "kf_predict",
    "kf_update",
    "latent_transition_logpdf",
    "normalise_weights",
    "effective_sample_size",
    "multinomial_resample",
    "rbpf_init",
    "rbpf_step",
    "enkf_init",
    "enkf_update",
    "enkf_step",
]


class FilterError(RuntimeError):
    """Raised when an estimator reaches a numerically degenerate state."""


@dataclass
class GaussianBelief:
    """Mean and covariance of a Gaussian state belief."""

    mean: np.ndarray
    cov: np.ndarray


class KalmanStep(NamedTuple):
    """The data-independent part of one Kalman step.

    ``gain_t`` is the transposed gain ``K^T``, shape ``(sensors, state)``,
    F-contiguous as LAPACK returns it: :func:`rbpf_step`'s products follow
    that layout, and the estimates' bytes depend on it.
    ``innovation_var`` is the diagonal of the innovation covariance ``S``,
    jitter included; ``cov`` the posterior covariance, ``None`` for a step
    of a :func:`gain_schedule` other than its last.
    """

    gain_t: np.ndarray
    innovation_var: np.ndarray
    cov: Optional[np.ndarray]


def default_jitter(cov: np.ndarray) -> float:
    """Diagonal loading for the innovation covariance.

    The latent measurement carries no noise of its own, so ``H P H^T`` can
    be singular; a load proportional to the average state variance keeps the
    update well posed without visibly perturbing it.
    """
    return 1e-9 * float(np.trace(cov)) / cov.shape[0]


# Rows per block in the covariance products: full-size temporaries would
# add to peak memory, which the n x n covariance dominates.
_BAND = 64


class _Band(NamedTuple):
    """What the sparsity pattern of a square CSR ``A`` fixes of the band
    ``A[i:j]`` of its rows.

    The band's product ``A[i:j] P`` reads only the rows ``rows`` of ``P``
    that its nonzeros touch, and only the columns from ``lo`` on, the first
    column that any row of ``A[i:]`` touches.  ``band`` and ``tail`` are
    the ``(indices, indptr)`` of ``A[i:j]`` and ``A[i:]``, their columns
    remapped into ``rows`` and shifted by ``lo``; each row keeps its stored
    order, so a product sums in the same order as ``A``'s.  ``writes``
    lists the bands whose panels of the prediction are written back once
    this band is done, as no later band reads their columns.
    """

    i: int
    j: int
    rows: Optional[np.ndarray]
    lo: int
    band: tuple
    tail: tuple
    writes: tuple


def _band_plan(a) -> tuple:
    """The :class:`_Band` of each band of ``_BAND`` rows of the square CSR
    ``a``; built once per sparsity pattern."""
    return _plan_of_pattern(a.shape[0], a.indices.dtype.str,
                            a.indptr.tobytes(), a.indices.tobytes())


@lru_cache(maxsize=4)
def _plan_of_pattern(n: int, dtype: str, indptr: bytes,
                     indices: bytes) -> tuple:
    """:func:`_band_plan` of the pattern given by the CSR index arrays.

    Gathering ``P[rows, lo:]`` moves ``rows.size (n - lo)`` values to save
    ``band.nnz lo`` multiply-adds, so a band where that does not pay, as on
    a mesh with scattered node numbers, keeps ``A[i:j]`` and ``A[i:]``
    whole, with ``rows`` None and ``lo`` 0.  A band's panel, its columns
    ``i:j`` from row ``i`` down, waits for the last band whose ``lo`` is
    below ``j``.
    """
    indptr = np.frombuffer(indptr, dtype)
    indices = np.frombuffer(indices, dtype)
    bands = []
    for i in range(0, n, _BAND):
        j = min(i + _BAND, n)
        start, stop = int(indptr[i]), int(indptr[j])
        band = indices[start:stop], indptr[i:j + 1] - start
        tail = indices[start:], indptr[i:] - start
        rows = np.unique(band[0])
        lo = int(tail[0].min(initial=n))
        if rows.size * (n - lo) < (stop - start) * lo:
            band = np.searchsorted(rows, band[0]).astype(dtype), band[1]
            tail = tail[0] - np.array(lo, dtype), tail[1]
        else:
            rows, lo = None, 0
        for array in (rows, *band, *tail):      # shared by every caller
            if array is not None:
                array.flags.writeable = False
        bands.append(_Band(i, j, rows, lo, band, tail, ()))
    last_reader = [max(k for k in range(b, len(bands))
                       if k == b or bands[k].lo < bands[b].j)
                   for b in range(len(bands))]
    return tuple(
        band._replace(writes=tuple(b for b, k in enumerate(last_reader)
                                   if k == r))
        for r, band in enumerate(bands))


def _band_products(a) -> list:
    """``(plan, band, tail)`` for each :class:`_Band` of the CSR ``a``:
    its plan and the CSR operators ``A[i:j]`` and ``A[i:]`` with the plan's
    index arrays, which share ``a``'s values."""
    n = a.shape[1]
    products = []
    for plan in _band_plan(a):
        start = a.indptr[plan.i]
        width = n if plan.rows is None else plan.rows.size
        band = sp.csr_matrix((a.data[start:a.indptr[plan.j]], *plan.band),
                             shape=(plan.j - plan.i, width))
        tail = sp.csr_matrix((a.data[start:], *plan.tail),
                             shape=(n - plan.i, n - plan.lo))
        products.append((plan, band, tail))
    return products


@lru_cache(maxsize=None)
def _strict_upper(k: int) -> tuple:
    """Strict upper-triangle indices of a ``k x k`` block; ``k <= _BAND``."""
    return np.triu_indices(k, 1)


def _mirror_lower(p: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of the square ``p`` onto its upper triangle."""
    n = p.shape[0]
    for i in range(0, n, _BAND):
        j = min(i + _BAND, n)
        block = p[i:j, i:j]
        upper = _strict_upper(j - i)
        block[upper] = block.T[upper]
        p[i:j, j:] = p[j:, i:j].T
    return p


def _predict_lower(p: np.ndarray, products, variances) -> np.ndarray:
    """Write ``A P A^T + W`` of the symmetric ``p`` into the lower triangle
    of ``p``, which is returned; ``products`` is :func:`_band_products` of
    ``A`` and ``variances`` the diagonal of ``W``.

    The lower block triangle is formed a band of columns at a time, each
    diagonal block averaged with its transpose.  A band's panel is held
    until no later band reads its columns, so at most the lower triangle
    is held besides ``p``; the strict upper triangle outside the diagonal
    blocks keeps the old ``P``.
    """
    panels = {}
    for b, (plan, band, tail) in enumerate(products):
        # rows i: of A P A^T in the columns of the band: A[i:] (A[band] P)^T.
        # The product would copy the transpose to C order itself; copied
        # here, A[band] P and then the copy go as soon as each is used.
        x = np.ascontiguousarray(
            (band @ (p if plan.rows is None else p[plan.rows, plan.lo:])).T)
        panel = tail @ x
        del x
        k = plan.j - plan.i
        panel[:k] = 0.5 * (panel[:k] + panel[:k].T)
        panels[b] = panel
        for w in plan.writes:
            done = products[w][0]
            p[done.i:, done.i:done.j] = panels.pop(w)
    p[np.diag_indices_from(p)] += variances
    return p


def _sensor_plan(h) -> tuple:
    """``(h, h_rows, gather)`` of the CSR ``h``: ``h_rows`` is ``H`` with
    its columns remapped into the rows of ``P`` it touches, and ``gather``
    the flat indices of those rows of ``P`` in its lower triangle."""
    n = h.shape[1]
    rows = np.unique(h.indices)
    # row r of P is P[r, :r] then the column P[r:, r]
    columns = np.arange(n)
    gather = (np.maximum(rows[:, None], columns) * n
              + np.minimum(rows[:, None], columns))
    h_rows = sp.csr_matrix((h.data, np.searchsorted(rows, h.indices),
                            h.indptr), shape=(h.shape[0], rows.size))
    return h, h_rows, gather


def _condition_lower(p: np.ndarray, sensors: tuple,
                     jitter: Optional[float]) -> KalmanStep:
    """Gain, innovation variances and posterior covariance of conditioning
    the covariance ``P`` whose lower triangle the C-ordered ``p`` holds on
    the noise-free observation ``z = H x``; ``sensors`` is
    :func:`_sensor_plan` of ``H``.  ``p`` is overwritten by the posterior.

    ``jitter`` is added to the diagonal of the innovation covariance ``S``;
    ``None`` means :func:`default_jitter` of ``P``.  With the Cholesky
    factor ``S = L L^T`` and ``V = L^-1 H P`` the gain is ``K^T = L^-T V``
    and the posterior ``P - K H P = P - V^T V``, exactly symmetric.
    ``H P`` reads only the rows of ``P`` that ``H`` touches, gathered from
    the lower triangle; the rank-k update (BLAS ``dsyrk``) works in place
    on the lower triangle, which is then copied onto the upper one.
    """
    if jitter is None:
        jitter = default_jitter(p)
    h, h_rows, gather = sensors
    hp = h_rows @ np.take(p, gather)
    s = hp @ h.T
    s[np.diag_indices_from(s)] += jitter
    try:
        root = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise FilterError(
            "innovation covariance is singular despite jitter; observation "
            "configuration is ill posed"
        ) from exc
    v = solve_triangular(root, hp, lower=True, check_finite=False)
    gain_t = solve_triangular(root, v, lower=True, trans="T",
                              check_finite=False)
    if not np.isfinite(gain_t).all():
        raise FilterError("Kalman gain overflowed; observation configuration "
                          "is ill posed")
    # BLAS sees p^T, whose upper triangle is the lower one of p
    post = dsyrk(-1.0, v, beta=1.0, c=p.T, trans=1, lower=0,
                 overwrite_c=1).T
    return KalmanStep(gain_t, np.diag(s).copy(), _mirror_lower(post))


def gain_schedule(
    models: Sequence, h: np.ndarray, init_cov: float
) -> Iterator[KalmanStep]:
    """Run the covariance recursion from the prior covariance
    ``init_cov I``, ``init_cov`` a positive scalar, through the per-step
    ``models``: each step predicts as :func:`kf_predict` and conditions on
    ``z = H x`` as :func:`kf_update` with the default jitter, working on the
    lower triangle in between.

    Yields one :class:`KalmanStep` per model, computed when it is read, so
    a reader that drops each step before taking the next holds one step's
    gain at a time; ``list(...)`` keeps the whole schedule.  Only the last
    step carries its posterior covariance.  A bad ``h`` or ``init_cov``
    raises here, at the call, not at the first step.

    ``h`` is dense or sparse; its sensor plan, and the band plan of each
    distinct model's transition, are formed here, so a process forked
    after the call inherits them.  Each run of steps that share a model
    forms its row-band operators once, on its band plan.  The n x n
    covariance is allocated at the first step.
    """
    h = sp.csr_matrix(
        h if sp.issparse(h) else np.atleast_2d(np.asarray(h, dtype=float)))
    sensors, variance = _sensor_plan(h), _prior_variance(init_cov)
    for model in {id(model): model for model in models}.values():
        _band_plan(model.augmented_transition())
    return _recursion(models, sensors, variance)


def _recursion(models: Sequence, sensors: tuple,
               variance: float) -> Iterator[KalmanStep]:
    """The steps of :func:`gain_schedule` from the prior ``variance I``;
    ``sensors`` is :func:`_sensor_plan` of ``H``."""
    # one n x n buffer: each step predicts into the covariance it reads and
    # conditions it in place
    cov = np.diag(np.full(sensors[0].shape[1], variance))
    last = len(models) - 1
    sliced = products = None
    for k, model in enumerate(models):
        if model is not sliced:
            products = _band_products(model.augmented_transition())
            sliced = model
        _predict_lower(cov, products, model.process_variances())
        gain_t, innovation_var, cov = _condition_lower(cov, sensors, None)
        yield KalmanStep(gain_t, innovation_var, cov if k == last else None)
        # a reader that drops the step holds no gain while the next is formed
        del gain_t, innovation_var


def kf_predict(model, belief: GaussianBelief) -> GaussianBelief:
    """Propagate a Gaussian belief through the model dynamics.

    The covariance ``A P A^T + W``, exactly symmetric, comes from the
    kernel the :func:`gain_schedule` runs, on a copy of ``belief.cov``;
    ``belief`` is never written.
    """
    a = model.augmented_transition()
    p = np.array(belief.cov, dtype=float, order="C")
    _predict_lower(p, _band_products(a), model.process_variances())
    return GaussianBelief(mean=a @ belief.mean, cov=_mirror_lower(p))


def kf_update(
    belief: GaussianBelief, h: np.ndarray, z, jitter: Optional[float] = None
) -> GaussianBelief:
    """Condition a Gaussian belief on the noise-free observation ``z = H x``.

    ``jitter`` loads the diagonal of the innovation covariance, by default
    :func:`default_jitter` of ``belief.cov``.  A copy of ``belief.cov`` goes
    through the kernel the :func:`gain_schedule` runs, which reads only its
    lower triangle; the posterior is exactly symmetric and ``belief`` is
    never written.

    Raises
    ------
    FilterError
        If the innovation covariance is singular even with the jitter,
        which signals an ill-posed observation configuration.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    step = _condition_lower(np.array(belief.cov, dtype=float, order="C"),
                            _sensor_plan(sp.csr_matrix(h)), jitter)
    mean = belief.mean + (z - h @ belief.mean) @ step.gain_t
    return GaussianBelief(mean=mean, cov=step.cov)


def latent_transition_logpdf(z, mean, variance):
    """Log density of ``z`` under a scalar Gaussian, vectorised."""
    z = np.asarray(z, dtype=float)
    variance = np.asarray(variance, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi * variance) + (z - mean) ** 2 / variance)


def normalise_weights(log_weights) -> np.ndarray:
    """Exponentiate shifted log weights and normalise them to sum to one.

    Raises
    ------
    FilterError
        If every weight vanished (all log weights ``-inf`` or non-finite),
        with the largest log weight in the message for diagnosis.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    top = log_weights.max()
    if not np.isfinite(top):
        raise FilterError(
            "particle weights degenerated: largest log weight is "
            f"{top}; observations are irreconcilable with every particle"
        )
    w = np.exp(log_weights - top)
    return w / w.sum()


def effective_sample_size(weights) -> float:
    """Inverse sum of squared normalised weights."""
    w = np.asarray(weights, dtype=float)
    return float(1.0 / (w ** 2).sum())


def multinomial_resample(weights, rng, size: Optional[int] = None) -> np.ndarray:
    """Draw ancestor indices i.i.d. from the categorical given by ``weights``."""
    w = np.asarray(weights, dtype=float)
    if (w < 0.0).any() or abs(w.sum() - 1.0) > 1e-6:
        raise ValueError("weights must be normalised and non-negative")
    edges = np.cumsum(w)
    u = rng.random(w.size if size is None else int(size))
    return np.minimum(np.searchsorted(edges, u, side="right"), w.size - 1)


def _observed_values(observation, net: SensorNetwork) -> np.ndarray:
    """The quantised values of ``observation``, a
    :class:`QuantisedObservation` or an array, checked to supply one value
    per sensor of ``net``."""
    y_hat = np.asarray(getattr(observation, "values", observation), dtype=float)
    if y_hat.shape != (net.count,):
        raise ValueError(
            f"observation must supply {net.count} values, got {y_hat.shape}"
        )
    return y_hat


@dataclass
class RbpfState:
    """Particle population of the filter: what its next step reads.

    Every step resamples, so every particle enters a step with weight
    ``1/M`` and many share an ancestor and with it their conditional mean.
    The population is kept as its distinct means, ``survivors``, a
    C-ordered ``(state, distinct)`` array, and ``lineage``, which maps each
    particle to its column, with the generator ``rng`` that draws the
    latents and the ancestors.  The covariance is shared by all particles
    and lives in the :func:`gain_schedule`, not here.
    """

    network: SensorNetwork
    survivors: np.ndarray
    lineage: np.ndarray
    rng: np.random.Generator

    @property
    def particle_count(self) -> int:
        return self.lineage.size


def _prior_variance(cov) -> float:
    """The variance ``c`` of the isotropic prior covariance ``c I``, a
    positive scalar the caller must give: ``None`` is refused."""
    if cov is None:
        raise ValueError("initial covariance is required, got None")
    if np.ndim(cov) != 0:
        raise ValueError("initial covariance must be a scalar variance, got "
                         f"shape {np.shape(cov)}")
    cov = float(cov)
    if not cov > 0.0:
        raise ValueError(f"initial covariance must be positive, got {cov}")
    return cov


def rbpf_init(
    model: DispersionModel,
    network: SensorNetwork,
    particle_count: int,
    rng: np.random.Generator,
) -> RbpfState:
    """Initial population: ``particle_count`` particles of weight ``1/M``,
    all at the zero prior mean; the prior covariance is the ``init_cov`` of
    the :func:`gain_schedule` that drives the steps."""
    particle_count = int(particle_count)
    if particle_count < 1:
        raise ValueError("particle count must be at least 1")
    return RbpfState(
        network=network,
        survivors=np.zeros((model.state_dim, 1)),
        lineage=np.zeros(particle_count, dtype=np.intp),
        rng=rng,
    )


def rbpf_step(
    state: RbpfState,
    observation: Union[QuantisedObservation, np.ndarray],
    model: DispersionModel,
    kalman: KalmanStep,
) -> tuple[RbpfState, np.ndarray]:
    """Advance the filter by one observation; return the new state and the
    weighted posterior-mean estimate.

    ``model`` is the step's dynamics and ``kalman`` the step's covariance
    recursion, taken from a :func:`gain_schedule` over the same models.
    Each distinct conditional mean is predicted once.  Per particle a
    latent is drawn uniformly over each sensor's received cell, and the
    weight takes, per sensor, the mixture likelihood times the latent's
    predictive density over the proposal density.  Every step resamples,
    multinomially, and only the resampled ancestors' means are updated
    with the shared gain.  The estimate is the weighted mean of the updated
    means before resampling.
    """
    net = state.network
    y_hat = _observed_values(observation, net)
    h = net.H_csr

    # each distinct mean is propagated once; particle m reads column
    # lineage[m] of A x and of H A x
    lineage = state.lineage
    ax = model.augmented_transition() @ state.survivors
    z_pred = (h @ ax)[:, lineage].T
    half = net.cell_half_width
    draws = state.rng.random((state.particle_count, net.count))
    z = (y_hat - half) + 2.0 * half * draws

    log_trans = latent_transition_logpdf(z, z_pred, kalman.innovation_var)
    log_obs = net.log_likelihood(y_hat, z)
    # every particle enters with weight 1/M; this scalar is bit for bit each
    # entry of np.log(np.full(M, 1/M)), which -np.log(M) is not for every M
    log_w = np.log(1.0 / state.particle_count) + (
        log_obs + log_trans - net.proposal_log_density).sum(axis=-1)
    weights = normalise_weights(log_w)

    innovations = z - z_pred
    gain = kalman.gain_t.T
    estimate = (ax @ np.bincount(lineage, weights, minlength=ax.shape[1])
                + gain @ (innovations.T @ weights))

    ancestors = multinomial_resample(weights, state.rng)
    # the distinct ancestors in order and each particle's column among them,
    # as np.unique gives them but with no sort
    survived = np.bincount(ancestors, minlength=weights.size) > 0
    keep = np.flatnonzero(survived)
    new_lineage = (np.cumsum(survived) - 1)[ancestors]
    # padded to a multiple of 8 columns, every column of the gain product
    # goes through the same gemm kernel, so a survivor's bits depend neither
    # on how many survive nor on the BLAS thread count.  The padding never
    # exceeds the particle count, so each column comes out as it would in
    # the product over the whole population (a gemv for one particle).
    padded = np.resize(keep, min(-(-keep.size // 8) * 8, weights.size))
    survivors = np.take(ax, lineage[keep], axis=1)
    survivors += (gain @ innovations[padded].T)[:, :keep.size]
    return replace(state, survivors=survivors, lineage=new_lineage), estimate


@dataclass
class EnsembleState:
    """Equally weighted ensemble carried by the baseline filter.

    ``members`` is a ``(size, state)`` transpose view of a C-ordered
    ``(state, size)`` array.
    """

    network: SensorNetwork
    members: np.ndarray
    rng: np.random.Generator

    @property
    def size(self) -> int:
        return self.members.shape[0]


def enkf_init(
    model: DispersionModel,
    network: SensorNetwork,
    size: int,
    rng: np.random.Generator,
    cov,
) -> EnsembleState:
    """Draw the initial ensemble from the Gaussian prior ``N(0, cov I)``,
    ``cov`` a positive scalar with no default.  The root of ``cov I`` is
    ``sqrt(cov) I``, so each member is its draws scaled by ``sqrt(cov)``
    and no ``(n+1)^2`` matrix is formed."""
    size = int(size)
    if size < 2:
        raise ValueError("ensemble size must be at least 2")
    cov = _prior_variance(cov)
    members = rng.standard_normal((size, model.state_dim)) * np.sqrt(cov)
    return EnsembleState(network=network,
                         members=np.ascontiguousarray(members.T).T, rng=rng)


def _draw_shapes(state: EnsembleState) -> tuple:
    """The shapes of one :func:`enkf_step`'s draws: the process noise, one
    row per member, then the observation perturbations."""
    return state.members.shape, (state.size, state.network.count)


def _fill_draws(rng: np.random.Generator, noise: np.ndarray,
                perturbations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill one :func:`enkf_step`'s C-ordered draw buffers from ``rng``,
    the process noise first, and return them.  ``standard_normal(out=b)``
    gives ``b`` the values ``standard_normal(b.shape)`` would return."""
    rng.standard_normal(out=noise)
    rng.standard_normal(out=perturbations)
    return noise, perturbations


def enkf_update(
    members: np.ndarray, h, noise_var, y_hat, perturbations, *, _out=None
) -> np.ndarray:
    """Kalman-style ensemble update with explicit observation perturbations.

    The gain uses the sample covariance of ``members``; each member is
    pulled toward its own perturbed copy of the observation.  Passing zero
    perturbations gives the deterministic shift shared by identical
    members.  ``h`` is a dense array or a sparse matrix; ``noise_var`` is
    a scalar or one variance per sensor, added to the diagonal of the
    innovation covariance ``S``.  Warns when the ensemble spread has
    collapsed.

    With the Cholesky factor ``S = L L^T`` the gain ``P H^T S^-1`` is
    ``(P H^T L^-T) L^-1``, ``L^-1`` being LAPACK ``dtrtri``'s triangular
    inverse: two small products in place of solving ``S`` against every
    state row of ``P H^T``.

    The work is done state-major, on ``x = members.T``: the anomalies are
    formed once, for the spread and for ``P H^T``, and ``H x`` once, for the
    observed anomalies and the innovations.  ``_out`` is a spent C-ordered
    ``(state, size)`` buffer that takes the anomalies and then the updated
    ensemble; the result is its ``(size, state)`` transpose view.

    Raises
    ------
    FilterError
        If ``S`` is not positive definite: a collapsed spread with zero
        noise leaves it singular, a negative noise variance can make it
        indefinite.
    """
    x = np.asarray(members, dtype=float).T
    count = x.shape[1]
    denom = max(count - 1, 1)
    anomalies = np.subtract(x, x.mean(axis=1)[:, None], out=_out)
    if np.vdot(anomalies, anomalies) / anomalies.size < 1e-24:
        warnings.warn(
            "ensemble spread has collapsed; consider covariance inflation",
            RuntimeWarning,
        )
    hx = h @ x
    ye = hx - hx.mean(axis=1)[:, None]
    s = ye @ ye.T / denom
    s[np.diag_indices_from(s)] += noise_var
    pht = anomalies @ ye.T / denom
    try:
        root = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise FilterError("ensemble innovation covariance is singular or "
                          "indefinite") from exc
    inv_root, _ = dtrtri(root, lower=1)
    gain = (pht @ inv_root.T) @ inv_root
    innovations = (y_hat + perturbations).T - hx
    # the anomalies are spent: their buffer takes the update, then x
    update = np.matmul(gain, innovations, out=anomalies)
    update += x
    return update.T


def enkf_step(
    state: EnsembleState,
    observation: Union[QuantisedObservation, np.ndarray],
    model: DispersionModel,
    draws: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[EnsembleState, np.ndarray]:
    """Advance the ensemble one step; return the new state and ensemble mean.

    The step takes the arguments of :func:`rbpf_step`; the ensemble carries
    its own covariance, so its fourth slot holds the step's standard normal
    ``draws`` in place of a schedule step: the process noise, C-ordered
    ``(size, state)``, and the observation perturbations,
    ``(size, sensors)``, as :func:`_fill_draws` fills them.  The step
    scales them in place and keeps the noise buffer as the new ensemble.
    With None it draws them from ``state.rng`` itself, the same values in
    the same order.

    Members are propagated through the sparse augmented transition with
    process noise drawn from the diagonal process covariance, then updated
    against perturbed observations by :func:`enkf_update`; quantisation
    contributes additive noise of variance ``(cell half-width)^2 / 3`` on
    top of the sensor noise.
    """
    net = state.network
    y_hat = _observed_values(observation, net)

    # x before an inline draw's noise buffer, which outlives the step as the
    # new ensemble: the other order leaves the freed x on top of the heap,
    # which is then trimmed and regrown (and page-faulted) every other step
    x = model.augmented_transition() @ state.members.T
    if draws is None:
        draws = _fill_draws(state.rng, *map(np.empty, _draw_shapes(state)))
    noise, perturbations = draws
    noise *= np.sqrt(model.process_variances())    # member by member
    x += noise.T

    r_eff = net.noise_var + net.cell_half_width ** 2 / 3.0
    perturbations *= np.sqrt(r_eff)
    # the noise is spent: its buffer, read state-major, takes the update
    members = enkf_update(x.T, net.H_csr, r_eff, y_hat, perturbations,
                          _out=noise.reshape(x.shape))
    estimate = members.mean(axis=0)

    return replace(state, members=members), estimate
