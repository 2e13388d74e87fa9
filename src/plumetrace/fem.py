"""Linear finite-element discretisation of advection-diffusion transport.

The transport equation for a concentration field c(p, t) with flow velocity
v, diffusivity lam and a point source of strength u is discretised with
linear shape functions on triangles.  Galerkin projection yields

    M dc/dt + N c = Q u

with mass matrix M, transport matrix N and source injection vector Q.
Forward Euler in time gives the linear state update

    c_{k+1} = A c_k + B u_k,    A = I - dt M^-1 N,    B = dt M^-1 Q,

and the unknown source strength is appended to the state as a random walk,
giving the augmented transition used by the estimators.

A time-varying flow is discretised again for each flow interval, so the
work is split by what it depends on.  Once per mesh (on the first
:func:`assemble` call, kept on the mesh): the lumped mass matrix, the
element-to-global index pattern, each element's diffusion bracket and the
element of each source position.  Once per flow interval: the element
matrices, their sum into the canonical CSR stiffness, and array passes
over that stiffness for ``A``, the augmented transition and the stability
operator ``M^-1 N``, each byte for byte what the scipy expressions
``I - dt diags(1/m) @ N``, ``bmat([[A, B], [0, 1]])`` and the sorted
``diags(1/m) @ N`` give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plumetrace import mesh as meshmod
from plumetrace.mesh import MeshError, TriMesh

__all__ = [
    "GlobalSystem",
    "DispersionModel",
    "StabilityReport",
    "assemble",
    "build_model",
    "step",
    "stability_report",
    "artificial_diffusivity",
    "default_time_step",
]

@dataclass(frozen=True)
class GlobalSystem:
    """Assembled global matrices of the semi-discrete transport equation.

    Attributes
    ----------
    mass : scipy.sparse.csr_matrix
        Global diagonal mass matrix M, shape ``(C, C)``; one read-only
        matrix shared by every system assembled on the same mesh.
    stiffness : scipy.sparse.csr_matrix
        Global transport matrix N, shape ``(C, C)``.
    source : numpy.ndarray
        Injection pattern Q, shape ``(C,)``; multiplied by the strength at
        run time.  It is nonzero only on the three nodes of the element
        that holds the source position, all zero when no source was
        requested.
    """

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    source: np.ndarray


def _element_velocities_array(mesh: TriMesh, velocities) -> np.ndarray:
    vel = np.asarray(velocities, dtype=float)
    if vel.shape == (2,):
        vel = np.broadcast_to(vel, (mesh.element_count, 2))
    if vel.shape != (mesh.element_count, 2):
        raise ValueError(
            f"velocities must have shape ({mesh.element_count}, 2), got {vel.shape}"
        )
    finite = np.isfinite(vel).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(
            f"velocity of element {bad} is not finite: {tuple(vel[bad].tolist())}"
        )
    return vel


def _finite(name: str, value, positive: bool) -> float:
    """``value`` as a float; ``ValueError`` unless it is finite and positive
    (or non-negative)."""
    value = float(value)
    if not (0.0 < value if positive else 0.0 <= value) or value == np.inf:
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")
    return value


class _MeshTerms:
    """The flow-independent terms of assembly on one mesh.

    ``rows`` and ``cols`` index the entries of the ``(E, 3, 3)`` element
    matrices into the global matrix, ``bracket`` is each element's
    diffusion bracket ``gy gy^T + gx gx^T`` (scaled by ``lam / 4S`` per
    call), ``mass`` the lumped mass matrix, shared by every system on the
    mesh, and ``sources`` the element of each source position located so
    far.
    """

    def __init__(self, mesh: TriMesh):
        elems = mesh.elements
        n = mesh.node_count
        self.rows = np.repeat(elems, 3, axis=1).ravel()
        self.cols = np.tile(elems, (1, 3)).ravel()
        gy = np.stack([mesh._y32, -mesh._y31, mesh._y21], axis=1)
        gx = np.stack([mesh._x32, -mesh._x31, mesh._x21], axis=1)
        self.bracket = (gy[:, :, None] * gy[:, None, :]
                        + gx[:, :, None] * gx[:, None, :])
        diag = np.zeros(n)
        np.add.at(diag, elems.ravel(), np.repeat(mesh.areas / 3.0, 3))
        held = np.flatnonzero(diag)  # as sp.diags(diag).tocsr() stores it
        self.mass = sp.csr_matrix(
            (diag[held], held, np.searchsorted(held, np.arange(n + 1))),
            shape=(n, n))
        for arr in (self.mass.data, self.mass.indices, self.mass.indptr):
            arr.setflags(write=False)
        self.sources: dict[tuple[float, float], int] = {}

    def source_element(self, mesh: TriMesh, source) -> int:
        key = tuple(np.reshape(np.asarray(source, dtype=float), 2).tolist())
        if key not in self.sources:
            element = int(meshmod.locate_points(mesh, [key])[0][0])
            if element < 0:
                raise MeshError(f"source position {key} lies outside the mesh")
            self.sources[key] = element
        return self.sources[key]


def _mesh_terms(mesh: TriMesh) -> _MeshTerms:
    """The mesh's :class:`_MeshTerms`, built on first use and kept on it."""
    terms = mesh.__dict__.get("_fem_terms")
    if terms is None:
        terms = mesh._fem_terms = _MeshTerms(mesh)
    return terms


def assemble(
    mesh: TriMesh,
    velocities,
    diffusivity: float,
    source=None,
) -> GlobalSystem:
    """Assemble the global mass and transport matrices and source vector.

    The mass matrix is diagonal: each element gives ``S/3`` to each of its
    vertices, the row sums of its consistent mass matrix.  It depends on
    the mesh alone and is built once per mesh, with the element-to-global
    index pattern, the diffusion brackets and the source's element; each
    call computes only the element matrices and sums them into the
    canonical (sorted, duplicate-free) CSR stiffness.

    Parameters
    ----------
    mesh : TriMesh
    velocities : array_like
        Per-element flow velocities, shape ``(E, 2)``; a single ``(2,)``
        vector is broadcast to all elements.  Every value must be finite.
    diffusivity : float
        Isotropic diffusivity, finite and non-negative.
    source : array_like, optional
        Source position ``(x, y)``.  When given it must lie inside the mesh;
        its element receives the injection pattern with unit strength.

    Returns
    -------
    GlobalSystem
    """
    vel = _element_velocities_array(mesh, velocities)
    lam = _finite("diffusivity", diffusivity, positive=False)
    terms = _mesh_terms(mesh)
    n = mesh.node_count
    areas = mesh.areas
    u = vel[:, 0][:, None]
    v = vel[:, 1][:, None]

    x21 = mesh._x21[:, None]
    x31 = mesh._x31[:, None]
    x32 = mesh._x32[:, None]
    y21 = mesh._y21[:, None]
    y31 = mesh._y31[:, None]
    y32 = mesh._y32[:, None]

    adv = np.concatenate([v * x32 - u * y32, u * y31 - v * x31, v * x21 - u * y21],
                          axis=1) / 6.0
    ke = adv[:, None, :] + (lam / (4.0 * areas))[:, None, None] * terms.bracket
    stiffness = sp.coo_matrix(
        (ke.reshape(-1), (terms.rows, terms.cols)), shape=(n, n)
    ).tocsr()

    q = np.zeros(n)
    if source is not None:
        element = terms.source_element(mesh, source)
        q[mesh.elements[element]] = areas[element] / 3.0
    return GlobalSystem(mass=terms.mass, stiffness=stiffness, source=q)


@dataclass
class DispersionModel:
    """Discrete-time linear model of dispersion with unknown source strength.

    The field evolves as ``c' = A c + B u`` and the strength as a random
    walk ``u' = u + noise``.  ``field_var`` is the process noise variance of
    each field node and ``strength_var`` the random-walk variance; together
    they form the diagonal process covariance.
    """

    transition: sp.csr_matrix
    injection: np.ndarray
    dt: float
    field_var: float
    strength_var: float
    _a_csr: Optional[sp.csr_matrix] = field(default=None, init=False,
                                            repr=False)

    @property
    def node_count(self) -> int:
        return self.injection.shape[0]

    @property
    def state_dim(self) -> int:
        return self.node_count + 1

    def augmented_transition(self) -> sp.csr_matrix:
        """Sparse ``(C+1, C+1)`` transition with the injection as last column.

        Each row holds the transition's entries in ascending column order
        (duplicates summed), then the row's injection entry when it is
        nonzero; the last row is ``[1]``.
        """
        if self._a_csr is None:
            a = self.transition.tocsr()
            if not a.has_canonical_format:
                a = a.copy()
                a.sum_duplicates()
            n = self.node_count
            # an empty row n for the strength; each row ends in column n
            parts = _append_to_rows(
                a.data, a.indices, np.append(a.indptr, a.nnz),
                np.append(self.injection, 1.0),
                np.append(self.injection != 0.0, True), np.full(n + 1, n))
            self._a_csr = sp.csr_matrix(parts, shape=(n + 1, n + 1))
        return self._a_csr

    def process_variances(self) -> np.ndarray:
        """Diagonal ``(C+1,)`` of the process covariance, strength last."""
        return np.append(np.full(self.node_count, self.field_var),
                         self.strength_var)


def _append_to_rows(data, indices, indptr, extra, present, columns):
    """CSR arrays ``(data, indices, indptr)`` with ``extra[r]`` stored at
    column ``columns[r]`` after the entries of every row ``r`` where
    ``present[r]``; each row keeps its order."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    out_indptr = np.concatenate([[0], np.cumsum(np.diff(indptr) + present)])
    at = np.arange(data.size) + (np.cumsum(present) - present)[rows]
    last = out_indptr[1:][present] - 1
    out_data = np.empty(out_indptr[-1])
    out_indices = np.empty(out_indptr[-1], dtype=np.int64)
    out_data[at], out_indices[at] = data, indices
    out_data[last], out_indices[last] = extra[present], columns[present]
    return out_data, out_indices, out_indptr


def _mass_diagonal(mass: sp.spmatrix) -> np.ndarray:
    """The diagonal of a diagonal mass matrix; ``ValueError`` if ``mass`` is
    not diagonal or has a zero or non-finite entry on its diagonal."""
    mass = mass.tocsr()
    rows = np.repeat(np.arange(mass.shape[0]), np.diff(mass.indptr))
    if mass.data[mass.indices != rows].any():
        raise ValueError("mass matrix is not diagonal")
    diag = mass.diagonal()
    if (diag == 0.0).any():
        raise ValueError("mass matrix is singular (zero diagonal entry)")
    if not np.isfinite(diag).all():
        raise ValueError("mass matrix has a non-finite diagonal entry")
    return diag


def _scaled_stiffness(mass_diag: np.ndarray, stiffness: sp.spmatrix):
    """``M^-1 N`` as the ``(values, columns, rows, indptr)`` of a canonical
    CSR matrix: ``(1/m_r) N_rc`` for every stored ``N_rc`` of the
    duplicate-summed stiffness whose product is not zero, in ascending
    column order; ``rows`` gives each value's row."""
    inv = 1.0 / mass_diag
    stiffness = stiffness.tocsr()
    if not stiffness.has_canonical_format:
        stiffness = stiffness.copy()
        stiffness.sum_duplicates()
    rows = np.repeat(np.arange(inv.size), np.diff(stiffness.indptr))
    values = inv[rows] * stiffness.data
    kept = values != 0.0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(
        rows[kept], minlength=inv.size))])
    return values[kept], stiffness.indices[kept], rows[kept], indptr


def build_model(
    system: GlobalSystem,
    dt: float,
    field_var: float,
    strength_var: float,
) -> DispersionModel:
    """Form the forward-Euler state-space model from assembled matrices.

    ``A = I - dt M^-1 N`` and ``B = dt M^-1 Q``, with the diagonal mass
    matrix inverted entrywise.  ``dt`` may be zero, which freezes the
    field (``A = I, B = 0``).

    Raises
    ------
    ValueError
        If ``dt`` is negative or not finite, the mass matrix is not
        diagonal, is singular or is not finite, the field variance is not
        a finite positive scalar, or the strength variance is not finite
        and positive.
    """
    dt = _finite("time step", dt, positive=False)
    strength_var = _finite("strength variance", strength_var, positive=True)
    if np.ndim(field_var) != 0:
        raise ValueError(
            f"field variance must be a scalar, got shape {np.shape(field_var)}"
        )
    field_var = _finite("field variance", field_var, positive=True)

    diag = _mass_diagonal(system.mass)
    n = system.source.shape[0]
    values, cols, rows, indptr = _scaled_stiffness(diag, system.stiffness)
    # the bytes of (I - dt * (diags(1/m) @ N)).tocsr(): exact zeros dropped,
    # each row's off-diagonals in ascending order and its diagonal last
    step_values = values * dt
    on_diag = cols == rows
    off = ~on_diag & (step_values != 0.0)
    diagonal = np.ones(n)
    diagonal[rows[on_diag]] -= step_values[on_diag]
    a = sp.csr_matrix(_append_to_rows(
        -step_values[off], cols[off],
        np.concatenate([[0], np.cumsum(np.bincount(rows[off], minlength=n))]),
        diagonal, diagonal != 0.0, np.arange(n)), shape=(n, n))
    if (np.diff(indptr) <= 1).all():
        a.sort_indices()   # scipy merges such operands in column order
    b = dt * system.source / diag
    return DispersionModel(
        transition=a,
        injection=np.asarray(b, dtype=float),
        dt=dt,
        field_var=field_var,
        strength_var=strength_var,
    )


def step(model: DispersionModel, x, noise=None) -> np.ndarray:
    """Advance the augmented state ``x`` one time step.

    ``x`` is the ``(C + 1,)`` state, the concentrations with the source
    strength last.  The field moves as ``A c + B u`` (through the
    transition, not the augmented matrix, whose sums round differently)
    and the strength is held.  ``noise`` is an optional ``(C + 1,)``
    additive disturbance (field noise followed by the strength increment);
    omit it for the noise-free map.  Returns a new ``(C + 1,)`` array.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.state_dim,):
        raise ValueError(
            f"state must have shape ({model.state_dim},), got {x.shape}"
        )
    out = x.copy()
    out[:-1] = model.transition @ x[:-1] + model.injection * x[-1]
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (model.state_dim,):
            raise ValueError(
                f"noise must have shape ({model.state_dim},), got {noise.shape}"
            )
        out += noise
    return out


@dataclass(frozen=True)
class StabilityReport:
    """Explicit-integration diagnostics for a model configuration.

    ``critical_dt`` is the largest stable forward-Euler step ``2 / L`` where
    ``L`` is the dominant eigenvalue magnitude of ``M^-1 N``; ``courant_dt``
    and ``diffusion_dt`` are the classical per-element bounds ``h / |v|``
    and ``h^2 / (2 lam)`` with the element length scale ``h = sqrt(2 S)``.
    ``peclet`` holds the per-element cell Peclet numbers ``|v| h / (2 lam)``
    and ``artificial_diffusivity`` the smallest uniform addition to the
    diffusivity that brings every element to Pe <= 1.
    """

    lambda_max: float
    critical_dt: float
    courant_dt: float
    diffusion_dt: float
    peclet: np.ndarray
    artificial_diffusivity: float

    @property
    def max_peclet(self) -> float:
        return float(self.peclet.max())

    def approves(self, dt: float) -> bool:
        """Whether ``dt`` is a stable explicit step for this model."""
        return 0.0 < dt <= self.critical_dt * (1.0 + 1e-12)


def _lambda_operator(mass: sp.spmatrix, stiffness: sp.spmatrix) -> sp.csr_matrix:
    """``M^-1 N`` in canonical order, the bytes of ``diags(1/m) @ N`` with
    its indices sorted; the operator whose eigenvalues the report takes."""
    values, cols, _, indptr = _scaled_stiffness(_mass_diagonal(mass),
                                                stiffness)
    n = indptr.size - 1
    return sp.csr_matrix((values, cols, indptr), shape=(n, n))


def _lambda_max(mass: sp.spmatrix, stiffness: sp.spmatrix) -> float:
    """Dominant eigenvalue magnitude of ``M^-1 N`` by implicitly restarted
    Arnoldi (ARPACK); ``ArpackNoConvergence`` if it does not converge.
    ARPACK's iterates depend on the operator's storage order, so it is
    always given the canonical one."""
    operator = _lambda_operator(mass, stiffness)
    if operator.nnz == 0:
        return 0.0  # ARPACK rejects the all-zero operator
    n = operator.shape[0]
    # Fixed seed keeps the report deterministic; the random start avoids
    # landing in an invariant subspace such as the constant mode.
    v0 = np.random.default_rng(1905).standard_normal(n)
    # two values take a complex-conjugate dominant pair whole
    values = spla.eigs(operator, k=min(2, n - 2), which="LM", tol=1e-10,
                       v0=v0, return_eigenvectors=False)
    return float(np.abs(values).max())


def _peclet(mesh: TriMesh, vel: np.ndarray, lam: float):
    """Each element's speed ``|v|``, length scale ``h = sqrt(2 S)`` and
    cell Peclet number ``|v| h / (2 lam)``, and the smallest uniform
    addition to ``lam`` that brings every element to Pe <= 1."""
    speed = np.hypot(vel[:, 0], vel[:, 1])
    h = np.sqrt(2.0 * mesh.areas)

    with np.errstate(divide="ignore", invalid="ignore"):
        peclet = np.where(
            speed > 0.0,
            np.where(lam > 0.0, speed * h / (2.0 * lam), np.inf),
            0.0,
        )
        alpha = np.where(peclet > 0.0, 1.0 - 1.0 / peclet, -np.inf)
    alpha = np.clip(alpha, 0.0, 1.0)
    return speed, h, peclet, float((alpha * speed * h / 2.0).max())


def artificial_diffusivity(mesh: TriMesh, samples, diffusivity: float) -> float:
    """The smallest uniform addition to ``diffusivity`` that brings every
    element to Pe <= 1 under every velocity sample: the largest
    :attr:`StabilityReport.artificial_diffusivity` over ``samples``, each
    an ``(E, 2)`` array of per-element velocities or a single vector."""
    lam = _finite("diffusivity", diffusivity, positive=False)
    return max(_peclet(mesh, _element_velocities_array(mesh, vel), lam)[3]
               for vel in samples)


def stability_report(mesh: TriMesh, velocities, diffusivity: float,
                     system: Optional[GlobalSystem] = None) -> StabilityReport:
    """Diagnose explicit time integration for a mesh, flow and diffusivity.

    ``velocities`` are per-element, shape ``(E, 2)``, or a single vector.
    The eigenvalue solve reads ``system``, the assembled system of these
    velocities and diffusivity whatever its source, or one assembled here.
    """
    vel = _element_velocities_array(mesh, velocities)
    lam = _finite("diffusivity", diffusivity, positive=False)
    speed, h, peclet, lam_star = _peclet(mesh, vel, lam)

    moving = speed > 0.0
    courant = float((h[moving] / speed[moving]).min()) if moving.any() else np.inf
    diffusion = float((h * h / (2.0 * lam)).min()) if lam > 0.0 else np.inf

    if system is None:
        system = assemble(mesh, vel, lam)
    lambda_max = _lambda_max(system.mass, system.stiffness)
    critical = 2.0 / lambda_max if lambda_max > 0.0 else np.inf
    return StabilityReport(
        lambda_max=lambda_max,
        critical_dt=critical,
        courant_dt=courant,
        diffusion_dt=diffusion,
        peclet=peclet,
        artificial_diffusivity=lam_star,
    )


def default_time_step(report: StabilityReport) -> float:
    """Conservative explicit step: ``0.5 * min(critical_dt, courant_dt)``."""
    bound = min(report.critical_dt, report.courant_dt)
    if not np.isfinite(bound):
        raise ValueError(
            "no finite stability bound; the model has neither flow nor "
            "diffusion"
        )
    return 0.5 * bound
