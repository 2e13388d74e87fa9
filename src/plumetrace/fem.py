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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plumetrace.mesh import MeshError, TriMesh, locate_point

__all__ = [
    "GlobalSystem",
    "DispersionModel",
    "StabilityReport",
    "assemble",
    "build_model",
    "step",
    "stability_report",
    "default_time_step",
]

@dataclass(frozen=True)
class GlobalSystem:
    """Assembled global matrices of the semi-discrete transport equation.

    Attributes
    ----------
    mass : scipy.sparse.csr_matrix
        Global diagonal mass matrix M, shape ``(C, C)``.
    stiffness : scipy.sparse.csr_matrix
        Global transport matrix N, shape ``(C, C)``.
    source : numpy.ndarray
        Injection pattern Q, shape ``(C,)``; multiplied by the strength at
        run time.
    source_element : int or None
        Element containing the source position, ``None`` when no source was
        requested.
    """

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    source: np.ndarray
    source_element: Optional[int]


def _element_velocities_array(mesh: TriMesh, velocities) -> np.ndarray:
    vel = np.asarray(velocities, dtype=float)
    if vel.shape == (2,):
        vel = np.broadcast_to(vel, (mesh.element_count, 2))
    if vel.shape != (mesh.element_count, 2):
        raise ValueError(
            f"velocities must have shape ({mesh.element_count}, 2), got {vel.shape}"
        )
    return vel


def assemble(
    mesh: TriMesh,
    velocities,
    diffusivity: float,
    source=None,
) -> GlobalSystem:
    """Assemble the global mass and transport matrices and source vector.

    The mass matrix is diagonal: each element gives ``S/3`` to each of its
    vertices, the row sums of its consistent mass matrix.

    Parameters
    ----------
    mesh : TriMesh
    velocities : array_like
        Per-element flow velocities, shape ``(E, 2)``; a single ``(2,)``
        vector is broadcast to all elements.
    diffusivity : float
        Isotropic diffusivity, non-negative.
    source : array_like, optional
        Source position ``(x, y)``.  When given it must lie inside the mesh;
        its element receives the injection pattern with unit strength.

    Returns
    -------
    GlobalSystem
    """
    vel = _element_velocities_array(mesh, velocities)
    lam = float(diffusivity)
    if lam < 0.0:
        raise ValueError(f"diffusivity must be non-negative, got {lam}")
    n = mesh.node_count
    elems = mesh.elements
    areas = mesh.areas
    u = vel[:, 0][:, None]
    v = vel[:, 1][:, None]

    x21 = mesh._x21[:, None]
    x31 = mesh._x31[:, None]
    x32 = mesh._x32[:, None]
    y21 = mesh._y21[:, None]
    y31 = mesh._y31[:, None]
    y32 = mesh._y32[:, None]

    rows = np.concatenate([v * x32 - u * y32, u * y31 - v * x31, v * x21 - u * y21],
                          axis=1) / 6.0
    adv = np.broadcast_to(rows[:, None, :], (mesh.element_count, 3, 3))
    gy = np.concatenate([y32, -y31, y21], axis=1)
    gx = np.concatenate([x32, -x31, x21], axis=1)
    scale = lam / (4.0 * areas)
    diff = scale[:, None, None] * (
        gy[:, :, None] * gy[:, None, :] + gx[:, :, None] * gx[:, None, :]
    )
    ke = adv + diff

    i_idx = np.repeat(elems, 3, axis=1).ravel()
    j_idx = np.tile(elems, (1, 3)).ravel()
    stiffness = sp.coo_matrix(
        (ke.reshape(-1), (i_idx, j_idx)), shape=(n, n)
    ).tocsr()

    diag = np.zeros(n)
    np.add.at(diag, elems.ravel(), np.repeat(areas / 3.0, 3))
    mass = sp.diags(diag).tocsr()

    q = np.zeros(n)
    source_element = None
    if source is not None:
        source_element = locate_point(mesh, source)
        if source_element is None:
            raise MeshError(
                f"source position {tuple(float(x) for x in source)} lies "
                "outside the mesh"
            )
        q[elems[source_element]] = areas[source_element] / 3.0
    return GlobalSystem(
        mass=mass,
        stiffness=stiffness,
        source=q,
        source_element=source_element,
    )


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
        """Sparse ``(C+1, C+1)`` transition with the injection as last column."""
        if self._a_csr is None:
            self._a_csr = sp.bmat([
                [self.transition, sp.csr_matrix(self.injection[:, None])],
                [None, sp.csr_matrix([[1.0]])],
            ], format="csr")
        return self._a_csr

    def process_variances(self) -> np.ndarray:
        """Diagonal ``(C+1,)`` of the process covariance, strength last."""
        return np.append(np.full(self.node_count, self.field_var),
                         self.strength_var)


def _mass_diagonal(mass: sp.spmatrix) -> np.ndarray:
    """The diagonal of a diagonal mass matrix; ``ValueError`` if ``mass`` is
    not diagonal or has a zero on its diagonal."""
    diag = mass.diagonal()
    if (mass - sp.diags(diag)).nnz:
        raise ValueError("mass matrix is not diagonal")
    if (diag == 0.0).any():
        raise ValueError("mass matrix is singular (zero diagonal entry)")
    return diag


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
        If ``dt`` is negative, the mass matrix is not diagonal or is
        singular, the field variance is not a positive scalar, or the
        strength variance is not positive.
    """
    dt = float(dt)
    if dt < 0.0:
        raise ValueError(f"time step must be non-negative, got {dt}")
    strength_var = float(strength_var)
    if strength_var <= 0.0:
        raise ValueError(f"strength variance must be positive, got {strength_var}")
    if np.ndim(field_var) != 0:
        raise ValueError(
            f"field variance must be a scalar, got shape {np.shape(field_var)}"
        )
    field_var = float(field_var)
    if field_var <= 0.0:
        raise ValueError(f"field variance must be positive, got {field_var}")

    diag = _mass_diagonal(system.mass)
    n = system.source.shape[0]
    minv_n = sp.diags(1.0 / diag) @ system.stiffness.tocsr()
    b = dt * system.source / diag
    a = (sp.identity(n, format="csr") - dt * minv_n).tocsr()
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


def _lambda_max(mass: sp.spmatrix, stiffness: sp.spmatrix) -> float:
    """Dominant eigenvalue magnitude of ``M^-1 N`` by implicitly restarted
    Arnoldi (ARPACK); ``ArpackNoConvergence`` if it does not converge."""
    operator = (sp.diags(1.0 / _mass_diagonal(mass)) @ stiffness).tocsr()
    if operator.count_nonzero() == 0:
        return 0.0  # ARPACK rejects the all-zero operator
    n = operator.shape[0]
    # Fixed seed keeps the report deterministic; the random start avoids
    # landing in an invariant subspace such as the constant mode.
    v0 = np.random.default_rng(1905).standard_normal(n)
    # two values take a complex-conjugate dominant pair whole
    values = spla.eigs(operator, k=min(2, n - 2), which="LM", tol=1e-10,
                       v0=v0, return_eigenvectors=False)
    return float(np.abs(values).max())


def stability_report(
    mesh: TriMesh,
    velocities,
    diffusivity: float,
    system: Optional[GlobalSystem] = None,
    compute_lambda_max: bool = True,
) -> StabilityReport:
    """Diagnose explicit time integration for a mesh, flow and diffusivity.

    Parameters
    ----------
    mesh : TriMesh
    velocities : array_like
        Per-element velocities, shape ``(E, 2)``, or a single vector.
    diffusivity : float
    system : GlobalSystem, optional
        Reuse already-assembled matrices instead of assembling here.
    compute_lambda_max : bool
        Skip the eigenvalue estimate (``lambda_max`` and ``critical_dt``
        become ``nan`` and ``inf``) when only the mesh-quality fields are
        needed, e.g. to choose an artificial diffusivity before assembling.
    """
    vel = _element_velocities_array(mesh, velocities)
    lam = float(diffusivity)
    if lam < 0.0:
        raise ValueError(f"diffusivity must be non-negative, got {lam}")
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
    lam_star = float((alpha * speed * h / 2.0).max())

    moving = speed > 0.0
    courant = float((h[moving] / speed[moving]).min()) if moving.any() else np.inf
    diffusion = float((h * h / (2.0 * lam)).min()) if lam > 0.0 else np.inf

    if compute_lambda_max:
        if system is None:
            system = assemble(mesh, vel, lam)
        lambda_max = _lambda_max(system.mass, system.stiffness)
        critical = 2.0 / lambda_max if lambda_max > 0.0 else np.inf
    else:
        lambda_max = np.nan
        critical = np.inf
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
