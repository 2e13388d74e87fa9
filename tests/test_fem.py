from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from plumetrace import experiment, fem
from plumetrace.cli import load_config
from plumetrace.fem import (
    GlobalSystem,
    assemble,
    build_model,
    default_time_step,
    stability_report,
    step,
)
from plumetrace.flowfield import (
    GriddedFlow,
    RigidRotationFlow,
    element_velocities,
)
from plumetrace.mesh import (
    MeshError,
    TriMesh,
    build_structured_mesh,
    locate_points,
)

from oracles import (
    _digests_at_one_and_two_blas_threads,
    assert_same_csr,
    element_force,
    element_geometry,
    element_mass,
    element_stiffness,
    scipy_augmented_transition,
    scipy_lambda_operator,
    scipy_transition,
)

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
from test_mesh import triangles


def _gradients(geom):
    """Shape-function gradients from first principles: fit the plane that is
    1 at one node and 0 at the others."""
    a = np.column_stack([np.ones(3), geom.coords])
    grads = np.empty((3, 2))
    for i in range(3):
        coef = np.linalg.solve(a, np.eye(3)[i])
        grads[i] = coef[1:]
    return grads


def _midpoint_quadrature(geom, f):
    """Edge-midpoint rule; exact for quadratics on a triangle."""
    c = geom.coords
    mids = [(c[0] + c[1]) / 2, (c[1] + c[2]) / 2, (c[0] + c[2]) / 2]
    return geom.area / 3.0 * sum(f(m) for m in mids)


def _bary(geom, p):
    a = np.column_stack([np.ones(3), geom.coords])
    return np.linalg.solve(a.T, np.array([1.0, p[0], p[1]]))


class TestElementMatrices:
    def test_mass_reference_triangle(self):
        m = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        g = element_geometry(m, 0)
        expected = 0.5 / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        np.testing.assert_allclose(element_mass(g), expected)
        np.testing.assert_allclose(element_mass(g, lumped=True), 0.5 / 3.0 * np.eye(3))

    @given(triangles())
    def test_mass_matches_quadrature(self, mesh):
        g = element_geometry(mesh, 0)
        me = element_mass(g)
        for i in range(3):
            for j in range(3):
                exact = _midpoint_quadrature(g, lambda p: _bary(g, p)[i] * _bary(g, p)[j])
                assert me[i, j] == pytest.approx(exact, rel=1e-9)
        # lumping preserves the row sums (total mass)
        np.testing.assert_allclose(
            element_mass(g, lumped=True).sum(axis=1), me.sum(axis=1), rtol=1e-12
        )

    @given(triangles(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.0, 3.0))
    def test_stiffness_matches_gradient_form(self, mesh, u, v, lam):
        g = element_geometry(mesh, 0)
        grads = _gradients(g)
        vel = np.array([u, v])
        advection = np.tile(g.area / 3.0 * grads @ vel, (3, 1))
        diffusion = lam * g.area * grads @ grads.T
        ke = element_stiffness(g, lam, vel)
        scale = g.area * (1.0 + abs(u) + abs(v) + lam)
        np.testing.assert_allclose(ke, advection + diffusion, atol=1e-9 * scale)

    @given(triangles(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.0, 3.0))
    def test_stiffness_annihilates_constants(self, mesh, u, v, lam):
        g = element_geometry(mesh, 0)
        ke = element_stiffness(g, lam, (u, v))
        resid = ke @ np.ones(3)
        assert np.abs(resid).max() < 1e-9 * (1.0 + np.abs(ke).max())

    def test_stiffness_rejects_negative_diffusivity(self):
        m = build_structured_mesh(0, 0, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="non-negative"):
            element_stiffness(element_geometry(m, 0), -1.0, (0.0, 0.0))

    def test_force(self):
        m = build_structured_mesh(0, 0, 1, 1, 1, 1)
        g = element_geometry(m, 0)
        np.testing.assert_allclose(
            element_force(g, 2.0, True), np.full(3, g.area * 2.0 / 3.0)
        )
        np.testing.assert_array_equal(element_force(g, 2.0, False), np.zeros(3))

    def test_degenerate_element_rejected(self):
        m = build_structured_mesh(0, 0, 1, 1, 1, 1)
        g = element_geometry(m, 0)
        broken = type(g)(coords=g.coords, x21=g.x21, x31=g.x31, x32=g.x32,
                         y21=g.y21, y31=g.y31, y32=g.y32, area=0.0)
        for fn in (lambda: element_mass(broken),
                   lambda: element_stiffness(broken, 1.0, (0, 0)),
                   lambda: element_force(broken, 1.0, True)):
            with pytest.raises(ValueError, match="degenerate"):
                fn()


def _element_loop(mesh, velocities, lam, lumped):
    """Dense global mass and transport matrices summed element by element
    from the oracle element matrices."""
    n = mesh.node_count
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    for e in range(mesh.element_count):
        g = element_geometry(mesh, e)
        idx = mesh.elements[e]
        mass[np.ix_(idx, idx)] += element_mass(g, lumped=lumped)
        stiff[np.ix_(idx, idx)] += element_stiffness(g, lam, velocities[e])
    return mass, stiff


class TestAssembly:
    def test_matches_element_loop(self):
        mesh = build_structured_mesh(0.0, 0.0, 2.0, 1.0, 3, 2)
        rng = np.random.default_rng(3)
        vel = rng.normal(0.0, 0.1, (mesh.element_count, 2))
        sys_ = assemble(mesh, vel, 0.7)
        mass, stiff = _element_loop(mesh, vel, 0.7, lumped=True)
        np.testing.assert_allclose(sys_.mass.toarray(), mass, atol=1e-13)
        np.testing.assert_allclose(sys_.stiffness.toarray(), stiff, atol=1e-13)

    def test_single_velocity_broadcasts(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 2, 2)
        a = assemble(mesh, (0.1, -0.2), 0.01)
        b = assemble(mesh, np.tile([0.1, -0.2], (mesh.element_count, 1)), 0.01)
        assert (a.stiffness != b.stiffness).nnz == 0

    def test_transport_annihilates_constants(self):
        mesh = build_structured_mesh(0, 0, 3, 2, 5, 4)
        sys_ = assemble(mesh, (0.3, -0.1), 0.05)
        resid = sys_.stiffness @ np.ones(mesh.node_count)
        assert np.abs(resid).max() < 1e-12

    def test_mass_row_sums_match_lumped_diagonal(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 3)
        consistent, _ = _element_loop(
            mesh, np.zeros((mesh.element_count, 2)), 0.0, lumped=False)
        lumped = assemble(mesh, (0, 0), 0.0)
        np.testing.assert_allclose(
            consistent.sum(axis=1), lumped.mass.diagonal(), rtol=1e-12
        )
        assert np.isclose(lumped.mass.diagonal().sum(), 1.0)  # total area

    def test_source_pattern(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        sys_ = assemble(mesh, (0, 0), 0.01, source=(0.3, 0.55))
        (element,), _ = locate_points(mesh, [(0.3, 0.55)])
        assert element >= 0
        nodes = mesh.elements[element]
        np.testing.assert_allclose(sys_.source[nodes],
                                   mesh.areas[element] / 3.0)
        others = np.setdiff1d(np.arange(mesh.node_count), nodes)
        assert (sys_.source[others] == 0.0).all()

    def test_source_outside_mesh(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 2, 2)
        with pytest.raises(MeshError, match="outside"):
            assemble(mesh, (0, 0), 0.01, source=(2.0, 0.5))

    def test_no_source(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 2, 2)
        sys_ = assemble(mesh, (0, 0), 0.01)
        assert (sys_.source == 0.0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_velocity_rejected(self, bad):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        vel = np.full((mesh.element_count, 2), 0.1)
        vel[7, 1] = bad
        with pytest.raises(ValueError, match="element 7 is not finite"):
            assemble(mesh, vel, 0.01)
        with pytest.raises(ValueError, match="element 7 is not finite"):
            stability_report(mesh, vel, 0.01)
        with pytest.raises(ValueError, match="not finite"):
            assemble(mesh, (bad, 0.0), 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_diffusivity_rejected(self, bad):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        with pytest.raises(ValueError, match="diffusivity must be finite"):
            assemble(mesh, (0.1, 0.0), bad)
        with pytest.raises(ValueError, match="diffusivity must be finite"):
            stability_report(mesh, (0.1, 0.0), bad)
        with pytest.raises(ValueError, match="diffusivity must be finite"):
            fem.artificial_diffusivity(mesh, [(0.1, 0.0)], bad)

    def test_systems_on_one_mesh_share_the_mass_matrix(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        a = assemble(mesh, (0.1, 0.0), 0.01, source=(0.3, 0.55))
        b = assemble(mesh, (0.0, 0.2), 0.03, source=(0.3, 0.55))
        assert a.mass is b.mass
        np.testing.assert_array_equal(a.source, b.source)
        with pytest.raises(ValueError, match="read-only"):
            a.mass.data[0] = 1.0


class TestBuildModel:
    def setup_method(self):
        self.mesh = build_structured_mesh(0.0, 0.0, 1.0, 1.0, 3, 3)
        self.system = assemble(self.mesh, (0.05, 0.0), 1e-3, source=(0.4, 0.6))

    def test_lumped_transition(self):
        dt = 0.01
        model = build_model(self.system, dt, 1e-4, 1e-6)
        n = self.mesh.node_count
        diag = self.system.mass.diagonal()
        expected_a = np.eye(n) - dt * self.system.stiffness.toarray() / diag[:, None]
        np.testing.assert_allclose(model.transition.toarray(), expected_a, atol=1e-14)
        np.testing.assert_allclose(
            model.injection, dt * self.system.source / diag, atol=1e-16
        )

    def test_non_diagonal_mass_rejected(self):
        consistent, _ = _element_loop(
            self.mesh, np.zeros((self.mesh.element_count, 2)), 0.0,
            lumped=False)
        system = GlobalSystem(
            mass=sp.csr_matrix(consistent), stiffness=self.system.stiffness,
            source=self.system.source,
        )
        with pytest.raises(ValueError, match="not diagonal"):
            build_model(system, 0.01, 1e-4, 1e-6)

    def test_zero_dt_freezes_field(self):
        model = build_model(self.system, 0.0, 1e-4, 1e-6)
        n = self.mesh.node_count
        np.testing.assert_array_equal(model.transition.toarray(), np.eye(n))
        np.testing.assert_array_equal(model.injection, np.zeros(n))

    def test_augmented_layout(self):
        model = build_model(self.system, 0.01, 1e-4, 1e-6)
        n = model.node_count
        a_bar = model.augmented_transition().toarray()
        assert a_bar.shape == (n + 1, n + 1)
        np.testing.assert_array_equal(a_bar[:n, :n], model.transition.toarray())
        np.testing.assert_array_equal(a_bar[:n, n], model.injection)
        np.testing.assert_array_equal(a_bar[n, :n], np.zeros(n))
        assert a_bar[n, n] == 1.0

    def test_process_covariance_blocks(self):
        model = build_model(self.system, 0.01, 2e-4, 3e-6)
        n = model.node_count
        w_bar = np.diag(model.process_variances())
        np.testing.assert_array_equal(w_bar[:n, :n], 2e-4 * np.eye(n))
        assert w_bar[n, n] == 3e-6
        assert (w_bar[n, :n] == 0.0).all() and (w_bar[:n, n] == 0.0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_model(self.system, -0.1, 1e-4, 1e-6)
        with pytest.raises(ValueError, match="strength variance"):
            build_model(self.system, 0.01, 1e-4, 0.0)
        with pytest.raises(ValueError, match="field variance"):
            build_model(self.system, 0.01, -1.0, 1e-6)
        n = self.mesh.node_count
        asym = np.eye(n)
        asym[0, 1] = 0.5
        with pytest.raises(ValueError, match="field variance must be a scalar"):
            build_model(self.system, 0.01, asym, 1e-6)
        with pytest.raises(ValueError, match="field variance must be a scalar"):
            build_model(self.system, 0.01, np.eye(3), 1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arguments_rejected(self, bad):
        with pytest.raises(ValueError, match="time step must be finite"):
            build_model(self.system, bad, 1e-4, 1e-6)
        with pytest.raises(ValueError, match="field variance must be finite"):
            build_model(self.system, 0.01, bad, 1e-6)
        with pytest.raises(ValueError,
                           match="strength variance must be finite"):
            build_model(self.system, 0.01, 1e-4, bad)

    def test_non_finite_mass_rejected(self):
        diag = self.system.mass.diagonal().copy()
        diag[3] = np.nan
        broken = GlobalSystem(
            mass=sp.diags(diag).tocsr(), stiffness=self.system.stiffness,
            source=self.system.source,
        )
        with pytest.raises(ValueError, match="non-finite"):
            build_model(broken, 0.01, 1e-4, 1e-6)

    def test_singular_mass_rejected(self):
        n = self.mesh.node_count
        diag = self.system.mass.diagonal().copy()
        diag[0] = 0.0
        broken = GlobalSystem(
            mass=sp.diags(diag).tocsr(), stiffness=self.system.stiffness,
            source=self.system.source,
        )
        with pytest.raises(ValueError, match="singular"):
            build_model(broken, 0.01, 1e-4, 1e-6)


class TestStep:
    def test_constant_field_is_noise_free_fixed_point(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        system = assemble(mesh, (0.2, -0.1), 0.05)
        model = build_model(system, 0.01, 1e-4, 1e-6)
        state = np.append(np.ones(mesh.node_count), 0.0)
        out = step(model, state)
        assert out.shape == (model.state_dim,)
        np.testing.assert_allclose(out[:-1], 1.0, atol=1e-12)
        assert out[-1] == 0.0

    def test_source_injection_and_noise(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 3, 3)
        system = assemble(mesh, (0, 0), 0.01, source=(0.4, 0.6))
        model = build_model(system, 0.1, 1e-4, 1e-6)
        state = np.append(np.zeros(mesh.node_count), 2.0)
        clean = step(model, state)
        np.testing.assert_allclose(clean[:-1], 2.0 * model.injection)
        assert clean[-1] == 2.0
        noise = np.arange(model.state_dim, dtype=float)
        noisy = step(model, state, noise)
        np.testing.assert_array_equal(noisy, clean + noise)
        # the step returns a new array and leaves its input alone
        np.testing.assert_array_equal(
            state, np.append(np.zeros(mesh.node_count), 2.0))

    def test_shape_errors(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 2, 2)
        model = build_model(assemble(mesh, (0, 0), 0.01), 0.1, 1e-4, 1e-6)
        with pytest.raises(ValueError, match="state must have shape"):
            step(model, np.zeros(3))
        with pytest.raises(ValueError, match="state must have shape"):
            step(model, np.zeros(model.node_count))
        with pytest.raises(ValueError, match="noise"):
            step(model, np.zeros(model.state_dim), noise=np.zeros(2))


def _dense_lambda_max(system):
    """Largest eigenvalue magnitude of ``M^-1 N`` from a dense eigensolve."""
    dense = system.stiffness.toarray() / system.mass.diagonal()[:, None]
    return np.abs(np.linalg.eigvals(dense)).max()


class TestStability:
    def test_lambda_max_matches_dense_eigenvalues(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 5, 5)
        system = assemble(mesh, (0.03, 0.01), 1e-3)
        report = stability_report(mesh, (0.03, 0.01), 1e-3)
        exact = _dense_lambda_max(system)
        assert report.lambda_max == pytest.approx(exact, rel=1e-10)
        assert report.critical_dt == pytest.approx(2.0 / exact, rel=1e-10)

    def test_refuses_a_step_just_above_the_dense_critical_step(self):
        mesh = build_structured_mesh(0, 0, 1000, 1000, 30, 30)
        system = assemble(mesh, (0.02, 0.0), 25.0)
        report = stability_report(mesh, (0.02, 0.0), 25.0)
        exact = _dense_lambda_max(system)
        assert not report.approves(1.000005 * 2.0 / exact)

    def test_rotation_lambda_max_matches_dense_eigenvalues(self):
        # the dominant eigenvalues are a complex-conjugate pair
        mesh = build_structured_mesh(0, 0, 1000, 1000, 20, 20)
        [velocities] = element_velocities(
            RigidRotationFlow(center=(500.0, 500.0), omega=0.01), mesh)
        system = assemble(mesh, velocities, 1.0)
        report = stability_report(mesh, velocities, 1.0)
        exact = _dense_lambda_max(system)
        assert report.lambda_max == pytest.approx(exact, rel=1e-10)

    def test_lambda_max_bytes_do_not_depend_on_the_blas_thread_count(self):
        script = (
            "from plumetrace import experiment, fem\n"
            "from plumetrace.mesh import build_structured_mesh\n"
            "desk = experiment.build_scenario(experiment.ScenarioConfig())\n"
            "print(desk.report.lambda_max.hex())\n"
            "mesh = build_structured_mesh(0, 0, 1000, 1000, 50, 50)\n"
            "report = fem.stability_report(mesh, (0.02, 0.01), 25.0)\n"
            "print(report.lambda_max.hex())\n"
        )
        digests = _digests_at_one_and_two_blas_threads(script)
        assert digests[0] == digests[1]

    def test_lambda_max_is_pinned(self):
        # ARPACK's result depends on the operator's storage order: these are
        # the values of the canonical (column-sorted) operator
        desk = experiment.build_scenario(load_config(DESK_CONFIG))
        assert desk.report.lambda_max.hex() == "0x1.546d555d7edcbp-4"
        mesh = build_structured_mesh(0, 0, 10, 10, 10, 10)
        rng = np.random.default_rng(29)
        u, v = rng.normal(0.05, 0.1, (2, 2, 4, 5))
        u[0, 3, 4] = v[0, 3, 4] = np.nan     # one land cell
        flow = GriddedFlow(np.linspace(-1, 11, 5), np.linspace(-1, 11, 4),
                           np.array([0.0, 4.0]), u, v)
        report = stability_report(mesh, element_velocities(flow, mesh)[0],
                                  0.02)
        assert report.lambda_max.hex() == "0x1.9cfb0b377e278p-3"

    def test_classical_bounds(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 10, 10)
        lam = 1e-3
        report = stability_report(mesh, (0.04, 0.0), lam)
        h = np.sqrt(2.0 * mesh.areas)
        assert report.courant_dt == pytest.approx((h / 0.04).min())
        assert report.diffusion_dt == pytest.approx((h * h / (2 * lam)).min())
        np.testing.assert_allclose(report.peclet, 0.04 * h / (2 * lam))
        assert report.max_peclet == pytest.approx(2.0)

    def test_zero_flow_limits(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        report = stability_report(mesh, (0.0, 0.0), 1e-3)
        assert np.isinf(report.courant_dt)
        assert (report.peclet == 0.0).all()
        assert report.artificial_diffusivity == 0.0

    def test_zero_diffusivity_peclet_infinite(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        report = stability_report(mesh, (0.1, 0.0), 0.0)
        assert np.isinf(report.peclet).all()
        assert np.isinf(report.diffusion_dt)

    def test_peclet_repair_hits_one_exactly(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 10, 10)  # h = 0.1
        report = stability_report(mesh, (0.04, 0.0), 1e-3)
        assert report.max_peclet == pytest.approx(2.0)
        repaired = 1e-3 + report.artificial_diffusivity
        after = stability_report(mesh, (0.04, 0.0), repaired)
        assert abs(after.max_peclet - 1.0) < 1e-12

    def test_no_repair_below_one(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 10, 10)
        report = stability_report(mesh, (0.01, 0.0), 1e-3)
        assert report.max_peclet < 1.0
        assert 1e-3 + report.artificial_diffusivity == 1e-3

    def test_artificial_diffusivity_repairs_the_worst_sample(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 10, 10)
        samples = [(0.01, 0.0), (0.04, 0.0), (0.0, 0.02)]
        repairs = [stability_report(mesh, vel, 1e-3).artificial_diffusivity
                   for vel in samples]
        assert fem.artificial_diffusivity(mesh, samples, 1e-3) == repairs[1]
        assert repairs[1] > max(repairs[0], repairs[2])

    def test_approves(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        report = stability_report(mesh, (0.0, 0.0), 1e-3)
        assert report.approves(report.critical_dt)
        assert report.approves(0.5 * report.critical_dt)
        assert not report.approves(1.01 * report.critical_dt)
        assert not report.approves(0.0)
        assert not report.approves(-1.0)

    def test_default_time_step(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        report = stability_report(mesh, (0.05, 0.0), 1e-3)
        expected = 0.5 * min(report.critical_dt, report.courant_dt)
        assert default_time_step(report) == pytest.approx(expected)

    def test_default_time_step_requires_dynamics(self):
        mesh = build_structured_mesh(0, 0, 1, 1, 4, 4)
        report = stability_report(mesh, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="stability bound"):
            default_time_step(report)


def _desk_case():
    scen = experiment.build_scenario(load_config(DESK_CONFIG))
    velocities = (scen.config.flow_u, scen.config.flow_v)   # a uniform flow
    return (assemble(scen.mesh, velocities, scen.diffusivity_eff,
                     source=scen.config.source), scen.dt)


def _land_case():
    # a 30x30 mesh under a seeded gridded flow with a land corner: zero
    # velocity there and no diffusion across the cell diagonals leave
    # explicit zeros in the stiffness
    mesh = build_structured_mesh(0, 0, 1000, 1000, 30, 30)
    rng = np.random.default_rng(43)
    u, v = rng.normal(0.0, 0.1, (2, 1, 11, 11))
    u[:, 7:, 7:] = v[:, 7:, 7:] = np.nan
    axis = np.linspace(0, 1000, 11)
    flow = GriddedFlow(axis, axis, np.array([0.0]), u, v)
    system = assemble(mesh, element_velocities(flow, mesh)[0], 25.0,
                      source=(300.0, 400.0))
    assert (system.stiffness.data == 0.0).sum() > 0
    return system, 4.0


def _shuffled_case():
    grid = build_structured_mesh(0, 0, 1, 1, 12, 12)
    perm = np.random.default_rng(5).permutation(grid.node_count)
    nodes = np.empty_like(grid.nodes)
    nodes[perm] = grid.nodes
    mesh = TriMesh(nodes, perm[grid.elements])
    return assemble(mesh, (0.03, -0.02), 1e-3, source=(0.4, 0.6)), 0.5


def _zero_dt_case():
    system, _ = _desk_case()
    return system, 0.0


def _one_entry_rows_case():
    # at most one stored product per row: scipy merges I and dt M^-1 N in
    # column order instead of leaving each diagonal last
    mass = sp.diags(np.array([1.0, 2.0, 4.0, 0.5])).tocsr()
    stiffness = sp.csr_matrix(np.array([[0.0, 0.0, 3.0, 0.0],
                                        [0.0, 0.0, 0.0, -1.0],
                                        [0.0, 0.0, 2.0, 0.0],
                                        [5.0, 0.0, 0.0, 0.0]]))
    return GlobalSystem(mass=mass, stiffness=stiffness,
                        source=np.array([0.0, 1.0, 0.0, 2.0])), 0.25


def _no_transport_case():
    mesh = build_structured_mesh(0, 0, 1, 1, 3, 3)
    return assemble(mesh, (0.0, 0.0), 0.0, source=(0.5, 0.5)), 0.1


@pytest.mark.parametrize("case", [
    _desk_case, _land_case, _shuffled_case, _zero_dt_case,
    _one_entry_rows_case, _no_transport_case,
], ids=lambda case: case.__name__.strip("_"))
def test_array_passes_match_the_scipy_expressions(case):
    system, dt = case()
    model = build_model(system, dt, 1e-4, 1e-6)
    assert_same_csr(model.transition, scipy_transition(system, dt))
    assert_same_csr(model.augmented_transition(),
                    scipy_augmented_transition(model))
    assert_same_csr(fem._lambda_operator(system.mass, system.stiffness),
                    scipy_lambda_operator(system))
    np.testing.assert_array_equal(
        model.injection, dt * system.source / system.mass.diagonal())


def test_mass_matches_the_scipy_diagonal_matrix():
    mesh = build_structured_mesh(0, 0, 1, 1, 5, 4)
    diag = np.zeros(mesh.node_count)
    np.add.at(diag, mesh.elements.ravel(), np.repeat(mesh.areas / 3.0, 3))
    assert_same_csr(assemble(mesh, (0.1, 0.0), 0.01).mass,
                    sp.diags(diag).tocsr())


def test_augmented_transition_sorts_and_sums_a_hand_made_transition():
    transition = sp.csr_matrix(
        (np.array([2.0, 1.0, 0.5, 0.25, 0.0]), np.array([2, 0, 1, 1, 0]),
         np.array([0, 2, 5, 5])), shape=(3, 3))
    model = fem.DispersionModel(transition=transition,
                                injection=np.array([0.0, 3.0, 0.0]),
                                dt=1.0, field_var=1.0, strength_var=1.0)
    assert_same_csr(model.augmented_transition(),
                    scipy_augmented_transition(model))
    assert transition.indices.tolist() == [2, 0, 1, 1, 0]   # left as it was
