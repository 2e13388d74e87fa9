"""Contaminant dispersion on triangular meshes and source estimation.

The package discretises an advection-diffusion transport equation with a
linear finite-element method, simulates a network of quantised concentration
sensors subject to miss detection, and recovers the concentration field
together with an unknown source strength using a Rao-Blackwellised particle
filter.  An ensemble Kalman filter is included as a baseline estimator.
"""

from plumetrace.mesh import (
    MeshError,
    TriMesh,
    build_structured_mesh,
    load_mesh,
    locate_points,
    save_mesh,
)
from plumetrace.fem import (
    DispersionModel,
    GlobalSystem,
    StabilityReport,
    artificial_diffusivity,
    assemble,
    build_model,
    default_time_step,
    stability_report,
    step,
)
from plumetrace.flowfield import (
    GriddedFlow,
    RigidRotationFlow,
    UniformFlow,
    element_velocities,
    load_gridded_flow,
    save_gridded_flow,
)
from plumetrace.sensing import (
    QuantisedObservation,
    SensorNetwork,
    build_measurement_matrix,
    generate_positions,
)
from plumetrace.filters import (
    EnsembleState,
    FilterError,
    GaussianBelief,
    RbpfState,
    enkf_init,
    enkf_step,
    enkf_update,
    kf_predict,
    kf_update,
    latent_transition_logpdf,
    multinomial_resample,
    normalise_weights,
    rbpf_init,
    rbpf_step,
)
from plumetrace.experiment import (
    ScenarioConfig,
    TrialResult,
    build_scenario,
    compute_aee,
    run_trials,
    simulate_ground_truth,
)

__version__ = "0.1.0"
