"""Simulation and verification toolkit for interventions in Levy-driven SDEs.

Represent a system ``dX = a(X_{t-}) dZ`` with a Levy driver, hold a
coordinate at a value of the others, simulate observational and
postintervention processes with the Euler scheme, evaluate the pointwise
generator, and statistically verify that the discrete intervention
calculus and the postintervention distributions behave as the continuous
theory says they should.
"""

from .driver import (
    JumpAtom,
    LevyTriplet,
    characteristic_function,
    default_u_grid,
    empirical_cf,
    psd_factor,
    sample_increments,
)
from .euler import (
    ConvergenceStudy,
    EulerSem,
    Grid,
    PathEnsemble,
    build_euler_sem,
    check_commutation,
    convergence_study,
    driver_increments,
    ensemble_from_csv,
    ensemble_to_csv,
    ito_counterexample,
    simulate,
    simulate_shared,
    simulate_slices,
)
from .expr import Expression, ExprSyntaxError, parse_expression
from .generator import (
    GeneratorTerms,
    ScalarField2,
    SemigroupEstimate,
    apply_generator,
    compare_generators,
    compute_terms,
    gaussian_bump,
    semigroup_estimate,
    bump_field_battery,
)
from .intervention import (
    IntegratorInterventionError,
    InterventionSpec,
    NotDagError,
    SemModel,
    SemVertex,
    embed_constant_intervention,
    full_process_lift,
    intervene_sde,
    intervene_sem,
    intervene_update,
)
from .ou import (
    OuModel,
    SingularReversionError,
    gramian,
    matrix_exp,
    ou_intervene,
    ou_to_system,
    ou_transition,
)
from .presets import BUILTIN_NAMES, Builtin, load_builtin, two_signature_pair
from .stats import (
    TestReport,
    energy_distance_test,
    holm_rejections,
    identifiability_check,
    ks_two_sample,
)
from .system import (
    CoefficientField,
    CoefficientOverflowError,
    InitialLaw,
    SdeSystem,
    SignatureGraph,
    SignatureMismatchError,
    affine_field,
    build_chem_system,
    canonical_driver,
    constant_field,
    drift_diffusion_field,
    field_from_callable,
    field_from_expressions,
    probe_points,
    probe_signature,
)

__version__ = "0.1.0"
