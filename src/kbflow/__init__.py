"""kbflow: Kalman-Bucy diffusions, ensemble Kalman-Bucy filters, and a
closed-form verification harness for linear-Gaussian models."""

__version__ = "0.1.0"

from .errors import (
    BoundNotApplicable,
    ConfigError,
    KBFlowError,
    NonFinite,
    NoStabilizingSolution,
    NotPSD,
    SingularGramian,
    StepSizeUnderflow,
)
from .model import (
    GramianSet,
    LinearGaussianModel,
    ScalarModel,
    check_controllability,
    check_observability,
    gramians,
    load_model,
    log_norm,
    save_model,
    solve_are,
    spectral_abscissa,
    spectral_matching_distance,
    symmetric_sqrt,
)
from .sde import NoiseStream, Scheme, TimeGrid, project_psd
from .kalman import (
    KalmanState,
    RiccatiPath,
    RiccatiState,
    SandwichReport,
    SemigroupMatrix,
    check_riccati_sandwich,
    kalman_run,
    ricc_drift,
    riccati_flow,
    semigroup_E,
)
from .ensemble import (
    Inflation,
    StochasticSemigroup,
    TrajectoryRecord,
    Variant,
    iid_gaussian_init,
    inflated_riccati_flow,
    law_level_run,
    liouville_bound,
    moment_matched_init,
    run_enkf,
    run_nonlinear,
    stochastic_semigroup,
)
from .scalar import (
    Divergent,
    InvariantDensity,
    ScalarEquilibria,
    clt_variance_oracle,
    contraction_rate,
    double_well,
    equilibria,
    invariant_density,
    invariant_moment,
    lyapunov_bounds,
    lyapunov_exponent,
    moment_threshold,
    riccati_closed_form,
    sigma_kappa_scalar,
)
from .stats import (
    MomentAccumulator,
    StudySpec,
    StudySummary,
    hill_tail_index,
    ks_distance,
    moment_doubling_ratios,
    run_study,
    slope_fit,
    stationary_covariance_samples,
)
from . import io
