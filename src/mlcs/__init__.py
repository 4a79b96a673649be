"""Four-parameter generalized Mittag-Leffler function, the coherent-state
family it generates, the measure that resolves the identity, thermal phase
space distributions, and their continuous-spectrum limits."""

from .errors import (
    ConvergenceError,
    DomainError,
    RouteMismatchError,
    TruncationOverflowError,
)
from .kcore import (
    MLParams,
    UNIT_PARAMS,
    gen_gamma,
    k_gamma,
    k_pochhammer,
    log_gen_gamma,
    log_k_gamma,
    log_k_pochhammer,
)
from .mlfunc import (
    EvalConfig,
    SeriesResult,
    ml_eval,
    ml_eval_complex,
    ml_eval_via_1f1,
    ml_laplace,
    ml_laplace_quad,
)
from .coherent import (
    CSLabel,
    FockExpansion,
    PhotonDistribution,
    cs_build,
    expansion_distance,
    expectation_ordered_power,
    ladder_lower,
    ladder_raise,
    ordered_moment_fock,
    overlap,
    overlap_from_coeffs,
    photon_distribution,
    structure_e,
)
from .quadrature import (
    QuadratureSpec,
    gauss_legendre,
    gauss_legendre_panels,
    half_line_quad,
    improper_quad,
)
from .measure import (
    MomentReport,
    measure_weight_h,
    meijer_g_weight,
    meijer_g_weight_mb,
    moment_closed_form,
    resolution_identity_matrix,
    verify_resolution,
)
from .thermal import (
    LinearSpectrum,
    QuadraticSpectrum,
    ThermalConfig,
    ansatz_error_curve,
    husimi_q,
    husimi_q_fock,
    p_function,
    partition_linear,
    partition_quadratic,
    partition_quadratic_direct,
)
from .continuum import (
    EnergyDensityState,
    continuum_diagonal,
    continuum_husimi,
    continuum_measure_weight,
    continuum_p_function,
    continuum_partition,
    log_nu,
    nu_function,
    tilde_ml,
    verify_continuum_moments,
)

__version__ = "0.1.0"
