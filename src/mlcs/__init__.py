"""Four-parameter generalized Mittag-Leffler function, the coherent-state
family it generates, the measure that resolves the identity, thermal phase
space distributions, and their continuous-spectrum limits.

The package is a lazy namespace (PEP 562): `import mlcs` loads no submodule,
and the first access to a public name imports the one submodule that owns
it.  So the series functions of `mlcs.mlfunc` come without numpy.  No
module loads scipy: QUADPACK is a referee of the tests only.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> owning submodule, grouped by submodule
_EXPORTS = {
    "errors": (
        "ConvergenceError", "DomainError", "RouteMismatchError",
        "TruncationOverflowError"),
    "kcore": ("MLParams", "UNIT_PARAMS"),
    "mlfunc": (
        "EvalConfig", "SeriesResult", "ml_eval", "ml_eval_complex", "ml_eval_via_1f1",
        "ml_laplace", "ml_laplace_quad"),
    "coherent": (
        "CSLabel", "FockExpansion", "PhotonDistribution", "cs_build",
        "expansion_distance", "expectation_ordered_power", "ladder_lower",
        "ladder_raise", "ordered_moment_fock", "overlap", "overlap_from_coeffs",
        "photon_distribution", "structure_e"),
    "quadrature": (
        "gauss_legendre", "half_line_quad"),
    "measure": (
        "MomentReport", "measure_weight_h", "meijer_g_weight", "meijer_g_weight_mb",
        "moment_closed_form", "resolution_identity_matrix", "verify_resolution"),
    "thermal": (
        "LinearSpectrum", "QuadraticSpectrum", "ThermalConfig", "ansatz_error_curve",
        "husimi_q", "husimi_q_fock", "p_function", "partition_linear",
        "partition_quadratic", "partition_quadratic_direct"),
    "continuum": (
        "EnergyDensityState", "continuum_diagonal", "continuum_husimi",
        "continuum_measure_weight", "continuum_p_function", "continuum_partition",
        "log_nu", "nu_function", "tilde_ml", "verify_continuum_moments"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
