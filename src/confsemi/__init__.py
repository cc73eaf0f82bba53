"""Numerical toolkit for power-law time-rescaled (conformable) semigroups.

The package verifies, at desk scale, the correspondence between a semigroup
run on the rescaled clock s = t**delta / delta and its classical counterpart,
together with the calculus, weighted function spaces, and two model PDEs that
the correspondence transports.
"""

from .clock import Clock, Order
from .calculus import (
    FunctionHandle,
    WeightedQuadrature,
    conf_derivative,
    conf_derivative_iterated,
    conf_derivative_limit,
    conf_integral,
)
from .spaces import (
    WeightSpec,
    inner_product_2delta,
    lp_delta_norm,
    sobolev_norm,
    spatial_unitary_apply,
    time_isometry_apply,
)
from .reports import CheckReport
from .semigroup import (
    ConformableSemigroup,
    GeneratorMatrix,
    OrbitSample,
    contraction_check,
    delta_law_residual,
    dirichlet_second_difference,
    dissipativity_margin,
    evolve_classical,
    generator_delta_quotient,
    resolvent_bound_check,
    solve_conformable_ode,
    strong_continuity_fit,
    taylor_matrix_exp,
)
from .drift_diffusion import (
    DriftDiffusionParams,
    EigenfunctionFamily,
    GridPair,
    build_classical_operator,
    build_conformable_operator,
    conjugacy_residual,
    derivative_identity_residuals,
    discrete_unitary,
    empirical_orders,
    mild_solution_residuals,
    parameter_transfer,
    spectral_evolve,
)
from .transport import (
    TransportModel,
    apply_Q,
    apply_S_alpha,
    apply_W,
    transport_conjugacy_residual,
    transport_pde_residual,
    weight_criterion_probe,
)
from .dynamics import (
    DSWReport,
    LambdaRectangle,
    clock_invariance_check,
    dsw_condition_check,
    dsw_hypotheses_probe,
    periodic_orbit_check,
    x0_probe,
    xinf_probe,
)
from .config import ConfigError, RunConfig, default_config, parse_config
from .suites import make_weight, run_suite, run_sweep

__all__ = [
    "Clock",
    "Order",
    "FunctionHandle",
    "WeightedQuadrature",
    "conf_derivative",
    "conf_derivative_iterated",
    "conf_derivative_limit",
    "conf_integral",
    "WeightSpec",
    "inner_product_2delta",
    "lp_delta_norm",
    "sobolev_norm",
    "spatial_unitary_apply",
    "time_isometry_apply",
    "CheckReport",
    "ConformableSemigroup",
    "GeneratorMatrix",
    "OrbitSample",
    "contraction_check",
    "delta_law_residual",
    "dirichlet_second_difference",
    "dissipativity_margin",
    "evolve_classical",
    "generator_delta_quotient",
    "resolvent_bound_check",
    "solve_conformable_ode",
    "strong_continuity_fit",
    "taylor_matrix_exp",
    "DriftDiffusionParams",
    "EigenfunctionFamily",
    "GridPair",
    "build_classical_operator",
    "derivative_identity_residuals",
    "empirical_orders",
    "build_conformable_operator",
    "conjugacy_residual",
    "discrete_unitary",
    "mild_solution_residuals",
    "parameter_transfer",
    "spectral_evolve",
    "TransportModel",
    "apply_Q",
    "apply_S_alpha",
    "apply_W",
    "transport_conjugacy_residual",
    "transport_pde_residual",
    "weight_criterion_probe",
    "DSWReport",
    "LambdaRectangle",
    "clock_invariance_check",
    "dsw_condition_check",
    "dsw_hypotheses_probe",
    "periodic_orbit_check",
    "x0_probe",
    "xinf_probe",
    "ConfigError",
    "RunConfig",
    "default_config",
    "parse_config",
    "make_weight",
    "run_suite",
    "run_sweep",
]

__version__ = "0.1.0"
