"""Tail asymptotics and non-asymptotic bounds for self-normalized sums.

The package computes closed-form predictions for P(T > n^(1-1/beta) - eps)
where T is a sum normalized by its own beta-norm, verifies every constant
against independent oracles (exact sphere law, region quadrature, discrete
enumeration, Monte Carlo), and reports confirmed vs discrepant values in a
machine-checkable ledger.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analytic_core import (
    AntiHessianSpec,
    StructuredMatrix,
    anti_hessian_entries,
    anti_hessian_entries_hyperdual,
    log_det_anti_hessian_factorized,
)
from .asymptotics import (
    GammaVariantQuery,
    KConstant,
    Prediction,
    TailQuery,
    k_constant,
    log_growth_check,
    log_growth_limit,
    predict_gamma_variant,
    predict_tail,
)
from .bounds import (
    BoundsCertificate,
    SandwichReport,
    curvature_functionals,
    envelope_bounds,
    validate_sandwich,
)
from .density import (
    DensityModel,
    DiscreteModel,
    QuadratureError,
    RadialProfileQuery,
    h_profile,
    parse_model,
    weighted_profile_mirror,
)
from .ledger import LedgerEntry, VerifyReport, run_verify
from .montecarlo import (
    MaxSumComparison,
    MCEstimate,
    SamplerSpec,
    StatisticSpec,
    compare_max_vs_sum,
    estimate_tail,
    sample_batch,
    statistic,
    statistic_batch,
    wilson_interval,
)
from .oracles import (
    CoefficientFit,
    OracleResult,
    degenerate_component_check,
    leading_coeff_fit,
    rademacher_tail_exact,
    region_tail_integral,
    regularized_incomplete_beta,
    sphere_tail_exact,
    tail_window,
)

# The public names are exactly the ones imported above.
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
