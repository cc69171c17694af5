"""Influence of the k-th largest variable and shifted L-statistic fits.

The package computes the global influence index I(f, k) of the k-th largest
input of a square-integrable function on the unit cube, the best
approximation of f by a shifted L-statistic, and the normalized index
r(f, k) together with the quality-of-fit R^2.  Engines: an exact rational
kernel over order-statistic polynomials and set-function (Lovasz) extensions,
analytic closed forms for multiplicative functions, and seeded Monte-Carlo
estimators for black boxes.

The names from ``lovasz`` and ``montecarlo``, which load numpy, are imported
on first access, so that ``import ordinfluence`` and the exact polynomial
paths never load numpy.
"""

import importlib

from .api import (
    DEFAULT_SAMPLES,
    best_approximation,
    function_moments,
    influence_profile,
    influence_value,
    resolve_method,
)
from .errors import (
    ConfigurationError,
    DegenerateVarianceError,
    DomainError,
    OrdInfluenceError,
    QuadratureError,
    SpecFileError,
    TaintedSampleError,
)
from .exact import (
    OrderStatMonomial,
    OrderStatPolynomial,
    monomial,
    os_function,
    polynomial,
)
from .funcspec import (
    BUILTIN_NAMES,
    FunctionSpec,
    MultiplicativeFunctionSpec,
    OrderStatPolynomialSpec,
    PlainPolynomialSpec,
    PowerProductSpec,
    RawEvaluatorSpec,
    SetFunctionSpec,
    VarianceSpec,
    parse_spec_document,
    resolve_builtin,
)
from .projection import (
    ApproximationResult,
    Moments,
    ShiftedLStatistic,
)
from .closedforms import (
    MultiplicativeSpec,
    UnaryFactor,
    influence_power_product,
    variance_profile,
)

__version__ = "0.1.0"

# {name: its module} for the names imported on first access
_LAZY = {
    **dict.fromkeys(("SetFunction", "equal_influence_class", "mobius",
                     "norm_sq_lovasz", "symmetric_part", "zeta"), "lovasz"),
    **dict.fromkeys(("Evaluator", "IntegrationEstimate", "derive_seed",
                     "influence_mc_covariance", "influence_mc_derivative",
                     "influence_mc_diffquotient"), "montecarlo"),
}


def __getattr__(name):
    """A name of ``_LAZY``, imported on first access (PEP 562) and then bound
    here like an eager import."""
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    module = importlib.import_module("." + _LAZY[name], __name__)
    globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "__version__",
    "DEFAULT_SAMPLES",
    "best_approximation",
    "derive_seed",
    "function_moments",
    "influence_profile",
    "influence_value",
    "resolve_method",
    "ConfigurationError",
    "DegenerateVarianceError",
    "DomainError",
    "OrdInfluenceError",
    "QuadratureError",
    "SpecFileError",
    "TaintedSampleError",
    "OrderStatMonomial",
    "OrderStatPolynomial",
    "monomial",
    "os_function",
    "polynomial",
    "BUILTIN_NAMES",
    "FunctionSpec",
    "MultiplicativeFunctionSpec",
    "OrderStatPolynomialSpec",
    "PlainPolynomialSpec",
    "PowerProductSpec",
    "RawEvaluatorSpec",
    "SetFunctionSpec",
    "VarianceSpec",
    "parse_spec_document",
    "resolve_builtin",
    "SetFunction",
    "equal_influence_class",
    "mobius",
    "norm_sq_lovasz",
    "symmetric_part",
    "zeta",
    "Evaluator",
    "IntegrationEstimate",
    "influence_mc_covariance",
    "influence_mc_derivative",
    "influence_mc_diffquotient",
    "ApproximationResult",
    "Moments",
    "ShiftedLStatistic",
    "MultiplicativeSpec",
    "UnaryFactor",
    "influence_power_product",
    "variance_profile",
]
