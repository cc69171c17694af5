"""High-level operations: pick the engine, fetch its moments, assemble.

Method preference for ``auto`` is exact > closed-form > mc.  Every engine
supplies the same primaries, a :class:`~ordinfluence.projection.Moments`
record with I(f, 1..n), the mean and <f, f>; the profile, the best
approximation, R^2, sigma(f) and r(f, k) are all derived from it in
``projection``.  Exact engines give rationals, closed forms floats, and
Monte Carlo floats with standard errors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ConfigurationError, DomainError
from .funcspec import FunctionSpec
from .montecarlo import IntegrationEstimate, mc_profile_moments
from .projection import (
    ApproximationResult,
    InfluenceProfile,
    Moments,
    approximation_from_moments,
    profile_from_moments,
)

METHOD_PREFERENCE = ("exact", "closed-form", "mc")
DEFAULT_SAMPLES = 100_000


def resolve_method(spec: FunctionSpec, method: str = "auto") -> str:
    if method == "auto":
        for candidate in METHOD_PREFERENCE:
            if candidate in spec.methods:
                return candidate
        raise ConfigurationError("spec supports no methods")  # pragma: no cover
    if method not in METHOD_PREFERENCE:
        raise ConfigurationError("unknown method %r" % (method,))
    if method not in spec.methods:
        raise ConfigurationError(
            "method %r is incompatible with %s functions (supported: %s)"
            % (method, spec.kind, ", ".join(spec.methods)))
    return method


def function_moments(spec: FunctionSpec, method: str = "auto",
                     samples: int = DEFAULT_SAMPLES, seed: int = 0, *,
                     indices: bool = True, norm_sq: bool = True) -> Moments:
    """The primaries of f by the chosen engine.

    The flags name what the caller needs; an engine fills more when it costs
    nothing extra.  Exact and closed-form engines always fill the indices
    and the mean, and compute <f, f> (the O(n^2 2^n) chain form for set
    functions) only for ``norm_sq``.  Monte Carlo makes one pass, keyed
    derive_seed(seed, 0), that estimates the mean and the asked-for
    quantities from the same samples, with their joint covariance.
    """
    method = resolve_method(spec, method)
    if method == "mc":
        return mc_profile_moments(spec.evaluator(), samples, seed, indices,
                                  norm_sq)
    return spec.moments(norm_sq)


def influence_value(spec: FunctionSpec, k: int, method: str = "auto",
                    samples: int = DEFAULT_SAMPLES,
                    seed: int = 0) -> Union[Fraction, float, IntegrationEstimate]:
    """I(f, k), rank k of the profile that ``function_moments`` gives at the
    same seed; an estimated index comes back as the full estimate."""
    method = resolve_method(spec, method)
    if not 1 <= k <= spec.arity:
        raise DomainError("rank %d outside [1, %d]" % (k, spec.arity))
    m = function_moments(spec, method, samples, seed, norm_sq=False)
    if m.index_std_errors is None:
        return m.indices[k - 1]
    return IntegrationEstimate(m.indices[k - 1], m.index_std_errors[k - 1],
                               samples, seed, "covariance")


def influence_profile(spec: FunctionSpec, method: str = "auto",
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> InfluenceProfile:
    """All indices I(f, 1..n) plus the formal tail and mean."""
    return profile_from_moments(
        function_moments(spec, method, samples, seed, norm_sq=False))


def best_approximation(spec: FunctionSpec, method: str = "auto",
                       samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> ApproximationResult:
    """Best shifted L-statistic approximation, R^2, residual and r(f, k)."""
    return approximation_from_moments(
        function_moments(spec, method, samples, seed))


def function_sigma(spec: FunctionSpec, method: str = "auto",
                   samples: int = DEFAULT_SAMPLES, seed: int = 0) -> float:
    """Standard deviation of f under the uniform law on the cube."""
    moments = function_moments(spec, method, samples, seed, indices=False)
    return math.sqrt(float(moments.variance()))


def normalized_index(spec: FunctionSpec, k: int, method: str = "auto",
                     samples: int = DEFAULT_SAMPLES, seed: int = 0) -> float:
    """r(f, k) = I(f, k) / (sigma(f) sqrt(2(n+1)(n+2))), from the full fit;
    for every rank at once use ``best_approximation(...).normalized_index``."""
    return best_approximation(spec, method, samples, seed).normalized_index(k)
