"""High-level operations: pick the engine, fetch its moments, assemble.

Method preference for ``auto`` is exact > closed-form > mc.  Every engine
supplies the same primaries, a :class:`~ordinfluence.projection.Moments`
record with I(f, 1..n), the mean and <f, f>.  That record is the influence
profile (``influence_profile``, with ``Moments.formal_tail``); the best
approximation, R^2, sigma(f) and r(f, k) come from it through one
assembler (``best_approximation``), so one fit serves every rank.  Exact
engines give rationals, closed forms floats, and Monte Carlo floats with
standard errors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .errors import ConfigurationError, DomainError
from .funcspec import CLOSED_FORM, EXACT, MC, FunctionSpec
from .projection import ApproximationResult, Moments, approximation_from_moments

if TYPE_CHECKING:
    from .montecarlo import IntegrationEstimate

METHOD_PREFERENCE = (EXACT, CLOSED_FORM, MC)
DEFAULT_SAMPLES = 100_000


def resolve_method(spec: FunctionSpec, method: str = "auto") -> str:
    if method == "auto":
        return spec.methods[0]
    if method not in METHOD_PREFERENCE:
        raise ConfigurationError("unknown method %r" % (method,))
    if method not in spec.methods:
        raise ConfigurationError(
            "method %r is incompatible with %s functions (supported: %s)"
            % (method, spec.kind, ", ".join(spec.methods)))
    return method


def function_moments(spec: FunctionSpec, method: str = "auto",
                     samples: int = DEFAULT_SAMPLES, seed: int = 0, *,
                     norm_sq: bool = True) -> Moments:
    """The primaries of f by the chosen engine.

    Every engine fills the indices and the mean, and computes <f, f> (the
    O(n^2 2^n) chain form for set functions) only for ``norm_sq``.  Monte
    Carlo makes one pass, keyed derive_seed(seed, 0), that estimates them
    from the same samples, with their joint covariance.
    """
    method = resolve_method(spec, method)
    if method == MC:
        from .montecarlo import mc_profile_moments
        return mc_profile_moments(spec.evaluator(), samples, seed, norm_sq)
    return spec.moments(norm_sq)


def influence_value(spec: FunctionSpec, k: int, method: str = "auto",
                    samples: int = DEFAULT_SAMPLES,
                    seed: int = 0) -> Union[Fraction, float, IntegrationEstimate]:
    """I(f, k), rank k of the profile that ``function_moments`` gives at the
    same seed; an estimated index comes back as the full estimate."""
    method = resolve_method(spec, method)
    if not 1 <= k <= spec.arity:
        raise DomainError("rank %d outside [1, %d]" % (k, spec.arity))
    m = influence_profile(spec, method, samples, seed)
    if m.index_std_errors is None:
        return m.indices[k - 1]
    from .montecarlo import IntegrationEstimate
    return IntegrationEstimate(m.indices[k - 1], m.index_std_errors[k - 1],
                               samples, seed, "covariance")


def influence_profile(spec: FunctionSpec, method: str = "auto",
                      samples: int = DEFAULT_SAMPLES, seed: int = 0) -> Moments:
    """All indices I(f, 1..n) and the mean, without <f, f>; the formal tail
    is ``formal_tail()`` of the result."""
    return function_moments(spec, method, samples, seed, norm_sq=False)


def best_approximation(spec: FunctionSpec, method: str = "auto",
                       samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> ApproximationResult:
    """Best shifted L-statistic approximation, R^2, residual, sigma(f) and,
    for every rank from the one fit, r(f, k)."""
    return approximation_from_moments(
        function_moments(spec, method, samples, seed))
