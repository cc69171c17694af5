"""Closed-form influence indices for structured function classes.

Covers products of unary factors, the power-product family and the
sample-variance statistic.  The paper's other closed forms (the symmetric
beta-density form and the subset-box identities, which express the index
without any order statistic inside the integrand) serve only as oracles and
live in ``tests/reference.py``.

Only the quadrature paths need ``scipy.integrate``; it is imported on their
first use, since loading it takes longer than any exact or closed-form command.
numpy, too, is imported only on the numeric paths.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .errors import ConfigurationError, DomainError, QuadratureError
from .exact import as_rational, product_indices
from .projection import ShiftedLStatistic
from .record import FrozenRecord, set_field

if TYPE_CHECKING:
    from .funcspec import MultiplicativeSpec

QUAD_TOL = 1e-10

# The quadrature paths reach scipy.integrate as ``_module.integrate``, so that
# a caller who replaces the module attribute (a tracer, a test) is seen.
_module = sys.modules[__name__]


def __getattr__(name):
    """``integrate`` is scipy.integrate, imported on first access (PEP 562)
    and then bound in the module like an eager import."""
    if name == "integrate":
        from scipy import integrate
        globals()["integrate"] = integrate
        return integrate
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _checked(value, err: float, tol: float):
    """``value`` if the error estimate ``err`` meets the tolerance; for a
    vector of integrals, relative to its largest entry."""
    import numpy as np
    if err > max(tol, 1e-8 * float(np.max(np.abs(value)))) * 10:
        raise QuadratureError("quadrature error %.3e above tolerance %.1e"
                              % (err, tol), achieved_tolerance=err)
    return value


def _quad(func: Callable[[float], float], upper: float = 1.0) -> float:
    """int_0^upper func to the relative and absolute tolerance QUAD_TOL."""
    value, err = _module.integrate.quad(func, 0.0, upper, epsabs=QUAD_TOL,
                                        epsrel=QUAD_TOL, limit=200)
    return _checked(value, err, QUAD_TOL)


# ---------------------------------------------------------------------------
# Unary factors and multiplicative functions
# ---------------------------------------------------------------------------

class UnaryFactor(FrozenRecord):
    """One-dimensional integrand phi on [0,1] together with its running
    integral Phi(x) = int_0^x phi.

    Symbolic monomials phi(x) = x^c (square-integrable needs c > -1/2) carry
    exact antiderivatives; arbitrary callables fall back to adaptive
    quadrature.  ``declared_phi_one`` lets a caller assert Phi(1) = 0 (or any
    exact value) when it is known symbolically.
    """

    _fields = ("exponent", "phi", "antiderivative", "declared_phi_one")

    def __init__(self, exponent: Optional[Fraction] = None,
                 phi: Optional[Callable[[float], float]] = None,
                 antiderivative: Optional[Callable[[float], float]] = None,
                 declared_phi_one: Optional[Fraction] = None):
        set_field(self, "exponent", exponent)
        set_field(self, "phi", phi)
        set_field(self, "antiderivative", antiderivative)
        set_field(self, "declared_phi_one", declared_phi_one)

    @classmethod
    def power(cls, c) -> "UnaryFactor":
        c = as_rational(c)
        if c <= Fraction(-1, 2):
            raise DomainError("exponent must exceed -1/2 for square integrability")
        return cls(exponent=c)

    @classmethod
    def from_callable(cls, phi, antiderivative=None,
                      declared_phi_one=None) -> "UnaryFactor":
        if declared_phi_one is not None:
            declared_phi_one = as_rational(declared_phi_one)
        return cls(phi=phi, antiderivative=antiderivative,
                   declared_phi_one=declared_phi_one)

    @property
    def is_symbolic(self) -> bool:
        return self.exponent is not None

    def antiderivative_value(self, y: float) -> float:
        """Phi(y) = int_0^y phi(t) dt."""
        if self.is_symbolic:
            c = float(self.exponent)
            return float(y) ** (c + 1.0) / (c + 1.0)
        if self.antiderivative is not None:
            return self.antiderivative(y)
        if y == 0.0:
            return 0.0
        return _quad(self.phi, upper=y)

    def phi_one(self):
        """Phi(1), exact when available."""
        if self.is_symbolic:
            return Fraction(1) / (self.exponent + 1)
        if self.declared_phi_one is not None:
            return self.declared_phi_one
        return self.antiderivative_value(1.0)

    def phi_sq_integral(self) -> float:
        """int_0^1 phi(t)^2 dt, for variances of multiplicative functions."""
        if self.is_symbolic:
            return 1.0 / (2.0 * float(self.exponent) + 1.0)
        return _quad(lambda t: self.phi(t) ** 2)


def multiplicative_indices(spec: MultiplicativeSpec) -> Tuple[float, ...]:
    """I(f, 1..n) of a product of unary factors, from the product form

        I(f,k) = (n+1)(n+2) int_0^1 (r_{k-1}(y) - r_k(y)) dy,
        sum_j r_j(y) w^j = prod_i (Phibar_i(y) + w Phi_i(y)),

    with Phibar_i = Phi_i(1) - Phi_i.  Factors x^c with one c take the Gamma
    form ``influence_power_product``, other factors x^c all n indices from
    one exact ``exact.product_indices`` call.  Callable factors, and
    symbolic products too large for the exact form, run the recurrence
    r_j <- Phibar_i r_j + Phi_i r_{j-1} in floats at each y, under one
    adaptive vector quadrature for all ranks.
    """
    factors = spec.factors
    n = spec.arity
    if all(f.is_symbolic for f in factors):
        if all(f.exponent == factors[0].exponent for f in factors):
            c = float(factors[0].exponent)
            return tuple(influence_power_product(c, n, k)
                         for k in range(1, n + 1))
        try:
            return tuple(float(v) for v in
                         product_indices([f.exponent for f in factors]))
        except ConfigurationError:
            pass  # too many distinct exponent sums for the exact form
    import numpy as np
    full = [float(f.phi_one()) for f in factors]

    def r_of(y):
        r = np.zeros(n + 1)
        r[0] = 1.0
        for i, factor in enumerate(factors):
            low = factor.antiderivative_value(y)
            r[1:i + 2] = r[1:i + 2] * (full[i] - low) + r[:i + 1] * low
            r[0] *= full[i] - low
        return r

    sums = _checked(*_module.integrate.quad_vec(r_of, 0.0, 1.0, epsabs=QUAD_TOL,
                                                epsrel=QUAD_TOL, norm="max",
                                                limit=200), QUAD_TOL)
    return tuple(((n + 1) * (n + 2) * (sums[:-1] - sums[1:])).tolist())


# ---------------------------------------------------------------------------
# Power products
# ---------------------------------------------------------------------------

def influence_power_product(c: float, n: int, k: int) -> float:
    """Influence index of f(x) = (prod_i x_i)^c for c > -1/2:

        I(f,k) = c (1/(c+1))^{n+2} Gamma(n+3) Gamma(k-1+1/(c+1))
                 / (Gamma(k+1) Gamma(n+1+1/(c+1))).
    """
    c = float(c)
    if c <= -0.5:
        raise DomainError("exponent must exceed -1/2, got %g" % c)
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    u = 1.0 / (c + 1.0)
    # in logarithms: Gamma(n+3) overflows a float from n = 169 on
    return c * math.exp((n + 2) * math.log(u) + math.lgamma(n + 3)
                        + math.lgamma(k - 1 + u) - math.lgamma(k + 1)
                        - math.lgamma(n + 1 + u))


# ---------------------------------------------------------------------------
# Variance statistic
# ---------------------------------------------------------------------------

def variance_profile(n: int) -> ShiftedLStatistic:
    """Best shifted L-statistic fit of the sample variance
    (1/n) sum (x_i - xbar)^2: exact slopes I(k) = (n+2)(2k-n-1)/(n^2(n+3))
    and intercept (1-n^2)/(12n(n+3))."""
    if n < 2:
        raise DomainError("variance statistic needs arity >= 2")
    slopes = tuple(Fraction((n + 2) * (2 * k - n - 1), n * n * (n + 3))
                   for k in range(1, n + 1))
    return ShiftedLStatistic(n, slopes, Fraction(1 - n * n, 12 * n * (n + 3)))


def variance_mean(n: int) -> Fraction:
    """<f, 1> of the sample variance f: (n-1)/(12n)."""
    return Fraction(n - 1, 12 * n)


def variance_norm_sq(n: int) -> Fraction:
    """<f, f> of the sample variance f: (n-1)(5n^2-n+6)/(720n^3)."""
    return Fraction((n - 1) * (5 * n * n - n + 6), 720 * n ** 3)
