"""Closed-form influence indices for structured function classes.

Covers products of unary factors (with the symmetric beta-density special
case), the power-product family, the sample-variance statistic, and the
subset-box integral identities that express the index without any order
statistic inside the integrand.

Only the quadrature paths need ``scipy.integrate``; it is imported on their
first use, since loading it takes longer than any exact or closed-form command.
numpy, too, is imported only on the numeric paths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .errors import (
    BranchAmbiguityError,
    ConfigurationError,
    DomainError,
    QuadratureError,
)
from .exact import as_rational, product_indices
from .projection import ShiftedLStatistic

if TYPE_CHECKING:
    import numpy as np

QUAD_TOL = 1e-10
PHI_ONE_AMBIGUITY = 1e-12

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


def _quad(func: Callable[[float], float], tol: float = QUAD_TOL,
          epsabs: Optional[float] = None, upper: float = 1.0) -> float:
    """int_0^upper func to the relative tolerance ``tol`` and the absolute
    one ``epsabs`` (default ``tol``); epsabs = 0 asks for relative accuracy
    only, for integrals far below ``tol``."""
    epsabs = tol if epsabs is None else epsabs
    value, err = _module.integrate.quad(func, 0.0, upper, epsabs=epsabs,
                                        epsrel=tol, limit=200)
    return _checked(value, err, epsabs)


# ---------------------------------------------------------------------------
# Unary factors and multiplicative functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnaryFactor:
    """One-dimensional integrand phi on [0,1] together with its running
    integral Phi(x) = int_0^x phi.

    Symbolic monomials phi(x) = x^c (square-integrable needs c > -1/2) carry
    exact antiderivatives; arbitrary callables fall back to adaptive
    quadrature.  ``declared_phi_one`` lets a caller assert Phi(1) = 0 (or any
    exact value) when it is known symbolically.
    """

    exponent: Optional[Fraction] = None
    phi: Optional[Callable[[float], float]] = None
    antiderivative: Optional[Callable[[float], float]] = None
    declared_phi_one: Optional[Fraction] = None

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

    def phi_one_is_exact(self) -> bool:
        return self.is_symbolic or self.declared_phi_one is not None

    def phi_sq_integral(self) -> float:
        """int_0^1 phi(t)^2 dt, for variances of multiplicative functions."""
        if self.is_symbolic:
            return 1.0 / (2.0 * float(self.exponent) + 1.0)
        return _quad(lambda t: self.phi(t) ** 2)


@dataclass(frozen=True)
class MultiplicativeSpec:
    """f(x) = prod_i phi_i(x_i)."""

    arity: int
    factors: Tuple[UnaryFactor, ...]

    def __post_init__(self):
        if len(self.factors) != self.arity:
            raise DomainError("expected %d factors, got %d"
                              % (self.arity, len(self.factors)))

    @classmethod
    def symmetric(cls, factor: UnaryFactor, arity: int) -> "MultiplicativeSpec":
        return cls(arity, (factor,) * arity)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (m, n) array of points."""
        import numpy as np
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[0])
        for i, factor in enumerate(self.factors):
            if factor.is_symbolic:
                out *= x[:, i] ** float(factor.exponent)
            else:
                out *= np.fromiter(map(factor.phi, x[:, i].tolist()), float,
                                   len(x))
        return out

    def mean(self) -> float:
        out = 1.0
        for factor in self.factors:
            out *= float(factor.phi_one())
        return out

    def norm_sq(self) -> float:
        """<f, f> = prod_i int_0^1 phi_i^2, which is 0.0 only when some
        phi_i = 0."""
        out = 1.0
        for factor in self.factors:
            integral = factor.phi_sq_integral()
            if integral == 0.0:
                return 0.0
            out *= integral
        return positive_norm_sq(out)


def positive_norm_sq(value: float) -> float:
    """``value``, a positive <f, f> taken in floats; OverflowError when it
    has rounded to 0.0, where it would read as a constant function."""
    if value == 0.0:
        raise OverflowError("<f, f> is positive but rounds to 0.0")
    return value


def multiplicative_indices(spec: MultiplicativeSpec) -> Tuple[float, ...]:
    """I(f, 1..n) of a product of unary factors, from the product form

        I(f,k) = (n+1)(n+2) int_0^1 (r_{k-1}(y) - r_k(y)) dy,
        sum_j r_j(y) w^j = prod_i (Phibar_i(y) + w Phi_i(y)),

    with Phibar_i = Phi_i(1) - Phi_i.  Symbolic factors x^c take all n
    indices from one exact ``exact.product_indices`` call.  Callable factors,
    and symbolic products too large for the exact form, run the recurrence
    r_j <- Phibar_i r_j + Phi_i r_{j-1} in floats at each y, under one
    adaptive vector quadrature for all ranks.
    """
    factors = spec.factors
    if all(f.is_symbolic for f in factors):
        try:
            return tuple(float(v) for v in
                         product_indices([f.exponent for f in factors]))
        except ConfigurationError:
            pass  # too many distinct exponent sums for the exact form
    import numpy as np
    n = spec.arity
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


def influence_symmetric_multiplicative(factor: UnaryFactor, n: int, k: int) -> float:
    """Influence index of f(x) = prod_i phi(x_i).

    When Phi(1) != 0 the index is Phi(1)^n times the integral over y of an
    explicit binomial difference evaluated at z = Phi(y)/Phi(1) (the
    derivative of a beta(k+1, n-k+2) density); when Phi(1) = 0 only the full
    subset survives and the index collapses to the integer
    (-1)^{n-k+1} (n+1)(n+2) C(n+1, k) times int_0^1 Phi(y)^n dy.
    """
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    phi1 = factor.phi_one()
    if not factor.phi_one_is_exact() and abs(float(phi1)) < PHI_ONE_AMBIGUITY:
        raise BranchAmbiguityError(
            "Phi(1) = %.3e is numerically ambiguous; declare it exactly"
            % float(phi1))
    if float(phi1) != 0.0:
        phi1 = float(phi1)
        c_low = comb(n, k - 1)
        c_high = comb(n, k)

        def integrand(y):
            z = factor.antiderivative_value(y) / phi1
            return (c_low * z ** (k - 1) * (1.0 - z) ** (n - k + 1)
                    - c_high * z ** k * (1.0 - z) ** (n - k))

        return (n + 1) * (n + 2) * phi1 ** n * _quad(integrand)
    # Gamma(n+3) / (Gamma(k+1) Gamma(n-k+2)) as an exact integer
    scale = (-1) ** (n - k + 1) * (n + 1) * (n + 2) * comb(n + 1, k)
    # the integral falls like 4^-n for phi(t) = 2t - 1, so tolerance is
    # relative only: an absolute one accepts the first estimate
    return scale * _quad(lambda y: factor.antiderivative_value(y) ** n,
                         epsabs=0.0)


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


def power_product_ratio(c: float, k: int) -> float:
    """I(f,k)/I(f,1) = Gamma(k-1+1/(c+1)) / (Gamma(k+1) Gamma(1/(c+1)))."""
    c = float(c)
    if c <= -0.5:
        raise DomainError("exponent must exceed -1/2, got %g" % c)
    u = 1.0 / (c + 1.0)
    return math.exp(math.lgamma(k - 1 + u) - math.lgamma(k + 1)
                    - math.lgamma(u))


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


# ---------------------------------------------------------------------------
# Subset-box integrals and the alternative index formulas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl_nodes(m: int):
    """Gauss-Legendre nodes and weights on [-1, 1]; shared, never written to."""
    import numpy as np
    return np.polynomial.legendre.leggauss(m)


def _box_integral(func, intervals, nodes_per_axis: int) -> float:
    """Tensor Gauss-Legendre integral of func over a product of intervals."""
    import numpy as np
    nodes, weights = _gl_nodes(nodes_per_axis)
    axes = []
    axis_weights = []
    for lo, hi in intervals:
        half = 0.5 * (hi - lo)
        axes.append(lo + half * (nodes + 1.0))
        axis_weights.append(half * weights)
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    values = np.asarray(func(points), dtype=float)
    w = axis_weights[0]
    for aw in axis_weights[1:]:
        w = np.multiply.outer(w, aw)
    return float(np.dot(values, w.ravel()))


_BOX_MODES = ("lower-box", "upper-box", "split")


def subset_box_integral(f, subset, mode: str, nodes_per_axis: int = 24,
                        tol: float = 1e-10) -> float:
    """One of the building-block integrals over y in [0, 1]:

    lower-box:  int_0^1 int_{[0,y]^S} int_{[0,1]^{S^c}} f dx dy
    upper-box:  int_0^1 int_{[y,1]^S} int_{[0,1]^{S^c}} f dx dy
    split:      int_0^1 int_{[0,y]^S} int_{[y,1]^{S^c}} f dx dy

    ``f`` is a MultiplicativeSpec (factorizes into 1-D quadratures) or any
    object with ``arity`` and vectorized ``evaluate`` (tensor quadrature,
    arity <= 4).  ``subset`` uses elements of [n].
    """
    if mode not in _BOX_MODES:
        raise DomainError("mode must be one of %s, got %r" % (_BOX_MODES, mode))
    inside = set(subset)
    n = f.arity
    if not all(1 <= i <= n for i in inside):
        raise DomainError("subset not contained in [1, %d]" % n)

    if isinstance(f, MultiplicativeSpec):
        def g(y):
            out = 1.0
            for i, factor in enumerate(f.factors, start=1):
                low = factor.antiderivative_value(y)
                full = float(factor.phi_one())
                if i in inside:
                    out *= low if mode in ("lower-box", "split") else full - low
                else:
                    out *= full - low if mode == "split" else full
            return out
        return _quad(g, tol)

    if not hasattr(f, "evaluate") or not hasattr(f, "arity"):
        raise ConfigurationError(
            "subset-box integrals need a multiplicative spec or an evaluator")
    if n > 4:
        raise ConfigurationError(
            "black-box subset-box integrals are limited to arity <= 4")

    def inner(y):
        intervals = []
        for i in range(1, n + 1):
            if i in inside:
                intervals.append((y, 1.0) if mode == "upper-box" else (0.0, y))
            else:
                intervals.append((y, 1.0) if mode == "split" else (0.0, 1.0))
        return _box_integral(f.evaluate, intervals, nodes_per_axis)

    return _quad(inner, tol)


_ALT_FORMULAS = ("dfsg5", "dfsg6", "dfsg7")


def influence_via_alternative(f, k: int, formula: str,
                              nodes_per_axis: int = 24) -> float:
    """I(f,k) assembled from subset-box integrals, avoiding order statistics:

    dfsg5 uses lower boxes with coefficients (-1)^{|S|+1-k} C(|S|+1, k);
    dfsg6 uses upper boxes with coefficients (-1)^{|S|-n+k-1} C(|S|+1, n-k+1);
    dfsg7 is the difference of split-box sums at sizes k-1 and k.
    """
    n = f.arity
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    if formula not in _ALT_FORMULAS:
        raise DomainError("formula must be one of %s, got %r"
                          % (_ALT_FORMULAS, formula))
    scale = (n + 1) * (n + 2)
    total = 0.0
    if formula == "dfsg5":
        for size in range(k - 1, n + 1):
            coeff = (-1) ** (size + 1 - k) * comb(size + 1, k)
            for subset in combinations(range(1, n + 1), size):
                total += coeff * subset_box_integral(f, subset, "lower-box",
                                                     nodes_per_axis)
    elif formula == "dfsg6":
        for size in range(n - k, n + 1):
            coeff = (1 - 2 * ((size - n + k - 1) % 2)) * comb(size + 1, n - k + 1)
            for subset in combinations(range(1, n + 1), size):
                total += coeff * subset_box_integral(f, subset, "upper-box",
                                                     nodes_per_axis)
    else:
        for size, sign in ((k - 1, 1), (k, -1)):
            for subset in combinations(range(1, n + 1), size):
                total += sign * subset_box_integral(f, subset, "split",
                                                    nodes_per_axis)
    return scale * total
