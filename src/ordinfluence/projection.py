"""Least-squares machinery on the span of {os_1, ..., os_n, 1}.

Defines the covariance kernels g_k, the influence index I(f,k) = <f, g_k>,
the best shifted L-statistic approximation of f, the normalized index r(f,k)
and the coefficient of determination R^2.

Every engine hands the same primaries, a ``Moments`` record, to one
assembler (``profile_from_moments``, ``approximation_from_moments``).  The
fit's slopes are the indices themselves, so its variance, R^2 and residual
are closed forms in them.  The exact helpers on order-statistic
polynomials take the same route, from ``moments_exact``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import DegenerateVarianceError, DomainError
from .exact import (
    OrderStatPolynomial,
    inner_product_exact,
    integral,
    os_function,
)


# ---------------------------------------------------------------------------
# Gram system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramSystem:
    """Exact (n+1)x(n+1) Gram matrix of (os_1, ..., os_n, 1) and its inverse."""

    arity: int
    matrix: Tuple[Tuple[Fraction, ...], ...]
    inverse: Tuple[Tuple[Fraction, ...], ...]


def gram_system(n: int) -> GramSystem:
    """Gram matrix M with (M)_{ij} = min(i,j)(max(i,j)+1)/((n+1)(n+2)) and its
    exact inverse, which is tridiagonal up to the (n+1)(n+2) scale."""
    if n < 1:
        raise DomainError("arity must be >= 1, got %d" % n)
    denom = (n + 1) * (n + 2)
    size = n + 1
    matrix = tuple(
        tuple(Fraction(min(i, j) * (max(i, j) + 1), denom)
              for j in range(1, size + 1))
        for i in range(1, size + 1))
    inverse = []
    for i in range(1, size + 1):
        row = []
        for j in range(1, size + 1):
            if i == j:
                entry = Fraction(n + 1, n + 2) if i == size else Fraction(2)
            elif abs(i - j) == 1:
                entry = Fraction(-1)
            else:
                entry = Fraction(0)
            row.append(entry * denom)
        inverse.append(tuple(row))
    return GramSystem(n, matrix, tuple(inverse))


def g_basis(n: int, k: int) -> OrderStatPolynomial:
    """Covariance kernel g_k = -(n+1)(n+2)(os_{k+1} - 2 os_k + os_{k-1}),
    with os_0 the zero function and os_{n+1} the constant one."""
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    second_diff = os_function(n, k + 1) - 2 * os_function(n, k) + os_function(n, k - 1)
    return -(n + 1) * (n + 2) * second_diff


def h_density(n: int, k: int) -> OrderStatPolynomial:
    """Probability density h_k = (n+1)(n+2)(os_{k+1} - os_k)(os_k - os_{k-1})
    weighting the directional derivative."""
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    upper = os_function(n, k + 1) - os_function(n, k)
    lower = os_function(n, k) - os_function(n, k - 1)
    return (n + 1) * (n + 2) * (upper * lower)


# ---------------------------------------------------------------------------
# Influence index, profiles and approximations
# ---------------------------------------------------------------------------

def influence_exact(f: OrderStatPolynomial, k: int) -> Fraction:
    """Exact influence index I(f, k) = <f, g_k>."""
    if not 1 <= k <= f.arity:
        raise DomainError("rank %d outside [1, %d]" % (k, f.arity))
    return inner_product_exact(f, g_basis(f.arity, k))


@dataclass(frozen=True)
class InfluenceProfile:
    """All indices I(f, 1..n), the formal tail coefficient a_{n+1}, and the
    mean of f.  Exact methods carry rationals; Monte-Carlo carries floats with
    per-entry standard errors."""

    arity: int
    indices: tuple
    formal_tail: object
    mean: object
    method: str
    std_errors: Optional[tuple] = None
    tail_std_error: Optional[float] = None
    mean_std_error: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def mean_preservation_gap(self):
        """(1/(n+1)) sum_{k=1}^{n+1} k a_k - <f,1>; zero for exact methods."""
        n = self.arity
        total = sum(k * a for k, a in enumerate(self.indices, start=1))
        total += (n + 1) * self.formal_tail
        return total / (n + 1) - self.mean


@dataclass(frozen=True)
class ApproximationResult:
    """Best shifted L-statistic approximation of f.

    ``coefficients`` are (a_1, ..., a_{n+1}) in the basis
    (os_1, ..., os_n, 1); the recentered form is
    mean + sum_k I(f,k) (x_{(k)} - k/(n+1)).  Both evaluate identically.
    """

    arity: int
    coefficients: tuple
    mean: object
    r_squared: object
    residual_norm_sq: object
    method: str
    r_squared_std_error: Optional[float] = None
    coefficient_std_errors: Optional[tuple] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    variance: object = None

    @property
    def slopes(self):
        return self.coefficients[:-1]

    @property
    def sigma(self) -> float:
        """sigma(f), the standard deviation of f."""
        return math.sqrt(float(self.variance))

    def normalized_index(self, k: int) -> float:
        """r(f, k) = I(f, k) / (sigma(f) sqrt(2(n+1)(n+2)))."""
        n = self.arity
        if not 1 <= k <= n:
            raise DomainError("rank %d outside [1, %d]" % (k, n))
        return (float(self.coefficients[k - 1])
                / (self.sigma * math.sqrt(2 * (n + 1) * (n + 2))))

    @property
    def intercept(self):
        return self.coefficients[-1]

    def evaluate_basis(self, x: Sequence):
        xs = sorted(x)
        value = self.coefficients[-1]
        for k, a in enumerate(self.coefficients[:-1], start=1):
            value = value + a * xs[k - 1]
        return value

    def evaluate_recentered(self, x: Sequence):
        n = self.arity
        xs = sorted(x)
        value = self.mean
        for k, a in enumerate(self.coefficients[:-1], start=1):
            value = value + a * (xs[k - 1] - Fraction(k, n + 1))
        return value


def tail_coefficient(n: int, indices: Sequence, mean) -> object:
    """a_{n+1} from the mean-preservation identity
    (1/(n+1)) sum_{k=1}^{n+1} k a_k = <f, 1>."""
    weighted = sum(k * a for k, a in enumerate(indices, start=1))
    return ((n + 1) * mean - weighted) / (n + 1)


@dataclass(frozen=True)
class Moments:
    """The primaries that fix the best shifted L-statistic fit of f: the
    indices I(f, 1..n), the mean <f, 1> and <f, f>.

    Exact engines carry rationals and closed forms floats; Monte Carlo also
    fills the standard errors and ``covariance``, the joint covariance
    matrix of the estimates in the order (I(f,1), ..., I(f,n), mean,
    <f,f>), restricted to those estimated.  A quantity the caller did not
    ask for, and that its engine could not give for free, is None.
    """

    arity: int
    method: str
    indices: Optional[tuple] = None
    mean: object = None
    norm_sq: object = None
    index_std_errors: Optional[tuple] = None
    mean_std_error: Optional[float] = None
    norm_sq_std_error: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    covariance: Optional[tuple] = None

    def variance(self):
        """sigma^2(f) = <f, f> - <f, 1>^2; DegenerateVarianceError when it
        is not positive."""
        variance = self.norm_sq - self.mean * self.mean
        if variance <= 0:
            raise DegenerateVarianceError(
                "sigma(f) vanishes: R^2 and r(f,k) are undefined for a "
                "constant function")
        return variance

    def tail_std_error(self) -> Optional[float]:
        """Standard error of a_{n+1} = mean - sum_k k I(f,k) / (n+1), from
        the joint covariance of the indices and the mean."""
        if (self.covariance is None or self.indices is None
                or self.mean is None):
            return None
        n = self.arity
        return _joint_std_error(self.covariance,
                                [-k / (n + 1) for k in range(1, n + 1)] + [1.0])


def _joint_std_error(covariance, gradient: Sequence[float]) -> float:
    """sqrt(g^T C g): the first-order standard error of a function of the
    estimates whose gradient over their leading len(g) entries is g, with C
    their joint covariance."""
    variance = sum(gi * covariance[i][j] * gj
                   for i, gi in enumerate(gradient)
                   for j, gj in enumerate(gradient))
    return math.sqrt(max(variance, 0.0))


def indices_exact(f: OrderStatPolynomial) -> tuple:
    """I(f, 1..n) from b_i = <f, os_i> by the second difference
    I(f,k) = -(n+1)(n+2)(b_{k+1} - 2 b_k + b_{k-1}), with b_0 = 0 and
    b_{n+1} = <f, 1>: one product with a single order statistic per rank,
    where influence_exact multiplies by the three-term kernel g_k."""
    n = f.arity
    b = ([Fraction(0)]
         + [inner_product_exact(f, os_function(n, i)) for i in range(1, n + 1)]
         + [integral(f)])
    return tuple(-(n + 1) * (n + 2) * (b[k + 1] - 2 * b[k] + b[k - 1])
                 for k in range(1, n + 1))


def profile_from_moments(m: Moments) -> InfluenceProfile:
    """The influence profile, with the tail from mean preservation."""
    return InfluenceProfile(
        m.arity, m.indices, tail_coefficient(m.arity, m.indices, m.mean),
        m.mean, m.method, std_errors=m.index_std_errors,
        tail_std_error=m.tail_std_error(), mean_std_error=m.mean_std_error,
        samples=m.samples, seed=m.seed)


def approximation_from_moments(m: Moments) -> ApproximationResult:
    """Assemble the best approximation from the indices, the mean and
    <f, f>: coefficients, residual, R^2 and, for estimated moments, their
    standard errors by first-order propagation.

    The fit mean + sum_k I(f,k) (x_(k) - k/(n+1)) is linear in the spacings
    of the sorted point, whose covariance is ((n+1) delta_ij - 1) over
    (n+1)^2 (n+2).  So with the tail sums A_i and S = sum A_i,
    Var(f_L) = ((n+1) sum A_i^2 - S^2) / ((n+1)^2 (n+2)), R^2 is
    Var(f_L) / sigma^2(f) and the residual sigma^2(f) - Var(f_L).
    """
    n = m.arity
    variance = m.variance()
    tail = tail_coefficient(n, m.indices, m.mean)
    tails = _tail_sums(m.indices)
    total = sum(tails)
    fit_variance = (((n + 1) * sum(a * a for a in tails) - total * total)
                    / ((n + 1) ** 2 * (n + 2)))
    r2 = fit_variance / variance
    estimated = m.covariance is not None
    return ApproximationResult(
        n, tuple(m.indices) + (tail,), m.mean, r2, variance - fit_variance,
        m.method,
        r_squared_std_error=(_joint_std_error(m.covariance,
                                              _r_squared_gradient(m, r2))
                             if estimated else None),
        coefficient_std_errors=(tuple(m.index_std_errors) + (m.tail_std_error(),)
                                if estimated else None),
        samples=m.samples, seed=m.seed, variance=variance)


def _tail_sums(indices: Sequence) -> list:
    """A_i = I(f,i) + ... + I(f,n) for i = 1..n, the fit's slopes on the
    spacings x_(i) - x_(i-1)."""
    return list(itertools.accumulate(reversed(indices)))[::-1]


def _r_squared_gradient(m: Moments, r2) -> list:
    """Gradient of R^2 over (I(f,1), ..., I(f,n), mean, <f,f>):
    dR^2/dI_k = 2 sum_{i<=k} ((n+1) A_i - S) / ((n+1)^2 (n+2) sigma^2),
    dR^2/dmean = 2 mean R^2 / sigma^2 and dR^2/d<f,f> = -R^2 / sigma^2."""
    n = m.arity
    variance = m.variance()
    tails = _tail_sums(m.indices)
    total = sum(tails)
    scale = 2 / ((n + 1) ** 2 * (n + 2) * variance)
    return ([scale * g for g in itertools.accumulate(
                (n + 1) * a - total for a in tails)]
            + [2 * m.mean * r2 / variance, -r2 / variance])


def moments_exact(f: OrderStatPolynomial, norm_sq: bool = True) -> Moments:
    """Exact Moments of an order-statistic polynomial: I(f, 1..n), the mean
    and, when ``norm_sq`` is set, <f, f>."""
    return Moments(f.arity, "exact", indices_exact(f), integral(f),
                   inner_product_exact(f, f) if norm_sq else None)


def profile_exact(f: OrderStatPolynomial) -> InfluenceProfile:
    """Exact influence profile of a polynomial of order statistics."""
    return profile_from_moments(moments_exact(f, norm_sq=False))


def approximation_exact(f: OrderStatPolynomial) -> ApproximationResult:
    """Best shifted L-statistic approximation of an order-statistic
    polynomial, in exact rationals."""
    return approximation_from_moments(moments_exact(f))


def normalized_index_exact(f: OrderStatPolynomial, k: int) -> float:
    """Normalized index r(f,k) = I(f,k) / (sigma(f) sqrt(2(n+1)(n+2)))."""
    return approximation_exact(f).normalized_index(k)
