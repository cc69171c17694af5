"""Least-squares machinery on the span of {os_1, ..., os_n, 1}.

Assembles, from the influence indices I(f,k) = <f, g_k> (g_k the
covariance kernel), the mean and <f, f>, the best shifted L-statistic
approximation of f, the normalized index r(f,k) and the coefficient of
determination R^2.

Every engine hands the same primaries, a ``Moments`` record, to one
assembler, ``approximation_from_moments``.  ``Moments`` is also the
influence profile: the indices, the mean and, from them, the formal tail
a_{n+1}.  The fit's slopes are the indices themselves, so its variance,
R^2 and residual are closed forms in them.  Exact moments take those
sums, and the formal tail, in integers over the common denominator of the
indices and the mean, and form one Fraction per number of the fit; float
moments take the same formula with that denominator 1, so each of their
numbers is the same floating-point expression.  An order-statistic
polynomial takes the same route, from ``moments_exact``, the package's only
exact kernel for order-statistic polynomials.  The kernels g_k as
polynomials and the product <f, g_k> are oracles of the tests
(``tests/reference.py``).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateVarianceError, DomainError
from .exact import OrderStatPolynomial, orderstat_norm_sq, rank_inner_products
from .record import FrozenRecord, set_field


# ---------------------------------------------------------------------------
# Shifted L-statistics and the best approximation
# ---------------------------------------------------------------------------

class ShiftedLStatistic(FrozenRecord):
    """A shifted L-statistic b + sum_k a_k x_(k): the best fit of f, whose
    slopes a_k are the indices I(f, k), the symmetric part of a Lovasz
    extension, or the fit of the sample variance."""

    _fields = ("arity", "slopes", "intercept")

    def __init__(self, arity: int, slopes: tuple, intercept):
        set_field(self, "arity", arity)
        set_field(self, "slopes", slopes)
        set_field(self, "intercept", intercept)

    @property
    def coefficients(self) -> tuple:
        """(a_1, ..., a_n, b), in the basis (os_1, ..., os_n, 1)."""
        return self.slopes + (self.intercept,)

    def evaluate(self, x: Sequence):
        value = self.intercept
        for a, xk in zip(self.slopes, sorted(x)):
            value = value + a * xk
        return value


class ApproximationResult(ShiftedLStatistic):
    """Best shifted L-statistic approximation of f, with the numbers of the
    fit: the mean of f, R^2, the residual, sigma^2(f) and, for estimated
    moments, the standard error of R^2.  Those of the coefficients are the
    moments': ``index_std_errors`` for the slopes, ``tail_std_error()`` for
    the intercept."""

    _fields = ShiftedLStatistic._fields + (
        "mean", "r_squared", "residual_norm_sq", "method",
        "r_squared_std_error", "samples", "seed", "variance")

    def __init__(self, arity: int, slopes: tuple, intercept, mean, r_squared,
                 residual_norm_sq, method: str,
                 r_squared_std_error: Optional[float] = None,
                 samples: Optional[int] = None, seed: Optional[int] = None,
                 variance=None):
        super().__init__(arity, slopes, intercept)
        set_field(self, "mean", mean)
        set_field(self, "r_squared", r_squared)
        set_field(self, "residual_norm_sq", residual_norm_sq)
        set_field(self, "method", method)
        set_field(self, "r_squared_std_error", r_squared_std_error)
        set_field(self, "samples", samples)
        set_field(self, "seed", seed)
        set_field(self, "variance", variance)

    @property
    def sigma(self) -> float:
        """sigma(f), the standard deviation of f."""
        return math.sqrt(float(self.variance))

    def normalized_index(self, k: int) -> float:
        """r(f, k) = I(f, k) / (sigma(f) sqrt(2(n+1)(n+2))).  An exact
        variance takes r^2 as one integer quotient, rounded once, so that
        |r(f, k)| <= 1, as by Cauchy-Schwarz, even where sigma(f) underflows."""
        n = self.arity
        if not 1 <= k <= n:
            raise DomainError("rank %d outside [1, %d]" % (k, n))
        index, v = self.slopes[k - 1], self.variance
        if isinstance(v, Fraction):
            float(v)  # OverflowError past 1.8e308, as from sigma
            r = math.sqrt(index.numerator ** 2 * v.denominator
                          / (index.denominator ** 2 * v.numerator
                             * 2 * (n + 1) * (n + 2)))
            return r if index >= 0 else -r
        return float(index) / (self.sigma * math.sqrt(2 * (n + 1) * (n + 2)))


class Moments(FrozenRecord):
    """The primaries that fix the best shifted L-statistic fit of f: the
    indices I(f, 1..n), the mean <f, 1> and <f, f>.  With the formal tail
    they are the influence profile.

    Exact engines carry rationals and closed forms floats; Monte Carlo also
    fills the standard errors and ``covariance``, the joint covariance
    of the estimates in the order (I(f,1), ..., I(f,n), mean, <f,f>),
    restricted to those estimated, as a read-only float64 array that
    ``==`` and ``hash`` leave out.  <f, f> is None when the caller did not
    ask for it and its engine could not give it for free.
    """

    _fields = ("arity", "method", "indices", "mean", "norm_sq",
               "index_std_errors", "mean_std_error", "norm_sq_std_error",
               "samples", "seed", "covariance")

    def __init__(self, arity: int, method: str, indices: tuple, mean,
                 norm_sq=None, index_std_errors: Optional[tuple] = None,
                 mean_std_error: Optional[float] = None,
                 norm_sq_std_error: Optional[float] = None,
                 samples: Optional[int] = None, seed: Optional[int] = None,
                 covariance=None):
        set_field(self, "arity", arity)
        set_field(self, "method", method)
        set_field(self, "indices", indices)
        set_field(self, "mean", mean)
        set_field(self, "norm_sq", norm_sq)
        set_field(self, "index_std_errors", index_std_errors)
        set_field(self, "mean_std_error", mean_std_error)
        set_field(self, "norm_sq_std_error", norm_sq_std_error)
        set_field(self, "samples", samples)
        set_field(self, "seed", seed)
        set_field(self, "covariance", covariance)

    def _key(self) -> tuple:
        return super()._key()[:-1]  # all but the covariance

    def variance(self):
        """sigma^2(f) = <f, f> - <f, 1>^2; DegenerateVarianceError when it
        is not positive."""
        variance = self.norm_sq - self.mean * self.mean
        if variance <= 0:
            raise DegenerateVarianceError(
                "sigma(f) vanishes: R^2 and r(f,k) are undefined for a "
                "constant function")
        return variance

    def formal_tail(self):
        """a_{n+1} from the mean-preservation identity
        (1/(n+1)) sum_{k=1}^{n+1} k a_k = <f, 1>, with a_k = I(f,k)."""
        return _formal_tail(self.arity, *_over_one_denominator(self))

    def tail_std_error(self) -> Optional[float]:
        """Standard error of a_{n+1} = mean - sum_k k I(f,k) / (n+1), from
        the joint covariance of the indices and the mean; None when the
        moments are not estimated."""
        if self.covariance is None:
            return None
        n = self.arity
        return _joint_std_error(self.covariance,
                                [-k / (n + 1) for k in range(1, n + 1)] + [1.0])


def _joint_std_error(covariance, gradient: Sequence[float]) -> float:
    """sqrt(g^T C g): the first-order standard error of a function of the
    estimates whose gradient over their leading len(g) entries is g, with C
    their joint covariance array.  einsum sums in one loop, not through
    BLAS, so the rounding does not follow the thread count."""
    import numpy as np  # only estimated moments, which loaded it, come here
    k = len(gradient)
    variance = np.einsum("i,ij,j->", gradient, covariance[:k, :k], gradient)
    return math.sqrt(max(variance, 0.0))


def approximation_from_moments(m: Moments) -> ApproximationResult:
    """Assemble the best approximation from the indices, the mean and
    <f, f>: coefficients, residual, R^2 and, for estimated moments, the
    standard error of R^2 by first-order propagation.

    The fit mean + sum_k I(f,k) (x_(k) - k/(n+1)) is linear in the spacings
    of the sorted point, whose covariance is ((n+1) delta_ij - 1) over
    (n+1)^2 (n+2).  So with the tail sums A_i and S = sum A_i,
    Var(f_L) = ((n+1) sum A_i^2 - S^2) / ((n+1)^2 (n+2)), R^2 is
    Var(f_L) / sigma^2(f) and the residual sigma^2(f) - Var(f_L).  Exact
    moments take the sums in integers over the common denominator of the
    indices and the mean, and form one Fraction for Var(f_L) and one for
    the tail.
    """
    n = m.arity
    variance = m.variance()
    p, d, quotient = _over_one_denominator(m)
    tails = _tail_sums(p[:n])
    total = sum(tails)
    fit_variance = quotient((n + 1) * sum(a * a for a in tails) - total * total,
                            (n + 1) ** 2 * (n + 2) * d * d)
    r2 = fit_variance / variance
    return ApproximationResult(
        n, tuple(m.indices), _formal_tail(n, p, d, quotient), m.mean, r2,
        variance - fit_variance, m.method,
        r_squared_std_error=(None if m.covariance is None else
                             _joint_std_error(m.covariance,
                                              _r_squared_gradient(m, r2))),
        samples=m.samples, seed=m.seed, variance=variance)


def _over_one_denominator(m: Moments) -> tuple:
    """(p, d, quotient): I(f, 1..n) and then the mean, each as p[i] / d,
    with the division that turns a sum of the p[i] over a multiple of d
    back into a number.  Exact moments give integers over d, the lcm of
    their denominators, and Fraction; float moments give themselves over
    d = 1 and true division, so their sums are the same floating-point
    operations as on the moments."""
    values = (*m.indices, m.mean)
    if all(isinstance(v, Fraction) for v in values):
        d = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (d // v.denominator) for v in values], d, Fraction
    return values, 1, operator.truediv


def _formal_tail(n: int, p: Sequence, d, quotient):
    """a_{n+1} = ((n+1) mean - sum_k k I(f,k)) / (n+1), over d."""
    weighted = sum(k * a for k, a in enumerate(p[:n], start=1))
    return quotient((n + 1) * p[n] - weighted, (n + 1) * d)


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
    b_{n+1} and, when ``norm_sq`` is set, <f, f>.  No polynomial is formed:
    the indices are second differences of the integer numerators that
    ``exact.rank_inner_products`` gives over one denominator, and <f, f>
    comes from ``exact.orderstat_norm_sq``."""
    n = f.arity
    b, denominator = rank_inner_products(f)
    scale = -(n + 1) * (n + 2)
    indices = tuple(Fraction(scale * (b[k + 1] - 2 * b[k] + b[k - 1]), denominator)
                    for k in range(1, n + 1))
    return Moments(n, "exact", indices, Fraction(b[-1], denominator),
                   orderstat_norm_sq(f) if norm_sq else None)
