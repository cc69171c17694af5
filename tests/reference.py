"""Reference forms of the influence index that the engines are checked against.

The paper states I(f, k) in several equivalent ways.  The functions here
compute the ones no user path needs:
- the product-based kernel for order-statistic polynomials: their algebra
  as free functions (``poly_add``, ``poly_scale``, ``poly_mul``), the
  moment of one monomial, the integral, <f, g> as the integral of the
  product, the kernels g_k as polynomials with I(f, k) = <f, g_k>, and the
  symmetrization of a plain-variable polynomial over all n!/(n-m)!
  placements of its m variables;
- the expansion of a sum of subset order statistics in full order
  statistics, and the min/max expansions of x_(k);
- the Lovasz extension pointwise, in telescoping and Moebius form, with its
  directional slope and its index from the level averages;
- the hypergeometric influence of a subset order statistic with its vertex
  set function, the dual set function and the dual f^d(x) = 1 - f(1 - x);
- the sample variance expanded into plain terms, and the exact product
  form of a product of powers built one factor at a time;
- the Gram system of (os_1, ..., os_n, 1) and the kernel density h_k;
- the best approximation assembled one Fraction operation at a time from
  the moments, against the package's sums in integers over one denominator;
- the symmetric multiplicative closed form with its Phi(1) = 0 branch and
  ``BranchAmbiguityError``, and the power-product ratio I(f,k)/I(f,1);
- the subset-box integrals and the alternative formulas built from them;
- a uniform-sampling estimate of <f, g>, the first-order standard error
  sqrt(g^T C g) as a double sum over the covariance, and a tensor
  Gauss-Legendre quadrature over the unit cube.
The package computes none of them, so each stays an independent check on
the exact, Lovasz, closed-form and Monte-Carlo engines.  ``_quad`` keeps
the tolerances that only these oracles set: a relative one ``tol`` and an
absolute one that may be 0.

The file is not named ``oracles``: ``perfbench`` imports its own
``oracles.py`` as a top-level module, which a second module of that name
would shadow in one pytest session.
"""

import math
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from math import comb, factorial, lcm, perm
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple

from ordinfluence import closedforms, montecarlo, projection
from ordinfluence.closedforms import QUAD_TOL, MultiplicativeSpec, UnaryFactor
from ordinfluence.errors import (
    ConfigurationError,
    DomainError,
    OrdInfluenceError,
)
from ordinfluence.exact import (
    OrderStatMonomial,
    OrderStatPolynomial,
    RationalLike,
    _weight,
    as_rational,
    monomial,
    os_function,
    polynomial,
)
from ordinfluence.lovasz import SetFunction, level_averages, mobius
from ordinfluence.montecarlo import Evaluator, IntegrationEstimate
from ordinfluence.projection import ApproximationResult, Moments


# ---------------------------------------------------------------------------
# Polynomial algebra, moments and the kernels g_k
# ---------------------------------------------------------------------------

def poly_add(f: OrderStatPolynomial, *others) -> OrderStatPolynomial:
    """f plus each of ``others``, polynomials of f's arity or rationals."""
    terms, constant = list(f.terms), f.constant
    for other in others:
        if isinstance(other, OrderStatPolynomial):
            if other.arity != f.arity:
                raise DomainError("arity mismatch: %d vs %d" % (f.arity, other.arity))
            terms += other.terms
            constant += other.constant
        else:
            constant += as_rational(other)
    return polynomial(f.arity, terms, constant)


def poly_scale(f: OrderStatPolynomial, c: RationalLike) -> OrderStatPolynomial:
    """c * f for a rational c."""
    c = as_rational(c)
    return polynomial(
        f.arity,
        tuple(OrderStatMonomial(f.arity, t.exponents, t.coefficient * c)
              for t in f.terms),
        f.constant * c)


def poly_mul(f: OrderStatPolynomial, g: OrderStatPolynomial) -> OrderStatPolynomial:
    """f * g, expanded term by term."""
    if g.arity != f.arity:
        raise DomainError("arity mismatch: %d vs %d" % (f.arity, g.arity))
    terms = []
    constant = f.constant * g.constant
    for t in f.terms:
        if g.constant:
            terms.append(OrderStatMonomial(
                f.arity, t.exponents, t.coefficient * g.constant))
        for u in g.terms:
            merged = dict(t.exponents)
            for slot, exp in u.exponents:
                merged[slot] = merged.get(slot, 0) + exp
            terms.append(monomial(f.arity, merged,
                                  t.coefficient * u.coefficient))
    if f.constant:
        for u in g.terms:
            terms.append(OrderStatMonomial(
                f.arity, u.exponents, u.coefficient * f.constant))
    return polynomial(f.arity, terms, constant)


def moment(n: int, term: OrderStatMonomial) -> Fraction:
    """Exact integral over [0,1]^n of a monomial in order statistics.

    For ascending slots k_1 < ... < k_m with exponents c_1, ..., c_m the
    integral of prod_j x_{(k_j)}^{c_j} equals

        n! / (n + sum c)! * prod_j (k_j - 1 + c_1+...+c_j)! / (k_j - 1 + c_1+...+c_{j-1})!
    """
    if term.arity != n:
        raise DomainError("monomial arity %d != %d" % (term.arity, n))
    total = sum(c for _, c in term.exponents)
    return term.coefficient * Fraction(_weight(term.exponents),
                                       perm(n + total, total))


def integral(f: OrderStatPolynomial) -> Fraction:
    """Exact integral of f over the unit cube."""
    return f.constant + sum((moment(f.arity, t) for t in f.terms), Fraction(0))


def inner_product_exact(f: OrderStatPolynomial, g: OrderStatPolynomial) -> Fraction:
    """Exact L2 inner product <f, g> over the unit cube."""
    if f.arity != g.arity:
        raise DomainError("arity mismatch: %d vs %d" % (f.arity, g.arity))
    return integral(poly_mul(f, g))


def symmetrize(arity: int,
               plain_terms: Iterable[Tuple[RationalLike, Mapping[int, int]]],
               constant: RationalLike = 0) -> OrderStatPolynomial:
    """Average a plain-variable polynomial over all permutations of its
    arguments and express the result in order statistics.

    ``plain_terms`` is an iterable of (coefficient, {variable index: exponent})
    pairs.  Each plain monomial on m distinct variables contributes the
    uniform average, over all injective assignments of its exponent list to
    order-statistic slots, of the corresponding order-statistic monomial.
    """
    out = []
    n = arity
    for coeff, exps in plain_terms:
        coeff = as_rational(coeff)
        exp_list = [int(c) for v, c in sorted(exps.items()) if c]
        for v in exps:
            if not 1 <= int(v) <= n:
                raise DomainError("variable index %s outside [1, %d]" % (v, n))
        m = len(exp_list)
        if m == 0:
            out.append((Fraction(0), coeff))  # degenerate: constant term
            continue
        if m > n:
            raise DomainError("monomial uses more variables than the arity")
        weight = Fraction(factorial(n - m), factorial(n))
        for slots in permutations(range(1, n + 1), m):
            out.append((monomial(n, dict(zip(slots, exp_list)), coeff * weight), None))
    terms = [t for t, c in out if c is None]
    extra_constant = sum((c for t, c in out if c is not None), Fraction(0))
    return polynomial(n, terms, as_rational(constant) + extra_constant)


def g_basis(n: int, k: int) -> OrderStatPolynomial:
    """Covariance kernel g_k = -(n+1)(n+2)(os_{k+1} - 2 os_k + os_{k-1}),
    with os_0 the zero function and os_{n+1} the constant one."""
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    second_diff = poly_add(os_function(n, k + 1), poly_scale(os_function(n, k), -2),
                           os_function(n, k - 1))
    return poly_scale(second_diff, -(n + 1) * (n + 2))


def influence_exact(f: OrderStatPolynomial, k: int) -> Fraction:
    """Exact influence index I(f, k) = <f, g_k>."""
    if not 1 <= k <= f.arity:
        raise DomainError("rank %d outside [1, %d]" % (k, f.arity))
    return inner_product_exact(f, g_basis(f.arity, k))


# ---------------------------------------------------------------------------
# Subset order-statistic expansions
# ---------------------------------------------------------------------------

def expand_subset_sum(n: int, s: int, k: int) -> Tuple[int, ...]:
    """Coefficients (over x_{1:n}, ..., x_{n:n}) of the sum of the k-th order
    statistic over all subsets of size s:

        sum_{|S|=s} x_{k:S} = sum_j C(j-1, k-1) C(n-j, s-k) x_{j:n}.
    """
    if not 1 <= k <= s <= n:
        raise DomainError("need 1 <= k <= s <= n, got k=%d s=%d n=%d" % (k, s, n))
    return tuple(comb(j - 1, k - 1) * comb(n - j, s - k) for j in range(1, n + 1))


@dataclass(frozen=True)
class SignedSubsetCombination:
    """A signed combination sum coeff * x_{rank:S} of subset order statistics."""

    arity: int
    terms: Tuple[Tuple[frozenset, int, Fraction], ...]

    def evaluate(self, x: Sequence):
        value = Fraction(0) if all(isinstance(v, (int, Fraction)) for v in x) else 0.0
        for subset, rank, coeff in self.terms:
            vals = sorted(x[i - 1] for i in subset)
            value = value + coeff * vals[rank - 1]
        return value


def expand_min_max(n: int, k: int, mode: str) -> SignedSubsetCombination:
    """Express x_{k:n} through subset maxima ('via-max') or minima ('via-min').

    via-max: x_{k:n} = sum_{|S| >= k} (-1)^{|S|-k} C(|S|-1, k-1) max_S
    via-min: x_{k:n} = sum_{|S| >= n-k+1} (-1)^{|S|-n+k-1} C(|S|-1, n-k) min_S
    """
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    terms = []
    if mode == "via-max":
        for size in range(k, n + 1):
            coeff = Fraction((-1) ** (size - k) * comb(size - 1, k - 1))
            for subset in combinations(range(1, n + 1), size):
                terms.append((frozenset(subset), size, coeff))
    elif mode == "via-min":
        for size in range(n - k + 1, n + 1):
            coeff = Fraction((-1) ** (size - n + k - 1) * comb(size - 1, n - k))
            for subset in combinations(range(1, n + 1), size):
                terms.append((frozenset(subset), 1, coeff))
    else:
        raise DomainError("mode must be 'via-max' or 'via-min', got %r" % (mode,))
    return SignedSubsetCombination(n, tuple(terms))


# ---------------------------------------------------------------------------
# Lovasz extensions, pointwise
# ---------------------------------------------------------------------------

def eval_lovasz(v: SetFunction, x: Sequence) -> float:
    """Evaluate the extension at one point via the telescoping form
    f(x) = v(emptyset) + sum_i (v(A_i) - v(A_{i+1})) x_{pi(i)},
    where pi sorts x ascending and A_i = {pi(i), ..., pi(n)}."""
    n = v.arity
    if len(x) != n:
        raise DomainError("point has %d coordinates, expected %d" % (len(x), n))
    order = sorted(range(n), key=lambda i: x[i])
    value = float(v.values[0])
    mask = (1 << n) - 1
    for i in order:
        upper = mask
        mask ^= 1 << i
        value += (float(v.values[upper]) - float(v.values[mask])) * x[i]
    return value


def eval_lovasz_mobius(v: SetFunction, x: Sequence) -> float:
    """Evaluate via the Moebius form sum_S m(S) min_{i in S} x_i; agrees with
    eval_lovasz and is used as its cross-check."""
    n = v.arity
    coeffs = mobius(v).floats().tolist()
    return sum((c * min(x[i] for i in range(n) if mask >> i & 1)
                for mask, c in enumerate(coeffs) if mask and c), coeffs[0])


def directional_slope(v: SetFunction, x: Sequence, k: int) -> float:
    """Slope of the extension along the k-th smallest coordinate at x,
    i.e. v({pi(k),...,pi(n)}) - v({pi(k+1),...,pi(n)})."""
    n = v.arity
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    order = sorted(range(n), key=lambda i: x[i])
    upper = 0
    for i in order[k - 1:]:
        upper |= 1 << i
    lower = upper ^ (1 << order[k - 1])
    return float(v.values[upper]) - float(v.values[lower])


def influence_lovasz(v: SetFunction, k: int) -> Fraction:
    """Exact influence index of the extension of v on its k-th smallest
    variable: vbar(n-k+1) - vbar(n-k)."""
    n = v.arity
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    vbar = level_averages(v).vbar
    return vbar[n - k + 1] - vbar[n - k]


# ---------------------------------------------------------------------------
# Subset order statistics and duality
# ---------------------------------------------------------------------------

def influence_os_subset(n: int, subset, j: int, k: int) -> Fraction:
    """Influence index of the j-th order statistic of the variables in a
    subset S: C(k-1, j-1) C(n-k, |S|-j) / C(n, |S|) when 0 <= k-j <= n-|S|,
    and 0 otherwise."""
    s = len(set(subset))
    if s == 0:
        raise DomainError("subset must be nonempty")
    if not all(1 <= i <= n for i in subset):
        raise DomainError("subset not contained in [1, %d]" % n)
    if not 1 <= j <= s:
        raise DomainError("rank %d outside [1, %d]" % (j, s))
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    if not 0 <= k - j <= n - s:
        return Fraction(0)
    return Fraction(comb(k - 1, j - 1) * comb(n - k, s - j), comb(n, s))


def os_subset_set_function(n: int, subset, j: int) -> SetFunction:
    """Vertex set function of the j-th order statistic of the variables in a
    subset: at a 0/1 vertex T the statistic is 1 iff at most j-1 of the
    subset's coordinates vanish, i.e. at least |S|-j+1 of them lie in T."""
    members = [i - 1 for i in set(subset)]
    threshold = len(members) - j + 1
    values = []
    for mask in range(1 << n):
        count = sum(1 for i in members if mask >> i & 1)
        values.append(Fraction(1) if count >= threshold else Fraction(0))
    return SetFunction(n, tuple(values))


def dual_set_function(v: SetFunction) -> SetFunction:
    """Vertex set function of the dual extension: v^d(S) = 1 - v([n] \\ S)."""
    # [n] \ S is the bitmask 2^n - 1 - S: the table read backwards
    return SetFunction(v.arity, [1 - x for x in reversed(v.values)])


def _reflect(f: OrderStatPolynomial) -> OrderStatPolynomial:
    """Expansion of x -> f(1 - x) using x_{(k)}(1-x) = 1 - x_{(n-k+1)}(x)."""
    n = f.arity
    terms = []
    constant = f.constant
    for term in f.terms:
        slots = [n - slot + 1 for slot, _ in term.exponents]
        exps = [exp for _, exp in term.exponents]
        # expand prod_j (1 - y_{r_j})^{c_j} multinomially
        for picks in product(*[range(c + 1) for c in exps]):
            coeff = term.coefficient
            emap = {}
            for r, c, t in zip(slots, exps, picks):
                coeff *= comb(c, t) * (-1) ** t
                if t:
                    emap[r] = t
            if emap:
                terms.append(monomial(n, emap, coeff))
            else:
                constant += coeff
    return polynomial(n, terms, constant)


def dualize(f: OrderStatPolynomial) -> OrderStatPolynomial:
    """Dual function f^d(x) = 1 - f(1 - x), in canonical form."""
    return poly_add(poly_scale(_reflect(f), -1), 1)


# ---------------------------------------------------------------------------
# Sample variance expansion
# ---------------------------------------------------------------------------

def variance_plain_terms(n: int):
    """The sample variance as a plain-variable polynomial:
    ((n-1)/n^2) sum x_i^2 - (2/n^2) sum_{i<j} x_i x_j."""
    terms = [(Fraction(n - 1, n * n), {i: 2}) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            terms.append((Fraction(-2, n * n), {i: 1, j: 1}))
    return terms


# ---------------------------------------------------------------------------
# Product form, one factor at a time
# ---------------------------------------------------------------------------

def product_form_by_factor(exponents) -> Tuple[Fraction, ...]:
    """I(f, 1..n) of f = prod_i x_i^{c_i} as (n+1)(n+2) times the integral
    of r_{k-1} - r_k, with the r_j built one factor at a time by
    r_j <- Phibar_i r_j + Phi_i r_{j-1}, as Fraction polynomials in
    z = y^{1/D}, and int_0^1 z^q dy = D/(q+D).  No group of equal exponents
    is expanded at once and none is integrated in closed form."""
    cs = [Fraction(c) for c in exponents]
    n, den = len(cs), lcm(*(c.denominator for c in cs))
    r = [{0: Fraction(1)}]
    for c in cs:
        p, a = int((c + 1) * den), 1 / (c + 1)  # Phi_i = a z^p, Phibar_i = a - a z^p
        out = [{} for _ in range(len(r) + 1)]
        for j, rj in enumerate(r):
            for q, v in rj.items():
                for i, s, w in ((j, q, a * v), (j, q + p, -a * v),
                                (j + 1, q + p, a * v)):
                    out[i][s] = out[i].get(s, 0) + w
        r = out
    sums = [sum(v * Fraction(den, q + den) for q, v in rj.items()) for rj in r]
    return tuple((n + 1) * (n + 2) * (sums[k - 1] - sums[k]) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Gram system, the fit by Fraction sums and the kernel density h_k
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


def approximation_by_fractions(m: Moments) -> ApproximationResult:
    """The best approximation from the moments, each sum taken over the
    indices themselves, one Fraction (or float) operation at a time:
    the tail sums A_i, S = sum A_i, Var(f_L) =
    ((n+1) sum A_i^2 - S^2) / ((n+1)^2 (n+2)) and
    a_{n+1} = ((n+1) mean - sum_k k I(f,k)) / (n+1).  The standard error
    of R^2 is the package's, from this R^2."""
    n = m.arity
    variance = m.variance()
    weighted = sum(k * a for k, a in enumerate(m.indices, start=1))
    tail = ((n + 1) * m.mean - weighted) / (n + 1)
    tails = list(accumulate(reversed(m.indices)))[::-1]
    total = sum(tails)
    fit_variance = (((n + 1) * sum(a * a for a in tails) - total * total)
                    / ((n + 1) ** 2 * (n + 2)))
    r2 = fit_variance / variance
    return ApproximationResult(
        n, tuple(m.indices), tail, m.mean, r2, variance - fit_variance,
        m.method,
        r_squared_std_error=(None if m.covariance is None else
                             projection._joint_std_error(
                                 m.covariance,
                                 projection._r_squared_gradient(m, r2))),
        samples=m.samples, seed=m.seed, variance=variance)


def h_density(n: int, k: int) -> OrderStatPolynomial:
    """Probability density h_k = (n+1)(n+2)(os_{k+1} - os_k)(os_k - os_{k-1})
    weighting the directional derivative."""
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    upper = poly_add(os_function(n, k + 1), poly_scale(os_function(n, k), -1))
    lower = poly_add(os_function(n, k), poly_scale(os_function(n, k - 1), -1))
    return poly_scale(poly_mul(upper, lower), (n + 1) * (n + 2))


# ---------------------------------------------------------------------------
# Closed forms of multiplicative functions and power products
# ---------------------------------------------------------------------------

PHI_ONE_AMBIGUITY = 1e-12


def _quad(func: Callable[[float], float], tol: float = QUAD_TOL,
          epsabs: Optional[float] = None, upper: float = 1.0) -> float:
    """int_0^upper func to the relative tolerance ``tol`` and the absolute
    one ``epsabs`` (default ``tol``); epsabs = 0 asks for relative accuracy
    only, for integrals far below ``tol``."""
    epsabs = tol if epsabs is None else epsabs
    value, err = closedforms.integrate.quad(func, 0.0, upper, epsabs=epsabs,
                                            epsrel=tol, limit=200)
    return closedforms._checked(value, err, epsabs)


class BranchAmbiguityError(OrdInfluenceError):
    """The antiderivative at 1 is numerically near zero but was not declared zero,
    so the two structurally different closed-form branches cannot be told apart."""


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
    if (not factor.is_symbolic and factor.declared_phi_one is None
            and abs(float(phi1)) < PHI_ONE_AMBIGUITY):
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


def power_product_ratio(c: float, k: int) -> float:
    """I(f,k)/I(f,1) = Gamma(k-1+1/(c+1)) / (Gamma(k+1) Gamma(1/(c+1)))."""
    c = float(c)
    if c <= -0.5:
        raise DomainError("exponent must exceed -1/2, got %g" % c)
    u = 1.0 / (c + 1.0)
    return math.exp(math.lgamma(k - 1 + u) - math.lgamma(k + 1)
                    - math.lgamma(u))


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


# ---------------------------------------------------------------------------
# Monte-Carlo inner product, joint standard error and tensor quadrature
# ---------------------------------------------------------------------------

def mc_inner_product(f: Evaluator, g: Evaluator, samples: int,
                     seed: int) -> IntegrationEstimate:
    """Uniform-sampling estimate of the inner product <f, g>."""
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if f.arity != g.arity:
        raise DomainError("arity mismatch: %d vs %d" % (f.arity, g.arity))
    acc = montecarlo._Accumulator()
    with closing(montecarlo._drawn_ahead(montecarlo._rng(seed), samples,
                                         (f.arity,))) as batches:
        for (x,) in batches:
            acc.add(f(x) * g(x), x)
    return acc.estimate(seed, "raw-inner-product")


def joint_std_error(covariance, gradient: Sequence[float]) -> float:
    """sqrt(g^T C g) over the leading len(g) estimates, as a double sum of
    Python floats entry by entry."""
    variance = sum(gi * float(covariance[i][j]) * gj
                   for i, gi in enumerate(gradient)
                   for j, gj in enumerate(gradient))
    return math.sqrt(max(variance, 0.0))


def tensor_quadrature(f: Evaluator, nodes_per_axis: int) -> float:
    """Tensor-product Gauss-Legendre estimate of the integral of f over the
    unit cube; an independent oracle for arity <= 4."""
    if f.arity > 4:
        raise ConfigurationError("tensor quadrature is limited to arity <= 4")
    if nodes_per_axis < 2:
        raise DomainError("need at least 2 nodes per axis")
    return _box_integral(f, [(0.0, 1.0)] * f.arity, nodes_per_axis)
