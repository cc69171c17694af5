"""Shared randomized-case generators for the test suite.

Everything draws from an explicitly seeded generator so failures are
reproducible; the exact modules consume Fractions only.
"""

import random
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from ordinfluence import (
    Evaluator,
    SetFunction,
    monomial,
    os_function,
    polynomial,
)
from ordinfluence.errors import DomainError
from ordinfluence.montecarlo import (
    _Accumulator,
    _batches,
    _check_rank,
    _estimated_moments,
    _rng,
    derive_seed,
)
from reference import gram_system, inner_product_exact, integral


def random_fraction(rng, lo=-4, hi=4, den=6):
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_orderstat_polynomial(rng, n, max_terms=3, max_degree=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        slots = rng.sample(range(1, n + 1), rng.randint(1, min(n, 2)))
        exps = {s: rng.randint(1, max_degree) for s in slots}
        terms.append(monomial(n, exps, random_fraction(rng)))
    return polynomial(n, terms, random_fraction(rng))


def random_plain_terms(rng, n, max_terms=3, max_degree=2):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        variables = rng.sample(range(1, n + 1), rng.randint(1, min(n, 2)))
        exps = {v: rng.randint(1, max_degree) for v in variables}
        terms.append((random_fraction(rng), exps))
    return terms


def random_set_function(rng, n, zero_grounded=True):
    values = [random_fraction(rng, 0, 3) for _ in range(1 << n)]
    if zero_grounded:
        values[0] = Fraction(0)
    return SetFunction(n, tuple(values))


def poly_evaluator(poly):
    """Vectorized black-box evaluator for an exact order-stat polynomial."""
    terms = [(float(t.coefficient), t.exponents) for t in poly.terms]
    constant = float(poly.constant)

    def func(x):
        xs = np.sort(np.asarray(x, dtype=float), axis=1)
        out = np.full(len(xs), constant)
        for coeff, exps in terms:
            part = np.full(len(xs), coeff)
            for slot, exp in exps:
                part *= xs[:, slot - 1] ** exp
            out += part
        return out

    return Evaluator(poly.arity, func, name="test-poly")


GramFit = namedtuple("GramFit", "coefficients mean r_squared residual_norm_sq")


def gram_r_squared(n, coefficients, variance):
    """R^2 = a^T (M - c c^T) a / sigma^2(f), with M the Gram matrix of
    (os_1, ..., os_n, 1) and c its last column."""
    matrix = gram_system(n).matrix
    c = [row[-1] for row in matrix]
    quad = sum(coefficients[i] * matrix[i][j] * coefficients[j]
               for i in range(n + 1) for j in range(n + 1))
    lin = sum(c[i] * coefficients[i] for i in range(n + 1))
    return (quad - lin * lin) / variance


def gram_solve(f):
    """Oracle for the best fit of an order-statistic polynomial, by the
    linear solve a = M^{-1} b with b_i = <f, os_i> and b_{n+1} = <f, 1>,
    independent of the closed-form assembler."""
    n = f.arity
    inverse = gram_system(n).inverse
    b = [inner_product_exact(f, os_function(n, i)) for i in range(1, n + 2)]
    a = tuple(sum(inverse[i][j] * b[j] for j in range(n + 1))
              for i in range(n + 1))
    norm_sq = inner_product_exact(f, f)
    mean = b[-1]
    residual = norm_sq - sum(bi * ai for bi, ai in zip(b, a))
    return GramFit(a, mean, gram_r_squared(n, a, norm_sq - mean * mean),
                   residual)


def direct_tail(f):
    """a_{n+1} = (n+1)^2 <f, 1> - (n+1)(n+2) <f, os_n>, the last row of
    a = M^{-1} b, without the indices."""
    n = f.arity
    return ((n + 1) ** 2 * integral(f)
            - (n + 1) * (n + 2) * inner_product_exact(f, os_function(n, n)))


# Monte-Carlo references: the estimators with one np.sort (or argsort) per
# row and per use, as they were before montecarlo.sorted_columns.  The same
# values are sorted, so the estimators must return ==-equal results.

def reference_neighbours(x, k):
    """(x_{(k-1)}, x_{(k)}, x_{(k+1)}) per row, with 0/1 boundary ranks."""
    n = x.shape[1]
    xs = np.sort(x, axis=1)
    mid = xs[:, k - 1]
    down = xs[:, k - 2] if k >= 2 else np.zeros(len(x))
    up = xs[:, k] if k < n else np.ones(len(x))
    return down, mid, up


def reference_covariance(f, k, samples, seed):
    _check_rank(f, k, samples)
    n = f.arity
    rng = _rng(seed)
    acc = _Accumulator()
    for m in _batches(samples):
        x = rng.random((m, n))
        acc.add(f(x) * reference_g_kernel(x, k), x)
    return acc.estimate(seed, "covariance")


def reference_g_kernel(x, k):
    n = x.shape[1]
    down, mid, up = reference_neighbours(x, k)
    return -(n + 1) * (n + 2) * (up - 2.0 * mid + down)


def reference_h_density(x, k):
    n = x.shape[1]
    down, mid, up = reference_neighbours(x, k)
    return (n + 1) * (n + 2) * (up - mid) * (mid - down)


def reference_derivative(f, k, samples, seed):
    """Plain draws; a point whose rank k ties a neighbour has h_k = 0 and
    contributes 0, whatever the derivative map returns there."""
    _check_rank(f, k, samples)
    rng = _rng(seed)
    acc = _Accumulator()
    for m in _batches(samples):
        x = rng.random((m, f.arity))
        h = reference_h_density(x, k)
        slope = np.asarray(f.slope(x, k), dtype=float)
        with np.errstate(invalid="ignore"):
            acc.add(np.where(h > 0.0, h * slope, 0.0), x)
    return acc.estimate(seed, "derivative")


def reference_shift(x, k, h):
    """x with the column a stable argsort puts at rank k moved up by h."""
    rows = np.arange(len(x))
    col = np.argsort(x, axis=1, kind="stable")[:, k - 1]
    shifted = x.copy()
    shifted[rows, col] = x[rows, col] + h
    return shifted


def reference_diffquotient(f, k, samples, seed, variant):
    _check_rank(f, k, samples)
    n = f.arity
    scale = (n + 1) * (n + 2)
    rng = _rng(seed)
    acc = _Accumulator()
    for m in _batches(samples):
        x = rng.random((m, n))
        u = rng.random(m)
        mid = np.sort(x, axis=1)[:, k - 1]
        up = np.sort(x, axis=1)[:, k] if k < n else np.ones(m)
        gap = up - mid
        h = gap * (np.sqrt(u) if variant == "triangular-y" else u)
        increment = f(reference_shift(x, k, h)) - f(x)
        if variant == "uniform-y":
            contrib = scale * gap * increment
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                quotient = np.where(h > 0.0, increment / np.where(h > 0.0, h, 1.0),
                                    0.0)
            contrib = quotient * scale * gap * gap / 2.0
        acc.add(np.where(gap > 0.0, contrib, 0.0), x)
    return acc.estimate(seed, "diff-quotient", variant)


def reference_profile_moments(f, samples, seed, norm_sq=True):
    if samples < 2:
        raise DomainError("need at least 2 samples")
    n = f.arity
    rng = _rng(derive_seed(seed, 0))
    acc = _Accumulator()
    for m in _batches(samples):
        x = rng.random((m, n))
        v = f(x)
        columns = list((np.sort(x, axis=1) * v[:, None]).T)
        columns.append(v)
        if norm_sq:
            columns.append(v * v)
        acc.add(np.array(columns), x)
    return _estimated_moments(acc, n, norm_sq, seed)


@pytest.fixture
def rng():
    return random.Random(20260823)
