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
    gram_system,
    inner_product_exact,
    integral,
    monomial,
    os_function,
    polynomial,
)
from ordinfluence.errors import DomainError, TaintedSampleError
from ordinfluence.montecarlo import (
    BATCH,
    _Accumulator,
    _batches,
    _check_finite,
    _check_rank,
    _moment_map,
    _rng,
    derive_seed,
)
from ordinfluence.projection import Moments


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
        down, mid, up = reference_neighbours(x, k)
        contrib = f(x) * (-(n + 1) * (n + 2) * (up - 2.0 * mid + down))
        _check_finite(contrib, x)
        acc.add(contrib)
    return acc.finish(seed, "covariance")


def reference_h_density(x, k):
    n = x.shape[1]
    down, mid, up = reference_neighbours(x, k)
    return (n + 1) * (n + 2) * (up - mid) * (mid - down)


def reference_draw_untied(rng, m, n, k):
    x = rng.random((m, n))
    for _ in range(64):
        down, mid, up = reference_neighbours(x, k)
        tied = (mid == up) | ((mid == down) & (k >= 2))
        if not tied.any():
            return x
        x[tied] = rng.random((int(tied.sum()), n))
    raise TaintedSampleError("could not draw tie-free samples")


def reference_derivative(f, k, samples, seed):
    _check_rank(f, k, samples)
    rng = _rng(seed)
    acc = _Accumulator()
    for m in _batches(samples):
        x = reference_draw_untied(rng, m, f.arity, k)
        contrib = reference_h_density(x, k) * np.asarray(f.derivative(x, k),
                                                         dtype=float)
        _check_finite(contrib, x)
        acc.add(contrib)
    return acc.finish(seed, "derivative")


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
        contrib = np.where(gap > 0.0, contrib, 0.0)
        _check_finite(contrib, x)
        acc.add(contrib)
    return acc.finish(seed, "diff-quotient", variant)


def reference_profile_moments(f, samples, seed, indices=True,
                              second_moments=True):
    if samples < 2:
        raise DomainError("need at least 2 samples")
    n = f.arity
    ranks = n if indices else 0
    moment_map = _moment_map(n, indices, second_moments)
    width = moment_map.shape[1]
    rng = _rng(derive_seed(seed, 0))
    rows = min(samples, BATCH)
    draws = np.empty((rows, n))
    moments = np.empty((rows, width))
    moments[:, 0] = 1.0
    shift = None
    total_cross = np.zeros((width, width))
    for m in _batches(samples):
        x, z = draws[:m], moments[:m]
        rng.random(out=x)
        v = f(x)
        _check_finite(v, x)
        if indices:
            np.multiply(np.sort(x, axis=1), v[:, None], out=z[:, 1:n + 1])
        z[:, ranks + 1] = v
        if second_moments:
            np.multiply(v, v, out=z[:, ranks + 2])
        if shift is None:
            shift = z.mean(axis=0)
            shift[0] = 0.0
            if not np.isfinite(shift).all():
                _check_finite(z, x)
        z -= shift
        cross = z.T @ z
        if not np.isfinite(cross).all():
            _check_finite(z, x)
        total_cross += cross
    offset = moment_map @ total_cross[0] / samples
    values = (moment_map @ shift + offset).tolist()
    covariance = ((moment_map @ total_cross @ moment_map.T
                   - samples * np.outer(offset, offset))
                  / ((samples - 1) * samples))
    ses = np.sqrt(np.maximum(np.diag(covariance), 0.0)).tolist()
    fields = {}
    if indices:
        fields.update(indices=tuple(values[:n]),
                      index_std_errors=tuple(ses[:n]))
    if second_moments:
        fields.update(mean=values[-2], mean_std_error=ses[-2],
                      norm_sq=values[-1], norm_sq_std_error=ses[-1])
    return Moments(n, "monte-carlo", samples=samples, seed=seed,
                   covariance=tuple(map(tuple, covariance.tolist())), **fields)


@pytest.fixture
def rng():
    return random.Random(20260823)
