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


@pytest.fixture
def rng():
    return random.Random(20260823)
