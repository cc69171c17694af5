"""Projection tests: Gram system, kernels g_k and h_k, influence, R^2."""

import random
from fractions import Fraction

import pytest

from ordinfluence import (
    DegenerateVarianceError,
    DomainError,
    approximation_exact,
    g_basis,
    gram_system,
    h_density,
    influence_exact,
    inner_product_exact,
    integral,
    monomial,
    normalized_index_exact,
    os_function,
    polynomial,
    profile_exact,
)
from ordinfluence.projection import InfluenceProfile, tail_coefficient

from conftest import direct_tail, gram_solve, random_orderstat_polynomial


class TestGramSystem:
    def test_entries(self):
        # frozen n=3 sample entry: <os_1, os_2> = 1*3/20
        gs = gram_system(3)
        assert gs.matrix[0][1] == Fraction(3, 20)
        assert gs.matrix[3][3] == 1

    def test_entry_is_inner_product(self):
        for n in range(1, 5):
            gs = gram_system(n)
            for i in range(1, n + 2):
                for j in range(1, n + 2):
                    fi = os_function(n, i) if i <= n else polynomial(n, constant=1)
                    fj = os_function(n, j) if j <= n else polynomial(n, constant=1)
                    assert gs.matrix[i - 1][j - 1] == inner_product_exact(fi, fj)

    def test_inverse_exact(self):
        for n in range(1, 13):
            gs = gram_system(n)
            size = n + 1
            for i in range(size):
                for j in range(size):
                    entry = sum(gs.matrix[i][m] * gs.inverse[m][j]
                                for m in range(size))
                    assert entry == (1 if i == j else 0)

    def test_bad_arity(self):
        with pytest.raises(DomainError):
            gram_system(0)


class TestKernels:
    def test_g_k_inner_products(self):
        # <os_j, g_k> = delta_{jk}, <1, g_k> = 0: g_k is the dual basis element
        for n in range(1, 6):
            for k in range(1, n + 1):
                g = g_basis(n, k)
                for j in range(1, n + 1):
                    expected = 1 if j == k else 0
                    assert inner_product_exact(os_function(n, j), g) == expected
                assert integral(g) == 0

    def test_g_k_variance(self):
        # sigma^2(g_k) = I(g_k, k) = 2(n+1)(n+2)
        for n in range(1, 9):
            for k in range(1, n + 1):
                g = g_basis(n, k)
                assert influence_exact(g, k) == 2 * (n + 1) * (n + 2)
                assert (inner_product_exact(g, g) - integral(g) ** 2
                        == 2 * (n + 1) * (n + 2))

    def test_h_k_normalized(self):
        # <1, h_k> = 1: h_k is a probability density
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert integral(h_density(n, k)) == 1

    def test_rank_bounds(self):
        with pytest.raises(DomainError):
            g_basis(3, 0)
        with pytest.raises(DomainError):
            h_density(3, 4)


class TestInfluence:
    def test_product_example(self):
        f = polynomial(2, [monomial(2, {1: 1, 2: 1})])
        assert influence_exact(f, 1) == Fraction(4, 5)
        assert influence_exact(f, 2) == Fraction(1, 5)

    def test_linearity(self):
        rnd = random.Random(31)
        for _ in range(25):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            g = random_orderstat_polynomial(rnd, n)
            a, b = Fraction(rnd.randint(-6, 6), 3), Fraction(rnd.randint(-6, 6), 3)
            for k in range(1, n + 1):
                assert (influence_exact(a * f + b * g, k)
                        == a * influence_exact(f, k) + b * influence_exact(g, k))

    def test_shift_invariance(self):
        rnd = random.Random(37)
        for _ in range(15):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            for k in range(1, n + 1):
                assert influence_exact(f + 7, k) == influence_exact(f, k)

    def test_profile_mean_preservation(self):
        # (1/(n+1)) sum_k k a_k = <f, 1> with a_k = <f, g_k> and the tail
        # taken straight from <f, os_n>, not from the identity itself
        rnd = random.Random(41)
        for _ in range(20):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            profile = InfluenceProfile(
                n, tuple(influence_exact(f, k) for k in range(1, n + 1)),
                direct_tail(f), integral(f), "exact")
            assert profile.mean_preservation_gap() == 0

    def test_tail_coefficient_matches_direct_formula(self):
        rnd = random.Random(43)
        for _ in range(20):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            profile = profile_exact(f)
            assert (tail_coefficient(n, profile.indices, profile.mean)
                    == direct_tail(f))


class TestApproximation:
    def test_matches_profile(self):
        rnd = random.Random(47)
        for _ in range(20):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            variance = inner_product_exact(f, f) - integral(f) ** 2
            if variance == 0:
                continue
            approx = approximation_exact(f)
            profile = profile_exact(f)
            want = gram_solve(f)
            assert approx.coefficients == want.coefficients
            assert profile.indices == want.coefficients[:-1]
            assert profile.formal_tail == want.coefficients[-1]
            assert approx.mean == profile.mean == want.mean

    def test_residual_orthogonality(self):
        # <f - f_L, os_j> = 0 for every basis element, exactly
        rnd = random.Random(53)
        for _ in range(15):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            if inner_product_exact(f, f) - integral(f) ** 2 == 0:
                continue
            approx = approximation_exact(f)
            f_l = polynomial(
                n,
                [monomial(n, {k: 1}, a)
                 for k, a in enumerate(approx.coefficients[:-1], start=1) if a],
                approx.coefficients[-1])
            residual = f - f_l
            for j in range(1, n + 1):
                assert inner_product_exact(residual, os_function(n, j)) == 0
            assert integral(residual) == 0

    def test_r_squared_bounds_and_residual(self):
        rnd = random.Random(59)
        for _ in range(25):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            if inner_product_exact(f, f) - integral(f) ** 2 == 0:
                continue
            approx = approximation_exact(f)
            assert 0 <= approx.r_squared <= 1
            assert approx.residual_norm_sq >= 0

    def test_member_of_span_has_r_squared_one(self):
        rnd = random.Random(61)
        for _ in range(15):
            n = rnd.randint(2, 5)
            f = polynomial(
                n,
                [monomial(n, {k: 1}, Fraction(rnd.randint(-6, 6), 3))
                 for k in range(1, n + 1)],
                Fraction(rnd.randint(-4, 4), 2))
            if inner_product_exact(f, f) - integral(f) ** 2 == 0:
                continue
            approx = approximation_exact(f)
            assert approx.r_squared == 1
            assert approx.residual_norm_sq == 0

    def test_constant_function_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            approximation_exact(polynomial(3, constant=2))

    def test_recentered_form_agrees(self):
        rnd = random.Random(67)
        for _ in range(10):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            if inner_product_exact(f, f) - integral(f) ** 2 == 0:
                continue
            approx = approximation_exact(f)
            x = [Fraction(rnd.randint(0, 8), 8) for _ in range(n)]
            assert approx.evaluate_basis(x) == approx.evaluate_recentered(x)


class TestNormalizedIndex:
    def test_scale_shift_invariance(self):
        rnd = random.Random(71)
        for _ in range(15):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            if inner_product_exact(f, f) - integral(f) ** 2 == 0:
                continue
            g = 3 * f + Fraction(5, 2)
            for k in range(1, n + 1):
                assert normalized_index_exact(g, k) == pytest.approx(
                    normalized_index_exact(f, k), abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            normalized_index_exact(polynomial(2, constant=1), 1)
