"""Exact-kernel tests: moments, symmetrization, dualization, expansions.

Oracle values were computed independently (tensor quadrature, brute-force
permutation averages) and frozen here.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np
import pytest

from ordinfluence import (
    ConfigurationError,
    DomainError,
    exact,
    influence_power_product,
    monomial,
    os_function,
    polynomial,
)
from ordinfluence.exact import (
    as_rational,
    integer_ratio,
    orderstat_norm_sq,
    plain_indices,
    plain_integral,
    plain_norm_sq,
    product_indices,
    rank_inner_products,
    rational_string,
)
from ordinfluence.projection import moments_exact

from conftest import poly_evaluator, random_orderstat_polynomial
from reference import (
    dualize,
    expand_min_max,
    expand_subset_sum,
    influence_exact,
    inner_product_exact,
    integral,
    moment,
    poly_add,
    poly_mul,
    poly_scale,
    product_form_by_factor,
    symmetrize,
    tensor_quadrature,
)


class TestEvalOrderStat:
    # x_(k) at a point through os_function, ranks 0 and n+1 included
    def test_middle_rank(self):
        assert os_function(3, 2).evaluate((0.3, 0.1, 0.7)) == 0.3

    def test_ties(self):
        assert os_function(2, 1).evaluate((0.5, 0.5)) == 0.5
        assert os_function(2, 2).evaluate((0.5, 0.5)) == 0.5

    def test_boundary_ranks(self):
        assert os_function(2, 0).evaluate((0.2, 0.9)) == 0
        assert os_function(2, 3).evaluate((0.2, 0.9)) == 1

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            os_function(2, 4).evaluate((0.2, 0.9))


class TestMoment:
    # frozen one-dimensional sanity values
    def test_single_factor(self):
        # E[x_{(k)}] = k/(n+1)
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert moment(n, monomial(n, {k: 1})) == Fraction(k, n + 1)

    def test_known_products(self):
        # int x_{(1)} x_{(2)} over [0,1]^2 = 1/4; squares at n=2
        assert moment(2, monomial(2, {1: 1, 2: 1})) == Fraction(1, 4)
        assert moment(2, monomial(2, {1: 2})) == Fraction(1, 6)
        assert moment(2, monomial(2, {2: 2})) == Fraction(2, 3) - Fraction(1, 6)

    @staticmethod
    def simplex_oracle(n, exps):
        """n! times the nested integral over 0 < x_1 < ... < x_n < 1 of
        prod_j x_j^{c_j}, integrating one variable at a time.  On the ordered
        region the sorted coordinates coincide with the plain ones, so this is
        an independent route to the same moment."""
        degree = 0  # running exponent of the innermost remaining variable
        scale = Fraction(1)
        for slot in range(1, n + 1):
            degree += exps.get(slot, 0)
            scale /= degree + 1
            degree += 1
        return Fraction(factorial(n)) * scale

    def test_against_nested_integration_oracle(self):
        rnd = random.Random(7)
        for n in (1, 2, 3, 4):
            for _ in range(40):
                slots = rnd.sample(range(1, n + 1), rnd.randint(1, n))
                exps = {s: rnd.randint(1, 4) for s in slots}
                term = monomial(n, exps)
                assert moment(n, term) == self.simplex_oracle(n, exps)

    def test_against_quadrature_oracle(self):
        # coarse float cross-check through a genuinely numeric route
        rnd = random.Random(7)
        for n in (1, 2, 3):
            for _ in range(10):
                slots = rnd.sample(range(1, n + 1), rnd.randint(1, n))
                exps = {s: rnd.randint(1, 4) for s in slots}
                term = monomial(n, exps)
                poly = polynomial(n, [term])
                oracle = tensor_quadrature(poly_evaluator(poly), 80)
                assert float(moment(n, term)) == pytest.approx(oracle, rel=5e-3)

    def test_coefficient_scales(self):
        t = monomial(3, {2: 1}, Fraction(5, 7))
        assert moment(3, t) == Fraction(5, 7) * Fraction(2, 4)


class TestIntegerMoments:
    """The integer sums behind the exact moments against the polynomial
    products they replace, as equal Fractions."""

    @staticmethod
    def random_polynomials(count):
        rnd = random.Random(53)
        polys = [polynomial(3), polynomial(4, constant=Fraction(5, 3)),
                 polynomial(1, [monomial(1, {1: 5}, Fraction(-2, 7))])]
        while len(polys) < count:
            n = rnd.randint(1, 12)
            terms = []
            for _ in range(rnd.randint(0, 4)):
                slots = set(rnd.sample(range(1, n + 1), rnd.randint(1, min(n, 3))))
                if rnd.random() < 0.3:
                    slots.add(n)
                terms.append(monomial(n, {s: rnd.randint(1, 5) for s in slots},
                                      Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))))
            polys.append(polynomial(n, terms, Fraction(rnd.randint(-3, 3),
                                                       rnd.randint(1, 4))))
        return polys

    def test_against_polynomial_products(self):
        for f in self.random_polynomials(220):
            n = f.arity
            b, denominator = rank_inner_products(f)
            assert len(b) == n + 2
            for i in range(n + 2):  # os_0 = 0 and os_{n+1} = 1
                assert (Fraction(b[i], denominator)
                        == inner_product_exact(f, os_function(n, i)))
            assert orderstat_norm_sq(f) == inner_product_exact(f, f)
            m = moments_exact(f)
            assert m.mean == integral(f)
            assert m.norm_sq == inner_product_exact(f, f)
            assert m.indices == tuple(influence_exact(f, k)
                                      for k in range(1, n + 1))


class TestPolynomialAlgebra:
    def test_canonical_merge(self):
        p = polynomial(2, [monomial(2, {1: 1}), monomial(2, {1: 1}, 2)], 1)
        assert len(p.terms) == 1
        assert p.terms[0].coefficient == 3

    def test_zero_terms_dropped(self):
        p = polynomial(2, [monomial(2, {1: 1}), monomial(2, {1: 1}, -1)])
        assert p.terms == ()

    def test_ring_ops_pointwise(self):
        rnd = random.Random(11)
        for _ in range(30):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            g = random_orderstat_polynomial(rnd, n)
            x = [Fraction(rnd.randint(0, 12), 12) for _ in range(n)]
            assert poly_add(f, g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
            assert (poly_add(f, poly_scale(g, -1)).evaluate(x)
                    == f.evaluate(x) - g.evaluate(x))
            assert poly_mul(f, g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
            assert poly_scale(f, 3).evaluate(x) == 3 * f.evaluate(x)
            assert (poly_add(f, -Fraction(1, 2)).evaluate(x)
                    == f.evaluate(x) - Fraction(1, 2))

    def test_os_function_boundaries(self):
        assert os_function(3, 0).evaluate([0.5, 0.2, 0.9]) == 0
        assert os_function(3, 4).evaluate([0.5, 0.2, 0.9]) == 1

    def test_integral_linearity(self):
        f = polynomial(2, [monomial(2, {1: 1, 2: 1})], Fraction(1, 3))
        assert integral(f) == Fraction(1, 4) + Fraction(1, 3)

    def test_inner_product_symmetry(self):
        f = os_function(3, 1)
        g = os_function(3, 3)
        assert inner_product_exact(f, g) == inner_product_exact(g, f)


class TestSymmetrize:
    def brute_force(self, n, plain_terms, constant, x):
        """Average over all n! permutations of the point, exactly."""
        total = Fraction(0)
        for perm in permutations(x):
            value = Fraction(constant)
            for coeff, exps in plain_terms:
                part = Fraction(coeff)
                for v, e in exps.items():
                    part *= Fraction(perm[v - 1]) ** e
                value += part
            total += value
        return total / Fraction(len(list(permutations(x))))

    def test_against_permutation_average(self):
        rnd = random.Random(13)
        for _ in range(25):
            n = rnd.randint(1, 4)
            terms = []
            for _ in range(rnd.randint(1, 3)):
                variables = rnd.sample(range(1, n + 1), rnd.randint(1, n))
                terms.append((Fraction(rnd.randint(-6, 6), 3),
                              {v: rnd.randint(1, 2) for v in variables}))
            constant = Fraction(rnd.randint(-3, 3), 2)
            sym = symmetrize(n, terms, constant)
            x = [Fraction(rnd.randint(0, 10), 10) for _ in range(n)]
            assert sym.evaluate(x) == self.brute_force(n, terms, constant, x)

    def test_single_variable(self):
        # Sym(x_i) = (1/n) sum_k x_{(k)}
        for n in range(1, 6):
            sym = symmetrize(n, [(1, {1: 1})])
            expected = polynomial(
                n, [monomial(n, {k: 1}, Fraction(1, n)) for k in range(1, n + 1)])
            assert sym == expected

    def test_idempotent_on_symmetric_input(self):
        # symmetrizing sum_i x_i^2 twice changes nothing
        n = 3
        terms = [(1, {i: 2}) for i in range(1, n + 1)]
        once = symmetrize(n, terms)
        assert once == polynomial(
            n, [monomial(n, {k: 2}) for k in range(1, n + 1)])

    def test_too_many_variables(self):
        with pytest.raises(DomainError):
            symmetrize(2, [(1, {1: 1, 2: 1, 3: 1})])


class TestDualize:
    def test_pointwise(self):
        rnd = random.Random(17)
        for _ in range(30):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            fd = dualize(f)
            x = [Fraction(rnd.randint(0, 9), 9) for _ in range(n)]
            reflected = [1 - xi for xi in x]
            assert fd.evaluate(x) == 1 - f.evaluate(reflected)

    def test_involution(self):
        rnd = random.Random(19)
        for _ in range(20):
            n = rnd.randint(1, 4)
            f = random_orderstat_polynomial(rnd, n)
            assert dualize(dualize(f)) == f

    def test_min_max_swap(self):
        n = 3
        assert dualize(os_function(n, 1)) == os_function(n, n)


class TestExpansions:
    def _random_points(self, rnd, n, count):
        return [[rnd.random() for _ in range(n)] for _ in range(count)]

    def test_subset_sum_pointwise(self):
        rnd = random.Random(23)
        for n in range(2, 6):
            for s in range(1, n + 1):
                for k in range(1, s + 1):
                    coeffs = expand_subset_sum(n, s, k)
                    for x in self._random_points(rnd, n, 20):
                        xs = sorted(x)
                        lhs = sum(sorted(x[i - 1] for i in subset)[k - 1]
                                  for subset in combinations(range(1, n + 1), s))
                        rhs = sum(c * xs[j] for j, c in enumerate(coeffs))
                        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_subset_sum_total_count(self):
        # the coefficients distribute C(n, s) subsets over the n slots
        for n in range(2, 7):
            for s in range(1, n + 1):
                for k in range(1, s + 1):
                    assert sum(expand_subset_sum(n, s, k)) == comb(n, s)

    @pytest.mark.parametrize("mode", ["via-max", "via-min"])
    def test_min_max_expansion_pointwise(self, mode):
        rnd = random.Random(29)
        for n in range(1, 6):
            for k in range(1, n + 1):
                combo = expand_min_max(n, k, mode)
                for x in self._random_points(rnd, n, 15):
                    assert float(combo.evaluate(x)) == pytest.approx(
                        sorted(x)[k - 1], abs=1e-12)

    def test_min_max_bad_mode(self):
        with pytest.raises(DomainError):
            expand_min_max(3, 1, "sideways")


class TestProductForm:
    @staticmethod
    def random_plain(rnd, n):
        terms = []
        for _ in range(rnd.randint(1, 4)):
            variables = rnd.sample(range(1, n + 1), rnd.randint(0, min(n, 4)))
            terms.append((Fraction(rnd.randint(-6, 6), rnd.randint(1, 4)),
                          {v: rnd.randint(1, 3) for v in variables}))
        if n >= 2 and rnd.random() < 0.5:
            # two terms of one shape whose coefficients cancel
            a, b = rnd.sample(range(1, n + 1), 2)
            terms += [(Fraction(5, 3), {a: 2}), (Fraction(-5, 3), {b: 2})]
        return terms

    def test_plain_indices_match_symmetrize(self):
        rnd = random.Random(31)
        for _ in range(36):
            n = rnd.randint(1, 7)
            terms = self.random_plain(rnd, n)
            sym = symmetrize(n, terms, Fraction(rnd.randint(-3, 3), 2))
            # and the kernel product <Sym f, g_k>, which forms polynomials
            assert plain_indices(n, terms) == moments_exact(
                sym, norm_sq=False).indices == tuple(
                influence_exact(sym, k) for k in range(1, n + 1))

    def test_constant_and_cancelled_shapes_have_index_zero(self):
        terms = [(3, {}), (Fraction(1, 2), {1: 1, 2: 2}),
                 (Fraction(-1, 2), {3: 2, 1: 1})]
        assert plain_indices(3, terms) == (0, 0, 0)

    def test_rational_exponents_match_power_product(self):
        for n in (1, 2, 5, 9):
            for c in (Fraction(-2, 5), Fraction(1, n), Fraction(2, 3), Fraction(3)):
                got = product_indices([c] * n)
                for k in range(1, n + 1):
                    assert float(got[k - 1]) == pytest.approx(
                        influence_power_product(c, n, k), rel=1e-12, abs=0)

    def test_mixed_exponents_match_symmetrize(self):
        # x_1^3 x_2 x_4^2 at n = 5, with the unused variables at exponent 0
        sym = symmetrize(5, [(1, {1: 3, 2: 1, 4: 2})])
        assert product_indices([3, 1, 0, 2, 0]) == moments_exact(
            sym, norm_sq=False).indices

    def test_domain(self):
        with pytest.raises(DomainError):
            product_indices([])
        with pytest.raises(DomainError):
            product_indices([1, Fraction(-1, 2)])
        with pytest.raises(DomainError):
            plain_indices(2, [(1, {3: 1})])
        with pytest.raises(DomainError):
            plain_indices(2, [(1, {1: 1, 2: 1, 3: 1})])

    def test_size_is_checked_before_the_build(self, monkeypatch):
        # the largest group, the unused variables, is folded; the m variables
        # x_i^1 expand to m + 1 polynomials r_j of at most m + 1 powers each
        monkeypatch.setattr(exact, "PRODUCT_FORM_LIMIT", 81)
        assert len(product_indices([1] * 8 + [0] * 9)) == 17
        with pytest.raises(ConfigurationError):
            product_indices([1] * 9 + [0] * 10)

    def test_folded_group_matches_symmetrize_and_factor_recurrence(self):
        rnd = random.Random(41)
        for trial in range(40):
            n, den = rnd.randint(1, 7), trial % 4 + 1
            values = [Fraction(rnd.randint(-den // 2 + 1, 3 * den), den)
                      for _ in range(3)]
            if trial % 3 == 0 and n >= 2:  # two groups tie for the largest
                half = n // 2
                cs = [values[0]] * half + [values[1]] * half + values[2:2 + n % 2]
            else:
                cs = [rnd.choice(values) for _ in range(n)]
            rnd.shuffle(cs)
            got = product_indices(cs)
            assert got == product_form_by_factor(cs), cs
            if all(c.denominator == 1 for c in cs):
                sym = symmetrize(n, [(1, {i + 1: c for i, c in enumerate(cs)})])
                assert got == moments_exact(sym, norm_sq=False).indices, cs

    def test_first_variable_at_arity_1000(self):
        assert plain_indices(1000, [(1, {1: 1})]) == (Fraction(1, 1000),) * 1000

    @pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 3)])
    def test_product_at_arity_1000_matches_power_product(self, c):
        got = product_indices([c] * 1000)
        for k in range(1, 1001):
            assert float(got[k - 1]) == pytest.approx(
                influence_power_product(c, 1000, k), rel=1e-11, abs=0)

    def test_plain_norm_sq_equals_ordered_pair_sum(self):
        # the integral of every ordered pair of terms, as an independent sum
        rnd = random.Random(37)
        for _ in range(40):
            n = rnd.randint(1, 5)
            terms = self.random_plain(rnd, n)
            constant = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
            full = [(constant, {})] + terms
            pairs = [(c * d, {v: a.get(v, 0) + b.get(v, 0)
                              for v in a.keys() | b.keys()})
                     for c, a in full for d, b in full]
            assert plain_norm_sq(terms, constant) == plain_integral(pairs)


def _ratio_corpus():
    rng = random.Random(41_2026)
    corpus = ["+5/12", "-0", "--3/4", " 5/12", "5 /12", "1_0/3", "1_0.5",
              "\u00b2/3", "\u0663/4", ".5", "5.", "1e3", "1.5e+20", "1/0",
              "3/-4", "", "-", "/", ".", "-.5", "0/0", "-0/7", "1.50",
              "-12.125", "007/014", "1/3\n", "1.5/2", "\uff15", "inf",
              "nan", "1" * 4301 + "/3", "3/" + "1" * 4301, "1" * 4300,
              "-" + "9" * 4300 + "/7", "1." + "2" * 4300, "1" * 4301]
    for _ in range(6000):
        x = rng.random() * 10.0 ** rng.randint(-30, 30)
        corpus.append(repr(-x if rng.random() < 0.5 else x))
    return corpus


def test_ratio_parser_agrees_with_fraction():
    # integer_ratio and as_rational read every string as Fraction does, or
    # refuse it with the same exception type
    for text in _ratio_corpus():
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            for parse in (integer_ratio, as_rational):
                with pytest.raises(type(exc)):
                    parse(text)
            continue
        assert integer_ratio(text) == want.as_integer_ratio(), text
        got = as_rational(text)
        assert type(got) is Fraction and got == want, text


def test_integer_ratio_of_numbers():
    for value in (0, -7, 2 ** 70, True, 0.1, -2.5, Fraction(-4, 6)):
        assert integer_ratio(value) == Fraction(value).as_integer_ratio()
    for value, error in ((float("inf"), OverflowError),
                         (float("nan"), ValueError), (None, TypeError),
                         ([1], TypeError)):
        with pytest.raises(error):
            integer_ratio(value)


def test_rational_string_is_str_of_fraction():
    rng = random.Random(41_2027)
    for _ in range(2000):
        p = rng.randint(-10 ** rng.randint(0, 25), 10 ** rng.randint(0, 25))
        q = rng.randint(1, 10 ** rng.randint(0, 25))
        assert rational_string(p, q) == str(Fraction(p, q))
    for p, q in ((0, 5), (-6, 3), (6, 4), (2 ** 70, 1), (-(2 ** 70), 6)):
        assert rational_string(p, q) == str(Fraction(p, q))
