"""Closed-form tests: multiplicative functions, power products, variance,
and the subset-box alternative formulas."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ordinfluence import (
    DomainError,
    MultiplicativeSpec,
    QuadratureError,
    UnaryFactor,
    influence_power_product,
    monomial,
    polynomial,
    variance_profile,
)
from ordinfluence import (
    OrderStatPolynomialSpec,
    PlainPolynomialSpec,
    VarianceSpec,
    best_approximation,
    cli,
    exact,
    function_moments,
    resolve_builtin,
)
from ordinfluence.closedforms import multiplicative_indices

from reference import (
    BranchAmbiguityError,
    influence_exact,
    influence_symmetric_multiplicative,
    influence_via_alternative,
    power_product_ratio,
    subset_box_integral,
    symmetrize,
    variance_plain_terms,
)


class TestPowerProduct:
    def test_example_n2_c1(self):
        assert influence_power_product(1, 2, 1) == pytest.approx(0.8, abs=1e-12)
        assert influence_power_product(1, 2, 2) == pytest.approx(0.2, abs=1e-12)

    def test_against_exact_kernel(self):
        # integer exponents are order-stat polynomials after symmetrization;
        # but (x1...xn)^c is already symmetric: prod x_i = prod x_{(i)}
        for c in (1, 2, 3):
            for n in (2, 3):
                poly = polynomial(n, [monomial(n, {k: c for k in range(1, n + 1)})])
                for k in range(1, n + 1):
                    assert influence_power_product(c, n, k) == pytest.approx(
                        float(influence_exact(poly, k)), rel=1e-12)

    def test_monotone_decreasing_in_k(self):
        for n in range(2, 7):
            for c in (0.1, 1 / 3, 0.5, 1.0, 2.0, 5.0):
                values = [influence_power_product(c, n, k)
                          for k in range(1, n + 1)]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_ratio_consistent_with_direct(self):
        for n in (2, 3, 4):
            for c in (1 / 3, 1.0, 2.0):
                base = influence_power_product(c, n, 1)
                for k in range(1, n + 1):
                    assert power_product_ratio(c, k) == pytest.approx(
                        influence_power_product(c, n, k) / base, rel=1e-12)

    def test_ratio_limit_near_half(self):
        # as c -> -1/2 all indices approach the first one
        for k in (2, 3, 4):
            assert power_product_ratio(-0.4999, k) == pytest.approx(1.0, abs=1e-3)

    def test_log_gamma_form_matches_gamma_form(self):
        # the Gamma-function formulas, finite in floats at these arities
        for n in range(1, 21):
            for c in (-0.4, 1 / n, 0.5, 1.0, 3.0):
                u = 1 / (c + 1)
                for k in range(1, n + 1):
                    index = (c * u ** (n + 2) * math.gamma(n + 3)
                             * math.gamma(k - 1 + u)
                             / (math.gamma(k + 1) * math.gamma(n + 1 + u)))
                    ratio = (math.gamma(k - 1 + u)
                             / (math.gamma(k + 1) * math.gamma(u)))
                    assert influence_power_product(c, n, k) == pytest.approx(
                        index, rel=1e-12)
                    assert power_product_ratio(c, k) == pytest.approx(
                        ratio, rel=1e-12)

    def test_geometric_mean_at_large_arity(self, tmp_path, capsys):
        # Gamma(n+3) overflows a float from n = 169 on, Gamma(k+1) from k = 171
        n = 200
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "builtin", "name": "geometric-mean",
                                    "arity": n}))
        assert cli.main(["influence", str(path), "--all",
                         "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        closed = [row["value"] for row in rows]
        assert len(closed) == n and all(math.isfinite(v) for v in closed)
        assert power_product_ratio(1 / n, n) == pytest.approx(
            closed[-1] / closed[0], rel=1e-9)
        mc = function_moments(resolve_builtin("geometric-mean", n), "mc",
                              20_000, 5, norm_sq=False)
        # the lowest, a middle and the highest rank, fixed in advance: over
        # all 200 ranks some |z| > 3 is expected by chance
        for k in (1, n // 2, n):
            assert (abs(mc.indices[k - 1] - closed[k - 1])
                    <= 3 * mc.index_std_errors[k - 1])

    def test_domain(self):
        with pytest.raises(DomainError):
            influence_power_product(-0.5, 2, 1)
        with pytest.raises(DomainError):
            influence_power_product(1, 2, 3)


class TestMultiplicative:
    def test_symmetric_power_factors_match_gamma_formula(self):
        for n in (2, 3):
            for c in (Fraction(1, 3), Fraction(1), Fraction(2)):
                spec = MultiplicativeSpec.symmetric(UnaryFactor.power(c), n)
                for k in range(1, n + 1):
                    expected = influence_power_product(float(c), n, k)
                    assert multiplicative_indices(spec)[k - 1] == pytest.approx(
                        expected, rel=1e-9)
                    assert influence_symmetric_multiplicative(
                        UnaryFactor.power(c), n, k) == pytest.approx(
                        expected, rel=1e-8)

    def test_mixed_identity_and_constant_factor(self):
        # phi_1(t) = t, phi_2(t) = 1 gives f(x) = x_1, whose profile is (1/2, 1/2)
        spec = MultiplicativeSpec(2, (UnaryFactor.power(1), UnaryFactor.power(0)))
        assert multiplicative_indices(spec) == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_beta_density_branch_normalized(self):
        # the Phi(1) != 0 integrand integrates the derivative of a beta
        # density, so the index of the constant-one function vanishes
        factor = UnaryFactor.power(0)
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                assert influence_symmetric_multiplicative(
                    factor, n, k) == pytest.approx(0.0, abs=1e-9)

    def test_phi_one_zero_branch(self):
        # phi(t) = 2t - 1 has Phi(1) = 0 exactly; both routes must agree
        factor = UnaryFactor.from_callable(
            lambda t: 2.0 * t - 1.0, antiderivative=lambda y: y * y - y,
            declared_phi_one=0)
        for n in (2, 3):
            spec = MultiplicativeSpec.symmetric(factor, n)
            for k in range(1, n + 1):
                assert influence_symmetric_multiplicative(
                    factor, n, k) == pytest.approx(
                    multiplicative_indices(spec)[k - 1], rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 20, 168, 200])
    def test_phi_one_zero_branch_at_large_arity(self, n):
        # Gamma(n+3) overflows a float from n = 169 on; the index is
        # (-1)^{k-1} (n+1)(n+2) C(n+1,k) int_0^1 (y(1-y))^n dy
        factor = UnaryFactor.from_callable(
            lambda t: 2.0 * t - 1.0, antiderivative=lambda y: y * y - y,
            declared_phi_one=0)
        for k in (1, n // 2, n):
            exact = ((-1) ** (k - 1) * (n + 1) * (n + 2) * math.comb(n + 1, k)
                     * Fraction(math.factorial(n) ** 2, math.factorial(2 * n + 1)))
            assert influence_symmetric_multiplicative(factor, n, k) == \
                pytest.approx(float(exact), rel=1e-6, abs=0)

    @pytest.mark.parametrize("n", [168, 200])
    def test_phi_one_zero_branch_is_relatively_accurate(self, n):
        # int_0^1 (y(1-y))^n dy is about 4^-n, far below any absolute
        # tolerance; the branch must still meet 1e-10 relative
        factor = UnaryFactor.from_callable(
            lambda t: 2.0 * t - 1.0, antiderivative=lambda y: y * y - y,
            declared_phi_one=0)
        for k in (1, n // 2, n):
            exact = ((-1) ** (k - 1) * (n + 1) * (n + 2) * math.comb(n + 1, k)
                     * Fraction(math.factorial(n) ** 2, math.factorial(2 * n + 1)))
            assert influence_symmetric_multiplicative(factor, n, k) == \
                pytest.approx(float(exact), rel=1e-10, abs=0)

    def test_ambiguous_phi_one_raises(self):
        factor = UnaryFactor.from_callable(lambda t: 2.0 * t - 1.0)
        with pytest.raises(BranchAmbiguityError):
            influence_symmetric_multiplicative(factor, 2, 1)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_antiderivative_error_estimate_is_checked(self):
        # quad gives Phi(0.7) = 0.69485 with an error estimate of 8.4e-3 and
        # Phi(1) = 0.99625, where the true values are 0.70003 and 0.99997
        rough = UnaryFactor.from_callable(lambda t: math.cos(3e4 * t) + 1.0)
        for value in (lambda: rough.antiderivative_value(0.7), rough.phi_one,
                      MultiplicativeSpec.symmetric(rough, 2).mean):
            with pytest.raises(QuadratureError) as err:
                value()
            assert err.value.achieved_tolerance > 1e-3

    def test_mean_and_norm(self):
        spec = MultiplicativeSpec.symmetric(UnaryFactor.power(1), 2)
        assert spec.mean() == pytest.approx(0.25, abs=1e-12)
        assert spec.norm_sq() == pytest.approx(1 / 9, abs=1e-12)

    def test_callable_factor_evaluates_as_per_point_loop(self):
        spec = MultiplicativeSpec(2, (UnaryFactor.from_callable(math.sqrt),
                                      UnaryFactor.power(2)))
        x = np.random.default_rng(3).random((1000, 2))
        expected = (np.array([math.sqrt(t) for t in x[:, 0]])
                    * x[:, 1] ** 2.0)
        assert np.array_equal(spec.evaluate(x), expected)


def subset_expansion(spec, k):
    """The alternating subset expansion of I(f,k) for symbolic factors, in
    exact rationals:

        I(f,k) / ((n+1)(n+2)) = sum_{|S| >= k-1} (-1)^{|S|+1-k} C(|S|+1, k)
                                prod_{i not in S} Phi_i(1) int_0^1 prod_{i in S} Phi_i(y) dy.
    """
    n = spec.arity
    exps = [f.exponent for f in spec.factors]
    total = Fraction(0)
    for size in range(k - 1, n + 1):
        sign_binom = (-1) ** (size + 1 - k) * math.comb(size + 1, k)
        for subset in combinations(range(n), size):
            # Phi_i(1) = 1/(c_i+1) outside S, and the integral over y of the
            # product inside S is prod 1/(c_i+1) over (sum (c_i+1) + 1)
            term = Fraction(sign_binom)
            for i in range(n):
                term /= exps[i] + 1
            term /= sum(exps[i] + 1 for i in subset) + 1
            total += term
    return float((n + 1) * (n + 2) * total)


def _random_symbolic(rnd, n):
    choices = [Fraction(c) for c in ("-2/5", "0", "1/3", "2/3", "1", "4/3", "5/2")]
    return MultiplicativeSpec(n, tuple(UnaryFactor.power(rnd.choice(choices))
                                       for _ in range(n)))


class TestProductForm:
    @pytest.mark.parametrize("n", [40, 200])
    def test_product_builtin_matches_power_product(self, n):
        indices = resolve_builtin("product", n).moments(norm_sq=False).indices
        for k in range(1, n + 1):
            assert float(indices[k - 1]) == pytest.approx(
                influence_power_product(1, n, k), rel=1e-12, abs=0)

    def test_symbolic_matches_subset_expansion(self):
        rnd = random.Random(41)
        for n in range(1, 9):
            for _ in range(3):
                spec = _random_symbolic(rnd, n)
                got = multiplicative_indices(spec)
                for k in range(1, n + 1):
                    assert got[k - 1] == pytest.approx(
                        subset_expansion(spec, k), rel=1e-12, abs=0)

    def test_symbolic_matches_lower_box_formula(self):
        rnd = random.Random(43)
        for n in (2, 3, 4):
            spec = _random_symbolic(rnd, n)
            got = multiplicative_indices(spec)
            for k in range(1, n + 1):
                assert got[k - 1] == pytest.approx(
                    influence_via_alternative(spec, k, "dfsg5"), abs=1e-7)

    def test_callable_factor_matches_symbolic(self):
        # one factor with its antiderivative, one through nested quadrature
        with_antiderivative = UnaryFactor.from_callable(
            lambda t: t ** (1 / 3), antiderivative=lambda y: 0.75 * y ** (4 / 3))
        bare = UnaryFactor.from_callable(lambda t: t ** (1 / 3))
        symbolic = UnaryFactor.power(Fraction(1, 3))
        for n, factor in ((6, with_antiderivative), (3, bare)):
            got = multiplicative_indices(MultiplicativeSpec.symmetric(factor, n))
            expected = multiplicative_indices(
                MultiplicativeSpec.symmetric(symbolic, n))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_large_symbolic_product_falls_back_to_quadrature(self, monkeypatch):
        spec = MultiplicativeSpec(5, tuple(UnaryFactor.power(Fraction(1, p))
                                           for p in (2, 3, 5, 7, 11)))
        exact_values = multiplicative_indices(spec)
        monkeypatch.setattr(exact, "PRODUCT_FORM_LIMIT", 10)
        assert multiplicative_indices(spec) == pytest.approx(
            exact_values, rel=1e-9, abs=0)

    def test_float_path_error_is_checked(self):
        rough = UnaryFactor.from_callable(
            lambda t: math.sin(1e4 * t),
            antiderivative=lambda y: (1.0 - math.cos(1e4 * y)) / 1e4)
        spec = MultiplicativeSpec(2, (rough, UnaryFactor.power(1)))
        with pytest.raises(QuadratureError):
            multiplicative_indices(spec)

    def test_multiplicative_above_arity_20(self, tmp_path, capsys):
        n = 30
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "multiplicative", "arity": n,
                                    "factors": [{"exponent": "1/2"}] * n}))
        assert cli.main(["influence", str(path), "--all",
                         "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        for k in (1, n // 2, n):
            assert rows[k - 1]["value"] == pytest.approx(
                influence_power_product(0.5, n, k), rel=1e-12, abs=0)


class TestVariance:
    def test_profile_formula_vs_exact_kernel(self):
        for n in range(2, 6):
            closed = variance_profile(n)
            poly = symmetrize(n, variance_plain_terms(n))
            approx = best_approximation(OrderStatPolynomialSpec(poly))
            assert approx.coefficients[:-1] == closed.slopes
            assert approx.coefficients[-1] == closed.intercept
            # the same fit as (n-1)/(12n(n+3)) (6(n+2)G - (n+1)), with Gini's
            # mean difference G = (2/(n(n-1))) sum (2k-n-1) x_(k)
            scale = Fraction(n - 1, 12 * n * (n + 3))
            assert closed.slopes == tuple(
                scale * 6 * (n + 2) * Fraction(2 * (2 * k - n - 1), n * (n - 1))
                for k in range(1, n + 1))
            assert closed.intercept == scale * -(n + 1)

    def test_antisymmetric_profile(self):
        for n in range(2, 8):
            closed = variance_profile(n)
            for k in range(1, n + 1):
                assert closed.slopes[k - 1] == -closed.slopes[n - k]

    def test_n2_values(self):
        closed = variance_profile(2)
        assert closed.slopes == (Fraction(-1, 5), Fraction(1, 5))
        assert closed.intercept == Fraction(-1, 40)

    def test_spec_moments_vs_plain_expansion(self):
        # the closed forms give the expansion's Fractions: indices from the
        # product forms, the term-by-term mean and the pair sum for <f, f>
        for n in range(2, 41):
            got = VarianceSpec(n).moments()
            want = PlainPolynomialSpec(n, variance_plain_terms(n)).moments()
            assert got.indices == tuple(want.indices)
            assert got.mean == want.mean and got.norm_sq == want.norm_sq
            assert all(type(v) is Fraction for v in
                       got.indices + (got.mean, got.norm_sq))

    def test_power_sum_evaluator_vs_expansion(self):
        rng = np.random.default_rng(30)
        for n in range(2, 13):
            x = rng.random((500, n))
            got = VarianceSpec(n).evaluator()(x)
            want = PlainPolynomialSpec(n, variance_plain_terms(n)).evaluator()(x)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestAlternativeFormulas:
    @pytest.mark.parametrize("formula", ["dfsg5", "dfsg6", "dfsg7"])
    def test_multiplicative_agreement(self, formula):
        cases = [
            MultiplicativeSpec.symmetric(UnaryFactor.power(1), 2),
            MultiplicativeSpec.symmetric(UnaryFactor.power(Fraction(1, 2)), 3),
            MultiplicativeSpec(3, (UnaryFactor.power(1), UnaryFactor.power(2),
                                   UnaryFactor.power(0))),
            MultiplicativeSpec.symmetric(UnaryFactor.power(1), 4),
        ]
        for spec in cases:
            n = spec.arity
            for k in range(1, n + 1):
                reference = multiplicative_indices(spec)[k - 1]
                assert influence_via_alternative(spec, k, formula) == \
                    pytest.approx(reference, abs=1e-7)

    @pytest.mark.parametrize("formula", ["dfsg5", "dfsg6", "dfsg7"])
    def test_variance_n2(self, formula):
        class VarianceEvaluator:
            arity = 2

            @staticmethod
            def evaluate(x):
                x = np.asarray(x, dtype=float)
                mean = x.mean(axis=1)
                return ((x - mean[:, None]) ** 2).mean(axis=1)

        closed = variance_profile(2)
        for k in (1, 2):
            assert influence_via_alternative(VarianceEvaluator, k, formula) == \
                pytest.approx(float(closed.slopes[k - 1]), abs=1e-7)

    def test_box_integral_modes(self):
        # lower + split partitions the cube cross-section for a one-element
        # subset: int_0^1 (lower + split + mixed) checks against direct values
        spec = MultiplicativeSpec.symmetric(UnaryFactor.power(1), 2)
        lower = subset_box_integral(spec, (1,), "lower-box")
        upper = subset_box_integral(spec, (1,), "upper-box")
        # int_0^1 [ int_0^y x1 dx1 * 1/2 ] dy = (1/2) int y^2/2 = 1/12
        assert lower == pytest.approx(1 / 12, abs=1e-10)
        # complement: int over [y,1] = (1 - y^2)/2 -> (1/2)(1 - 1/3)/2 = 1/6
        assert upper == pytest.approx(1 / 6, abs=1e-10)
        assert subset_box_integral(spec, (1,), "split") == pytest.approx(
            (1 / 12) * 0 + _split_reference(), abs=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_black_box_error_estimate_is_checked(self):
        class Rough:
            arity = 2

            @staticmethod
            def evaluate(x):
                return np.sin(1e4 * x[:, 0])

        with pytest.raises(QuadratureError) as err:
            subset_box_integral(Rough, (1,), "lower-box")
        assert err.value.achieved_tolerance > 1e-10

    def test_bad_inputs(self):
        spec = MultiplicativeSpec.symmetric(UnaryFactor.power(1), 2)
        with pytest.raises(DomainError):
            subset_box_integral(spec, (1,), "diagonal")
        with pytest.raises(DomainError):
            influence_via_alternative(spec, 1, "dfsg9")


def _split_reference():
    # int_0^1 (y^2/2) * ((1 - y^2)/2) dy = (1/4)(1/3 - 1/5) = 1/30
    return 1 / 30
