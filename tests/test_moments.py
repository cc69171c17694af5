"""The moments path: each engine's Moments and the one assembler."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from ordinfluence import (
    MultiplicativeSpec,
    OrderStatPolynomialSpec,
    PlainPolynomialSpec,
    RawEvaluatorSpec,
    SetFunctionSpec,
    UnaryFactor,
    best_approximation,
    cli,
    closedforms,
    exact,
    function_moments,
    influence_profile,
    lovasz,
    projection,
    resolve_builtin,
)
from ordinfluence.exact import plain_integral, plain_norm_sq
from ordinfluence.montecarlo import Evaluator
from ordinfluence.projection import (
    Moments,
    _r_squared_gradient,
    approximation_from_moments,
    moments_exact,
)

from conftest import (
    gram_r_squared,
    gram_solve,
    random_orderstat_polynomial,
    random_plain_terms,
    random_set_function,
)
from reference import (
    approximation_by_fractions,
    gram_system,
    influence_exact,
    inner_product_exact,
    integral,
    tensor_quadrature,
)

X1 = PlainPolynomialSpec(2, [(Fraction(1), {1: 1})])


def _random_plain_specs(rng, count):
    specs = []
    while len(specs) < count:
        n = rng.randint(2, 4)
        spec = PlainPolynomialSpec(n, random_plain_terms(rng, n),
                                   Fraction(rng.randint(-3, 3), 4))
        if spec.moments().variance() > 0:
            specs.append(spec)
    return specs


class TestPlainPolynomials:
    def test_x1_is_analysed_itself_not_its_symmetric_part(self):
        approx = best_approximation(X1, "exact")
        assert approx.r_squared == Fraction(1, 2)
        assert approx.mean == Fraction(1, 2)
        assert approx.variance == Fraction(1, 12)
        assert approx.sigma == pytest.approx(math.sqrt(1 / 12))

    def test_x1_cli_report(self, tmp_path, capsys):
        path = tmp_path / "x1.json"
        path.write_text(json.dumps(
            {"kind": "plain-polynomial", "arity": 2,
             "terms": [{"coefficient": 1, "exponents": {"1": 1}}]}))
        assert cli.main(["approx", str(path), "--method", "exact",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["extras"]["r_squared"]["rational"] == "1/2"
        assert doc["extras"]["mean"]["rational"] == "1/2"
        # r(f,k) = (1/2) / (sqrt(1/12) sqrt(24))
        for row in doc["results"]:
            assert row["normalized"] == pytest.approx(0.5 / math.sqrt(2))

    def test_plain_mean_and_norm_match_quadrature(self, rng):
        for spec in _random_plain_specs(rng, 12):
            f = spec.evaluator()
            square = Evaluator(spec.arity, lambda x, f=f: f(x) ** 2)
            mean = plain_integral(spec.terms, spec.constant)
            norm_sq = plain_norm_sq(spec.terms, spec.constant)
            assert abs(float(mean) - tensor_quadrature(f, 6)) < 1e-12
            assert abs(float(norm_sq) - tensor_quadrature(square, 6)) < 1e-12

    def test_exact_and_mc_agree_on_r_squared_and_sigma(self, rng):
        for i, spec in enumerate(_random_plain_specs(rng, 6)):
            want = best_approximation(spec, "exact")
            est = function_moments(spec, "mc", 200_000, 31 + i)
            mc = approximation_from_moments(est)
            assert (abs(mc.r_squared - float(want.r_squared))
                    <= 3 * mc.r_squared_std_error)
            # SD(<f,f> - mean^2) <= SD(<f,f>) + 2|mean| SD(mean), whatever
            # the correlation of the two estimates
            se_variance = (est.norm_sq_std_error
                           + 2 * abs(est.mean) * est.mean_std_error)
            assert (abs(mc.sigma - want.sigma)
                    <= 3 * se_variance / (2 * want.sigma))


def _random_orderstat_spec(rng):
    return OrderStatPolynomialSpec(
        random_orderstat_polynomial(rng, rng.randint(1, 4)))


def _random_set_function_spec(rng):
    return SetFunctionSpec(
        random_set_function(rng, rng.randint(1, 4), zero_grounded=False))


def _random_plain_spec(rng):
    n = rng.randint(1, 4)
    return PlainPolynomialSpec(n, random_plain_terms(rng, n),
                               Fraction(rng.randint(-3, 3), 4))


class TestAssemblerAgainstOracles:
    @pytest.mark.parametrize("random_spec", [
        _random_orderstat_spec, _random_set_function_spec, _random_plain_spec,
    ], ids=["orderstat", "set-function", "plain"])
    def test_orderstat_fit_matches_gram_solve(self, rng, random_spec):
        for _ in range(20):
            spec = random_spec(rng)
            n = spec.arity
            moments = spec.moments()
            if isinstance(spec, OrderStatPolynomialSpec):
                poly = spec.poly
                assert moments.indices == tuple(
                    influence_exact(poly, k) for k in range(1, n + 1))
                assert moments.norm_sq == inner_product_exact(poly, poly)
            if moments.norm_sq == moments.mean ** 2:
                continue
            got = best_approximation(spec, "exact")
            # the closed form against a^T M a with the Gram matrix M
            a = got.coefficients
            matrix = gram_system(n).matrix
            fit_norm_sq = sum(a[i] * matrix[i][j] * a[j]
                              for i in range(n + 1) for j in range(n + 1))
            assert got.r_squared == gram_r_squared(n, a, moments.variance())
            assert got.residual_norm_sq == moments.norm_sq - fit_norm_sq
            if isinstance(spec, OrderStatPolynomialSpec):
                want = gram_solve(poly)
                assert got.coefficients == want.coefficients
                assert got.r_squared == want.r_squared
                assert got.residual_norm_sq == want.residual_norm_sq
                assert got.normalized_index(1) == approximation_from_moments(
                    moments_exact(poly)).normalized_index(1)

    def test_r_squared_gradient_matches_central_differences(self, rng):
        def r_squared(theta, n):
            idx, mean, norm_sq = theta[:n], theta[n], theta[n + 1]
            coefficients = idx + [Moments(n, "mc", idx, mean).formal_tail()]
            return float(gram_r_squared(n, coefficients,
                                        norm_sq - mean * mean))

        for _ in range(10):
            n = rng.randint(1, 8)
            theta = ([rng.uniform(-1, 1) for _ in range(n + 1)]
                     + [rng.uniform(1.5, 3)])
            m = Moments(n, "monte-carlo", tuple(theta[:n]), theta[n],
                        theta[n + 1])
            r2 = approximation_from_moments(m).r_squared
            step = 1e-6
            numeric = []
            for i in range(n + 2):
                hi, lo = list(theta), list(theta)
                hi[i] += step
                lo[i] -= step
                numeric.append((r_squared(hi, n) - r_squared(lo, n))
                               / (2 * step))
            assert _r_squared_gradient(m, r2) == pytest.approx(
                numeric, rel=1e-6, abs=1e-8)

    def test_fit_builds_no_gram_system(self, rng):
        # the Gram system is an oracle of the tests: the package binds none
        poly = random_orderstat_polynomial(rng, 3)
        while inner_product_exact(poly, poly) == integral(poly) ** 2:
            poly = random_orderstat_polynomial(rng, 3)
        spec = resolve_builtin("median", 5)
        best_approximation(spec, "exact")
        best_approximation(spec, "mc", samples=4000, seed=1)
        approximation_from_moments(moments_exact(poly)).normalized_index(2)
        best_approximation(OrderStatPolynomialSpec(poly))
        influence_profile(OrderStatPolynomialSpec(poly))
        assert not hasattr(projection, "gram_system")

    def test_assembly_matches_fraction_by_fraction_reference(self, rng):
        # exact: the same Fractions as the sums taken one Fraction at a time,
        # on seeded specs of every exact kind and at arity 1000
        specs = [resolve_builtin(name, rng.randint(2, 9))
                 for name in ("min", "max", "median", "product", "variance",
                              "arithmetic-mean")]
        for random_spec in (_random_orderstat_spec, _random_set_function_spec,
                            _random_plain_spec):
            specs += [random_spec(rng) for _ in range(5)]
        specs += [resolve_builtin(name, 1000)
                  for name in ("product", "variance", "median")]
        specs.append(PlainPolynomialSpec(1000, [(Fraction(1), {1: 1})]))
        checked = 0
        for spec in specs:
            moments = spec.moments()
            if moments.norm_sq == moments.mean ** 2:
                continue
            got = approximation_from_moments(moments)
            want = approximation_by_fractions(moments)
            assert got == want
            for value in (got.intercept, got.r_squared, got.residual_norm_sq,
                          got.variance):
                assert type(value) is Fraction
            checked += 1
        assert checked >= len(specs) - 5
        # floats: the same bits, with and without a covariance
        np_random = np.random.default_rng(rng.randrange(2 ** 32))
        for _ in range(30):
            n = rng.randint(1, 12)
            scale = 10.0 ** rng.randint(-6, 6)
            indices = tuple(rng.uniform(-1, 1) * scale for _ in range(n))
            mean = rng.uniform(-1, 1) * scale
            norm_sq = mean * mean + rng.uniform(0.1, 2) * scale * scale
            root = np_random.standard_normal((n + 2, n + 2))
            for covariance in (None, root @ root.T):
                moments = Moments(n, "mc", indices, mean, norm_sq,
                                  covariance=covariance)
                got = approximation_from_moments(moments)
                want = approximation_by_fractions(moments)
                assert got == want and repr(got) == repr(want)
                assert (got.r_squared_std_error is None) == (covariance is None)

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 40, 100, 1000])
    def test_closed_forms_of_x1_and_variance_fits(self, n):
        x1 = best_approximation(
            PlainPolynomialSpec(n, [(Fraction(1), {1: 1})]), "exact")
        assert x1.r_squared == Fraction(1, n)
        assert x1.residual_norm_sq == Fraction(n - 1, 12 * n)
        assert x1.intercept == 0
        variance = best_approximation(resolve_builtin("variance", n), "exact")
        c = 2 * (n + 2) ** 2
        assert variance.r_squared == Fraction(c, c + n + 1)

    def test_profile_tail_is_mean_preserving(self, rng):
        for _ in range(10):
            v = random_set_function(rng, rng.randint(1, 4), zero_grounded=False)
            profile = influence_profile(SetFunctionSpec(v), "exact")
            n = v.arity
            weighted = sum(k * a for k, a in enumerate(profile.indices, 1))
            assert ((weighted + (n + 1) * profile.formal_tail()) / (n + 1)
                    == profile.mean)
            assert profile.formal_tail() == v.values[0]


def _count_calls(monkeypatch, module, name):
    """Count calls of a package function through every module binding."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("ordinfluence") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestMonteCarloPass:
    def test_single_rank_is_a_row_of_the_profile(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TestEachPrimaryOnce.PLAIN))

        def rows(*argv):
            assert cli.main(["influence", str(path), *argv, "--method", "mc",
                             "--samples", "3000", "--seed", "5",
                             "--format", "json"]) == 0
            return json.loads(capsys.readouterr().out)["results"]

        profile = rows("--all")
        for k in (1, 3):
            (row,) = rows("-k", str(k))
            assert row == profile[k - 1]

    def test_approx_evaluates_each_sample_once(self):
        points = []

        def func(x):
            points.append(len(x))
            return x[:, 0] * x[:, 1] + x[:, 2]

        spec = RawEvaluatorSpec(Evaluator(3, func, name="counted"))
        fit = best_approximation(spec, "mc", samples=40_000, seed=2)
        assert sum(points) == 40_000
        assert fit.r_squared_std_error > 0


class TestEachPrimaryOnce:
    SETFN = {"kind": "set-function", "arity": 4,
             "values": [str(Fraction(i * 7 % 11, 5)) for i in range(16)]}
    PLAIN = {"kind": "plain-polynomial", "arity": 4, "constant": "1/3",
             "terms": [{"coefficient": "3/2", "exponents": {"2": 1}},
                       {"coefficient": "-1", "exponents": {"3": 2, "1": 1}}]}
    ORDERSTAT = {"kind": "orderstat-polynomial", "arity": 5, "constant": "2/7",
                 "terms": [{"coefficient": "1/2", "exponents": {"5": 3}},
                           {"coefficient": "-4/3", "exponents": {"2": 1, "4": 2}}]}

    def run(self, tmp_path, doc, *argv):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.main([argv[0], str(path), *argv[1:], "--format", "json"]) == 0

    def test_set_function_approx_takes_one_norm(self, tmp_path, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, lovasz, "norm_sq_lovasz")
        self.run(tmp_path, self.SETFN, "approx")
        assert len(calls) == 1

    def test_set_function_approx_takes_no_mobius(self, tmp_path, monkeypatch, capsys):
        # the profile and the mean come from the level sums of v itself
        calls = _count_calls(monkeypatch, lovasz, "mobius")
        self.run(tmp_path, self.SETFN, "approx")
        assert not calls

    def test_set_function_approx_scales_values_once(self, tmp_path, monkeypatch,
                                                    capsys):
        # one integer table from the Fractions, shared by the spec echo, the
        # level sums and the norm
        builds = _count_calls(monkeypatch, lovasz, "_scaled_numerators")
        self.run(tmp_path, self.SETFN, "approx")
        assert len(builds) == 1

    def test_set_function_influence_takes_no_mobius(self, tmp_path, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, lovasz, "mobius")
        norms = _count_calls(monkeypatch, lovasz, "norm_sq_lovasz")
        self.run(tmp_path, self.SETFN, "influence", "--all")
        assert not calls and not norms

    def test_lovasz_diagnostics_take_one_mobius(self, tmp_path, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, lovasz, "mobius")
        self.run(tmp_path, self.SETFN, "lovasz", "--mobius", "--symmetric-part",
                 "--diagnose-equal-influence")
        assert len(calls) == 1
        # without --mobius the diagnostics read only the level averages
        self.run(tmp_path, self.SETFN, "lovasz", "--symmetric-part",
                 "--diagnose-equal-influence")
        assert len(calls) == 1

    def test_plain_influence_takes_one_product_form_per_shape(
            self, tmp_path, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, exact, "_product_form")
        self.run(tmp_path, self.PLAIN, "influence", "--all")
        assert len(calls) == 2  # shapes (1,) and (2, 1)
        assert not hasattr(exact, "symmetrize")

    def test_variance_moments_take_no_product_form_or_pair_sum(
            self, monkeypatch):
        # the indices, the mean and <f, f> of the builtin are closed forms
        calls = [_count_calls(monkeypatch, exact, name)
                 for name in ("_product_form", "plain_norm_sq")]
        for n in (3, 12, 1000):
            resolve_builtin("variance", n).moments()
        assert not any(calls) and not hasattr(exact, "symmetrize")

    def test_orderstat_approx_takes_no_polynomial_product(self, tmp_path, capsys):
        # the indices, the mean and <f, f> are integer sums over the terms,
        # and an OrderStatPolynomial has no arithmetic to form a product with
        for name in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__"):
            assert not hasattr(exact.OrderStatPolynomial, name), name
        self.run(tmp_path, self.ORDERSTAT, "approx")
        self.run(tmp_path, self.ORDERSTAT, "influence", "--all")

    def test_multiplicative_builds_one_recurrence(self, monkeypatch):
        calls = _count_calls(monkeypatch, exact, "product_indices")
        quads = []
        original = closedforms.integrate.quad_vec
        monkeypatch.setattr(closedforms.integrate, "quad_vec",
                            lambda *a, **kw: quads.append(1) or original(*a, **kw))
        symbolic = MultiplicativeSpec(6, tuple(UnaryFactor.power(Fraction(c, 3))
                                               for c in (1, 2, 4, 5, 0, 3)))
        symbolic.moments()
        assert len(calls) == 1 and not quads
        cube_root = UnaryFactor.from_callable(
            lambda t: t ** (1 / 3), antiderivative=lambda y: 0.75 * y ** (4 / 3))
        MultiplicativeSpec.symmetric(cube_root, 6).moments()
        assert len(calls) == 1 and len(quads) == 1
