"""The moments path: each engine's Moments and the one assembler."""

import json
import math
import sys
from fractions import Fraction

import pytest

from ordinfluence import (
    OrderStatPolynomialSpec,
    PlainPolynomialSpec,
    SetFunctionSpec,
    approximation_exact,
    best_approximation,
    cli,
    exact,
    function_moments,
    function_sigma,
    influence_profile,
    inner_product_exact,
    lovasz,
    normalized_index,
    profile_exact,
    tensor_quadrature,
)
from ordinfluence.exact import plain_integral, plain_norm_sq
from ordinfluence.montecarlo import Evaluator
from ordinfluence.projection import approximation_from_moments

from conftest import (
    random_orderstat_polynomial,
    random_plain_terms,
    random_set_function,
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
        assert function_sigma(X1, "exact") == pytest.approx(math.sqrt(1 / 12))

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


class TestAssemblerAgainstOracles:
    def test_orderstat_fit_matches_gram_solve(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            poly = random_orderstat_polynomial(rng, n)
            spec = OrderStatPolynomialSpec(poly)
            moments = spec.moments()
            assert moments.indices == profile_exact(poly).indices
            assert moments.norm_sq == inner_product_exact(poly, poly)
            if moments.norm_sq == moments.mean ** 2:
                continue
            want = approximation_exact(poly)
            got = best_approximation(spec, "exact")
            assert got.coefficients == want.coefficients
            assert got.r_squared == want.r_squared
            assert got.residual_norm_sq == want.residual_norm_sq
            assert got.normalized_index(1) == normalized_index(spec, 1, "exact")

    def test_profile_tail_is_mean_preserving(self, rng):
        for _ in range(10):
            v = random_set_function(rng, rng.randint(1, 4), zero_grounded=False)
            profile = influence_profile(SetFunctionSpec(v), "exact")
            assert profile.mean_preservation_gap() == 0
            assert profile.formal_tail == v.values[0]


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


class TestEachPrimaryOnce:
    SETFN = {"kind": "set-function", "arity": 4,
             "values": [str(Fraction(i * 7 % 11, 5)) for i in range(16)]}
    PLAIN = {"kind": "plain-polynomial", "arity": 4, "constant": "1/3",
             "terms": [{"coefficient": "3/2", "exponents": {"2": 1}},
                       {"coefficient": "-1", "exponents": {"3": 2, "1": 1}}]}

    def run(self, tmp_path, doc, *argv):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.main([argv[0], str(path), *argv[1:], "--format", "json"]) == 0

    def test_set_function_approx_takes_one_norm(self, tmp_path, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, lovasz, "norm_sq_lovasz")
        self.run(tmp_path, self.SETFN, "approx")
        assert len(calls) == 1

    def test_set_function_influence_takes_one_mobius(self, tmp_path, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, lovasz, "mobius")
        norms = _count_calls(monkeypatch, lovasz, "norm_sq_lovasz")
        self.run(tmp_path, self.SETFN, "influence", "--all")
        assert len(calls) == 1 and not norms

    def test_plain_influence_symmetrizes_once(self, tmp_path, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, exact, "symmetrize")
        self.run(tmp_path, self.PLAIN, "influence", "--all")
        assert len(calls) == 1
