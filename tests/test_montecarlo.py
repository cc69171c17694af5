"""Monte-Carlo estimator tests: reproducibility, agreement with exact values,
and the estimator-equivalence cross-checks.

Statistical assertions use the 3-standard-error rule with frozen seeds, so
the suite is deterministic.
"""

import numpy as np
import pytest

from ordinfluence import (
    ConfigurationError,
    DomainError,
    Evaluator,
    TaintedSampleError,
    influence_exact,
    influence_mc_covariance,
    influence_mc_derivative,
    influence_mc_diffquotient,
    mc_inner_product,
    tensor_quadrature,
)
from ordinfluence.montecarlo import (
    PASS_BATCH,
    _rng,
    g_kernel_values,
    h_density_values,
    mc_moments,
    mc_profile_moments,
)
from ordinfluence.projection import approximation_from_moments

from conftest import poly_evaluator


def product_evaluator():
    return Evaluator(2, lambda x: x[:, 0] * x[:, 1], name="prod")


def single_coordinate_evaluator(n):
    def derivative(x, k):
        order = np.argsort(x, axis=1, kind="stable")
        return (order[:, k - 1] == 0).astype(float)
    return Evaluator(n, lambda x: x[:, 0], derivative, name="x1")


class TestKernelsOnSamples:
    def test_g_kernel_matches_definition(self):
        x = np.array([[0.1, 0.6, 0.4], [0.9, 0.2, 0.5]])
        # n=3: g_2 = -20 (x_(3) - 2 x_(2) + x_(1))
        got = g_kernel_values(x, 2)
        assert got[0] == pytest.approx(-20 * (0.6 - 0.8 + 0.1))
        assert got[1] == pytest.approx(-20 * (0.9 - 1.0 + 0.2))

    def test_boundary_ranks_use_conventions(self):
        x = np.array([[0.3, 0.7]])
        # n=2, k=2: os_3 = 1
        assert g_kernel_values(x, 2)[0] == pytest.approx(-12 * (1 - 1.4 + 0.3))
        assert h_density_values(x, 1)[0] == pytest.approx(12 * 0.4 * 0.3)


class TestReproducibility:
    def test_identical_runs(self):
        ev = product_evaluator()
        a = influence_mc_covariance(ev, 1, 30000, 123)
        b = influence_mc_covariance(ev, 1, 30000, 123)
        assert a == b

    def test_seed_sensitivity_and_independence(self):
        ev = product_evaluator()
        a = influence_mc_covariance(ev, 1, 30000, 1)
        b = influence_mc_covariance(ev, 1, 30000, 2)
        assert a.value != b.value
        assert a.z_score(b) <= 3.0

    def test_batch_boundary_consistency(self):
        # sample counts straddling the internal batch size stay finite/sane
        ev = product_evaluator()
        for m in (2, 100, (1 << 16) - 1, (1 << 16) + 1):
            est = influence_mc_covariance(ev, 1, m, 5)
            assert np.isfinite(est.value) and est.samples == m


class TestEstimatorsAgainstExact:
    exact_values = {1: 0.8, 2: 0.2}  # I(x_(1) x_(2), k) at n=2

    @pytest.mark.parametrize("k", [1, 2])
    def test_covariance(self, k):
        est = influence_mc_covariance(product_evaluator(), k, 120_000, 2024)
        assert abs(est.value - self.exact_values[k]) <= 3 * est.std_error

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("variant", ["uniform-y", "triangular-y"])
    def test_diffquotient(self, k, variant):
        est = influence_mc_diffquotient(product_evaluator(), k, 120_000,
                                        2025, variant)
        assert abs(est.value - self.exact_values[k]) <= 3 * est.std_error

    def test_derivative_single_coordinate(self):
        # f = x_1: I(f,k) = 1/n for every k
        for n in (2, 3):
            ev = single_coordinate_evaluator(n)
            for k in range(1, n + 1):
                est = influence_mc_derivative(ev, k, 80_000, 31 + k)
                assert abs(est.value - 1.0 / n) <= 3 * est.std_error

    def test_derivative_requires_map(self):
        with pytest.raises(ConfigurationError):
            influence_mc_derivative(product_evaluator(), 1, 100, 0)

    def test_random_polynomial_cross_check(self, rng):
        for _ in range(5):
            from conftest import random_orderstat_polynomial
            n = rng.randint(2, 3)
            f = random_orderstat_polynomial(rng, n)
            ev = poly_evaluator(f)
            k = rng.randint(1, n)
            exact = float(influence_exact(f, k))
            for est in (influence_mc_covariance(ev, k, 60_000, 77),
                        influence_mc_diffquotient(ev, k, 60_000, 78)):
                assert abs(est.value - exact) <= 3 * est.std_error


class TestIneffectiveVariable:
    def test_zero_index(self):
        # f(x1, x2) = f1(x1) if x1 > x2 else f2(x2): the smallest coordinate
        # never enters, so I(f, 1) = 0
        def func(x):
            return np.where(x[:, 0] > x[:, 1],
                            np.sin(3.0 * x[:, 0]),
                            x[:, 1] ** 2)
        ev = Evaluator(2, func, name="ineffective-min")
        for seed, variant in ((9, "uniform-y"), (10, "triangular-y")):
            est = influence_mc_diffquotient(ev, 1, 120_000, seed, variant)
            assert abs(est.value) <= 3 * est.std_error
        est = influence_mc_covariance(ev, 1, 120_000, 11)
        assert abs(est.value) <= 3 * est.std_error


class TestMomentsAndInnerProducts:
    def test_profile_moments(self):
        ev = product_evaluator()
        moments = mc_profile_moments(ev, 150_000, 404)
        assert abs(moments["mean"].value - 0.25) <= 3 * moments["mean"].std_error
        assert abs(moments["norm_sq"].value - 1 / 9) <= \
            3 * moments["norm_sq"].std_error
        # tail: a_3 = 9<f,1> - 12<f, os_2>; <x1 x2 max> = 2/5 via moment formula
        exact_tail = 9 * 0.25 - 12 * (1 / 5)
        assert abs(moments["tail"].value - exact_tail) <= \
            3 * moments["tail"].std_error

    def test_inner_product(self):
        f = product_evaluator()
        g = Evaluator(2, lambda x: x[:, 0] + x[:, 1], name="sum")
        est = mc_inner_product(f, g, 100_000, 3)
        # <x1 x2, x1 + x2> = 2 * (1/3 * 1/2) = 1/3
        assert abs(est.value - 1 / 3) <= 3 * est.std_error

    def test_tainted_sample(self):
        bad = Evaluator(2, lambda x: np.where(x[:, 0] > 0.5, np.nan, 1.0))
        with pytest.raises(TaintedSampleError) as err:
            mc_profile_moments(bad, 1000, 0)
        assert err.value.point is not None


class TestOnePass:
    def test_matches_unbatched_reference(self):
        # the pass reads the stream row by row whatever its batch size, and
        # its kernels equal the reference g_k on the same rows
        ev = Evaluator(3, lambda x: x[:, 0] * np.exp(x[:, 1]) - x[:, 2])
        samples = PASS_BATCH + 3
        est = mc_profile_moments(ev, samples, 8)
        x = _rng(8).random((samples, 3))
        v = ev(x)
        for k, got in enumerate(est["indices"], start=1):
            assert got.value == pytest.approx(
                np.mean(v * g_kernel_values(x, k)), rel=1e-12, abs=1e-12)
        assert est["mean"].value == pytest.approx(np.mean(v), rel=1e-12)
        assert est["norm_sq"].value == pytest.approx(np.mean(v * v), rel=1e-12)
        # (n+1)^2 f - (n+1)(n+2) f x_(n) at n = 3
        tail = 16 * v - 20 * v * x.max(axis=1)
        assert est["tail"].value == pytest.approx(np.mean(tail), rel=1e-12)
        assert est["tail"].std_error == pytest.approx(
            np.std(tail, ddof=1) / np.sqrt(samples), rel=1e-9)
        assert est["covariance"][0, 1] == pytest.approx(
            np.cov(v * g_kernel_values(x, 1), v * g_kernel_values(x, 2))[0, 1]
            / samples, rel=1e-9)

    @pytest.mark.parametrize("ev", [
        Evaluator(3, lambda x: x.prod(axis=1), name="x1 x2 x3"),
        Evaluator(8, lambda x: x.mean(axis=1), name="mean of 8"),
    ], ids=lambda ev: ev.name)
    def test_joint_std_errors_match_replicate_spread(self, ev):
        # estimates from one sample are correlated: the reported tail and
        # R^2 standard errors must match the spread over independent seeds
        tails, tail_ses, r2s, r2_ses = [], [], [], []
        for seed in range(300):
            fit = approximation_from_moments(mc_moments(ev, 4000, seed))
            tails.append(fit.intercept)
            tail_ses.append(fit.coefficient_std_errors[-1])
            r2s.append(fit.r_squared)
            r2_ses.append(fit.r_squared_std_error)
        for values, ses in ((tails, tail_ses), (r2s, r2_ses)):
            spread = np.std(values, ddof=1)
            assert np.mean(ses) == pytest.approx(spread, rel=0.25)


class TestTensorQuadrature:
    def test_polynomial_exact(self):
        ev = product_evaluator()
        assert tensor_quadrature(ev, 8) == pytest.approx(0.25, abs=1e-13)

    def test_arity_cap(self):
        ev = Evaluator(5, lambda x: x.sum(axis=1))
        with pytest.raises(ConfigurationError):
            tensor_quadrature(ev, 4)


class TestValidation:
    def test_rank_bounds(self):
        with pytest.raises(DomainError):
            influence_mc_covariance(product_evaluator(), 3, 100, 0)

    def test_minimum_samples(self):
        with pytest.raises(DomainError):
            influence_mc_covariance(product_evaluator(), 1, 1, 0)

    def test_bad_variant(self):
        with pytest.raises(DomainError):
            influence_mc_diffquotient(product_evaluator(), 1, 100, 0, "beta-y")
