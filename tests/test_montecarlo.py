"""Monte-Carlo estimator tests: reproducibility, agreement with exact values,
and the estimator-equivalence cross-checks.

Statistical assertions use the 3-standard-error rule with frozen seeds, so
the suite is deterministic.
"""

import json

import numpy as np
import pytest

from ordinfluence import (
    ConfigurationError,
    DomainError,
    Evaluator,
    TaintedSampleError,
    cli,
    influence_exact,
    influence_mc_covariance,
    influence_mc_derivative,
    influence_mc_diffquotient,
    mc_inner_product,
    tensor_quadrature,
)
from ordinfluence.funcspec import OrderStatPolynomialSpec, PowerProductSpec
from ordinfluence.montecarlo import (
    BATCH,
    NETWORK_MAX_ARITY,
    _draw_untied,
    _rng,
    _shift_rank,
    derive_seed,
    g_kernel_values,
    h_density_values,
    mc_profile_moments,
    sorted_columns,
)
from ordinfluence.projection import (
    approximation_from_moments,
    profile_from_moments,
)

from conftest import (
    poly_evaluator,
    random_orderstat_polynomial,
    reference_covariance,
    reference_derivative,
    reference_diffquotient,
    reference_neighbours,
    reference_profile_moments,
    reference_shift,
)

# Both sides of the sorted_columns crossover, and the arities of the
# reference-equality tests
ARITIES = sorted({1, 2, 3, 8, NETWORK_MAX_ARITY, NETWORK_MAX_ARITY + 1})


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


def weighted_squares_evaluator(n):
    """sum_i i x_i^2 with its derivative along the k-th smallest coordinate,
    which reads the column index from a stable argsort."""
    weights = np.arange(1.0, n + 1.0)

    def derivative(x, k):
        col = np.argsort(x, axis=1, kind="stable")[:, k - 1]
        return 2.0 * weights[col] * x[np.arange(len(x)), col]
    return Evaluator(n, lambda x: (x * x) @ weights, derivative,
                     name="weighted squares")


class TestSortedColumns:
    @pytest.mark.parametrize("n", range(1, NETWORK_MAX_ARITY + 3))
    def test_equals_row_sort(self, n):
        # random rows over more than one tile, rows with many ties and signed
        # zeros, and a single row
        gen = np.random.default_rng(n)
        ties = gen.integers(-1, 2, (500, n)) * 0.5
        ties[gen.random((500, n)) < 0.2] = -0.0
        for x in (gen.random((BATCH + 3, n)), ties, gen.random((1, n))):
            got = sorted_columns(x)
            assert got.shape == (n, len(x))
            assert np.array_equal(got, np.sort(x, axis=1).T)
            assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("n", range(1, NETWORK_MAX_ARITY + 1))
    def test_zero_one_principle(self, n):
        # a comparator network that sorts every 0-1 row sorts every row
        codes = np.arange(1 << n)[:, None]
        x = ((codes >> np.arange(n)) & 1).astype(float)
        got = sorted_columns(x)
        assert np.all(np.diff(got, axis=0) >= 0)
        assert np.array_equal(got.sum(axis=0), x.sum(axis=1))

    @pytest.mark.parametrize("n", [3, NETWORK_MAX_ARITY + 1])
    def test_evaluators_match_row_sort(self, n, rng):
        x = np.random.default_rng(n).random((5000, n))
        poly = random_orderstat_polynomial(rng, n)
        assert np.array_equal(OrderStatPolynomialSpec(poly).evaluator()(x),
                              poly_evaluator(poly)(x))
        ev = PowerProductSpec(n, "2/3").evaluator()
        for k in (1, n):
            col = np.argsort(x, axis=1, kind="stable")[:, k - 1]
            expected = 2.0 / 3.0 * ev(x) / x[np.arange(len(x)), col]
            assert np.array_equal(ev.derivative(x, k), expected)


class TestSortedReferences:
    """Every estimator equals its one-sort-per-use reference under ==."""

    @pytest.mark.parametrize("samples", [5000, 16384, 16385])
    @pytest.mark.parametrize("n", ARITIES)
    def test_profile_moments(self, n, samples):
        ev = weighted_squares_evaluator(n)
        for indices, second_moments in ((True, True), (True, False),
                                        (False, True)):
            assert (mc_profile_moments(ev, samples, 3, indices, second_moments)
                    == reference_profile_moments(ev, samples, 3, indices,
                                                 second_moments))

    @pytest.mark.parametrize("samples", [5000, 16384, 16385])
    @pytest.mark.parametrize("n", ARITIES)
    def test_estimators(self, n, samples):
        ev = weighted_squares_evaluator(n)
        for k in sorted({1, (n + 1) // 2, n}):
            assert (influence_mc_covariance(ev, k, samples, 5)
                    == reference_covariance(ev, k, samples, 5))
            assert (influence_mc_derivative(ev, k, samples, 6)
                    == reference_derivative(ev, k, samples, 6))
            for variant in ("uniform-y", "triangular-y"):
                assert (influence_mc_diffquotient(ev, k, samples, 7, variant)
                        == reference_diffquotient(ev, k, samples, 7, variant))

    @pytest.mark.parametrize("n", ARITIES)
    def test_shift_moves_the_argsort_column(self, n):
        # half the rows on a grid of three levels, so that rank k ties with
        # its neighbours below and above (zero gaps); the other half untied
        gen = np.random.default_rng(n)
        x = np.floor(gen.random((600, n)) * 3) / 3
        x[::2] = gen.random((300, n))
        u = gen.random(600)
        tied_below = zero_gap = 0
        for k in range(1, n + 1):
            xs = sorted_columns(x)
            mid = xs[k - 1]
            gap = (xs[k] if k < n else np.ones(len(x))) - mid
            h = gap * u
            assert np.array_equal(_shift_rank(x, mid, gap, mid + h),
                                  reference_shift(x, k, h))
            zero_gap += int(np.sum(gap == 0.0))
            if k >= 2:
                tied_below += int(np.sum((gap > 0.0) & (xs[k - 2] == mid)))
        assert n == 1 or (zero_gap and tied_below)

    @pytest.mark.parametrize("doc, estimators", [
        ({"kind": "power-product", "arity": 4, "exponent": "2/3"},
         "covariance,derivative,diff-quotient-uniform,diff-quotient-triangular"),
        ({"kind": "builtin", "name": "conjunctive-example-6.1", "arity": 2},
         "covariance,diff-quotient-uniform,diff-quotient-triangular"),
    ], ids=["power-product-n4", "conjunctive-example-6.1"])
    def test_crosscheck_json_equals_argsort_oracle(self, doc, estimators,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        outputs = []
        for oracle in (False, True):
            if oracle:
                monkeypatch.setattr(cli, "influence_mc_diffquotient",
                                    reference_diffquotient)
            for k in range(1, doc["arity"] + 1):
                cli.main(["crosscheck", str(path), "-k", str(k), "--samples",
                          "20000", "--seed", "5", "--estimators", estimators,
                          "--format", "json"])
                outputs.append(capsys.readouterr().out)
        half = len(outputs) // 2
        assert outputs[:half] == outputs[half:]

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_draw_untied_resamples_ties(self, k):
        # the first draw ties at rank k in a third of the rows; no tied row
        # survives, and the neighbours returned are those of the final x
        n, m = 4, 300
        first = np.random.default_rng(k).random((m, n))
        tied_rows = np.arange(0, m, 3)
        xs = np.sort(first[tied_rows], axis=1)
        xs[:, k - 1] = xs[:, k] if k < n else xs[:, k - 2]
        first[tied_rows] = xs
        fresh = np.random.default_rng(100 + k)

        class Scripted:
            def __init__(self):
                self.calls = 0

            def random(self, shape):
                self.calls += 1
                return first.copy() if self.calls == 1 else fresh.random(shape)

        scripted = Scripted()
        x, neighbours = _draw_untied(scripted, m, n, k)
        assert scripted.calls >= 2
        down, mid, up = reference_neighbours(x, k)
        assert not np.any((mid == up) | ((mid == down) & (k >= 2)))
        for got, expected in zip(neighbours, (down, mid, up)):
            assert np.array_equal(got, expected)
        changed = np.any(x != first, axis=1)
        assert np.array_equal(np.flatnonzero(changed), tied_rows)


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
        for m in (2, 100, BATCH - 1, BATCH + 1,
                  (1 << 16) - 1, (1 << 16) + 1):
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
        assert abs(moments.mean - 0.25) <= 3 * moments.mean_std_error
        assert abs(moments.norm_sq - 1 / 9) <= 3 * moments.norm_sq_std_error
        # tail: a_3 = 9<f,1> - 12<f, os_2>; <x1 x2 max> = 2/5 via moment formula
        exact_tail = 9 * 0.25 - 12 * (1 / 5)
        profile = profile_from_moments(moments)
        assert abs(profile.formal_tail - exact_tail) <= \
            3 * profile.tail_std_error

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
        samples = BATCH + 3
        est = mc_profile_moments(ev, samples, 8)
        x = _rng(derive_seed(8, 0)).random((samples, 3))
        v = ev(x)
        for k, got in enumerate(est.indices, start=1):
            assert got == pytest.approx(
                np.mean(v * g_kernel_values(x, k)), rel=1e-12, abs=1e-12)
        assert est.mean == pytest.approx(np.mean(v), rel=1e-12)
        assert est.norm_sq == pytest.approx(np.mean(v * v), rel=1e-12)
        # (n+1)^2 f - (n+1)(n+2) f x_(n) at n = 3
        tail = 16 * v - 20 * v * x.max(axis=1)
        profile = profile_from_moments(est)
        assert profile.formal_tail == pytest.approx(np.mean(tail), rel=1e-12)
        assert profile.tail_std_error == pytest.approx(
            np.std(tail, ddof=1) / np.sqrt(samples), rel=1e-9)
        assert est.covariance[0][1] == pytest.approx(
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
            fit = approximation_from_moments(mc_profile_moments(ev, 4000, seed))
            tails.append(fit.intercept)
            tail_ses.append(fit.coefficient_std_errors[-1])
            r2s.append(fit.r_squared)
            r2_ses.append(fit.r_squared_std_error)
        for values, ses in ((tails, tail_ses), (r2s, r2_ses)):
            spread = np.std(values, ddof=1)
            assert np.mean(ses) == pytest.approx(spread, rel=0.25)

    def test_view_returning_evaluator(self):
        # f returns a view of the draw buffer: the pass must sort a copy, so
        # that v still reads the unsorted first coordinate
        ev = Evaluator(3, lambda x: x[:, 0])
        samples = BATCH + 3
        est = mc_profile_moments(ev, samples, 12)
        x = _rng(derive_seed(12, 0)).random((samples, 3))
        v = x[:, 0]
        for k, got in enumerate(est.indices, start=1):
            assert got == pytest.approx(
                np.mean(v * g_kernel_values(x, k)), rel=1e-12, abs=1e-12)
        assert est.mean == pytest.approx(np.mean(v), rel=1e-12)
        assert est.norm_sq == pytest.approx(np.mean(v * v), rel=1e-12)

    @pytest.mark.parametrize("indices, second_moments",
                             [(False, True), (True, False)])
    def test_partial_moments(self, indices, second_moments):
        n, samples = 3, BATCH + 3
        ev = Evaluator(n, lambda x: x[:, 0] * np.exp(x[:, 1]) - x[:, 2])
        est = mc_profile_moments(ev, samples, 8, indices, second_moments)
        x = _rng(derive_seed(8, 0)).random((samples, n))
        v = ev(x)
        if indices:
            columns = [v * g_kernel_values(x, k) for k in range(1, n + 1)]
            assert est.mean is None and est.norm_sq is None
            values = est.indices
            ses = est.index_std_errors
        else:
            columns = [v, v * v]
            assert est.indices is None
            values = (est.mean, est.norm_sq)
            ses = (est.mean_std_error, est.norm_sq_std_error)
        covariance = np.cov(np.array(columns)) / samples
        assert np.shape(est.covariance) == covariance.shape
        assert np.allclose(est.covariance, covariance, rtol=1e-9, atol=0.0)
        for got, column in zip(values, columns):
            assert got == pytest.approx(np.mean(column), rel=1e-12, abs=1e-12)
        assert np.allclose(ses, np.sqrt(np.diag(covariance)), rtol=1e-9)

    @pytest.mark.parametrize("batch", [0, 1])
    def test_overflow_on_squaring_names_unsorted_row(self, batch):
        # 1e200 is finite but its square is not: the error carries the row
        # as drawn, whether the first batch (whose mean sets the shift) or a
        # later one holds it
        calls = []

        def func(x):
            v = x.sum(axis=1)
            if len(calls) == batch:
                v[5] = 1e200
            calls.append(len(x))
            return v
        samples = 2 * BATCH
        with pytest.raises(TaintedSampleError) as err:
            mc_profile_moments(Evaluator(3, func), samples, 4)
        row = _rng(derive_seed(4, 0)).random((samples, 3))[batch * BATCH + 5]
        assert not np.all(np.diff(row) >= 0)
        assert np.array_equal(err.value.point, row)


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
