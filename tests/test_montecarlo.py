"""Monte-Carlo estimator tests: reproducibility, agreement with exact values,
and the estimator-equivalence cross-checks.

Statistical assertions use the 3-standard-error rule with frozen seeds, so
the suite is deterministic.
"""

import io
import json
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from ordinfluence import (
    ConfigurationError,
    DomainError,
    Evaluator,
    TaintedSampleError,
    cli,
    influence_mc_covariance,
    influence_mc_derivative,
    influence_mc_diffquotient,
)
from ordinfluence import montecarlo
from ordinfluence.funcspec import OrderStatPolynomialSpec, PowerProductSpec, \
    SetFunctionSpec
from ordinfluence.lovasz import lovasz_eval_batch, lovasz_slope_batch
from ordinfluence.montecarlo import (
    BATCH,
    NETWORK_MAX_ARITY,
    _Accumulator,
    _current_cpu,
    _drawn_ahead,
    _g_kernel,
    _h_density,
    _neighbours,
    _rng,
    _shift_columns,
    _shift_rank,
    _sort_into,
    derive_seed,
    mc_profile_moments,
    sorted_columns,
)
from ordinfluence.projection import _joint_std_error, approximation_from_moments

import conftest
from conftest import (
    poly_evaluator,
    random_orderstat_polynomial,
    random_set_function,
    reference_covariance,
    reference_derivative,
    reference_diffquotient,
    reference_g_kernel,
    reference_profile_moments,
    reference_shift,
)
from reference import (
    influence_exact,
    joint_std_error,
    mc_inner_product,
    tensor_quadrature,
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


def kernels(x, k):
    """(g_k, h_k) at the rows of x, as the estimators compute them."""
    n, neighbours = x.shape[1], _neighbours(sorted_columns(x), k)
    return _g_kernel(n, *neighbours), _h_density(n, *neighbours)


class TestKernelsOnSamples:
    def test_g_kernel_matches_definition(self):
        x = np.array([[0.1, 0.6, 0.4], [0.9, 0.2, 0.5]])
        # n=3: g_2 = -20 (x_(3) - 2 x_(2) + x_(1))
        got, _ = kernels(x, 2)
        assert got[0] == pytest.approx(-20 * (0.6 - 0.8 + 0.1))
        assert got[1] == pytest.approx(-20 * (0.9 - 1.0 + 0.2))

    def test_boundary_ranks_use_conventions(self):
        x = np.array([[0.3, 0.7]])
        # n=2, k=2: os_3 = 1
        g, _ = kernels(x, 2)
        _, h = kernels(x, 1)
        assert g[0] == pytest.approx(-12 * (1 - 1.4 + 0.3))
        assert h[0] == pytest.approx(12 * 0.4 * 0.3)


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

    @pytest.mark.parametrize("n", [6, NETWORK_MAX_ARITY + 2])
    def test_sort_into_fills_the_callers_block(self, n):
        # above the crossover too, np.sort's result is copied into the block
        x = np.random.default_rng(n).random((BATCH + 3, n))
        out = np.empty((n + 1, len(x)))
        got = _sort_into(x, out)
        assert np.shares_memory(got, out)
        assert np.array_equal(out[:n], np.sort(x, axis=1).T)

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
            assert np.array_equal(ev.slope(x, k), expected)
        v = random_set_function(rng, n)
        values, row_sort = v.floats(), np.sort(x, axis=1).T
        ev = SetFunctionSpec(v).evaluator()
        assert np.array_equal(ev(x), lovasz_eval_batch(values, x, row_sort))
        for k in (1, n):
            assert np.array_equal(ev.slope(x, k),
                                  lovasz_slope_batch(values, x, k, row_sort))
        # called without a block, an evaluator sorts as an estimator would
        for ev in (OrderStatPolynomialSpec(poly).evaluator(), ev,
                   PowerProductSpec(n, "2/3").evaluator()):
            assert ev.takes_sorted
            assert np.array_equal(ev(x), ev(x, sorted_columns(x)))
            for k in (1, n):
                if ev.derivative is not None:
                    assert np.array_equal(ev.slope(x, k),
                                          ev.slope(x, k, sorted_columns(x)))


class TestSortedReferences:
    """Every estimator equals its one-sort-per-use reference under ==."""

    @pytest.mark.parametrize("samples", [5000, 16384, 16385, 3 * BATCH + 5])
    @pytest.mark.parametrize("n", ARITIES)
    def test_profile_moments(self, n, samples):
        ev = weighted_squares_evaluator(n)
        for norm_sq in (True, False):
            got = mc_profile_moments(ev, samples, 3, norm_sq)
            want = reference_profile_moments(ev, samples, 3, norm_sq)
            assert got == want
            assert np.array_equal(got.covariance, want.covariance)

    @pytest.mark.parametrize("samples", [5000, 16384, 16385, 3 * BATCH + 5])
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
    def test_inline_equals_threaded(self, n, monkeypatch):
        # one CPU draws inline, two on the helper thread: the same stream
        ev = weighted_squares_evaluator(n)
        samples, k = 3 * BATCH + 5, (n + 1) // 2
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
            runs.append((mc_profile_moments(ev, samples, 3),
                         influence_mc_covariance(ev, k, samples, 5),
                         influence_mc_derivative(ev, k, samples, 6),
                         influence_mc_diffquotient(ev, k, samples, 7),
                         mc_inner_product(ev, ev, samples, 8)))
        assert runs[0] == runs[1]
        assert np.array_equal(runs[0][0].covariance, runs[1][0].covariance)

    @pytest.mark.parametrize("n", ARITIES)
    def test_shift_moves_the_argsort_column(self, n):
        # half the rows on a grid of three levels, so that rank k ties with
        # its neighbours below and above (zero gaps); the other half untied.
        # The shifted points' sorted columns are the batch's with row k-1
        # moved, also where the move reaches x_(k+1)
        gen = np.random.default_rng(n)
        x = np.floor(gen.random((600, n)) * 3) / 3
        x[::2] = gen.random((300, n))
        u = gen.random(600)
        reach = gen.random(600) < 0.25
        out = np.empty((n, len(x)))
        tied_below = zero_gap = reached = 0
        for k in range(1, n + 1):
            xs = sorted_columns(x)
            mid = xs[k - 1]
            up = xs[k] if k < n else np.ones(len(x))
            gap = up - mid
            h = gap * u
            assert np.array_equal(_shift_rank(x, mid, gap, mid + h),
                                  reference_shift(x, k, h))
            moved = np.where(reach, up, mid + h)
            assert np.array_equal(
                _shift_columns(xs, k, gap, moved, out),
                sorted_columns(_shift_rank(x, mid, gap, moved)))
            zero_gap += int(np.sum(gap == 0.0))
            reached += int(np.sum(reach & (gap > 0.0)))
            if k >= 2:
                tied_below += int(np.sum((gap > 0.0) & (xs[k - 2] == mid)))
        assert n == 1 or (zero_gap and tied_below)
        assert reached

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
                monkeypatch.setattr(montecarlo, "influence_mc_diffquotient",
                                    reference_diffquotient)
            for k in range(1, doc["arity"] + 1):
                cli.main(["crosscheck", str(path), "-k", str(k), "--samples",
                          "20000", "--seed", "5", "--estimators", estimators,
                          "--format", "json"])
                outputs.append(capsys.readouterr().out)
        half = len(outputs) // 2
        assert outputs[:half] == outputs[half:]


def black_box(ev):
    """``ev`` behind the plain (m, n) contract: its maps sort for
    themselves."""
    derivative = ev.derivative and (lambda x, k: ev.slope(x, k))
    return Evaluator(ev.arity, lambda x: ev(x), derivative, name=ev.name)


class TestSortedBlock:
    """Maps that read order statistics take the block an estimator sorted
    the batch into, and give what they give when they sort for
    themselves."""

    @pytest.mark.parametrize("n", [6, 14])
    @pytest.mark.parametrize("kind", ["orderstat", "set-function",
                                      "power-product"])
    def test_pass_never_sorts_again(self, kind, n, rng, monkeypatch):
        assert 6 <= NETWORK_MAX_ARITY < 14
        spec = {"orderstat": lambda: OrderStatPolynomialSpec(
                    random_orderstat_polynomial(rng, n)),
                "set-function": lambda: SetFunctionSpec(
                    random_set_function(rng, n)),
                "power-product": lambda: PowerProductSpec(n, "2/3")}[kind]()
        samples, ranks = BATCH + 5, (1, n // 2, n)

        def runs(ev):
            out = [mc_profile_moments(ev, samples, 3)]
            for k in ranks:
                out.append(influence_mc_covariance(ev, k, samples, 5))
                if ev.derivative is not None:
                    out.append(influence_mc_derivative(ev, k, samples, 6))
                for variant in ("uniform-y", "triangular-y"):
                    out.append(influence_mc_diffquotient(ev, k, samples, 7,
                                                         variant))
            return out

        want = runs(black_box(spec.evaluator()))

        def resort(x):
            raise AssertionError("a batch was sorted again")

        monkeypatch.setattr(montecarlo, "sorted_columns", resort)
        got = runs(spec.evaluator())
        assert got == want
        assert np.array_equal(got[0].covariance, want[0].covariance)

    @pytest.mark.parametrize("n", [6, NETWORK_MAX_ARITY + 2])
    def test_pass_hands_f_its_moment_block(self, n):
        # above the crossover too, the pass copies np.sort's result into its
        # moment block before f runs, so every batch's f gets the one block
        received = []

        def func(x, xs):
            received.append(xs)
            return x.sum(axis=1)

        mc_profile_moments(Evaluator(n, func, takes_sorted=True),
                           2 * BATCH + 5, 3)
        assert [xs.shape for xs in received] == [(n, BATCH)] * 2 + [(n, 5)]
        assert all(np.shares_memory(xs, received[0]) for xs in received)


class TiedStream:
    """Philox draws in which rank k of every third row of a block takes the
    value of its sorted neighbour above (below at k = n), so it ties."""

    def __init__(self, seed, k):
        self.gen, self.k = _rng(seed), k

    def random(self, size=None, out=None):
        x = self.gen.random(size, out=out)
        if x.ndim == 2:
            rows = np.arange(0, len(x), 3)
            order = np.argsort(x[rows], axis=1)
            n, k = x.shape[1], self.k
            neighbour = order[:, k] if k < n else order[:, k - 2]
            x[rows, order[:, k - 1]] = x[rows, neighbour]
        return x


class TestTiedPoints:
    """A point whose rank k ties a neighbour has h_k = 0 and weighs zero in
    the derivative estimator, whatever the derivative map returns there."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_tied_rows_contribute_zero(self, k, monkeypatch):
        n, samples = 4, 2 * BATCH + 5
        ev = weighted_squares_evaluator(n)
        stream = lambda seed: TiedStream(seed, k)
        monkeypatch.setattr(montecarlo, "_rng", stream)
        monkeypatch.setattr(conftest, "_rng", stream)
        blocks = []

        class Recording(_Accumulator):
            def add(self, block, points):
                blocks.append(block.copy())
                super().add(block, points)

        monkeypatch.setattr(montecarlo, "_Accumulator", Recording)
        assert (influence_mc_derivative(ev, k, samples, 6)
                == reference_derivative(ev, k, samples, 6))
        assert [len(block) for block in blocks] == [BATCH, BATCH, 5]
        for block in blocks:
            assert np.all(block[::3] == 0.0)
            assert np.all(block[1::3] != 0.0) and np.all(block[2::3] != 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_always_tied_stream_gives_zero(self, k, monkeypatch):
        class AlwaysTied:
            def random(self, out):
                out.fill(0.5)
                return out

        monkeypatch.setattr(montecarlo, "_rng", lambda seed: AlwaysTied())
        ev = Evaluator(3, lambda x: x.sum(axis=1),
                       lambda x, k: np.full(len(x), np.inf), name="inf slope")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = influence_mc_derivative(ev, k, 3 * BATCH + 5, 1)
        assert (est.value, est.std_error) == (0.0, 0.0)


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

    def test_seed_taken_modulo_2_to_the_64(self):
        # as derive_seed keys its streams
        ev = product_evaluator()
        for seed, key in ((-1, 2 ** 64 - 1), (2 ** 64, 0)):
            a = influence_mc_covariance(ev, 1, 1000, seed)
            b = influence_mc_covariance(ev, 1, 1000, key)
            assert (a.value, a.std_error) == (b.value, b.std_error)

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
        assert abs(moments.formal_tail() - exact_tail) <= \
            3 * moments.tail_std_error()

    def test_inner_product(self):
        f = product_evaluator()
        g = Evaluator(2, lambda x: x[:, 0] + x[:, 1], name="sum")
        est = mc_inner_product(f, g, 100_000, 3)
        # <x1 x2, x1 + x2> = 2 * (1/3 * 1/2) = 1/3
        assert abs(est.value - 1 / 3) <= 3 * est.std_error

    def test_inner_product_std_error_at_large_mean(self):
        # <1e8 + x1, 1>: a sum of squares less m mean^2 cancels to 0 here
        f = Evaluator(2, lambda x: 1e8 + x[:, 0])
        one = Evaluator(2, lambda x: np.ones(len(x)))
        est = mc_inner_product(f, one, 100_000, 3)
        assert est.std_error == pytest.approx(np.sqrt(1 / 12 / 1e5), rel=0.01)

    def test_accumulator_std_error_at_large_mean(self):
        # two blocks, the second summed about the first one's mean
        values = 1e8 + np.random.default_rng(2).random(BATCH + 3)
        acc = _Accumulator()
        for lo in (0, BATCH):
            block = values[lo:lo + BATCH]
            acc.add(block.copy(), np.zeros((len(block), 1)))
        est = acc.estimate(0, "offset")
        assert est.value == pytest.approx(np.mean(values), rel=1e-14)
        assert est.std_error == pytest.approx(
            np.std(values, ddof=1) / np.sqrt(len(values)), rel=1e-9)

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
        assert est.method == "mc"
        x = _rng(derive_seed(8, 0)).random((samples, 3))
        v = ev(x)
        for k, got in enumerate(est.indices, start=1):
            assert got == pytest.approx(
                np.mean(v * reference_g_kernel(x, k)), rel=1e-12, abs=1e-12)
        assert est.mean == pytest.approx(np.mean(v), rel=1e-12)
        assert est.norm_sq == pytest.approx(np.mean(v * v), rel=1e-12)
        # (n+1)^2 f - (n+1)(n+2) f x_(n) at n = 3
        tail = 16 * v - 20 * v * x.max(axis=1)
        assert est.formal_tail() == pytest.approx(np.mean(tail), rel=1e-12)
        assert est.tail_std_error() == pytest.approx(
            np.std(tail, ddof=1) / np.sqrt(samples), rel=1e-9)
        assert est.covariance[0][1] == pytest.approx(
            np.cov(v * reference_g_kernel(x, 1),
                   v * reference_g_kernel(x, 2))[0, 1]
            / samples, rel=1e-9)

    def test_covariance_is_a_read_only_array_outside_equality(self):
        ev = Evaluator(3, lambda x: x.prod(axis=1))
        est = mc_profile_moments(ev, 2000, 4)
        assert isinstance(est.covariance, np.ndarray)
        assert est.covariance.dtype == np.float64
        assert est.covariance.shape == (5, 5)
        assert not est.covariance.flags.writeable
        with pytest.raises(ValueError):
            est.covariance[0, 0] = 0.0
        again = mc_profile_moments(ev, 2000, 4)
        assert est == again and hash(est) == hash(again)
        assert est != mc_profile_moments(ev, 2000, 5)

    def test_joint_std_error_is_the_double_sum(self):
        # one contraction over the array against the entrywise double sum,
        # over the leading entries of (n+2)^2 covariances as the fit uses them
        rng = np.random.default_rng(7)
        for n in range(1, 51):
            factor = rng.standard_normal((n + 2, n + 2))
            covariance = factor @ factor.T
            covariance.flags.writeable = False
            for size in (n + 1, n + 2):
                gradient = rng.standard_normal(size).tolist()
                assert _joint_std_error(covariance, gradient) == pytest.approx(
                    joint_std_error(covariance, gradient), rel=1e-12, abs=0)

    @pytest.mark.parametrize("ev", [
        Evaluator(3, lambda x: x.prod(axis=1), name="x1 x2 x3"),
        Evaluator(8, lambda x: x.mean(axis=1), name="mean of 8"),
    ], ids=lambda ev: ev.name)
    def test_joint_std_errors_match_replicate_spread(self, ev):
        # estimates from one sample are correlated: the reported tail and
        # R^2 standard errors must match the spread over independent seeds
        tails, tail_ses, r2s, r2_ses = [], [], [], []
        for seed in range(300):
            moments = mc_profile_moments(ev, 4000, seed)
            fit = approximation_from_moments(moments)
            tails.append(fit.intercept)
            tail_ses.append(moments.tail_std_error())
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
                np.mean(v * reference_g_kernel(x, k)), rel=1e-12, abs=1e-12)
        assert est.mean == pytest.approx(np.mean(v), rel=1e-12)
        assert est.norm_sq == pytest.approx(np.mean(v * v), rel=1e-12)

    @pytest.mark.parametrize("norm_sq", [True, False])
    def test_partial_moments(self, norm_sq):
        n, samples = 3, BATCH + 3
        ev = Evaluator(n, lambda x: x[:, 0] * np.exp(x[:, 1]) - x[:, 2])
        est = mc_profile_moments(ev, samples, 8, norm_sq)
        x = _rng(derive_seed(8, 0)).random((samples, n))
        v = ev(x)
        columns = [v * reference_g_kernel(x, k) for k in range(1, n + 1)] + [v]
        values = est.indices + (est.mean,)
        ses = est.index_std_errors + (est.mean_std_error,)
        if norm_sq:
            columns.append(v * v)
            values += (est.norm_sq,)
            ses += (est.norm_sq_std_error,)
        else:
            assert est.norm_sq is None and est.norm_sq_std_error is None
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

    @pytest.mark.parametrize("batch", [0, 1])
    def test_overflow_of_finite_products_names_unsorted_row(self, batch):
        # without <f, f> the block holds f and f x_(k), finite at 1e200, but
        # their outer products overflow: the error names the drawn row
        calls = []

        def func(x):
            v = x.sum(axis=1)
            if len(calls) == batch:
                v[5] = 1e200
            calls.append(len(x))
            return v
        samples = 2 * BATCH
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TaintedSampleError) as err:
                mc_profile_moments(Evaluator(3, func), samples, 4, norm_sq=False)
        assert str(err.value) == "a product of finite evaluator values overflowed"
        row = _rng(derive_seed(4, 0)).random((samples, 3))[batch * BATCH + 5]
        assert np.array_equal(err.value.point, row)


class TestDrawnAhead:
    """The helper thread: order, blocks, errors, its CPUs and shutdown."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        threads = threading.active_count()
        mask = os.sched_getaffinity(0)
        yield
        assert threading.active_count() == threads
        assert os.sched_getaffinity(0) == mask

    class Scripted:
        """Fills each block with the number of blocks drawn before it, and
        records the affinity mask of the thread that draws it."""

        def __init__(self):
            self.shapes, self.masks = [], []

        def random(self, out):
            out.fill(len(self.shapes))
            self.shapes.append(out.shape)
            self.masks.append(os.sched_getaffinity(0))
            return out

    def test_worker_runs_off_the_callers_cpu(self, monkeypatch):
        cpus = []

        def current_cpu():
            cpus.append(_current_cpu())
            return cpus[-1]

        monkeypatch.setattr(montecarlo, "_current_cpu", current_cpu)
        mask, rng = os.sched_getaffinity(0), self.Scripted()
        for _ in _drawn_ahead(rng, 3 * BATCH, (2,)):
            pass
        assert len(cpus) == 1
        others = mask - {cpus[0]}
        assert rng.masks == [others if others else mask] * 3

    @pytest.mark.parametrize("unpinned", ["no-cpu", "setaffinity-fails",
                                          "no-affinity-call"])
    def test_unpinned_worker_draws_the_same(self, unpinned, monkeypatch):
        ev = weighted_squares_evaluator(3)
        want = mc_profile_moments(ev, 3 * BATCH + 5, 3)

        def fails(pid, mask):
            raise OSError("sched_setaffinity refused")

        if unpinned == "no-cpu":
            monkeypatch.setattr(montecarlo, "_current_cpu", lambda: None)
        elif unpinned == "setaffinity-fails":
            monkeypatch.setattr(os, "sched_setaffinity", fails)
        else:
            monkeypatch.delattr(os, "sched_setaffinity")
        mask, rng = os.sched_getaffinity(0), self.Scripted()
        for _ in _drawn_ahead(rng, 3 * BATCH, (2,)):
            pass
        assert rng.masks == [mask] * 3
        got = mc_profile_moments(ev, 3 * BATCH + 5, 3)
        assert got == want
        assert np.array_equal(got.covariance, want.covariance)

    def test_current_cpu(self, monkeypatch):
        assert _current_cpu() in os.sched_getaffinity(0) | {None}
        # field 39, counted after the last ")" of a command name that holds
        # ") " itself; None where the file is missing, too short or holds
        # no number there
        fields = [b"0"] * 36 + [b"5"] + [b"0"] * 13
        for stat, cpu in [(b"7 (a) b) " + b" ".join(fields), 5),
                          (b"7 (a) b) " + b" ".join(fields[:36]), None),
                          (b"7 (a) b) " + b" ".join(fields[:36] + [b"x"]),
                           None),
                          (None, None)]:
            def fake_open(path, mode, stat=stat):
                assert (path, mode) == ("/proc/thread-self/stat", "rb")
                if stat is None:
                    raise FileNotFoundError(path)
                return io.BytesIO(stat)
            monkeypatch.setattr(montecarlo, "open", fake_open, raising=False)
            assert _current_cpu() == cpu

    def test_batches_in_order_and_close_joins(self):
        rng = self.Scripted()
        batches = _drawn_ahead(rng, 5 * BATCH + 1, (3,), ())
        for i in range(2):
            x, u = next(batches)
            assert (x.shape, u.shape) == ((BATCH, 3), (BATCH,))
            assert (x == 2 * i).all() and (u == 2 * i + 1).all()
        batches.close()
        # batch i + 1 is drawn only once batch i is asked for
        assert rng.shapes in ([(BATCH, 3), (BATCH,)] * 2,
                              [(BATCH, 3), (BATCH,)] * 3)
        assert [[block.shape for block in batch] for batch in _drawn_ahead(
            self.Scripted(), 2 * BATCH + 1, ())] == [
            [(BATCH,)], [(BATCH,)], [(1,)]]

    def test_block_kept_until_the_next_batch_is_asked_for(self):
        # more callers than CPUs, switching threads every microsecond: the
        # block of batch i holds i for as long as the caller works on it
        def caller(failures):
            batches = _drawn_ahead(self.Scripted(), 200 * BATCH, (1,))
            for i, (block,) in enumerate(batches):
                for _ in range(5):
                    if not (block == i).all():
                        failures.append(i)

        failures = []
        callers = [threading.Thread(target=caller, args=(failures,))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert failures == []

    @pytest.mark.parametrize("estimate, stream", [
        (lambda f, samples: mc_profile_moments(f, samples, 4), derive_seed(4, 0)),
        (lambda f, samples: influence_mc_covariance(f, 2, samples, 4), 4),
    ], ids=["pass", "covariance"])
    def test_non_finite_value_in_a_later_batch_names_its_point(self, estimate,
                                                               stream):
        calls, row = [], 7

        def func(x):
            v = x.sum(axis=1)
            if len(calls) == 3:
                v[row] = np.nan
            calls.append(len(x))
            return v
        samples = 5 * BATCH
        with pytest.raises(TaintedSampleError) as err:
            estimate(Evaluator(3, func), samples)
        assert len(calls) == 4
        drawn = _rng(stream).random((samples, 3))
        assert np.array_equal(err.value.point, drawn[3 * BATCH + row])

    @pytest.mark.parametrize("estimate", [
        lambda f, samples: mc_profile_moments(f, samples, 1),
        lambda f, samples: mc_inner_product(f, f, samples, 1),
        lambda f, samples: influence_mc_covariance(f, 2, samples, 1),
        lambda f, samples: influence_mc_derivative(f, 2, samples, 1),
        lambda f, samples: influence_mc_diffquotient(f, 2, samples, 1),
    ], ids=["pass", "inner-product", "covariance", "derivative",
            "diff-quotient"])
    def test_generator_error_reaches_the_caller_unchanged(self, monkeypatch,
                                                          estimate):
        error = RuntimeError("generator failed")

        class FailsOnThirdBlock(self.Scripted):
            def random(self, out):
                if len(self.shapes) == 2:
                    raise error
                return super().random(out)

        monkeypatch.setattr(montecarlo, "_rng",
                            lambda seed: FailsOnThirdBlock())
        with pytest.raises(RuntimeError) as err:
            estimate(weighted_squares_evaluator(3), 3 * BATCH + 5)
        assert err.value is error
        # raised on the worker: the generator's frame below a frame of the
        # executor's worker thread
        frames = [(str(entry.path), entry.name) for entry in err.traceback]
        worker = [path.endswith(os.path.join("concurrent", "futures",
                                              "thread.py"))
                  for path, _ in frames].index(True)
        assert frames[-1][1] == "random"
        assert worker < len(frames) - 1


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

    @pytest.mark.parametrize("reshape, shape", [
        (lambda v: v[:, None], "(1000, 1)"), (lambda v: v.sum(), "()"),
    ], ids=["column", "scalar"])
    def test_evaluator_output_shape(self, reshape, shape):
        ev = Evaluator(2, lambda x: reshape(x[:, 0]), name="misshapen")
        message = (r"misshapen returned an array of shape %s for 1000 points"
                   % re.escape(shape))
        with pytest.raises(DomainError, match=message):
            mc_profile_moments(ev, 1000, 0)
        with pytest.raises(DomainError, match=message):
            influence_mc_covariance(ev, 1, 1000, 0)

    @pytest.mark.parametrize("reshape, shape", [
        (lambda v: v[:, None], "(1000, 1)"), (lambda v: v.sum(), "()"),
    ], ids=["column", "scalar"])
    def test_derivative_output_shape(self, reshape, shape):
        ev = Evaluator(2, lambda x: x[:, 0],
                       lambda x, k: reshape(np.ones(len(x))), name="misshapen")
        with pytest.raises(DomainError, match=(
                r"the derivative map of misshapen returned an array of shape "
                r"%s for 1000 points" % re.escape(shape))):
            influence_mc_derivative(ev, 1, 1000, 0)

    def test_bad_variant(self):
        with pytest.raises(DomainError):
            influence_mc_diffquotient(product_evaluator(), 1, 100, 0, "beta-y")
