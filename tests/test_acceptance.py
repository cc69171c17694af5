"""End-to-end acceptance suite.

Eight criteria, each a single test that prints one PASS/FAIL line.  All
statistical checks use the 3-standard-error rule with frozen seeds, so the
suite is deterministic.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ordinfluence import (
    OrderStatPolynomialSpec,
    best_approximation,
    equal_influence_class,
    influence_mc_covariance,
    influence_mc_derivative,
    influence_mc_diffquotient,
    influence_power_product,
    influence_profile,
    monomial,
    os_function,
    polynomial,
    resolve_builtin,
    variance_profile,
)
from ordinfluence.closedforms import (
    MultiplicativeSpec,
    UnaryFactor,
    multiplicative_indices,
)
from ordinfluence.funcspec import SetFunctionSpec
from ordinfluence.lovasz import level_averages, zeta
from ordinfluence.montecarlo import Evaluator

from conftest import (
    direct_tail,
    random_orderstat_polynomial,
    random_plain_terms,
    random_set_function,
)
from reference import (
    dual_set_function,
    dualize,
    expand_min_max,
    expand_subset_sum,
    g_basis,
    gram_system,
    h_density,
    influence_exact,
    influence_lovasz,
    influence_os_subset,
    influence_via_alternative,
    inner_product_exact,
    integral,
    os_subset_set_function,
    poly_add,
    poly_scale,
    power_product_ratio,
    symmetrize,
    variance_plain_terms,
)


@pytest.fixture
def announce(capsys):
    def _announce(criterion, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            suffix = " (%s)" % detail if detail else ""
            print("acceptance criterion %d: %s%s" % (criterion, status, suffix))
    return _announce


def test_criterion_1_gram_system(announce):
    start = time.perf_counter()
    ok = True
    for n in range(1, 13):
        gs = gram_system(n)
        denom = (n + 1) * (n + 2)
        size = n + 1
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                ok &= gs.matrix[i - 1][j - 1] == Fraction(
                    min(i, j) * (max(i, j) + 1), denom)
        for i in range(size):
            for j in range(size):
                entry = sum(gs.matrix[i][m] * gs.inverse[m][j]
                            for m in range(size))
                ok &= entry == (1 if i == j else 0)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    announce(1, ok, "n=1..12, %.3f s" % elapsed)
    assert ok


def test_criterion_2_exact_constants(announce):
    ok = True

    # single-coordinate projections: I(x_i, k) = 1/n
    for n in range(1, 9):
        poly = symmetrize(n, [(1, {1: 1})])
        for k in range(1, n + 1):
            ok &= influence_exact(poly, k) == Fraction(1, n)

    # subset order statistics: closed form vs symmetrization + expansion
    for n in range(2, 6):
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                for j in range(1, size + 1):
                    coeffs = expand_subset_sum(n, size, j)
                    sym = poly_add(
                        polynomial(n),
                        *(poly_scale(os_function(n, slot), Fraction(c, comb(n, size)))
                          for slot, c in enumerate(coeffs, start=1) if c))
                    for k in range(1, n + 1):
                        ok &= (influence_exact(sym, k)
                               == influence_os_subset(n, subset, j, k))

    # variance profile
    for n in range(2, 6):
        closed = variance_profile(n)
        approx = best_approximation(OrderStatPolynomialSpec(
            symmetrize(n, variance_plain_terms(n))))
        ok &= approx.coefficients[:-1] == closed.slopes
        ok &= approx.coefficients[-1] == closed.intercept

    # sigma^2(g_k) = I(g_k, k) = 2(n+1)(n+2); <1, h_k> = 1
    for n in range(1, 9):
        for k in range(1, n + 1):
            g = g_basis(n, k)
            ok &= influence_exact(g, k) == 2 * (n + 1) * (n + 2)
            ok &= (inner_product_exact(g, g) - integral(g) ** 2
                   == 2 * (n + 1) * (n + 2))
            ok &= integral(h_density(n, k)) == 1

    announce(2, ok, "exact constants reproduced")
    assert ok


def test_criterion_3_conjunctive_example(announce):
    spec = resolve_builtin("conjunctive-example-6.1", 2)
    f = spec.evaluator()
    targets = {1: Fraction(17, 128), 2: Fraction(19, 64)}
    start = time.perf_counter()
    worst = 0.0
    for k, target in targets.items():
        est = influence_mc_covariance(f, k, 1_000_000, 60000 + k)
        worst = max(worst, abs(est.value - float(target)) / est.std_error)
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed < 30.0
    announce(3, ok, "max |z| = %.2f, %.1f s at 1e6 samples" % (worst, elapsed))
    assert ok


def _all_estimates(evaluator, k, samples, seed):
    return [
        influence_mc_covariance(evaluator, k, samples, seed),
        influence_mc_derivative(evaluator, k, samples, seed + 1),
        influence_mc_diffquotient(evaluator, k, samples, seed + 2, "uniform-y"),
        influence_mc_diffquotient(evaluator, k, samples, seed + 3,
                                  "triangular-y"),
    ]


def test_criterion_4_estimator_equivalence(announce):
    samples = 100_000
    worst = 0.0
    rnd = random.Random(424242)

    # 20 random Lovasz extensions at n = 3
    for case in range(20):
        v = random_set_function(rnd, 3)
        evaluator = SetFunctionSpec(v).evaluator()
        k = case % 3 + 1
        estimates = _all_estimates(evaluator, k, samples, 210_000 + 10 * case)
        for a, b in combinations(estimates, 2):
            worst = max(worst, a.z_score(b))

    # power products at n = 2, 3 with c in {1/3, 1, 2}
    from ordinfluence.funcspec import PowerProductSpec
    seed = 211_000
    for c in (Fraction(1, 3), Fraction(1), Fraction(2)):
        for n in (2, 3):
            evaluator = PowerProductSpec(n, c).evaluator()
            for k in range(1, n + 1):
                estimates = _all_estimates(evaluator, k, samples, seed)
                seed += 10
                for a, b in combinations(estimates, 2):
                    worst = max(worst, a.z_score(b))

    ok = worst <= 3.0
    announce(4, ok, "max pairwise |z| = %.2f over all cases" % worst)
    assert ok


def test_criterion_5_power_product_closed_form(announce):
    ok = True

    # Gamma formula vs exact kernel at c = 1, n = 2
    poly = polynomial(2, [monomial(2, {1: 1, 2: 1})])
    for k in (1, 2):
        ok &= abs(influence_power_product(1, 2, k)
                  - float(influence_exact(poly, k))) < 1e-12

    # monotone decrease in k for c > 0
    for n in range(2, 7):
        for c in (0.05, 1 / 3, 0.5, 1.0, 2.0, 4.0, 8.0):
            values = [influence_power_product(c, n, k) for k in range(1, n + 1)]
            ok &= all(a > b for a, b in zip(values, values[1:]))

    # ratio limit as c -> -1/2
    for k in (2, 3, 4, 5):
        ok &= abs(power_product_ratio(-0.4999, k) - 1.0) < 1e-3

    announce(5, ok, "Gamma formula, monotonicity, ratio limit")
    assert ok


def test_criterion_6_alternative_formulas(announce):
    worst = 0.0

    specs = [
        MultiplicativeSpec.symmetric(UnaryFactor.power(1), 2),
        MultiplicativeSpec.symmetric(UnaryFactor.power(Fraction(1, 2)), 3),
        MultiplicativeSpec(3, (UnaryFactor.power(1), UnaryFactor.power(2),
                               UnaryFactor.power(0))),
        MultiplicativeSpec.symmetric(UnaryFactor.power(2), 4),
    ]
    for spec in specs:
        for k, reference in enumerate(multiplicative_indices(spec), start=1):
            for formula in ("dfsg5", "dfsg6", "dfsg7"):
                got = influence_via_alternative(spec, k, formula)
                worst = max(worst, abs(got - reference))

    class VarianceEvaluator:
        arity = 2

        @staticmethod
        def evaluate(x):
            x = np.asarray(x, dtype=float)
            mean = x.mean(axis=1)
            return ((x - mean[:, None]) ** 2).mean(axis=1)

    closed = variance_profile(2)
    for k in (1, 2):
        for formula in ("dfsg5", "dfsg6", "dfsg7"):
            got = influence_via_alternative(VarianceEvaluator, k, formula)
            worst = max(worst, abs(got - float(closed.slopes[k - 1])))

    ok = worst < 1e-7
    announce(6, ok, "max deviation %.2e" % worst)
    assert ok


def test_criterion_7_property_suites(announce):
    ok = True
    rnd = random.Random(777777)

    # linearity of I (200 cases)
    for _ in range(200):
        n = rnd.randint(1, 5)
        f = random_orderstat_polynomial(rnd, n)
        g = random_orderstat_polynomial(rnd, n)
        a = Fraction(rnd.randint(-6, 6), 3)
        b = Fraction(rnd.randint(-6, 6), 3)
        k = rnd.randint(1, n)
        ok &= (influence_exact(poly_add(poly_scale(f, a), poly_scale(g, b)), k)
               == a * influence_exact(f, k) + b * influence_exact(g, k))

    # permutation invariance / Sym-equivalence (200 cases)
    for _ in range(200):
        n = rnd.randint(2, 5)
        terms = random_plain_terms(rnd, n)
        perm = list(range(1, n + 1))
        rnd.shuffle(perm)
        permuted = [(c, {perm[v - 1]: e for v, e in exps.items()})
                    for c, exps in terms]
        ok &= symmetrize(n, terms) == symmetrize(n, permuted)

    # duality I(f^d, k) = I(f, n-k+1) (200 cases, split across engines)
    for _ in range(100):
        n = rnd.randint(1, 5)
        f = random_orderstat_polynomial(rnd, n)
        fd = dualize(f)
        for k in range(1, n + 1):
            ok &= influence_exact(fd, k) == influence_exact(f, n - k + 1)
    for _ in range(100):
        n = rnd.randint(1, 5)
        v = random_set_function(rnd, n)
        profile = level_averages(v).influence_profile()
        dual_profile = level_averages(dual_set_function(v)).influence_profile()
        ok &= dual_profile == tuple(reversed(profile))

    # orthogonality of the residual (200 cases)
    count = 0
    while count < 200:
        n = rnd.randint(1, 4)
        f = random_orderstat_polynomial(rnd, n)
        if inner_product_exact(f, f) - integral(f) ** 2 == 0:
            continue
        count += 1
        approx = best_approximation(OrderStatPolynomialSpec(f))
        f_l = polynomial(
            n,
            [monomial(n, {k: 1}, a)
             for k, a in enumerate(approx.coefficients[:-1], start=1) if a],
            approx.coefficients[-1])
        residual = poly_add(f, poly_scale(f_l, -1))
        ok &= integral(residual) == 0
        for j in range(1, n + 1):
            ok &= inner_product_exact(residual, os_function(n, j)) == 0

    # mean preservation (200 cases), with the indices <f, g_k> and the tail
    # taken straight from <f, os_n>; the exact profile must return both
    for _ in range(200):
        n = rnd.randint(1, 5)
        f = random_orderstat_polynomial(rnd, n)
        indices = tuple(influence_exact(f, k) for k in range(1, n + 1))
        tail = direct_tail(f)
        weighted = sum(k * a for k, a in enumerate(indices, start=1))
        ok &= (weighted + (n + 1) * tail) / (n + 1) == integral(f)
        profile = influence_profile(OrderStatPolynomialSpec(f))
        ok &= profile.indices == indices and profile.formal_tail() == tail

    # three-way equal-influence equivalence (200 cases, half constructed
    # to be in the equal-influence class via vanishing higher Moebius sums)
    for case in range(200):
        n = rnd.randint(2, 5)
        if case % 2:
            v = random_set_function(rnd, n)
        else:
            m = [Fraction(0)] * (1 << n)
            for i in range(n):
                m[1 << i] = Fraction(rnd.randint(-4, 4), 2)
            # one balanced pair at a higher level keeps mbar(s) = 0
            if n >= 2:
                delta = Fraction(rnd.randint(-3, 3), 2)
                m[0b11] += delta
                m[(1 << n) - 1 if n > 2 else 0b11] -= delta
            from ordinfluence.lovasz import MobiusRepresentation
            v = zeta(MobiusRepresentation(n, tuple(m)))
        diag = equal_influence_class(v)
        ok &= (diag.profile_flat == diag.vbar_arithmetic == diag.mbar_vanishing)
        ok &= diag.equal == diag.profile_flat

    # pointwise subset-expansion identities (200+ cases)
    for _ in range(200):
        n = rnd.randint(2, 5)
        x = [rnd.random() for _ in range(n)]
        xs = sorted(x)
        s = rnd.randint(1, n)
        j = rnd.randint(1, s)
        coeffs = expand_subset_sum(n, s, j)
        lhs = sum(sorted(x[i - 1] for i in subset)[j - 1]
                  for subset in combinations(range(1, n + 1), s))
        ok &= abs(lhs - sum(c * xs[m] for m, c in enumerate(coeffs))) < 1e-12
        k = rnd.randint(1, n)
        for mode in ("via-max", "via-min"):
            combo = expand_min_max(n, k, mode)
            ok &= abs(float(combo.evaluate(x)) - xs[k - 1]) < 1e-12

    # Sym(os_{j:S}) level-average identity (>= 200 cases)
    cases = 0
    for n in range(2, 6):
        for size in range(1, n + 1):
            for j in range(1, size + 1):
                subset = tuple(sorted(rnd.sample(range(1, n + 1), size)))
                coeffs = expand_subset_sum(n, size, j)
                sym = poly_add(
                    polynomial(n),
                    *(poly_scale(os_function(n, slot), Fraction(c, comb(n, size)))
                      for slot, c in enumerate(coeffs, start=1) if c))
                for k in range(1, n + 1):
                    cases += 1
                    ok &= (influence_exact(sym, k)
                           == influence_os_subset(n, subset, j, k))
    while cases < 200:
        n = rnd.randint(2, 5)
        size = rnd.randint(1, n)
        subset = tuple(sorted(rnd.sample(range(1, n + 1), size)))
        j = rnd.randint(1, size)
        k = rnd.randint(1, n)
        v = os_subset_set_function(n, subset, j)
        ok &= influence_lovasz(v, k) == influence_os_subset(n, subset, j, k)
        cases += 1

    # ineffective smallest variable: exact zero index (200 cases)
    def triangle_moment(p, q):
        # int over {x1 > x2} of x1^p x2^q
        return Fraction(1, (q + 1) * (p + q + 2))

    for _ in range(200):
        degrees = range(0, 5)
        f1 = {a: Fraction(rnd.randint(-6, 6), 3) for a in degrees}
        f2 = {b: Fraction(rnd.randint(-6, 6), 3) for b in degrees}
        # I(f, 1) = <f, g_1> with g_1 = -12(x_{(2)} - 2 x_{(1)}) at n = 2,
        # integrated over the two ordered triangles
        total = Fraction(0)
        for coeffs in (f1, f2):
            for a, c in coeffs.items():
                total += -12 * c * (triangle_moment(a + 1, 0)
                                    - 2 * triangle_moment(a, 1))
        ok &= total == 0

    # ...and the Monte-Carlo difference-quotient estimator agrees
    def ineffective(x):
        return np.where(x[:, 0] > x[:, 1], np.cos(2.0 * x[:, 0]),
                        x[:, 1] ** 3 - x[:, 1])

    evaluator = Evaluator(2, ineffective, name="ineffective")
    for seed in (301, 302, 303):
        est = influence_mc_diffquotient(evaluator, 1, 80_000, seed)
        ok &= abs(est.value) <= 3 * est.std_error

    announce(7, ok, "9 property suites, >= 200 randomized cases each")
    assert ok


def test_criterion_8_r_squared_and_normalized_index(announce):
    ok = True
    rnd = random.Random(888888)

    cases = 0
    while cases < 200:
        n = rnd.randint(1, 5)
        f = random_orderstat_polynomial(rnd, n)
        if inner_product_exact(f, f) - integral(f) ** 2 == 0:
            continue
        cases += 1
        approx = best_approximation(OrderStatPolynomialSpec(f))
        ok &= 0 <= approx.r_squared <= 1
        a = Fraction(rnd.randint(1, 12), 4)  # positive scale
        b = Fraction(rnd.randint(-8, 8), 4)
        g = poly_add(poly_scale(f, a), b)
        fit_g = best_approximation(OrderStatPolynomialSpec(g))
        for k in range(1, n + 1):
            ok &= abs(fit_g.normalized_index(k)
                      - approx.normalized_index(k)) < 1e-12

    # members of V_L have R^2 = 1 exactly
    for _ in range(50):
        n = rnd.randint(2, 5)
        f = polynomial(
            n,
            [monomial(n, {k: 1}, Fraction(rnd.randint(-6, 6), 3))
             for k in range(1, n + 1)],
            Fraction(rnd.randint(-4, 4), 2))
        if inner_product_exact(f, f) - integral(f) ** 2 == 0:
            continue
        approx = best_approximation(OrderStatPolynomialSpec(f))
        ok &= approx.r_squared == 1
        ok &= approx.residual_norm_sq == 0

    announce(8, ok, "r invariance, R^2 bounds, V_L exactness")
    assert ok
