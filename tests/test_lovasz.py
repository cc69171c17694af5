"""Set functions, Moebius machinery, and Lovasz-extension influence."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from ordinfluence import (
    DomainError,
    SetFunction,
    equal_influence_class,
    eval_lovasz,
    influence_exact,
    influence_lovasz,
    influence_profile_lovasz,
    inner_product_exact,
    integral,
    mean_lovasz,
    mobius,
    norm_sq_lovasz,
    os_function,
    polynomial,
    symmetric_part,
    zeta,
)
from ordinfluence.lovasz import (
    directional_slope,
    dual_set_function,
    eval_lovasz_mobius,
    influence_os_subset,
    os_subset_set_function,
)

from conftest import random_set_function


class TestTransforms:
    def test_round_trip(self, rng):
        for n in range(1, 11):
            v = random_set_function(rng, n, zero_grounded=False)
            assert zeta(mobius(v)).values == v.values

    def test_mobius_definition(self, rng):
        # m(S) = sum over subsets with inclusion-exclusion signs, brute force
        for _ in range(10):
            n = rng.randint(1, 5)
            v = random_set_function(rng, n, zero_grounded=False)
            m = mobius(v)
            for mask in range(1 << n):
                brute = Fraction(0)
                sub = mask
                while True:
                    sign = (-1) ** (bin(mask).count("1") - bin(sub).count("1"))
                    brute += sign * v.values[sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
                assert m.values[mask] == brute

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            SetFunction(2, (Fraction(0), Fraction(1)))


class TestEvaluation:
    def test_telescoping_vs_mobius(self, rng):
        for _ in range(40):
            n = rng.randint(1, 6)
            v = random_set_function(rng, n, zero_grounded=False)
            x = [rng.random() for _ in range(n)]
            assert eval_lovasz(v, x) == pytest.approx(
                eval_lovasz_mobius(v, x), abs=1e-12)

    def test_vertex_interpolation(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            v = random_set_function(rng, n, zero_grounded=False)
            mask = rng.randrange(1 << n)
            x = [1.0 if mask >> i & 1 else 0.0 for i in range(n)]
            assert eval_lovasz(v, x) == pytest.approx(float(v.values[mask]),
                                                      abs=1e-12)

    def test_directional_slope_matches_difference(self, rng):
        for _ in range(30):
            n = rng.randint(2, 5)
            v = random_set_function(rng, n)
            x = [rng.random() for _ in range(n)]
            k = rng.randint(1, n)
            eps = 1e-9
            order = sorted(range(n), key=lambda i: x[i])
            moved = list(x)
            moved[order[k - 1]] += eps
            slope = (eval_lovasz(v, moved) - eval_lovasz(v, x)) / eps
            assert directional_slope(v, x, k) == pytest.approx(slope, abs=1e-5)


class TestInfluence:
    def test_both_formulas_used(self, rng):
        # influence_lovasz asserts agreement of the level-average and
        # Moebius forms internally; exercise it broadly
        for _ in range(30):
            n = rng.randint(1, 6)
            v = random_set_function(rng, n)
            for k in range(1, n + 1):
                influence_lovasz(v, k)

    def test_arithmetic_mean(self):
        for n in range(1, 7):
            v = SetFunction(n, tuple(Fraction(bin(s).count("1"), n)
                                     for s in range(1 << n)))
            assert influence_profile_lovasz(v) == (Fraction(1, n),) * n

    def test_min_capacity(self):
        n = 3
        full = (1 << n) - 1
        v = SetFunction(n, tuple(Fraction(1 if mask == full else 0)
                                 for mask in range(1 << n)))
        assert influence_profile_lovasz(v) == (Fraction(1), Fraction(0), Fraction(0))

    def test_cross_module_consistency(self, rng):
        # the extension of a symmetric v is an order-stat polynomial; both
        # engines must produce identical indices
        for _ in range(12):
            n = rng.randint(1, 5)
            vbar = [Fraction(0)] + [Fraction(rng.randint(-6, 6), 3)
                                    for _ in range(n)]
            values = tuple(vbar[bin(mask).count("1")] for mask in range(1 << n))
            v = SetFunction(n, values)
            # symmetric extension: constant + telescoping slopes on sorted x
            poly = polynomial(
                n,
                constant=vbar[0]) + sum(
                ((vbar[n - k + 1] - vbar[n - k]) * os_function(n, k)
                 for k in range(1, n + 1)),
                polynomial(n))
            for k in range(1, n + 1):
                assert influence_lovasz(v, k) == influence_exact(poly, k)
            assert mean_lovasz(v) == integral(poly)
            assert norm_sq_lovasz(v) == inner_product_exact(poly, poly)

    def test_relabel_invariance(self, rng):
        for _ in range(15):
            n = rng.randint(2, 5)
            v = random_set_function(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = []
            for mask in range(1 << n):
                src = 0
                for i in range(n):
                    if mask >> i & 1:
                        src |= 1 << perm[i]
                relabeled.append(v.values[src])
            w = SetFunction(n, tuple(relabeled))
            assert influence_profile_lovasz(w) == influence_profile_lovasz(v)

    def test_duality(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            v = random_set_function(rng, n)
            vd = dual_set_function(v)
            profile = influence_profile_lovasz(v)
            dual_profile = influence_profile_lovasz(vd)
            for k in range(1, n + 1):
                assert dual_profile[k - 1] == profile[n - k]


class TestSubsetOrderStatistics:
    def test_hypergeometric_formula(self):
        # I(os_{j:S}, k) from the set-function engine equals the closed form
        for n in range(2, 6):
            for size in range(1, n + 1):
                for subset in combinations(range(1, n + 1), size):
                    for j in range(1, size + 1):
                        v = os_subset_set_function(n, subset, j)
                        for k in range(1, n + 1):
                            assert (influence_lovasz(v, k)
                                    == influence_os_subset(n, subset, j, k))

    def test_sym_level_average_identity(self):
        # Sym(os_{j:S}) = (1/C(n,|S|)) sum_{|T|=|S|} os_{j:T}, expressed in
        # full order statistics, has the same influence profile as os_{j:S}
        for n in range(2, 6):
            for size in range(1, n + 1):
                for j in range(1, size + 1):
                    subset = tuple(range(1, size + 1))
                    from ordinfluence.exact import expand_subset_sum
                    coeffs = expand_subset_sum(n, size, j)
                    sym = sum(
                        (Fraction(c, comb(n, size)) * os_function(n, slot)
                         for slot, c in enumerate(coeffs, start=1) if c),
                        polynomial(n))
                    for k in range(1, n + 1):
                        assert (influence_exact(sym, k)
                                == influence_os_subset(n, subset, j, k))

    def test_out_of_window_is_zero(self):
        assert influence_os_subset(5, (1, 2), 1, 5) == 0
        assert influence_os_subset(5, (1, 2), 2, 1) == 0


class TestEqualInfluence:
    def test_three_conditions_agree(self, rng):
        for _ in range(40):
            n = rng.randint(2, 6)
            v = random_set_function(rng, n)
            diag = equal_influence_class(v)
            assert diag.profile_flat == diag.vbar_arithmetic == diag.mbar_vanishing
            assert diag.equal == diag.profile_flat

    def test_additive_capacity_is_equal_influence(self):
        n = 4
        v = SetFunction(n, tuple(Fraction(bin(mask).count("1"), n)
                                 for mask in range(1 << n)))
        diag = equal_influence_class(v)
        assert diag.equal and not diag.witnesses

    def test_min_capacity_is_not(self):
        n = 3
        full = (1 << n) - 1
        v = SetFunction(n, tuple(Fraction(1 if mask == full else 0)
                                 for mask in range(1 << n)))
        diag = equal_influence_class(v)
        assert not diag.equal
        assert diag.witnesses


class TestSymmetricPartAndMoments:
    def test_symmetric_part_is_permutation_average(self, rng):
        for _ in range(15):
            n = rng.randint(1, 4)
            v = random_set_function(rng, n, zero_grounded=False)
            part = symmetric_part(v)
            from itertools import permutations
            x = [rng.random() for _ in range(n)]
            avg = sum(eval_lovasz(v, list(p)) for p in permutations(x))
            avg /= len(list(permutations(x)))
            assert float(part.evaluate(x)) == pytest.approx(avg, abs=1e-12)

    def test_mean_against_quadrature(self, rng):
        import numpy as np
        from ordinfluence import Evaluator, tensor_quadrature
        from ordinfluence.backends import lovasz_eval_batch
        for _ in range(8):
            n = rng.randint(1, 3)
            v = random_set_function(rng, n, zero_grounded=False)
            values = np.array([float(t) for t in v.values])
            ev = Evaluator(n, lambda x, values=values: lovasz_eval_batch(values, x))
            oracle = tensor_quadrature(ev, 48)
            assert float(mean_lovasz(v)) == pytest.approx(oracle, abs=1e-3)

    def test_norm_sq_known_cases(self):
        # min(x1, x2): <f,f> = 1/6; extension of v(S)=1 iff S={1,2}
        v = SetFunction(2, (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
        assert norm_sq_lovasz(v) == Fraction(1, 6)
        assert mean_lovasz(v) == Fraction(1, 3)
        # max(x1, x2): <f,f> = 1/2
        w = SetFunction(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(1)))
        assert norm_sq_lovasz(w) == Fraction(1, 2)
        assert mean_lovasz(w) == Fraction(2, 3)

    def test_norm_sq_mc_cross_check(self, rng):
        import numpy as np
        from ordinfluence import Evaluator
        from ordinfluence.backends import lovasz_eval_batch
        from ordinfluence.montecarlo import mc_profile_moments
        v = random_set_function(rng, 3, zero_grounded=False)
        values = np.array([float(t) for t in v.values])
        ev = Evaluator(3, lambda x: lovasz_eval_batch(values, x))
        moments = mc_profile_moments(ev, 200_000, 99)
        assert (abs(moments.norm_sq - float(norm_sq_lovasz(v)))
                <= 3 * moments.norm_sq_std_error)
