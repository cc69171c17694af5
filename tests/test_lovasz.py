"""Set functions, Moebius machinery, and Lovasz-extension influence."""

import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from ordinfluence import (
    DomainError,
    SetFunction,
    equal_influence_class,
    mobius,
    norm_sq_lovasz,
    os_function,
    parse_spec_document,
    polynomial,
    symmetric_part,
    zeta,
)
from ordinfluence import lovasz
from ordinfluence.lovasz import level_averages
from ordinfluence.montecarlo import sorted_columns

from conftest import random_set_function
from reference import (
    directional_slope,
    dual_set_function,
    eval_lovasz,
    eval_lovasz_mobius,
    expand_subset_sum,
    influence_exact,
    influence_lovasz,
    influence_os_subset,
    inner_product_exact,
    integral,
    os_subset_set_function,
    poly_add,
    poly_scale,
    tensor_quadrature,
)


def _min_min_moment(a, b, c):
    # E[min_S min_T] for |S\T|=a, |T\S|=b, |S cap T|=c, S and T nonempty
    def half(a, b, c):
        return Fraction(1, a + 1) * (Fraction(1, b + c + 1)
                                     - Fraction(1, a + b + c + 2))
    return half(a, b, c) + half(b, a, c)


def reference_mobius(v):
    """Moebius coefficients by the butterfly over a list of Fractions."""
    arr = list(v.values)
    for i in range(v.arity):
        for mask in range(1 << v.arity):
            if mask >> i & 1:
                arr[mask] -= arr[mask ^ (1 << i)]
    return tuple(arr)


def pair_sum_norm_sq(v):
    """<f, f> as the double sum over nonzero Moebius coefficients of
    m(S) m(T) E[min_S min_T], in Fractions: the reference for the chain form."""
    nonzero = [(mask, coeff) for mask, coeff in enumerate(reference_mobius(v))
               if coeff != 0]
    total = Fraction(0)
    for smask, sc in nonzero:
        for tmask, tc in nonzero:
            if smask == 0 and tmask == 0:
                q = Fraction(1)
            elif smask == 0:
                q = Fraction(1, bin(tmask).count("1") + 1)
            elif tmask == 0:
                q = Fraction(1, bin(smask).count("1") + 1)
            else:
                inter = bin(smask & tmask).count("1")
                q = _min_min_moment(bin(smask).count("1") - inter,
                                    bin(tmask).count("1") - inter, inter)
            total += sc * tc * q
    return total


def reference_level_averages(v):
    """vbar and mbar by a loop over Fractions."""
    n = v.arity
    m = reference_mobius(v)
    vsum = [Fraction(0)] * (n + 1)
    msum = [Fraction(0)] * (n + 1)
    for mask in range(1 << n):
        s = bin(mask).count("1")
        vsum[s] += v.values[mask]
        msum[s] += m[mask]
    return (tuple(vsum[s] / comb(n, s) for s in range(n + 1)),
            tuple(msum[s] / comb(n, s) for s in range(n + 1)))


def chain_form_cases():
    """36 seeded set functions at n <= 6 with denominators 1..9, n = 1, the
    zero function, the arithmetic mean and a subset order statistic."""
    rng = random.Random(8_2026)
    cases = []
    for i in range(36):
        n = 1 + i % 6
        cases.append(SetFunction(n, tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            for _ in range(1 << n))))
    cases.append(SetFunction(1, (Fraction(2, 3), Fraction(-5, 7))))
    cases.append(SetFunction(4, (Fraction(0),) * 16))
    cases.append(SetFunction(5, tuple(Fraction(bin(s).count("1"), 5)
                                      for s in range(1 << 5))))
    cases.append(os_subset_set_function(6, (2, 3, 5), 2))
    return cases


def scaled_cases(factor):
    """The chain-form cases times ``factor``, except the zero function, whose
    numerators no factor enlarges."""
    return [SetFunction(v.arity, tuple(factor * x for x in v.values))
            for v in chain_form_cases() if any(v.values)]


@pytest.fixture
def table_dtypes(monkeypatch):
    """Record the dtype of every integer table the engine builds."""
    seen = []
    original = lovasz._integer_table

    def recorded(values, limit):
        table, scale = original(values, limit)
        seen.append(table.dtype)
        return table, scale

    monkeypatch.setattr(lovasz, "_integer_table", recorded)
    return seen


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


class TestTableObject:
    def test_value_reads_the_table(self):
        v = SetFunction(2, (0, Fraction(1, 3), 2, Fraction(-7, 2)))
        assert [v.value(mask) for mask in range(4)] == list(v.values)
        assert (v.value([]), v.value([2]), v.value((2, 1))) == (
            0, 2, Fraction(-7, 2))

    @pytest.mark.parametrize("subset", [-1, [0], [3], 7],
                             ids=["mask-negative", "element-0", "element-3",
                                  "mask-past-full"])
    def test_value_outside_the_ground_set(self, subset):
        with pytest.raises(DomainError):
            SetFunction(2, (0, 1, 2, 3)).value(subset)

    def test_numerators_are_read_only(self):
        for v in (SetFunction(2, (0, 1, 2, 3)),
                  SetFunction(1, (Fraction(2 ** 70, 3), 1))):
            for table in (v.numerators, mobius(v).numerators):
                with pytest.raises(ValueError):
                    table[0] = 5

    @pytest.mark.parametrize("factor, dtype", [
        (Fraction(1, 7), np.int64),
        # the transforms run on object tables, zeta's result fits in int64
        (2 ** 57, np.int64),
        (2 ** 70 + Fraction(1, 7), object),
    ], ids=["int64", "int64-through-object", "object"])
    def test_equality_and_hash_across_constructions(self, factor, dtype):
        rng = random.Random(19_2026)
        for n in (1, 3, 6):
            values = [rng.randint(-30, 30) * factor for _ in range(1 << n)]
            v = SetFunction(n, tuple(values))
            built = [v, SetFunction(n, map(str, values)),
                     parse_spec_document({"kind": "set-function", "arity": n,
                                          "values": list(map(str, values))}
                                         ).set_function,
                     zeta(mobius(v)), pickle.loads(pickle.dumps(v))]
            for w in built:
                assert w.numerators.dtype == np.dtype(dtype)
                assert w == v and hash(w) == hash(v)
            values[-1] += 1
            assert SetFunction(n, tuple(values)) != v
        assert mobius(v) != SetFunction(n, mobius(v).values)

    def test_tables_build_no_fraction(self, monkeypatch):
        v = SetFunction(3, tuple(Fraction(i, 3) for i in range(8)))

        def no_fraction(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(lovasz, "Fraction", no_fraction)
        zeta(mobius(v))
        SetFunction.from_codes(3, [(1, 2), (1, 3)], [0, 1] * 4)


class TestIntegerTables:
    def test_mobius_and_levels_match_fraction_loops(self, table_dtypes):
        # the scaled cases put the level sums on Python ints
        for v in chain_form_cases() + scaled_cases(2 ** 60 + Fraction(1, 7)):
            m = reference_mobius(v)
            vbar, mbar = reference_level_averages(v)
            levels = lovasz.level_averages(v)
            assert mobius(v).values == m
            assert (levels.vbar, levels.mbar) == (vbar, mbar)
            assert levels.mean() == sum(
                (c / (bin(mask).count("1") + 1) for mask, c in enumerate(m)),
                Fraction(0))
        assert set(table_dtypes) == {np.dtype(np.int64), np.dtype(object)}

    @pytest.mark.parametrize("factor, dtype", [(1, np.int64),
                                               (2 ** 60 + Fraction(1, 7), object)])
    def test_round_trip_on_both_dtypes(self, factor, dtype, table_dtypes):
        for w in scaled_cases(factor):
            assert zeta(mobius(w)).values == w.values
        assert set(table_dtypes) == {np.dtype(dtype)}

    def test_mobius_at_the_int64_edge(self, table_dtypes):
        # v(S) = (-1)^|S| p gives m([n]) = (-1)^n 2^n p, the largest possible
        # magnitude: 2^63 - 64 still fits in int64 at n = 6, 2^63 does not
        n = 6
        for p, dtype in ((2 ** 57 - 1, np.int64), (2 ** 57, object)):
            v = SetFunction(n, tuple(Fraction((-1) ** bin(s).count("1") * p)
                                     for s in range(1 << n)))
            assert mobius(v).values[-1] == (-1) ** n * 2 ** n * p
            assert table_dtypes[-1] == np.dtype(dtype)


class TestChainFormNorm:
    def test_matches_pair_sum(self, table_dtypes):
        for v in chain_form_cases():
            assert norm_sq_lovasz(v) == pair_sum_norm_sq(v)
        assert set(table_dtypes) == {np.dtype(np.int64)}

    def test_object_fallback_matches_pair_sum(self, table_dtypes):
        # numerators >= 2^40 square past int64, so the norm works on Python ints
        for w in scaled_cases(2 ** 40 + Fraction(1, 3)):
            table_dtypes.clear()
            assert norm_sq_lovasz(w) == pair_sum_norm_sq(w)
            assert np.dtype(object) in table_dtypes

    def test_quadrature_at_arity_10(self):
        # v(S) = w(S cap {1,2,3}) + sum_{i in S, i > 3} a_i has the extension
        # f_w(x1, x2, x3) + sum_{i > 3} a_i x_i.  On each ordering of x1..x3,
        # x_c = u1, x_b = u1 u2, x_a = u1 u2 u3 (Jacobian u1^2 u2) makes f^2 a
        # polynomial of degree <= 4 per u, and degree <= 2 per x_i, i > 3, so
        # 3-point and 2-point Gauss-Legendre rules integrate it exactly.
        rng = random.Random(10)
        n = 10
        w = [Fraction(0)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(7)]
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 3)]
        v = SetFunction(n, tuple(
            w[s & 7] + sum(a[i - 3] for i in range(3, n) if s >> i & 1)
            for s in range(1 << n)))
        g3, w3 = np.polynomial.legendre.leggauss(3)
        g2, w2 = np.polynomial.legendre.leggauss(2)
        u, wu = (g3 + 1) / 2, w3 / 2
        t, wt = (g2 + 1) / 2, w2 / 2
        total = 0.0
        for lo, mid, hi in permutations(range(3)):
            for i1, i2, i3 in np.ndindex(3, 3, 3):
                x = [0.0] * n
                x[hi] = u[i1]
                x[mid] = u[i1] * u[i2]
                x[lo] = u[i1] * u[i2] * u[i3]
                weight = wu[i1] * wu[i2] * wu[i3] * u[i1] ** 2 * u[i2]
                for rest in np.ndindex(*(2,) * (n - 3)):
                    x[3:] = t[list(rest)]
                    total += (weight * np.prod(wt[list(rest)])
                              * eval_lovasz(v, x) ** 2)
        assert float(norm_sq_lovasz(v)) == pytest.approx(total, rel=1e-9, abs=0)


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


def tied_rows(n, m, seed):
    """Seeded points of [0,1]^n, most with ties: a third on a grid of four
    levels, a third with a random coordinate copied onto another, the rest
    untied, and the two vertices 0 and 1."""
    gen = np.random.default_rng(seed)
    x = gen.random((m, n))
    x[::3] = np.floor(x[::3] * 4) / 4
    rows = np.arange(1, m, 3)
    source, target = gen.integers(n, size=(2, len(rows)))
    x[rows, target] = x[rows, source]
    x[0], x[-1] = 0.0, 1.0
    return x


class TestBatchEvaluation:
    """The batch evaluator and slope against the pointwise references."""

    def test_eval_matches_reference(self, rng):
        for _ in range(6):
            n = rng.randint(1, 6)
            v = random_set_function(rng, n, zero_grounded=False)
            values = np.array([float(t) for t in v.values])
            x = np.random.default_rng(1).random((64, n))
            got = lovasz.lovasz_eval_batch(values, x, sorted_columns(x))
            want = np.array([eval_lovasz(v, row) for row in x])
            assert np.allclose(got, want, atol=1e-12)

    def test_slope_matches_reference(self, rng):
        for _ in range(6):
            n = rng.randint(2, 5)
            v = random_set_function(rng, n)
            values = np.array([float(t) for t in v.values])
            x = np.random.default_rng(2).random((32, n))
            k = rng.randint(1, n)
            got = lovasz.lovasz_slope_batch(values, x, k, sorted_columns(x))
            want = np.array([directional_slope(v, row, k) for row in x])
            assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", list(range(1, 15)) + [16])
    def test_eval_matches_pointwise_on_tied_rows(self, n):
        # column compares up to NETWORK_MAX_ARITY, argsort tails above it
        v = random_set_function(random.Random(n), n, zero_grounded=False)
        values = np.array([float(t) for t in v.values])
        x = tied_rows(n, 48, n)
        got = lovasz.lovasz_eval_batch(values, x, sorted_columns(x))
        want = np.array([eval_lovasz(v, row) for row in x])
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 13])
    def test_eval_rows_independent_of_their_tile(self, n):
        # a batch of several tiles, evaluated whole, in small pieces and
        # with its rows reversed, gives the same values under ==
        v = random_set_function(random.Random(n), n, zero_grounded=False)
        values = np.array([float(t) for t in v.values])
        x = tied_rows(n, 2 * lovasz.EVAL_TILE + 7, n)
        got = lovasz.lovasz_eval_batch(values, x, sorted_columns(x))
        pieces = [lovasz.lovasz_eval_batch(values, x[lo:lo + 1000],
                                           sorted_columns(x[lo:lo + 1000]))
                  for lo in range(0, len(x), 1000)]
        assert np.array_equal(got, np.concatenate(pieces))
        assert np.array_equal(got, lovasz.lovasz_eval_batch(
            values, x[::-1], sorted_columns(x[::-1]))[::-1])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 13, 16])
    def test_slope_matches_pointwise_on_untied_rows(self, n):
        v = random_set_function(random.Random(n), n, zero_grounded=False)
        values = np.array([float(t) for t in v.values])
        x = np.random.default_rng(n).random((48, n))
        assert all(len(set(row)) == n for row in x.tolist())
        for k in range(1, n + 1):
            got = lovasz.lovasz_slope_batch(values, x, k, sorted_columns(x))
            want = [directional_slope(v, row, k) for row in x]
            assert np.array_equal(got, want)


class TestInfluence:
    def test_both_formulas_used(self, rng):
        # the level form vbar(n-k+1) - vbar(n-k) that influence_lovasz
        # returns equals the Moebius-average form sum_s C(n-k, s-1) mbar(s)
        for _ in range(30):
            n = rng.randint(1, 6)
            v = random_set_function(rng, n)
            mbar = level_averages(v).mbar
            for k in range(1, n + 1):
                assert influence_lovasz(v, k) == sum(
                    comb(n - k, s - 1) * mbar[s] for s in range(1, n - k + 2))

    def test_arithmetic_mean(self):
        for n in range(1, 7):
            v = SetFunction(n, tuple(Fraction(bin(s).count("1"), n)
                                     for s in range(1 << n)))
            assert level_averages(v).influence_profile() == (Fraction(1, n),) * n

    def test_min_capacity(self):
        n = 3
        full = (1 << n) - 1
        v = SetFunction(n, tuple(Fraction(1 if mask == full else 0)
                                 for mask in range(1 << n)))
        assert level_averages(v).influence_profile() == (
            Fraction(1), Fraction(0), Fraction(0))

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
            poly = poly_add(
                polynomial(n, constant=vbar[0]),
                *(poly_scale(os_function(n, k), vbar[n - k + 1] - vbar[n - k])
                  for k in range(1, n + 1)))
            for k in range(1, n + 1):
                assert influence_lovasz(v, k) == influence_exact(poly, k)
            assert level_averages(v).mean() == integral(poly)
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
            assert (level_averages(w).influence_profile()
                    == level_averages(v).influence_profile())

    def test_duality(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            v = random_set_function(rng, n)
            vd = dual_set_function(v)
            profile = level_averages(v).influence_profile()
            dual_profile = level_averages(vd).influence_profile()
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
                    coeffs = expand_subset_sum(n, size, j)
                    sym = poly_add(
                        polynomial(n),
                        *(poly_scale(os_function(n, slot), Fraction(c, comb(n, size)))
                          for slot, c in enumerate(coeffs, start=1) if c))
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

    @pytest.mark.parametrize("n, level, witnesses", [
        (3, lambda size: size == 3, {"profile": 2, "vbar": 3, "mbar": 3}),
        (4, lambda size: max(0, size - 2), {"profile": 3, "vbar": 3,
                                            "mbar": 3}),
    ], ids=["min-capacity-n3", "size-minus-2-n4"])
    def test_first_violated_levels(self, n, level, witnesses):
        # the table format prints the dict, so its order is pinned too
        v = SetFunction(n, tuple(Fraction(level(bin(mask).count("1")))
                                 for mask in range(1 << n)))
        diag = equal_influence_class(v)
        assert list(diag.witnesses.items()) == list(witnesses.items())
        assert not (diag.profile_flat or diag.vbar_arithmetic
                    or diag.mbar_vanishing)


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
        from ordinfluence import Evaluator
        from ordinfluence.lovasz import lovasz_eval_batch
        for _ in range(8):
            n = rng.randint(1, 3)
            v = random_set_function(rng, n, zero_grounded=False)
            values = np.array([float(t) for t in v.values])
            ev = Evaluator(n, lambda x, values=values: lovasz_eval_batch(
                values, x, sorted_columns(x)))
            oracle = tensor_quadrature(ev, 48)
            assert float(level_averages(v).mean()) == pytest.approx(oracle, abs=1e-3)

    def test_norm_sq_known_cases(self):
        # min(x1, x2): <f,f> = 1/6; extension of v(S)=1 iff S={1,2}
        v = SetFunction(2, (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
        assert norm_sq_lovasz(v) == Fraction(1, 6)
        assert level_averages(v).mean() == Fraction(1, 3)
        # max(x1, x2): <f,f> = 1/2
        w = SetFunction(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(1)))
        assert norm_sq_lovasz(w) == Fraction(1, 2)
        assert level_averages(w).mean() == Fraction(2, 3)

    def test_norm_sq_mc_cross_check(self, rng):
        import numpy as np
        from ordinfluence import Evaluator
        from ordinfluence.lovasz import lovasz_eval_batch
        from ordinfluence.montecarlo import mc_profile_moments
        v = random_set_function(rng, 3, zero_grounded=False)
        values = np.array([float(t) for t in v.values])
        ev = Evaluator(3, lambda x: lovasz_eval_batch(values, x,
                                                      sorted_columns(x)))
        moments = mc_profile_moments(ev, 200_000, 99)
        assert (abs(moments.norm_sq - float(norm_sq_lovasz(v)))
                <= 3 * moments.norm_sq_std_error)
