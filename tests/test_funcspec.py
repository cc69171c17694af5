"""Function-spec parsing, builtins, and engine capability flags."""

import json
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ordinfluence import (
    BUILTIN_NAMES,
    ConfigurationError,
    DomainError,
    SpecFileError,
    UnaryFactor,
    influence_profile,
    influence_value,
    monomial,
    os_function,
    parse_spec_document,
    polynomial,
    resolve_builtin,
    resolve_method,
)
from ordinfluence import cli, funcspec
from ordinfluence.funcspec import (
    FunctionSpec,
    MultiplicativeSpec,
    OrderStatPolynomialSpec,
    PlainPolynomialSpec,
    PowerProductSpec,
    RawEvaluatorSpec,
    SetFunctionSpec,
    VarianceSpec,
    load_spec_document,
)
from ordinfluence import exact, lovasz
from ordinfluence.exact import as_rational
from ordinfluence.lovasz import SetFunction, _scaled_numerators, mobius, zeta
from ordinfluence.report import format_value

NAN = float("nan")


class TestParsing:
    def test_orderstat_polynomial(self):
        doc = {"kind": "orderstat-polynomial", "arity": 2,
               "terms": [{"coefficient": "1", "exponents": {"1": 1, "2": 1}}]}
        spec = parse_spec_document(doc)
        assert isinstance(spec, OrderStatPolynomialSpec)
        assert influence_value(spec, 1, "exact") == Fraction(4, 5)

    def test_plain_polynomial_symmetrizes(self):
        doc = {"kind": "plain-polynomial", "arity": 2,
               "terms": [{"coefficient": 1, "exponents": {"1": 1}}],
               "constant": "1/3"}
        spec = parse_spec_document(doc)
        # f = x_1 + 1/3: profile (1/2, 1/2)
        assert influence_value(spec, 1, "exact") == Fraction(1, 2)
        assert influence_value(spec, 2, "exact") == Fraction(1, 2)

    def test_set_function_bitmask_order(self):
        doc = {"kind": "set-function", "arity": 2,
               "values": ["0", "1", "0", "1"]}
        # bit 0 <-> element 1, so v({1}) = 1, v({2}) = 0: f(x) depends on x_1
        spec = parse_spec_document(doc)
        assert isinstance(spec, SetFunctionSpec)
        assert spec.set_function.value({1}) == 1
        assert spec.set_function.value({2}) == 0
        assert influence_value(spec, 1, "exact") == Fraction(1, 2)

    def test_set_function_wrong_length(self):
        with pytest.raises(SpecFileError):
            parse_spec_document({"kind": "set-function", "arity": 2,
                                 "values": ["0", "1", "0"]})

    def test_multiplicative(self):
        doc = {"kind": "multiplicative", "arity": 2,
               "factors": [{"exponent": 1}, {"exponent": 1}]}
        spec = parse_spec_document(doc)
        assert isinstance(spec, MultiplicativeSpec)
        assert influence_value(spec, 1, "closed-form") == pytest.approx(0.8)

    def test_multiplicative_is_the_product_of_its_factors(self):
        exponents = (1, "2/3", 0, "-1/4")
        doc = {"kind": "multiplicative", "arity": 4,
               "factors": [{"exponent": c} for c in exponents]}
        assert parse_spec_document(doc) == MultiplicativeSpec(
            4, tuple(UnaryFactor.power(c) for c in exponents))

    def test_power_product(self):
        spec = parse_spec_document({"kind": "power-product", "arity": 3,
                                    "exponent": "1/3"})
        assert isinstance(spec, PowerProductSpec)
        assert spec.exponent == Fraction(1, 3)

    def test_power_product_bad_exponent(self):
        with pytest.raises(SpecFileError):
            parse_spec_document({"kind": "power-product", "arity": 2,
                                 "exponent": "-1/2"})

    def test_unknown_kind(self):
        with pytest.raises(SpecFileError) as err:
            parse_spec_document({"kind": "fourier", "arity": 2})
        assert err.value.location == "kind"

    def test_missing_arity(self):
        with pytest.raises(SpecFileError):
            parse_spec_document({"kind": "power-product", "exponent": 1})

    def test_bad_rational(self):
        with pytest.raises(SpecFileError):
            parse_spec_document({"kind": "set-function", "arity": 1,
                                 "values": ["x", "1"]})

    @pytest.mark.parametrize("text", [
        '{"kind": "set-function", "arity": 1, "values": [0, 0.1]}',
        '{"kind": "plain-polynomial", "arity": 1, "terms": '
        '[{"coefficient": 0.1, "exponents": {"1": 1}}]}',
        '{"kind": "orderstat-polynomial", "arity": 1, "constant": 0.7, '
        '"terms": [{"coefficient": 1e-1, "exponents": {"1": 1}}]}',
    ], ids=["set-function", "plain-polynomial", "orderstat-polynomial"])
    def test_json_decimal_is_the_decimal_it_spells(self, tmp_path, capsys,
                                                   text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert cli.main(["influence", str(path), "--all",
                         "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)["results"]
        assert row["rational"] == "1/10"

    @pytest.mark.parametrize("pool", [
        (0, 1, -3, 0.5, -0.25, "1/3", "-2/7", "0.1", "2", " 1/3", "3e2"),
        (0, 2 ** 70, -(2 ** 66) + 1, 0.75, "1/6", "-5/12", "2/3"),
    ], ids=["int64", "object"])
    def test_set_function_values_parsed_once_per_distinct_value(
            self, pool, monkeypatch):
        # each distinct JSON value is parsed once, to an integer ratio, and
        # the values hold one Fraction object per distinct rational (" 1/3"
        # and "1/3" share one)
        parsed = []
        original = funcspec._parse_ratio

        def recorded(value):
            parsed.append(value)
            return original(value)

        monkeypatch.setattr(funcspec, "_parse_ratio", recorded)
        rng = random.Random(11_2026)
        for n in (1, 3, 6, 8):
            values = [rng.choice(pool) for _ in range(1 << n)]
            parsed.clear()
            v = parse_spec_document({"kind": "set-function", "arity": n,
                                     "values": values}).set_function
            assert v == SetFunction(n, values)
            assert len(parsed) == len(set(values))
            assert len({id(x) for x in v.values}) == len(set(v.values))
            self._assert_numerators_handed_over(v)

    def test_arithmetic_mean_numerators_handed_over(self):
        for n in (1, 5, 12):
            self._assert_numerators_handed_over(
                resolve_builtin("arithmetic-mean", n).set_function)

    @staticmethod
    def _assert_numerators_handed_over(v):
        table, scale, peak = v.numerators, v.denominator, v._peak
        want_table, want_scale, want_peak = _scaled_numerators(
            [x.as_integer_ratio() for x in v.values])
        assert table.dtype == want_table.dtype
        assert table.tolist() == want_table.tolist()
        assert (scale, peak) == (want_scale, want_peak)

    @pytest.mark.parametrize("values, location", [
        (["0", "x", "1", "x"], "values[1]"),
        ([0, 1, "1/0", "1/0"], "values[2]"),
        ([0, [1], 1, [1]], "values[1]"),
        (["1", "1", {"a": 1}, "x"], "values[2]"),
        ([0, None, 1, None], "values[1]"),
        ([0, 1, float("nan"), float("nan")], "values[2]"),
        ([1, 1, 1, float("-inf")], "values[3]"),
        ([1, 0, True, True], "values[2]"),
        (["0", "x", True, "1"], "values[1]"),
        ([0, True, "x", "x"], "values[1]"),
        ([0, NAN, float("nan"), NAN], "values[1]"),
        ([0, "1", 1.0, float("nan")], "values[3]"),
    ])
    def test_set_function_bad_value_is_named_at_its_first_index(
            self, values, location):
        with pytest.raises(SpecFileError) as err:
            parse_spec_document({"kind": "set-function", "arity": 2,
                                 "values": values})
        assert err.value.location == location

    def test_bad_value_messages_are_those_of_a_single_value(self):
        # the message of a bad value in a set function is the one a
        # polynomial constant gets for it
        for bad in ("x", "1/0", [1], {"a": 1}, None, float("nan"), True):
            with pytest.raises(SpecFileError) as err:
                parse_spec_document({"kind": "set-function", "arity": 1,
                                     "values": [0, bad]})
            with pytest.raises(SpecFileError) as want:
                parse_spec_document({"kind": "plain-polynomial", "arity": 1,
                                     "constant": bad})
            assert str(err.value) == str(want.value).replace(
                "(at constant)", "(at values[1])")

    @pytest.mark.parametrize("first, second, plain", [
        (1.0, 1, 1), (1, 1.0, 1), (-0.0, 0, 0), (0, -0.0, 0)])
    def test_equal_keys_give_one_table(self, first, second, plain):
        # 1 and 1.0 are one dict key and parse to one ratio, in either order
        v, w = (parse_spec_document({"kind": "set-function", "arity": 2,
                                     "values": [a, "1/3", b, "2"]}
                                    ).set_function
                for a, b in ((first, second), (plain, plain)))
        assert v == w
        assert v.numerators.tolist() == w.numerators.tolist()

    def test_set_function_values_built_in_python(self):
        # a Fraction reads as itself; another type that json never gives is
        # refused at its first index, even where Fraction would accept it
        v = parse_spec_document({"kind": "set-function", "arity": 1,
                                 "values": [Fraction(1, 3), 0.5]})
        assert v.set_function.values == (Fraction(1, 3), Fraction(1, 2))
        with pytest.raises(SpecFileError) as err:
            parse_spec_document({"kind": "set-function", "arity": 2,
                                 "values": [0, 1, Decimal("0.5"), 1]})
        assert err.value.location == "values[2]"
        assert str(err.value) == ("expected a number or a string, got "
                                  "Decimal (at values[2])")

    def test_set_function_parse_builds_no_fraction(self, monkeypatch):
        # p/q strings, ints and plain decimals, as strings and as JSON
        # floats, go from text to the integer table without a Fraction
        rng = random.Random(41_2026)
        values = [rng.choice(["-5/12", "7/3", "0", "-0", "12", "0.125",
                              "-3.75", 4, -2, 0.1, 2.5, -0.0, 1e-3])
                  for _ in range(64)]
        doc = {"kind": "set-function", "arity": 6, "values": values}

        def no_fraction(*args):
            raise AssertionError("a Fraction was built")

        for module in (exact, funcspec, lovasz):
            monkeypatch.setattr(module, "Fraction", no_fraction)
        v = parse_spec_document(doc).set_function
        monkeypatch.undo()
        assert v == SetFunction(
            6, [repr(x) if isinstance(x, float) else x for x in values])

    def test_file_round_trip(self, tmp_path):
        doc = {"kind": "set-function", "arity": 2,
               "values": ["0", "1/2", "1/2", "1"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert load_spec_document(str(path)) == doc
        assert (parse_spec_document(load_spec_document(str(path)))
                == parse_spec_document(doc))

    def test_missing_file(self):
        with pytest.raises(SpecFileError):
            parse_spec_document(load_spec_document("/nonexistent/spec.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecFileError):
            parse_spec_document(load_spec_document(str(path)))


class TestBuiltins:
    def test_all_names_resolve(self):
        for name in BUILTIN_NAMES:
            arity = 2 if name == "conjunctive-example-6.1" else 3
            spec = resolve_builtin(name, arity)
            assert spec.arity == arity

    @pytest.mark.parametrize("n", (1, 2, 5, 6))
    def test_builtins_equal_the_specs_built_from_their_parts(self, n):
        # a builtin is the spec of its kind, with nothing that names it
        built = {
            "arithmetic-mean": SetFunctionSpec(SetFunction(n, [
                Fraction(bin(mask).count("1"), n) for mask in range(1 << n)])),
            "geometric-mean": PowerProductSpec(n, Fraction(1, n)),
            "product": PlainPolynomialSpec(
                n, [(Fraction(1), {i: 1 for i in range(1, n + 1)})]),
            "min": OrderStatPolynomialSpec(os_function(n, 1)),
            "max": OrderStatPolynomialSpec(os_function(n, n)),
            "median": OrderStatPolynomialSpec(
                os_function(n, (n + 1) // 2) if n % 2 else polynomial(n, [
                    monomial(n, {n // 2: 1}, Fraction(1, 2)),
                    monomial(n, {n // 2 + 1: 1}, Fraction(1, 2))])),
        }
        if n >= 2:
            built["variance"] = VarianceSpec(n)
        assert set(built) | {"variance", "conjunctive-example-6.1"} \
            == set(BUILTIN_NAMES)
        for name, spec in built.items():
            assert resolve_builtin(name, n) == spec, name

    def test_variance(self):
        spec = resolve_builtin("variance", 2)
        assert influence_value(spec, 1, "exact") == Fraction(-1, 5)
        assert influence_value(spec, 2, "exact") == Fraction(1, 5)

    def test_arithmetic_mean(self):
        spec = resolve_builtin("arithmetic-mean", 4)
        profile = influence_profile(spec, "exact")
        assert profile.indices == (Fraction(1, 4),) * 4

    def test_arithmetic_mean_table(self):
        # v(S) = |S| / n at every bitmask
        for n in range(1, 11):
            spec = resolve_builtin("arithmetic-mean", n)
            assert spec.set_function == SetFunction(n, tuple(
                Fraction(bin(mask).count("1"), n) for mask in range(1 << n)))

    def test_set_function_payload_formats_every_value(self):
        # strings(), which lovasz --mobius prints, equals the per-value
        # strings, also for int and float values, numerators past int64 and
        # a table a transform handed on
        rng = random.Random(5_2026)
        cases = [resolve_builtin("arithmetic-mean", n).set_function
                 for n in (1, 4, 10)]
        for n in (1, 3, 6, 8):
            cases.append(SetFunction(n, tuple(
                Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for _ in range(1 << n))))
        cases.append(SetFunction(2, (0, Fraction(1, 2), 0.5, 3)))
        cases.append(SetFunction(3, tuple(Fraction(2 ** 70 + i, 3 + i % 2)
                                          for i in range(8))))
        cases.append(zeta(mobius(cases[4])))
        # negative, zero and integral values, an int64 table and an object
        # table of them, and numerators of either sign past int64
        cases.append(SetFunction(3, (0, -1, Fraction(-7, 2), 5, 0,
                                     Fraction(-1, 3), -12, Fraction(9, 3))))
        cases.append(SetFunction(2, (0, -(2 ** 70), 2 ** 70, 3)))
        cases.append(SetFunction(2, (Fraction(-(2 ** 70) - 1, 6), 0, -4,
                                     Fraction(2 ** 66, 2))))
        assert {v.numerators.dtype for v in cases} == {
            np.dtype(np.int64), np.dtype(object)}
        for v in cases:
            assert v.strings() == [str(as_rational(x)) for x in v.values]
            for x in v.values:
                assert format_value(x) == {"value": float(x),
                                           "rational": str(x)}
        for x in (0, -3, 2 ** 70, -(2 ** 70), True, False):
            assert format_value(x) == {"value": float(x),
                                       "rational": str(Fraction(x))}
        assert format_value(0.5) == {"value": 0.5, "rational": None}

    def test_set_function_float_table(self):
        # one p / D per distinct numerator gives float(v) of every value, for
        # int64 tables and for numerators past int64 (an object table)
        rng = random.Random(17_2026)
        cases = [resolve_builtin("arithmetic-mean", n).set_function
                 for n in (1, 4, 10)]
        for n in (1, 3, 6, 8):
            cases.append(SetFunction(n, tuple(
                Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for _ in range(1 << n))))
        cases.append(SetFunction(2, (0, Fraction(1, 2), 0.1, 3)))
        cases.append(SetFunction(3, tuple(Fraction(2 ** 70 + i, 3 + i % 2)
                                          for i in range(8))))
        cases.append(SetFunction(4, tuple(
            Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.randint(1, 2 ** 40))
            for _ in range(16))))
        cases.append(zeta(mobius(cases[4])))
        assert {v.numerators.dtype for v in cases} == {
            np.dtype(np.int64), np.dtype(object)}
        for v in cases:
            table = SetFunctionSpec(v).evaluator().func.args[0]
            assert table.dtype == np.float64
            assert np.array_equal(table, np.array([float(x) for x in v.values]))

    def test_geometric_mean_is_power_product(self):
        spec = resolve_builtin("geometric-mean", 3)
        assert isinstance(spec, PowerProductSpec)
        assert spec.exponent == Fraction(1, 3)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_power_product_evaluator_equals_np_prod(self, n):
        # the column loop multiplies in np.prod's order, so values are ==
        x = np.random.default_rng(n).random((1000, n))
        for exponent in ("2/3", "1/%d" % n):
            c = float(Fraction(exponent))
            evaluator = PowerProductSpec(n, exponent).evaluator()
            assert np.array_equal(evaluator(x), np.prod(x, axis=1) ** c)
            for k in (1, n):
                assert np.array_equal(
                    evaluator.slope(x, k),
                    c * np.prod(x, axis=1) ** c / np.sort(x, axis=1)[:, k - 1])

    def test_min_max_median(self):
        assert influence_value(resolve_builtin("min", 3), 1, "exact") == 1
        assert influence_value(resolve_builtin("max", 3), 3, "exact") == 1
        med_odd = resolve_builtin("median", 3)
        assert influence_value(med_odd, 2, "exact") == 1
        med_even = resolve_builtin("median", 4)
        assert influence_value(med_even, 2, "exact") == Fraction(1, 2)
        assert influence_value(med_even, 3, "exact") == Fraction(1, 2)

    def test_size_bound_is_inclusive(self):
        doc = {"kind": "power-product", "arity": funcspec.MAX_SIZE,
               "exponent": "1/2"}
        assert parse_spec_document(doc).arity == funcspec.MAX_SIZE
        doc = {"kind": "orderstat-polynomial", "arity": 2,
               "terms": [{"coefficient": 1,
                          "exponents": {"2": funcspec.MAX_SIZE}}]}
        assert parse_spec_document(doc).poly.terms[0].exponents \
            == ((2, funcspec.MAX_SIZE),)
        doc = {"kind": "plain-polynomial", "arity": 2,
               "terms": [{"coefficient": 1, "exponents": {"2": 10 ** 9}}]}
        assert parse_spec_document(doc).terms == [(1, {2: 10 ** 9})]

    def test_product(self):
        spec = resolve_builtin("product", 2)
        assert influence_value(spec, 1, "exact") == Fraction(4, 5)

    def test_conjunctive_is_mc_only(self):
        spec = resolve_builtin("conjunctive-example-6.1", 2)
        assert isinstance(spec, RawEvaluatorSpec)
        assert spec.methods == ("mc",)
        with pytest.raises(ConfigurationError):
            resolve_method(spec, "exact")

    def test_conjunctive_values(self):
        spec = resolve_builtin("conjunctive-example-6.1", 2)
        f = spec.evaluator()
        x = np.array([[0.5, 0.5], [0.8, 0.1], [0.8, 0.5], [0.9, 0.9]])
        assert f(x) == pytest.approx([0.0, 0.1, 0.25, 0.25])
        # the threshold takes 3/4 itself, and the map's bits are those of the
        # select on [0, 1]^2, zeros included
        x = np.array([[0.75, 0.1], [0.2, 0.75], [0.7499999, 0.3], [0.0, 0.0],
                      [1.0, 0.0], [0.75, 0.75]])
        x = np.concatenate([x, np.random.default_rng(6).random((1000, 2))])
        want = np.where(np.maximum(x[:, 0], x[:, 1]) < 0.75, 0.0,
                        np.minimum(np.minimum(x[:, 0], x[:, 1]), 0.25))
        assert f(x)[:6].tolist() == [0.1, 0.2, 0.0, 0.0, 0.0, 0.25]
        assert f(x).tobytes() == want.tobytes()

    def test_conjunctive_arity_restriction(self):
        with pytest.raises(DomainError):
            resolve_builtin("conjunctive-example-6.1", 3)

    def test_unknown_builtin(self):
        with pytest.raises(SpecFileError):
            resolve_builtin("entropy", 2)


class TestMethodResolution:
    def test_auto_preference(self):
        assert resolve_method(resolve_builtin("min", 3), "auto") == "exact"
        assert resolve_method(resolve_builtin("geometric-mean", 3),
                              "auto") == "closed-form"
        assert resolve_method(resolve_builtin("conjunctive-example-6.1", 2),
                              "auto") == "mc"

    def test_incompatible(self):
        with pytest.raises(ConfigurationError):
            resolve_method(resolve_builtin("geometric-mean", 3), "exact")

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            resolve_method(resolve_builtin("min", 3), "quantum")

    @pytest.mark.parametrize("method", ["exact", "mc"])
    @pytest.mark.parametrize("k", [0, 4])
    def test_rank_outside_the_arity(self, method, k):
        # refused before any engine runs
        with pytest.raises(DomainError) as err:
            influence_value(resolve_builtin("min", 3), k, method, samples=2)
        assert str(err.value) == "rank %d outside [1, 3]" % k

    def test_every_spec_supports_mc(self):
        docs = [
            {"kind": "orderstat-polynomial", "arity": 2,
             "terms": [{"coefficient": 1, "exponents": {"1": 1}}]},
            {"kind": "plain-polynomial", "arity": 2,
             "terms": [{"coefficient": 1, "exponents": {"1": 1}}]},
            {"kind": "set-function", "arity": 2, "values": [0, 0, 0, 1]},
            {"kind": "multiplicative", "arity": 2,
             "factors": [{"exponent": 1}, {"exponent": 2}]},
            {"kind": "power-product", "arity": 2, "exponent": 1},
        ]
        for doc in docs:
            spec = parse_spec_document(doc)
            assert "mc" in spec.methods
            est = influence_value(spec, 1, "mc", samples=5000, seed=1)
            assert np.isfinite(est.value)


EXACT_MC, CLOSED_MC = ("exact", "mc"), ("closed-form", "mc")
# (doc, class, methods, evaluator name); a builtin's doc is None
DECLARATIONS = {
    "orderstat-polynomial": (
        {"kind": "orderstat-polynomial", "arity": 2, "terms": [
            {"coefficient": 1, "exponents": {"1": 1, "2": 1}}]},
        OrderStatPolynomialSpec, EXACT_MC, "orderstat-polynomial"),
    "plain-polynomial": (
        {"kind": "plain-polynomial", "arity": 2, "constant": "1/3", "terms": [
            {"coefficient": "1/2", "exponents": {"1": 2}}]},
        PlainPolynomialSpec, EXACT_MC, "plain-polynomial"),
    "set-function": (
        {"kind": "set-function", "arity": 1, "values": [0, "1/2"]},
        SetFunctionSpec, EXACT_MC, "set-function"),
    "multiplicative": (
        {"kind": "multiplicative", "arity": 2,
         "factors": [{"exponent": 1}, {"exponent": "2/3"}]},
        MultiplicativeSpec, CLOSED_MC, "multiplicative"),
    "power-product": (
        {"kind": "power-product", "arity": 3, "exponent": "1/3"},
        PowerProductSpec, CLOSED_MC, "power-product"),
    "variance": (None, VarianceSpec, EXACT_MC, "plain-polynomial"),
    "arithmetic-mean": (None, SetFunctionSpec, EXACT_MC, "set-function"),
    "geometric-mean": (None, PowerProductSpec, CLOSED_MC, "power-product"),
    "product": (None, PlainPolynomialSpec, EXACT_MC, "plain-polynomial"),
    "min": (None, OrderStatPolynomialSpec, EXACT_MC, "orderstat-polynomial"),
    "max": (None, OrderStatPolynomialSpec, EXACT_MC, "orderstat-polynomial"),
    "median": (None, OrderStatPolynomialSpec, EXACT_MC,
               "orderstat-polynomial"),
    "conjunctive-example-6.1": (
        None, RawEvaluatorSpec, ("mc",), "conjunctive-example-6.1"),
}


def declared_doc(name):
    doc = DECLARATIONS[name][0]
    return doc or {"kind": "builtin", "name": name, "arity": 2}


class TestDeclarations:
    """Each kind, and each builtin at arity 2, states its engine once: the
    methods, the label of its moments and the evaluator follow from it."""

    def test_every_kind_and_builtin_is_pinned(self):
        def subclasses(cls):
            return [c for sub in cls.__subclasses__()
                    for c in [sub] + subclasses(sub)]
        kinds = {cls for _, cls, *_ in DECLARATIONS.values()}
        assert kinds == set(subclasses(FunctionSpec)) - {self.Bare}
        assert set(BUILTIN_NAMES) <= set(DECLARATIONS)

    @pytest.mark.parametrize("name", list(DECLARATIONS))
    def test_declaration(self, name):
        _, cls, methods, evaluator_name = DECLARATIONS[name]
        spec = parse_spec_document(declared_doc(name))
        assert type(spec) is cls
        assert spec.methods == methods
        assert resolve_method(spec) == methods[0]
        if cls.engine is None:
            with pytest.raises(ConfigurationError):
                spec.moments(False)
        else:
            assert spec.moments(False).method == cls.engine == methods[0]
        assert spec.evaluator().name == evaluator_name

    @pytest.mark.parametrize("name", list(DECLARATIONS))
    def test_report_echoes_the_spec_file(self, name, tmp_path, capsys):
        # every command that accepts the spec reports the file's document
        # as written, a builtin by its name
        doc = declared_doc(name)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        mc = ["--samples", "2000", "--seed", "1"]
        runs = [["influence", "--all"] + mc, ["approx"] + mc,
                ["crosscheck", "-k", "1"] + mc]
        if DECLARATIONS[name][1] is SetFunctionSpec:
            runs.append(["lovasz", "--mobius"])
        for argv in runs:
            code = cli.main([argv[0], str(path)] + argv[1:]
                            + ["--format", "json"])
            # crosscheck prints its report also when the estimates disagree
            assert code in ((0, 5) if argv[0] == "crosscheck" else (0,))
            assert json.loads(capsys.readouterr().out)["spec"] == doc

    class Bare(FunctionSpec):
        kind = "bare"
        _fields = ("arity",)

        def __init__(self, arity):
            self.arity = arity

    def test_kind_without_engine_is_mc_only(self):
        spec = self.Bare(3)
        assert spec.methods == ("mc",)
        assert resolve_method(spec) == "mc"
        with pytest.raises(ConfigurationError, match="bare functions"):
            spec.moments()
