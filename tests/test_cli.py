"""CLI contract tests: exit codes, output formats, and report round trips."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ordinfluence import (
    ConfigurationError,
    Evaluator,
    QuadratureError,
    api,
    cli,
    funcspec,
    lovasz,
    montecarlo,
)
from ordinfluence.funcspec import RawEvaluatorSpec
from ordinfluence.report import ReportDocument


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


PRODUCT_DOC = {"kind": "orderstat-polynomial", "arity": 2,
               "terms": [{"coefficient": 1, "exponents": {"1": 1, "2": 1}}]}
MEAN_DOC = {"kind": "set-function", "arity": 3,
            "values": ["0", "1/3", "1/3", "2/3", "1/3", "2/3", "2/3", "1"]}
POWER_DOC = {"kind": "power-product", "arity": 3, "exponent": "1/2"}


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        path = write_spec(tmp_path, PRODUCT_DOC)
        assert cli.main(["influence", path, "--all"]) == 0
        out = capsys.readouterr().out
        assert "4/5" in out and "1/5" in out

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "nope", "arity": 2})
        assert cli.main(["influence", path, "-k", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self):
        assert cli.main(["influence", "/no/such/file.json", "-k", "1"]) == 2

    @pytest.mark.parametrize("content, env_seed, message", [
        (json.dumps(PRODUCT_DOC).encode(), "abc",
         "ORDINFLUENCE_SEED must be an integer, got 'abc' "
         "(at ORDINFLUENCE_SEED)"),
        (json.dumps(PRODUCT_DOC).encode(), "-1",
         "ORDINFLUENCE_SEED must lie in [0, 2^64), got '-1' "
         "(at ORDINFLUENCE_SEED)"),
        (json.dumps(PRODUCT_DOC).encode(), "18446744073709551616",
         "ORDINFLUENCE_SEED must lie in [0, 2^64), got "
         "'18446744073709551616' (at ORDINFLUENCE_SEED)"),
        (json.dumps({"kind": "plain-polynomial", "arity": 2,
                     "terms": [{"coefficient": 1, "exponents": [1]}]}).encode(),
         None, "exponents must be an object (at terms[0])"),
        (json.dumps({"kind": "plain-polynomial", "arity": 2,
                     "terms": 5}).encode(), None,
         "terms must be a list (at terms)"),
        (b'{"kind": "builtin", "name": "min\xff", "arity": 2}', None,
         "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position "
         "32: invalid start byte (at {path})"),
        (b"[1]", None, "spec document must be a JSON object (at $)"),
        (json.dumps({"kind": "plain-polynomial", "arity": 2,
                     "terms": [5]}).encode(), None,
         "term must be an object (at terms[0])"),
        (json.dumps({"kind": "plain-polynomial", "arity": 2, "terms": [
            {"coefficient": 1, "exponents": {"x": 1}}]}).encode(), None,
         "bad index 'x' (at terms[0])"),
        (json.dumps({"kind": "orderstat-polynomial", "arity": 2, "terms": [
            {"coefficient": 1, "exponents": {"3": 1}}]}).encode(), None,
         "index 3 outside [1, 2] (at terms[0])"),
        (json.dumps({"kind": "multiplicative", "arity": 2,
                     "factors": [{"exponent": 1}]}).encode(), None,
         "multiplicative payload needs exactly 2 factors (at factors)"),
        (json.dumps({"kind": "multiplicative", "arity": 2,
                     "factors": [{"exponent": 1}, 2]}).encode(), None,
         "factor must be an object (at factors[1])"),
        (json.dumps({"kind": "multiplicative", "arity": 2, "factors": [
            {"exponent": 1}, {"exponent": "-1/2"}]}).encode(), None,
         "factor exponent must exceed -1/2 (at factors[1])"),
    ], ids=["seed-variable", "seed-variable-negative",
            "seed-variable-2-to-the-64", "exponents-not-object",
            "terms-not-list", "not-utf8", "document-not-object",
            "term-not-object", "bad-index", "index-outside", "factor-count",
            "factor-not-object", "factor-exponent"])
    def test_bad_outside_input_exits_2(self, tmp_path, capsys, monkeypatch,
                                       content, env_seed, message):
        if env_seed is None:
            monkeypatch.delenv("ORDINFLUENCE_SEED", raising=False)
        else:
            monkeypatch.setenv("ORDINFLUENCE_SEED", env_seed)
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        assert cli.main(["influence", str(path), "-k", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s\n" % message.replace("{path}", str(path))

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616",
                                      "18446744073709551617"])
    def test_seed_option_outside_64_bits_exits_2(self, tmp_path, capsys,
                                                 seed):
        # the streams are keyed on the seed modulo 2^64, so these would
        # print the numbers of 2^64 - 1, 0 and 1 under another seed
        path = write_spec(tmp_path, PRODUCT_DOC)
        assert cli.main(["influence", path, "-k", "1", "--method", "mc",
                         "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed must lie in [0, 2^64), got %s " \
                      "(at --seed)\n" % seed

    @pytest.mark.parametrize("kind", ["plain-polynomial",
                                      "orderstat-polynomial"])
    def test_index_named_twice_exits_2(self, tmp_path, capsys, kind):
        # "1" and "01" name the same variable or slot; keeping either
        # exponent would silently drop the other
        doc = {"kind": kind, "arity": 2,
               "terms": [{"coefficient": 1, "exponents": {"2": 1}},
                         {"coefficient": 1, "exponents": {"1": 1, "01": 2}}]}
        assert cli.main(["approx", write_spec(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: index 1 named twice (at terms[1])\n"

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "builtin", "name": "min", "arity": 2, "arity": 3}',
         "key 'arity' named twice"),
        ('{"kind": "plain-polynomial", "arity": 2, "terms": [{"coefficient": '
         '1, "exponents": {"1": 1, "1": 2}}]}', "key '1' named twice"),
        ("[" * 100000, "recursion depth"),
        ('{"kind": "builtin", "name": "min", "arity": 1%s}' % ("0" * 4999),
         "digits"),
    ], ids=["duplicate-arity", "duplicate-exponent", "deep-nesting",
            "long-integer"])
    def test_malformed_json_exits_2(self, tmp_path, capsys, text, message):
        # json.load keeps the last of two equal keys, and raises
        # RecursionError or a plain ValueError on the last two
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert cli.main(["influence", str(path), "--all"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid JSON: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "builtin", "name": "min", "arity": 10 ** 12},
         "arity exceeds 1000 (at arity)"),
        ({"kind": "builtin", "name": "variance", "arity": 10 ** 12},
         "arity exceeds 1000 (at arity)"),
        ({"kind": "plain-polynomial", "arity": 10 ** 12,
          "terms": [{"coefficient": 1, "exponents": {"1": 1}}]},
         "arity exceeds 1000 (at arity)"),
        ({"kind": "orderstat-polynomial", "arity": 10 ** 12,
          "terms": [{"coefficient": 1, "exponents": {"1": 1}}]},
         "arity exceeds 1000 (at arity)"),
        ({"kind": "power-product", "arity": 10 ** 12, "exponent": "1/2"},
         "arity exceeds 1000 (at arity)"),
        ({"kind": "orderstat-polynomial", "arity": 3,
          "terms": [{"coefficient": 1, "exponents": {"1": 10 ** 9}}]},
         "exponent exceeds 1000 (at terms[0])"),
    ], ids=["min", "variance", "plain-polynomial", "orderstat-polynomial",
            "power-product", "orderstat-exponent"])
    def test_oversized_arity_or_exponent_exits_2(self, tmp_path, capsys,
                                                 doc, message):
        # refused at parse time: each of these ran out of time or memory
        path = write_spec(tmp_path, doc)
        for command in (["influence", "--all"], ["approx"]):
            assert cli.main([command[0], path] + command[1:]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: %s\n" % message

    @pytest.mark.parametrize("kind", ["plain-polynomial",
                                      "orderstat-polynomial"])
    def test_term_count_bound_is_inclusive(self, tmp_path, capsys, kind):
        # <f, f> visits every pair of terms, so the term count is bounded
        # like the arity: an approx of 10^5 terms ran for hours
        terms = [{"coefficient": 1, "exponents": {str(i % 40 + 1): i // 40 + 1}}
                 for i in range(funcspec.MAX_SIZE + 1)]
        doc = {"kind": kind, "arity": 40, "terms": terms[:-1]}
        assert cli.main(["influence", write_spec(tmp_path, doc), "--all"]) == 0
        assert len(capsys.readouterr().out.splitlines()) > 40
        doc["terms"] = terms
        assert cli.main(["influence", write_spec(tmp_path, doc), "--all"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: more than 1000 terms (at terms)\n"

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "builtin", "name": "arithmetic-mean", "arity": 21},
         "arity 21 outside [1, 20] (at arity)"),
        ({"kind": "builtin", "name": "variance", "arity": 1},
         "variance needs arity >= 2 (at arity)"),
        ({"kind": "builtin", "name": "conjunctive-example-6.1", "arity": 3},
         "the conjunctive threshold builtin is binary (at arity)"),
    ], ids=["arithmetic-mean", "variance", "conjunctive"])
    def test_arity_the_builtin_does_not_take_exits_2(self, tmp_path, capsys,
                                                     doc, message):
        assert cli.main(["approx", write_spec(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s\n" % message

    def test_oversized_set_function_arity_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "set-function", "arity": 20000,
                                     "values": []})
        assert cli.main(["influence", path, "--all"]) == 2
        err = capsys.readouterr().err
        assert "arity" in err and "Traceback" not in err

    def test_set_function_arity_is_checked_before_the_table(
            self, tmp_path, capsys, monkeypatch):
        built, parsed = [], []
        monkeypatch.setattr(lovasz, "MAX_ARITY", 3)
        monkeypatch.setattr(funcspec, "_arithmetic_mean_set_function",
                            lambda n: built.append(n))
        monkeypatch.setattr(funcspec, "_parse_rational",
                            lambda value, location: parsed.append(value))
        for doc in ({"kind": "builtin", "name": "arithmetic-mean", "arity": 4},
                    {"kind": "set-function", "arity": 4, "values": ["0"] * 16}):
            assert cli.main(["influence", write_spec(tmp_path, doc),
                             "--all"]) == 2
        assert not built and not parsed

    @pytest.mark.parametrize("text, value, location", [
        ('{"kind": "set-function", "arity": 1, "values": [0, 1e400]}',
         "inf", "values[1]"),
        ('{"kind": "plain-polynomial", "arity": 1, "terms": '
         '[{"coefficient": -1e400, "exponents": {"1": 1}}]}', "-inf",
         "terms[0]"),
        ('{"kind": "power-product", "arity": 2, "exponent": 1e400}',
         "inf", "exponent"),
    ], ids=["value", "coefficient", "exponent"])
    def test_infinite_rational_exits_2(self, tmp_path, capsys, text, value,
                                       location):
        # JSON reads 1e400 as an infinite float, which has no rational value
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert cli.main(["influence", str(path), "--all"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot parse rational from %s (at %s)\n" % (value, location))

    @pytest.mark.parametrize("doc, command", [
        ({"kind": "set-function", "arity": 1, "values": ["0", "1e400"]},
         ["influence", "--all"]),
        ({"kind": "set-function", "arity": 1, "values": ["0", "1e400"]},
         ["approx"]),
        # the values are finite floats, but <f, f> is about 1e400
        ({"kind": "set-function", "arity": 1, "values": ["0", "1e200"]},
         ["approx"]),
        ({"kind": "power-product", "arity": 2, "exponent": "1e400"},
         ["influence", "--all"]),
        ({"kind": "plain-polynomial", "arity": 1,
          "terms": [{"coefficient": "1e400", "exponents": {"1": 1}}]},
         ["influence", "--all"]),
    ], ids=["value-influence", "value-approx", "norm-approx", "exponent",
            "coefficient"])
    def test_float_overflow_exits_3(self, tmp_path, capsys, doc, command):
        # a rational string such as "1e400" is exact, but too large to
        # report as a float
        path = write_spec(tmp_path, doc)
        assert cli.main([command[0], path] + command[1:]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, location", [
        ({"kind": "builtin", "name": "min", "arity": True}, "arity"),
        ({"kind": "set-function", "arity": True, "values": [0, 1]}, "arity"),
        ({"kind": "set-function", "arity": 1, "values": [False, 1]},
         "values[0]"),
        # true equals 1 and hashes like it, and must not pass as a repeat
        ({"kind": "set-function", "arity": 2, "values": [0, 1, True, 1]},
         "values[2]"),
        ({"kind": "plain-polynomial", "arity": 1,
          "terms": [{"coefficient": True, "exponents": {"1": 1}}]},
         "terms[0]"),
        ({"kind": "plain-polynomial", "arity": 1,
          "terms": [{"coefficient": 1, "exponents": {"1": True}}]},
         "terms[0]"),
        ({"kind": "orderstat-polynomial", "arity": 1, "constant": False,
          "terms": []}, "constant"),
        ({"kind": "multiplicative", "arity": 1,
          "factors": [{"exponent": True}]}, "factors[0]"),
        ({"kind": "power-product", "arity": 1, "exponent": False},
         "exponent"),
    ], ids=["arity", "set-function-arity", "value", "value-after-1",
            "coefficient", "exponent", "constant", "factor-exponent",
            "power-exponent"])
    def test_boolean_number_exits_2(self, tmp_path, capsys, doc, location):
        path = write_spec(tmp_path, doc)
        assert cli.main(["influence", path, "--all"]) == 2
        assert "(at %s)" % location in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "plain-polynomial", "arity": 1, "constnat": "5", "terms": '
         '[{"coefficient": 1, "exponents": {"1": 1}}]}',
         "unknown field 'constnat' (at $)"),
        ('{"kind": "power-product", "arity": 2, "exponet": 2, "exponent": 1}',
         "unknown field 'exponet' (at $)"),
        ('{"kind": "builtin", "name": "min", "arity": 2, "builtin": "min"}',
         "unknown field 'builtin' (at $)"),
        ('{"kind": "orderstat-polynomial", "arity": 2, "terms": [{"coefficient"'
         ': 1, "exponents": {"1": 1}}, {"coeficient": 1, "exponents": {}}]}',
         "unknown field 'coeficient' (at terms[1])"),
        ('{"kind": "plain-polynomial", "arity": 2, "terms": [{"coefficient": '
         '1, "exponents": {"1": 1}, "exponent": {"2": 1}}]}',
         "unknown field 'exponent' (at terms[0])"),
        ('{"kind": "multiplicative", "arity": 2, "factors": [{"exponent": 1}, '
         '{"exponent": 1, "callable": "sin"}]}',
         "unknown field 'callable' (at factors[1])"),
        # nested deeper than the report's JSON writer could echo
        ('{"kind": "power-product", "arity": 2, "exponent": 1, "note": %s%s}'
         % ("[" * 600, "]" * 600), "unknown field 'note' (at $)"),
    ], ids=["top-level", "misspelled-required", "builtin", "term",
            "plain-term", "factor", "deep"])
    def test_unknown_field_exits_2(self, tmp_path, capsys, text, message):
        # the report echoes the spec document, so it holds no field that
        # the kind ignores
        path = tmp_path / "spec.json"
        path.write_text(text)
        for command in (["influence", "--all"], ["approx"]):
            assert cli.main([command[0], str(path)] + command[1:]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: %s\n" % message

    @pytest.mark.parametrize("doc", [
        {"kind": "power-product", "arity": 400, "exponent": 3},
        {"kind": "power-product", "arity": 1000, "exponent": 1},
        {"kind": "multiplicative", "arity": 60,
         "factors": [{"exponent": 10 ** 6}] * 60},
    ], ids=["power-product-400", "power-product-1000", "multiplicative"])
    def test_closed_form_norm_below_the_float_range_exits_3(
            self, tmp_path, capsys, doc):
        # <f, f> = 7^-400 rounds to 0.0, but f is not constant; the indices
        # need no <f, f>
        path = write_spec(tmp_path, doc)
        assert cli.main(["approx", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: a value is beyond the float range: ")
        assert err.count("\n") == 1
        assert cli.main(["influence", path, "--all", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        assert len(rows) == doc["arity"]
        assert all(math.isfinite(row["value"]) for row in rows)

    def test_incompatible_method_exits_3(self, tmp_path):
        path = write_spec(tmp_path, {"kind": "power-product", "arity": 2,
                                     "exponent": 1})
        assert cli.main(["influence", path, "-k", "1", "--method", "exact"]) == 3

    def test_lovasz_wrong_kind_exits_3(self, tmp_path):
        path = write_spec(tmp_path, PRODUCT_DOC)
        assert cli.main(["lovasz", path]) == 3

    def test_rank_out_of_range_exits_3(self, tmp_path, capsys):
        path = write_spec(tmp_path, PRODUCT_DOC)
        for command, k in (("influence", 9), ("crosscheck", 9),
                           ("crosscheck", 0)):
            assert cli.main([command, path, "-k", str(k)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: rank %d outside [1, 2]\n" % k

    def test_tainted_mc_exits_4(self, tmp_path, monkeypatch):
        path = write_spec(tmp_path, PRODUCT_DOC)
        bad = RawEvaluatorSpec(Evaluator(2, lambda x: np.full(len(x), np.nan),
                                         name="nan"))
        monkeypatch.setattr(cli, "parse_spec_document", lambda _: bad)
        assert cli.main(["influence", path, "-k", "1", "--method", "mc",
                         "--samples", "1000"]) == 4

    @pytest.mark.parametrize("command", [["influence", "--all"], ["approx"]],
                             ids=["influence", "approx"])
    def test_overflowing_mc_products_exit_4(self, tmp_path, capsys, command):
        # every value of 1e200 x_(1) is finite, but its square and the outer
        # products of the moments overflow; those of 1e153 x_(1) stay finite
        # until the covariance of the indices scales them by ((n+1)(n+2))^2.
        # numpy warns of none of them
        for coefficient in ("1e200", "1e153"):
            path = write_spec(tmp_path, {
                "kind": "orderstat-polynomial", "arity": 3,
                "terms": [{"coefficient": coefficient,
                           "exponents": {"1": 1}}]})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main([command[0], path, *command[1:], "--method",
                                 "mc", "--samples", "1000", "--seed", "0"])
            out, err = capsys.readouterr()
            assert code == 4 and out == "", coefficient
            assert err == ("error: a product of finite evaluator values "
                           "overflowed\n"), coefficient

    def test_largest_finite_mc_covariance_exits_0(self, tmp_path, capsys):
        # one decade below the overflow of the indices' covariance, every
        # standard error is finite
        path = write_spec(tmp_path, {
            "kind": "orderstat-polynomial", "arity": 3,
            "terms": [{"coefficient": "1e152", "exponents": {"1": 1}}]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["influence", path, "--all", "--method", "mc",
                             "--samples", "1000", "--seed", "0",
                             "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        assert len(rows) == 3
        for row in rows:
            assert math.isfinite(row["se"]) and row["se"] > 0, row

    @pytest.mark.parametrize("error, code", [
        (ConfigurationError("no closed form for this function"), 3),
        (QuadratureError("quadrature error above tolerance", 1e-3), 6),
    ], ids=["configuration", "quadrature"])
    def test_closed_form_failures_exit_with_their_code(self, tmp_path, capsys,
                                                       monkeypatch, error, code):
        path = write_spec(tmp_path, {"kind": "power-product", "arity": 2,
                                     "exponent": 1})

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.api, "function_moments", failing)
        assert cli.main(["approx", path]) == code
        assert "error" in capsys.readouterr().err

    def test_crosscheck_agreement_exits_0(self, tmp_path, capsys):
        path = write_spec(tmp_path, PRODUCT_DOC)
        code = cli.main(["crosscheck", path, "-k", "1",
                         "--samples", "40000", "--seed", "12"])
        assert code == 0
        assert "max_z" in capsys.readouterr().out

    def test_crosscheck_disagreement_exits_5(self, tmp_path, capsys,
                                             monkeypatch):
        path = write_spec(tmp_path, PRODUCT_DOC)
        from ordinfluence.montecarlo import IntegrationEstimate

        def biased(f, k, samples, seed):
            return IntegrationEstimate(5.0, 1e-6, samples, seed, "covariance")

        monkeypatch.setattr(montecarlo, "influence_mc_covariance", biased)
        code = cli.main(["crosscheck", path, "-k", "1", "--samples", "5000",
                         "--estimators",
                         "covariance,diff-quotient-triangular"])
        assert code == 5
        # the table is still emitted
        assert "z_scores" in capsys.readouterr().out

    def test_crosscheck_zero_error_disagreement_exits_5(self, tmp_path,
                                                        capsys, monkeypatch):
        # a wrong value with no error bar must not pass as agreement with
        # the exact reference, whose error is zero too
        path = write_spec(tmp_path, PRODUCT_DOC)
        from ordinfluence.montecarlo import IntegrationEstimate

        def wrong(f, k, samples, seed):
            return IntegrationEstimate(5.0, 0.0, samples, seed, "covariance")

        monkeypatch.setattr(montecarlo, "influence_mc_covariance", wrong)
        argv = ["crosscheck", path, "-k", "1", "--samples", "5000",
                "--estimators", "covariance"]
        assert cli.main(argv) == 5
        assert "max_z: inf" in capsys.readouterr().out
        assert cli.main(argv + ["--format", "json"]) == 5
        # the infinite z-score is written as null, never as a bare Infinity
        extras = json.loads(capsys.readouterr().out,
                            parse_constant=_reject_constant)["extras"]
        assert extras["max_z"] is None
        assert extras["agreement"] is False

    def test_unknown_estimator_exits_3(self, tmp_path):
        path = write_spec(tmp_path, PRODUCT_DOC)
        assert cli.main(["crosscheck", path, "-k", "1",
                         "--estimators", "bootstrap"]) == 3

    @pytest.mark.parametrize("estimators", ["covariance,covariance", ","],
                             ids=["repeated", "empty"])
    def test_repeated_or_no_estimator_exits_3(self, tmp_path, capsys,
                                              estimators):
        path = write_spec(tmp_path, PRODUCT_DOC)
        assert cli.main(["crosscheck", path, "-k", "1", "--samples", "2000",
                         "--estimators", estimators]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_degenerate_variance_warns_exit_0(self, tmp_path, capsys):
        doc = {"kind": "orderstat-polynomial", "arity": 2, "constant": "2",
               "terms": []}
        path = write_spec(tmp_path, doc)
        assert cli.main(["approx", path]) == 0
        assert "degenerate" in capsys.readouterr().out

    @pytest.mark.parametrize("sign", [1, -1])
    def test_variance_below_the_float_range_keeps_normalized_finite(
            self, tmp_path, capsys, sign):
        # sigma(x_(1)^400) at n = 400 is below 1e-308, while |r(f, k)| <= 1;
        # x_(1) and 2 - 3 x_1 at n = 1 lie in the span, where r(f, 1) = +-1
        # and a float quotient of floats would round past 1
        docs = [
            ({"kind": "orderstat-polynomial", "arity": 400,
              "terms": [{"coefficient": sign, "exponents": {"1": 400}}]}, 1),
            ({"kind": "orderstat-polynomial", "arity": 1,
              "terms": [{"coefficient": sign, "exponents": {"1": 1}}]}, 1),
            ({"kind": "plain-polynomial", "arity": 1, "constant": 2 * sign,
              "terms": [{"coefficient": -3 * sign, "exponents": {"1": 1}}]},
             -1),
        ]
        for doc, first in docs:
            path = write_spec(tmp_path, doc)
            assert cli.main(["approx", path, "--method", "exact",
                             "--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)["results"]
            assert len(rows) == doc["arity"]
            for row in rows:
                r = row["normalized"]
                assert math.isfinite(r) and abs(r) <= 1, (doc, row)
                assert r == 0 or (r > 0) == (Fraction(row["rational"]) > 0), row
            assert rows[0]["normalized"] * sign * first > 0, doc
            if doc["arity"] == 1:
                assert abs(rows[0]["normalized"]) == 1.0, doc

    def test_estimated_r_squared_above_one_warns(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "builtin", "arity": 10,
                                     "name": "arithmetic-mean"})
        assert cli.main(["approx", path, "--method", "mc", "--samples",
                         "100000", "--seed", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        r2 = doc["extras"]["r_squared"]["value"]
        se = doc["extras"]["r_squared_se"]
        assert r2 > 1
        assert doc["warnings"] == ["r-squared-above-one: estimated R^2 = "
                                   "%.6g (se %.2g) exceeds 1, its upper "
                                   "bound" % (r2, se)]


class TestFormats:
    def test_json_round_trip(self, tmp_path, capsys):
        path = write_spec(tmp_path, MEAN_DOC)
        assert cli.main(["approx", path, "--format", "json"]) == 0
        text = capsys.readouterr().out
        doc = ReportDocument.from_json(text)
        assert doc.to_json() + "\n" == text
        assert doc.command == "approx"

    @pytest.mark.parametrize("spec_doc, command, options", [
        (PRODUCT_DOC, "influence", ["--all"]),
        (PRODUCT_DOC, "influence", ["-k", "2", "--method", "mc",
                                    "--samples", "2000"]),
        (MEAN_DOC, "approx", []),
        (PRODUCT_DOC, "approx", ["--method", "mc", "--samples", "2000"]),
        ({"kind": "power-product", "arity": 3, "exponent": "1/2"}, "approx",
         ["--method", "closed-form"]),
        (MEAN_DOC, "lovasz", ["--mobius", "--symmetric-part",
                              "--diagnose-equal-influence"]),
        (PRODUCT_DOC, "crosscheck", ["-k", "1", "--samples", "2000"]),
    ])
    def test_json_is_the_asdict_rendering(self, tmp_path, spec_doc, command,
                                          options):
        path = write_spec(tmp_path, spec_doc)
        args = cli._build_parser().parse_args(
            [command, path, *options, "--seed", "3"])
        doc = getattr(cli, "cmd_" + command)(args)
        if command == "crosscheck":
            doc, _ = doc
        text = doc.to_json()
        assert text == json.dumps(vars(doc), indent=2, sort_keys=True)
        assert ReportDocument.from_json(text).to_json() == text

    def test_exact_decimal_matches_rational(self, tmp_path, capsys):
        path = write_spec(tmp_path, PRODUCT_DOC)
        cli.main(["influence", path, "--all", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        from fractions import Fraction
        for row in doc["results"]:
            assert row["rational"] is not None
            exact = float(Fraction(row["rational"]))
            assert "%.15g" % row["value"] == "%.15g" % exact

    def test_csv(self, tmp_path, capsys):
        path = write_spec(tmp_path, PRODUCT_DOC)
        cli.main(["influence", path, "--all", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,value,rational,se,method"
        assert lines[1].startswith("1,0.8,4/5")

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_approx_table_and_csv_show_normalized(self, tmp_path, capsys,
                                                  method):
        path = write_spec(tmp_path, {"kind": "builtin", "name": "median",
                                     "arity": 3})
        argv = ["approx", path, "--method", method, "--seed", "3"]
        if method == "mc":
            argv += ["--samples", "5000"]
        outputs = {}
        for fmt in ("json", "csv", "table"):
            assert cli.main(argv + ["--format", fmt]) == 0
            outputs[fmt] = capsys.readouterr().out
        want = [row["normalized"]
                for row in json.loads(outputs["json"])["results"]]
        assert len(want) == 3 and max(map(abs, want)) > 0.5

        lines = outputs["csv"].splitlines()
        assert lines[0] == "k,value,rational,se,method,normalized"
        assert [float(line.split(",")[-1]) for line in lines[1:]] == want

        lines = outputs["table"].splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.split()[:1] == ["k"])
        assert lines[head].split() == ["k", "value", "rational", "se",
                                       "normalized", "method"]
        got = [float(line.split()[4]) for line in lines[head + 1:head + 4]]
        assert got == pytest.approx(want, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_degenerate_approx_keeps_the_columns(self, tmp_path, capsys, fmt):
        path = write_spec(tmp_path, {"kind": "orderstat-polynomial",
                                     "arity": 2, "constant": "2", "terms": []})
        assert cli.main(["approx", path, "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert (["k", "value", "rational", "se", "method"]
                in [line.replace(",", " ").split() for line in lines])
        assert not any("normalized" in line for line in lines)

    def test_mc_rows_carry_se_and_seed(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "builtin", "arity": 2,
                                     "name": "conjunctive-example-6.1"})
        cli.main(["influence", path, "-k", "1", "--samples", "5000",
                  "--seed", "17", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 17
        assert doc["requested"]["samples"] == 5000
        assert doc["results"][0]["se"] > 0


class TestEstimatedReports:
    @pytest.mark.parametrize("command", [["influence", "--all"], ["approx"]],
                             ids=["influence", "approx"])
    @pytest.mark.parametrize("spec_doc, method", [
        (MEAN_DOC, "exact"), (MEAN_DOC, "mc"),
        (POWER_DOC, "closed-form"), (POWER_DOC, "mc"),
    ], ids=["set-function-exact", "set-function-mc", "power-product-closed-form",
            "power-product-mc"])
    def test_rows_carry_the_requested_method(self, tmp_path, capsys, spec_doc,
                                             method, command):
        path = write_spec(tmp_path, spec_doc)
        assert cli.main([command[0], path, *command[1:], "--method", method,
                         "--samples", "2000", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["requested"]["method"] == method
        assert [row["method"] for row in doc["results"]] == [method] * 3

    def test_mc_approx_reports_tail_and_mean_std_errors(self, tmp_path, capsys):
        path = write_spec(tmp_path, PRODUCT_DOC)
        assert cli.main(["approx", path, "--method", "mc", "--samples", "20000",
                         "--seed", "3", "--format", "json"]) == 0
        extras = json.loads(capsys.readouterr().out)["extras"]
        spec = funcspec.parse_spec_document(funcspec.load_spec_document(path))
        moments = api.function_moments(spec, "mc", 20000, 3)
        assert extras["a_tail_se"] == moments.tail_std_error() > 0
        assert extras["mean_se"] == moments.mean_std_error > 0
        # x_(1) x_(2): a_3 = 1/4 - (1 * 4/5 + 2 * 1/5) / 3 = -3/20
        for key, want in (("a_tail", -3 / 20), ("mean", 1 / 4)):
            assert (abs(extras[key]["value"] - want)
                    <= 3 * extras[key + "_se"])

    @pytest.mark.parametrize("spec_doc, method", [
        (PRODUCT_DOC, "exact"), (POWER_DOC, "closed-form"),
    ])
    def test_exact_approx_reports_no_std_errors(self, tmp_path, capsys,
                                                spec_doc, method):
        path = write_spec(tmp_path, spec_doc)
        assert cli.main(["approx", path, "--method", method,
                         "--format", "json"]) == 0
        extras = json.loads(capsys.readouterr().out)["extras"]
        assert not {"a_tail_se", "mean_se", "r_squared_se"} & set(extras)

    def test_degenerate_mc_approx_keeps_tail_and_mean_std_errors(
            self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "orderstat-polynomial",
                                     "arity": 2, "constant": "2", "terms": []})
        assert cli.main(["approx", path, "--method", "mc", "--samples", "2000",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["warnings"][0].startswith("degenerate-variance")
        assert doc["extras"]["mean_se"] == 0.0
        assert doc["extras"]["a_tail_se"] > 0
        assert "r_squared" not in doc["extras"]
        assert [row["method"] for row in doc["results"]] == ["mc", "mc"]


class TestLovaszCommand:
    def test_diagnostics(self, tmp_path, capsys):
        path = write_spec(tmp_path, MEAN_DOC)
        assert cli.main(["lovasz", path, "--diagnose-equal-influence",
                         "--mobius", "--symmetric-part",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["extras"]["equal_influence"]["equal"] is True
        assert doc["extras"]["mobius"][0] == "0"
        assert doc["extras"]["symmetric_part"]["slopes"] == ["1/3"] * 3

    def test_min_capacity_not_equal(self, tmp_path, capsys):
        doc = {"kind": "set-function", "arity": 3,
               "values": ["0"] * 7 + ["1"]}
        path = write_spec(tmp_path, doc)
        cli.main(["lovasz", path, "--diagnose-equal-influence",
                  "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        diagnosis = report["extras"]["equal_influence"]
        assert diagnosis["equal"] is False
        assert diagnosis["first_violations"]

    def test_no_samples_flag(self, tmp_path, capsys):
        path = write_spec(tmp_path, MEAN_DOC)
        with pytest.raises(SystemExit) as exc:
            cli.main(["lovasz", path, "--samples", "5"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err


class TestParserBuiltOnce:
    def test_repeated_commands_print_the_same_bytes(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.delenv("ORDINFLUENCE_SEED", raising=False)
        product = write_spec(tmp_path, PRODUCT_DOC, "product.json")
        mean = write_spec(tmp_path, MEAN_DOC, "mean.json")
        power = write_spec(tmp_path, {"kind": "power-product", "arity": 3,
                                      "exponent": "1/2"}, "power.json")
        runs = [
            ["influence", product, "--all"],
            ["influence", product, "-k", "2", "--method", "mc",
             "--samples", "2000", "--seed", "4", "--format", "json"],
            ["influence", power, "-k", "1", "--format", "csv"],
            ["approx", mean, "--format", "csv"],
            ["approx", mean, "--method", "exact", "--format", "json"],
            ["approx", product, "--method", "mc", "--samples", "2000",
             "--format", "json"],
            ["approx", power, "--method", "closed-form"],
            ["lovasz", mean, "--mobius", "--symmetric-part",
             "--diagnose-equal-influence", "--format", "json"],
            ["lovasz", mean, "--seed", "5"],
            ["crosscheck", product, "-k", "1", "--samples", "2000",
             "--seed", "9", "--format", "json"],
            ["crosscheck", power, "-k", "2", "--samples", "2000",
             "--estimators", "covariance,derivative"],
        ]

        def run_all():
            outputs = []
            for argv in runs:
                code = cli.main(argv)
                outputs.append((code, capsys.readouterr()))
            return outputs

        first = run_all()
        assert all(out for _, (out, _) in first)
        # a failing parse (neither -k nor --all) and --version leave the
        # shared parser as they found it
        with pytest.raises(SystemExit) as exc:
            cli.main(["influence", product])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()
        assert run_all() == first
        assert cli._build_parser() is cli._build_parser()


class TestEnvironment:
    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORDINFLUENCE_SEED", "99")
        path = write_spec(tmp_path, PRODUCT_DOC)
        cli.main(["influence", path, "-k", "1", "--method", "mc",
                  "--samples", "2000", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_explicit_seed_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORDINFLUENCE_SEED", "99")
        path = write_spec(tmp_path, PRODUCT_DOC)
        cli.main(["influence", path, "-k", "1", "--method", "mc",
                  "--samples", "2000", "--seed", "7", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        import ordinfluence
        assert ordinfluence.__version__ in capsys.readouterr().out
