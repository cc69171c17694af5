"""CLI contract tests: exit codes, output formats, and report round trips."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from ordinfluence import (
    BranchAmbiguityError,
    Evaluator,
    QuadratureError,
    cli,
    funcspec,
    lovasz,
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

    @pytest.mark.parametrize("content, env_seed", [
        (json.dumps(PRODUCT_DOC).encode(), "abc"),
        (json.dumps({"kind": "plain-polynomial", "arity": 2,
                     "terms": [{"coefficient": 1, "exponents": [1]}]}).encode(),
         None),
        (json.dumps({"kind": "plain-polynomial", "arity": 2,
                     "terms": 5}).encode(), None),
        (b'{"kind": "builtin", "name": "min\xff", "arity": 2}', None),
    ], ids=["seed-variable", "exponents-not-object", "terms-not-list",
            "not-utf8"])
    def test_bad_outside_input_exits_2(self, tmp_path, capsys, monkeypatch,
                                       content, env_seed):
        if env_seed is None:
            monkeypatch.delenv("ORDINFLUENCE_SEED", raising=False)
        else:
            monkeypatch.setenv("ORDINFLUENCE_SEED", env_seed)
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        assert cli.main(["influence", str(path), "-k", "1"]) == 2
        assert "error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text, location", [
        ('{"kind": "set-function", "arity": 1, "values": [0, 1e400]}',
         "values[1]"),
        ('{"kind": "plain-polynomial", "arity": 1, "terms": '
         '[{"coefficient": -1e400, "exponents": {"1": 1}}]}', "terms[0]"),
        ('{"kind": "power-product", "arity": 2, "exponent": 1e400}',
         "exponent"),
    ], ids=["value", "coefficient", "exponent"])
    def test_infinite_rational_exits_2(self, tmp_path, capsys, text,
                                       location):
        # JSON reads 1e400 as an infinite float, which has no rational value
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert cli.main(["influence", str(path), "--all"]) == 2
        assert "(at %s)" % location in capsys.readouterr().err

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

    def test_incompatible_method_exits_3(self, tmp_path):
        path = write_spec(tmp_path, {"kind": "power-product", "arity": 2,
                                     "exponent": 1})
        assert cli.main(["influence", path, "-k", "1", "--method", "exact"]) == 3

    def test_lovasz_wrong_kind_exits_3(self, tmp_path):
        path = write_spec(tmp_path, PRODUCT_DOC)
        assert cli.main(["lovasz", path]) == 3

    def test_rank_out_of_range_exits_3(self, tmp_path):
        path = write_spec(tmp_path, PRODUCT_DOC)
        assert cli.main(["influence", path, "-k", "9"]) == 3

    def test_tainted_mc_exits_4(self, tmp_path, monkeypatch):
        path = write_spec(tmp_path, PRODUCT_DOC)
        bad = RawEvaluatorSpec(Evaluator(2, lambda x: np.full(len(x), np.nan),
                                         name="nan"))
        monkeypatch.setattr(cli, "parse_spec_file", lambda _: bad)
        assert cli.main(["influence", path, "-k", "1", "--method", "mc",
                         "--samples", "1000"]) == 4

    @pytest.mark.parametrize("error, code", [
        (BranchAmbiguityError("Phi(1) is near zero but not declared"), 3),
        (QuadratureError("quadrature error above tolerance", 1e-3), 6),
    ], ids=["branch-ambiguity", "quadrature"])
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

        monkeypatch.setattr(cli, "influence_mc_covariance", biased)
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

        monkeypatch.setattr(cli, "influence_mc_covariance", wrong)
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
        assert text == json.dumps(asdict(doc), indent=2, sort_keys=True)
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

    def test_mc_rows_carry_se_and_seed(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "builtin", "arity": 2,
                                     "name": "conjunctive-example-6.1"})
        cli.main(["influence", path, "-k", "1", "--samples", "5000",
                  "--seed", "17", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 17
        assert doc["requested"]["samples"] == 5000
        assert doc["results"][0]["se"] > 0


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
