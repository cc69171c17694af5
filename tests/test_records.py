"""The package's record classes: constructors, field-wise ``==``, ``hash``
and ``repr``, frozen records that refuse assignment, and the keyword-only
``builtin_name`` of the spec kinds."""

import copy
from fractions import Fraction

import numpy as np
import pytest

from ordinfluence import closedforms, exact, funcspec, lovasz, montecarlo, \
    projection, report
from ordinfluence.errors import DomainError

F = Fraction


def _double(x):
    return 2.0 * np.asarray(x).sum(axis=1)


MONOMIAL = exact.OrderStatMonomial(2, ((1, 1), (2, 3)), F(2, 3))
POLY = exact.polynomial(2, [MONOMIAL], F(1, 5))
FACTOR = closedforms.UnaryFactor.power(F(1, 2))
EVALUATOR = montecarlo.Evaluator(2, _double, name="double", takes_sorted=True)
SETFN = lovasz.SetFunction.from_values(2, [F(0), F(1, 3), F(1, 2), F(1)])

# (record, its fields in repr order, whether it is frozen)
RECORDS = {
    "OrderStatMonomial": (MONOMIAL, ("arity", "exponents", "coefficient"), True),
    "OrderStatPolynomial": (POLY, ("arity", "terms", "constant"), True),
    "ShiftedLStatistic": (
        projection.ShiftedLStatistic(2, (F(1, 6), F(1, 3)), F(1, 4)),
        ("arity", "slopes", "intercept"), True),
    "ApproximationResult": (
        projection.ApproximationResult(
            2, (0.1, 0.2), 0.3, 0.5, 0.9, 0.01, "mc", 0.02, 1000, 7, 0.08),
        ("arity", "slopes", "intercept", "mean", "r_squared",
         "residual_norm_sq", "method", "r_squared_std_error", "samples",
         "seed", "variance"), True),
    "Moments": (
        projection.Moments(2, "mc", (0.1, 0.2), 0.5, 0.33, (0.01, 0.02),
                           0.03, 0.04, 1000, 7, None),
        ("arity", "method", "indices", "mean", "norm_sq", "index_std_errors",
         "mean_std_error", "norm_sq_std_error", "samples", "seed",
         "covariance"), True),
    "Evaluator": (EVALUATOR,
                  ("arity", "func", "derivative", "name", "takes_sorted"), True),
    "IntegrationEstimate": (
        montecarlo.IntegrationEstimate(0.5, 0.01, 1000, 7, "plain", "exact"),
        ("value", "std_error", "samples", "seed", "estimator", "variant"), True),
    "LevelAverages": (lovasz.level_averages(SETFN), ("arity", "vbar", "mbar"),
                      True),
    "EqualInfluenceDiagnosis": (
        lovasz.equal_influence_class(SETFN),
        ("equal", "profile_flat", "vbar_arithmetic", "mbar_vanishing",
         "witnesses"), True),
    "UnaryFactor": (FACTOR, ("exponent", "phi", "antiderivative",
                             "declared_phi_one"), True),
    "MultiplicativeSpec": (closedforms.MultiplicativeSpec(2, (FACTOR, FACTOR)),
                           ("arity", "factors"), True),
    "FunctionSpec": (funcspec.FunctionSpec(builtin_name="abstract"),
                     ("builtin_name",), False),
    "OrderStatPolynomialSpec": (
        funcspec.OrderStatPolynomialSpec(POLY, builtin_name="poly"),
        ("builtin_name", "poly"), False),
    "PlainPolynomialSpec": (
        funcspec.PlainPolynomialSpec(2, [(F(3, 2), {1: 2})], F(1, 3)),
        ("builtin_name", "arity", "terms", "constant"), False),
    "VarianceSpec": (funcspec.VarianceSpec(3, builtin_name="variance"),
                     ("builtin_name", "arity"), False),
    "SetFunctionSpec": (funcspec.SetFunctionSpec(SETFN),
                        ("builtin_name", "set_function"), False),
    "MultiplicativeFunctionSpec": (
        funcspec.MultiplicativeFunctionSpec(
            closedforms.MultiplicativeSpec(2, (FACTOR, FACTOR))),
        ("builtin_name", "spec"), False),
    "PowerProductSpec": (funcspec.PowerProductSpec(3, F(2, 3)),
                         ("builtin_name", "arity", "exponent"), False),
    "RawEvaluatorSpec": (funcspec.RawEvaluatorSpec(EVALUATOR,
                                                   builtin_name="double"),
                         ("builtin_name", "raw"), False),
    "ReportDocument": (
        report.ReportDocument("approx", {"kind": "builtin"}, {"method": "mc"},
                              [{"k": 1, "value": 0.5}], {"max_z": 1.5},
                              ["careful"], 7, "0.1.0"),
        ("command", "spec", "requested", "results", "extras", "warnings",
         "seed", "version"), False),
}

SPEC_KINDS = [name for name, (record, _, _) in RECORDS.items()
              if isinstance(record, funcspec.FunctionSpec)
              and name != "FunctionSpec"]


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


def _compared(name):
    record, names, _ = RECORDS[name]
    # Moments leaves its covariance out of == and hash
    return names[:-1] if name == "Moments" else names


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_is_field_wise(name):
    record, names, _ = RECORDS[name]
    assert repr(record) == "%s(%s)" % (name, ", ".join(
        "%s=%r" % (field, getattr(record, field)) for field in names))


@pytest.mark.parametrize("name", list(RECORDS))
def test_keyword_constructor_rebuilds_an_equal_record(name):
    record, names, _ = RECORDS[name]
    rebuilt = type(record)(**dict(zip(names, _values(record, names))))
    assert rebuilt is not record
    assert rebuilt == record and not rebuilt != record
    assert _values(rebuilt, names) == _values(record, names)


@pytest.mark.parametrize("name", list(RECORDS))
def test_equality_is_field_wise(name):
    record, names, _ = RECORDS[name]
    for field in _compared(name):
        changed = copy.copy(record)
        assert changed == record
        # past the frozen records' refusal and the constructors' checks
        object.__setattr__(changed, field, "another value")
        assert changed != record and not changed == record, field
    # a record never equals another class with the same fields
    assert record != _values(record, names)


@pytest.mark.parametrize("name", list(RECORDS))
def test_hash_is_that_of_the_compared_fields(name):
    record, _, frozen = RECORDS[name]
    if not frozen:
        with pytest.raises(TypeError):
            hash(record)
        return
    values = _values(record, _compared(name))
    try:
        expected = hash(values)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("name", [name for name, (_, _, frozen)
                                  in RECORDS.items() if frozen])
def test_frozen_records_refuse_assignment(name):
    record, names, _ = RECORDS[name]
    before = _values(record, names)
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert _values(record, names) == before


@pytest.mark.parametrize("name", SPEC_KINDS + ["ReportDocument"])
def test_mutable_records_take_assignment(name):
    record, names, _ = RECORDS[name]
    changed = type(record)(**dict(zip(names, _values(record, names))))
    setattr(changed, names[-1], "another value")
    assert changed != record and getattr(changed, names[-1]) == "another value"


def test_moments_equality_and_hash_leave_out_covariance():
    record, names, _ = RECORDS["Moments"]
    values = dict(zip(names, _values(record, names)))
    with_cov = projection.Moments(**{**values, "covariance": np.eye(4)})
    other_cov = projection.Moments(**{**values, "covariance": np.zeros((4, 4))})
    assert with_cov == record == other_cov
    assert hash(with_cov) == hash(record) == hash(other_cov)
    assert "covariance=array(" in repr(with_cov)


@pytest.mark.parametrize("name", SPEC_KINDS)
def test_builtin_name_is_keyword_only(name):
    record, names, _ = RECORDS[name]
    fields = _values(record, names[1:])
    assert type(record)(*fields, builtin_name="named").builtin_name == "named"
    assert type(record)(*fields).builtin_name is None
    with pytest.raises(TypeError):
        type(record)(*fields, "named")


def test_report_document_defaults_are_fresh():
    first = report.ReportDocument("approx", {}, {}, [])
    second = report.ReportDocument("approx", {}, {}, [])
    assert (first.extras, first.warnings, first.seed, first.version) \
        == ({}, [], None, "")
    first.extras["max_z"] = 1.0
    first.warnings.append("careful")
    assert (second.extras, second.warnings) == ({}, [])


def test_post_init_checks_run():
    with pytest.raises(DomainError):
        exact.OrderStatMonomial(2, ((2, 1), (1, 1)), F(1))
    with pytest.raises(DomainError):
        closedforms.MultiplicativeSpec(3, (FACTOR,))
    with pytest.raises(DomainError):
        funcspec.PowerProductSpec(2, F(-1, 2))
    assert funcspec.PowerProductSpec(2, "1/3").exponent == F(1, 3)
