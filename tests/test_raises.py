"""Rejections of arguments outside their domain, one public call each, with
the exact error type and message, and the two degenerate results that are
returned rather than raised."""

from types import SimpleNamespace

import pytest

from ordinfluence import (
    ConfigurationError,
    DomainError,
    Evaluator,
    MultiplicativeSpec,
    PowerProductSpec,
    SetFunction,
    UnaryFactor,
    monomial,
    os_function,
    resolve_builtin,
    variance_profile,
)
from ordinfluence.exact import plain_indices
from ordinfluence.montecarlo import mc_profile_moments
from ordinfluence.projection import approximation_from_moments, moments_exact

from reference import (
    eval_lovasz,
    influence_exact,
    influence_lovasz,
    influence_symmetric_multiplicative,
    influence_via_alternative,
    inner_product_exact,
    mc_inner_product,
    moment,
    power_product_ratio,
    subset_box_integral,
    symmetrize,
    tensor_quadrature,
)


def _sum_of(arity):
    return Evaluator(arity, lambda x: x.sum(axis=1))


def _product(arity):
    return MultiplicativeSpec.symmetric(UnaryFactor.power(1), arity)


# {id: (call, error type, message)}
CASES = {
    "mc-moments-one-sample": (
        lambda: mc_profile_moments(_sum_of(2), 1, 0),
        DomainError, "need at least 2 samples"),
    "mc-inner-product-one-sample": (
        lambda: mc_inner_product(_sum_of(2), _sum_of(2), 1, 0),
        DomainError, "need at least 2 samples"),
    "mc-inner-product-arities": (
        lambda: mc_inner_product(_sum_of(2), _sum_of(3), 10, 0),
        DomainError, "arity mismatch: 2 vs 3"),
    "quadrature-one-node": (
        lambda: tensor_quadrature(_sum_of(2), 1),
        DomainError, "need at least 2 nodes per axis"),
    "lovasz-point-length": (
        lambda: eval_lovasz(SetFunction.from_values(2, [0, 1, 1, 2]), [0.5]),
        DomainError, "point has 1 coordinates, expected 2"),
    "lovasz-rank": (
        lambda: influence_lovasz(SetFunction.from_values(2, [0, 1, 1, 2]), 3),
        DomainError, "rank 3 outside [1, 2]"),
    "exact-rank": (
        lambda: influence_exact(os_function(2, 1), 0),
        DomainError, "rank 0 outside [1, 2]"),
    "normalized-index-rank": (
        lambda: approximation_from_moments(
            moments_exact(os_function(2, 1))).normalized_index(3),
        DomainError, "rank 3 outside [1, 2]"),
    "symmetric-multiplicative-rank": (
        lambda: influence_symmetric_multiplicative(UnaryFactor.power(1), 2, 3),
        DomainError, "rank 3 outside [1, 2]"),
    "alternative-rank": (
        lambda: influence_via_alternative(_product(2), 0, "dfsg5"),
        DomainError, "rank 0 outside [1, 2]"),
    "moment-arity": (
        lambda: moment(3, monomial(2, {1: 1})),
        DomainError, "monomial arity 2 != 3"),
    "inner-product-arities": (
        lambda: inner_product_exact(os_function(2, 1), os_function(3, 1)),
        DomainError, "arity mismatch: 2 vs 3"),
    # "1" and "01" both name variable 1, so the monomial has two variables
    "symmetrize-variables": (
        lambda: symmetrize(1, [(1, {"1": 1, "01": 1})]),
        DomainError, "monomial uses more variables than the arity"),
    "plain-indices-variables": (
        lambda: plain_indices(1, [(1, {"1": 1, "01": 1})]),
        DomainError, "monomial uses more variables than the arity"),
    "factor-exponent": (
        lambda: UnaryFactor.power("-1/2"),
        DomainError, "exponent must exceed -1/2 for square integrability"),
    "ratio-exponent": (
        lambda: power_product_ratio(-0.5, 1),
        DomainError, "exponent must exceed -1/2, got -0.5"),
    "power-product-exponent": (
        lambda: PowerProductSpec(2, "-1/2"),
        DomainError, "exponent must exceed -1/2"),
    "variance-arity": (
        lambda: variance_profile(1),
        DomainError, "variance statistic needs arity >= 2"),
    "builtin-arity": (
        lambda: resolve_builtin("min", 0),
        DomainError, "arity must be >= 1"),
    "factor-count": (
        lambda: MultiplicativeSpec(2, (UnaryFactor.power(1),)),
        DomainError, "expected 2 factors, got 1"),
    "box-element": (
        lambda: subset_box_integral(_product(2), {3}, "lower-box"),
        DomainError, "subset not contained in [1, 2]"),
    "box-no-evaluate": (
        lambda: subset_box_integral(SimpleNamespace(arity=2), {1},
                                    "lower-box"),
        ConfigurationError,
        "subset-box integrals need a multiplicative spec or an evaluator"),
    "box-black-box-arity": (
        lambda: subset_box_integral(
            SimpleNamespace(arity=5, evaluate=lambda x: x.sum(axis=1)), {1},
            "lower-box"),
        ConfigurationError,
        "black-box subset-box integrals are limited to arity <= 4"),
}


@pytest.mark.parametrize("call, error, message", list(CASES.values()),
                         ids=list(CASES))
def test_rejection(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_zero_factor_gives_zero_norm():
    zero = UnaryFactor.from_callable(lambda t: 0.0)
    spec = MultiplicativeSpec(2, (UnaryFactor.power(1), zero))
    assert spec.norm_sq() == 0.0


def test_exact_moments_have_no_tail_std_error():
    assert moments_exact(os_function(3, 2)).tail_std_error() is None
