"""Function specifications: the tagged union of analyzable function classes.

A spec declares exactly one function on the unit cube and knows which engines
can handle it (exact rational, closed form, Monte-Carlo).  Specs can be built
programmatically or parsed from a JSON document, see ``parse_spec_file``.

Set-function payloads are listed in bitmask order with bit i-1 standing for
element i of [n].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .closedforms import MultiplicativeSpec, UnaryFactor, \
    influence_power_product, multiplicative_indices, variance_plain_terms
from .errors import ConfigurationError, DomainError, SpecFileError
from .exact import OrderStatPolynomial, as_rational, monomial, os_function, \
    plain_indices, plain_integral, plain_norm_sq, polynomial
from .lovasz import SetFunction, _float_values, _levels, _value_strings, \
    check_arity, level_averages, lovasz_eval_batch, lovasz_slope_batch, \
    norm_sq_lovasz
from .montecarlo import Evaluator, sorted_columns
from .projection import Moments, moments_exact

EXACT, CLOSED_FORM, MC = "exact", "closed-form", "mc"


class FunctionSpec:
    """Base class; concrete specs define kind, arity and capabilities."""

    kind = "abstract"
    builtin_name: Optional[str] = None

    @property
    def methods(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def moments(self, norm_sq: bool = True) -> Moments:
        """The indices and the mean by this class's exact or closed-form
        engine, and <f, f> when ``norm_sq`` is set."""
        raise ConfigurationError("no exact or closed form for %s functions"
                                 % self.kind)

    def evaluator(self) -> Evaluator:
        raise NotImplementedError

    def payload(self) -> dict:
        raise NotImplementedError

    def describe(self) -> dict:
        doc = {"kind": self.kind, "arity": self.arity}
        doc.update(self.payload())
        if self.builtin_name:
            doc["builtin"] = self.builtin_name
        return doc


def _rational_str(value) -> str:
    return str(as_rational(value))


def _monomial_sum(columns: np.ndarray, terms: list,
                  constant: float) -> np.ndarray:
    """constant + sum of coeff * prod columns[i-1] ** exp over the terms
    (coeff, ((i, exp), ...)), where row i-1 of the (n, m) ``columns`` holds
    the i-th variable or order statistic of each of m points."""
    out = np.full(columns.shape[1], constant)
    for coeff, exps in terms:
        part = np.full(columns.shape[1], coeff)
        for i, exp in exps:
            part *= columns[i - 1] ** exp
        out += part
    return out


@dataclass
class OrderStatPolynomialSpec(FunctionSpec):
    poly: OrderStatPolynomial
    builtin_name: Optional[str] = None
    kind = "orderstat-polynomial"

    @property
    def arity(self) -> int:
        return self.poly.arity

    @property
    def methods(self):
        return (EXACT, MC)

    def moments(self, norm_sq=True):
        return moments_exact(self.poly, norm_sq)

    def evaluator(self):
        terms = [(float(t.coefficient), t.exponents) for t in self.poly.terms]
        constant = float(self.poly.constant)
        return Evaluator(self.arity, lambda x: _monomial_sum(
            sorted_columns(x), terms, constant),
            name=self.builtin_name or self.kind)

    def payload(self):
        return {
            "constant": _rational_str(self.poly.constant),
            "terms": [{"coefficient": _rational_str(t.coefficient),
                       "exponents": {str(slot): exp for slot, exp in t.exponents}}
                      for t in self.poly.terms],
        }


@dataclass
class PlainPolynomialSpec(FunctionSpec):
    arity: int
    terms: list  # [(Fraction, {var: exp})]
    constant: Fraction = Fraction(0)
    builtin_name: Optional[str] = None
    kind = "plain-polynomial"

    @property
    def methods(self):
        return (EXACT, MC)

    def moments(self, norm_sq=True):
        # the indices depend on the exponent lists of the terms only, while
        # the mean and <f,f> come from f itself, which need not be symmetric
        return Moments(self.arity, "exact", plain_indices(self.arity, self.terms),
                       plain_integral(self.terms, self.constant),
                       plain_norm_sq(self.terms, self.constant)
                       if norm_sq else None)

    def evaluator(self):
        terms = [(float(c), [(int(v), int(e)) for v, e in exps.items()])
                 for c, exps in self.terms]
        constant = float(self.constant)
        return Evaluator(self.arity, lambda x: _monomial_sum(
            x.T, terms, constant), name=self.builtin_name or self.kind)

    def payload(self):
        return {
            "constant": _rational_str(self.constant),
            "terms": [{"coefficient": _rational_str(c),
                       "exponents": {str(v): int(e) for v, e in exps.items()}}
                      for c, exps in self.terms],
        }


@dataclass
class SetFunctionSpec(FunctionSpec):
    set_function: SetFunction
    builtin_name: Optional[str] = None
    kind = "set-function"

    @property
    def arity(self) -> int:
        return self.set_function.arity

    @property
    def methods(self):
        return (EXACT, MC)

    def moments(self, norm_sq=True):
        v = self.set_function
        levels = level_averages(v)
        return Moments(v.arity, "exact", levels.influence_profile(),
                       levels.mean(),
                       norm_sq_lovasz(v) if norm_sq else None)

    def evaluator(self):
        values = _float_values(self.set_function)
        return Evaluator(self.arity, partial(lovasz_eval_batch, values),
                         partial(lovasz_slope_batch, values),
                         name=self.builtin_name or self.kind)

    def payload(self):
        return {"values": _value_strings(self.set_function)}


@dataclass
class MultiplicativeFunctionSpec(FunctionSpec):
    spec: MultiplicativeSpec
    builtin_name: Optional[str] = None
    kind = "multiplicative"

    @property
    def arity(self) -> int:
        return self.spec.arity

    @property
    def methods(self):
        return (CLOSED_FORM, MC)

    def moments(self, norm_sq=True):
        spec = self.spec
        return Moments(self.arity, "closed-form", multiplicative_indices(spec),
                       spec.mean(),
                       spec.norm_sq() if norm_sq else None)

    def evaluator(self):
        spec = self.spec
        return Evaluator(self.arity, spec.evaluate,
                         name=self.builtin_name or self.kind)

    def payload(self):
        factors = []
        for f in self.spec.factors:
            if f.is_symbolic:
                factors.append({"exponent": _rational_str(f.exponent)})
            else:
                factors.append({"callable": repr(f.phi)})
        return {"factors": factors}


@dataclass
class PowerProductSpec(FunctionSpec):
    arity: int
    exponent: Fraction
    builtin_name: Optional[str] = None
    kind = "power-product"

    def __post_init__(self):
        self.exponent = as_rational(self.exponent)
        if self.exponent <= Fraction(-1, 2):
            raise DomainError("exponent must exceed -1/2")

    @property
    def methods(self):
        return (CLOSED_FORM, MC)

    def moments(self, norm_sq=True):
        c = float(self.exponent)
        n = self.arity
        indices = tuple(influence_power_product(c, n, k) for k in range(1, n + 1))
        return Moments(n, "closed-form", indices, (1.0 / (c + 1.0)) ** n,
                       (1.0 / (2.0 * c + 1.0)) ** n if norm_sq else None)

    def evaluator(self):
        c = float(self.exponent)
        n = self.arity

        def func(x):
            return np.prod(x, axis=1) ** c

        def derivative(x, k):
            # d/dx_{pi(k)} prod x_i^c = c f(x) / x_{pi(k)}
            return c * func(x) / sorted_columns(x)[k - 1]

        return Evaluator(n, func, derivative,
                         name=self.builtin_name or self.kind)

    def payload(self):
        return {"exponent": _rational_str(self.exponent)}


@dataclass
class RawEvaluatorSpec(FunctionSpec):
    """Black-box evaluator; Monte-Carlo only.  Not representable in a file."""

    raw: Evaluator
    builtin_name: Optional[str] = None
    kind = "builtin"

    @property
    def arity(self) -> int:
        return self.raw.arity

    @property
    def methods(self):
        return (MC,)

    def evaluator(self):
        return self.raw

    def payload(self):
        return {"name": self.builtin_name or self.raw.name}


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def _conjunctive_threshold(x):
    # 0 below the 3/4 threshold on the largest input, else min capped at 1/4
    x = np.asarray(x, dtype=float)
    return np.where(np.maximum(x[:, 0], x[:, 1]) < 0.75, 0.0,
                    np.minimum(np.minimum(x[:, 0], x[:, 1]), 0.25))


def _arithmetic_mean_set_function(n: int) -> SetFunction:
    levels = [Fraction(size, n) for size in range(n + 1)]
    return SetFunction.from_codes(n, levels, _levels(n)[0])


BUILTIN_NAMES = ("variance", "arithmetic-mean", "geometric-mean", "product",
                 "min", "max", "median", "conjunctive-example-6.1")


def resolve_builtin(name: str, arity: int) -> FunctionSpec:
    n = arity
    if n < 1:
        raise DomainError("arity must be >= 1")
    if name == "variance":
        if n < 2:
            raise DomainError("variance needs arity >= 2")
        return PlainPolynomialSpec(n, variance_plain_terms(n),
                                   builtin_name=name)
    if name == "arithmetic-mean":
        check_arity(n)
        return SetFunctionSpec(_arithmetic_mean_set_function(n),
                               builtin_name=name)
    if name == "geometric-mean":
        return PowerProductSpec(n, Fraction(1, n), builtin_name=name)
    if name == "product":
        terms = [(Fraction(1), {i: 1 for i in range(1, n + 1)})]
        return PlainPolynomialSpec(n, terms, builtin_name=name)
    if name == "min":
        return OrderStatPolynomialSpec(os_function(n, 1), builtin_name=name)
    if name == "max":
        return OrderStatPolynomialSpec(os_function(n, n), builtin_name=name)
    if name == "median":
        if n % 2:
            poly = os_function(n, (n + 1) // 2)
        else:
            poly = Fraction(1, 2) * (os_function(n, n // 2)
                                     + os_function(n, n // 2 + 1))
        return OrderStatPolynomialSpec(poly, builtin_name=name)
    if name in ("conjunctive-example-6.1", "conjunctive-threshold"):
        if n != 2:
            raise DomainError("the conjunctive threshold builtin is binary")
        return RawEvaluatorSpec(Evaluator(2, _conjunctive_threshold,
                                          name=name), builtin_name=name)
    raise SpecFileError("unknown builtin %r; known: %s"
                        % (name, ", ".join(BUILTIN_NAMES)), location="name")


# ---------------------------------------------------------------------------
# JSON spec files
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str, location: str):
    if key not in doc:
        raise SpecFileError("missing required field %r" % key, location)
    return doc[key]


def _parse_rational(value, location: str) -> Fraction:
    # a JSON true or false would pass as the int 1 or 0, and 1e400 arrives
    # as an infinite float, which Fraction rejects with an OverflowError
    if isinstance(value, bool):
        raise SpecFileError("expected a rational, got %s"
                            % json.dumps(value), location)
    try:
        return as_rational(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise SpecFileError("cannot parse rational from %r" % (value,), location)


def _parse_set_function(arity: int, values: list) -> SetFunction:
    """The set function with the given JSON values, each distinct one parsed
    once; a bad value is reported at the first index that holds it."""
    codes, distinct, seen = [], [], {}
    for i, value in enumerate(values):
        try:
            # true hashes as 1, so it must not find a parsed 1
            code = None if isinstance(value, bool) else seen.get(value)
        except TypeError:  # a list or an object, which _parse_rational rejects
            code = None
        if code is None:
            distinct.append(_parse_rational(value, "values[%d]" % i))
            code = seen[value] = len(distinct) - 1
        codes.append(code)
    return SetFunction.from_codes(arity, distinct, codes)


def _parse_terms(raw, arity: int, location: str, slot_bound: int):
    if not isinstance(raw, list):
        raise SpecFileError("terms must be a list", location)
    terms = []
    for i, term in enumerate(raw):
        loc = "%s[%d]" % (location, i)
        if not isinstance(term, dict):
            raise SpecFileError("term must be an object", loc)
        coeff = _parse_rational(_require(term, "coefficient", loc), loc)
        raw_exps = _require(term, "exponents", loc)
        if not isinstance(raw_exps, dict):
            raise SpecFileError("exponents must be an object", loc)
        exps = {}
        for key, exp in raw_exps.items():
            try:
                idx = int(key)
            except ValueError:
                raise SpecFileError("bad index %r" % key, loc)
            if not 1 <= idx <= slot_bound:
                raise SpecFileError("index %d outside [1, %d]"
                                    % (idx, slot_bound), loc)
            if not isinstance(exp, int) or isinstance(exp, bool) or exp < 1:
                raise SpecFileError("exponent must be a positive integer", loc)
            exps[idx] = exp
        terms.append((coeff, exps))
    return terms


def parse_spec_document(doc: dict) -> FunctionSpec:
    """Build a FunctionSpec from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a JSON object", "$")
    kind = _require(doc, "kind", "$")
    arity = _require(doc, "arity", "$")
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
        raise SpecFileError("arity must be a positive integer", "arity")

    if kind == "orderstat-polynomial":
        terms = _parse_terms(doc.get("terms", []), arity, "terms", arity)
        constant = _parse_rational(doc.get("constant", 0), "constant")
        mono_terms = [monomial(arity, exps, coeff) for coeff, exps in terms]
        return OrderStatPolynomialSpec(polynomial(arity, mono_terms, constant))
    if kind == "plain-polynomial":
        terms = _parse_terms(doc.get("terms", []), arity, "terms", arity)
        constant = _parse_rational(doc.get("constant", 0), "constant")
        return PlainPolynomialSpec(arity, terms, constant)
    if kind == "set-function":
        try:
            check_arity(arity)
        except DomainError as exc:
            raise SpecFileError(str(exc), "arity")
        values = _require(doc, "values", "values")
        if not isinstance(values, list) or len(values) != 1 << arity:
            raise SpecFileError("set-function payload needs exactly %d values"
                                % (1 << arity), "values")
        return SetFunctionSpec(_parse_set_function(arity, values))
    if kind == "multiplicative":
        raw_factors = _require(doc, "factors", "factors")
        if not isinstance(raw_factors, list) or len(raw_factors) != arity:
            raise SpecFileError("multiplicative payload needs exactly %d factors"
                                % arity, "factors")
        factors = []
        for i, rf in enumerate(raw_factors):
            loc = "factors[%d]" % i
            if not isinstance(rf, dict) or "exponent" not in rf:
                raise SpecFileError("factor must declare an exponent", loc)
            c = _parse_rational(rf["exponent"], loc)
            if c <= Fraction(-1, 2):
                raise SpecFileError("factor exponent must exceed -1/2", loc)
            factors.append(UnaryFactor.power(c))
        return MultiplicativeFunctionSpec(MultiplicativeSpec(arity, tuple(factors)))
    if kind == "power-product":
        c = _parse_rational(_require(doc, "exponent", "exponent"), "exponent")
        if c <= Fraction(-1, 2):
            raise SpecFileError("exponent must exceed -1/2", "exponent")
        return PowerProductSpec(arity, c)
    if kind == "builtin":
        name = _require(doc, "name", "name")
        try:
            return resolve_builtin(name, arity)
        except DomainError as exc:
            raise SpecFileError(str(exc), "name")
    raise SpecFileError("unknown kind %r" % (kind,), "kind")


def parse_spec_file(path: str) -> FunctionSpec:
    """Load a function spec from a JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecFileError("cannot read %s: %s" % (path, exc), path)
    except UnicodeDecodeError as exc:
        raise SpecFileError("not UTF-8 text: %s" % exc, path)
    except json.JSONDecodeError as exc:
        raise SpecFileError("invalid JSON: %s" % exc, "%s:%d" % (path, exc.lineno))
    return parse_spec_document(doc)
