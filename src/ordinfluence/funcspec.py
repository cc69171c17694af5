"""Function specifications: the tagged union of analyzable function classes.

A spec declares exactly one function on the unit cube and knows which engines
can handle it (exact rational, closed form, Monte-Carlo).  Specs can be built
programmatically or parsed from a JSON document: ``load_spec_document``
reads a file, and ``parse_spec_document`` builds the spec from it.

Set-function payloads are listed in bitmask order with bit i-1 standing for
element i of [n].
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from math import gcd, inf
from typing import TYPE_CHECKING, Tuple

from .closedforms import UnaryFactor, multiplicative_indices, \
    variance_mean, variance_norm_sq, variance_profile
from .errors import ConfigurationError, DomainError, SpecFileError
from .exact import OrderStatPolynomial, integer_ratio, monomial, \
    os_function, plain_indices, plain_integral, plain_norm_sq, polynomial
from .projection import Moments, moments_exact
from .record import Record

if TYPE_CHECKING:
    import numpy as np
    from .lovasz import SetFunction
    from .montecarlo import Evaluator

EXACT, CLOSED_FORM, MC = "exact", "closed-form", "mc"

# The largest arity, the largest order-statistic exponent and the largest
# number of polynomial terms of a spec file.  At 1000, on 2 CPUs (Python
# 3.11, with or without a bytecode cache), an exact approx of min, median,
# variance or x_(n)^1000 takes 0.08-0.10 s in a fresh process, of product
# 0.21-0.25 s, and an MC approx of variance at 1e5 samples 3.4-4.4 s and
# 558 MB; the exact moments take rising factorials of n plus the exponents,
# so x_(1)^10000 at arity 1000 takes 0.2 s and x_(1)^(10^5) at arity 3 about
# 2.4 s.  <f, f> visits every pair of terms: 1000 terms of up to 3 variables
# at arity 40 take 0.45-0.7 s (plain) and 0.75 s (order statistics).
MAX_SIZE = 1000


class FunctionSpec(Record):
    """Base class.  A kind is a subclass whose ``__init__`` sets its fields
    and ``_fields`` names them.  It has the class attributes ``kind`` and
    ``engine`` (EXACT, CLOSED_FORM, or None when only MC applies), an
    ``arity``, ``moments`` when it has an engine, and ``_maps``, the MC map
    of f and optionally its derivative, or its own ``evaluator``.  A kind
    whose maps read order statistics sets ``takes_sorted``, and its maps
    take the sorted columns as a required last argument, which the
    ``montecarlo.Evaluator`` they are wrapped in always hands them."""

    kind = "abstract"
    engine = None
    takes_sorted = False

    @property
    def methods(self) -> Tuple[str, ...]:
        return (MC,) if self.engine is None else (self.engine, MC)

    def moments(self, norm_sq: bool = True) -> Moments:
        """The indices and the mean by this class's exact or closed-form
        engine, and <f, f> when ``norm_sq`` is set."""
        raise ConfigurationError("no exact or closed form for %s functions"
                                 % self.kind)

    def _maps(self) -> tuple:
        raise NotImplementedError

    def evaluator(self) -> Evaluator:
        from .montecarlo import Evaluator
        return Evaluator(self.arity, *self._maps(), name=self.kind,
                         takes_sorted=self.takes_sorted)


def _monomial_sum(columns: np.ndarray, terms: list,
                  constant: float) -> np.ndarray:
    """constant + sum of coeff * prod columns[i-1] ** exp over the terms
    (coeff, ((i, exp), ...)), where row i-1 of the (n, m) ``columns`` holds
    the i-th variable or order statistic of each of m points."""
    import numpy as np
    out = np.full(columns.shape[1], constant)
    for coeff, exps in terms:
        part = np.full(columns.shape[1], coeff)
        for i, exp in exps:
            part *= columns[i - 1] ** exp
        out += part
    return out


class OrderStatPolynomialSpec(FunctionSpec):
    kind = "orderstat-polynomial"
    engine = EXACT
    takes_sorted = True
    _fields = ("poly",)

    def __init__(self, poly: OrderStatPolynomial):
        self.poly = poly

    @property
    def arity(self) -> int:
        return self.poly.arity

    def moments(self, norm_sq=True):
        return moments_exact(self.poly, norm_sq)

    def _maps(self):
        terms = [(float(t.coefficient), t.exponents) for t in self.poly.terms]
        constant = float(self.poly.constant)
        return (lambda x, xs: _monomial_sum(xs, terms, constant),)


class PlainPolynomialSpec(FunctionSpec):
    kind = "plain-polynomial"
    engine = EXACT
    _fields = ("arity", "terms", "constant")

    def __init__(self, arity: int, terms: list,
                 constant: Fraction = Fraction(0)):
        self.arity = arity
        self.terms = terms  # [(Fraction, {var: exp})]
        self.constant = constant

    def moments(self, norm_sq=True):
        # the indices depend on the exponent lists of the terms only, while
        # the mean and <f,f> come from f itself, which need not be symmetric
        return Moments(self.arity, self.engine, plain_indices(self.arity, self.terms),
                       plain_integral(self.terms, self.constant),
                       plain_norm_sq(self.terms, self.constant)
                       if norm_sq else None)

    def _maps(self):
        terms = [(float(c), [(int(v), int(e)) for v, e in exps.items()])
                 for c, exps in self.terms]
        constant = float(self.constant)
        return (lambda x: _monomial_sum(x.T, terms, constant),)


class VarianceSpec(FunctionSpec):
    """The builtin sample variance (1/n) sum (x_i - xbar)^2, a plain
    polynomial whose moments are closed-form rationals."""

    kind = "plain-polynomial"
    engine = EXACT
    _fields = ("arity",)

    def __init__(self, arity: int):
        self.arity = arity

    def moments(self, norm_sq=True):
        n = self.arity
        return Moments(n, self.engine, variance_profile(n).slopes,
                       variance_mean(n),
                       variance_norm_sq(n) if norm_sq else None)

    def _maps(self):
        import numpy as np
        n = self.arity

        def func(x):
            # mean(x^2) - mean(x)^2 from the power sums of each row
            mean = x.sum(axis=1) / n
            return np.einsum("ij,ij->i", x, x) / n - mean * mean

        return (func,)


class SetFunctionSpec(FunctionSpec):
    kind = "set-function"
    engine = EXACT
    takes_sorted = True
    _fields = ("set_function",)

    def __init__(self, set_function: SetFunction):
        self.set_function = set_function

    @property
    def arity(self) -> int:
        return self.set_function.arity

    def moments(self, norm_sq=True):
        from . import lovasz
        v = self.set_function
        profile, mean = lovasz._profile_and_mean(v)
        return Moments(v.arity, self.engine, profile, mean,
                       lovasz.norm_sq_lovasz(v) if norm_sq else None)

    def _maps(self):
        from .lovasz import lovasz_eval_batch, lovasz_slope_batch
        values = self.set_function.floats()
        return (partial(lovasz_eval_batch, values),
                partial(lovasz_slope_batch, values))


# Columns of one exponent multiplied before their power is taken.  A product
# of m uniforms is exp(-G), G a Gamma(m, 1) variate, and leaves the normal
# floats when G exceeds 708: never at m = 64, nearly always at m = 800.
PRODUCT_CHUNK = 64


class MultiplicativeSpec(FunctionSpec):
    """f(x) = prod_i phi_i(x_i).  A ``power-product`` file and the
    ``geometric-mean`` builtin load as ``symmetric`` specs of factors x^c."""

    kind = "multiplicative"
    engine = CLOSED_FORM
    takes_sorted = True
    _fields = ("arity", "factors")

    def __init__(self, arity: int, factors: Tuple[UnaryFactor, ...]):
        self.arity = arity
        self.factors = factors
        if len(factors) != arity:
            raise DomainError("expected %d factors, got %d"
                              % (arity, len(factors)))

    @classmethod
    def symmetric(cls, factor: UnaryFactor, arity: int) -> MultiplicativeSpec:
        return cls(arity, (factor,) * arity)

    def moments(self, norm_sq=True):
        return Moments(self.arity, self.engine, multiplicative_indices(self),
                       self.mean(), self.norm_sq() if norm_sq else None)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (m, n) array of points."""
        import numpy as np
        return self._product()(np.asarray(x, dtype=float))

    def _product(self):
        """f on (m, n) float arrays: each exponent's columns multiplied in
        order, PRODUCT_CHUNK at a time, one power per chunk, then callables."""
        import numpy as np
        groups, callables = {}, []
        for i, factor in enumerate(self.factors):
            if factor.is_symbolic:
                groups.setdefault(float(factor.exponent), []).append(i)
            else:
                callables.append((i, factor.phi))
        chunks = [(c, columns[lo:lo + PRODUCT_CHUNK])
                  for c, columns in groups.items()
                  for lo in range(0, len(columns), PRODUCT_CHUNK)]

        def product(x, xs=None):
            out = None
            for c, (first, *rest) in chunks:
                p = x[:, first].copy()
                for i in rest:
                    p *= x[:, i]
                p = p ** c
                out = p if out is None else np.multiply(out, p, out=out)
            out = np.ones(len(x)) if out is None else out
            for i, phi in callables:
                out *= np.fromiter(map(phi, x[:, i].tolist()), float, len(x))
            return out

        return product

    def mean(self) -> float:
        """prod_i Phi_i(1).  For x^c, c = p/d, Phi(1) = d / (p + d) in int
        true division, which rounds correctly, so equals float(phi_one())."""
        out = 1.0
        for factor in self.factors:
            if factor.is_symbolic:
                c = factor.exponent
                out *= c.denominator / (c.numerator + c.denominator)
            else:
                out *= float(factor.phi_one())
        return out

    def norm_sq(self) -> float:
        """<f, f> = prod_i int_0^1 phi_i^2, 0.0 only when some phi_i = 0;
        OverflowError where a positive product rounds to 0.0 or inf."""
        out = 1.0
        for factor in self.factors:
            integral = factor.phi_sq_integral()
            if integral == 0.0:
                return 0.0
            out *= integral
        if out in (0.0, inf):
            raise OverflowError("<f, f> is positive but rounds to %r" % out)
        return out

    def _maps(self):
        import numpy as np
        func = self._product()
        if not all(factor.is_symbolic for factor in self.factors):
            return (func,)
        exponents = np.array([float(f.exponent) for f in self.factors])
        one = exponents[0] if len(set(exponents.tolist())) == 1 else None

        def derivative(x, k, xs):
            # d/dx_(k) f = c f(x) / x_(k), c the exponent of x_(k)'s column
            c = one if one is not None else (
                (x == xs[k - 1][:, None]).astype(float) @ exponents)
            return c * func(x, xs) / xs[k - 1]

        return func, derivative


class RawEvaluatorSpec(FunctionSpec):
    """Black-box evaluator; Monte-Carlo only.  Not representable in a file."""

    kind = "builtin"
    _fields = ("raw",)

    def __init__(self, raw: Evaluator):
        self.raw = raw

    @property
    def arity(self) -> int:
        return self.raw.arity

    def evaluator(self):
        return self.raw


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def _conjunctive_threshold(x):
    # 0 below the 3/4 threshold on the largest input, else min capped at 1/4
    import numpy as np
    # on [0, 1]^2 the product by the boolean gives the same bits as a
    # select: v * 1 = v and v * 0 = +0.0
    x = np.asarray(x, dtype=float)
    return (np.minimum(np.minimum(x[:, 0], x[:, 1]), 0.25)
            * (np.maximum(x[:, 0], x[:, 1]) >= 0.75))


def _arithmetic_mean_set_function(n: int) -> SetFunction:
    from . import lovasz
    levels = [(size // gcd(size, n), n // gcd(size, n))
              for size in range(n + 1)]
    return lovasz.SetFunction.from_codes(n, levels, lovasz._levels(n)[0])


BUILTIN_NAMES = ("variance", "arithmetic-mean", "geometric-mean", "product",
                 "min", "max", "median", "conjunctive-example-6.1")


def resolve_builtin(name: str, arity: int) -> FunctionSpec:
    n = arity
    if n < 1:
        raise DomainError("arity must be >= 1")
    if name == "variance":
        if n < 2:
            raise DomainError("variance needs arity >= 2")
        return VarianceSpec(n)
    if name == "arithmetic-mean":
        from . import lovasz
        lovasz.check_arity(n)
        return SetFunctionSpec(_arithmetic_mean_set_function(n))
    if name == "geometric-mean":
        return MultiplicativeSpec.symmetric(UnaryFactor.power(Fraction(1, n)),
                                            n)
    if name == "product":
        terms = [(Fraction(1), {i: 1 for i in range(1, n + 1)})]
        return PlainPolynomialSpec(n, terms)
    if name == "min":
        return OrderStatPolynomialSpec(os_function(n, 1))
    if name == "max":
        return OrderStatPolynomialSpec(os_function(n, n))
    if name == "median":
        if n % 2:
            poly = os_function(n, (n + 1) // 2)
        else:
            poly = polynomial(n, [monomial(n, {n // 2: 1}, Fraction(1, 2)),
                                  monomial(n, {n // 2 + 1: 1}, Fraction(1, 2))])
        return OrderStatPolynomialSpec(poly)
    if name in ("conjunctive-example-6.1", "conjunctive-threshold"):
        if n != 2:
            raise DomainError("the conjunctive threshold builtin is binary")
        from . import montecarlo
        return RawEvaluatorSpec(montecarlo.Evaluator(
            2, _conjunctive_threshold, name=name))
    raise SpecFileError("unknown builtin %r; known: %s"
                        % (name, ", ".join(BUILTIN_NAMES)), location="name")


# ---------------------------------------------------------------------------
# JSON spec files
# ---------------------------------------------------------------------------

# The fields each kind reads besides "kind" and "arity".  A spec document
# holds no other key, so the report's echo of it holds only checked values.
KIND_FIELDS = {
    "orderstat-polynomial": ("terms", "constant"),
    "plain-polynomial": ("terms", "constant"),
    "set-function": ("values",),
    "multiplicative": ("factors",),
    "power-product": ("exponent",),
    "builtin": ("name",),
}


def _require(doc: dict, key: str, location: str):
    if key not in doc:
        raise SpecFileError("missing required field %r" % key, location)
    return doc[key]


def _only(doc: dict, location: str, *fields: str):
    """Refuse a key of the object ``doc`` that is not one of ``fields``: a
    misspelled field would otherwise be ignored."""
    for key in doc:
        if key not in fields:
            raise SpecFileError("unknown field %r" % key, location)


_PARSE_ERRORS = (ValueError, TypeError, ZeroDivisionError)


def _parse_ratio(value) -> Tuple[int, int]:
    """The JSON value ``value`` as an integer ratio in lowest terms; raises
    one of _PARSE_ERRORS if it is no rational.  A JSON decimal means the
    decimal it spells: repr is the shortest one that reads back as the same
    float, so 0.1 is 1/10, and 1e400, an infinite float, spells no number."""
    return integer_ratio(repr(value) if isinstance(value, float) else value)


def _parse_rational(value, location: str) -> Fraction:
    # a JSON true or false would pass as the int 1 or 0
    if isinstance(value, bool):
        raise SpecFileError("expected a rational, got %s"
                            % json.dumps(value), location)
    try:
        return Fraction(*_parse_ratio(value))
    except _PARSE_ERRORS:
        raise SpecFileError("cannot parse rational from %r" % (value,), location)


# The types json gives a number or a string, and Fraction.  Values of these
# types that are equal are one dict key, parsed once from the first of them;
# a value of another type (a numpy scalar, a Decimal) is refused, since it
# could equal one of these without parsing alike
_SCALARS = frozenset((str, int, float, Fraction))


def _parse_set_function(arity: int, values: list) -> SetFunction:
    """The set function with the given JSON values, each distinct one parsed
    once, to an integer ratio; a bad value is reported at the first index
    that holds it."""
    from . import lovasz
    return lovasz.SetFunction.from_codes(arity, *_coded(values))


def _coded(values: list) -> tuple:
    """The integer ratios of the distinct values of ``values``, in order of
    first appearance, and the code of each value among them.  1 and 1.0
    are one key and parse to one ratio."""
    odd = set(map(type, values)) - _SCALARS
    if odd:
        # a bool (true hashes as 1), null, list or object is no rational, so
        # the first one is the error unless a value before it is
        first = next(i for i, value in enumerate(values)
                     if type(value) in odd)
        _coded(values[:first])
        _parse_rational(values[first], "values[%d]" % first)
        raise SpecFileError("expected a number or a string, got %s"
                            % type(values[first]).__name__,
                            "values[%d]" % first)
    index = dict.fromkeys(values)
    ratios = []
    try:
        for value in index:
            ratios.append(_parse_ratio(value))
    except _PARSE_ERRORS:
        _parse_rational(value, "values[%d]" % values.index(value))
    index = dict(zip(index, range(len(index))))
    return ratios, list(map(index.__getitem__, values))


def _parse_terms(raw, location: str, slot_bound: int, max_exponent=None):
    if not isinstance(raw, list):
        raise SpecFileError("terms must be a list", location)
    if len(raw) > MAX_SIZE:
        raise SpecFileError("more than %d terms" % MAX_SIZE, location)
    terms = []
    for i, term in enumerate(raw):
        loc = "%s[%d]" % (location, i)
        if not isinstance(term, dict):
            raise SpecFileError("term must be an object", loc)
        _only(term, loc, "coefficient", "exponents")
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
            if idx in exps:  # keys such as "1" and "01"
                raise SpecFileError("index %d named twice" % idx, loc)
            if not isinstance(exp, int) or isinstance(exp, bool) or exp < 1:
                raise SpecFileError("exponent must be a positive integer", loc)
            if max_exponent is not None and exp > max_exponent:
                raise SpecFileError("exponent exceeds %d" % max_exponent, loc)
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
    if arity > MAX_SIZE:
        raise SpecFileError("arity exceeds %d" % MAX_SIZE, "arity")
    if not isinstance(kind, str) or kind not in KIND_FIELDS:
        raise SpecFileError("unknown kind %r" % (kind,), "kind")
    _only(doc, "$", "kind", "arity", *KIND_FIELDS[kind])

    if kind == "orderstat-polynomial":
        terms = _parse_terms(doc.get("terms", []), "terms", arity, MAX_SIZE)
        constant = _parse_rational(doc.get("constant", 0), "constant")
        mono_terms = [monomial(arity, exps, coeff) for coeff, exps in terms]
        return OrderStatPolynomialSpec(polynomial(arity, mono_terms, constant))
    if kind == "plain-polynomial":
        terms = _parse_terms(doc.get("terms", []), "terms", arity)
        constant = _parse_rational(doc.get("constant", 0), "constant")
        return PlainPolynomialSpec(arity, terms, constant)
    if kind == "set-function":
        from . import lovasz
        try:
            lovasz.check_arity(arity)
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
            if not isinstance(rf, dict):
                raise SpecFileError("factor must be an object", loc)
            _only(rf, loc, "exponent")
            c = _parse_rational(_require(rf, "exponent", loc), loc)
            if c <= Fraction(-1, 2):
                raise SpecFileError("factor exponent must exceed -1/2", loc)
            factors.append(UnaryFactor.power(c))
        return MultiplicativeSpec(arity, tuple(factors))
    if kind == "power-product":
        c = _parse_rational(_require(doc, "exponent", "exponent"), "exponent")
        if c <= Fraction(-1, 2):
            raise SpecFileError("exponent must exceed -1/2", "exponent")
        return MultiplicativeSpec.symmetric(UnaryFactor.power(c), arity)
    name = _require(doc, "name", "name")  # the last kind, "builtin"
    try:
        return resolve_builtin(name, arity)
    except DomainError as exc:  # an arity that the builtin does not take
        raise SpecFileError(str(exc), "arity")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key named twice, of
    which json would keep the last value, raises SpecFileError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SpecFileError("key %r named twice" % key)
            seen.add(key)
    return doc


def load_spec_document(path: str) -> dict:
    """The JSON document in the file at ``path``, for
    ``parse_spec_document``."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SpecFileError("cannot read %s: %s" % (path, exc), path)
    except UnicodeDecodeError as exc:
        raise SpecFileError("not UTF-8 text: %s" % exc, path)
    except json.JSONDecodeError as exc:
        raise SpecFileError("invalid JSON: %s" % exc, "%s:%d" % (path, exc.lineno))
    except (RecursionError, ValueError) as exc:
        # a key named twice, too deep a nesting or too long an integer
        raise SpecFileError("invalid JSON: %s" % exc, path)
    return doc
