"""Exact rational kernel for polynomials of order statistics.

Everything here is computed with arbitrary-precision rationals: the inner
products <f, x_(i)> and <f, f> of an order-statistic polynomial, summed as
integers from the closed-form moments of its terms without forming a
product of polynomials; the mean and <f, f> of a plain-variable polynomial;
and the influence indices of products of powers (product form), which also
give those of a plain-variable polynomial without symmetrizing it.  The
polynomial algebra, the moment of one monomial, the product-based inner
product, symmetrization and duality, f^d(x) = 1 - f(1 - x), are oracles of
the tests (``tests/reference.py``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm, prod
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import ConfigurationError, DomainError
from .record import FrozenRecord, set_field

RationalLike = Union[int, str, float, Fraction]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, floats and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(*integer_ratio(value))
    return Fraction(value)


def integer_ratio(value: RationalLike) -> Tuple[int, int]:
    """``as_rational(value)`` as (numerator, denominator) in lowest terms.
    An int or a float gives its own ratio, and an ASCII string of the form
    [-]digits/digits, [-]digits or [-]digits.digits is read by int and one
    gcd, so none of these builds a Fraction.  Every other spelling, and
    every refusal, is ``Fraction(value)``'s own."""
    if isinstance(value, str):
        ratio = _plain_ratio(value)
        if ratio is not None:
            return ratio
        value = Fraction(value)
    elif isinstance(value, (int, float)):
        return value.as_integer_ratio()
    elif not isinstance(value, Fraction):
        value = Fraction(value)
    return value.as_integer_ratio()


def _plain_ratio(text: str) -> Optional[Tuple[int, int]]:
    """(p, q) of ``text`` if it is [-]digits/digits with q > 0, [-]digits or
    [-]digits.digits in ASCII, else None."""
    if not text.isascii():
        return None
    negative = text[:1] == "-"
    body = text[negative:]
    if body.isdigit():
        return int(text), 1
    num, slash, den = body.partition("/")
    if slash:
        if not (num.isdigit() and den.isdigit()):
            return None
        p, q = int(num), int(den)
        if not q:  # Fraction raises its ZeroDivisionError
            return None
    else:
        # as Fraction reads a decimal: the whole part times 10^len, plus the
        # decimals, each within int's digit limit
        num, _, decimals = body.partition(".")
        if not (num.isdigit() and decimals.isdigit()):
            return None
        q = 10 ** len(decimals)
        p = int(num) * q + int(decimals)
    g = gcd(p, q)
    return -(p // g) if negative else p // g, q // g


def rational_string(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for ints p and q > 0, from the integers."""
    g = gcd(p, q)
    return "%d" % (p // g) if q == g else "%d/%d" % (p // g, q // g)


# ---------------------------------------------------------------------------
# Monomials and polynomials in order statistics
# ---------------------------------------------------------------------------

class OrderStatMonomial(FrozenRecord):
    """A term c * prod_j x_{(k_j)}^{c_j} with 1 <= k_1 < ... < k_m <= arity."""

    _fields = ("arity", "exponents", "coefficient")

    def __init__(self, arity: int, exponents: Tuple[Tuple[int, int], ...],
                 coefficient: Fraction):
        set_field(self, "arity", arity)
        # ((slot, exponent), ...), slots ascending
        set_field(self, "exponents", exponents)
        set_field(self, "coefficient", coefficient)
        if arity < 1:
            raise DomainError("arity must be positive")
        prev = 0
        for slot, exp in exponents:
            if not 1 <= slot <= arity:
                raise DomainError("slot %d outside [1, %d]" % (slot, arity))
            if exp < 1:
                raise DomainError("exponents must be >= 1")
            if slot <= prev:
                raise DomainError("slots must be strictly ascending")
            prev = slot

    def evaluate(self, x: Sequence):
        xs = sorted(x)
        value = self.coefficient
        for slot, exp in self.exponents:
            value = value * xs[slot - 1] ** exp
        return value


def monomial(arity: int, exponents: Mapping[int, int],
             coefficient: RationalLike = 1) -> OrderStatMonomial:
    items = tuple(sorted((int(k), int(c)) for k, c in exponents.items() if c))
    return OrderStatMonomial(arity, items, as_rational(coefficient))


class OrderStatPolynomial(FrozenRecord):
    """Canonical sum of order-statistic monomials plus a rational constant.

    Canonical means: no two terms share an exponent map, no zero coefficients,
    terms sorted by exponent map.  Built via :func:`polynomial`; a plain
    record, with no arithmetic.
    """

    _fields = ("arity", "terms", "constant")

    def __init__(self, arity: int, terms: Tuple[OrderStatMonomial, ...],
                 constant: Fraction):
        set_field(self, "arity", arity)
        set_field(self, "terms", terms)
        set_field(self, "constant", constant)

    def evaluate(self, x: Sequence):
        xs = sorted(x)
        value = self.constant
        for term in self.terms:
            part = term.coefficient
            for slot, exp in term.exponents:
                part = part * xs[slot - 1] ** exp
            value = value + part
        return value


def polynomial(arity: int, terms: Iterable[OrderStatMonomial] = (),
               constant: RationalLike = 0) -> OrderStatPolynomial:
    """Build a canonical OrderStatPolynomial, merging duplicate exponent maps."""
    merged = {}
    for term in terms:
        if term.arity != arity:
            raise DomainError("term arity %d != polynomial arity %d"
                              % (term.arity, arity))
        merged[term.exponents] = merged.get(term.exponents, Fraction(0)) + term.coefficient
    canon = tuple(OrderStatMonomial(arity, exps, coeff)
                  for exps, coeff in sorted(merged.items()) if coeff != 0)
    return OrderStatPolynomial(arity, canon, as_rational(constant))


def os_function(arity: int, k: int) -> OrderStatPolynomial:
    """The function x -> x_{(k)} as a polynomial; rank 0 is the zero function
    and rank arity+1 is the constant one."""
    if not 0 <= k <= arity + 1:
        raise DomainError("rank %d outside [0, %d]" % (k, arity + 1))
    if k == 0:
        return polynomial(arity)
    if k == arity + 1:
        return polynomial(arity, constant=1)
    return polynomial(arity, [monomial(arity, {k: 1})])


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------

def _weight(exponents: Sequence[Tuple[int, int]], running: int = 0) -> int:
    """The integer prod_j (k_j - 1 + c_1+...+c_j)! / (k_j - 1 + c_1+...+c_{j-1})!
    for (slot, exponent) pairs in ascending slot order and ``running`` more
    degrees on the slots below them.  With ``running`` = 0 the integral of
    prod_j x_{(k_j)}^{c_j} over [0,1]^n is n!/(n + sum c)! times it.  A slot
    may repeat: the rising factorials chain, so x_(k)^a x_(k)^b weighs as
    x_(k)^(a+b)."""
    weight = 1
    for slot, exp in exponents:
        running += exp
        weight *= perm(slot - 1 + running, exp)
    return weight


def _scaled_terms(f: OrderStatPolynomial) -> Tuple[int, list]:
    """(Q, [(a, exponents, degree), ...]): the nonzero terms of f, its
    constant as the empty monomial, with integer coefficients a over their
    common denominator Q."""
    terms = [(f.constant, ())] + [(t.coefficient, t.exponents) for t in f.terms]
    q = lcm(*(c.denominator for c, _ in terms))
    return q, [(c.numerator * (q // c.denominator), exps, sum(e for _, e in exps))
               for c, exps in terms if c]


def rank_inner_products(f: OrderStatPolynomial) -> Tuple[list, int]:
    """b_i = <f, x_(i)> for i = 0, ..., n+1, with x_(0) = 0 and x_(n+1) = 1
    (so b_{n+1} is the integral of f), as integer numerators over one
    denominator, without forming f * x_(i).

    A term of total degree t adds its coefficient times n!/(n+t+1)! times
    W(e + x_(i)), W the integer weight of ``_weight``.  With j the number of
    the term's slots at or below i and C_j their exponent sum, that weight
    is W(first j slots) (i + C_j) W(other slots, C_j + 1 degrees below).
    So between two of its slots a term is linear in i, also at i = 0 and
    i = n+1."""
    n = f.arity
    q, terms = _scaled_terms(f)
    top = max((t for _, _, t in terms), default=0) + 1
    b = [0] * (n + 2)
    for a, exps, degree in terms:
        a *= perm(n + top, top - degree - 1)  # n!/(n+degree+1)! over n!/(n+top)!
        bounds = [0] + [slot for slot, _ in exps] + [n + 2]
        for j in range(len(exps) + 1):
            c = sum(e for _, e in exps[:j])
            step = a * _weight(exps[:j]) * _weight(exps[j:], c + 1)
            for i in range(bounds[j], bounds[j + 1]):
                b[i] += step * (i + c)
    return b, q * perm(n + top, top)


def orderstat_norm_sq(f: OrderStatPolynomial) -> Fraction:
    """Exact <f, f> of an order-statistic polynomial without forming f * f:
    each unordered pair of terms is visited once, an off-diagonal pair
    counting twice, and the integer weight of its merged exponents is summed
    per total degree t.  With the coefficients over one denominator Q,
    <f, f> = sum_t S_t n!/(n+t)! / Q^2, one Fraction."""
    n = f.arity
    q, terms = _scaled_terms(f)
    sums = {}
    for i, (a, e, s) in enumerate(terms):
        sums[2 * s] = sums.get(2 * s, 0) + a * a * _weight(sorted(e + e))
        a *= 2
        for b, g, t in terms[i + 1:]:
            sums[s + t] = sums.get(s + t, 0) + a * b * _weight(sorted(e + g))
    top = max(sums, default=0)
    return Fraction(sum(v * perm(n + top, top - t) for t, v in sums.items()),
                    q * q * perm(n + top, top))


# ---------------------------------------------------------------------------
# Product form: the indices of a product of powers
# ---------------------------------------------------------------------------

PRODUCT_FORM_LIMIT = 250_000  # terms the expanded groups of a product form may hold


def product_indices(exponents: Sequence[RationalLike]) -> Tuple[Fraction, ...]:
    """Exact I(f, 1..n) of f(x) = prod_i x_i^{c_i}, with n = len(exponents),
    every c_i rational above -1/2, and c_i = 0 for a variable f does not use.

    With Phi_i(y) = y^{c_i+1}/(c_i+1), Phibar_i = Phi_i(1) - Phi_i and
    sum_j r_j(y) w^j = prod_i (Phibar_i(y) + w Phi_i(y)),

        I(f, k) = (n+1)(n+2) int_0^1 (r_{k-1}(y) - r_k(y)) dy,

    the alternating subset expansion of the index summed in closed form.
    Once the scale prod_i 1/(c_i+1) is pulled out, each factor reads
    1 - u + w u with u = y^{c_i+1}.  In z = y^{1/D}, D the common denominator
    of the c_i, the r_j are then polynomials with integer coefficients, and
    int_0^1 z^q dy = D/(q+D).  The m variables that share an exponent enter
    at once through (1 - u + w u)^m = sum_j C(m,j) w^j u^j (1-u)^{m-j}, and
    the largest such group is integrated in closed form, unexpanded.

    The work is polynomial in n for a fixed set of distinct exponents, and
    linear in the size of the largest group; a product form whose other
    groups would expand to more than ``PRODUCT_FORM_LIMIT`` terms raises
    ``ConfigurationError`` before it is built.
    """
    cs = [as_rational(c) for c in exponents]
    den = lcm(*(c.denominator for c in cs))
    differences, scale = _product_form(Counter(int((c + 1) * den) for c in cs), den)
    return tuple(scale * d for d in differences)


def _product_form(groups: Mapping[int, int], den: int) -> Tuple[list, Fraction]:
    """The product form of ``product_indices`` in integers, for groups
    {p: m} of m variables with u = z^p, p = (c + 1) D and D = ``den``: the
    differences sums[k-1] - sums[k], k = 1..n, and the one scale that turns
    them into I(f, k).  With n = sum m, the scale
    (n+1)(n+2) D / L * prod_i 1/(c_i+1) is (n+1)(n+2) D^{n+1} / (L prod p^m),
    L the common denominator of the integrals.

    The largest group (p, m) is not expanded.  Against z^q from the others,
    its term C(m,i) w^i z^{pi} (1 - z^p)^{m-i} integrates, a Beta integral,
    to D (m!/i!) p^{m-i} / prod_{s=i}^{m} (q + D + ps).  Over L, the lcm of
    the full products P(q) = prod_{s=0}^{m} (q + D + ps), that is the
    integer g_i = (m!/i!) p^{m-i} (L / P(q)) prod_{s<i} (q + D + ps), and
    g_{i+1} = g_i (q + D + pi) / ((i+1) p) exactly."""
    if not groups:
        raise DomainError("a product needs at least one variable")
    if 2 * min(groups) <= den:
        raise DomainError("exponents must exceed -1/2")
    n = sum(groups.values())
    p = max(groups, key=groups.get)
    rest = dict(groups)
    m = rest.pop(p)
    # each r_j holds at most one term per reachable sum of group powers
    powers = min(prod(k + 1 for k in rest.values()),
                 sum(g * k for g, k in rest.items()) + 1)
    if (n - m + 1) * powers > PRODUCT_FORM_LIMIT:
        raise ConfigurationError(
            "the product form needs up to %d terms, above the limit %d"
            % ((n - m + 1) * powers, PRODUCT_FORM_LIMIT))
    r = [{0: 1}]  # r[j] maps a power q of z to its coefficient in r_j
    for g, k in rest.items():
        group = [{g * (j + t): comb(k, j) * comb(k - j, t) * (-1) ** t
                  for t in range(k - j + 1)} for j in range(k + 1)]
        out = [{} for _ in range(len(r) + k)]
        for j, rj in enumerate(r):
            for i, gi in enumerate(group):
                acc = out[i + j]
                for q, a in rj.items():
                    for s, b in gi.items():
                        acc[q + s] = acc.get(q + s, 0) + a * b
        r = out
    full = {q: prod(range(q + den, q + den + p * m + 1, p)) for q in set().union(*r)}
    common = lcm(*full.values())
    sums = [0] * (n + 1)
    for q, pq in full.items():
        g = [factorial(m) * p ** m * (common // pq)]
        for i in range(m):
            g.append(g[i] * (q + den + p * i) // ((i + 1) * p))
        for j, rj in enumerate(r):
            a = rj.get(q)
            if a:
                sums[j:j + m + 1] = [s + a * gi for s, gi in zip(sums[j:j + m + 1], g)]
    scale = Fraction((n + 1) * (n + 2) * den ** (n + 1),
                     common * prod(g ** k for g, k in groups.items()))
    return [sums[k - 1] - sums[k] for k in range(1, n + 1)], scale


def plain_indices(arity: int,
                  plain_terms: Iterable[Tuple[RationalLike, Mapping[int, int]]]
                  ) -> Tuple[Fraction, ...]:
    """Exact I(f, 1..n) of a plain-variable polynomial without symmetrizing
    it.  The index is linear in f and blind to which variables carry which
    exponents, so the terms are grouped by their sorted exponent list and
    the product form is built once per group with a nonzero coefficient sum.
    Each group's integer differences enter one sum over a common
    denominator.  Constants have index 0."""
    n = arity
    shapes = {}
    for coeff, exps in plain_terms:
        for v in exps:
            if not 1 <= int(v) <= n:
                raise DomainError("variable index %s outside [1, %d]" % (v, n))
        shape = tuple(sorted((int(c) for c in exps.values() if c), reverse=True))
        if len(shape) > n:
            raise DomainError("monomial uses more variables than the arity")
        shapes[shape] = shapes.get(shape, Fraction(0)) + as_rational(coeff)
    parts = []
    for shape, coeff in shapes.items():
        if shape and coeff:
            # the unused variables are one group of power D = 1
            groups = Counter(c + 1 for c in shape) + Counter({1: n - len(shape)})
            differences, scale = _product_form(groups, 1)
            parts.append((coeff * scale, differences))
    common = lcm(*(r.denominator for r, _ in parts))
    total = [0] * n
    for r, differences in parts:
        weight = r.numerator * (common // r.denominator)
        total = [t + weight * d for t, d in zip(total, differences)]
    return tuple(Fraction(t, common) for t in total)


def plain_integral(plain_terms: Iterable[Tuple[RationalLike, Mapping[int, int]]],
                   constant: RationalLike = 0) -> Fraction:
    """Exact integral over the unit cube of a plain-variable polynomial,
    term by term with E[prod_i x_i^{a_i}] = prod_i 1/(a_i + 1)."""
    total = as_rational(constant)
    for coeff, exps in plain_terms:
        value = as_rational(coeff)
        for exp in exps.values():
            value /= int(exp) + 1
        total += value
    return total


def plain_norm_sq(plain_terms: Iterable[Tuple[RationalLike, Mapping[int, int]]],
                  constant: RationalLike = 0) -> Fraction:
    """Exact <f, f> of a plain-variable polynomial: the integral of the
    product of every pair of its terms, E[prod_v x_v^{a_v+b_v}] =
    1/prod_v (a_v+b_v+1).  Each unordered pair is visited once and an
    off-diagonal pair counts twice.  With the coefficients scaled to one
    common denominator Q, the pairs are summed as integers per distinct
    divisor, and only those sums become Fractions."""
    terms = [(as_rational(constant), {})]
    terms += [(as_rational(c), {int(v): int(e) for v, e in exps.items()})
              for c, exps in plain_terms]
    q = lcm(*(c.denominator for c, _ in terms))
    scaled = [(c.numerator * (q // c.denominator), a) for c, a in terms if c]
    by_divisor = {}
    for i, (c, a) in enumerate(scaled):
        for j in range(i, len(scaled)):
            d, b = scaled[j]
            divisor = 1
            for v, e in a.items():
                divisor *= e + b.get(v, 0) + 1
            for v, e in b.items():
                if v not in a:
                    divisor *= e + 1
            by_divisor[divisor] = (by_divisor.get(divisor, 0)
                                   + (c * d if i == j else 2 * c * d))
    return sum((Fraction(s, d) for d, s in by_divisor.items()),
               Fraction(0)) / (q * q)
