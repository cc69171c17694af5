"""Reference values for every function spec the benchmark runs.

Nothing here imports ``ordinfluence``: each reference is derived by a route
of its own, so that a wrong program answer cannot also be the reference.

All quantities follow from four primaries, the influence profile
I(f, 1..n), the mean <f, 1>, the squared norm <f, f> and the arity n:

* the best shifted L-statistic has slopes I(f, k) and, by mean
  preservation, intercept a_tail = mean - sum_k k I(f, k) / (n + 1);
* its variance is sum_ij I_i I_j Cov(x_(i), x_(j)) with the uniform
  order-statistic covariance i (n + 1 - j) / ((n + 1)^2 (n + 2)), i <= j;
* R^2 = Var(f_L) / Var(f), the residual is Var(f) - Var(f_L) (orthogonal
  projection) and r(f, k) = I(f, k) / (sigma(f) sqrt(2 (n + 1)(n + 2))).

Exact references are ``Fraction``s; the set-function <f, f> is a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Moments:
    """The primaries of one function.  ``sym_norm_sq`` is <Sym f, Sym f>,
    set only for plain polynomials: it is what the program reports in place
    of <f, f> (known defect, ROADMAP item 1)."""

    n: int
    indices: tuple
    mean: object
    norm_sq: object
    sym_norm_sq: Optional[object] = None


@dataclass(frozen=True)
class Derived:
    a_tail: object
    variance: object
    r_squared: object
    residual: object
    normalized: tuple


def order_stat_cov(n: int, i: int, j: int) -> Fraction:
    """Cov(x_(i), x_(j)) for n iid uniforms."""
    i, j = min(i, j), max(i, j)
    return Fraction(i * (n + 1 - j), (n + 1) ** 2 * (n + 2))


def lstat_variance(n: int, slopes: Sequence) -> object:
    return sum(slopes[i - 1] * slopes[j - 1] * order_stat_cov(n, i, j)
               for i in range(1, n + 1) for j in range(1, n + 1))


def derive(m: Moments, norm_sq=None) -> Derived:
    """Quantities of the best approximation that follow from the primaries;
    pass ``norm_sq`` to derive them for another squared norm."""
    n = m.n
    norm_sq = m.norm_sq if norm_sq is None else norm_sq
    a_tail = m.mean - sum(k * a for k, a in enumerate(m.indices, 1)) / Fraction(n + 1)
    var_l = lstat_variance(n, m.indices)
    variance = norm_sq - m.mean * m.mean
    scale = math.sqrt(float(variance)) * math.sqrt(2 * (n + 1) * (n + 2))
    return Derived(a_tail, variance, var_l / variance, variance - var_l,
                   tuple(float(a) / scale for a in m.indices))


def indices_from_os_products(n: int, e_os: Sequence) -> tuple:
    """I(f, k) = <f, g_k> with g_k = -(n+1)(n+2)(x_(k+1) - 2 x_(k) + x_(k-1));
    ``e_os[j]`` is E[f x_(j)] for j = 0..n+1 (x_(0) = 0, x_(n+1) = 1)."""
    s = (n + 1) * (n + 2)
    return tuple(-s * (e_os[k + 1] - 2 * e_os[k] + e_os[k - 1])
                 for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Polynomials in order statistics: iterated integral over the ordered simplex
# ---------------------------------------------------------------------------

def os_monomial_moment(exps: Sequence[int]) -> Fraction:
    """E[prod_k x_(k)^{e_k}] for n iid uniforms, by integrating y_1, y_2, ...
    in turn over 0 <= y_1 <= ... <= y_n <= 1 (density n!):
    n! / prod_m (m + e_1 + ... + e_m)."""
    n = len(exps)
    denom, running = 1, 0
    for m, e in enumerate(exps, 1):
        running += e
        denom *= m + running
    return Fraction(factorial(n), denom)


def orderstat_poly_moments(n: int, terms, constant=Fraction(0)) -> Moments:
    """``terms`` is a list of (coefficient, {slot: exponent})."""
    dense = [(Fraction(c), tuple(e.get(s, 0) for s in range(1, n + 1)))
             for c, e in terms]
    dense.append((Fraction(constant), (0,) * n))

    def expect(shift):
        return sum((c * os_monomial_moment([a + b for a, b in zip(e, shift)])
                    for c, e in dense), Fraction(0))

    unit = [tuple(int(s == j) for s in range(1, n + 1)) for j in range(1, n + 1)]
    mean = expect((0,) * n)
    e_os = [Fraction(0)] + [expect(u) for u in unit] + [mean]
    norm_sq = sum((c * d * os_monomial_moment([a + b for a, b in zip(e, g)])
                   for c, e in dense for d, g in dense), Fraction(0))
    return Moments(n, indices_from_os_products(n, e_os), mean, norm_sq)


def lstat_moments(n: int, slopes: Sequence) -> Moments:
    """f = sum_k a_k x_(k): I(f, k) = a_k and R^2 = 1."""
    slopes = tuple(Fraction(a) for a in slopes)
    mean = sum(a * Fraction(k, n + 1) for k, a in enumerate(slopes, 1))
    return Moments(n, slopes, mean, lstat_variance(n, slopes) + mean * mean)


# ---------------------------------------------------------------------------
# Products of powers of single variables: layer-cake representation
# ---------------------------------------------------------------------------

def power_times_order_stats(betas: Sequence[Fraction]) -> list:
    """E[prod_i x_i^(beta_i - 1) x_(j)] for j = 0..n+1.

    x_(j) = int_0^1 1[fewer than j coordinates lie below t] dt.  With S the
    coordinates below t, the integrand factorises into t^beta_i / beta_i
    (i in S) and (1 - t^beta_i) / beta_i (i not in S); expanding the second
    product over T, a subset of the complement of S, and integrating t gives
    sum_{|S| < j} sum_T (-1)^|T| / (1 + beta(S u T)), over prod_i beta_i.
    """
    n = len(betas)
    full = (1 << n) - 1
    beta_sum = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        beta_sum[mask] = beta_sum[mask ^ low] + betas[low.bit_length() - 1]
    by_level = [Fraction(0)] * (n + 1)
    for s_mask in range(1 << n):
        comp = full ^ s_mask
        t_mask = comp
        total = Fraction(0)
        while True:
            term = 1 / (1 + beta_sum[s_mask | t_mask])
            total += -term if bin(t_mask).count("1") % 2 else term
            if t_mask == 0:
                break
            t_mask = (t_mask - 1) & comp
        by_level[bin(s_mask).count("1")] += total
    scale = math.prod(betas, start=Fraction(1))
    out, running = [Fraction(0)], Fraction(0)
    for j in range(1, n + 1):
        running += by_level[j - 1]
        out.append(running / scale)
    out.append(1 / scale)
    return out


def plain_monomial_moment(exps: Sequence) -> Fraction:
    """E[prod_i x_i^{a_i}] = prod_i 1 / (a_i + 1)."""
    return math.prod((1 / (Fraction(a) + 1) for a in exps), start=Fraction(1))


def plain_poly_moments(n: int, terms, constant=Fraction(0)) -> Moments:
    """``terms`` is a list of (coefficient, {variable: exponent})."""
    dense = [(Fraction(c), tuple(e.get(v, 0) for v in range(1, n + 1)))
             for c, e in terms]
    dense.append((Fraction(constant), (0,) * n))
    e_os = [Fraction(0)] * (n + 2)
    for c, e in dense:
        for j, value in enumerate(power_times_order_stats([a + 1 for a in e])):
            e_os[j] += c * value
    norm_sq = sum((c * d * plain_monomial_moment([a + b for a, b in zip(e, g)])
                   for c, e in dense for d, g in dense), Fraction(0))
    return Moments(n, indices_from_os_products(n, e_os), e_os[n + 1], norm_sq,
                   sym_norm_sq=_sym_norm_sq(n, dense))


def _sym_norm_sq(n: int, dense) -> Fraction:
    """<Sym f, Sym f> = (1/n!) sum_pi <f, f o pi>."""
    total = Fraction(0)
    for c, e in dense:
        for d, g in dense:
            counts = {}
            for pi in permutations(range(n)):
                denom = math.prod(e[i] + g[pi[i]] + 1 for i in range(n))
                counts[denom] = counts.get(denom, 0) + 1
            total += c * d * sum((Fraction(k, den) for den, k in counts.items()),
                                 Fraction(0))
    return total / factorial(n)


def multiplicative_moments(exponents: Sequence) -> Moments:
    """f = prod_i x_i^{c_i}: mean and <f, f> are products of factor moments."""
    cs = [Fraction(c) for c in exponents]
    n = len(cs)
    e_os = power_times_order_stats([c + 1 for c in cs])
    mean = plain_monomial_moment(cs)
    norm_sq = plain_monomial_moment([2 * c for c in cs])
    return Moments(n, indices_from_os_products(n, e_os), mean, norm_sq)


def power_product_moments(n: int, c) -> Moments:
    """f = (x_1 ... x_n)^c by the Gamma formula
    I(f, k) = c u^{n+2} Gamma(n+3) Gamma(k-1+u) / (Gamma(k+1) Gamma(n+1+u)),
    u = 1/(c+1), evaluated exactly: Gamma(n+1+u) / Gamma(k-1+u) is the
    product of (j + u) for j = k-1..n."""
    c = Fraction(c)
    u = 1 / (c + 1)
    indices = tuple(
        c * u ** (n + 2) * Fraction(factorial(n + 2), factorial(k))
        / math.prod((j + u for j in range(k - 1, n + 1)), start=Fraction(1))
        for k in range(1, n + 1))
    return Moments(n, indices, (c + 1) ** -n, (2 * c + 1) ** -n)


def variance_moments(n: int) -> Moments:
    """The sample variance (1/n) sum (x_i - xbar)^2: the paper's slopes
    (n+2)(2k-n-1) / (n^2 (n+3)), checked against its intercept
    (1 - n^2) / (12 n (n + 3)); mean and <f, f> from its plain form."""
    terms = [(Fraction(n - 1, n * n), {i: 2}) for i in range(1, n + 1)]
    terms += [(Fraction(-2, n * n), {i: 1, j: 1})
              for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    dense = [(c, tuple(e.get(v, 0) for v in range(1, n + 1))) for c, e in terms]
    mean = sum((c * plain_monomial_moment(e) for c, e in dense), Fraction(0))
    norm_sq = sum((c * d * plain_monomial_moment([a + b for a, b in zip(e, g)])
                   for c, e in dense for d, g in dense), Fraction(0))
    slopes = tuple(Fraction((n + 2) * (2 * k - n - 1), n * n * (n + 3))
                   for k in range(1, n + 1))
    m = Moments(n, slopes, mean, norm_sq)
    if derive(m).a_tail != Fraction(1 - n * n, 12 * n * (n + 3)):
        raise ValueError("variance slopes disagree with the paper's intercept")
    return m


# The conjunctive example: f = 0 when max(x_1, x_2) < 3/4, else
# min(x_1, x_2, 1/4).  Integrating over y_1 <= y_2 (density 2) by hand gives
# E[f x_(1)] = 3/64, E[f x_(2)] = 127/1536, E[f] = 3/32, E[f^2] = 17/768,
# hence I(f, 1) = 17/128 and I(f, 2) = 19/64 as in the paper.
CONJUNCTIVE = Moments(2, (Fraction(17, 128), Fraction(19, 64)),
                      Fraction(3, 32), Fraction(17, 768))


# ---------------------------------------------------------------------------
# Set functions (Lovasz extensions)
# ---------------------------------------------------------------------------

def popcounts(n: int) -> np.ndarray:
    return np.array([bin(m).count("1") for m in range(1 << n)], dtype=np.int64)


def mobius_exact(values: Sequence[Fraction]) -> list:
    """m(S) = sum_{T subset S} (-1)^{|S|-|T|} v(T), by the subset-sum
    recursion run backwards."""
    arr = list(values)
    n = len(arr).bit_length() - 1
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                arr[mask] -= arr[mask ^ bit]
    return arr


def level_averages(values: Sequence[Fraction]) -> list:
    n = len(values).bit_length() - 1
    sums = [Fraction(0)] * (n + 1)
    for mask, v in enumerate(values):
        sums[bin(mask).count("1")] += v
    return [sums[s] / comb(n, s) for s in range(n + 1)]


def min_min_norm_sq(n: int, mob: Sequence[Fraction]) -> float:
    """<f, f> for f = sum_S m(S) min_{i in S} x_i (min over the empty set is
    1).  E[min_S min_T] = int int P(min_S > s, min_T > t) ds dt; with
    a = |S \\ T|, b = |T \\ S|, c = |S n T| this is
    (1/(a+1)) (1/(b+c+1) - 1/(a+b+c+2)) + (1/(b+1)) (1/(a+c+1) - 1/(a+b+c+2))."""
    masks = np.array([m for m, v in enumerate(mob) if v != 0], dtype=np.int64)
    coef = np.array([float(mob[m]) for m in masks])
    if len(masks) == 0:
        return 0.0
    pc = popcounts(n)
    c = pc[masks[:, None] & masks[None, :]].astype(float)
    a = pc[masks][:, None] - c
    b = pc[masks][None, :] - c
    joint = (1 / (a + 1) * (1 / (b + c + 1) - 1 / (a + b + c + 2))
             + 1 / (b + 1) * (1 / (a + c + 1) - 1 / (a + b + c + 2)))
    size_s, size_t = pc[masks][:, None], pc[masks][None, :]
    joint = np.where(size_s == 0, 1 / (size_t + 1.0), joint)
    joint = np.where(size_t == 0, 1 / (size_s + 1.0), joint)
    joint = np.where((size_s == 0) & (size_t == 0), 1.0, joint)
    return float(coef @ joint @ coef)


def set_function_moments(values: Sequence[Fraction], indices=None,
                         with_norm: bool = True) -> Moments:
    """Indices as level-average differences vbar(n-k+1) - vbar(n-k); the
    mean sum_S m(S) / (|S|+1); <f, f> from the Mobius/min-min form, which
    takes O(4^n) memory and is skipped (None) without ``with_norm``."""
    values = [Fraction(v) for v in values]
    n = len(values).bit_length() - 1
    if indices is None:
        vbar = level_averages(values)
        indices = tuple(vbar[n - k + 1] - vbar[n - k] for k in range(1, n + 1))
    mob = mobius_exact(values)
    mean = sum((m / (bin(mask).count("1") + 1) for mask, m in enumerate(mob)),
               Fraction(0))
    return Moments(n, tuple(indices), mean,
                   min_min_norm_sq(n, mob) if with_norm else None)


def subset_os_values(n: int, subset: Sequence[int], j: int) -> list:
    """Vertex values of the j-th smallest of the variables in ``subset``:
    1 at T iff at least |S| - j + 1 members of S lie in T."""
    members = set(subset)
    need = len(members) - j + 1
    return [Fraction(int(sum(1 for i in members if mask >> (i - 1) & 1) >= need))
            for mask in range(1 << n)]


def subset_os_moments(n: int, subset: Sequence[int], j: int,
                      with_norm: bool = True) -> Moments:
    """I(f, k) = C(k-1, j-1) C(n-k, |S|-j) / C(n, |S|)."""
    s = len(set(subset))
    indices = tuple(Fraction(comb(k - 1, j - 1) * comb(n - k, s - j), comb(n, s))
                    for k in range(1, n + 1))
    return set_function_moments(subset_os_values(n, subset, j), indices, with_norm)


def equal_influence(values: Sequence[Fraction]) -> dict:
    """The three equal-influence conditions and the first level violating
    each: flat profile, vbar in arithmetic progression, mbar(s) = 0 for
    s >= 2 (they are equivalent, so the three flags agree)."""
    values = [Fraction(v) for v in values]
    n = len(values).bit_length() - 1
    vbar = level_averages(values)
    mbar = level_averages(mobius_exact(values))
    profile = [vbar[n - k + 1] - vbar[n - k] for k in range(1, n + 1)]
    witnesses = {}
    for k in range(2, n + 1):
        if profile[k - 1] != profile[0]:
            witnesses["profile"] = k
            break
    for s in range(2, n + 1):
        if vbar[s] - vbar[s - 1] != vbar[1] - vbar[0]:
            witnesses["vbar"] = s
            break
    for s in range(2, n + 1):
        if mbar[s] != 0:
            witnesses["mbar"] = s
            break
    return {"equal": not witnesses,
            "profile_flat": "profile" not in witnesses,
            "vbar_arithmetic": "vbar" not in witnesses,
            "mbar_vanishing": "mbar" not in witnesses,
            "first_violations": witnesses}


# ---------------------------------------------------------------------------
# Dispatch on a spec document
# ---------------------------------------------------------------------------

def _terms(doc):
    return [(Fraction(t["coefficient"]), {int(k): int(v) for k, v in t["exponents"].items()})
            for t in doc.get("terms", [])]


def moments_for(doc: dict, subset_os: Optional[dict] = None,
                with_norm: bool = True) -> Moments:
    """Reference primaries for a spec document in the program's file format;
    ``subset_os`` ({"subset": [...], "rank": j}) marks a set function built
    by ``subset_os_values``.  Without ``with_norm`` a set function's <f, f>
    is left out (None)."""
    kind, n = doc["kind"], doc["arity"]
    if kind == "builtin":
        name = doc["name"]
        if name == "min":
            return lstat_moments(n, [1] + [0] * (n - 1))
        if name == "median":
            slopes = [Fraction(0)] * n
            if n % 2:
                slopes[n // 2] = Fraction(1)
            else:
                slopes[n // 2 - 1] = slopes[n // 2] = Fraction(1, 2)
            return lstat_moments(n, slopes)
        if name == "arithmetic-mean":
            return lstat_moments(n, [Fraction(1, n)] * n)
        if name == "product":
            return power_product_moments(n, 1)
        if name == "variance":
            return variance_moments(n)
        if name == "conjunctive-example-6.1":
            return CONJUNCTIVE
        raise ValueError("no reference for builtin %r" % name)
    if kind == "orderstat-polynomial":
        return orderstat_poly_moments(n, _terms(doc), Fraction(doc.get("constant", 0)))
    if kind == "plain-polynomial":
        return plain_poly_moments(n, _terms(doc), Fraction(doc.get("constant", 0)))
    if kind == "power-product":
        return power_product_moments(n, Fraction(doc["exponent"]))
    if kind == "multiplicative":
        return multiplicative_moments([Fraction(f["exponent"]) for f in doc["factors"]])
    if kind == "set-function":
        if subset_os is not None:
            return subset_os_moments(n, subset_os["subset"], subset_os["rank"], with_norm)
        return set_function_moments([Fraction(v) for v in doc["values"]], None, with_norm)
    raise ValueError("no reference for kind %r" % kind)
