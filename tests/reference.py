"""Reference forms of the influence index that the engines are checked against.

The paper states I(f, k) in several equivalent ways.  The functions here
compute the ones no user path needs: the expansion of a sum of subset order
statistics in full order statistics, the min/max expansions of x_(k), the
pointwise Moebius form and directional slope of a Lovasz extension, the
hypergeometric influence of a subset order statistic with its vertex set
function, the dual set function, the sample variance expanded into plain
terms, and the exact product form of a product of powers built one factor
at a time.  The package computes none of them, so each stays an independent
check on the exact, Lovasz, closed-form and Monte-Carlo engines.

The file is not named ``oracles``: ``perfbench`` imports its own
``oracles.py`` as a top-level module, which a second module of that name
would shadow in one pytest session.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Sequence, Tuple

from ordinfluence.errors import DomainError
from ordinfluence.lovasz import SetFunction, mobius


# ---------------------------------------------------------------------------
# Subset order-statistic expansions
# ---------------------------------------------------------------------------

def expand_subset_sum(n: int, s: int, k: int) -> Tuple[int, ...]:
    """Coefficients (over x_{1:n}, ..., x_{n:n}) of the sum of the k-th order
    statistic over all subsets of size s:

        sum_{|S|=s} x_{k:S} = sum_j C(j-1, k-1) C(n-j, s-k) x_{j:n}.
    """
    if not 1 <= k <= s <= n:
        raise DomainError("need 1 <= k <= s <= n, got k=%d s=%d n=%d" % (k, s, n))
    return tuple(comb(j - 1, k - 1) * comb(n - j, s - k) for j in range(1, n + 1))


@dataclass(frozen=True)
class SignedSubsetCombination:
    """A signed combination sum coeff * x_{rank:S} of subset order statistics."""

    arity: int
    terms: Tuple[Tuple[frozenset, int, Fraction], ...]

    def evaluate(self, x: Sequence):
        value = Fraction(0) if all(isinstance(v, (int, Fraction)) for v in x) else 0.0
        for subset, rank, coeff in self.terms:
            vals = sorted(x[i - 1] for i in subset)
            value = value + coeff * vals[rank - 1]
        return value


def expand_min_max(n: int, k: int, mode: str) -> SignedSubsetCombination:
    """Express x_{k:n} through subset maxima ('via-max') or minima ('via-min').

    via-max: x_{k:n} = sum_{|S| >= k} (-1)^{|S|-k} C(|S|-1, k-1) max_S
    via-min: x_{k:n} = sum_{|S| >= n-k+1} (-1)^{|S|-n+k-1} C(|S|-1, n-k) min_S
    """
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    terms = []
    if mode == "via-max":
        for size in range(k, n + 1):
            coeff = Fraction((-1) ** (size - k) * comb(size - 1, k - 1))
            for subset in combinations(range(1, n + 1), size):
                terms.append((frozenset(subset), size, coeff))
    elif mode == "via-min":
        for size in range(n - k + 1, n + 1):
            coeff = Fraction((-1) ** (size - n + k - 1) * comb(size - 1, n - k))
            for subset in combinations(range(1, n + 1), size):
                terms.append((frozenset(subset), 1, coeff))
    else:
        raise DomainError("mode must be 'via-max' or 'via-min', got %r" % (mode,))
    return SignedSubsetCombination(n, tuple(terms))


# ---------------------------------------------------------------------------
# Lovasz extensions, pointwise
# ---------------------------------------------------------------------------

def eval_lovasz_mobius(v: SetFunction, x: Sequence) -> float:
    """Evaluate via the Moebius form sum_S m(S) min_{i in S} x_i; agrees with
    eval_lovasz and is used as its cross-check."""
    n = v.arity
    coeffs = mobius(v).floats().tolist()
    return sum((c * min(x[i] for i in range(n) if mask >> i & 1)
                for mask, c in enumerate(coeffs) if mask and c), coeffs[0])


def directional_slope(v: SetFunction, x: Sequence, k: int) -> float:
    """Slope of the extension along the k-th smallest coordinate at x,
    i.e. v({pi(k),...,pi(n)}) - v({pi(k+1),...,pi(n)})."""
    n = v.arity
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    order = sorted(range(n), key=lambda i: x[i])
    upper = 0
    for i in order[k - 1:]:
        upper |= 1 << i
    lower = upper ^ (1 << order[k - 1])
    return float(v.values[upper]) - float(v.values[lower])


# ---------------------------------------------------------------------------
# Subset order statistics and duality
# ---------------------------------------------------------------------------

def influence_os_subset(n: int, subset, j: int, k: int) -> Fraction:
    """Influence index of the j-th order statistic of the variables in a
    subset S: C(k-1, j-1) C(n-k, |S|-j) / C(n, |S|) when 0 <= k-j <= n-|S|,
    and 0 otherwise."""
    s = len(set(subset))
    if s == 0:
        raise DomainError("subset must be nonempty")
    if not all(1 <= i <= n for i in subset):
        raise DomainError("subset not contained in [1, %d]" % n)
    if not 1 <= j <= s:
        raise DomainError("rank %d outside [1, %d]" % (j, s))
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    if not 0 <= k - j <= n - s:
        return Fraction(0)
    return Fraction(comb(k - 1, j - 1) * comb(n - k, s - j), comb(n, s))


def os_subset_set_function(n: int, subset, j: int) -> SetFunction:
    """Vertex set function of the j-th order statistic of the variables in a
    subset: at a 0/1 vertex T the statistic is 1 iff at most j-1 of the
    subset's coordinates vanish, i.e. at least |S|-j+1 of them lie in T."""
    members = [i - 1 for i in set(subset)]
    threshold = len(members) - j + 1
    values = []
    for mask in range(1 << n):
        count = sum(1 for i in members if mask >> i & 1)
        values.append(Fraction(1) if count >= threshold else Fraction(0))
    return SetFunction(n, tuple(values))


def dual_set_function(v: SetFunction) -> SetFunction:
    """Vertex set function of the dual extension: v^d(S) = 1 - v([n] \\ S)."""
    # [n] \ S is the bitmask 2^n - 1 - S: the table read backwards
    return SetFunction(v.arity, [1 - x for x in reversed(v.values)])


# ---------------------------------------------------------------------------
# Sample variance expansion
# ---------------------------------------------------------------------------

def variance_plain_terms(n: int):
    """The sample variance as a plain-variable polynomial:
    ((n-1)/n^2) sum x_i^2 - (2/n^2) sum_{i<j} x_i x_j."""
    terms = [(Fraction(n - 1, n * n), {i: 2}) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            terms.append((Fraction(-2, n * n), {i: 1, j: 1}))
    return terms


# ---------------------------------------------------------------------------
# Product form, one factor at a time
# ---------------------------------------------------------------------------

def product_form_by_factor(exponents) -> Tuple[Fraction, ...]:
    """I(f, 1..n) of f = prod_i x_i^{c_i} as (n+1)(n+2) times the integral
    of r_{k-1} - r_k, with the r_j built one factor at a time by
    r_j <- Phibar_i r_j + Phi_i r_{j-1}, as Fraction polynomials in
    z = y^{1/D}, and int_0^1 z^q dy = D/(q+D).  No group of equal exponents
    is expanded at once and none is integrated in closed form."""
    cs = [Fraction(c) for c in exponents]
    n, den = len(cs), lcm(*(c.denominator for c in cs))
    r = [{0: Fraction(1)}]
    for c in cs:
        p, a = int((c + 1) * den), 1 / (c + 1)  # Phi_i = a z^p, Phibar_i = a - a z^p
        out = [{} for _ in range(len(r) + 1)]
        for j, rj in enumerate(r):
            for q, v in rj.items():
                for i, s, w in ((j, q, a * v), (j, q + p, -a * v),
                                (j + 1, q + p, a * v)):
                    out[i][s] = out[i].get(s, 0) + w
        r = out
    sums = [sum(v * Fraction(den, q + den) for q, v in rj.items()) for rj in r]
    return tuple((n + 1) * (n + 2) * (sums[k - 1] - sums[k]) for k in range(1, n + 1))
