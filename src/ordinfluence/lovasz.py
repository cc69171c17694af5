"""Set functions, Moebius/zeta transforms, and Lovasz-extension influence.

A set function v on 2^[n] is stored as a dense table indexed by bitmask
(bit i-1 corresponds to element i).  The continuous function attached to v is
the unique extension that is affine on every simplex of ordered coordinates
and interpolates v at the cube's vertices; its influence profile has an exact
closed form in terms of the level averages of v (or of its Moebius transform).

The transforms run on one integer table per call: the values scaled to their
least common denominator D, held as int64 when a bound on every intermediate
shows it cannot overflow and as Python ints in an object array otherwise.
Zeta and Moebius are butterfly passes over a (2,)*n view of the table, one
axis per element; results leave as exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt, lcm
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .exact import as_rational

# Dense 2^n tables.  Exact approx of the arithmetic mean, CLI end to end on 2
# CPUs: arity 20 takes 7.9 s and 0.6 GB peak RSS, arity 21 takes 14.7 s and
# 1.1 GB; most of it builds the 2^n values and prints them in the report.
MAX_ARITY = 20


def check_arity(n: int):
    """DomainError unless 1 <= n <= MAX_ARITY; callers check before they
    build anything of size 2^n."""
    if not 1 <= n <= MAX_ARITY:
        raise DomainError("arity %d outside [1, %d]" % (n, MAX_ARITY))


@dataclass(frozen=True)
class SetFunction:
    """v: 2^[n] -> Q as a dense tuple of 2^n exact rationals in bitmask order."""

    arity: int
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        check_arity(self.arity)
        if len(self.values) != 1 << self.arity:
            raise DomainError("expected %d values, got %d"
                              % (1 << self.arity, len(self.values)))

    @classmethod
    def from_values(cls, arity: int, values: Sequence) -> "SetFunction":
        return cls(arity, tuple(as_rational(v) for v in values))

    def value(self, subset) -> Fraction:
        """Value at a subset given as a bitmask or an iterable of elements of [n]."""
        if isinstance(subset, int):
            return self.values[subset]
        mask = 0
        for i in subset:
            mask |= 1 << (i - 1)
        return self.values[mask]


@dataclass(frozen=True)
class MobiusRepresentation:
    arity: int
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        check_arity(self.arity)
        if len(self.values) != 1 << self.arity:
            raise DomainError("expected %d values, got %d"
                              % (1 << self.arity, len(self.values)))


# ---------------------------------------------------------------------------
# Integer tables
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _integer_table(values: Sequence[Fraction],
                   limit: int) -> Tuple[np.ndarray, int]:
    """``values`` as integer numerators over their least common denominator,
    and that denominator.  The table is int64 when no numerator exceeds
    ``limit`` in magnitude (the caller's bound for its own intermediates to
    fit), else Python ints in an object array."""
    pairs = [x.as_integer_ratio() for x in values]
    scale = lcm(*{d for _, d in pairs})
    ints = [p * (scale // d) for p, d in pairs]
    dtype = np.int64 if max(map(abs, ints)) <= limit else object
    return np.array(ints, dtype=dtype), scale


def _butterfly(table: np.ndarray, n: int, sign: int) -> None:
    """In place, for each element i: t(S) += sign * t(S - {i}) for S containing
    i.  The last axis of ``table`` is indexed by bitmask; with sign +1 this is
    the zeta transform, with -1 the Moebius transform.  Neither multiplies
    the largest magnitude by more than 2^n."""
    cube = table.reshape(table.shape[:-1] + (2,) * n)
    lead = (slice(None),) * (table.ndim - 1)
    for axis in range(n):
        # slices, not integers, so that even a 0-d selection stays a view
        upper = cube[lead + (slice(None),) * axis + (slice(1, 2),)]
        lower = cube[lead + (slice(None),) * axis + (slice(0, 1),)]
        if sign > 0:
            upper += lower
        else:
            upper -= lower


def _popcounts(n: int) -> np.ndarray:
    counts = np.zeros(1 << n, dtype=np.intp)
    for i in range(n):
        counts[1 << i:2 << i] = counts[:1 << i] + 1
    return counts


def _level_sums(table: np.ndarray, counts: np.ndarray) -> list:
    """Sums of ``table`` over the subsets of each cardinality s = 0..n (last
    axis indexed by bitmask, ``counts`` its popcounts), as Python ints."""
    order = np.argsort(counts, kind="stable")
    starts = np.searchsorted(counts[order], np.arange(int(counts[-1]) + 1))
    return np.add.reduceat(table[..., order], starts, axis=-1).tolist()


def _fractions(table: np.ndarray, scale: int) -> Tuple[Fraction, ...]:
    """``table / scale`` as Fractions, built once per distinct numerator
    (the transform of a table of small numerators repeats most values)."""
    ints = table.tolist()
    built = {x: Fraction(x, scale) for x in set(ints)}
    return tuple(map(built.__getitem__, ints))


# ---------------------------------------------------------------------------
# Transforms and level averages
# ---------------------------------------------------------------------------

def mobius(v: SetFunction) -> MobiusRepresentation:
    """Moebius transform m(S) = sum_{T subset S} (-1)^{|S|-|T|} v(T)."""
    n = v.arity
    table, scale = _integer_table(v.values, _INT64_MAX >> n)
    _butterfly(table, n, -1)
    return MobiusRepresentation(n, _fractions(table, scale))


def zeta(m: MobiusRepresentation) -> SetFunction:
    """Zeta transform v(S) = sum_{T subset S} m(T); inverse of mobius()."""
    n = m.arity
    table, scale = _integer_table(m.values, _INT64_MAX >> n)
    _butterfly(table, n, 1)
    return SetFunction(n, _fractions(table, scale))


@dataclass(frozen=True)
class LevelAverages:
    """Averages over subsets of each cardinality: vbar(s) and mbar(s),
    s=0..n, and the Moebius transform they were taken from."""

    arity: int
    vbar: Tuple[Fraction, ...]
    mbar: Tuple[Fraction, ...]
    mobius: MobiusRepresentation

    def influence_profile(self) -> Tuple[Fraction, ...]:
        """I(f, k) = vbar(n-k+1) - vbar(n-k) for k = 1..n."""
        n = self.arity
        return tuple(self.vbar[n - k + 1] - self.vbar[n - k]
                     for k in range(1, n + 1))

    def mean(self) -> Fraction:
        """Integral of the extension, sum_S m(S) / (|S| + 1), summed level by
        level as sum_s C(n, s) mbar(s) / (s + 1)."""
        return sum((comb(self.arity, s) * m / (s + 1)
                    for s, m in enumerate(self.mbar)), Fraction(0))


def level_averages(v: SetFunction) -> LevelAverages:
    """Level averages of v and of its one Moebius transform.  Both come from
    the Moebius level sums: each T of size t lies in C(n-t, s-t) sets of
    size s, so sum_{|S|=s} v(S) = sum_t C(n-t, s-t) sum_{|T|=t} m(T)."""
    n = v.arity
    m = mobius(v)
    # a level holds at most 2^n sets
    table, scale = _integer_table(m.values, _INT64_MAX >> n)
    msum = _level_sums(table, _popcounts(n))
    vsum = [sum(comb(n - t, s - t) * msum[t] for t in range(s + 1))
            for s in range(n + 1)]
    vbar = tuple(Fraction(vsum[s], comb(n, s) * scale) for s in range(n + 1))
    mbar = tuple(Fraction(msum[s], comb(n, s) * scale) for s in range(n + 1))
    return LevelAverages(n, vbar, mbar, m)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_lovasz(v: SetFunction, x: Sequence) -> float:
    """Evaluate the extension at one point via the telescoping form
    f(x) = v(emptyset) + sum_i (v(A_i) - v(A_{i+1})) x_{pi(i)},
    where pi sorts x ascending and A_i = {pi(i), ..., pi(n)}."""
    n = v.arity
    if len(x) != n:
        raise DomainError("point has %d coordinates, expected %d" % (len(x), n))
    order = sorted(range(n), key=lambda i: x[i])
    value = float(v.values[0])
    mask = (1 << n) - 1
    for i in order:
        upper = mask
        mask ^= 1 << i
        value += (float(v.values[upper]) - float(v.values[mask])) * x[i]
    return value


def eval_lovasz_mobius(v: SetFunction, x: Sequence) -> float:
    """Evaluate via the Moebius form sum_S m(S) min_{i in S} x_i; agrees with
    eval_lovasz and is used as its cross-check."""
    n = v.arity
    m = mobius(v)
    total = float(m.values[0])
    for mask in range(1, 1 << n):
        coeff = float(m.values[mask])
        if coeff == 0.0:
            continue
        total += coeff * min(x[i] for i in range(n) if mask >> i & 1)
    return total


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
# Influence
# ---------------------------------------------------------------------------

def influence_lovasz(v: SetFunction, k: int) -> Fraction:
    """Exact influence index of the extension of v on its k-th smallest
    variable: vbar(n-k+1) - vbar(n-k), cross-checked against the equivalent
    Moebius-average form sum_s C(n-k, s-1) mbar(s)."""
    n = v.arity
    if not 1 <= k <= n:
        raise DomainError("rank %d outside [1, %d]" % (k, n))
    lv = level_averages(v)
    by_levels = lv.vbar[n - k + 1] - lv.vbar[n - k]
    by_mobius = sum((comb(n - k, s - 1) * lv.mbar[s]
                     for s in range(1, n - k + 2)), Fraction(0))
    assert by_levels == by_mobius
    return by_levels


def influence_profile_lovasz(v: SetFunction) -> Tuple[Fraction, ...]:
    return level_averages(v).influence_profile()


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
    n = v.arity
    full = (1 << n) - 1
    return SetFunction(n, tuple(1 - v.values[full ^ mask] for mask in range(1 << n)))


# ---------------------------------------------------------------------------
# Equal-influence diagnosis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqualInfluenceDiagnosis:
    """Joint truth of the three equivalent equal-influence conditions:
    (a) flat influence profile, (b) level averages vbar in arithmetic
    progression, (c) mbar(s) = 0 for s >= 2.  ``witnesses`` maps each failed
    condition to the first violated level."""

    equal: bool
    profile_flat: bool
    vbar_arithmetic: bool
    mbar_vanishing: bool
    witnesses: dict


def equal_influence_class(v: SetFunction,
                          levels: Optional[LevelAverages] = None
                          ) -> EqualInfluenceDiagnosis:
    """Diagnose v from its level averages, ``levels`` when already taken."""
    n = v.arity
    lv = levels or level_averages(v)
    profile = lv.influence_profile()

    witnesses = {}
    flat = True
    for k in range(2, n + 1):
        if profile[k - 1] != profile[0]:
            flat = False
            witnesses["profile"] = k
            break

    arithmetic = True
    step = lv.vbar[1] - lv.vbar[0] if n >= 1 else Fraction(0)
    for s in range(2, n + 1):
        if lv.vbar[s] - lv.vbar[s - 1] != step:
            arithmetic = False
            witnesses["vbar"] = s
            break

    vanishing = True
    for s in range(2, n + 1):
        if lv.mbar[s] != 0:
            vanishing = False
            witnesses["mbar"] = s
            break

    return EqualInfluenceDiagnosis(flat and arithmetic and vanishing,
                                   flat, arithmetic, vanishing, witnesses)


# ---------------------------------------------------------------------------
# Symmetric part and exact second moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedLStatistic:
    """constant + sum_k slope_k x_{(k)}; the symmetric part of an extension."""

    arity: int
    constant: Fraction
    slopes: Tuple[Fraction, ...]

    def evaluate(self, x: Sequence):
        xs = sorted(x)
        value = self.constant
        for slope, xi in zip(self.slopes, xs):
            value = value + slope * xi
        return value


def symmetric_part(v: SetFunction, levels: Optional[LevelAverages] = None
                   ) -> ShiftedLStatistic:
    """Average of the extension over all permutations of the input point:
    v(emptyset) + sum_i I(f,i) os_i; ``levels`` are the level averages of
    v when already taken."""
    profile = (levels or level_averages(v)).influence_profile()
    return ShiftedLStatistic(v.arity, v.values[0], profile)


def mean_lovasz(v: SetFunction) -> Fraction:
    """Exact integral of the extension: sum_S m(S) / (|S| + 1)."""
    return level_averages(v).mean()


def norm_sq_lovasz(v: SetFunction,
                   levels: Optional[LevelAverages] = None) -> Fraction:
    """Exact <f, f> of the extension in chain form, O(n^2 2^n).

    On the simplex of an ordering, f = sum_{i=1}^{n+1} v(A_i) (y_i - y_{i-1})
    with A_i the n-i+1 largest coordinates, y_0 = 0 and y_{n+1} = 1.  The
    spacings are Dirichlet(1, ..., 1), so

        <f, f> = 2 / ((n+1)(n+2)) * sum_{a >= b} P(a, b),

    P(a, b) the average of v(A) v(B) over nested B subset A, |A| = a, |B| = b.
    One ranked zeta transform z_b(A) = sum_{B subset A, |B| = b} v(B) per b
    gives sum_{|A|=a} v(A) z_b(A) = C(n,a) C(a,b) P(a,b).  The chain form needs
    no Moebius transform, so ``levels`` is accepted for callers that hold
    them and not used."""
    n = v.arity
    # |v(A) z_b(A)| <= C(a,b) peak^2, and sum_{|A|=a} C(a,b) = C(n,a) C(a,b)
    # <= 3^n, so every partial sum stays within peak^2 3^n
    table, scale = _integer_table(v.values, isqrt(_INT64_MAX // 3 ** n))
    counts = _popcounts(n)
    # row b starts as v on the sets of size b; the zeta transform makes it z_b
    ranked = np.zeros((n + 1, 1 << n), dtype=table.dtype)
    ranked[counts, np.arange(1 << n)] = table
    _butterfly(ranked, n, 1)
    ranked *= table
    pairs = _level_sums(ranked, counts)
    # 1 / (C(n,a) C(a,b)) = (n-a)! (a-b)! b! / n!
    fact = [factorial(i) for i in range(n + 3)]
    total = sum(pairs[b][a] * fact[n - a] * fact[a - b] * fact[b]
                for a in range(n + 1) for b in range(a + 1))
    return Fraction(2 * total, fact[n + 2] * scale * scale)
