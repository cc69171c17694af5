"""Set functions, Moebius/zeta transforms, and Lovasz-extension influence.

A set function v on 2^[n] is stored as a dense table indexed by bitmask
(bit i-1 corresponds to element i).  The continuous function attached to v is
the unique extension that is affine on every simplex of ordered coordinates
and interpolates v at the cube's vertices; its influence profile has an exact
closed form in terms of the level averages of v (or of its Moebius transform).

A table object holds only its values times their least common denominator D,
as integers, and builds Fractions, strings and floats from them on request.
It is built from the values' integer ratios (p, q): a spec file's values are
parsed to ratios, not to Fractions, and strings are printed from p and D.
Each computation copies that table, as int64 when a bound on every
intermediate shows it cannot overflow and as Python ints otherwise.
The profile and the mean need only the level averages vbar(s), one pass of
sums per cardinality over v's table; mbar(s) follows by binomial inversion.
Zeta and Moebius are butterfly passes over a (2,)*n view of the table, one
axis per element, run only when a transform is asked for; each hands its
integer table to the object it returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, isqrt, lcm
from numbers import Integral
from operator import truediv
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .exact import integer_ratio, rational_string
from .montecarlo import BATCH, NETWORK_MAX_ARITY
from .projection import ShiftedLStatistic
from .record import FrozenRecord, set_field

# Dense 2^n tables.  Exact approx of the arithmetic mean, CLI end to end on 2
# CPUs (Python 3.11, bytecode cached): arity 16 takes 0.24-0.25 s and 50 MB
# peak RSS, arity 18 0.37-0.40 s and 116 MB, arity 20 1.1-1.35 s and 406 MB,
# of which the chain-form norm is about 0.9 s.
MAX_ARITY = 20
# Rows of a Monte-Carlo batch that lovasz_eval_batch evaluates at once: its
# upper-set masks and gathered terms take about n + 1 rows of floats per
# point, which at BATCH rows would be the largest arrays of a pass
EVAL_TILE = BATCH >> 2


def check_arity(n: int):
    """DomainError unless 1 <= n <= MAX_ARITY; callers check before they
    build anything of size 2^n."""
    if not 1 <= n <= MAX_ARITY:
        raise DomainError("arity %d outside [1, %d]" % (n, MAX_ARITY))


class _DenseTable:
    """2^n exact rationals in bitmask order, held only as ``numerators``, a
    read-only integer table (int64, or Python ints in an object array when a
    value does not fit), over their least common ``denominator``.  The table
    is canonical, so two objects are equal exactly when their values are."""

    def __new__(cls, arity: int, values: Sequence):
        return cls._from_table(arity, *_scaled_numerators(
            [integer_ratio(x) for x in values]))

    @classmethod
    def _from_table(cls, arity: int, table: np.ndarray, denominator: int,
                    peak: int):
        """The object holding ``table``, not a copy, over ``denominator``,
        already their least common one; ``peak`` is the largest |numerator|."""
        check_arity(arity)
        if len(table) != 1 << arity:
            raise DomainError("expected %d values, got %d"
                              % (1 << arity, len(table)))
        if peak <= _INT64_MAX:
            table = table.astype(np.int64, copy=False)
        table.flags.writeable = False
        x = object.__new__(cls)
        x.arity, x.numerators, x.denominator, x._peak = (arity, table,
                                                         denominator, peak)
        return x

    @cached_property
    def values(self) -> Tuple[Fraction, ...]:
        """The values as Fractions, built on first use."""
        return tuple(self._by_numerator(Fraction))

    def strings(self) -> list:
        """``str`` of every value."""
        return self._by_numerator(rational_string)

    def floats(self) -> np.ndarray:
        """The values as floats.  Each is p / D in int true division, which
        rounds correctly, so it equals float(Fraction(p, D))."""
        return np.array(self._by_numerator(truediv))

    def _by_numerator(self, convert) -> list:
        """``convert(p, D)`` for every numerator p, called once per distinct
        numerator (a table of small numerators repeats most values)."""
        ints = self.numerators.tolist()
        built = {p: convert(p, self.denominator) for p in set(ints)}
        return list(map(built.__getitem__, ints))

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.denominator == other.denominator
                and np.array_equal(self.numerators, other.numerators))

    def __hash__(self):
        return hash((self.denominator, *self.numerators.tolist()))

    def __reduce__(self):
        return self._from_table, (self.arity, self.numerators,
                                  self.denominator, self._peak)


class SetFunction(_DenseTable):
    """v: 2^[n] -> Q as a dense table of 2^n exact rationals in bitmask order."""

    @classmethod
    def from_values(cls, arity: int, values: Sequence) -> "SetFunction":
        """v from its 2^n values: ints, floats, Fractions or strings."""
        return cls(arity, values)

    @classmethod
    def from_codes(cls, arity: int, distinct: Sequence[Tuple[int, int]],
                   codes: Sequence[int]) -> "SetFunction":
        """v(S) = p / q for (p, q) = distinct[codes[S]], each ratio in lowest
        terms, where ``codes`` uses every ratio of ``distinct``: the integer
        numerators are scaled from the distinct ratios alone."""
        table, scale, peak = _scaled_numerators(distinct)
        return cls._from_table(arity, table[np.asarray(codes, dtype=np.intp)],
                               scale, peak)

    def value(self, subset) -> Fraction:
        """Value at a subset given as a bitmask or an iterable of elements of [n]."""
        n = self.arity
        if not isinstance(subset, Integral):
            elements = set(subset)
            if not elements <= set(range(1, n + 1)):
                raise DomainError("subset not contained in [1, %d]" % n)
            subset = sum(1 << (i - 1) for i in elements)
        if not 0 <= subset < 1 << n:
            raise DomainError("bitmask %d outside [0, 2^%d)" % (subset, n))
        return Fraction(int(self.numerators[subset]), self.denominator)


class MobiusRepresentation(_DenseTable):
    """m: 2^[n] -> Q, the Moebius transform of a set function."""


# ---------------------------------------------------------------------------
# Integer tables
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _scaled_numerators(ratios: Sequence[Tuple[int, int]]
                       ) -> Tuple[np.ndarray, int, int]:
    """The values p / q of ``ratios``, each (p, q) in lowest terms with
    q > 0, as integer numerators over their least common denominator, that
    denominator and the largest numerator magnitude; the table is int64 when
    that magnitude fits, else Python ints in an object array."""
    scale = lcm(*{q for _, q in ratios})
    ints = [p * (scale // q) for p, q in ratios]
    peak = max(map(abs, ints), default=0)
    dtype = np.int64 if peak <= _INT64_MAX else object
    return np.array(ints, dtype=dtype), scale, peak


def _integer_table(x: _DenseTable, limit: int) -> Tuple[np.ndarray, int]:
    """A fresh copy of ``x``'s integer numerators, and their denominator.  The
    copy is int64 when no numerator exceeds ``limit`` in magnitude (the
    caller's bound for its own intermediates to fit), else Python ints in an
    object array."""
    return (x.numerators.astype(np.int64 if x._peak <= limit else object),
            x.denominator)


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


@lru_cache(maxsize=None)
def _levels(n: int) -> tuple:
    """The popcount of each bitmask of 2^[n], the bitmasks sorted stably by
    popcount, and where each level s = 0..n starts among them.  Shared by
    every caller, so never written to."""
    counts = np.zeros(1 << n, dtype=np.intp)
    for i in range(n):
        counts[1 << i:2 << i] = counts[:1 << i] + 1
    order = np.argsort(counts, kind="stable")
    return counts, order, np.searchsorted(counts[order], np.arange(n + 1))


def _level_sums(table: np.ndarray, n: int) -> list:
    """Sums of ``table`` over the subsets of each cardinality s = 0..n (last
    axis indexed by the bitmasks of 2^[n]), as Python ints."""
    _, order, starts = _levels(n)
    return np.add.reduceat(table[..., order], starts, axis=-1).tolist()


# ---------------------------------------------------------------------------
# Transforms and level averages
# ---------------------------------------------------------------------------

def _transform(x: _DenseTable, sign: int, result: type) -> _DenseTable:
    """``x`` through the butterfly, as a ``result``; D stays the least common
    denominator, as both transforms are integer with integer inverses."""
    n = x.arity
    table, scale = _integer_table(x, _INT64_MAX >> n)
    _butterfly(table, n, sign)
    return result._from_table(n, table, scale, int(np.abs(table).max()))


def mobius(v: SetFunction) -> MobiusRepresentation:
    """Moebius transform m(S) = sum_{T subset S} (-1)^{|S|-|T|} v(T)."""
    return _transform(v, -1, MobiusRepresentation)


def zeta(m: MobiusRepresentation) -> SetFunction:
    """Zeta transform v(S) = sum_{T subset S} m(T); inverse of mobius()."""
    return _transform(m, 1, SetFunction)


class LevelAverages(FrozenRecord):
    """Averages over subsets of each cardinality: vbar(s) of v and mbar(s) of
    its Moebius transform, s=0..n."""

    _fields = ("arity", "vbar", "mbar")

    def __init__(self, arity: int, vbar: Tuple[Fraction, ...],
                 mbar: Tuple[Fraction, ...]):
        set_field(self, "arity", arity)
        set_field(self, "vbar", vbar)
        set_field(self, "mbar", mbar)

    def influence_profile(self) -> Tuple[Fraction, ...]:
        """I(f, k) = vbar(n-k+1) - vbar(n-k) for k = 1..n."""
        n = self.arity
        return tuple(self.vbar[n - k + 1] - self.vbar[n - k]
                     for k in range(1, n + 1))

    def mean(self) -> Fraction:
        """Integral of the extension, sum_s vbar(s) / (n + 1): each of the n+1
        chain levels has Dirichlet spacing mean 1 / (n + 1)."""
        return sum(self.vbar, Fraction(0)) / (self.arity + 1)


def level_averages(v: SetFunction) -> LevelAverages:
    """vbar and mbar from one pass of level sums over v's integer table, with
    no Moebius transform: each T of size t lies in C(n-t, s-t) sets of size
    s, so sum_{|S|=s} m(S) = sum_t (-1)^(s-t) C(n-t, s-t) sum_{|T|=t} v(T)."""
    n = v.arity
    # a level holds at most 2^n sets
    table, scale = _integer_table(v, _INT64_MAX >> n)
    vsum = _level_sums(table, n)
    msum = [sum((-1) ** (s - t) * comb(n - t, s - t) * vsum[t]
                for t in range(s + 1))
            for s in range(n + 1)]
    vbar = tuple(Fraction(vsum[s], comb(n, s) * scale) for s in range(n + 1))
    mbar = tuple(Fraction(msum[s], comb(n, s) * scale) for s in range(n + 1))
    return LevelAverages(n, vbar, mbar)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _upper_masks(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """For each row t of the (r, m) array ``levels``, the bitmask of
    {j : x_j >= t} at each of the m points of x, in the narrowest unsigned
    dtype that holds n bits."""
    dtype = np.min_scalar_type((1 << x.shape[1]) - 1)
    masks = np.zeros(levels.shape, dtype)
    for j, column in enumerate(np.ascontiguousarray(x.T)):
        masks += (column >= levels) * dtype.type(1 << j)
    return masks


def lovasz_eval_batch(values: np.ndarray, x: np.ndarray,
                      xs: np.ndarray) -> np.ndarray:
    """The extension of the float table ``values`` at each row of x:
    f(x) = v(emptyset) + sum_i x_(i) (v(U_i) - v(U_{i+1})), the upper sets
    U_i = {j : x_j >= x_(i)} and U_{n+1} = emptyset.  A tied group shares
    one U_i, so its terms telescope to the stable sort's value.  The x_(i)
    are read from ``xs``, the (n, m) sorted columns of x, whose row i holds
    each point's (i+1)-th smallest coordinate.  Rows are independent, and
    are taken EVAL_TILE at a time to bound the (n, m) temporaries."""
    m, n = x.shape
    out = np.empty(m)
    for lo in range(0, m, EVAL_TILE):
        tile = x[lo:lo + EVAL_TILE]
        levels = xs[:, lo:lo + EVAL_TILE]
        if n > NETWORK_MAX_ARITY:
            # n^2 column compares lose to one argsort here; its tails differ
            # from U_i only inside tied groups, so it need not be stable
            dtype = np.min_scalar_type((1 << n) - 1)
            bits = np.left_shift(dtype.type(1),
                                 np.argsort(tile, axis=1).astype(dtype))
            masks = np.cumsum(bits[:, ::-1], axis=1, dtype=dtype)[:, ::-1].T
        else:
            masks = _upper_masks(tile, levels)
        terms = values[masks]
        terms[:-1] -= terms[1:]
        terms[-1] -= values[0]
        terms *= levels
        out[lo:lo + EVAL_TILE] = values[0] + terms.sum(axis=0)
    return out


def lovasz_slope_batch(values: np.ndarray, x: np.ndarray, k: int,
                       xs: np.ndarray) -> np.ndarray:
    """Slope along the k-th smallest coordinate, v(U_k) - v(U_{k+1}) per row:
    on untied rows, v({pi(k),...,pi(n)}) - v({pi(k+1),...,pi(n)}) with pi
    sorting the row ascending.  ``xs`` is as for ``lovasz_eval_batch``."""
    upper = values[_upper_masks(x, xs[k - 1:k + 1])]
    return upper[0] - (upper[1] if k < x.shape[1] else values[0])


# ---------------------------------------------------------------------------
# Equal-influence diagnosis
# ---------------------------------------------------------------------------

class EqualInfluenceDiagnosis(FrozenRecord):
    """Joint truth of the three equivalent equal-influence conditions:
    (a) flat influence profile, (b) level averages vbar in arithmetic
    progression, (c) mbar(s) = 0 for s >= 2.  ``witnesses`` maps each failed
    condition to the first violated level."""

    _fields = ("equal", "profile_flat", "vbar_arithmetic", "mbar_vanishing",
               "witnesses")

    def __init__(self, equal: bool, profile_flat: bool,
                 vbar_arithmetic: bool, mbar_vanishing: bool, witnesses: dict):
        set_field(self, "equal", equal)
        set_field(self, "profile_flat", profile_flat)
        set_field(self, "vbar_arithmetic", vbar_arithmetic)
        set_field(self, "mbar_vanishing", mbar_vanishing)
        set_field(self, "witnesses", witnesses)


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
    step = lv.vbar[1] - lv.vbar[0]
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

def symmetric_part(v: SetFunction, levels: Optional[LevelAverages] = None
                   ) -> ShiftedLStatistic:
    """Average of the extension over all permutations of the input point:
    v(emptyset) + sum_i I(f,i) os_i; ``levels`` are the level averages of
    v when already taken."""
    profile = (levels or level_averages(v)).influence_profile()
    return ShiftedLStatistic(v.arity, profile, v.value(0))


def norm_sq_lovasz(v: SetFunction) -> Fraction:
    """Exact <f, f> of the extension in chain form, O(n^2 2^n).

    On the simplex of an ordering, f = sum_{i=1}^{n+1} v(A_i) (y_i - y_{i-1})
    with A_i the n-i+1 largest coordinates, y_0 = 0 and y_{n+1} = 1.  The
    spacings are Dirichlet(1, ..., 1), so

        <f, f> = 2 / ((n+1)(n+2)) * sum_{a >= b} P(a, b),

    P(a, b) the average of v(A) v(B) over nested B subset A, |A| = a, |B| = b.
    One ranked zeta transform z_b(A) = sum_{B subset A, |B| = b} v(B) per b
    gives sum_{|A|=a} v(A) z_b(A) = C(n,a) C(a,b) P(a,b)."""
    n = v.arity
    # |v(A) z_b(A)| <= C(a,b) peak^2, and sum_{|A|=a} C(a,b) = C(n,a) C(a,b)
    # <= 3^n, so every partial sum stays within peak^2 3^n
    table, scale = _integer_table(v, isqrt(_INT64_MAX // 3 ** n))
    counts = _levels(n)[0]
    # row b starts as v on the sets of size b; the zeta transform makes it z_b
    ranked = np.zeros((n + 1, 1 << n), dtype=table.dtype)
    ranked[counts, np.arange(1 << n)] = table
    _butterfly(ranked, n, 1)
    ranked *= table
    pairs = _level_sums(ranked, n)
    # 1 / (C(n,a) C(a,b)) = (n-a)! (a-b)! b! / n!
    fact = [factorial(i) for i in range(n + 3)]
    total = sum(pairs[b][a] * fact[n - a] * fact[a - b] * fact[b]
                for a in range(n + 1) for b in range(a + 1))
    return Fraction(2 * total, fact[n + 2] * scale * scale)
