"""Seeded Monte-Carlo estimators for the influence index of black boxes.

Three equivalent formulations are implemented: the covariance with the kernel
g_k, the density-weighted directional derivative, and the difference-quotient
average over the gap between consecutive order statistics (with a uniform and
a triangular sampling variant).  A small-dimension tensor Gauss-Legendre
quadrature serves as an independent oracle.

All estimators draw from a counter-based Philox stream keyed by the seed, so
results are bit-reproducible for a fixed (seed, samples, estimator) triple.

Every estimator reads order statistics of the sampled points, and sorts each
batch once, with ``sorted_columns`` (an evaluator that sorts its points
sorts again).  Up to NETWORK_MAX_ARITY coordinates that runs Batcher's
odd-even merge sorting network (Batcher 1968; Knuth, TAOCP vol. 3, 5.3.4) as
np.minimum / np.maximum over whole columns, which beats numpy's per-row
sort; above the crossover it calls np.sort.  The values are the same either
way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closedforms import _box_integral
from .errors import ConfigurationError, DomainError, TaintedSampleError
from .projection import Moments

# Rows handled as one block: the draw batch of every estimator and of
# mc_profile_moments, and the tile over which sorted_columns runs the network.
# A pass keeps a draw buffer and a moment buffer of BATCH rows, 2.4 MB
# together at arity 8, and sorted_columns' (n+1)-row column copy, 1.2 MB
# more (1.7 MB at n = 12), beside the evaluator's temporaries.  On a 2-CPU
# Xeon with 2 MB of L2 per core, a 1e5-sample pass at arity 8 took the same
# time at 1 << 12 to 1 << 14 rows and 10-20% longer from 1 << 15 up; the
# network on 65536 rows at n = 8 took 3.1 ms as one block, 1.8 ms in blocks
# of 1 << 14 and 1.9-3.0 ms in blocks of 1 << 11 to 1 << 13; the single-rank
# estimators at 1e5 samples took up to 40% less time than in blocks of
# 1 << 16 (covariance, power-product n = 4: 7.1 ms against 11.2 ms), and
# none took more beyond noise
BATCH = 1 << 14
# Crossover between Batcher's network and np.sort, measured on that machine
# as medians of 15 sorts of 16384 random rows, in three rounds: n = 8
# 0.33-0.47 ms against 0.90-1.12 ms for np.sort(x, axis=1); n = 12 0.80-1.03
# against 0.99-1.23; n = 13 and 14 within noise of np.sort; n = 15
# 1.21-1.40 against 1.07-1.32; n = 16 2.08-2.37 against 0.81-1.34
NETWORK_MAX_ARITY = 12


@dataclass(frozen=True)
class Evaluator:
    """A total, deterministic map from points of [0,1]^n to reals.

    ``func`` takes an (m, n) float array and returns (m,) values.  The
    optional ``derivative`` takes (points, k) and returns the derivative in
    the direction of the k-th smallest coordinate on the open simplexes of
    strictly ordered points.
    """

    arity: int
    func: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    name: str = "evaluator"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class IntegrationEstimate:
    """Monte-Carlo value with provenance: the standard error is the sample
    standard deviation of the per-sample contributions over sqrt(samples)."""

    value: float
    std_error: float
    samples: int
    seed: int
    estimator: str
    variant: Optional[str] = None

    def z_score(self, other: "IntegrationEstimate") -> float:
        """|difference| in units of the combined standard error."""
        combined = math.hypot(self.std_error, other.std_error)
        if combined == 0.0:
            return 0.0 if self.value == other.value else math.inf
        return abs(self.value - other.value) / combined


def derive_seed(seed: int, index: int) -> int:
    """Independent 64-bit substream key for quantity ``index`` of a run."""
    ss = np.random.SeedSequence([int(seed) & (2 ** 64 - 1), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _check_finite(values: np.ndarray, points: np.ndarray):
    bad = ~np.isfinite(values)
    if bad.ndim > 1:
        bad = bad.any(axis=1)
    if bad.any():
        idx = int(np.argmax(bad))
        raise TaintedSampleError(
            "evaluator returned a non-finite value", point=points[idx].copy())


class _Accumulator:
    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, contributions: np.ndarray):
        self.count += len(contributions)
        self.total += float(contributions.sum())
        self.total_sq += float(np.square(contributions).sum())

    def finish(self, seed: int, estimator: str, variant=None) -> IntegrationEstimate:
        m = self.count
        mean = self.total / m
        var = max(self.total_sq - m * mean * mean, 0.0) / (m - 1)
        return IntegrationEstimate(mean, math.sqrt(var / m), m, seed,
                                   estimator, variant)


def _batches(samples: int):
    remaining = samples
    while remaining > 0:
        yield min(remaining, BATCH)
        remaining -= BATCH


# ---------------------------------------------------------------------------
# Order-statistic helpers on sample batches
# ---------------------------------------------------------------------------

def _merge_exchange(n: int) -> list:
    """Comparators (i, j), i < j, of Batcher's merge exchange sort on n wires
    (Knuth, TAOCP vol. 3, Algorithm 5.2.2M), in an order that sorts."""
    pairs = []
    if n < 2:
        return pairs
    t = (n - 1).bit_length()
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return pairs


@functools.lru_cache(maxsize=None)
def _network(n: int) -> tuple:
    """Batcher's comparators as moves between the rows of an (n+1)-row
    buffer: each (a, b, out) writes min(a, b) to the free row ``out`` and
    max(a, b) to b, after which row a is free.  The rows are labelled so
    that wire i ends in row i; returns (moves, the row free at the start)."""
    wire = list(range(n))
    free = n
    moves = []
    for i, j in _merge_exchange(n):
        moves.append((wire[i], wire[j], free))
        wire[i], free = free, wire[i]
    label = {row: i for i, row in enumerate(wire)}
    label[free] = n
    return tuple((label[a], label[b], label[c]) for a, b, c in moves), label[n]


def sorted_columns(x: np.ndarray) -> np.ndarray:
    """The rows of an (m, n) batch sorted, as an (n, m) array in new memory
    whose row i holds each point's (i+1)-th smallest coordinate.

    Up to NETWORK_MAX_ARITY the columns run through Batcher's network as
    np.minimum / np.maximum over contiguous rows, BATCH points at a time;
    above it the result is np.sort(x, axis=1).T.  Either way the values are
    those of np.sort for rows without NaN.
    """
    m, n = x.shape
    if n > NETWORK_MAX_ARITY:
        return np.sort(x, axis=1).T
    moves, free = _network(n)
    columns = np.empty((n + 1, m))
    for lo in range(0, m, BATCH):
        tile = columns[:, lo:lo + BATCH]
        points = x[lo:lo + BATCH]
        tile[:free] = points[:, :free].T
        tile[free + 1:] = points[:, free:].T
        rows = list(tile)
        for a, b, out in moves:
            np.minimum(rows[a], rows[b], out=rows[out])
            np.maximum(rows[a], rows[b], out=rows[b])
    return columns[:n]


def _sorted_neighbours(x: np.ndarray, k: int):
    """(x_{(k-1)}, x_{(k)}, x_{(k+1)}) per row, with 0/1 boundary ranks."""
    n = x.shape[1]
    xs = sorted_columns(x)
    mid = xs[k - 1]
    down = xs[k - 2] if k >= 2 else np.zeros(len(x))
    up = xs[k] if k < n else np.ones(len(x))
    return down, mid, up


def g_kernel_values(x: np.ndarray, k: int) -> np.ndarray:
    """g_k(x) = -(n+1)(n+2)(x_{(k+1)} - 2 x_{(k)} + x_{(k-1)})."""
    n = x.shape[1]
    down, mid, up = _sorted_neighbours(x, k)
    return -(n + 1) * (n + 2) * (up - 2.0 * mid + down)


def h_density_values(x: np.ndarray, k: int) -> np.ndarray:
    """h_k(x) = (n+1)(n+2)(x_{(k+1)} - x_{(k)})(x_{(k)} - x_{(k-1)})."""
    return _h_density(x.shape[1], *_sorted_neighbours(x, k))


def _h_density(n: int, down, mid, up) -> np.ndarray:
    return (n + 1) * (n + 2) * (up - mid) * (mid - down)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def mc_inner_product(f: Evaluator, g: Evaluator, samples: int,
                     seed: int) -> IntegrationEstimate:
    """Uniform-sampling estimate of the inner product <f, g>."""
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if f.arity != g.arity:
        raise DomainError("arity mismatch: %d vs %d" % (f.arity, g.arity))
    rng = _rng(seed)
    acc = _Accumulator()
    for m in _batches(samples):
        x = rng.random((m, f.arity))
        contrib = f(x) * g(x)
        _check_finite(contrib, x)
        acc.add(contrib)
    return acc.finish(seed, "raw-inner-product")


def influence_mc_covariance(f: Evaluator, k: int, samples: int,
                            seed: int) -> IntegrationEstimate:
    """I(f,k) as the average of f(x) g_k(x) under uniform sampling."""
    _check_rank(f, k, samples)
    rng = _rng(seed)
    acc = _Accumulator()
    for m in _batches(samples):
        x = rng.random((m, f.arity))
        contrib = f(x) * g_kernel_values(x, k)
        _check_finite(contrib, x)
        acc.add(contrib)
    return acc.finish(seed, "covariance")


def influence_mc_derivative(f: Evaluator, k: int, samples: int,
                            seed: int) -> IntegrationEstimate:
    """I(f,k) as the average of h_k(x) times the derivative of f along the
    k-th smallest coordinate.  Points with tied relevant coordinates (where
    the direction is ambiguous) are resampled; they have measure zero."""
    if f.derivative is None:
        raise ConfigurationError("estimator needs an evaluator with a "
                                 "directional-derivative map")
    _check_rank(f, k, samples)
    rng = _rng(seed)
    acc = _Accumulator()
    for m in _batches(samples):
        x, neighbours = _draw_untied(rng, m, f.arity, k)
        contrib = _h_density(f.arity, *neighbours) * np.asarray(
            f.derivative(x, k), dtype=float)
        _check_finite(contrib, x)
        acc.add(contrib)
    return acc.finish(seed, "derivative")


def influence_mc_diffquotient(f: Evaluator, k: int, samples: int, seed: int,
                              variant: str = "triangular-y") -> IntegrationEstimate:
    """I(f,k) from the increment of f when the k-th smallest coordinate moves
    up to a random level y in [x_{(k)}, x_{(k+1)}].

    uniform-y: y is uniform on the gap and the increment is weighted by
    (n+1)(n+2) times the gap.  triangular-y: y is drawn from the linear
    density (n+1)(n+2)(y - x_{(k)}) via inverse CDF and the difference
    quotient is weighted by the interval's total mass.  Degenerate gaps
    contribute zero.
    """
    if variant not in ("uniform-y", "triangular-y"):
        raise DomainError("variant must be 'uniform-y' or 'triangular-y', got %r"
                          % (variant,))
    _check_rank(f, k, samples)
    n = f.arity
    scale = (n + 1) * (n + 2)
    rng = _rng(seed)
    acc = _Accumulator()
    for m in _batches(samples):
        x = rng.random((m, n))
        u = rng.random(m)
        xs = sorted_columns(x)
        mid = xs[k - 1]
        gap = (xs[k] if k < n else np.ones(m)) - mid
        h = gap * (np.sqrt(u) if variant == "triangular-y" else u)
        increment = f(_shift_rank(x, mid, gap, mid + h)) - f(x)
        if variant == "uniform-y":
            contrib = scale * gap * increment
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                quotient = np.where(h > 0.0, increment / np.where(h > 0.0, h, 1.0),
                                    0.0)
            contrib = quotient * scale * gap * gap / 2.0
        contrib = np.where(gap > 0.0, contrib, 0.0)
        _check_finite(contrib, x)
        acc.add(contrib)
    return acc.finish(seed, "diff-quotient", variant)


def _shift_rank(x: np.ndarray, mid: np.ndarray, gap: np.ndarray,
                moved: np.ndarray) -> np.ndarray:
    """x with its rank-k value ``mid`` set to ``moved`` where the gap above
    it is positive: rank k then ends its tie group, so the column a stable
    sort puts there is the last one equal to ``mid``."""
    shifted = x.copy()
    pending = gap > 0.0
    for column, target in zip(x.T[::-1], shifted.T[::-1]):
        hit = (column == mid) & pending
        np.copyto(target, moved, where=hit)
        pending ^= hit
    return shifted


def _check_rank(f: Evaluator, k: int, samples: int):
    if not 1 <= k <= f.arity:
        raise DomainError("rank %d outside [1, %d]" % (k, f.arity))
    if samples < 2:
        raise DomainError("need at least 2 samples")


def _draw_untied(rng, m: int, n: int, k: int):
    """Uniform points whose k-th smallest coordinate is strictly between its
    sorted neighbours (so the moving coordinate is unambiguous), and those
    neighbours, as (x, (down, mid, up)) with _sorted_neighbours' layout."""
    x = rng.random((m, n))
    for _ in range(64):
        down, mid, up = neighbours = _sorted_neighbours(x, k)
        tied = (mid == up) | ((mid == down) & (k >= 2))
        if not tied.any():
            return x, neighbours
        x[tied] = rng.random((int(tied.sum()), n))
    raise TaintedSampleError("could not draw tie-free samples")


def _moment_map(n: int, indices: bool, second_moments: bool) -> np.ndarray:
    """The map L from a row's sorted moments z to its contributions.

    z is (1, v x_(1), ..., v x_(n), v, v^2) with v = f(x), the order
    statistics present when ``indices`` is set and v^2 when
    ``second_moments`` is.  Rows of L are the -(n+1)(n+2)-scaled second
    differences of v x_(0..n+1), with x_(0) = 0 and x_(n+1) = 1 (so the last
    one reads the column v), then v and v^2.  The constant column maps to
    nothing: it only makes row 0 of z^T z the column sums.
    """
    ranks = n if indices else 0
    moment_map = np.zeros((ranks + 2 * second_moments,
                           ranks + 2 + second_moments))
    scale = -(n + 1) * (n + 2)
    rank = np.arange(ranks)
    moment_map[rank[1:], rank[1:]] = scale
    moment_map[rank, rank + 1] = -2 * scale
    moment_map[rank, rank + 2] = scale
    if second_moments:
        moment_map[ranks:, ranks + 1:] = np.eye(2)
    return moment_map


def mc_profile_moments(f: Evaluator, samples: int, seed: int,
                       indices: bool = True,
                       second_moments: bool = True) -> Moments:
    """Monte-Carlo Moments of any evaluator from one pass over the stream
    keyed derive_seed(seed, 0).

    Each row becomes its sorted moments z (see ``_moment_map``) and each
    batch adds one product z^T z.  Every estimate is linear in z, so the
    second differences that give g_1..g_n are applied once, to the sums,
    after the pass.

    The indices are estimated when ``indices`` is set, the mean and <f, f>
    when ``second_moments`` is; their standard errors and joint covariance
    come from the same samples.
    """
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if not (indices or second_moments):
        raise DomainError("nothing to estimate")
    n = f.arity
    ranks = n if indices else 0
    moment_map = _moment_map(n, indices, second_moments)
    width = moment_map.shape[1]
    rng = _rng(derive_seed(seed, 0))
    rows = min(samples, BATCH)
    draws = np.empty((rows, n))
    moments = np.empty((rows, width))
    moments[:, 0] = 1.0
    shift = None
    total_cross = np.zeros((width, width))
    for m in _batches(samples):
        x, z = draws[:m], moments[:m]
        rng.random(out=x)
        v = f(x)
        _check_finite(v, x)
        if indices:
            # sorted_columns copies, and the evaluator may have returned a
            # view of x; scaling the contiguous columns before one
            # transposing copy beats writing into the strided columns of z
            xs = sorted_columns(x)
            xs *= v
            z[:, 1:n + 1] = xs.T
        z[:, ranks + 1] = v
        if second_moments:
            np.multiply(v, v, out=z[:, ranks + 2])
        if shift is None:
            # accumulate about the first batch's means, so that the
            # covariance does not cancel against large means; a non-finite
            # mean is traced to its row before the shift spreads it to all
            shift = z.mean(axis=0)
            shift[0] = 0.0
            if not np.isfinite(shift).all():
                _check_finite(z, x)
        z -= shift
        cross = z.T @ z
        if not np.isfinite(cross).all():
            _check_finite(z, x)
        total_cross += cross
    offset = moment_map @ total_cross[0] / samples
    values = (moment_map @ shift + offset).tolist()
    covariance = ((moment_map @ total_cross @ moment_map.T
                   - samples * np.outer(offset, offset))
                  / ((samples - 1) * samples))
    ses = np.sqrt(np.maximum(np.diag(covariance), 0.0)).tolist()
    fields = {}
    if indices:
        fields.update(indices=tuple(values[:n]),
                      index_std_errors=tuple(ses[:n]))
    if second_moments:
        fields.update(mean=values[-2], mean_std_error=ses[-2],
                      norm_sq=values[-1], norm_sq_std_error=ses[-1])
    return Moments(n, "monte-carlo", samples=samples, seed=seed,
                   covariance=tuple(map(tuple, covariance.tolist())), **fields)


# ---------------------------------------------------------------------------
# Tensor quadrature oracle
# ---------------------------------------------------------------------------

def tensor_quadrature(f: Evaluator, nodes_per_axis: int) -> float:
    """Tensor-product Gauss-Legendre estimate of the integral of f over the
    unit cube; an independent oracle for arity <= 4."""
    if f.arity > 4:
        raise ConfigurationError("tensor quadrature is limited to arity <= 4")
    if nodes_per_axis < 2:
        raise DomainError("need at least 2 nodes per axis")
    return _box_integral(f, [(0.0, 1.0)] * f.arity, nodes_per_axis)
