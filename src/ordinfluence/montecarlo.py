"""Seeded Monte-Carlo estimators for the influence index of black boxes.

Three equivalent formulations are implemented: the covariance with the kernel
g_k, the density-weighted directional derivative, and the difference-quotient
average over the gap between consecutive order statistics (with a uniform and
a triangular sampling variant).  The uniform-sampling estimate of <f, g>
and the tensor Gauss-Legendre quadrature that the tests check them against
live in ``tests/reference.py``.

All estimators draw from a counter-based Philox stream keyed by the seed, so
results are bit-reproducible for a fixed (seed, samples, estimator) triple.

Every loop draws its batches through ``_drawn_ahead``: on more than one CPU
the one worker of a thread-pool executor fills batch i + 1 with uniform
draws, into the other of two blocks per draw, while the caller sorts,
evaluates and accumulates batch i.  The worker is pinned to the CPUs of the
caller's affinity mask other than the caller's own, so that it runs beside
the caller also where the kernel never moves a thread off the CPU it was
made on.  The worker runs nothing but the generator, one batch after
another, so the stream is read in the same order as by an inline loop,
which runs instead on a single batch or a one-CPU affinity mask.  Every
output is the same either way, save that the cross products of the one
pass, from about 100 quantities up, go through BLAS, whose rounding follows
its thread count.

A point where x_{(k)} ties a neighbour, or where the gap above x_{(k)} is
zero, weighs zero in the derivative and difference-quotient estimators:
h_k vanishes there, and so does the mass of the gap.  Such points have
probability zero.

Every estimator reads order statistics of the sampled points, and sorts each
batch once, into a block it owns.  An evaluator whose maps read order
statistics is handed that block, and the difference quotient then moves
row k-1 of it in place for its shifted points, so nothing sorts a batch
again.  Up to NETWORK_MAX_ARITY coordinates the sort runs Batcher's odd-even
merge sorting network (Batcher 1968; Knuth, TAOCP vol. 3, 5.3.4) as
np.minimum / np.maximum over whole columns, which beats numpy's per-row
sort; above the crossover it copies np.sort's result into the block.  The
values are the same either way.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import closing
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, TaintedSampleError
from .projection import Moments
from .record import FrozenRecord, set_field

# Rows handled as one block: the draw batch of every estimator and of
# mc_profile_moments, and the tile over which sorted_columns runs the network.
# A pass keeps two draw blocks of BATCH points (the draw worker fills one
# while the caller reads the other) and a moment block that the batch is
# sorted into, 3.4 MB together at arity 8, beside the evaluator's
# temporaries; the single-rank estimators keep a sort block in place of the
# moment block, which the difference quotient reuses for its shifted
# points.  On a 2-CPU Xeon with 2 MB of L2 per core, a 1e5-sample pass at
# arity 8 took the same time at 1 << 12 to 1 << 14 rows and 10-20% longer
# from 1 << 15 up; the network on 65536 rows at n = 8 took 3.1 ms as one
# block, 1.8 ms in blocks of 1 << 14 and 1.9-3.0 ms in blocks of 1 << 11 to
# 1 << 13; the single-rank estimators at 1e5 samples took up to 40% less
# time than in blocks of 1 << 16 (covariance, power-product n = 4: 7.1 ms
# against 11.2 ms), and none took more beyond noise
BATCH = 1 << 14
# Crossover between Batcher's network and np.sort, measured on that machine
# as medians of 15 sorts of 16384 random rows, in three rounds: n = 8
# 0.33-0.47 ms against 0.90-1.12 ms for np.sort(x, axis=1); n = 12 0.80-1.03
# against 0.99-1.23; n = 13 and 14 within noise of np.sort; n = 15
# 1.21-1.40 against 1.07-1.32; n = 16 2.08-2.37 against 0.81-1.34
NETWORK_MAX_ARITY = 12


class Evaluator(FrozenRecord):
    """A total, deterministic map from points of [0,1]^n to reals.

    ``func`` takes an (m, n) float array and returns (m,) values.  The
    optional ``derivative`` takes (points, k) and returns the (m,)
    derivatives in the direction of the k-th smallest coordinate on the
    open simplexes of strictly ordered points.  It is called on every
    point, and its value where x_{(k)} ties a neighbour, so that h_k = 0,
    is not used.  Any other shape of either result raises DomainError.

    With ``takes_sorted`` set, both maps also take a last argument, the
    points' (n, m) sorted columns: ``__call__`` and ``slope`` hand them the
    block an estimator sorted the batch into, or else ``sorted_columns(x)``.
    A map may return a view of that block: the estimators write to the
    block after a map returns, so such values are copied.
    """

    _fields = ("arity", "func", "derivative", "name", "takes_sorted")

    def __init__(self, arity: int, func: Callable[..., np.ndarray],
                 derivative: Optional[Callable[..., np.ndarray]] = None,
                 name: str = "evaluator", takes_sorted: bool = False):
        set_field(self, "arity", arity)
        set_field(self, "func", func)
        set_field(self, "derivative", derivative)
        set_field(self, "name", name)
        set_field(self, "takes_sorted", takes_sorted)

    def __call__(self, x: np.ndarray, xs=None) -> np.ndarray:
        """f at the rows of x; ``xs`` are their sorted columns, if known."""
        return self._apply(self.func, x, (), xs, self.name)

    def slope(self, x: np.ndarray, k: int, xs=None) -> np.ndarray:
        """The derivative map at the rows of x along rank k; ``xs`` as for
        ``__call__``."""
        return self._apply(self.derivative, x, (k,), xs,
                           "the derivative map of %s" % self.name)

    def _apply(self, map_, x, args: tuple, xs, source: str) -> np.ndarray:
        """``map_(x, *args)``, handed the sorted columns last if it takes
        them, as one value per point (``_per_point``), copied if it may
        view the columns (np.may_share_memory, a bounds check)."""
        x = np.asarray(x, dtype=float)
        if not self.takes_sorted:
            return _per_point(map_(x, *args), len(x), source)
        xs = sorted_columns(x) if xs is None else xs
        values = _per_point(map_(x, *args, xs), len(x), source)
        return values.copy() if np.may_share_memory(values, xs) else values


class IntegrationEstimate(FrozenRecord):
    """Monte-Carlo value with provenance: the standard error is the sample
    standard deviation of the per-sample contributions over sqrt(samples)."""

    _fields = ("value", "std_error", "samples", "seed", "estimator",
               "variant")

    def __init__(self, value: float, std_error: float, samples: int,
                 seed: int, estimator: str, variant: Optional[str] = None):
        set_field(self, "value", value)
        set_field(self, "std_error", std_error)
        set_field(self, "samples", samples)
        set_field(self, "seed", seed)
        set_field(self, "estimator", estimator)
        set_field(self, "variant", variant)

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
    """The Philox stream keyed on ``seed`` modulo 2^64, as ``derive_seed``."""
    key = np.uint64(int(seed) & (2 ** 64 - 1))
    return np.random.Generator(np.random.Philox(key=key))


def _per_point(values, m: int, source: str) -> np.ndarray:
    """``values`` as an (m,) float array, one value per point; DomainError
    naming any other shape, which numpy would otherwise broadcast or reject
    with a message about operands."""
    values = np.asarray(values, dtype=float)
    if values.shape != (m,):
        raise DomainError("%s returned an array of shape %s for %d points; "
                          "expected shape (%d,)" % (source, values.shape, m, m))
    return values


def _check_finite(columns: np.ndarray, points: np.ndarray, values=None):
    """TaintedSampleError at the first point whose column is not finite.
    With ``values``, the evaluator's values at the points, a finite value
    there means a product formed from it overflowed, and the message says
    so."""
    bad = ~np.isfinite(columns).all(axis=0)
    if bad.any():
        idx = int(np.argmax(bad))
        raise TaintedSampleError(
            "evaluator returned a non-finite value"
            if values is None or not np.isfinite(values[idx])
            else "a product of finite evaluator values overflowed",
            point=points[idx].copy())


class _Accumulator:
    """Means of per-point Monte-Carlo quantities, with their covariance.

    Takes (w, m) blocks, w quantities at each of m points (a 1-D block is
    one quantity), with the points.  Sums of the blocks and of their outer
    products are taken about the first block's means, so that the
    covariance does not cancel against large means (Chan, Golub & LeVeque
    1983).  A non-finite entry, or a finite one whose products overflow the
    sums, raises TaintedSampleError at its point; a mean or covariance that
    overflows as ``finish`` forms it raises it with no point.
    """

    def __init__(self):
        self.count, self.shift, self.sums, self.cross = 0, None, 0.0, 0.0

    def add(self, block: np.ndarray, points: np.ndarray, values=None):
        """Accumulate ``block``, which is shifted in place; ``values``, the
        evaluator's values at the points, if given, tell an overflowed
        product from a non-finite value."""
        z = block.reshape(-1, block.shape[-1])
        if self.shift is None:
            # trace a non-finite mean to its point before the shift spreads it
            self.shift = z.mean(axis=1, keepdims=True)
            if not np.isfinite(self.shift).all():
                _check_finite(z, points, values)
        z -= self.shift
        # OpenBLAS splits one row's long dot product over its threads, so
        # its rounding would follow the CPU count; einsum sums in one loop
        with np.errstate(over="ignore", invalid="ignore"):
            cross = self.cross + (np.einsum("ij,kj->ik", z, z) if len(z) == 1
                                  else z @ z.T)
        if not np.isfinite(cross).all():
            _check_finite(z, points, values)
            # z is finite, so its products overflowed, and the largest are
            # those of the point of largest magnitude
            idx = int(np.argmax(np.abs(z).max(axis=0)))
            raise TaintedSampleError(
                "a product of finite evaluator values overflowed",
                point=points[idx].copy())
        self.count += z.shape[1]
        self.sums += z.sum(axis=1)
        self.cross = cross

    def finish(self, linear_map: np.ndarray):
        """(L mean, its covariance) for L = ``linear_map`` and the means;
        TaintedSampleError when either overflows."""
        m = self.count
        with np.errstate(over="ignore", invalid="ignore"):
            offset = linear_map @ self.sums / m
            covariance = ((linear_map @ self.cross @ linear_map.T
                           - m * np.outer(offset, offset)) / ((m - 1) * m))
            mean = linear_map @ self.shift[:, 0] + offset
        if not (np.isfinite(covariance).all() and np.isfinite(mean).all()):
            raise TaintedSampleError(
                "a product of finite evaluator values overflowed")
        return mean, covariance

    def estimate(self, seed: int, estimator: str,
                 variant=None) -> IntegrationEstimate:
        """The one quantity's mean as an IntegrationEstimate."""
        (value,), ((variance,),) = self.finish(np.eye(1))
        return IntegrationEstimate(float(value), math.sqrt(max(variance, 0.0)),
                                   self.count, seed, estimator, variant)


def _batches(samples: int):
    remaining = samples
    while remaining > 0:
        yield min(remaining, BATCH)
        remaining -= BATCH


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _current_cpu() -> Optional[int]:
    """The CPU the calling thread last ran on: field 39 of its
    /proc/thread-self/stat, or None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            # the command name, field 2, is in parentheses and may hold
            # spaces; field 3 is the first after the last ")"
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _pin_off(cpu: Optional[int]):
    """Confine the calling thread to the CPUs of its mask other than
    ``cpu``.  Nothing happens where ``cpu`` is None, no other CPU is left,
    the platform has no affinity call or the call fails: as an executor's
    initializer this must not raise, or the executor breaks."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:
        pass


def _drawn_ahead(rng, samples: int, *shapes):
    """Yield, for the i-th batch of m rows in turn, a tuple of one block of
    uniform draws from ``rng`` per shape, each of shape (m,) + shape.

    The blocks are the first m rows of the (i % 2)-th of two arrays per
    shape, of up to BATCH rows each, allocated here, in the caller's thread.
    A one-worker executor fills batch i + 1 while the caller uses batch i,
    and is handed batch i + 2, which overwrites batch i, only once the
    caller asks for batch i + 1.  The worker runs nothing but
    ``rng.random(out=block)``, one block after another, so the stream is
    read in the same order as by an inline loop, which runs instead on a
    single batch or a process allowed one CPU.  An exception in ``rng`` is
    raised in the caller; closing the generator, or an exception at its
    ``yield``, waits for the batch being drawn and shuts the worker down.

    The worker starts on the CPUs of the caller's mask other than the one
    the caller runs on (``_pin_off``), where there are any.  A kernel that
    does not balance load across CPUs (``cpuset.sched_load_balance`` = 0)
    never moves a thread off the CPU of the thread that made it, and there
    an unpinned worker would take turns with the caller on one CPU.  The
    caller's own mask is not touched, and the pin ends with the worker.
    """
    blocks = [np.empty((2, min(samples, BATCH)) + shape) for shape in shapes]
    batches = (tuple(block[i % 2, :m] for block in blocks)
               for i, m in enumerate(_batches(samples)))
    if samples <= BATCH or _cpus() == 1:
        for batch in batches:
            yield tuple(rng.random(out=block) for block in batch)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1, "ordinfluence-draw", _pin_off,
                            (_current_cpu(),)) as worker:
        def fill(batch):
            return [worker.submit(rng.random, out=block) for block in batch]

        ahead = fill(next(batches))
        for batch in batches:
            drawn = tuple(future.result() for future in ahead)
            ahead = fill(batch)
            yield drawn
        yield tuple(future.result() for future in ahead)


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
    whose row i holds each point's (i+1)-th smallest coordinate.  The
    estimators sort into blocks of their own; this is for maps called
    outside them.

    Up to NETWORK_MAX_ARITY the columns run through Batcher's network as
    np.minimum / np.maximum over contiguous rows, BATCH points at a time;
    above it the result is np.sort(x, axis=1).T.  Either way the values are
    those of np.sort for rows without NaN.
    """
    m, n = x.shape
    return _sort_into(x, np.empty((n + 1, m)))


def _sort_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sorted_columns(x)`` written to, and returned as, the first n rows
    of ``out``, a block of at least n+1 rows and m columns whose row n the
    network uses as scratch.  Above NETWORK_MAX_ARITY np.sort's result is
    copied in and freed, so it and f's temporaries are never held at once."""
    m, n = x.shape
    if n > NETWORK_MAX_ARITY:
        out[:n] = np.sort(x, axis=1).T
        return out[:n]
    moves, free = _network(n)
    for lo in range(0, m, BATCH):
        tile = out[:n + 1, lo:lo + BATCH]
        points = x[lo:lo + BATCH]
        tile[:free] = points[:, :free].T
        tile[free + 1:] = points[:, free:].T
        rows = list(tile)
        for a, b, row in moves:
            np.minimum(rows[a], rows[b], out=rows[row])
            np.maximum(rows[a], rows[b], out=rows[b])
    return out[:n]


def _neighbours(xs: np.ndarray, k: int):
    """(x_{(k-1)}, x_{(k)}, x_{(k+1)}) per point of the sorted columns xs,
    with the boundary ranks 0 and 1 as read-only broadcasts."""
    n, m = xs.shape
    down = xs[k - 2] if k >= 2 else np.broadcast_to(0.0, m)
    up = xs[k] if k < n else np.broadcast_to(1.0, m)
    return down, xs[k - 1], up


def _g_kernel(n: int, down, mid, up) -> np.ndarray:
    return -(n + 1) * (n + 2) * (up - 2.0 * mid + down)


def _h_density(n: int, down, mid, up) -> np.ndarray:
    return (n + 1) * (n + 2) * (up - mid) * (mid - down)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def influence_mc_covariance(f: Evaluator, k: int, samples: int,
                            seed: int) -> IntegrationEstimate:
    """I(f,k) as the average of f(x) g_k(x) under uniform sampling."""
    _check_rank(f, k, samples)
    n = f.arity
    columns = np.empty((n + 1, min(samples, BATCH)))
    acc = _Accumulator()
    with closing(_drawn_ahead(_rng(seed), samples, (n,))) as batches:
        for (x,) in batches:
            xs = _sort_into(x, columns[:, :len(x)])
            acc.add(f(x, xs) * _g_kernel(n, *_neighbours(xs, k)), x)
    return acc.estimate(seed, "covariance")


def influence_mc_derivative(f: Evaluator, k: int, samples: int,
                            seed: int) -> IntegrationEstimate:
    """I(f,k) as the average of h_k(x) times the derivative of f along the
    k-th smallest coordinate.  A point where x_{(k)} ties a neighbour, so
    that the direction is ambiguous, has h_k = 0 and contributes 0, whatever
    the derivative map returns there; such points have measure zero."""
    if f.derivative is None:
        raise ConfigurationError("estimator needs an evaluator with a "
                                 "directional-derivative map")
    _check_rank(f, k, samples)
    n = f.arity
    columns = np.empty((n + 1, min(samples, BATCH)))
    acc = _Accumulator()
    with closing(_drawn_ahead(_rng(seed), samples, (n,))) as batches:
        for (x,) in batches:
            m = len(x)
            xs = _sort_into(x, columns[:, :m])
            h = _h_density(n, *_neighbours(xs, k))
            acc.add(np.multiply(h, f.slope(x, k, xs), out=np.zeros(m),
                                where=h > 0.0), x)
    return acc.estimate(seed, "derivative")


def influence_mc_diffquotient(f: Evaluator, k: int, samples: int, seed: int,
                              variant: str = "triangular-y") -> IntegrationEstimate:
    """I(f,k) from the increment of f when the k-th smallest coordinate moves
    up to a random level y in [x_{(k)}, x_{(k+1)}].

    uniform-y: y is uniform on the gap and the increment is weighted by
    (n+1)(n+2) times the gap.  triangular-y: y is drawn from the linear
    density (n+1)(n+2)(y - x_{(k)}) via inverse CDF and the difference
    quotient is weighted by the interval's total mass.  Degenerate gaps
    contribute zero.

    The moved value lies in [x_{(k)}, x_{(k+1)}], so once f has been
    evaluated at the batch, row k-1 of the batch's sorted block is set to
    it where the gap is positive, and the block serves the shifted points.
    """
    if variant not in ("uniform-y", "triangular-y"):
        raise DomainError("variant must be 'uniform-y' or 'triangular-y', got %r"
                          % (variant,))
    _check_rank(f, k, samples)
    n = f.arity
    scale = (n + 1) * (n + 2)
    columns = np.empty((n + 1, min(samples, BATCH)))
    acc = _Accumulator()
    with closing(_drawn_ahead(_rng(seed), samples, (n,), ())) as batches:
        for x, u in batches:
            xs = _sort_into(x, columns[:, :len(x)])
            _, mid, up = _neighbours(xs, k)
            gap = up - mid
            h = gap * (np.sqrt(u) if variant == "triangular-y" else u)
            moved = mid + h
            shifted = _shift_rank(x, mid, gap, moved)
            value = f(x, xs)
            # the shifted points' sorted columns are xs with row k-1 moved:
            # x_(k) + gap * s with s < 1 does not round past x_(k+1)
            np.copyto(mid, moved, where=gap > 0.0)
            increment = f(shifted, xs) - value
            if variant == "uniform-y":
                contrib = scale * gap * increment
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    quotient = np.where(h > 0.0,
                                        increment / np.where(h > 0.0, h, 1.0), 0.0)
                contrib = quotient * scale * gap * gap / 2.0
            acc.add(np.where(gap > 0.0, contrib, 0.0), x)
    return acc.estimate(seed, "diff-quotient", variant)


def _shift_rank(x: np.ndarray, mid: np.ndarray, gap: np.ndarray,
                moved: np.ndarray) -> np.ndarray:
    """x with its rank-k value ``mid`` set to ``moved`` where the gap above
    it is positive: rank k then ends its tie group, so the column a stable
    sort puts there is the last one equal to ``mid``."""
    m, n = x.shape
    # the last column equal to mid, found on contiguous columns; a masked
    # write per column would branch on every element of its mask
    last = np.zeros(m, dtype=np.intp)
    for j, column in enumerate(np.ascontiguousarray(x.T)[1:], 1):
        np.maximum(last, (column == mid) * j, out=last)
    shifted = x.copy()
    shifted.reshape(-1)[np.arange(0, m * n, n) + last] = np.where(
        gap > 0.0, moved, mid)
    return shifted


def _check_rank(f: Evaluator, k: int, samples: int):
    if not 1 <= k <= f.arity:
        raise DomainError("rank %d outside [1, %d]" % (k, f.arity))
    if samples < 2:
        raise DomainError("need at least 2 samples")


def _moment_map(n: int, norm_sq: bool) -> np.ndarray:
    """The map L from a point's sorted moments z to its contributions.

    z is (v x_(1), ..., v x_(n), v, v^2) with v = f(x), v^2 present when
    ``norm_sq`` is set.  Rows of L are the -(n+1)(n+2)-scaled second
    differences of v x_(0..n+1), with x_(0) = 0 and x_(n+1) = 1 (so the
    last one reads the column v), then the identity on v and v^2.
    """
    moment_map = np.eye(n + 1 + norm_sq)
    scale = -(n + 1) * (n + 2)
    rank = np.arange(n)
    moment_map[rank[1:], rank[:-1]] = scale
    moment_map[rank, rank] = -2 * scale
    moment_map[rank, rank + 1] = scale
    return moment_map


def mc_profile_moments(f: Evaluator, samples: int, seed: int,
                       norm_sq: bool = True) -> Moments:
    """Monte-Carlo Moments of any evaluator from one pass over the stream
    keyed derive_seed(seed, 0).

    Each point becomes its sorted moments z (see ``_moment_map``), one
    column of the block that ``_Accumulator`` sums with its outer products.
    Every estimate is linear in z, so the second differences that give
    g_1..g_n are applied once, to the sums, after the pass.

    The indices and the mean are always estimated, and <f, f> when
    ``norm_sq`` is set; their standard errors and joint covariance come
    from the same samples.
    """
    if samples < 2:
        raise DomainError("need at least 2 samples")
    n = f.arity
    moments = np.empty((n + 1 + norm_sq, min(samples, BATCH)))
    acc = _Accumulator()
    rng = _rng(derive_seed(seed, 0))
    with closing(_drawn_ahead(rng, samples, (n,))) as batches:
        for (x,) in batches:
            z = moments[:, :len(x)]
            # the sort leaves row n as scratch, which v then fills
            xs = _sort_into(x, z)
            v = f(x, xs)
            np.multiply(xs, v, out=z[:n])
            z[n] = v
            if norm_sq:
                with np.errstate(over="ignore"):
                    np.multiply(v, v, out=z[n + 1])
            acc.add(z, x, v)
    return _estimated_moments(acc, n, norm_sq, seed)


def _estimated_moments(acc: _Accumulator, n: int, norm_sq: bool,
                       seed: int) -> Moments:
    """Moments from an accumulator of ``_moment_map``'s sorted moments."""
    values, covariance = acc.finish(_moment_map(n, norm_sq))
    covariance.flags.writeable = False
    # a None past the mean stands for <f, f> when it was not estimated
    values = values.tolist() + [None]
    ses = np.sqrt(np.maximum(np.diag(covariance), 0.0)).tolist() + [None]
    return Moments(n, "mc", tuple(values[:n]), values[n], values[n + 1],
                   tuple(ses[:n]), ses[n], ses[n + 1], samples=acc.count,
                   seed=seed, covariance=covariance)
