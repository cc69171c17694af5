"""Seeded Monte-Carlo estimators for the influence index of black boxes.

Three equivalent formulations are implemented: the covariance with the kernel
g_k, the density-weighted directional derivative, and the difference-quotient
average over the gap between consecutive order statistics (with a uniform and
a triangular sampling variant).  A small-dimension tensor Gauss-Legendre
quadrature serves as an independent oracle.

All estimators draw from a counter-based Philox stream keyed by the seed, so
results are bit-reproducible for a fixed (seed, samples, estimator) triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, TaintedSampleError
from .projection import Moments

BATCH = 1 << 16
# mc_profile_moments holds about three times a per-rank stream's working set
# per row, so it takes smaller batches
PASS_BATCH = 1 << 14


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


def _batches(samples: int, size: int = BATCH):
    remaining = samples
    while remaining > 0:
        yield min(remaining, size)
        remaining -= size


# ---------------------------------------------------------------------------
# Order-statistic helpers on sample batches
# ---------------------------------------------------------------------------

def _sorted_neighbours(x: np.ndarray, k: int):
    """(x_{(k-1)}, x_{(k)}, x_{(k+1)}) per row, with 0/1 boundary ranks."""
    n = x.shape[1]
    xs = np.sort(x, axis=1)
    mid = xs[:, k - 1]
    down = xs[:, k - 2] if k >= 2 else np.zeros(len(x))
    up = xs[:, k] if k < n else np.ones(len(x))
    return down, mid, up


def g_kernel_values(x: np.ndarray, k: int) -> np.ndarray:
    """g_k(x) = -(n+1)(n+2)(x_{(k+1)} - 2 x_{(k)} + x_{(k-1)})."""
    n = x.shape[1]
    down, mid, up = _sorted_neighbours(x, k)
    return -(n + 1) * (n + 2) * (up - 2.0 * mid + down)


def h_density_values(x: np.ndarray, k: int) -> np.ndarray:
    """h_k(x) = (n+1)(n+2)(x_{(k+1)} - x_{(k)})(x_{(k)} - x_{(k-1)})."""
    n = x.shape[1]
    down, mid, up = _sorted_neighbours(x, k)
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
        x = _draw_untied(rng, m, f.arity, k)
        contrib = h_density_values(x, k) * np.asarray(f.derivative(x, k),
                                                      dtype=float)
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
        order = np.argsort(x, axis=1, kind="stable")
        col = order[:, k - 1]
        rows = np.arange(m)
        mid = x[rows, col]
        up = np.sort(x, axis=1)[:, k] if k < n else np.ones(m)
        gap = up - mid
        h = gap * (np.sqrt(u) if variant == "triangular-y" else u)
        shifted = x.copy()
        shifted[rows, col] = mid + h
        increment = f(shifted) - f(x)
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


def _check_rank(f: Evaluator, k: int, samples: int):
    if not 1 <= k <= f.arity:
        raise DomainError("rank %d outside [1, %d]" % (k, f.arity))
    if samples < 2:
        raise DomainError("need at least 2 samples")


def _draw_untied(rng, m: int, n: int, k: int) -> np.ndarray:
    """Uniform points whose k-th smallest coordinate is strictly between its
    sorted neighbours (so the moving coordinate is unambiguous)."""
    x = rng.random((m, n))
    for _ in range(64):
        down, mid, up = _sorted_neighbours(x, k)
        tied = (mid == up) | ((mid == down) & (k >= 2))
        if not tied.any():
            return x
        x[tied] = rng.random((int(tied.sum()), n))
    raise TaintedSampleError("could not draw tie-free samples")


def mc_profile_moments(f: Evaluator, samples: int, seed: int,
                       indices: bool = True, second_moments: bool = True) -> dict:
    """One pass for every primary: each batch is drawn, evaluated and sorted
    once, and the kernels g_1..g_n come from second differences of the
    sorted rows padded with 0 and 1.

    Returns IntegrationEstimates under ``"indices"`` (ranks 1..n, when
    ``indices``), ``"mean"`` and ``"norm_sq"`` (when ``second_moments``) and
    ``"tail"``, the formal tail coefficient mean - sum_k k I(f,k) / (n+1)
    (when both), plus ``"covariance"``: the joint covariance matrix of the
    estimates in the order (I(f,1), ..., I(f,n), mean, <f,f>), restricted to
    those estimated.
    """
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if not (indices or second_moments):
        raise DomainError("nothing to estimate")
    n = f.arity
    rng = _rng(seed)
    shift = None
    total = total_cross = None
    for m in _batches(samples, PASS_BATCH):
        x = rng.random((m, n))
        v = f(x)
        _check_finite(v, x)
        columns = []
        if indices:
            padded = np.concatenate(
                [np.zeros((m, 1)), np.sort(x, axis=1), np.ones((m, 1))], axis=1)
            fg = padded[:, 2:] - 2.0 * padded[:, 1:-1] + padded[:, :-2]
            fg *= (-(n + 1) * (n + 2) * v)[:, None]
            columns.append(fg)
        if second_moments:
            columns += [v, v * v]
        contrib = np.column_stack(columns)
        _check_finite(contrib, x)
        if shift is None:
            # accumulate about the first batch's means, so that the
            # covariance does not cancel against large means
            shift = contrib.mean(axis=0)
            total = np.zeros(len(shift))
            total_cross = np.zeros((len(shift), len(shift)))
        contrib -= shift
        total += contrib.sum(axis=0)
        total_cross += contrib.T @ contrib
    offset = total / samples
    values = shift + offset
    covariance = ((total_cross - samples * np.outer(offset, offset))
                  / ((samples - 1) * samples))
    ses = np.sqrt(np.maximum(np.diag(covariance), 0.0))

    def estimate(i, estimator="raw-inner-product"):
        return IntegrationEstimate(float(values[i]), float(ses[i]), samples,
                                   seed, estimator)

    out = {"covariance": covariance}
    if indices:
        out["indices"] = tuple(estimate(i, "covariance") for i in range(n))
    if second_moments:
        first = n if indices else 0
        out["mean"], out["norm_sq"] = estimate(first), estimate(first + 1)
    if indices and second_moments:
        weights = np.append(-np.arange(1, n + 1) / (n + 1), 1.0)
        tail_var = float(weights @ covariance[:n + 1, :n + 1] @ weights)
        out["tail"] = IntegrationEstimate(
            float(weights @ values[:n + 1]), math.sqrt(max(tail_var, 0.0)),
            samples, seed, "raw-inner-product")
    return out


def mc_moments(f: Evaluator, samples: int, seed: int, indices: bool = True,
               second_moments: bool = True) -> Moments:
    """Monte-Carlo Moments of any evaluator from one mc_profile_moments pass
    keyed derive_seed(seed, 0); the mean and <f, f> are estimated only when
    ``second_moments`` is asked for.  The standard errors and the joint
    covariance come from the same samples."""
    n = f.arity
    est = mc_profile_moments(f, samples, derive_seed(seed, 0), indices,
                             second_moments)
    fields = {}
    if indices:
        fields["indices"] = tuple(e.value for e in est["indices"])
        fields["index_std_errors"] = tuple(e.std_error for e in est["indices"])
    if second_moments:
        fields.update(mean=est["mean"].value,
                      mean_std_error=est["mean"].std_error,
                      norm_sq=est["norm_sq"].value,
                      norm_sq_std_error=est["norm_sq"].std_error)
    covariance = tuple(tuple(float(c) for c in row) for row in est["covariance"])
    return Moments(n, "monte-carlo", samples=samples, seed=seed,
                   covariance=covariance, **fields)


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
    nodes, weights = np.polynomial.legendre.leggauss(nodes_per_axis)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    grids = np.meshgrid(*([nodes] * f.arity), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    values = f(points)
    w = weights
    for _ in range(f.arity - 1):
        w = np.multiply.outer(w, weights)
    return float(np.dot(values, w.ravel()))
