"""Batched numpy kernels for vertex-interpolating (Lovasz) extensions.

The Monte-Carlo estimators evaluate millions of points; the per-row kernels
for vertex-interpolating extensions (telescoping evaluation and directional
slopes) are the dominant cost, so they work on whole sample batches.
"""

from __future__ import annotations

import numpy as np


def _masks_ascending(x: np.ndarray) -> tuple:
    """Per row: ascending sort order and the bitmasks of the upper tail
    {pi(i), ..., pi(n)} for i = 1..n."""
    order = np.argsort(x, axis=1, kind="stable")
    bits = np.int64(1) << order.astype(np.int64)
    masks = bits[:, ::-1].cumsum(axis=1)[:, ::-1]
    return order, masks


def lovasz_eval_batch(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the vertex-interpolating extension of a set-function table at
    each row of x via the telescoping (sorted-coordinates) form."""
    order, masks = _masks_ascending(x)
    v_upper = values[masks]
    v_lower = np.empty_like(v_upper)
    v_lower[:, :-1] = v_upper[:, 1:]
    v_lower[:, -1] = values[0]
    xs = np.take_along_axis(x, order, axis=1)
    return values[0] + ((v_upper - v_lower) * xs).sum(axis=1)


def lovasz_slope_batch(values: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Directional slope along the k-th smallest coordinate:
    v({pi(k),...,pi(n)}) - v({pi(k+1),...,pi(n)}) per row."""
    _, masks = _masks_ascending(x)
    upper = masks[:, k - 1]
    lower = masks[:, k] if k < x.shape[1] else np.zeros(len(x), dtype=np.int64)
    return values[upper] - values[lower]
