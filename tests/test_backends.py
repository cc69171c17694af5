"""Batched Lovasz kernels against the pointwise reference implementations."""

import numpy as np

import ordinfluence.backends as backends
from ordinfluence import eval_lovasz
from ordinfluence.lovasz import directional_slope

from conftest import random_set_function


def test_eval_matches_reference(rng):
    for _ in range(6):
        n = rng.randint(1, 6)
        v = random_set_function(rng, n, zero_grounded=False)
        values = np.array([float(t) for t in v.values])
        x = np.random.default_rng(1).random((64, n))
        got = backends.lovasz_eval_batch(values, x)
        want = np.array([eval_lovasz(v, row) for row in x])
        assert np.allclose(got, want, atol=1e-12)


def test_slope_matches_reference(rng):
    for _ in range(6):
        n = rng.randint(2, 5)
        v = random_set_function(rng, n)
        values = np.array([float(t) for t in v.values])
        x = np.random.default_rng(2).random((32, n))
        k = rng.randint(1, n)
        got = backends.lovasz_slope_batch(values, x, k)
        want = np.array([directional_slope(v, row, k) for row in x])
        assert np.allclose(got, want, atol=1e-12)
