"""Small numerical kernels: stable nonlinearities and Xavier draws, in 64-bit
floats."""
from __future__ import annotations

import math

import numpy as np


def sigmoid(x):
    """Logistic function, stable for large |x| (saturates instead of overflowing).

    exp(-logaddexp(0, -x)), evaluated in one buffer for array input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        return np.exp(-np.logaddexp(0.0, -x))
    out = np.negative(x)
    np.logaddexp(0.0, out, out)
    np.negative(out, out)
    return np.exp(out, out)


def softmax_row(logits):
    """Probability vector from a row of logits, computed with max-subtraction.

    A 2-D input is a batch: each row is normalised on its own.
    """
    v = np.asarray(logits, dtype=np.float64)
    e = v - np.maximum.reduce(v, -1, keepdims=True)
    np.exp(e, e)
    e /= np.add.reduce(e, -1, keepdims=True)
    return e


def xavier_bound(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int, size=None):
    """Uniform draw(s) on [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]."""
    bound = xavier_bound(fan_in, fan_out)
    return rng.uniform(-bound, bound, size=size)
