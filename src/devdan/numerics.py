"""Small numerical kernels: stable nonlinearities, running moments, Xavier draws.

Everything runs in 64-bit floats. The running-moment recurrence is one-pass
(Welford) with population normalization, which is what the drift monitors
assume: every incoming sample updates the estimate exactly once.
"""
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


class RunningMoment:
    """One-pass mean and standard deviation of a scalar stream.

    std is the population form sqrt(m2 / count); it is 0 until the second
    sample arrives.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self, count: int = 0, mean: float = 0.0, m2: float = 0.0):
        self.count = count
        self.mean = mean
        self.m2 = m2

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        if self.count <= 1:
            return 0.0
        return math.sqrt(self.m2 / self.count)

    def __repr__(self):
        return f"RunningMoment(count={self.count}, mean={self.mean}, m2={self.m2})"


def xavier_bound(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int, size=None):
    """Uniform draw(s) on [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]."""
    bound = xavier_bound(fan_in, fan_out)
    return rng.uniform(-bound, bound, size=size)
