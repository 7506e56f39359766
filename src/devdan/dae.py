"""Tied-weight denoising autoencoder: corruption, forward passes and
gradients of the hidden layer. Structural edits (grow, prune) are made by the
model, which keeps every per-node array in step.

The decoder weight is never stored; it is always the transpose of the encoder
weight, and the encoder gradient therefore accumulates both the encoding-path
and decoding-path contributions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .numerics import sigmoid, xavier


class DaeLayer:
    """Parameters of the single evolving hidden layer.

    w : (n, width) encoder weight; the decoder uses w.T
    b : (width,)   encoder bias
    c : (n,)       decoder bias

    Held as given: the model's guard checks them before a row trains.
    """

    __slots__ = ("w", "b", "c")

    def __init__(self, w: np.ndarray, b: np.ndarray, c: np.ndarray):
        self.w = w
        self.b = b
        self.c = c

    @classmethod
    def fresh(cls, n_in: int, rng: np.random.Generator, width: int = 1) -> "DaeLayer":
        """Xavier-initialized encoder weight, zero biases."""
        w = xavier(rng, n_in, width, size=(n_in, width))
        return cls(w, np.zeros(width), np.zeros(n_in))

    @property
    def n_in(self) -> int:
        return self.w.shape[0]

    @property
    def width(self) -> int:
        return self.w.shape[1]


@dataclass
class MaskSpec:
    """Masking-noise corruption: zero a fixed fraction of features per sample."""

    fraction: float = 0.10
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def n_masked(self, n: int) -> int:
        if self.fraction <= 0.0 or n < 1:
            return 0
        # half-up rounding, but never corrupt zero features once noise is on
        return max(1, int(self.fraction * n + 0.5))


def mask_input(x: np.ndarray, spec: MaskSpec) -> np.ndarray:
    """Copy of x with n' distinct coordinates forced to zero.

    The zeroed positions are resampled independently for every call (i.e. for
    every training observation).
    """
    x = np.asarray(x, dtype=np.float64)
    k = spec.n_masked(x.shape[0])
    out = x.copy()
    if k:
        out[spec.rng.permutation(x.shape[0])[:k]] = 0.0
    return out


def encode(layer: DaeLayer, x_tilde: np.ndarray) -> np.ndarray:
    """Hidden activation y = sigmoid(x_tilde @ w + b), entries in (0, 1)."""
    return sigmoid(x_tilde @ layer.w + layer.b)


def decode(layer: DaeLayer, y: np.ndarray) -> np.ndarray:
    """Reconstruction z = sigmoid(y @ w.T + c), entries in (0, 1)."""
    return sigmoid(y @ layer.w.T + layer.c)


def reconstruction_loss(x: np.ndarray, z: np.ndarray) -> float:
    """Half sum of squared reconstruction errors."""
    d = x - z
    return 0.5 * float(d @ d)


def generative_gradients(
    layer: DaeLayer,
    x: np.ndarray,
    x_tilde: np.ndarray,
    y: np.ndarray | None = None,
    z: np.ndarray | None = None,
):
    """Loss and gradients of the reconstruction objective w.r.t. (w, b, c).

    Because the decoder weight is tied to the encoder weight, dw sums the
    encoder-path and decoder-path terms. Pass precomputed y, z to skip the
    forward pass (they must come from this exact layer and x_tilde).
    Returns (loss, dw, db, dc).
    """
    if y is None:
        y = encode(layer, x_tilde)
    if z is None:
        z = decode(layer, y)
    du = (z - x) * z * (1.0 - z)            # d loss / d decoder pre-activation
    da = (du @ layer.w) * y * (1.0 - y)     # back through the tied transpose
    dw = np.outer(du, y) + np.outer(x_tilde, da)  # decoding path + encoding path
    return reconstruction_loss(x, z), dw, da, du


def sgd_step_generative(layer: DaeLayer, dw, db, dc, lr: float) -> None:
    """Plain gradient step on (w, b, c), in place; rejects non-finite
    gradients and then leaves the layer untouched."""
    blocks = (("w", layer.w, dw), ("b", layer.b, db), ("c", layer.c, dc))
    for name, _, g in blocks:
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter block '{name}'")
    for _, p, g in blocks:
        p -= lr * g
