"""Tied-weight denoising autoencoder: corruption, forward passes and
gradients of the hidden layer. Structural edits (grow, prune) are made by the
model, which keeps every per-node array in step.

The decoder weight is never stored; it is always the transpose of the encoder
weight, and the encoder gradient therefore accumulates both the encoding-path
and decoding-path contributions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, StructureError
from .numerics import sigmoid, xavier


class DaeLayer:
    """Parameters of the single evolving hidden layer.

    w : (n, width) encoder weight; the decoder uses w.T
    b : (width,)   encoder bias
    c : (n,)       decoder bias
    """

    __slots__ = ("w", "b", "c")

    def __init__(self, w: np.ndarray, b: np.ndarray, c: np.ndarray):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[1],) or c.shape != (w.shape[0],):
            raise ShapeError(
                f"inconsistent layer shapes: w{w.shape}, b{b.shape}, c{c.shape}"
            )
        if w.shape[1] < 1:
            raise StructureError("a layer needs at least one hidden node")
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


def preactivation(layer: DaeLayer, x: np.ndarray) -> np.ndarray:
    """Hidden pre-activations x @ w + b; the quantity the node monitors track."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.n_in,):
        raise ShapeError(f"input length {x.shape} does not match n={layer.n_in}")
    return x @ layer.w + layer.b


def encode(layer: DaeLayer, x_tilde: np.ndarray) -> np.ndarray:
    """Hidden activation y = sigmoid(x_tilde @ w + b), entries in (0, 1)."""
    return sigmoid(preactivation(layer, x_tilde))


def decode(layer: DaeLayer, y: np.ndarray) -> np.ndarray:
    """Reconstruction z = sigmoid(y @ w.T + c), entries in (0, 1)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (layer.width,):
        raise ShapeError(f"hidden length {y.shape} does not match width={layer.width}")
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
    out: tuple | None = None,
):
    """Loss and gradients of the reconstruction objective w.r.t. (w, b, c).

    Because the decoder weight is tied to the encoder weight, dw sums the
    encoder-path and decoder-path terms. Pass precomputed y, z to skip the
    forward pass (they must come from this exact layer and x_tilde). out is
    an optional (dw, db, dc) triple of arrays to write the gradients into;
    without it they are fresh arrays.
    Returns (loss, dw, db, dc).
    """
    if y is None:
        y = encode(layer, x_tilde)
    if z is None:
        z = decode(layer, y)
    dw, da, du = (None, None, None) if out is None else out  # None: numpy allocates
    du = np.subtract(z, x, du)            # d loss / d decoder pre-activation:
    du *= z                               # (z - x) * z * (1 - z)
    du *= 1.0 - z
    da = np.matmul(du, layer.w, da)       # back through the tied transpose:
    da *= y                               # (du @ w) * y * (1 - y)
    da *= 1.0 - y
    dw = np.multiply(du[:, None], y, dw)  # outer(du, y), the decoding path
    dw += x_tilde[:, None] * da           # + outer(x_tilde, da), the encoding path
    return reconstruction_loss(x, z), dw, da, du


def sgd_step_generative(
    layer: DaeLayer, dw, db, dc, lr: float, joint: tuple | None = None
) -> None:
    """Plain gradient step on (w, b, c); rejects non-finite gradients and
    then leaves the layer untouched.

    joint is an optional (params, grads) pair of vectors laid out [c | w | b]
    of which the layer's arrays and dc, dw, db are views; the check and the
    step then run once over each vector instead of once per block.
    """
    pairs = ((layer.w, dw), (layer.b, db), (layer.c, dc)) if joint is None else (joint,)
    # a sum is finite only if every term is; when it is not (a non-finite
    # entry or an overflowing sum), the per-block check decides
    total = 0.0
    for _, g in pairs:
        total += float(np.add.reduce(g, None))
    if not math.isfinite(total):
        for name, g in (("w", dw), ("b", db), ("c", dc)):
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter block '{name}'")
    for p, g in pairs:
        p -= lr * g
