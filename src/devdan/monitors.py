"""Network-significance machinery.

The expected squared reconstruction (or prediction) error is decomposed into
a squared-bias term and a variance term, both computable online: per-node
running moments of the hidden pre-activations feed a probit approximation of
the expected sigmoid activation, which in turn yields expected outputs and
expected squared outputs. The two scalar streams are watched by
statistical-process-control trackers whose confidence factors adapt to the
current bias/variance level; crossing the control limit grows (high bias) or
prunes (high variance) a hidden node.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import MonitorOrderError, ShapeError, StructureError
from .numerics import RunningMoment, sigmoid, softmax_row

_PROBIT_SCALE = math.pi / 8.0


def _probit_arg(mu, sigma, out=None):
    """mu / sqrt(1 + pi/8 * sigma^2): E[sigmoid(A)] for A ~ N(mu, sigma^2) is
    sigmoid of this, by the probit approximation."""
    return np.divide(mu, np.sqrt(1.0 + _PROBIT_SCALE * sigma * sigma), out=out)


def expected_activation(mu, sigma):
    """E[sigmoid(A)] for A ~ N(mu, sigma^2), via the probit approximation.

    Exact when sigma = 0. Accepts float scalars or float64 arrays.
    """
    out = sigmoid(_probit_arg(mu, sigma))
    return float(out) if out.ndim == 0 else out


class NodeStats:
    """Running moments of each hidden node's pre-activation stream.

    Counts are per node: a freshly grown node starts at zero and only begins
    contributing its own statistics after its first update (until then its
    expected activation is the uninformative 0.5).
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self, width: int):
        self.count = np.zeros(width, dtype=np.int64)
        self.mean = np.zeros(width, dtype=np.float64)
        self.m2 = np.zeros(width, dtype=np.float64)

    @property
    def width(self) -> int:
        return self.mean.shape[0]

    def update(self, a: np.ndarray) -> None:
        """Fold one pre-activation vector (length = width) into the moments."""
        if a.shape != self.mean.shape:
            raise ShapeError(f"stats width {self.width} does not match input {a.shape}")
        mean = self.mean
        self.count += 1
        delta = a - mean
        step = delta / self.count
        mean += step
        np.subtract(a, mean, step)
        step *= delta
        self.m2 += step

    def stds(self) -> np.ndarray:
        """Population std per node, 0 before a node's second update.

        m2 stays exactly 0 through a node's first update (its mean moves
        onto the first value), so dividing by max(count, 1) gives that 0.
        """
        return np.sqrt(self.m2 / np.maximum(self.count, 1))

    def expected_activations(self) -> np.ndarray:
        """Per-node significance: expected activation over the data seen so far."""
        return expected_activation(self.mean, self.stds())


class SpcTracker:
    """Control chart over a scalar quality stream (squared bias or variance).

    Tracks the running mean/std of the stream plus the lowest mean and lowest
    std observed since the last reset. After a reset the minima re-seed from
    the next observation instead of from infinity sentinels, which is what
    lets the chart find a new reference level after a drift.
    """

    __slots__ = ("current", "min_mean", "min_std", "_reseed")

    def __init__(self):
        self.current = RunningMoment()
        self.min_mean = 0.0
        self.min_std = 0.0
        self._reseed = True

    def update(self, x: float) -> None:
        cur = self.current
        cur.update(x)
        mean, std = cur.mean, cur.std
        if self._reseed:
            self.min_mean, self.min_std = mean, std
            self._reseed = False
        else:
            if mean < self.min_mean:
                self.min_mean = mean
            if std < self.min_std:
                self.min_std = std

    def reset_min(self, mode: str = "standard") -> None:
        """Arm a re-seed of the minima; 'reset_all' additionally zeroes the
        running moments (the empirically inferior variant kept as a switch)."""
        if mode not in ("standard", "reset_all"):
            raise StructureError(f"unknown reset mode {mode!r}")
        self._reseed = True
        if mode == "reset_all":
            self.current = RunningMoment()


def kappa(level: float) -> float:
    """Confidence factor of the growing and the pruning test, one law for both;
    2.0 at level zero, ~0.7 at high bias or variance."""
    return 1.3 * math.exp(-level) + 0.7


def should_grow(tracker: SpcTracker, bias2_now: float) -> bool:
    """Growing test: mean + std of the bias stream crossed the minimum level
    scaled by the adaptive confidence factor. The tracker must already have
    absorbed bias2_now. Inclusive inequality; the caller resets the minima
    when this fires."""
    cur = tracker.current
    return cur.mean + cur.std >= tracker.min_mean + kappa(bias2_now) * tracker.min_std


def should_prune(tracker: SpcTracker, variance_now: float, grew_this_step: bool, width: int) -> bool:
    """Pruning test: variance stream crossed twice the kappa-scaled minimum level.

    Refuses to fire on the same step as a grow (a fresh node transiently
    inflates variance) and never below two nodes. The caller resets the
    minima when this fires."""
    if grew_this_step or width <= 1:
        return False
    cur = tracker.current
    limit = tracker.min_mean + 2.0 * kappa(max(variance_now, 0.0)) * tracker.min_std
    return cur.mean + cur.std >= limit


def weakest_node(hs) -> int:
    """Index of the least significant node; ties go to the lowest index."""
    hs = np.asarray(hs, dtype=np.float64)
    if hs.shape[0] < 2:
        raise StructureError("need at least two nodes to pick the weakest")
    return int(np.argmin(hs))


class NsSnapshot(NamedTuple):
    """One evaluation of the bias/variance estimate.

    ey  : expected hidden activations (length = width)
    ez  : expected outputs (length n for reconstruction, m for prediction)
    ez2 : expected squared outputs, same length as ez
    bias2, variance : scalar aggregates (mean over output dimensions)
    ns = bias2 + variance, stored rather than recomputed
    hidden, output : the training step's forward pass, sigmoid(a) and the
        squashed output it gives, when the snapshot was passed the step's
        pre-activation a; None otherwise
    """

    ey: np.ndarray
    ez: np.ndarray
    ez2: np.ndarray
    bias2: float
    variance: float
    ns: float
    hidden: np.ndarray | None = None
    output: np.ndarray | None = None


def _require_updated(stats: NodeStats) -> None:
    # every update raises all counts and a grown node is appended with count
    # 0, so node 0 always holds the largest count
    if stats.count[0] == 0:
        raise MonitorOrderError(
            "node statistics were never updated; update them before taking a snapshot"
        )


def _snapshot(stats: NodeStats, weight, bias, squash, target, a=None) -> NsSnapshot:
    """Expected hidden activations ey, expected outputs squash(ey @ weight +
    bias) and squash((ey*ey) @ weight + bias), then the mean squared bias
    against target and the mean variance.

    Given a, the step's hidden pre-activation, the forward pass rides along in
    the same nonlinearity calls: sigmoid(a) is the row above the probit
    argument, and squash(sigmoid(a) @ weight + bias) the row above the two
    expected outputs (sigmoid and squash act row by row). Each product stays
    its own matrix-vector product, which rounds differently from one matrix
    product. The means are np.mean's own arithmetic: one add.reduce, then a
    divide.
    """
    _require_updated(stats)
    rows = 1 if a is None else 2
    hid = np.empty((rows, stats.width))
    if a is not None:
        hid[0] = a
    _probit_arg(stats.mean, stats.stds(), hid[-1])
    hid = sigmoid(hid)
    ey = hid[-1]
    n = bias.shape[0]
    pre = np.empty((rows + 1, n))
    if a is not None:
        np.matmul(hid[0], weight, pre[0])
    np.matmul(ey, weight, pre[-2])
    np.matmul(ey * ey, weight, pre[-1])
    pre += bias
    out = squash(pre)
    ez, ez2 = out[-2], out[-1]
    d = target - ez
    d *= d
    bias2 = float(np.add.reduce(d)) / n
    np.multiply(ez, ez, d)
    np.subtract(ez2, d, d)
    variance = float(np.add.reduce(d)) / n
    forward = () if a is None else (hid[0], out[0])
    return NsSnapshot(ey, ez, ez2, bias2, variance, bias2 + variance, *forward)


def ns_snapshot_generative(layer, stats: NodeStats, x: np.ndarray, a=None) -> NsSnapshot:
    """Bias/variance of the reconstruction against clean input x.

    ez  = sigmoid(ey @ w.T + c)
    ez2 = sigmoid((ey * ey) @ w.T + c)
    bias2 = mean_j (x_j - ez_j)^2, variance = mean_j (ez2_j - ez_j^2).
    Given the step's pre-activation a, also the forward pass: hidden =
    sigmoid(a) and output = the reconstruction sigmoid(hidden @ w.T + c).
    """
    if stats.width != layer.width:
        raise ShapeError(f"stats width {stats.width} does not match layer {layer.width}")
    return _snapshot(stats, layer.w.T, layer.c, sigmoid, x, a)


def ns_snapshot_discriminative(
    theta: np.ndarray, eta: np.ndarray, stats: NodeStats, onehot: np.ndarray, a=None
) -> NsSnapshot:
    """Bias/variance of the class-probability output against a 0-1 target.

    Given the step's pre-activation a, also the forward pass: hidden =
    sigmoid(a) and output = the class probabilities softmax(hidden @ theta +
    eta)."""
    if stats.width != theta.shape[0]:
        raise ShapeError(f"stats width {stats.width} does not match head {theta.shape}")
    return _snapshot(stats, theta, eta, softmax_row, onehot, a)
