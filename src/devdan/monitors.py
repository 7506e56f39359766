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
from .numerics import sigmoid, softmax_row
from .state import CHART_FIELDS, Column

_PROBIT_SCALE = math.pi / 8.0


def _probit_arg(mu, sigma):
    """mu / sqrt(1 + pi/8 * sigma^2): E[sigmoid(A)] for A ~ N(mu, sigma^2) is
    sigmoid of this, by the probit approximation."""
    return mu / np.sqrt(1.0 + _PROBIT_SCALE * sigma * sigma)


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
        self.count += 1
        delta = a - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (a - self.mean)

    def stds(self) -> np.ndarray:
        """Population std per node, 0 before a node's second update.

        m2 stays exactly 0 through a node's first update (its mean moves
        onto the first value), so dividing by max(count, 1) gives that 0.
        """
        return np.sqrt(self.m2 / np.maximum(self.count, 1))

    def expected_activations(self) -> np.ndarray:
        """Per-node significance: expected activation over the data seen so far."""
        return expected_activation(self.mean, self.stds())


def fresh_charts(rows: int) -> np.ndarray:
    """`rows` chart rows that have seen nothing, each re-seeding its minima
    from its first observation."""
    charts = np.zeros((rows, CHART_FIELDS))
    charts[:, Column.RESEED] = 1.0
    return charts


def _std(count: float, m2: float) -> float:
    """Population std of a running moment, 0 before its second sample."""
    return 0.0 if count <= 1 else math.sqrt(m2 / count)


class SpcTracker:
    """Control chart over a scalar quality stream (squared bias or variance).

    Tracks the one-pass (Welford) mean and population std of the stream, each
    sample folded in exactly once, plus the lowest mean and lowest std
    observed since the last reset. After a reset the minima re-seed from
    the next observation instead of from infinity sentinels, which is what
    lets the chart find a new reference level after a drift.

    The state is one float64 row in the column layout of state.Column: a row
    of a model's chart array, which the tracker then views, or a fresh row of
    its own.
    """

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray | None = None):
        self.row = fresh_charts(1)[0] if row is None else row

    def update(self, x: float) -> None:
        count, mean, m2, min_mean, min_std, reseed = self.row.tolist()
        count += 1.0
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
        std = _std(count, m2)
        if reseed:
            min_mean, min_std = mean, std
        else:
            if mean < min_mean:
                min_mean = mean
            if std < min_std:
                min_std = std
        self.row[:] = (count, mean, m2, min_mean, min_std, 0.0)

    def values(self) -> tuple:
        """(count, mean, m2, min_mean, min_std, reseed) as a checkpoint holds
        them: a whole count an int, a 0 or 1 reseed a bool, the rest floats."""
        count, mean, m2, min_mean, min_std, reseed = self.row.tolist()
        return (int(count) if count % 1 == 0 else count, mean, m2, min_mean, min_std,
                bool(reseed) if reseed == 0 or reseed == 1 else reseed)

    @property
    def count(self) -> int:
        return int(self.row[Column.COUNT])

    @property
    def mean(self) -> float:
        return float(self.row[Column.MEAN])

    @property
    def std(self) -> float:
        return _std(float(self.row[Column.COUNT]), float(self.row[Column.M2]))

    @property
    def min_mean(self) -> float:
        return float(self.row[Column.MIN_MEAN])

    @property
    def min_std(self) -> float:
        return float(self.row[Column.MIN_STD])

    def reset_min(self) -> None:
        """Arm a re-seed of the minima from the next observation."""
        self.row[Column.RESEED] = 1.0


def kappa(level: float) -> float:
    """Confidence factor of the growing and the pruning test, one law for both;
    2.0 at level zero, ~0.7 at high bias or variance."""
    return 1.3 * math.exp(-level) + 0.7


def should_grow(tracker: SpcTracker, bias2_now: float) -> bool:
    """Growing test: mean + std of the bias stream crossed the minimum level
    scaled by the adaptive confidence factor. The tracker must already have
    absorbed bias2_now. Inclusive inequality; the caller resets the minima
    when this fires."""
    count, mean, m2, min_mean, min_std, _ = tracker.row.tolist()
    return mean + _std(count, m2) >= min_mean + kappa(bias2_now) * min_std


def should_prune(tracker: SpcTracker, variance_now: float, grew_this_step: bool, width: int) -> bool:
    """Pruning test: variance stream crossed twice the kappa-scaled minimum level.

    Refuses to fire on the same step as a grow (a fresh node transiently
    inflates variance) and never below two nodes. The caller resets the
    minima when this fires."""
    if grew_this_step or width <= 1:
        return False
    count, mean, m2, min_mean, min_std, _ = tracker.row.tolist()
    limit = min_mean + 2.0 * kappa(max(variance_now, 0.0)) * min_std
    return mean + _std(count, m2) >= limit


def update_charts(bias: SpcTracker, var: SpcTracker, bias2: float, variance: float, width: int,
                  enable_grow: bool = True, enable_prune: bool = True) -> tuple[bool, bool]:
    """One row's chart step: the bias chart takes bias2 and may call for a
    grow, then the variance chart takes variance and may call for a prune of
    a layer `width` wide; a chart that fires arms its re-seed. Returns
    (grew, pruned), never both."""
    bias.update(bias2)
    grew = enable_grow and should_grow(bias, bias2)
    if grew:
        bias.reset_min()
    var.update(variance)
    pruned = enable_prune and should_prune(var, variance, grew, width)
    if pruned:
        var.reset_min()
    return grew, pruned


def weakest_node(hs) -> int:
    """Index of the least significant node; ties go to the lowest index."""
    hs = np.asarray(hs, dtype=np.float64)
    if hs.shape[0] < 2:
        raise StructureError("need at least two nodes to pick the weakest")
    return int(np.argmin(hs))


class NsSnapshot(NamedTuple):
    """One evaluation of the bias/variance estimate.

    ey  : expected hidden activations (length = width)
    bias2, variance : squared bias and variance of the expected outputs,
        each a mean over the output dimensions
    """

    ey: np.ndarray
    bias2: float
    variance: float


def _require_updated(stats: NodeStats) -> None:
    # every update raises all counts and a grown node is appended with count
    # 0, so node 0 always holds the largest count
    if stats.count[0] == 0:
        raise MonitorOrderError(
            "node statistics were never updated; update them before taking a snapshot"
        )


def _snapshot(stats: NodeStats, weight, bias, squash, target) -> NsSnapshot:
    """Expected hidden activations ey, expected outputs ez = squash(ey @
    weight + bias) and ez2 = squash((ey*ey) @ weight + bias), then the mean
    squared bias of ez against target and the mean variance ez2 - ez^2."""
    _require_updated(stats)
    ey = stats.expected_activations()
    ez = squash(ey @ weight + bias)
    ez2 = squash((ey * ey) @ weight + bias)
    return NsSnapshot(ey, float(np.mean((target - ez) ** 2)), float(np.mean(ez2 - ez * ez)))


def ns_snapshot_generative(layer, stats: NodeStats, x: np.ndarray) -> NsSnapshot:
    """Bias/variance of the reconstruction against clean input x.

    ez  = sigmoid(ey @ w.T + c)
    ez2 = sigmoid((ey * ey) @ w.T + c)
    bias2 = mean_j (x_j - ez_j)^2, variance = mean_j (ez2_j - ez_j^2).
    """
    if stats.width != layer.width:
        raise ShapeError(f"stats width {stats.width} does not match layer {layer.width}")
    return _snapshot(stats, layer.w.T, layer.c, sigmoid, x)


def ns_snapshot_discriminative(
    theta: np.ndarray, eta: np.ndarray, stats: NodeStats, onehot: np.ndarray
) -> NsSnapshot:
    """Bias/variance of the class-probability output against a 0-1 target."""
    if stats.width != theta.shape[0]:
        raise ShapeError(f"stats width {stats.width} does not match head {theta.shape}")
    return _snapshot(stats, theta, eta, softmax_row, onehot)
