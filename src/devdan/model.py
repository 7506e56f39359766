"""The full evolving model: a tied-weight denoising autoencoder feeding a
softmax head, trained per sample in two phases.

The generative phase reconstructs masked inputs and evolves the hidden layer
from its reconstruction bias/variance; the discriminative phase trains
encoder plus head on labeled samples with momentum SGD and evolves the same
hidden layer from prediction bias/variance. The two phases keep separate node
statistics (corrupted vs clean pre-activations) and separate control
trackers, all attached to one shared layer; both evolve it through one
routine that differs only in how a new node is initialised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import dae
from .errors import ConfigError, NumericError, ShapeError, StructureError
from .monitors import (
    NodeStats,
    NsSnapshot,
    SpcTracker,
    ns_snapshot_discriminative,
    ns_snapshot_generative,
    should_grow,
    should_prune,
    weakest_node,
)
from .numerics import sigmoid, softmax_row, xavier


@dataclass
class DevdanConfig:
    """Hyperparameters and variant switches.

    Defaults: discriminative / generative learning rates 0.01 / 0.001,
    momentum 0.95 (discriminative phase only), 10% masking noise. reset_mode
    'reset_all' selects the variant that also zeroes the running tracker
    moments on a trigger.
    """

    lr_generative: float = 0.001
    lr_discriminative: float = 0.01
    momentum: float = 0.95
    mask_fraction: float = 0.10
    reset_mode: str = "standard"
    enable_generative: bool = True
    enable_grow: bool = True
    enable_prune: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.lr_generative < 0 or self.lr_discriminative < 0:
            raise ConfigError("learning rates must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ConfigError("mask_fraction must lie in [0, 1]")
        if self.reset_mode not in ("standard", "reset_all"):
            raise ConfigError(f"unknown reset_mode {self.reset_mode!r}")


class SoftmaxHead:
    """Output layer: theta (width x m), eta (m,), plus momentum slots."""

    __slots__ = ("theta", "eta", "vel_theta", "vel_eta")

    def __init__(self, width: int, n_classes: int, rng: np.random.Generator):
        self.theta = xavier(rng, width, n_classes, size=(width, n_classes))
        self.eta = np.zeros(n_classes)
        self.vel_theta = np.zeros((width, n_classes))
        self.vel_eta = np.zeros(n_classes)

    @property
    def n_classes(self) -> int:
        return self.theta.shape[1]

    @property
    def width(self) -> int:
        return self.theta.shape[0]


class StateSlot(NamedTuple):
    """One model-state array.

    key       : checkpoint key; a dot nests it ("gen_stats.count")
    owner     : model attribute that holds the array, None for the model itself
    attr      : attribute name on the owner
    node_axis : axis that runs over hidden nodes, None if the array's shape
                does not depend on the width
    """

    key: str
    owner: str | None
    attr: str
    node_axis: int | None

    def get(self, model) -> np.ndarray:
        return getattr(self._holder(model), self.attr)

    def set(self, model, value: np.ndarray) -> None:
        setattr(self._holder(model), self.attr, value)

    def _holder(self, model):
        return model if self.owner is None else getattr(model, self.owner)


# Every array of model state, in checkpoint and state-hash order. Grow, prune,
# checkpoints and the hash all walk this table, so per-node state declared
# here stays in step everywhere.
STATE_SLOTS = (
    StateSlot("w", "layer", "w", 1),
    StateSlot("b", "layer", "b", 0),
    StateSlot("c", "layer", "c", None),
    StateSlot("theta", "head", "theta", 0),
    StateSlot("eta", "head", "eta", None),
    StateSlot("vel_theta", "head", "vel_theta", 0),
    StateSlot("vel_eta", "head", "vel_eta", None),
    StateSlot("vel_w", None, "vel_w", 1),
    StateSlot("vel_b", None, "vel_b", 0),
    StateSlot("gen_stats.count", "gen_stats", "count", 0),
    StateSlot("gen_stats.mean", "gen_stats", "mean", 0),
    StateSlot("gen_stats.m2", "gen_stats", "m2", 0),
    StateSlot("disc_stats.count", "disc_stats", "count", 0),
    StateSlot("disc_stats.mean", "disc_stats", "mean", 0),
    StateSlot("disc_stats.m2", "disc_stats", "m2", 0),
)


class FlatState:
    """The vectors that the parameter and momentum arrays are views of, so
    that a phase updates all of its parameters in one call per operation.

    params : [c | w | b | theta | eta]
    vel    : [vel_w | vel_b | vel_theta | vel_eta], in line with params[n:]
    grads  : gradient buffer in the params layout, whose blocks are handed
             out as gen_grads (dw, db, dc) and disc_grads (dw, db, dtheta, deta)
    gen_joint, disc_joint : (params, grads) over [c | w | b] and over
             [w | b | theta | eta], the span each phase updates

    Derived state: built from the live arrays, which are then rebound as its
    views, and never checkpointed or hashed.
    """

    __slots__ = ("params", "vel", "gen_grads", "disc_grads", "gen_joint", "disc_joint")

    def __init__(self, model: "DevdanModel"):
        layer, head = model.layer, model.head
        live = (layer.c, layer.w, layer.b, head.theta, head.eta)
        self.params = p = np.concatenate([arr.ravel() for arr in live])
        layer.c, layer.w, layer.b, head.theta, head.eta = _views(p, live)
        vels = (model.vel_w, model.vel_b, head.vel_theta, head.vel_eta)
        self.vel = np.concatenate([arr.ravel() for arr in vels])
        model.vel_w, model.vel_b, head.vel_theta, head.vel_eta = _views(self.vel, vels)
        g = np.empty_like(p)
        dc, dw, db, dtheta, deta = _views(g, live)
        self.gen_grads = (dw, db, dc)
        self.disc_grads = (dw, db, dtheta, deta)
        gen_end = dc.size + dw.size + db.size
        self.gen_joint = (p[:gen_end], g[:gen_end])
        self.disc_joint = (p[dc.size:], g[dc.size:])

    def is_behind(self, model: "DevdanModel") -> bool:
        """True when any live parameter or momentum array is not a view of
        these vectors: after a grow or prune, a checkpoint load, a copy or
        pickle (which copy views as arrays of their own), or an assignment."""
        layer, head, p, v = model.layer, model.head, self.params, self.vel
        return not (layer.c.base is p and layer.w.base is p and layer.b.base is p
                    and head.theta.base is p and head.eta.base is p
                    and model.vel_w.base is v and model.vel_b.base is v
                    and head.vel_theta.base is v and head.vel_eta.base is v)


def _views(vec: np.ndarray, like) -> list:
    """Consecutive views of vec, shaped like the arrays in `like`."""
    views, start = [], 0
    for arr in like:
        views.append(vec[start:start + arr.size].reshape(arr.shape))
        start += arr.size
    return views


class StepReport(NamedTuple):
    grew: bool
    pruned: bool
    loss: float
    width_after: int


@dataclass
class BatchReport:
    """Aggregates of one training pass over a batch."""

    generative_loss: float
    discriminative_loss: float
    grow_events: int
    prune_events: int
    width_after: int
    generative_steps: int
    discriminative_steps: int


class DevdanModel:
    """One evolving network plus all of its monitor state.

    Exclusively owned by a single caller; prediction never mutates anything,
    training steps mutate everything in a fixed order.
    """

    def __init__(
        self,
        n_in: int,
        n_classes: int,
        config: DevdanConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config or DevdanConfig()
        self.config.validate()
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.layer = dae.DaeLayer.fresh(n_in, self.rng)
        self.head = SoftmaxHead(self.layer.width, n_classes, self.rng)
        self.mask = dae.MaskSpec(self.config.mask_fraction, self.rng)
        self.gen_stats = NodeStats(self.layer.width)
        self.disc_stats = NodeStats(self.layer.width)
        self.gen_bias = SpcTracker()
        self.gen_var = SpcTracker()
        self.disc_bias = SpcTracker()
        self.disc_var = SpcTracker()
        # discriminative-phase momentum slots for the shared encoder
        self.vel_w = np.zeros_like(self.layer.w)
        self.vel_b = np.zeros_like(self.layer.b)
        # row k is the 0-1 target of label k; shared by every step, so read-only
        self._onehot = np.eye(n_classes)
        self._onehot.flags.writeable = False
        self._flat_state = None

    @property
    def n_in(self) -> int:
        return self.layer.n_in

    @property
    def n_classes(self) -> int:
        return self.head.n_classes

    @property
    def width(self) -> int:
        return self.layer.width

    # ------------------------------------------------------------------ predict

    def _as_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_in,):
            raise ShapeError(f"input shape {x.shape} does not match n={self.n_in}")
        return x

    def predict(self, x: np.ndarray):
        """Class probabilities and predicted class for one sample."""
        x = self._as_input(x)
        h = sigmoid(x @ self.layer.w + self.layer.b)
        probs = softmax_row(h @ self.head.theta + self.head.eta)
        return probs, int(np.argmax(probs))

    def predict_batch(self, xs: np.ndarray):
        """Vectorized predict over the rows of xs; returns (probs, classes)."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.n_in:
            raise ShapeError(f"batch shape {xs.shape} does not match n={self.n_in}")
        h = sigmoid(xs @ self.layer.w + self.layer.b)
        probs = softmax_row(h @ self.head.theta + self.head.eta)
        return probs, np.argmax(probs, axis=1)

    # ----------------------------------------------------------- structural ops

    def _grow_generative(self, residual: np.ndarray) -> None:
        """New node whose encoder column is the negated residual, bias U[-1, 1]."""
        self._grow(-residual[:, None], self.rng.uniform(-1.0, 1.0, size=1))

    def _grow_discriminative(self) -> None:
        """New node with Xavier-drawn encoder column and bias."""
        n, fan_out = self.n_in, self.width + 1
        self._grow(xavier(self.rng, n, fan_out, size=(n, 1)), xavier(self.rng, n, fan_out, size=1))

    def _grow(self, column: np.ndarray, bias: np.ndarray) -> None:
        """Append one hidden node: the phase's encoder column and bias, a
        Xavier-drawn head row, and zeros in every other per-node array."""
        row = xavier(self.rng, self.width + 1, self.n_classes, size=(1, self.n_classes))
        new = {"w": column, "b": bias, "theta": row}
        for slot in STATE_SLOTS:
            if slot.node_axis is None:
                continue
            arr = slot.get(self)
            part = new.get(slot.key)
            if part is None:
                shape = list(arr.shape)
                shape[slot.node_axis] = 1
                part = np.zeros(shape, dtype=arr.dtype)
            slot.set(self, np.concatenate([arr, part], axis=slot.node_axis))

    def _prune(self, index: int) -> None:
        """Remove hidden node `index`, preserving the order of the survivors."""
        if self.width <= 1:
            raise StructureError("cannot prune: the layer must keep at least one node")
        if not 0 <= index < self.width:
            raise StructureError(f"node index {index} out of range [0, {self.width})")
        for slot in STATE_SLOTS:
            if slot.node_axis is not None:
                slot.set(self, np.delete(slot.get(self), index, axis=slot.node_axis))

    def _evolve(
        self,
        bias_chart: SpcTracker,
        var_chart: SpcTracker,
        snap: NsSnapshot,
        grow: Callable[[], None],
    ) -> tuple[bool, bool]:
        """One phase's structural step: the bias chart may grow a node with the
        phase's initialiser, then the variance chart may prune the node with
        the lowest expected activation. A chart that fires re-seeds its minima.
        Returns (grew, pruned)."""
        cfg = self.config
        bias_chart.update(snap.bias2)
        grew = cfg.enable_grow and should_grow(bias_chart, snap.bias2)
        if grew:
            grow()
            bias_chart.reset_min(cfg.reset_mode)

        var_chart.update(snap.variance)
        pruned = cfg.enable_prune and should_prune(var_chart, snap.variance, grew, self.width)
        if pruned:
            # a prune never follows a grow in the same step, so the node
            # statistics behind snap.ey are unchanged since the snapshot
            self._prune(weakest_node(snap.ey))
            var_chart.reset_min(cfg.reset_mode)
        return grew, pruned

    # -------------------------------------------------------------- train steps

    def _flat(self) -> FlatState:
        """The flat vectors of the live arrays, rebuilt when they fell behind."""
        f = self._flat_state
        if f is None or f.is_behind(self):
            f = self._flat_state = FlatState(self)
        return f

    def generative_step(self, x: np.ndarray) -> StepReport:
        """One unsupervised update: corrupt, reconstruct, evolve, descend."""
        x = self._as_input(x)
        flat = self._flat()
        x_tilde = dae.mask_input(x, self.mask)
        layer = self.layer
        a = x_tilde @ layer.w
        a += layer.b

        self.gen_stats.update(a)
        snap = ns_snapshot_generative(layer, self.gen_stats, x, a)
        y, z = snap.hidden, snap.output
        # the residual x - z is the pre-edit one: z is replaced only below
        grew, pruned = self._evolve(
            self.gen_bias, self.gen_var, snap, lambda: self._grow_generative(x - z)
        )

        if grew or pruned:
            flat = self._flat()
            y = sigmoid(x_tilde @ layer.w + layer.b)
            z = None  # force decode against the edited layer
        loss, dw, db, dc = dae.generative_gradients(
            layer, x, x_tilde, y=y, z=z, out=flat.gen_grads
        )
        if not math.isfinite(loss):
            raise NumericError(f"non-finite generative loss {loss!r}")
        dae.sgd_step_generative(layer, dw, db, dc, self.config.lr_generative, flat.gen_joint)
        return StepReport(grew, pruned, loss, self.width)

    def discriminative_step(self, x: np.ndarray, label: int) -> StepReport:
        """One supervised update: predict, evolve from prediction bias/variance,
        then momentum-descend encoder and head through the cross-entropy loss."""
        cfg = self.config
        x = self._as_input(x)
        if not 0 <= label < self.n_classes:
            raise ShapeError(f"label {label} out of range [0, {self.n_classes})")
        onehot = self._onehot[label]
        flat = self._flat()
        layer, head = self.layer, self.head
        a = x @ layer.w
        a += layer.b

        self.disc_stats.update(a)
        snap = ns_snapshot_discriminative(head.theta, head.eta, self.disc_stats, onehot, a)
        h, probs = snap.hidden, snap.output
        grew, pruned = self._evolve(
            self.disc_bias, self.disc_var, snap, self._grow_discriminative
        )

        if grew or pruned:
            flat = self._flat()
            h = sigmoid(x @ layer.w + layer.b)
            probs = softmax_row(h @ head.theta + head.eta)

        loss = -float(np.log(max(probs[label], 1e-300)))
        if not math.isfinite(loss):
            raise NumericError(f"non-finite discriminative loss {loss!r}")

        # fused softmax cross-entropy residual dlogits = probs - onehot, back
        # through the head and the encoder: da = (theta @ dlogits) * h * (1 - h);
        # outer(u, g) = u[:, None] * g
        dw, da, dtheta, dlogits = flat.disc_grads
        np.subtract(probs, onehot, dlogits)
        np.multiply(h[:, None], dlogits, dtheta)
        np.matmul(head.theta, dlogits, da)
        da *= h
        da *= 1.0 - h
        np.multiply(x[:, None], da, dw)

        # momentum v = mom * v + grad, then p -= lr * v, over [w | b | theta | eta]
        params, grads = flat.disc_joint
        vel = flat.vel
        vel *= cfg.momentum
        vel += grads
        params -= cfg.lr_discriminative * vel
        return StepReport(grew, pruned, loss, self.width)

    # -------------------------------------------------------------- batch level

    def train_batch(self, batch) -> BatchReport:
        """Single-epoch pass: generative phase over every row, then the
        discriminative phase over the rows whose labels are revealed."""
        feats = np.asarray(batch.features, dtype=np.float64)
        grows = prunes = 0
        gen_losses = []
        if self.config.enable_generative:
            for t in range(feats.shape[0]):
                try:
                    rep = self.generative_step(feats[t])
                except NumericError as err:
                    raise NumericError(f"sample {t}: {err}") from err
                grows += rep.grew
                prunes += rep.pruned
                gen_losses.append(rep.loss)
        disc_losses = []
        labels = np.asarray(batch.labels)
        mask = np.asarray(batch.labeled_mask, dtype=bool)
        for t in np.flatnonzero(mask):
            try:
                rep = self.discriminative_step(feats[t], int(labels[t]))
            except NumericError as err:
                raise NumericError(f"sample {t}: {err}") from err
            grows += rep.grew
            prunes += rep.pruned
            disc_losses.append(rep.loss)
        return BatchReport(
            generative_loss=float(np.mean(gen_losses)) if gen_losses else float("nan"),
            discriminative_loss=float(np.mean(disc_losses)) if disc_losses else float("nan"),
            grow_events=grows,
            prune_events=prunes,
            width_after=self.width,
            generative_steps=len(gen_losses),
            discriminative_steps=len(disc_losses),
        )
