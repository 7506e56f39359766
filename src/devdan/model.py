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

import ctypes
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import dae, kernel
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
# a model's STATE_SLOTS arrays, in table order, fetched in one call
_state_arrays = operator.attrgetter(*(f"{s.owner}.{s.attr}" if s.owner else s.attr
                                      for s in STATE_SLOTS))


class FlatState:
    """The compiled step's hold on a model: vectors that the parameter and
    momentum arrays are rebound as views of, and the kernel context that
    points into them and into the node statistics.

    params : [c | w | b | theta | eta]
    vel    : [vel_w | vel_b | vel_theta | vel_eta], in line with params[n:]
    grads  : the compiled loop's gradient buffer, in the params layout
    arrays : every STATE_SLOTS array, as it was bound when these were built
    kernel : the compiled step's context

    Derived state: built from the live arrays only where the compiled step
    runs, and never checkpointed, hashed, pickled or copied.
    """

    __slots__ = ("params", "vel", "grads", "arrays", "kernel")

    def __init__(self, model: "DevdanModel", lib):
        layer, head = model.layer, model.head
        live = (layer.c, layer.w, layer.b, head.theta, head.eta)
        self.params = np.concatenate([arr.ravel() for arr in live], dtype=np.float64)
        layer.c, layer.w, layer.b, head.theta, head.eta = _views(self.params, live)
        vels = (model.vel_w, model.vel_b, head.vel_theta, head.vel_eta)
        self.vel = np.concatenate([arr.ravel() for arr in vels], dtype=np.float64)
        model.vel_w, model.vel_b, head.vel_theta, head.vel_eta = _views(self.vel, vels)
        self.grads = np.empty_like(self.params)
        self.arrays = _state_arrays(model)
        self.kernel = kernel.StepContext(lib, layer.n_in, layer.width, head.n_classes,
                                         self.params, self.vel, self.grads,
                                         model.gen_stats, model.disc_stats)

    def is_behind(self, model: "DevdanModel") -> bool:
        """True when any state array is not the one bound at build time:
        after a grow or prune, a checkpoint load, a copy or pickle (which copy
        views as arrays of their own), or an assignment."""
        return any(map(operator.is_not, _state_arrays(model), self.arrays))


def _kernel_ready(model: "DevdanModel") -> bool:
    """The compiled step reads counts as int64 and moments as float64, each
    one contiguous value per node."""
    return all(arr.flags.c_contiguous and arr.shape == (model.width,) and arr.dtype == dtype
               for s in (model.gen_stats, model.disc_stats)
               for arr, dtype in ((s.count, np.int64), (s.mean, np.float64), (s.m2, np.float64)))


def _views(vec: np.ndarray, like) -> list:
    """Consecutive views of vec, shaped like the arrays in `like`."""
    views, start = [], 0
    for arr in like:
        views.append(vec[start:start + arr.size].reshape(arr.shape))
        start += arr.size
    return views


def _class_index(label) -> int:
    """label as an int: an integer, or a float whose value is one. Any other
    label raises a ShapeError that names it."""
    if isinstance(label, (float, np.floating)) and float(label).is_integer():
        return int(label)
    try:
        return operator.index(label)
    except TypeError:
        raise ShapeError(f"label {label} is not an integer") from None


class StepReport(NamedTuple):
    grew: bool
    pruned: bool
    loss: float
    width_after: int


_ONE_ROW = np.zeros(1, dtype=np.int64)  # the row list of a single step


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

    def _as_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.n_in:
            raise ShapeError(f"batch shape {xs.shape} does not match n={self.n_in}")
        return xs

    def predict(self, x: np.ndarray):
        """Class probabilities and predicted class for one sample."""
        x = self._as_input(x)
        h = sigmoid(x @ self.layer.w + self.layer.b)
        probs = softmax_row(h @ self.head.theta + self.head.eta)
        return probs, int(np.argmax(probs))

    def predict_batch(self, xs: np.ndarray):
        """Vectorized predict over the rows of xs; returns (probs, classes)."""
        xs = self._as_batch(xs)
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

    def __getstate__(self):
        # copies and pickles leave out the flat vectors; the next step
        # rebuilds them from the live arrays
        return {**self.__dict__, "_flat_state": None}

    def _flat(self) -> FlatState | None:
        """The flat vectors of the live arrays, rebuilt when they fell behind;
        None where the compiled step cannot run on them."""
        f = self._flat_state
        if f is None or f.is_behind(self):
            lib = kernel.library()
            if lib is None or not _kernel_ready(self):
                return None
            f = self._flat_state = FlatState(self, lib)
        return f

    def generative_step(self, x: np.ndarray) -> StepReport:
        """One unsupervised update: corrupt, reconstruct, evolve, descend."""
        losses, grows, prunes, failure = self._rows(self._as_input(x)[None], _ONE_ROW)
        if failure is not None:
            raise failure[1]
        return StepReport(grows > 0, prunes > 0, float(losses[0]), self.width)

    def discriminative_step(self, x: np.ndarray, label: int) -> StepReport:
        """One supervised update: predict, evolve from prediction bias/variance,
        then momentum-descend encoder and head through the cross-entropy loss."""
        x = self._as_input(x)
        label = _class_index(label)
        if not 0 <= label < self.n_classes:
            raise ShapeError(f"label {label} out of range [0, {self.n_classes})")
        losses, grows, prunes, failure = self._rows(x[None], _ONE_ROW, np.array([label], np.int64))
        if failure is not None:
            raise failure[1]
        return StepReport(grows > 0, prunes > 0, float(losses[0]), self.width)

    def _rows(self, feats: np.ndarray, rows: np.ndarray, labels=None):
        """Trains one phase over feats[rows]: the generative phase, or given
        labels (int64 class indices, one per row of feats) the discriminative
        one. The compiled loop runs the phase where it can, else the numpy
        step runs it row by row. Returns (losses, grows, prunes, failure),
        failure being None or (position in rows, the error raised there),
        the rows before it trained."""
        done = self._compiled_rows(feats, rows, labels)
        if done is not None:
            return done
        losses, grows, prunes = [], 0, 0
        for pos, t in enumerate(rows):
            try:
                loss, grew, pruned = (self._generative_row(feats[t]) if labels is None
                                      else self._discriminative_row(feats[t], labels[t]))
            except NumericError as err:
                return losses, grows, prunes, (pos, err)
            losses.append(loss)
            grows += grew
            prunes += pruned
        return losses, grows, prunes, None

    def _generative_row(self, x: np.ndarray) -> tuple[float, bool, bool]:
        """The numpy step's generative update of one row: (loss, grew, pruned)."""
        layer = self.layer
        x_tilde = dae.mask_input(x, self.mask)
        a = x_tilde @ layer.w + layer.b
        y = sigmoid(a)
        z = dae.decode(layer, y)
        self.gen_stats.update(a)
        snap = ns_snapshot_generative(layer, self.gen_stats, x)
        # the residual x - z is the pre-edit one: z is replaced only below
        grew, pruned = self._evolve(
            self.gen_bias, self.gen_var, snap, lambda: self._grow_generative(x - z)
        )
        if grew or pruned:
            y = z = None  # the forward pass again, through the edited layer
        loss, dw, db, dc = dae.generative_gradients(layer, x, x_tilde, y=y, z=z)
        if not math.isfinite(loss):
            raise NumericError(f"non-finite generative loss {loss!r}")
        dae.sgd_step_generative(layer, dw, db, dc, self.config.lr_generative)
        return loss, grew, pruned

    def _discriminative_row(self, x: np.ndarray, label: int) -> tuple[float, bool, bool]:
        """The numpy step's discriminative update of one row: (loss, grew, pruned)."""
        cfg, layer, head = self.config, self.layer, self.head
        onehot = self._onehot[label]
        a = x @ layer.w + layer.b
        self.disc_stats.update(a)
        snap = ns_snapshot_discriminative(head.theta, head.eta, self.disc_stats, onehot)
        grew, pruned = self._evolve(
            self.disc_bias, self.disc_var, snap, self._grow_discriminative
        )
        if grew or pruned:
            a = x @ layer.w + layer.b  # the forward pass again, through the edited layer
        h = sigmoid(a)
        probs = softmax_row(h @ head.theta + head.eta)
        loss = -float(np.log(max(probs[label], 1e-300)))
        if not math.isfinite(loss):
            raise NumericError(f"non-finite discriminative loss {loss!r}")

        # softmax cross-entropy residual, back through the head and the encoder
        dlogits = probs - onehot
        da = (head.theta @ dlogits) * h * (1.0 - h)
        grads = ((layer.w, self.vel_w, np.outer(x, da)), (layer.b, self.vel_b, da),
                 (head.theta, head.vel_theta, np.outer(h, dlogits)),
                 (head.eta, head.vel_eta, dlogits))
        # momentum v = mom * v + grad, then p -= lr * v, block by block
        for param, vel, grad in grads:
            vel *= cfg.momentum
            vel += grad
            param -= cfg.lr_discriminative * vel
        return loss, grew, pruned

    def _compiled_rows(self, feats: np.ndarray, rows: np.ndarray, labels=None):
        """Trains one phase over feats[rows] in the compiled loop: the
        generative phase, or given labels (int64, one per row of feats) the
        discriminative one. The loop returns to Python only where a chart
        fires, for _evolve to make the edit, which draws from the generator;
        it then resumes at the same row, recomputing the forward pass against
        the edited layer. The charts stay SpcTracker objects, copied into the
        loop at each call and back at each return.

        Returns None where the numpy step has to run, else (losses, grows,
        prunes, failure), failure being None or (position in rows, the error
        the numpy step would raise there)."""
        # looked up at every call: the mask generator may have been rebound
        bitgen = kernel.bitgen_address(self.mask.rng)
        flat = None if bitgen is None else self._flat()
        if flat is None:
            return None
        k = flat.kernel
        cfg, n, gen = self.config, self.n_in, labels is None
        feats, rows = np.ascontiguousarray(feats), np.ascontiguousarray(rows, np.int64)
        charts = (self.gen_bias, self.gen_var) if gen else (self.disc_bias, self.disc_var)
        losses = np.empty(rows.shape[0])
        perm = np.empty(n, dtype=np.int64)
        job = kernel.Rows(
            feats.ctypes.data, rows.ctypes.data, None if gen else labels.ctypes.data,
            rows.shape[0], 0, kernel.FRESH, losses.ctypes.data, None, bitgen, perm.ctypes.data,
            min(self.mask.n_masked(n), n), cfg.enable_grow, cfg.enable_prune,
            cfg.lr_generative if gen else cfg.lr_discriminative, cfg.momentum,
        )
        grows = prunes = 0
        while True:
            buf = kernel.charts_in(charts)
            job.charts = buf.ctypes.data
            status = k.train_rows(k.addr, ctypes.byref(job))
            kernel.charts_out(buf, charts)
            if status != kernel.CHART:
                break
            x, output = feats[rows[job.pos]], k.gen_output
            grew, pruned = self._evolve(
                *charts, NsSnapshot(k.ey, *k.scalars[:2].tolist()),
                (lambda: self._grow_generative(x - output)) if gen else self._grow_discriminative,
            )
            grows += grew
            prunes += pruned
            job.resume = kernel.UPDATE
            if grew or pruned:
                old, k = k, self._flat().kernel
                k.work[:2 * n] = old.work[:2 * n]  # x and x_tilde, drawn once
                job.resume = kernel.REFRESH
        if status == kernel.DONE:
            return losses, grows, prunes, None
        pos = job.pos
        if status == kernel.BAD_LABEL:
            err = ShapeError(f"label {labels[rows[pos]]} out of range [0, {self.n_classes})")
        elif status == kernel.GEN_LOSS:
            err = NumericError(f"non-finite generative loss {float(losses[pos])!r}")
        elif status == kernel.DISC_LOSS:
            err = NumericError(f"non-finite discriminative loss {float(losses[pos])!r}")
        else:
            err = NumericError(
                f"non-finite gradient for parameter block '{'wbc'[status - kernel.GRAD_W]}'")
        return losses[:pos], grows, prunes, (pos, err)

    # -------------------------------------------------------------- batch level

    def train_batch(self, batch) -> BatchReport:
        """Single-epoch pass: generative phase over every row, then the
        discriminative phase over the rows whose labels are revealed. With
        the compiled step, each phase is one call into the compiled loop,
        plus one more per structural edit. The batch is checked before any
        row trains: features (T, n), labels and labeled_mask of length T, and
        every revealed label an integer in [0, m), of any dtype; anything
        else raises a ShapeError. A NumericError names the sample it
        happened at."""
        if batch.labeled_mask is None:
            raise ConfigError("batch has no labeled mask: choose its labels before training")
        feats = self._as_batch(batch.features)
        labels, mask = np.asarray(batch.labels), np.asarray(batch.labeled_mask, dtype=bool)
        if labels.shape != feats.shape[:1] or mask.shape != feats.shape[:1]:
            raise ShapeError(f"batch of {feats.shape[0]} rows has labels of shape "
                             f"{labels.shape} and a labeled mask of shape {mask.shape}")
        labeled = np.flatnonzero(mask)
        phases = ((np.arange(feats.shape[0] if self.config.enable_generative else 0), None),
                  (labeled, self._class_ids(labels, labeled)))
        done = []
        for rows, ids in phases:
            losses, grows, prunes, failure = self._rows(feats, rows, ids)
            if failure is not None:
                pos, err = failure
                raise type(err)(f"sample {rows[pos]}: {err}") from err
            done.append((losses, grows, prunes))
        (gen_losses, gen_grows, gen_prunes), (disc_losses, disc_grows, disc_prunes) = done
        return BatchReport(
            generative_loss=float(np.mean(gen_losses)) if len(gen_losses) else float("nan"),
            discriminative_loss=float(np.mean(disc_losses)) if len(disc_losses) else float("nan"),
            grow_events=gen_grows + disc_grows,
            prune_events=gen_prunes + disc_prunes,
            width_after=self.width,
            generative_steps=len(gen_losses),
            discriminative_steps=len(disc_losses),
        )

    def _class_ids(self, labels: np.ndarray, labeled: np.ndarray) -> np.ndarray:
        """labels as int64 class indices, 0 where unrevealed. A revealed label
        that is not an integer raises a ShapeError naming its sample, one
        outside [0, m) a ShapeError naming the label."""
        if np.can_cast(labels.dtype, np.int64):
            revealed = labels[labeled].astype(np.int64)
        else:
            revealed = np.empty(len(labeled), dtype=object)
            for i, t in enumerate(labeled):
                try:
                    revealed[i] = _class_index(labels[t])
                except ShapeError as err:
                    raise ShapeError(f"sample {t}: {err}") from None
        wrong = revealed[(revealed < 0) | (revealed >= self.n_classes)]
        if len(wrong):
            raise ShapeError(f"label {wrong[0]} out of range [0, {self.n_classes})")
        ids = np.zeros(labels.shape, dtype=np.int64)
        ids[labeled] = revealed
        return ids
