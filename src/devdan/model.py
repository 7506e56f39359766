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
from typing import NamedTuple

import numpy as np

from . import dae
from .errors import ConfigError, NumericError, ShapeError, StructureError
from .monitors import (
    NodeStats,
    NsSnapshot,
    SpcTracker,
    fresh_charts,
    ns_snapshot_discriminative,
    ns_snapshot_generative,
    update_charts,
    weakest_node,
)
from .numerics import sigmoid, softmax_row, xavier
from .state import BIT_GENERATORS, CHART_ENTRIES, CHART_SLOT, CHARTS, COUNT, INTEGER, NUMBER, SEED
from .state import STATE_SLOTS, SWITCH, Kind, check, check_fields, exactly, setting, state_arrays


_RATE = NUMBER.within(lambda value: 0 <= value < math.inf, "a finite non-negative number")
_CLASSES = INTEGER.within(lambda value: value >= 2, "an integer of at least 2")
_GENERATOR = exactly(np.random.Generator, "numpy.random.Generator")
_BITS = Kind((type,), "one of " + ", ".join(BIT_GENERATORS),
             lambda bits: bits in BIT_GENERATORS.values())


@dataclass(frozen=True)
class DevdanConfig:
    """Hyperparameters and variant switches. Each field declares its default
    and kind (state.Kind); a value its kind refuses raises a ConfigError when
    the config is made (change: dataclasses.replace, which checks again).

    Defaults: discriminative / generative learning rates 0.01 / 0.001,
    momentum 0.95 (discriminative phase only), 10% masking noise.
    """

    lr_generative: float = setting(0.001, _RATE)
    lr_discriminative: float = setting(0.01, _RATE)
    momentum: float = setting(0.95, NUMBER.within(lambda v: 0 <= v < 1, "a number in [0, 1)"))
    mask_fraction: float = setting(0.10, NUMBER.within(lambda v: 0 <= v <= 1, "a number in [0, 1]"))
    enable_generative: bool = setting(True, SWITCH)
    enable_grow: bool = setting(True, SWITCH)
    enable_prune: bool = setting(True, SWITCH)
    seed: int = setting(0, SEED)

    def __post_init__(self) -> None:
        check_fields(DevdanConfig, vars(self))


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


def _check_rng(rng) -> None:
    """A ConfigError unless rng is a numpy Generator itself (a subclass may
    override draws the compiled loop takes) over one of BIT_GENERATORS."""
    check("type(rng)", _GENERATOR, type(rng))
    check("type(rng.bit_generator)", _BITS, type(rng.bit_generator))


def _as_floats(values, what: str) -> np.ndarray:
    """values as a float64 array. Anything that is not numbers, or rows of
    unequal length, raises a ShapeError naming what; a NaN or infinity, a
    NumericError naming the first one and, in rows of samples, its sample."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ShapeError(f"{what} are not numbers in rows of one length ({err})") from None
    finite = np.isfinite(arr)
    if not finite.all():
        where = np.unravel_index(np.argmin(finite), arr.shape)
        sample = f"sample {where[0]}: " if arr.ndim == 2 else ""
        raise NumericError(f"{sample}non-finite feature {float(arr[where])}")
    return arr


def _class_index(label) -> int:
    """label as an int: an integer, or a float whose value is one. Any other
    label raises a ShapeError that names it."""
    if isinstance(label, (float, np.floating)) and float(label).is_integer():
        return int(label)
    try:
        return operator.index(label)
    except TypeError:
        raise ShapeError(f"label {label} is not an integer") from None


_RULES = [kind.ok for _, kind in CHART_ENTRIES if kind.ok]  # more than a number
_ruled = operator.itemgetter(*(col for col, (_, kind) in enumerate(CHART_ENTRIES) if kind.ok))


def _check_charts(charts: np.ndarray) -> None:
    """checked_state's chart part, in one pass by the kinds' ok (CHART_ENTRIES);
    the first entry refused raises state.check's NumericError for its value."""
    if not all(map(all, map(map, _RULES, _ruled(charts.T.tolist())))):
        for name, row in zip(CHARTS, charts):
            for (key, kind), value in zip(CHART_ENTRIES, SpcTracker(row).values()):
                check(f"{name}.{key}", kind, value, error=NumericError)


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
        check("n_in", COUNT, n_in)
        check("n_classes", _CLASSES, n_classes)
        self.n_in, self.n_classes = n_in, n_classes
        self.config = config or DevdanConfig()
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        _check_rng(self.rng)
        self.layer = dae.DaeLayer.fresh(n_in, self.rng)
        self.head = SoftmaxHead(self.layer.width, n_classes, self.rng)
        self.gen_stats = NodeStats(self.layer.width)
        self.disc_stats = NodeStats(self.layer.width)
        # the four control charts, one row each, in CHARTS order
        self.charts = fresh_charts(len(CHARTS))
        # discriminative-phase momentum slots for the shared encoder
        self.vel_w = np.zeros_like(self.layer.w)
        self.vel_b = np.zeros_like(self.layer.b)
        # row k is the 0-1 target of label k; shared by every step, so read-only
        self._onehot = np.eye(n_classes)
        self._onehot.flags.writeable = False
        # the compiled step's hold and the arrays it was bound to (_ready)
        self._kernel_state = self._bound = None

    # each a view of its row of the current chart array, made at every
    # access, so that it follows the array through copies, pickles, loads and
    # assignments
    gen_bias = property(lambda self: SpcTracker(self.charts[0]))
    gen_var = property(lambda self: SpcTracker(self.charts[1]))
    disc_bias = property(lambda self: SpcTracker(self.charts[2]))
    disc_var = property(lambda self: SpcTracker(self.charts[3]))

    @property
    def width(self) -> int:
        return self.layer.width

    # made at each access from the fraction and generator that checkpoints hold
    mask = property(lambda self: dae.MaskSpec(self.config.mask_fraction, self.rng))

    # ------------------------------------------------------------------ predict

    def _as_input(self, x: np.ndarray) -> np.ndarray:
        x = _as_floats(x, "input features")
        if x.shape != (self.n_in,):
            raise ShapeError(f"input shape {x.shape} does not match n={self.n_in}")
        return x

    def _as_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = _as_floats(xs, "batch features")
        if xs.ndim != 2 or xs.shape[1] != self.n_in:
            raise ShapeError(f"batch shape {xs.shape} does not match n={self.n_in}")
        return xs

    def predict(self, x: np.ndarray):
        """Class probabilities and predicted class for one sample."""
        probs, classes = self.predict_batch(self._as_input(x)[None])
        return probs[0], int(classes[0])

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
            part = new.get(slot.key)
            if part is None:
                part = np.zeros(slot.shape({"n": self.n_in, "width": 1, "m": self.n_classes}),
                                slot.dtype)
            slot.set(self, np.concatenate([slot.get(self), part], axis=slot.node_axis))

    def _prune(self, index: int) -> None:
        """Remove hidden node `index`, preserving the order of the survivors."""
        if self.width <= 1:
            raise StructureError("cannot prune: the layer must keep at least one node")
        if not 0 <= index < self.width:
            raise StructureError(f"node index {index} out of range [0, {self.width})")
        for slot in STATE_SLOTS:
            if slot.node_axis is not None:
                slot.set(self, np.delete(slot.get(self), index, axis=slot.node_axis))

    def _evolve(self, snap: NsSnapshot, residual: np.ndarray | None = None) -> tuple[bool, bool]:
        """The numpy step's structural step of one phase: the generative one
        given the reconstruction residual, else the discriminative one. The
        phase's two charts take the snapshot (monitors.update_charts), then
        _edit makes the edit they called for. Returns (grew, pruned)."""
        cfg, gen = self.config, residual is not None
        # CHARTS order: the generative bias and variance charts, then the others
        charts = map(SpcTracker, self.charts[:2] if gen else self.charts[2:])
        grew, pruned = update_charts(*charts, snap.bias2, snap.variance, self.width,
                                     cfg.enable_grow, cfg.enable_prune)
        self._edit(grew, pruned, snap.ey, residual)
        return grew, pruned

    def _edit(self, grew: bool, pruned: bool, ey: np.ndarray, residual: np.ndarray | None) -> None:
        """The edit a row's charts called for, on either step: a grow with the
        phase's initialiser (the generative one given the reconstruction
        residual), or a prune of the node with the lowest expected activation
        ey."""
        if grew:
            if residual is not None:
                self._grow_generative(residual)
            else:
                self._grow_discriminative()
        elif pruned:
            self._prune(weakest_node(ey))

    # -------------------------------------------------------------- train steps

    def __getstate__(self):
        # copies and pickles leave out the compiled step's raw pointers and
        # the arrays they point into; the next step binds the live arrays
        return {**self.__dict__, "_kernel_state": None, "_bound": None}

    def checked_state(self) -> tuple[np.ndarray, ...]:
        """What a model may hold, one rule for training, the hash and checkpoints:
        every STATE_SLOTS array, then the chart array, as np.asarray gives it,
        nothing rebound. See _check_rng for the generator and _check_charts;
        a shape not its slot's, a dtype not a number or no node is a ShapeError."""
        _check_rng(self.rng)
        w = np.asarray(self.layer.w)
        width = w.shape[1] if w.ndim == 2 else -1  # any other w is named below
        sizes = {"n": self.n_in, "width": width, "m": self.n_classes}
        arrays = tuple(map(np.asarray, state_arrays(self)))
        for slot, arr in zip((*STATE_SLOTS, CHART_SLOT), arrays):
            if arr.shape != slot.shape(sizes) or arr.dtype.kind not in "biuf":
                raise ShapeError(f"{slot.key} is a {arr.dtype} array of shape {arr.shape}, "
                                 f"expected {np.dtype(slot.dtype)} of shape {slot.shape(sizes)}")
        if width < 1:
            raise ShapeError(f"w is of shape {w.shape}, expected at least 1 hidden node")
        _check_charts(arrays[-1])
        return arrays

    def _ready(self, lib=None):
        """The one guard before any row of a training call trains, on both
        steps; returns the compiled step's hold, or None where the numpy step
        runs. Where no hold is bound to the arrays the model holds (the numpy
        step never has one): the whole of checked_state, then an array of
        another dtype or memory order, or read-only, is replaced by a C-order
        copy of the slot's dtype, and a hold is bound in lib, the loaded
        kernel (kernel.library() unless given), where there is one. Else only
        the generator and chart parts (a rebound rng or a chart written in
        place rebinds no array)."""
        k = self._kernel_state
        if k is not None and all(map(operator.is_, state_arrays(self), self._bound)):
            _check_rng(self.rng)
            _check_charts(self.charts)
            return k
        for slot, was, arr in zip((*STATE_SLOTS, CHART_SLOT), state_arrays(self),
                                  self.checked_state()):
            if (arr is not was or arr.dtype != slot.dtype
                    or not (arr.flags.c_contiguous and arr.flags.writeable)):
                slot.set(self, np.array(arr, dtype=slot.dtype, order="C"))
        from . import kernel  # imported at the first training step

        lib = lib or kernel.library()
        if lib is None:
            return None
        # the record also keeps alive every array the hold points into
        self._bound = state_arrays(self)
        self._kernel_state = kernel.KernelState(self, lib)
        return self._kernel_state

    def generative_step(self, x: np.ndarray) -> StepReport:
        """One unsupervised update: corrupt, reconstruct, evolve, descend."""
        return self._step(self._as_input(x), None)

    def discriminative_step(self, x: np.ndarray, label: int) -> StepReport:
        """One supervised update: predict, evolve from prediction bias/variance,
        then momentum-descend encoder and head through the cross-entropy loss."""
        x = self._as_input(x)
        label = _class_index(label)
        if not 0 <= label < self.n_classes:
            raise ShapeError(f"label {label} out of range [0, {self.n_classes})")
        return self._step(x, np.array([label], np.int64))

    def _step(self, x: np.ndarray, labels) -> StepReport:
        """One checked row x through _rows; a row's error is raised as it is."""
        losses, grows, prunes, failure = self._rows(x[None], _ONE_ROW, labels)
        if failure is not None:
            raise failure[1]
        return StepReport(grows > 0, prunes > 0, float(losses[0]), self.width)

    def _rows(self, feats: np.ndarray, rows: np.ndarray, labels=None):
        """Trains one phase over feats[rows]: the generative phase, or given
        labels (int64 class indices, one per row of feats) the discriminative
        one. After the guard (_ready), the compiled loop runs the phase where
        the guard returns a hold, else the numpy step runs it row by row.
        Returns (losses, grows, prunes, failure), failure being None or
        (position in rows, the error raised there), the rows before it
        trained."""
        k = self._ready()
        if k is not None:
            return self._compiled_rows(k, feats, rows, labels)
        return self._numpy_rows(feats, rows, labels)

    def _numpy_rows(self, feats: np.ndarray, rows: np.ndarray, labels=None):
        """_rows on the numpy step, row by row, once the guard has run."""
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
        grew, pruned = self._evolve(snap, x - z)
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
        grew, pruned = self._evolve(snap)
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

    def _compiled_rows(self, k, feats: np.ndarray, rows: np.ndarray, labels=None):
        """Trains one phase over feats[rows] in the compiled loop, through the
        hold k that the guard (_ready) returned: the generative phase, or
        given labels (int64, one per row of feats) the discriminative one.
        The loop runs each row's chart step on self.charts in place, re-seeds
        included. Where a chart fires it returns the edit (Status.GROW or
        PRUNE), which _edit makes, drawing from the generator; the guard then
        binds the edited arrays and the loop resumes at the same row
        (job.resume), recomputing the forward pass against the edited layer.

        Returns (losses, grows, prunes, failure), failure being None or
        (position in rows, the error the numpy step would raise there)."""
        from . import kernel  # imported at the first training step

        cfg, n, gen = self.config, self.n_in, labels is None
        bitgen = self.rng.bit_generator.ctypes.bit_generator.value  # its bitgen_t
        feats, rows = np.ascontiguousarray(feats), np.ascontiguousarray(rows, np.int64)
        losses = np.empty(rows.shape[0])
        perm = np.empty(n, dtype=np.int64)
        job = kernel.Rows(
            feats.ctypes.data, rows.ctypes.data, None if gen else labels.ctypes.data,
            rows.shape[0], 0, 0, losses.ctypes.data, bitgen, perm.ctypes.data,
            min(self.mask.n_masked(n), n), bool(cfg.enable_grow), bool(cfg.enable_prune),
            cfg.lr_generative if gen else cfg.lr_discriminative, cfg.momentum,
        )
        grows = prunes = 0
        while (status := k.train_rows(k.addr, ctypes.byref(job))) in kernel.EDITS:
            grew = status == kernel.Status.GROW
            residual = feats[rows[job.pos]] - k.parts["pre"][:n] if gen else None
            self._edit(grew, not grew, k.parts["ey"], residual)
            grows += grew
            prunes += not grew
            old, k = k, self._ready(k.lib)
            for part in ("x", "xt"):  # drawn once
                k.parts[part][:] = old.parts[part]
            job.resume = 1
        if status == kernel.Status.DONE:
            return losses, grows, prunes, None
        pos = job.pos
        if status == kernel.Status.GEN_LOSS:
            err = NumericError(f"non-finite generative loss {float(losses[pos])!r}")
        elif status == kernel.Status.DISC_LOSS:
            err = NumericError(f"non-finite discriminative loss {float(losses[pos])!r}")
        else:
            err = NumericError("non-finite gradient for parameter block "
                               f"'{'wbc'[status - kernel.Status.GRAD_W]}'")
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
