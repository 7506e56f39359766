"""Per-stage microbenchmark of one training step on a frozen width-12 SEA model.

Every stage is timed on a fresh copy of the frozen model, so state does not
drift between repeats; the reported value is the median over repeats of the
mean per-call time, in microseconds. Inputs (masked rows, pre-activations,
snapshots, gradients) are prepared beforehand from another copy, so only the
stage itself is inside the timer.

The discriminative gradient and momentum update are written inline in
`DevdanModel.discriminative_step`; there is no function to time them by, so
from outside they show only in the traced run's `model.self_us`.
"""
from __future__ import annotations

import copy
import statistics
import time
from typing import NamedTuple

import numpy as np

from devdan import dae, model, monitors, streams

WIDTH = 12
ROWS_PER_REPEAT = 200
REPEATS = 21
EDIT_REPEATS = 101

NOT_TIMED = (
    "stage.grad_disc, stage.sgd_disc: not timed, they are inline in "
    "DevdanModel.discriminative_step and show only in model.self_us"
)


class Inputs(NamedTuple):
    """One row's arguments for every stage, as the training step computes them."""

    x: np.ndarray
    x_tilde: np.ndarray
    a: np.ndarray
    y: np.ndarray
    z: np.ndarray
    snap: monitors.NsSnapshot
    onehot: np.ndarray
    grads: tuple


def frozen_model(seed: int, schedule):
    """Train on a seeded SEA stream until the hidden layer is WIDTH wide."""
    gen_rng, model_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    feats, labels = streams.gen_sea(20_000, schedule, gen_rng)
    m = model.DevdanModel(3, 2, model.DevdanConfig(seed=seed), rng=model_rng)
    for x, label in zip(feats, labels):
        if m.width == WIDTH:
            break
        m.generative_step(x)
        if m.width == WIDTH:
            break
        m.discriminative_step(x, int(label))
    # seeds whose stream never passes WIDTH are topped up with Xavier nodes
    while m.width < WIDTH:
        m._grow_discriminative()
    pool, pool_labels = streams.gen_sea(1000, ((0, 4.0),), gen_rng)
    return m, pool, pool_labels


def _per_call_us(frozen, call, inputs, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        m = copy.deepcopy(frozen)
        t0 = time.perf_counter()
        for item in inputs:
            call(m, item)
        times.append((time.perf_counter() - t0) / len(inputs) * 1e6)
    return statistics.median(times)


def _edit_us(frozen, edit, repeats=EDIT_REPEATS):
    times = []
    for _ in range(repeats):
        m = copy.deepcopy(frozen)
        t0 = time.perf_counter()
        edit(m)
        times.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(times)


def run(seed: int, schedule) -> dict:
    """stage name -> median microseconds per call."""
    frozen, pool, pool_labels = frozen_model(seed, schedule)
    rows = pool[:ROWS_PER_REPEAT]
    cfg = frozen.config

    # inputs for each stage, from a scratch copy that follows the real step order
    m = copy.deepcopy(frozen)
    prepared = []
    for x, label in zip(rows, pool_labels):
        x_tilde = dae.mask_input(x, m.mask)
        a = x_tilde @ m.layer.w + m.layer.b
        y = dae.encode(m.layer, x_tilde)
        z = dae.decode(m.layer, y)
        m.gen_stats.update(a)
        m.disc_stats.update(x @ m.layer.w + m.layer.b)
        snap = monitors.ns_snapshot_generative(m.layer, m.gen_stats, x)
        onehot = np.eye(frozen.n_classes)[int(label)]
        grads = dae.generative_gradients(m.layer, x, x_tilde, y=y, z=z)[1:]
        prepared.append(Inputs(x, x_tilde, a, y, z, snap, onehot, grads))

    def chart(m, p):
        m.gen_bias.update(p.snap.bias2)
        monitors.should_grow(m.gen_bias, p.snap.bias2)
        m.gen_var.update(p.snap.variance)
        monitors.should_prune(m.gen_var, p.snap.variance, False, m.width)

    residual = rows[0] - prepared[0].z
    weakest = int(np.argmin(frozen.gen_stats.expected_activations()))
    return {
        "stage.mask_us": _per_call_us(frozen, lambda m, p: dae.mask_input(p.x, m.mask), prepared),
        "stage.encode_us": _per_call_us(frozen, lambda m, p: dae.encode(m.layer, p.x_tilde), prepared),
        "stage.node_stats_us": _per_call_us(frozen, lambda m, p: m.gen_stats.update(p.a), prepared),
        "stage.snapshot_gen_us": _per_call_us(
            frozen, lambda m, p: monitors.ns_snapshot_generative(m.layer, m.gen_stats, p.x), prepared),
        "stage.snapshot_disc_us": _per_call_us(
            frozen, lambda m, p: monitors.ns_snapshot_discriminative(
                m.head.theta, m.head.eta, m.disc_stats, p.onehot), prepared),
        "stage.chart_us": _per_call_us(frozen, chart, prepared),
        "stage.grad_gen_us": _per_call_us(
            frozen, lambda m, p: dae.generative_gradients(m.layer, p.x, p.x_tilde, y=p.y, z=p.z), prepared),
        "stage.sgd_gen_us": _per_call_us(
            frozen, lambda m, p: dae.sgd_step_generative(m.layer, *p.grads, cfg.lr_generative), prepared),
        "stage.grow_us": _edit_us(frozen, lambda m: m._grow_generative(residual)),
        "stage.prune_us": _edit_us(frozen, lambda m: m._prune(weakest)),
        "stage.predict_row_us": _per_call_us(
            frozen, lambda m, xs: m.predict_batch(xs), [pool]) / len(pool),
    }
