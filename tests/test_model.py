"""Whole-model checks: forward oracle, discriminative gradient oracle via
central differences, structural bookkeeping, phase ablations, determinism,
and checkpoint round-trips."""
import contextlib
import copy
import dataclasses
import json
import math
import pickle
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import each_backend
from hypothesis import given, settings
from hypothesis import strategies as st

from devdan import dae, kernel, monitors
from devdan.checkpoint import load_checkpoint, model_to_dict, save_checkpoint, state_hash
from devdan.dae import DaeLayer
from devdan.errors import CheckpointError, ConfigError, NumericError, ShapeError, StructureError
from devdan.model import DevdanConfig, DevdanModel
from devdan.monitors import SpcTracker, fresh_charts
from devdan.numerics import sigmoid, softmax_row
from devdan.state import BIT_GENERATORS, CHART_ENTRIES, CHART_SLOT, CHARTS, STATE_SLOTS, Column
from devdan.state import Kind
from devdan.streams import DatasetSpec, StreamBatch, batchify, gen_sea


def frozen_config(**kw):
    """Config with structure evolution off unless asked otherwise."""
    base = dict(enable_grow=False, enable_prune=False)
    base.update(kw)
    return DevdanConfig(**base)


def widen(model, extra):
    for _ in range(extra):
        model._grow_discriminative()


def randomize(model, rng, scale=0.7):
    model.layer.w = rng.normal(scale=scale, size=model.layer.w.shape)
    model.layer.b = rng.normal(scale=scale, size=model.layer.b.shape)
    model.layer.c = rng.normal(scale=scale, size=model.layer.c.shape)
    model.head.theta = rng.normal(scale=scale, size=model.head.theta.shape)
    model.head.eta = rng.normal(scale=scale, size=model.head.eta.shape)


def independent_forward(w, b, theta, eta, x):
    """Separately coded prediction path (explicit loops)."""
    n, width = w.shape
    m = theta.shape[1]
    h = [1.0 / (1.0 + math.exp(-(sum(x[j] * w[j, i] for j in range(n)) + b[i])))
         for i in range(width)]
    logits = [sum(h[i] * theta[i, o] for i in range(width)) + eta[o] for o in range(m)]
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    total = sum(exps)
    return np.array([e / total for e in exps])


def cross_entropy_at(params, x, label):
    w, b, theta, eta = params
    probs = independent_forward(w, b, theta, eta, x)
    return -math.log(probs[label])


class TestPredict:
    def test_zero_head_uniform(self):
        model = DevdanModel(4, 3, frozen_config())
        model.head.theta[:] = 0.0
        model.head.eta[:] = 0.0
        probs, label = model.predict(np.full(4, 0.3))
        np.testing.assert_allclose(probs, 1 / 3, atol=1e-15)
        assert label == 0  # tie broken toward the lowest index

    def test_eta_shift_invariance(self):
        rng = np.random.default_rng(1)
        model = DevdanModel(3, 4, frozen_config(seed=1))
        widen(model, 2)
        randomize(model, rng)
        x = rng.uniform(size=3)
        p0, l0 = model.predict(x)
        model.head.eta = model.head.eta + 11.25
        p1, l1 = model.predict(x)
        np.testing.assert_allclose(p0, p1, atol=1e-12)
        assert l0 == l1

    def test_against_independent_forward(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = DevdanModel(3, 2, frozen_config(seed=2))
            widen(model, int(rng.integers(0, 3)))
            randomize(model, rng)
            x = rng.uniform(size=3)
            probs, _ = model.predict(x)
            oracle = independent_forward(
                model.layer.w, model.layer.b, model.head.theta, model.head.eta, x
            )
            np.testing.assert_allclose(probs, oracle, rtol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        model = DevdanModel(5, 3, frozen_config(seed=3))
        widen(model, 3)
        randomize(model, rng)
        xs = rng.uniform(size=(20, 5))
        probs, labels = model.predict_batch(xs)
        for t in range(20):
            p, l = model.predict(xs[t])
            np.testing.assert_allclose(probs[t], p, rtol=1e-12)
            assert labels[t] == l

    def test_dimension_mismatch(self):
        model = DevdanModel(4, 2, frozen_config())
        with pytest.raises(ShapeError):
            model.predict(np.zeros(5))


class TestDiscriminativeGradients:
    def recovered_gradients(self, model, x, label):
        """Run one momentum-free step and read the gradients off the update."""
        lr = model.config.lr_discriminative
        before = (
            model.layer.w.copy(), model.layer.b.copy(),
            model.head.theta.copy(), model.head.eta.copy(),
        )
        model.discriminative_step(x, label)
        after = (model.layer.w, model.layer.b, model.head.theta, model.head.eta)
        return [(b - a) / lr for b, a in zip(before, after)], before

    def test_fifty_instances_against_central_differences(self):
        rng = np.random.default_rng(5)
        eps = 1e-6
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 5))
            model = DevdanModel(n, m, frozen_config(momentum=0.0, seed=7))
            widen(model, int(rng.integers(0, 4)))
            randomize(model, rng)
            x = rng.uniform(size=n)
            label = int(rng.integers(m))
            params = (model.layer.w.copy(), model.layer.b.copy(),
                      model.head.theta.copy(), model.head.eta.copy())
            grads, before = self.recovered_gradients(model, x, label)
            for p_idx in range(4):
                fd = np.zeros_like(params[p_idx])
                it = np.nditer(params[p_idx], flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    bumped = [p.copy() for p in params]
                    bumped[p_idx][idx] += eps
                    up = cross_entropy_at(bumped, x, label)
                    bumped[p_idx][idx] -= 2 * eps
                    down = cross_entropy_at(bumped, x, label)
                    fd[idx] = (up - down) / (2 * eps)
                np.testing.assert_allclose(grads[p_idx], fd, rtol=1e-5, atol=1e-8)

    def test_zero_momentum_equals_plain_sgd(self):
        rng = np.random.default_rng(11)
        model = DevdanModel(3, 2, frozen_config(momentum=0.0, seed=11))
        widen(model, 1)
        randomize(model, rng)
        w, b = model.layer.w.copy(), model.layer.b.copy()
        theta, eta = model.head.theta.copy(), model.head.eta.copy()
        xs = rng.uniform(size=(30, 3))
        labels = rng.integers(2, size=30)
        lr = model.config.lr_discriminative
        for x, label in zip(xs, labels):
            model.discriminative_step(x, int(label))
            # reference: plain gradient descent, no velocity slots
            h = sigmoid(x @ w + b)
            probs = softmax_row(h @ theta + eta)
            dlogits = probs.copy()
            dlogits[label] -= 1.0
            dh = theta @ dlogits
            da = dh * h * (1.0 - h)
            theta = theta - lr * np.outer(h, dlogits)
            eta = eta - lr * dlogits
            w = w - lr * np.outer(x, da)
            b = b - lr * da
        np.testing.assert_array_equal(model.layer.w, w)
        np.testing.assert_array_equal(model.head.theta, theta)
        np.testing.assert_array_equal(model.head.eta, eta)

    def test_exact_prediction_leaves_parameters_alone(self):
        # with class 1's logit 800 below class 0's, exp underflows to 0 and
        # the softmax output equals the target exactly, so the fused residual
        # and every gradient vanish
        model = DevdanModel(3, 2, frozen_config(seed=13))
        model.head.eta = np.array([800.0, 0.0])
        w0, theta0 = model.layer.w.copy(), model.head.theta.copy()
        rep = model.discriminative_step(np.array([0.2, 0.5, 0.8]), 0)
        assert rep.loss == 0.0
        np.testing.assert_array_equal(model.head.eta, [800.0, 0.0])
        np.testing.assert_array_equal(model.head.theta, theta0)
        np.testing.assert_array_equal(model.layer.w, w0)
        assert np.all(model.vel_b == 0.0)


class TestGenerativeStep:
    def test_width_constant_with_evolution_off(self):
        rng = np.random.default_rng(17)
        model = DevdanModel(3, 2, frozen_config(seed=17))
        for _ in range(1000):
            model.generative_step(rng.uniform(size=3))
        assert model.width == 1

    def test_loss_decreases_on_stationary_stream(self):
        # correlated features give the reconstruction something to learn;
        # evolution is frozen so the comparison sees pure gradient descent.
        # seed-averaged early/late window comparison
        early, late = [], []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            model = DevdanModel(3, 2, frozen_config(seed=seed))
            losses = []
            for _ in range(5000):
                u, v = rng.uniform(), rng.uniform()
                x = np.array([u, u, 0.5 * u + 0.5 * v])
                losses.append(model.generative_step(x).loss)
            early.append(np.mean(losses[:500]))
            late.append(np.mean(losses[4500:]))
        assert np.mean(late) < np.mean(early)

    def test_never_prunes_on_grow_step(self):
        rng = np.random.default_rng(19)
        model = DevdanModel(3, 2, DevdanConfig(seed=19))
        for _ in range(2000):
            rep = model.generative_step(rng.uniform(size=3))
            assert not (rep.grew and rep.pruned)

    def test_single_node_never_pruned(self):
        rng = np.random.default_rng(23)
        model = DevdanModel(3, 2, frozen_config(enable_prune=True, seed=23))
        for _ in range(500):
            rep = model.generative_step(rng.uniform(size=3))
            assert not rep.pruned and model.width == 1


class TestStructuralSynchrony:
    def widths(self, model):
        return {
            model.layer.width,
            model.head.width,
            model.gen_stats.width,
            model.disc_stats.width,
            model.vel_w.shape[1],
            model.vel_b.shape[0],
        }

    def test_after_mixed_run(self):
        rng = np.random.default_rng(29)
        model = DevdanModel(3, 2, DevdanConfig(seed=29))
        for t in range(3000):
            x = rng.uniform(size=3)
            model.generative_step(x)
            if t % 2 == 0:
                model.discriminative_step(x, int(rng.integers(2)))
        assert len(self.widths(model)) == 1
        assert model.width >= 1


class TestTrainBatch:
    def make_batch(self, rng, t=64, labeled=None):
        feats = rng.uniform(size=(t, 3))
        labels = rng.integers(2, size=t)
        mask = np.ones(t, dtype=bool) if labeled is None else labeled
        return StreamBatch(feats, labels, mask, 0)

    def test_generative_phase_can_be_ablated(self):
        rng = np.random.default_rng(31)
        model = DevdanModel(3, 2, DevdanConfig(enable_generative=False, seed=31))
        report = model.train_batch(self.make_batch(rng))
        assert report.generative_steps == 0
        assert math.isnan(report.generative_loss)
        assert report.discriminative_steps == 64

    def test_unlabeled_batch_trains_head_nowhere(self):
        rng = np.random.default_rng(37)
        model = DevdanModel(3, 2, frozen_config(seed=37))
        theta0 = model.head.theta.copy()
        eta0 = model.head.eta.copy()
        batch = self.make_batch(rng, labeled=np.zeros(64, dtype=bool))
        report = model.train_batch(batch)
        assert report.discriminative_steps == 0
        np.testing.assert_array_equal(model.head.theta, theta0)
        np.testing.assert_array_equal(model.head.eta, eta0)

    def test_deterministic_report(self):
        def run():
            rng = np.random.default_rng(41)
            model = DevdanModel(3, 2, DevdanConfig(seed=41))
            return model.train_batch(self.make_batch(rng)), model

        r0, m0 = run()
        r1, m1 = run()
        assert r0 == r1
        assert state_hash(m0) == state_hash(m1)


class TestFullRunDeterminism:
    def final_state(self):
        feats, labels = gen_sea(5000, ((0, 4.0),), np.random.default_rng(43))
        model = DevdanModel(3, 2, DevdanConfig(seed=43))
        for k in range(5):
            batch = StreamBatch(
                feats[k * 1000:(k + 1) * 1000],
                labels[k * 1000:(k + 1) * 1000],
                np.ones(1000, dtype=bool),
                k,
            )
            model.train_batch(batch)
        return model

    def test_bitwise_identical_final_parameters(self):
        a, b = self.final_state(), self.final_state()
        assert state_hash(a) == state_hash(b)
        np.testing.assert_array_equal(a.layer.w, b.layer.w)
        np.testing.assert_array_equal(a.head.theta, b.head.theta)


class TestSpcFalseAlarmRate:
    def test_grow_rate_low_on_stationary_stream(self):
        # drift-free stream, seed-averaged trigger rate under 5% of steps
        rates = []
        for seed in range(3):
            feats, labels = gen_sea(10_000, ((0, 4.0),), np.random.default_rng(200 + seed))
            model = DevdanModel(3, 2, DevdanConfig(seed=seed))
            grows = steps = 0
            for k in range(10):
                batch = StreamBatch(
                    feats[k * 1000:(k + 1) * 1000],
                    labels[k * 1000:(k + 1) * 1000],
                    np.ones(1000, dtype=bool),
                    k,
                )
                rep = model.train_batch(batch)
                grows += rep.grow_events
                steps += rep.generative_steps + rep.discriminative_steps
            rates.append(grows / steps)
        assert np.mean(rates) < 0.05


class TestConfigValidation:
    def test_bad_momentum(self):
        with pytest.raises(ConfigError):
            DevdanConfig(momentum=1.0)

    def test_bad_mask_fraction(self):
        with pytest.raises(ConfigError):
            DevdanConfig(mask_fraction=1.5)

    def test_bad_reset_mode(self, tmp_path):
        """A checkpoint from when reset modes existed: "standard" loads to the
        same model, "reset_all" is refused."""
        model, path = TestCheckpoint().trained_model(), tmp_path / "m.ckpt.json"
        doc = model_to_dict(model)
        path.write_text(json.dumps({**doc, "config": {**doc["config"], "reset_mode": "standard"}}))
        assert state_hash(load_checkpoint(path)) == state_hash(model)
        path.write_text(json.dumps({**doc, "config": {**doc["config"], "reset_mode": "reset_all"}}))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f'{path}: reset_mode is "reset_all", expected "standard"'

    def test_label_out_of_range(self):
        model = DevdanModel(3, 2, frozen_config())
        with pytest.raises(ShapeError):
            model.discriminative_step(np.zeros(3), 2)

    def test_generative_step_wrong_length(self):
        with pytest.raises(ShapeError):
            DevdanModel(3, 2).generative_step(np.zeros(4))

    def test_discriminative_step_wrong_length(self):
        with pytest.raises(ShapeError):
            DevdanModel(3, 2).discriminative_step(np.zeros(4), 0)

    @pytest.mark.parametrize("field, value, message", [
        pytest.param(field, value, message, id=f"{field}-{value}-{rule}")
        for field, value, rule, message in (  # rule: what the value breaks
            ("lr_generative", float("nan"), "learning rates",
             "lr_generative is nan, expected a finite non-negative number"),
            ("lr_discriminative", float("inf"), "learning rates",
             "lr_discriminative is inf, expected a finite non-negative number"),
            ("lr_generative", -0.1, "learning rates",
             "lr_generative is -0.1, expected a finite non-negative number"),
            ("seed", -1, "seed", "seed is -1, expected a non-negative integer"),
            ("seed", "a", "seed", 'seed is "a", expected an integer'),
            ("seed", 1.5, "seed", "seed is 1.5, expected an integer"),
            ("enable_generative", None, "enable_generative must be a boolean",
             "enable_generative is null, expected true or false"),
            ("enable_grow", "no", "enable_grow must be a boolean",
             'enable_grow is "no", expected true or false'),
            ("enable_prune", 0, "enable_prune must be a boolean",
             "enable_prune is 0, expected true or false"),
        )
    ])
    def test_bad_config_value(self, field, value, message):
        with pytest.raises(ConfigError) as info:
            DevdanModel(3, 2, DevdanConfig(**{field: value}))
        assert str(info.value) == message

    def test_numpy_switches_train_and_save_like_python_ones(self, tmp_path):
        feats, labels = gen_sea(300, rng=np.random.default_rng(8))
        for backend in each_backend():
            hashes = []
            for off in (False, np.False_):
                model = DevdanModel(3, 2, DevdanConfig(enable_grow=off, enable_prune=off, seed=8))
                for x, y in zip(feats, labels):
                    model.generative_step(x)
                    model.discriminative_step(x, int(y))
                save_checkpoint(model, tmp_path / "m.ckpt.json")
                assert load_checkpoint(tmp_path / "m.ckpt.json").config == model.config
                hashes.append(state_hash(model))
            assert hashes[0] == hashes[1], backend

    REFUSED_SIZES = {  # (n_in, n_classes) -> the refusal
        (0, 2): "n_in is 0, expected a positive integer",
        (3, 1): "n_classes is 1, expected an integer of at least 2",
        (3, 0): "n_classes is 0, expected an integer of at least 2",
        (-1, 2): "n_in is -1, expected a positive integer",
        ("3", 2): 'n_in is "3", expected an integer',
        (3, 2.5): "n_classes is 2.5, expected an integer",
        (3.0, 2): "n_in is 3.0, expected an integer",
        (3, None): "n_classes is null, expected an integer",
    }

    @pytest.mark.parametrize("n_in, n_classes", list(REFUSED_SIZES))
    def test_model_needs_an_input_and_two_classes(self, n_in, n_classes):
        with pytest.raises(ConfigError) as info:
            DevdanModel(n_in, n_classes)
        assert str(info.value) == self.REFUSED_SIZES[n_in, n_classes]


class TestCheckpoint:
    def test_switch_that_is_not_a_boolean_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(DevdanModel(3, 2), path)
        doc = json.loads(path.read_text())
        doc["config"]["enable_grow"] = "no"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f'{path}: enable_grow is "no", expected true or false'

    def trained_model(self, seed=47):
        rng = np.random.default_rng(seed)
        model = DevdanModel(3, 2, DevdanConfig(seed=seed))
        for _ in range(300):
            x = rng.uniform(size=3)
            model.generative_step(x)
            model.discriminative_step(x, int(rng.integers(2)))
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.trained_model()
        p1 = tmp_path / "a.ckpt.json"
        p2 = tmp_path / "b.ckpt.json"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert state_hash(model) == state_hash(loaded)
        np.testing.assert_array_equal(model.layer.w, loaded.layer.w)
        np.testing.assert_array_equal(model.head.vel_theta, loaded.head.vel_theta)

    def test_loaded_model_continues_identically(self, tmp_path):
        model = self.trained_model(seed=53)
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(model, path)
        twin = load_checkpoint(path)
        rng = np.random.default_rng(99)
        for _ in range(50):
            x = rng.uniform(size=3)
            model.generative_step(x)
            twin.generative_step(x)
        assert state_hash(model) == state_hash(twin)

    def test_truncated_file_rejected(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "t.ckpt.json"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_field_rejected(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        del doc["theta"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_array_shape_mismatch_rejected(self, tmp_path):
        model = DevdanModel(3, 2, DevdanConfig(seed=59))
        widen(model, 2)
        path = tmp_path / "s.ckpt.json"
        save_checkpoint(model, path)
        good = path.read_text()
        corruptions = {  # width 3, but 4 biases, 1 bias velocity, 2 node counts
            "b": lambda doc: doc.update(b=[0.0] * 4),
            "vel_b": lambda doc: doc.update(vel_b=[0.0]),
            "gen_stats.count": lambda doc: doc["gen_stats"].update(count=[0, 0]),
        }
        for key, corrupt in corruptions.items():
            doc = json.loads(good)
            corrupt(doc)
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError, match=f": {key} is a .* array of shape "):
                load_checkpoint(path)

    def test_width_that_is_not_the_layer_is_refused(self, tmp_path):
        """A checkpoint of no hidden node, every per-node array empty, or
        whose width is not the width of w, is refused naming the file; so is
        a model of no node by the hash and by training, on either step."""
        model = DevdanModel(3, 2, DevdanConfig(seed=59))
        widen(model, 2)
        path = tmp_path / "w.ckpt.json"
        save_checkpoint(model, path)
        good = path.read_text()
        empty = json.loads(good)
        for slot in STATE_SLOTS:
            if slot.node_axis is not None:
                set_entry(empty, slot.key, np.zeros(slot.shape({"n": 3, "width": 0, "m": 2}),
                                                    slot.dtype).tolist())
        empty["width"] = 0
        narrow = json.loads(good)
        narrow["width"] = 2
        # JSON holds an empty (0, m) array as [], of shape (0,)
        for doc, message in ((empty, r"theta is a float64 array of shape \(0,\), expected "),
                             (narrow, r"width is 2, expected w's width \(3\)$")):
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError, match=f"^{path}: {message}"):
                load_checkpoint(path)
        for backend in each_backend():
            model = DevdanModel(3, 2, DevdanConfig(seed=59))
            for slot in STATE_SLOTS:
                if slot.node_axis is not None:
                    slot.set(model, np.delete(slot.get(model), 0, axis=slot.node_axis))
            for call in (lambda: state_hash(model), lambda: model.generative_step(np.ones(3))):
                with pytest.raises(ShapeError, match=r"^w is of shape \(3, 0\), expected at "
                                                     "least 1 hidden node$"):
                    call()

    def test_unusable_chart_entry_rejected(self, tmp_path):
        """A chart entry that training could not use is refused at the load,
        naming the chart, with the value as JSON: a count that is not a
        non-negative integer, a negative m2 or min_std, a value that is not a
        number, or a reseed that is not a JSON boolean. A number beyond
        float64 is malformed."""
        model = self.trained_model()
        path = tmp_path / "c.ckpt.json"
        save_checkpoint(model, path)
        good = path.read_text()
        corruptions = {  # key -> (value, what load_checkpoint says after the file's name)
            "gen_bias.current.m2": (-1, "gen_bias.current.m2 is -1, expected a non-negative "
                                        "number"),
            "disc_var.min_std": (-0.5, "disc_var.min_std is -0.5, expected a non-negative number"),
            "gen_var.current.count": (-1, "gen_var.current.count is -1, expected a non-negative "
                                          "integer"),
            "disc_bias.current.count": (2.5, "disc_bias.current.count is 2.5, expected a "
                                             "non-negative integer"),
            "gen_bias.current.mean": ("0.5", 'gen_bias.current.mean is "0.5", expected a number'),
            "disc_var.min_mean": (None, "disc_var.min_mean is null, expected a number"),
            "disc_var.current.mean": (True, "disc_var.current.mean is true, expected a number"),
            "gen_bias.current.count": (math.nan, "gen_bias.current.count is nan, expected a "
                                                 "non-negative integer"),
            "disc_bias.reseed": ("no", 'disc_bias.reseed is "no", expected true or false'),
            "gen_var.reseed": (1, "gen_var.reseed is 1, expected true or false"),
        }
        for key, (value, message) in corruptions.items():
            doc = json.loads(good)
            set_entry(doc, key, value)
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path)
            assert str(info.value) == f"{path}: {message}"
        doc = json.loads(good)
        doc["gen_bias"]["current"]["mean"] = 10 ** 400  # beyond float64
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(path)

    def test_nan_chart_values_load(self, tmp_path):
        """A model whose charts hold NaN, as a row that overflowed leaves
        them, saves, loads and saves again to the same bytes and hash."""
        model = self.trained_model()
        model.charts[::3, Column.MEAN:Column.RESEED] = np.nan
        p1, p2 = tmp_path / "a.ckpt.json", tmp_path / "b.ckpt.json"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert state_hash(loaded) == state_hash(model)

    def test_wrong_version_rejected(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "v.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        for version, shown in ((999, "999"), ("1", '"1"'), (True, "true")):
            doc["format_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path)
            assert str(info.value) == f"{path}: format_version is {shown}, expected 1"


PROPERTY_OPS = ("generative", "discriminative", "grow_generative", "grow_discriminative", "prune",
                "batch", "checkpoint", "copy", "malformed", "rebind", "rng")
REBOUND = (*STATE_SLOTS, CHART_SLOT)
REBINDINGS = (  # the copies a rebind op assigns
    lambda arr: arr.copy(),
    lambda arr: np.asfortranarray(arr.copy()),
    lambda arr: arr.astype(np.float32),
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((1, 3, 8)),
    m=st.sampled_from((2, 3, 5)),
    ops=st.lists(
        st.tuples(
            st.sampled_from(PROPERTY_OPS),
            st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
            st.integers(0, 4),
            st.integers(0, 6),
            st.lists(st.booleans(), max_size=12),
            st.integers(0, len(REBOUND) * len(REBINDINGS) - 1),
        ),
        max_size=40,
    ),
)
def test_random_step_sequences_keep_state_in_step(seed, n, m, ops):
    """Any mix of single steps, batches of any size and label mask, forced
    edits, checkpoint reloads, copies and pickles (training goes on with the
    copy), malformed batches (refused without a trace), state or chart
    arrays rebound as C-order, Fortran-order or float32 copies and a
    generator rebound to a new one, with n inputs
    and m classes, leaves every per-node array of the state table at the
    model's width, and both training steps on the same hash after every op."""
    hashes = {backend: run_step_sequence(seed, ops, n, m)
              for backend in each_backend()}
    assert len({tuple(h) for h in hashes.values()}) == 1, hashes


def malformed_batch(rng, size, kind, n=3, m=2):
    """A batch of size + 1 rows that train_batch refuses: short labels, a
    long mask, narrow features, a label out of range or one not an integer."""
    feats, labels = rng.uniform(size=(size + 1, n)), rng.integers(m, size=size + 1)
    mask = np.ones(size + 1, dtype=bool)
    if kind == 0:
        labels = labels[:-1]
    elif kind == 1:
        mask = np.ones(size + 2, dtype=bool)
    elif kind == 2:
        feats = feats[:, :-1]
    elif kind == 3:
        labels[-1] = m
    else:
        labels = labels.astype(float)
        labels[-1] = 0.5
    return StreamBatch(feats, labels, mask, 0)


def run_step_sequence(seed, ops, n=3, m=2) -> list:
    """The state hash after each op."""
    model = DevdanModel(n, m, DevdanConfig(seed=seed))
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt.json"
        for i, (kind, x, label, index, labeled, pick) in enumerate(ops):
            x, label = np.array(x[:n]), label % m
            rng = np.random.default_rng([seed, i])  # rows and labels of the op's batch
            if kind == "batch":
                size = len(labeled)
                model.train_batch(StreamBatch(rng.uniform(size=(size, n)),
                                              rng.integers(m, size=size),
                                              np.array(labeled, dtype=bool), i))
            elif kind == "generative":
                model.generative_step(x)
            elif kind == "discriminative":
                model.discriminative_step(x, label)
            elif kind == "grow_generative":
                model._grow_generative(x - 0.5)
            elif kind == "grow_discriminative":
                model._grow_discriminative()
            elif kind == "checkpoint":
                save_checkpoint(model, path)
                twin = load_checkpoint(path)
                assert state_hash(twin) == state_hash(model)
                model = twin
            elif kind == "copy":
                twin = copy.deepcopy(model) if label else pickle.loads(pickle.dumps(model))
                assert state_hash(twin) == state_hash(model)
                model = twin
            elif kind == "malformed":
                before = state_hash(model)
                with pytest.raises(ShapeError):
                    model.train_batch(malformed_batch(rng, len(labeled), index % 5, n, m))
                assert state_hash(model) == before
            elif kind == "rebind":
                slot = REBOUND[pick % len(REBOUND)]
                slot.set(model, REBINDINGS[pick // len(REBOUND)](slot.get(model)))
            elif kind == "rng":
                model.rng = np.random.default_rng([seed, i, 1])
            elif model.width >= 2 and index < model.width:
                model._prune(index)
            else:
                with pytest.raises(StructureError):
                    model._prune(index)
            widths = {
                slot.get(model).shape[slot.node_axis]
                for slot in STATE_SLOTS
                if slot.node_axis is not None
            }
            assert widths == {model.width} and model.width >= 1
            hashes.append(state_hash(model))
        save_checkpoint(model, path)
        assert state_hash(load_checkpoint(path)) == state_hash(model)
    return hashes


def train(model, feats, labels):
    for x, label in zip(feats, labels):
        model.generative_step(x)
        model.discriminative_step(x, int(label))


def test_copies_train_without_touching_the_original(tmp_path):
    """Steps update the parameters, momentum slots and node statistics in
    place: a deep copy, a pickle round trip and a checkpoint copy must each
    own their arrays, and train alike with either step."""
    feats, labels = gen_sea(400, rng=np.random.default_rng(71))
    ends = set()
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=71))
        train(model, feats[:200], labels[:200])
        before = state_hash(model)
        path = tmp_path / f"{backend}.ckpt.json"
        save_checkpoint(model, path)
        twins = (copy.deepcopy(model), pickle.loads(pickle.dumps(model)), load_checkpoint(path))
        for twin in twins:
            train(twin, feats[200:], labels[200:])
        assert state_hash(model) == before
        ends.update(state_hash(twin) for twin in twins)
        assert state_hash(twins[0]) != before
    assert len(ends) == 1


@pytest.mark.parametrize("change", ["rng", "mask_fraction"])
def test_mask_follows_the_generator_and_fraction(tmp_path, change):
    """After model.rng is rebound or config.mask_fraction changed, the model,
    its checkpoint reload and a deep copy mask with the new generator and
    fraction, which the hash and the checkpoint hold, and go on to the same
    hash, with either step."""
    feats, labels = gen_sea(400, rng=np.random.default_rng(74))
    ends = set()
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=74))
        train(model, feats[:100], labels[:100])
        if change == "rng":
            model.rng = np.random.default_rng(77)
        else:
            model.config = dataclasses.replace(model.config, mask_fraction=0.5)
        assert model.mask == dae.MaskSpec(model.config.mask_fraction, model.rng)
        path = tmp_path / f"{backend}.ckpt.json"
        save_checkpoint(model, path)
        twins = (model, load_checkpoint(path), copy.deepcopy(model))
        for twin in twins:
            train(twin, feats[100:], labels[100:])
        ends.update(state_hash(twin) for twin in twins)
    assert len(ends) == 1, ends


def test_pickle_and_copy_leave_out_the_flat_vectors():
    """The compiled step's next call rebuilds its struct of raw pointers into
    the model's arrays, so a pickle or deep copy of a trained model does not
    carry it; the original keeps its own. The numpy step never builds it."""
    feats, labels = gen_sea(200, rng=np.random.default_rng(72))
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=72))
        train(model, feats, labels)
        assert (model._kernel_state is not None) == (backend == "compiled")
        data = pickle.dumps(model)
        assert b"KernelState" not in data and b"KernelModel" not in data
        assert copy.deepcopy(model)._kernel_state is None


@pytest.mark.parametrize("rebound", ["layer.w", "head.theta", "layer", "gen_stats.mean", "charts",
                                     "layer.w float32", "layer.w Fortran", "layer.w read-only"])
def test_rebound_arrays_train_like_a_model_built_with_them(tmp_path, rebound):
    """Assigning a parameter, node-statistics or chart array, or the whole
    layer, of a model that has trained hands the new values to the next step,
    with either step. A float32, Fortran-order or read-only array trains as
    the C-order float64 copy that both steps replace it by, and a read-only
    one is left as it was."""
    ends = {backend: rebound_run(tmp_path / f"{backend}.ckpt.json", rebound)
            for backend in each_backend()}
    assert len(set(ends.values())) == 1, ends


def rebound_run(path, rebound) -> str:
    rng = np.random.default_rng(73)
    feats, labels = gen_sea(300, rng=rng)
    model = DevdanModel(3, 2, DevdanConfig(seed=73))
    train(model, feats[:100], labels[:100])
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    if rebound == "layer.w":
        new = {"w": rng.normal(size=model.layer.w.shape)}
        model.layer.w = new["w"].copy()
    elif rebound == "layer.w float32":
        new = {"w": model.layer.w.astype(np.float32)}
        model.layer.w = new["w"]
    elif rebound == "layer.w Fortran":
        assert model.width > 1  # else the Fortran-order copy is C order too
        new = {}
        model.layer.w = np.asfortranarray(model.layer.w)
    elif rebound == "layer.w read-only":
        new = {}
        model.layer.w = held = model.layer.w.copy()
        held.flags.writeable = False
    elif rebound == "head.theta":
        new = {"theta": rng.normal(size=model.head.theta.shape)}
        model.head.theta = new["theta"].copy()
    elif rebound == "gen_stats.mean":
        new = {"mean": rng.normal(size=model.width)}
        model.gen_stats.mean = new["mean"].copy()
        doc["gen_stats"]["mean"] = new.pop("mean").tolist()
    elif rebound == "charts":
        # each chart's moments and minima moved, its count kept, and a re-seed
        # armed, so that no chart fires (and repoints the compiled loop) at once
        new = {}
        model.charts = model.charts + rng.uniform(size=(4, 6)) * [0, 0.1, 0.01, 0.1, 0.01, 0]
        model.charts[:, -1] = 1.0
        for name, row in zip(CHARTS, model.charts):
            count, mean, m2, min_mean, min_std, reseed = SpcTracker(row).values()
            doc[name] = {"current": {"count": count, "mean": mean, "m2": m2},
                         "min_mean": min_mean, "min_std": min_std, "reseed": reseed}
    else:
        new = {"w": rng.normal(size=model.layer.w.shape),
               "b": rng.normal(size=model.width), "c": rng.normal(size=3)}
        model.layer = DaeLayer(*(new[key].copy() for key in ("w", "b", "c")))
    doc.update({key: arr.tolist() for key, arr in new.items()})
    path.write_text(json.dumps(doc))
    built = load_checkpoint(path)
    assert state_hash(built) == state_hash(model)
    train(model, feats[100:], labels[100:])
    train(built, feats[100:], labels[100:])
    assert state_hash(built) == state_hash(model)
    if rebound == "layer.w read-only":
        assert model.layer.w is not held and held.tolist() == doc["w"]
    return state_hash(model)


@pytest.mark.parametrize("block, index", [("w", 0), ("b", 1), ("c", 2)])
def test_nonfinite_gradient_through_generative_step(monkeypatch, block, index):
    """The numpy step's update names the bad block and leaves the layer
    untouched. (The compiled step never calls dae.generative_gradients;
    test_nonfinite_parity covers it.)"""
    monkeypatch.setattr(kernel, "library", lambda: None)
    rng = np.random.default_rng(79)
    model = DevdanModel(3, 2, frozen_config(seed=79))
    widen(model, 2)
    for _ in range(5):
        model.generative_step(rng.uniform(size=3))
    real = dae.generative_gradients

    def poisoned(*args, **kwargs):
        loss, *grads = real(*args, **kwargs)
        grads[index].flat[-1] = np.nan
        return (loss, *grads)

    monkeypatch.setattr(dae, "generative_gradients", poisoned)
    before = [arr.copy() for arr in (model.layer.w, model.layer.b, model.layer.c)]
    with pytest.raises(NumericError, match=f"'{block}'"):
        model.generative_step(rng.uniform(size=3))
    for now, then in zip((model.layer.w, model.layer.b, model.layer.c), before):
        np.testing.assert_array_equal(now, then)


def poisoned_model(case):
    """A frozen width-2 model and a step that goes non-finite in it.

    "gradient": every input masked (x_tilde = 0), both hidden nodes
    saturated at exactly 1 and w[0] = (1e308, -1e308): the decoder
    pre-activation cancels to c[0], so z[0] = 0.5 and with x[0] = 100 the
    residual term is -24.875; du @ w overflows, times y * (1 - y) = 0 gives
    NaN in db and so in dw, while the loss stays finite.
    "generative loss": an input of 1e200. "discriminative loss": a NaN in eta.
    """
    model = DevdanModel(3, 2, frozen_config(seed=81, mask_fraction=1.0))
    widen(model, 1)
    randomize(model, np.random.default_rng(81))
    x = np.array([0.3, 0.6, 0.9])
    model.generative_step(x)
    model.discriminative_step(x, 0)
    if case == "gradient":
        model.layer.w = np.array([[1e308, -1e308], [0.5, -0.5], [0.5, -0.5]])
        model.layer.b = np.array([40.0, 40.0])
        model.layer.c = np.zeros(3)
        return model, lambda: model.generative_step(np.array([100.0, 0.0, 0.0]))
    if case == "generative loss":
        return model, lambda: model.generative_step(np.array([1e200, 0.0, 0.0]))
    model.head.eta = np.array([np.nan, 0.0])
    return model, lambda: model.discriminative_step(x, 1)


@pytest.mark.parametrize("case, message", [
    ("gradient", "parameter block 'w'"),
    ("generative loss", "non-finite generative loss inf"),
    ("discriminative loss", "non-finite discriminative loss nan"),
])
def test_nonfinite_parity(compiled_step, case, message):
    """Driven non-finite through its parameters or its input, the compiled
    step raises the numpy step's NumericError, leaves the parameters
    untouched and ends on the numpy step's hash."""
    ends = {}
    for backend in each_backend():
        model, step = poisoned_model(case)
        params = [arr.copy() for arr in (model.layer.w, model.layer.b, model.layer.c,
                                         model.head.theta, model.head.eta)]
        with pytest.raises(NumericError, match=message) as err:
            step()
        for now, then in zip((model.layer.w, model.layer.b, model.layer.c,
                              model.head.theta, model.head.eta), params):
            np.testing.assert_array_equal(now, then)
        ends[backend] = (str(err.value), state_hash(model))
    assert ends["numpy"] == ends["compiled"]


@pytest.mark.parametrize("case", ["generative", "discriminative", "label"])
def test_mid_batch_error_names_the_sample_on_both_steps(case):
    """A batch that goes non-finite at row 17 (the 12th labeled row) raises
    "sample 17: ..." with either step, after training the rows before it
    alike: the state after the raise, the charts included, has the same
    hash. A NaN feature or a label out of range there is refused with a
    NumericError or ShapeError before any row trains."""
    feats, labels = gen_sea(40, rng=np.random.default_rng(83))
    if case == "generative":
        feats[17] = (1e200, 0.0, 0.0)
    elif case == "discriminative":
        feats[17] = (np.nan, 0.5, 0.5)
    else:
        labels[17] = 5
    labeled = np.arange(40) % 3 != 1
    warm_feats, warm_labels = gen_sea(300, rng=np.random.default_rng(84))
    ends = {}
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=83, enable_generative=case != "discriminative"))
        model.train_batch(StreamBatch(warm_feats, warm_labels, np.ones(300, dtype=bool), 0))
        before = state_hash(model)
        with pytest.raises((NumericError, ShapeError)) as err:
            model.train_batch(StreamBatch(feats, labels, labeled, 1))
        if case != "generative":
            assert state_hash(model) == before
        ends[backend] = (type(err.value), str(err.value), state_hash(model))
    expected = {"generative": "sample 17: non-finite generative loss inf",
                "discriminative": "sample 17: non-finite feature nan",
                "label": "label 5 out of range [0, 2)"}[case]
    assert ends["numpy"][1] == expected
    assert len(set(ends.values())) == 1, ends


@pytest.mark.parametrize("case", ["short labels", "long mask", "short mask", "wide features",
                                  "2-D labels"])
def test_malformed_batches_are_refused_before_training(case):
    """A batch whose features are not (T, n), or whose labels or labeled
    mask are not of length T, raises a ShapeError on either step before any
    row trains."""
    feats, labels = gen_sea(40, rng=np.random.default_rng(91))
    mask = np.arange(40) % 3 != 1
    if case == "short labels":
        labels = labels[:30]
    elif case == "long mask":
        mask = np.ones(45, dtype=bool)
    elif case == "short mask":
        mask = mask[:30]
    elif case == "wide features":
        feats = np.column_stack([feats, feats[:, 0]])
    else:
        labels = labels[:, None]
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=91))
        train(model, *gen_sea(50, rng=np.random.default_rng(92)))
        before = state_hash(model)
        with pytest.raises(ShapeError):
            model.train_batch(StreamBatch(feats, labels, mask, 0))
        assert state_hash(model) == before, backend


WRONG_SHAPES = {
    "eta": lambda model: model.head.eta[:-1].copy(),
    "b": lambda model: model.layer.b[:-1].copy(),
    "vel_w": lambda model: model.vel_w.T.copy(),
    "gen_stats.count": lambda model: model.gen_stats.count[:-1].copy(),
    "charts": lambda model: np.zeros((4, 5)),
}


@pytest.mark.parametrize("key", list(WRONG_SHAPES))
def test_wrongly_shaped_state_is_refused_on_both_steps(key, tmp_path):
    """A state array of the wrong shape, assigned to a trained model, makes
    train_batch, generative_step and discriminative_step raise a ShapeError
    that names its slot, with either step, before any row trains: with the
    right array put back, the hash is the one before the call. state_hash,
    model_to_dict and save_checkpoint raise the same error, and the save
    writes no file."""
    slot = next(s for s in (*STATE_SLOTS, CHART_SLOT) if s.key == key)
    feats, labels = gen_sea(60, rng=np.random.default_rng(93))
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=93))
        train(model, feats[:40], labels[:40])
        assert model.width != model.n_in  # so that the transpose has another shape
        right, wrong, before = slot.get(model), WRONG_SHAPES[key](model), state_hash(model)
        calls = {
            "train_batch": lambda: model.train_batch(
                StreamBatch(feats[40:], labels[40:], np.ones(20, dtype=bool), 0)),
            "generative_step": lambda: model.generative_step(feats[40]),
            "discriminative_step": lambda: model.discriminative_step(feats[40], int(labels[40])),
        }
        calls.update(state_hash=lambda: state_hash(model),
                     model_to_dict=lambda: model_to_dict(model),
                     save_checkpoint=lambda: save_checkpoint(model, tmp_path / "m.ckpt.json"))
        for name, call in calls.items():
            slot.set(model, wrong)
            with pytest.raises(ShapeError, match=f"^{key} is a .* array of shape "):
                call()
            assert slot.get(model) is wrong
            slot.set(model, right)
            assert state_hash(model) == before, (backend, name)
        assert not (tmp_path / "m.ckpt.json").exists()


def set_entry(doc: dict, key: str, value) -> None:
    """Sets the entry of a checkpoint document that key names ("a.b" nests)."""
    *parents, leaf = key.split(".")
    for name in parents:
        doc = doc[name]
    doc[leaf] = value


UNUSABLE_CHART_ENTRIES = (  # (column, value) that no update makes
    (Column.COUNT, np.nan), (Column.COUNT, np.inf), (Column.COUNT, -1.0), (Column.COUNT, 2.5),
    (Column.M2, -0.25), (Column.MIN_STD, -0.5), (Column.RESEED, 0.5),
)


def load_message(model, path, name, column, value) -> str:
    """What load_checkpoint says, after the file's name, of model's checkpoint
    with chart `name`'s entry in `column` set to value (a whole number as
    the JSON integer a checkpoint writes)."""
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    set_entry(doc[name], CHART_ENTRIES[column][0],
              int(value) if float(value).is_integer() else value)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    path.unlink()
    return str(info.value).removeprefix(f"{path}: ")


@pytest.mark.parametrize("how", ["rebound", "in place"])
def test_unusable_chart_entry_is_refused_on_both_steps(how, tmp_path):
    """A chart entry that training cannot use (state.CHART_ENTRIES: a count
    that is not a non-negative whole number, a negative m2 or min_std, a
    reseed other than 0 and 1), assigned or written in place, makes
    train_batch, generative_step and discriminative_step raise a
    NumericError with load_checkpoint's message for it, with either step,
    before any row trains: with the entry put back, the hash is the one
    before the call. state_hash and save_checkpoint raise the same error, and
    the save writes no file. Once every entry is good, the model trains."""
    feats, labels = gen_sea(60, rng=np.random.default_rng(95))
    saved = tmp_path / "m.ckpt.json"
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=95))
        train(model, feats[:40], labels[:40])
        before = state_hash(model)
        calls = (lambda: model.train_batch(StreamBatch(feats, labels, labels >= 0, 0)),
                 lambda: model.generative_step(feats[40]),
                 lambda: model.discriminative_step(feats[40], 1),
                 lambda: state_hash(model),
                 lambda: save_checkpoint(model, saved))
        for row, name in enumerate(CHARTS):
            for column, value in UNUSABLE_CHART_ENTRIES:
                message = load_message(model, tmp_path / "bad.ckpt.json", name, column, value)
                assert message.startswith(f"{name}.{CHART_ENTRIES[column][0]} is ")
                for call in calls:
                    if how == "rebound":
                        model.charts = model.charts.copy()
                    good = model.charts[row, column]
                    model.charts[row, column] = value
                    with pytest.raises(NumericError) as info:
                        call()
                    assert str(info.value) == message, (backend, name)
                    model.charts[row, column] = good
                    assert state_hash(model) == before, (backend, name)
        assert not saved.exists()
        calls[0]()


def json_text(value) -> str:
    """value as a checkpoint's JSON holds it, or its repr where JSON has none."""
    try:
        return json.dumps(value, allow_nan=False)
    except ValueError:
        return repr(value)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_refused_chart_entry_is_one_message(data):
    """Any JSON value that the kind of a chart entry refuses (CHART_ENTRIES),
    at any of the 24 chart keys of a saved checkpoint, makes load_checkpoint
    raise only a CheckpointError: "<path>: <chart>.<key> is <value as JSON>,
    expected <the kind's words>". Where the value is a number, the same value
    written into model.charts makes state_hash and training on either step
    raise a NumericError, of the same text where values() shows it as the
    checkpoint does; unless values() turns it into one the kind takes (a
    whole float count, a 0 or 1 reseed), which trains."""
    name = data.draw(st.sampled_from(CHARTS), label="chart")
    column = data.draw(st.sampled_from(list(Column)), label="column")
    key, kind = CHART_ENTRIES[column]
    value = data.draw(st.one_of(
        st.text(max_size=3), st.none(), st.booleans(), st.integers(-2 ** 53, 2 ** 53),
        st.floats(), st.sampled_from([float("nan"), -1, 2.5, 0, 1, 0.5, -0.25]),
        st.lists(st.integers(), max_size=2)).filter(lambda v: not kind.takes(v)), label="value")
    feats, labels = gen_sea(41, rng=np.random.default_rng(97))
    message = f"{name}.{key} is {json_text(value)}, expected {kind.of}"
    row = CHARTS.index(name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt.json"
        for backend in each_backend():
            model = DevdanModel(3, 2, DevdanConfig(seed=97))
            train(model, feats[:40], labels[:40])
            doc = model_to_dict(model)
            set_entry(doc[name], key, value)
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path)
            assert str(info.value) == f"{path}: {message}"
            if type(value) not in (int, float):
                continue
            model.charts[row, column] = value
            shown = SpcTracker(model.charts[row]).values()[column]
            calls = (lambda: state_hash(model), lambda: model.generative_step(feats[40]),
                     lambda: model.discriminative_step(feats[40], 1))
            for call in calls if not kind.takes(shown) else calls[1:]:
                if kind.takes(shown):
                    call()
                    continue
                with pytest.raises(NumericError) as trained:
                    call()
                if type(shown) is type(value):
                    assert str(trained.value) == message, backend


@settings(max_examples=200, deadline=None)
@given(column=st.sampled_from(list(Column)),
       value=st.one_of(st.floats(), st.integers(-3, 3).map(float), st.sampled_from([0.0, 1.0])))
def test_chart_rules_are_the_kinds_on_values(column, value):
    """The rule that training checks a chart's floats by, each column's
    kind's ok, holds exactly where the kind takes the value that
    SpcTracker.values() makes of the float."""
    row = fresh_charts(1)[0]
    row[column] = value
    _, kind = CHART_ENTRIES[column]
    assert (kind.ok is None or bool(kind.ok(value))) == kind.takes(SpcTracker(row).values()[column])


BAD_FEATURES = {  # entry point -> a non-numeric and a ragged input
    "predict": (["0.1", "a", "0.3"], [0.1, [0.2, 0.3], 0.4]),
    "predict_batch": ([[0.1, 0.2, 0.3], [0.1, "a", 0.3]], [[0.1, 0.2, 0.3], [0.1, 0.2]]),
    "generative_step": (["0.1", "a", "0.3"], [0.1, [0.2, 0.3], 0.4]),
    "discriminative_step": (["0.1", "a", "0.3"], [0.1, [0.2, 0.3], 0.4]),
    "train_batch": ([[0.1, 0.2, 0.3], [0.1, "a", 0.3]], [[0.1, 0.2, 0.3], [0.1, 0.2]]),
}


def feature_call(model, entry, feats):
    """A call of the model's entry point `entry` with features feats: one
    sample, or for predict_batch and train_batch a batch of two."""
    return {
        "predict": lambda: model.predict(feats),
        "predict_batch": lambda: model.predict_batch(feats),
        "generative_step": lambda: model.generative_step(feats),
        "discriminative_step": lambda: model.discriminative_step(feats, 0),
        "train_batch": lambda: model.train_batch(
            StreamBatch(feats, np.zeros(2, dtype=int), np.ones(2, dtype=bool), 0)),
    }[entry]


@pytest.mark.parametrize("entry", list(BAD_FEATURES))
def test_non_numeric_or_ragged_features_are_refused(entry):
    """Features that are not numbers, or rows of unequal length, raise a
    ShapeError at every entry point that takes features, on either step,
    and leave the model as it was."""
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=94))
        train(model, *gen_sea(30, rng=np.random.default_rng(94)))
        before = state_hash(model)
        for feats in BAD_FEATURES[entry]:
            with pytest.raises(ShapeError, match="features are not numbers"):
                feature_call(model, entry, feats)()
            assert state_hash(model) == before, (backend, feats)


NON_FINITE = {(0.1, np.nan, 0.3): "nan", (np.inf, 0.2, 0.3): "inf", (0.1, 0.2, -np.inf): "-inf"}


@pytest.mark.parametrize("entry", list(BAD_FEATURES))
def test_non_finite_features_are_refused(entry):
    """A NaN or infinite feature raises a NumericError that names it at
    every entry point that takes features, on either step, and in a batch
    names its sample too; the model is left as it was."""
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=96))
        train(model, *gen_sea(30, rng=np.random.default_rng(96)))
        before = state_hash(model)
        for sample, value in NON_FINITE.items():
            batch = entry in ("predict_batch", "train_batch")
            feats = [(0.5, 0.5, 0.5), sample] if batch else sample
            message = f"^{'sample 1: ' if batch else ''}non-finite feature {value}$"
            with pytest.raises(NumericError, match=message):
                feature_call(model, entry, feats)()
            assert state_hash(model) == before, (backend, sample)


@pytest.mark.parametrize("label", [1.7, float("nan"), "1", None])
def test_non_integer_labels_are_refused_on_both_steps(label):
    """discriminative_step and train_batch refuse a label that is not an
    integer with the same ShapeError on either step, naming the label and,
    in a batch, the sample. Neither trains anything first."""
    feats, labels = gen_sea(40, rng=np.random.default_rng(87))
    batch_labels = labels.astype(float if isinstance(label, float) else object)
    batch_labels[27] = label
    ends = {}
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=87))
        train(model, feats[:20], labels[:20])
        before = state_hash(model)
        with pytest.raises(ShapeError) as single:
            model.discriminative_step(feats[20], label)
        with pytest.raises(ShapeError) as batch:
            model.train_batch(StreamBatch(feats, batch_labels, np.ones(40, dtype=bool), 0))
        assert state_hash(model) == before
        ends[backend] = (str(single.value), str(batch.value))
    assert ends["numpy"] == (f"label {label} is not an integer",
                             f"sample 27: label {label} is not an integer")
    assert len(set(ends.values())) == 1, ends


def test_integer_valued_labels_train_alike():
    """Labels given as int, np.int32 or an integer-valued float, to single
    steps and in a batch's label array, train the same on both steps."""
    feats, labels = gen_sea(60, rng=np.random.default_rng(88))
    ends = set()
    for backend in each_backend():
        for kind in (int, np.int32, float):
            model = DevdanModel(3, 2, DevdanConfig(seed=88))
            for x, label in zip(feats[:30], labels[:30]):
                model.generative_step(x)
                model.discriminative_step(x, kind(label))
            model.train_batch(StreamBatch(feats[30:], labels[30:].astype(kind),
                                          np.ones(30, dtype=bool), 0))
            ends.add(state_hash(model))
    assert len(ends) == 1, ends


def test_float_label_arrays_take_the_compiled_loop(compiled_step):
    """Integer-valued float labels, NaN or beyond int64 where unrevealed,
    train in the compiled loop (no per-row step runs) and end where int64
    labels end. A revealed label beyond int64 is refused as out of range."""
    feats, labels = gen_sea(2000, rng=np.random.default_rng(90))
    revealed = np.arange(500) % 2 == 0
    no_step = mock.Mock(side_effect=AssertionError("a per-row step ran"))
    ends = []
    for as_float in (False, True):
        model = DevdanModel(3, 2, DevdanConfig(seed=90))
        reports = []
        for k in range(4):
            lab = labels[500 * k:500 * (k + 1)]
            if as_float:
                lab = np.where(revealed, lab, np.nan)
                lab[1] = 1e20
            with mock.patch.object(model, "discriminative_step", no_step):
                reports.append(model.train_batch(
                    StreamBatch(feats[500 * k:500 * (k + 1)], lab, revealed, k)))
        ends.append((state_hash(model), reports))
    assert ends[0] == ends[1]
    lab = labels[:500].astype(np.float64)
    lab[10] = 1e20
    with pytest.raises(ShapeError, match=r"^label 100000000000000000000 out of range \[0, 2\)$"):
        model.train_batch(StreamBatch(feats[:500], lab, revealed, 4))


def test_every_numpy_bit_generator_resumes_from_its_checkpoint(tmp_path):
    """A model drawing from any of numpy's bit generators trains, saves and
    loads to a model over the same kind of bit generator and the same hash,
    and the two train on to one hash, the same with either step."""
    feats, labels = gen_sea(300, rng=np.random.default_rng(89))
    labeled = np.arange(150) % 2 == 0
    for name, bits in BIT_GENERATORS.items():
        ends = set()
        for backend in each_backend():
            model = DevdanModel(3, 2, DevdanConfig(), rng=np.random.Generator(bits(9)))
            train(model, feats[:150], labels[:150])
            path = tmp_path / f"{name}-{backend}.ckpt.json"
            save_checkpoint(model, path)
            twin = load_checkpoint(path)
            assert type(twin.rng.bit_generator) is bits
            assert state_hash(twin) == state_hash(model), (name, backend)
            for each in (model, twin):
                each.train_batch(StreamBatch(feats[150:], labels[150:], labeled, 0))
            ends.update((state_hash(model), state_hash(twin)))
        assert len(ends) == 1, (name, ends)


def test_generator_hash_ignores_print_options():
    """state_hash reads the generator's state as JSON values: numpy's print
    options neither change the hash of an MT19937 model nor hide a
    difference deep in its key."""
    model = DevdanModel(3, 2, rng=np.random.Generator(np.random.MT19937(5)))
    twin = copy.deepcopy(model)
    state = twin.rng.bit_generator.state
    state["state"]["key"][300] ^= 1
    twin.rng.bit_generator.state = state
    before = state_hash(model)
    with np.printoptions(threshold=10):
        assert state_hash(model) == before
        assert state_hash(twin) != before


class WrappedGenerator(np.random.Generator):
    """A Generator subclass, which may override the draws that the compiled
    loop takes from its bit generator."""


class WrappedBits(np.random.PCG64):
    """A bit generator that no checkpoint can rebuild."""


REFUSED_GENERATORS = {  # kind -> (a generator of it, what the refusal says)
    "RandomState": (lambda: np.random.RandomState(9),
                    "type(rng) is <class 'numpy.random.mtrand.RandomState'>, "
                    "expected numpy.random.Generator"),
    "subclass": (lambda: WrappedGenerator(np.random.PCG64(9)),
                 f"type(rng) is {WrappedGenerator!r}, expected numpy.random.Generator"),
    "bit generator": (lambda: np.random.Generator(WrappedBits(9)),
                      f"type(rng.bit_generator) is {WrappedBits!r}, "
                      f"expected one of {', '.join(BIT_GENERATORS)}"),
}


@pytest.mark.parametrize("kind", list(REFUSED_GENERATORS))
def test_generator_that_is_not_a_numpy_generator_is_refused(kind, tmp_path):
    """A RandomState, a Generator subclass or a Generator over a bit generator
    that is not numpy's is refused with a ConfigError when a model is built.
    Rebound onto a trained model, train_batch, generative_step,
    discriminative_step, state_hash and save_checkpoint refuse it, with
    either step, before any row trains: with the generator put back, the
    hash is the one before the call, and the save wrote no file."""
    make, message = REFUSED_GENERATORS[kind]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        DevdanModel(3, 2, rng=make())
    feats, labels = gen_sea(60, rng=np.random.default_rng(97))
    saved = tmp_path / "m.ckpt.json"
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=97))
        train(model, feats[:40], labels[:40])
        good, before = model.rng, state_hash(model)
        calls = (lambda: model.train_batch(
                     StreamBatch(feats[40:], labels[40:], np.ones(20, dtype=bool), 0)),
                 lambda: model.generative_step(feats[40]),
                 lambda: model.discriminative_step(feats[40], int(labels[40])),
                 lambda: state_hash(model),
                 lambda: save_checkpoint(model, saved))
        for call in calls:
            model.rng = make()
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                call()
            model.rng = good
            assert state_hash(model) == before, backend
        assert not saved.exists()
        calls[0]()


REFUSED_SETTINGS = (  # (configuration class, field, a value that it refuses, the refusal)
    (DevdanConfig, "lr_generative", float("nan"),
     "lr_generative is nan, expected a finite non-negative number"),
    (DevdanConfig, "lr_discriminative", -1.0,
     "lr_discriminative is -1.0, expected a finite non-negative number"),
    (DevdanConfig, "lr_generative", True, "lr_generative is true, expected a number"),
    (DevdanConfig, "momentum", 2.0, "momentum is 2.0, expected a number in [0, 1)"),
    (DevdanConfig, "momentum", "0.5", 'momentum is "0.5", expected a number'),
    (DevdanConfig, "mask_fraction", 1.5, "mask_fraction is 1.5, expected a number in [0, 1]"),
    (DevdanConfig, "mask_fraction", None, "mask_fraction is null, expected a number"),
    (DevdanConfig, "enable_grow", "no", 'enable_grow is "no", expected true or false'),
    (DevdanConfig, "seed", -1, "seed is -1, expected a non-negative integer"),
    (DevdanConfig, "seed", True, "seed is true, expected an integer"),
    (DatasetSpec, "source", "parquet", 'source is "parquet", expected one of sea, hyperplane, '
                                       "csv, idx"),
    (DatasetSpec, "total_samples", 10, "total_samples is 10, expected at least batch_size (1000)"),
    (DatasetSpec, "total_samples", "5", 'total_samples is "5", expected an integer'),
    (DatasetSpec, "batch_size", 500.5, "batch_size is 500.5, expected an integer"),
    (DatasetSpec, "label_fraction", 0.0, "label_fraction is 0.0, expected a number in (0, 1]"),
    (DatasetSpec, "label_fraction", True, "label_fraction is true, expected a number"),
    (DatasetSpec, "selection_mode", "all", 'selection_mode is "all", expected one of random, '
                                           "confidence"),
    (DatasetSpec, "delta", 0.5, "delta is 0.5, expected a finite number above 0.5"),
    (DatasetSpec, "delta", "0.7", 'delta is "0.7", expected a number'),
    (DatasetSpec, "csv_path", None, "csv source needs csv_path"),
    (DatasetSpec, "csv_path", 5, "csv_path is 5, expected a string"),
    (DatasetSpec, "label_column", 1.5, "label_column is 1.5, expected an integer"),
    *((DatasetSpec, "sea_schedule", value, f"sea_schedule is {shown}, expected a list of "
       "[start, threshold] pairs, the starts integers rising from 0 and each threshold a finite "
       "number")
      for value, shown in (([[]], "[[]]"), ([(0,)], "[[0]]"), ("x", '"x"'),
                           ([[5, 4.0]], "[[5, 4.0]]"), ([[0, 4.0], [0, 7.0]], "[[0, 4.0], [0, 7.0]]"),
                           ([[0, "4"]], '[[0, "4"]]'), ([[0.5, 4.0]], "[[0.5, 4.0]]"),
                           ([[0, float("nan")]], "[[0, nan]]"), ([[0, float("inf")]], "[[0, inf]]"))),
    *((DatasetSpec, "permutations", value, f"permutations is {shown}, expected a list of "
       "[start, [index, ...]] pairs, the starts rising from 0 and each index list a permutation")
      for value, shown in (([[0]], "[[0]]"), ([], "[]"), ([[5, [0, 1, 2]]], "[[5, [0, 1, 2]]]"),
                           ([[0, [0, 0, 1]]], "[[0, [0, 0, 1]]]"),
                           ([[0, [0, 1]], [0, [1, 0]]], "[[0, [0, 1]], [0, [1, 0]]]"))),
)


def test_configurations_are_checked_values():
    """No field of a DevdanConfig or DatasetSpec can be assigned; a changed
    setting is dataclasses.replace, which refuses each value with the
    ConfigError that construction raises."""
    for cls in (DevdanConfig, DatasetSpec):
        made = cls()
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, field.name, getattr(made, field.name))
    base = {DevdanConfig: DevdanConfig(), DatasetSpec: DatasetSpec(source="csv", csv_path="a")}
    for cls, field, value, message in REFUSED_SETTINGS:
        with pytest.raises(ConfigError) as built:
            cls(**{**dataclasses.asdict(base[cls]), field: value})
        with pytest.raises(ConfigError) as replaced:
            dataclasses.replace(base[cls], **{field: value})
        assert str(built.value) == str(replaced.value) == message, (field, value)


def test_every_setting_declares_its_kind():
    """Every field of DevdanConfig and DatasetSpec declares its state.Kind."""
    fields = [*dataclasses.fields(DevdanConfig), *dataclasses.fields(DatasetSpec)]
    assert [field.name for field in fields if not isinstance(field.metadata.get("kind"), Kind)] == []


_NON_PAIRS = st.lists(st.one_of(st.integers(), st.none(), st.lists(st.integers(), max_size=1),
                                st.builds(object)), min_size=1)
WRONG_TYPES = {  # a field's annotation -> values of types that a field so annotated never takes
    "float": (st.text(), st.none(), st.booleans(), _NON_PAIRS),
    "int": (st.text(), st.none(), st.booleans(), st.floats(), _NON_PAIRS),
    "bool": (st.text(), st.none(), st.integers(), st.floats(), _NON_PAIRS),
    "str": (st.none(), st.booleans(), st.integers(), st.floats(), _NON_PAIRS),
    "str | None": (st.booleans(), st.integers(), st.floats(), _NON_PAIRS),
    "tuple": (st.text(), st.none(), st.booleans(), st.integers(), st.floats(), _NON_PAIRS),
    "tuple | None": (st.text(), st.booleans(), st.integers(), st.floats(), _NON_PAIRS),
}


def _made(cls, name):
    return lambda value: cls(**{name: value})


def _batched(name):
    return lambda value: batchify(np.zeros((4, 3)), np.zeros(4), **{"batch_size": 2, name: value})


SPEC_TYPES = {field.name: field.type for field in dataclasses.fields(DatasetSpec)}
SETTING_TARGETS = {  # where -> (setting, its annotation, a call that passes it a value)
    **{f"{cls.__name__}.{field.name}": (field.name, field.type, _made(cls, field.name))
       for cls in (DevdanConfig, DatasetSpec) for field in dataclasses.fields(cls)},
    **{f"batchify.{name}": (name, SPEC_TYPES[name], _batched(name))
       for name in ("batch_size", "label_fraction", "selection_mode")},
}


@pytest.mark.parametrize("target", list(SETTING_TARGETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_value_of_a_wrong_type_is_a_config_error(target, data):
    """A value of a type a setting never takes, given to DevdanConfig,
    DatasetSpec or batchify, raises a ConfigError naming the setting when it
    is given, also where JSON cannot show the value (an object, nan)."""
    name, annotation, call = SETTING_TARGETS[target]
    value = data.draw(st.one_of(st.builds(object), *WRONG_TYPES[annotation]))
    with pytest.raises(ConfigError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} is ") and ", expected " in str(info.value)


@pytest.mark.parametrize("charts, rows", [("standard", 3000), ("forged", 400)])
def test_edit_dense_batches_match_on_both_steps(charts, rows):
    """SEA with the concept flipping every 200 rows, with about half the
    labels: many grows and prunes inside each batch, and the same reports,
    losses to the bit, and hash on both steps. In batches of 500, or of 20
    with the charts forged before each batch: the minima of every bias chart
    (even batches) or variance chart (odd ones) set to -1 and 0, so that
    their next test fires, a grow or a prune in each phase. The compiled
    step runs with the Python chart code made to raise: the loop decides
    every chart itself and hands back only the edit."""
    schedule = tuple((k * 200, 4.0 if k % 2 == 0 else 7.0) for k in range(15))
    feats, labels = gen_sea(rows, schedule, np.random.default_rng(85))
    labeled = np.random.default_rng(86).uniform(size=rows) < 0.5
    size = 500 if charts == "standard" else 20
    no_chart = mock.Mock(side_effect=AssertionError("Python chart code ran"))
    ends = {}
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=85))
        reports = []
        with contextlib.ExitStack() as stack:
            if backend == "compiled":
                stack.enter_context(mock.patch.object(SpcTracker, "update", no_chart))
                stack.enter_context(mock.patch.multiple(monitors, should_grow=no_chart,
                                                        should_prune=no_chart))
            for k in range(0, rows, size):
                if charts == "forged":  # columns min_mean, min_std and reseed
                    model.charts[k // size % 2::2, Column.MIN_MEAN:] = (-1.0, 0.0, 0.0)
                reports.append(model.train_batch(StreamBatch(
                    feats[k:k + size], labels[k:k + size], labeled[k:k + size], k // size)))
        ends[backend] = (repr(reports), state_hash(model))
    edits = sum(r.grow_events + r.prune_events for r in reports)
    # forged: at least one edit in each phase of each batch
    assert edits >= (15 if charts == "standard" else 2 * rows // size), edits
    assert len(set(ends.values())) == 1, ends


@pytest.mark.parametrize("momentum", [0.95, 0.0])
@pytest.mark.parametrize("n, m", [(3, 2), (8, 2), (20, 10)])
def test_steps_match_plain_reference(n, m, momentum):
    """300 rows of both phases, with the concept flipped half way and grows
    and prunes forced between steps: the compiled step makes the same edits,
    reports the same losses to the bit and ends on the same state hash as the
    numpy step, the plain reference. With m = 10 the softmax sums take
    numpy's pairwise path."""
    ends = {backend: reference_run(n, m, momentum) for backend in each_backend()}
    assert len(set(ends.values())) == 1, ends


def reference_run(n, m, momentum):
    model = DevdanModel(n, m, DevdanConfig(seed=n + m, momentum=momentum))
    rng = np.random.default_rng(n * m)
    concepts = rng.normal(size=(2, n, m))
    events = np.zeros(2, dtype=int)
    reports = []
    for t in range(300):
        x = rng.uniform(size=n)
        label = int(np.argmax(x @ concepts[t // 150]))
        for rep in (model.generative_step(x), model.discriminative_step(x, label)):
            reports.append(rep)
            events += (rep.grew, rep.pruned)
        if t % 50 == 20:
            model._grow_discriminative()
        elif t % 50 == 45 and model.width >= 2:
            model._prune(t % model.width)
    assert events.all()  # the charts also grew and pruned inside the steps
    return repr(reports), state_hash(model)
