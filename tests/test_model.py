"""Whole-model checks: forward oracle, discriminative gradient oracle via
central differences, structural bookkeeping, phase ablations, determinism,
and checkpoint round-trips."""
import copy
import json
import math
import pickle
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import each_backend
from hypothesis import given, settings
from hypothesis import strategies as st

from devdan import dae, kernel
from devdan.checkpoint import load_checkpoint, save_checkpoint, state_hash
from devdan.dae import DaeLayer
from devdan.errors import CheckpointError, ConfigError, NumericError, ShapeError, StructureError
from devdan.model import CHARTS, STATE_SLOTS, DevdanConfig, DevdanModel
from devdan.monitors import SpcTracker
from devdan.numerics import sigmoid, softmax_row
from devdan.streams import StreamBatch, gen_sea


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
            DevdanConfig(momentum=1.0).validate()

    def test_bad_mask_fraction(self):
        with pytest.raises(ConfigError):
            DevdanConfig(mask_fraction=1.5).validate()

    def test_bad_reset_mode(self):
        with pytest.raises(ConfigError):
            DevdanConfig(reset_mode="sometimes").validate()

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
        ("lr_generative", float("nan"), "learning rates"),
        ("lr_discriminative", float("inf"), "learning rates"),
        ("lr_generative", -0.1, "learning rates"),
        ("seed", -1, "seed"), ("seed", "a", "seed"), ("seed", 1.5, "seed"),
    ])
    def test_bad_config_value(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            DevdanModel(3, 2, DevdanConfig(**{field: value}))

    @pytest.mark.parametrize("n_in, n_classes", [(0, 2), (3, 1), (3, 0), (-1, 2)])
    def test_model_needs_an_input_and_two_classes(self, n_in, n_classes):
        with pytest.raises(ConfigError, match="at least 1 input and 2 classes"):
            DevdanModel(n_in, n_classes)


class TestCheckpoint:
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
            with pytest.raises(CheckpointError, match=f"{key} has shape"):
                load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "v.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


PROPERTY_OPS = ("generative", "discriminative", "grow_generative", "grow_discriminative", "prune",
                "batch", "checkpoint", "copy", "malformed")


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(
        st.tuples(
            st.sampled_from(PROPERTY_OPS),
            st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
            st.integers(0, 1),
            st.integers(0, 6),
            st.lists(st.booleans(), max_size=12),
        ),
        max_size=40,
    ),
)
def test_random_step_sequences_keep_state_in_step(seed, ops):
    """Any mix of single steps, batches of any size and label mask, forced
    edits, checkpoint reloads, copies and pickles (training goes on with the
    copy) and malformed batches (refused without a trace) leaves every
    per-node array of the state table at the model's width, and both training
    steps on the same hash after every op."""
    hashes = {backend: run_step_sequence(seed, ops) for backend in each_backend()}
    assert len({tuple(h) for h in hashes.values()}) == 1, hashes


def malformed_batch(rng, size, kind):
    """A batch of size + 1 rows that train_batch refuses: short labels, a
    long mask, narrow features, a label out of range or one not an integer."""
    feats, labels = rng.uniform(size=(size + 1, 3)), rng.integers(2, size=size + 1)
    mask = np.ones(size + 1, dtype=bool)
    if kind == 0:
        labels = labels[:-1]
    elif kind == 1:
        mask = np.ones(size + 2, dtype=bool)
    elif kind == 2:
        feats = feats[:, :2]
    elif kind == 3:
        labels[-1] = 2
    else:
        labels = labels.astype(float)
        labels[-1] = 0.5
    return StreamBatch(feats, labels, mask, 0)


def run_step_sequence(seed, ops) -> list:
    """The state hash after each op."""
    model = DevdanModel(3, 2, DevdanConfig(seed=seed))
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt.json"
        for i, (kind, x, label, index, labeled) in enumerate(ops):
            x = np.array(x)
            rng = np.random.default_rng([seed, i])  # rows and labels of the op's batch
            if kind == "batch":
                size = len(labeled)
                model.train_batch(StreamBatch(rng.uniform(size=(size, 3)),
                                              rng.integers(2, size=size),
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
                    model.train_batch(malformed_batch(rng, len(labeled), index % 5))
                assert state_hash(model) == before
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


def test_pickle_and_copy_leave_out_the_flat_vectors():
    """The compiled step's next call rebuilds the flat vectors and its
    context of raw pointers, so a pickle or deep copy of a trained model
    carries neither; the original keeps its own. The numpy step never
    builds them."""
    feats, labels = gen_sea(200, rng=np.random.default_rng(72))
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=72))
        train(model, feats, labels)
        assert (model._flat_state is not None) == (backend == "compiled")
        data = pickle.dumps(model)
        assert b"FlatState" not in data and b"StepContext" not in data
        assert copy.deepcopy(model)._flat_state is None


@pytest.mark.parametrize("rebound", ["layer.w", "head.theta", "layer", "gen_stats.mean", "charts"])
def test_rebound_arrays_train_like_a_model_built_with_them(tmp_path, rebound):
    """Assigning a parameter, node-statistics or chart array, or the whole
    layer, of a model that has trained hands the new values to the next step,
    with either step."""
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
    elif rebound == "head.theta":
        new = {"theta": rng.normal(size=model.head.theta.shape)}
        model.head.theta = new["theta"].copy()
    elif rebound == "gen_stats.mean":
        new = {"mean": rng.normal(size=model.width)}
        model.gen_stats.mean = new["mean"].copy()
        doc["gen_stats"]["mean"] = new.pop("mean").tolist()
    elif rebound == "charts":
        # each chart's moments and minima moved, its count kept, and a re-seed
        # armed, so that no chart fires (and rebuilds the flat state) at once
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
    alike: the state after the raise, the charts synced back included, has
    the same hash. A label out of range there is refused with a ShapeError
    before any row trains."""
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
        if case == "label":
            assert state_hash(model) == before
        ends[backend] = (type(err.value), str(err.value), state_hash(model))
    expected = {"generative": "sample 17: non-finite generative loss inf",
                "discriminative": "sample 17: non-finite discriminative loss nan",
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


class WrappedGenerator(np.random.Generator):
    """A Generator subclass, whose bit generator the compiled loop does not
    draw from."""


def test_generator_subclass_takes_the_numpy_step(compiled_step):
    """With the compiled library loaded, a model whose generator is not a
    numpy Generator trains on the numpy step, single steps and a half-labeled
    batch alike, without building the flat vectors, and ends where a model
    on the same plain generator ends."""
    feats, labels = gen_sea(200, rng=np.random.default_rng(89))
    labeled = np.arange(100) % 2 == 0
    models = []
    for rng in (WrappedGenerator(np.random.PCG64(9)), np.random.default_rng(9)):
        model = DevdanModel(3, 2, DevdanConfig(), rng=rng)
        train(model, feats[:100], labels[:100])
        model.train_batch(StreamBatch(feats[100:], labels[100:], labeled, 0))
        models.append(model)
    wrapped, plain = models
    assert wrapped._flat_state is None and plain._flat_state is not None
    assert state_hash(wrapped) == state_hash(plain)


@pytest.mark.parametrize("reset_mode, rows", [("standard", 3000), ("reset_all", 400)])
def test_edit_dense_batches_match_on_both_steps(reset_mode, rows):
    """SEA with the concept flipping every 200 rows, in batches of 100 or 500
    with about half the labels: many grows and prunes inside each batch (with
    reset_all, a grow at nearly every row), and the same reports, losses to
    the bit, and hash on both steps."""
    schedule = tuple((k * 200, 4.0 if k % 2 == 0 else 7.0) for k in range(15))
    feats, labels = gen_sea(rows, schedule, np.random.default_rng(85))
    labeled = np.random.default_rng(86).uniform(size=rows) < 0.5
    size = min(500, rows // 4)
    ends = {}
    for backend in each_backend():
        model = DevdanModel(3, 2, DevdanConfig(seed=85, reset_mode=reset_mode))
        reports = [model.train_batch(StreamBatch(feats[k:k + size], labels[k:k + size],
                                                 labeled[k:k + size], k // size))
                   for k in range(0, rows, size)]
        ends[backend] = (repr(reports), state_hash(model))
    assert sum(r.grow_events + r.prune_events for r in reports) >= 15
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
