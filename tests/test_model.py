"""Whole-model checks: forward oracle, discriminative gradient oracle via
central differences, structural bookkeeping, phase ablations, determinism,
and checkpoint round-trips."""
import copy
import dataclasses
import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devdan import dae
from devdan.checkpoint import load_checkpoint, save_checkpoint, state_hash
from devdan.dae import DaeLayer
from devdan.errors import CheckpointError, ConfigError, NumericError, ShapeError, StructureError
from devdan.model import STATE_SLOTS, DevdanConfig, DevdanModel
from devdan.monitors import NsSnapshot
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
        # with a single class the softmax output equals the target exactly,
        # so the fused residual and every gradient vanish
        model = DevdanModel(3, 1, frozen_config(seed=13))
        w0, theta0 = model.layer.w.copy(), model.head.theta.copy()
        rep = model.discriminative_step(np.array([0.2, 0.5, 0.8]), 0)
        assert rep.loss == 0.0
        np.testing.assert_array_equal(model.head.eta, np.zeros(1))
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


PROPERTY_OPS = ("generative", "discriminative", "grow_generative", "grow_discriminative", "prune")


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(
        st.tuples(
            st.sampled_from(PROPERTY_OPS),
            st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
            st.integers(0, 1),
            st.integers(0, 6),
        ),
        max_size=40,
    ),
)
def test_random_step_sequences_keep_state_in_step(seed, ops):
    """Any mix of steps and forced edits leaves every per-node array of the
    state table at the model's width, and a checkpoint keeps the hash."""
    model = DevdanModel(3, 2, DevdanConfig(seed=seed))
    for kind, x, label, index in ops:
        x = np.array(x)
        if kind == "generative":
            model.generative_step(x)
        elif kind == "discriminative":
            model.discriminative_step(x, label)
        elif kind == "grow_generative":
            model._grow_generative(x - 0.5)
        elif kind == "grow_discriminative":
            model._grow_discriminative()
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt.json"
        save_checkpoint(model, path)
        assert state_hash(load_checkpoint(path)) == state_hash(model)


def train(model, feats, labels):
    for x, label in zip(feats, labels):
        model.generative_step(x)
        model.discriminative_step(x, int(label))


def test_copies_train_without_touching_the_original(tmp_path):
    """Steps update the parameters, momentum slots and node statistics in
    place: a deep copy, a pickle round trip and a checkpoint copy must each
    own their arrays, and train alike."""
    rng = np.random.default_rng(71)
    model = DevdanModel(3, 2, DevdanConfig(seed=71))
    feats, labels = gen_sea(400, rng=rng)
    train(model, feats[:200], labels[:200])
    before = state_hash(model)
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(model, path)
    twins = (copy.deepcopy(model), pickle.loads(pickle.dumps(model)), load_checkpoint(path))
    for twin in twins:
        train(twin, feats[200:], labels[200:])
    assert state_hash(model) == before
    assert len({state_hash(twin) for twin in twins}) == 1
    assert state_hash(twins[0]) != before


@pytest.mark.parametrize("rebound", ["layer.w", "head.theta", "layer"])
def test_rebound_arrays_train_like_a_model_built_with_them(tmp_path, rebound):
    """Assigning a parameter array, or the whole layer, of a model that has
    trained hands the new values to the next step."""
    rng = np.random.default_rng(73)
    feats, labels = gen_sea(300, rng=rng)
    model = DevdanModel(3, 2, DevdanConfig(seed=73))
    train(model, feats[:100], labels[:100])
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    if rebound == "layer.w":
        new = {"w": rng.normal(size=model.layer.w.shape)}
        model.layer.w = new["w"].copy()
    elif rebound == "head.theta":
        new = {"theta": rng.normal(size=model.head.theta.shape)}
        model.head.theta = new["theta"].copy()
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


@pytest.mark.parametrize("block, index", [("w", 0), ("b", 1), ("c", 2)])
def test_nonfinite_gradient_through_generative_step(monkeypatch, block, index):
    """The step's one-vector update still names the bad block and leaves the
    layer untouched."""
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


# ---------------------------------------------------------------------------
# Reference steps: both phases written plainly, with separate nonlinearity
# calls, np.outer, np.mean and one update per parameter block. The model's
# steps must reach the same state bit for bit.


def plain_sigmoid(v):
    return np.exp(-np.logaddexp(0.0, -v))


def plain_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def plain_stats_update(stats, a):
    stats.count = stats.count + 1
    delta = a - stats.mean
    stats.mean = stats.mean + delta / stats.count
    stats.m2 = stats.m2 + delta * (a - stats.mean)


def plain_snapshot(stats, weight, bias, squash, target):
    sd = np.zeros_like(stats.mean)
    np.divide(stats.m2, stats.count, out=sd, where=stats.count > 1)
    sd = np.sqrt(sd)
    ey = plain_sigmoid(stats.mean / np.sqrt(1.0 + math.pi / 8.0 * sd * sd))
    ez = squash(ey @ weight + bias)
    ez2 = squash((ey * ey) @ weight + bias)
    bias2 = float(np.mean((target - ez) ** 2))
    variance = float(np.mean(ez2 - ez * ez))
    return NsSnapshot(ey, ez, ez2, bias2, variance, bias2 + variance)


def plain_generative_step(model, x):
    layer = model.layer
    x_tilde = dae.mask_input(x, model.mask)
    a = x_tilde @ layer.w + layer.b
    y = plain_sigmoid(a)
    z = plain_sigmoid(y @ layer.w.T + layer.c)
    plain_stats_update(model.gen_stats, a)
    snap = plain_snapshot(model.gen_stats, layer.w.T, layer.c, plain_sigmoid, x)
    edits = model._evolve(model.gen_bias, model.gen_var, snap,
                          lambda: model._grow_generative(x - z))
    if any(edits):
        y = plain_sigmoid(x_tilde @ layer.w + layer.b)
        z = plain_sigmoid(y @ layer.w.T + layer.c)
    du = (z - x) * z * (1.0 - z)
    da = (du @ layer.w) * y * (1.0 - y)
    grads = {"w": np.outer(du, y) + np.outer(x_tilde, da), "b": da, "c": du}
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter block '{name}'")
    lr = model.config.lr_generative
    for name, g in grads.items():
        setattr(layer, name, getattr(layer, name) - lr * g)
    return edits


def plain_discriminative_step(model, x, label):
    layer, head = model.layer, model.head
    onehot = np.eye(model.n_classes)[label]
    a = x @ layer.w + layer.b
    h = plain_sigmoid(a)
    probs = plain_softmax(h @ head.theta + head.eta)
    plain_stats_update(model.disc_stats, a)
    snap = plain_snapshot(model.disc_stats, head.theta, head.eta, plain_softmax, onehot)
    edits = model._evolve(model.disc_bias, model.disc_var, snap, model._grow_discriminative)
    if any(edits):
        h = plain_sigmoid(x @ layer.w + layer.b)
        probs = plain_softmax(h @ head.theta + head.eta)
    dlogits = probs - onehot
    da = (head.theta @ dlogits) * h * (1.0 - h)
    mom, lr = model.config.momentum, model.config.lr_discriminative
    head.vel_theta = mom * head.vel_theta + np.outer(h, dlogits)
    head.vel_eta = mom * head.vel_eta + dlogits
    model.vel_w = mom * model.vel_w + np.outer(x, da)
    model.vel_b = mom * model.vel_b + da
    head.theta = head.theta - lr * head.vel_theta
    head.eta = head.eta - lr * head.vel_eta
    layer.w = layer.w - lr * model.vel_w
    layer.b = layer.b - lr * model.vel_b
    return edits


@pytest.mark.parametrize("momentum", [0.95, 0.0])
@pytest.mark.parametrize("n, m", [(3, 2), (8, 2), (20, 10)])
def test_steps_match_plain_reference(n, m, momentum):
    """300 rows of both phases, with the concept flipped half way and grows
    and prunes forced between steps, end on the reference's state hash.
    With m = 10 the softmax sums take numpy's pairwise path."""
    cfg = DevdanConfig(seed=n + m, momentum=momentum)
    model = DevdanModel(n, m, cfg)
    ref = DevdanModel(n, m, dataclasses.replace(cfg))
    rng = np.random.default_rng(n * m)
    concepts = rng.normal(size=(2, n, m))
    events = np.zeros(2, dtype=int)
    for t in range(300):
        x = rng.uniform(size=n)
        label = int(np.argmax(x @ concepts[t // 150]))
        rep = model.generative_step(x)
        assert (rep.grew, rep.pruned) == plain_generative_step(ref, x)
        events += (rep.grew, rep.pruned)
        rep = model.discriminative_step(x, label)
        assert (rep.grew, rep.pruned) == plain_discriminative_step(ref, x, label)
        events += (rep.grew, rep.pruned)
        if t % 50 == 20:
            for mdl in (model, ref):
                mdl._grow_discriminative()
        elif t % 50 == 45 and model.width >= 2:
            index = t % model.width
            for mdl in (model, ref):
                mdl._prune(index)
    assert events.all()  # the charts also grew and pruned inside the steps
    assert state_hash(model) == state_hash(ref)
