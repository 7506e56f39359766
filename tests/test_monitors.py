"""Monitor checks: probit-approximated expectations against Monte Carlo,
a chart's running moment against two-pass statistics, control-chart
semantics traced by hand, and the bias/variance snapshot against an
independently coded evaluation."""
import math

import numpy as np
import pytest

from devdan.dae import DaeLayer, MaskSpec, mask_input
from devdan.errors import MonitorOrderError, StructureError
from devdan.model import DevdanConfig, DevdanModel
from devdan.monitors import (
    NodeStats,
    NsSnapshot,
    SpcTracker,
    expected_activation,
    kappa,
    ns_snapshot_discriminative,
    ns_snapshot_generative,
    should_grow,
    should_prune,
    weakest_node,
)
from devdan.numerics import sigmoid, softmax_row


def mc_expected_sigmoid(mu, sigma, n=1_000_000, seed=0):
    draws = np.random.default_rng(seed).normal(mu, sigma, size=n)
    return float(sigmoid(draws).mean())


class TestExpectedActivation:
    def test_zero_mean_is_half(self):
        for sigma in (0.0, 0.5, 3.0):
            assert expected_activation(0.0, sigma) == 0.5

    def test_zero_sigma_is_plain_sigmoid(self):
        for mu in (-3.0, -0.2, 1.7):
            assert expected_activation(mu, 0.0) == sigmoid(mu)

    def test_unit_gaussian_against_monte_carlo(self):
        approx = expected_activation(1.0, 1.0)
        closed_form = 1.0 / (1.0 + math.exp(-1.0 / math.sqrt(1.0 + math.pi / 8.0)))
        assert abs(approx - closed_form) < 1e-15  # ~0.7000
        assert abs(approx - mc_expected_sigmoid(1.0, 1.0)) < 0.02

    def test_monotone_in_mu(self):
        mus = np.linspace(-4, 4, 41)
        vals = expected_activation(mus, np.full_like(mus, 0.8))
        assert np.all(np.diff(vals) > 0)

    def test_contracts_toward_half_as_sigma_grows(self):
        for mu in (-1.5, 0.7, 2.0):
            gaps = [abs(expected_activation(mu, s) - 0.5) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
            assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestNodeStats:
    def test_update_and_stds(self):
        stats = NodeStats(2)
        for a in ([1.0, 5.0], [3.0, 5.0]):
            stats.update(np.array(a))
        np.testing.assert_allclose(stats.mean, [2.0, 5.0])
        np.testing.assert_allclose(stats.stds(), [1.0, 0.0])

    # node statistics are grown and pruned by the model, with every other
    # per-node array

    def test_grown_node_starts_empty_and_reads_half(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=0))
        model.gen_stats.update(np.array([2.0]))
        model._grow_discriminative()
        assert model.gen_stats.count.tolist() == [1, 0]
        assert model.disc_stats.count.tolist() == [0, 0]
        assert model.gen_stats.expected_activations()[1] == 0.5

    def test_remove_keeps_order(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=0))
        model._grow_discriminative()
        model._grow_discriminative()
        model.gen_stats.update(np.array([1.0, 2.0, 3.0]))
        model._prune(1)
        np.testing.assert_allclose(model.gen_stats.mean, [1.0, 3.0])
        assert model.gen_stats.count.tolist() == [1, 1]


class TestKappaChi:
    def test_extremes(self):
        assert kappa(0.0) == 2.0
        assert kappa(50.0) == pytest.approx(0.7, abs=1e-12)

    def test_unit_crossing(self):
        # 1.3 exp(-x) = 0.3 at x = ln(13/3)
        assert kappa(math.log(13.0 / 3.0)) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        grid = np.linspace(0, 5, 50)
        vals = [kappa(v) for v in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def two_pass_stats(xs):
    """Batch mean and population std, the classic two-pass way."""
    xs = np.asarray(xs, dtype=np.float64)
    mean = xs.sum() / xs.size
    return mean, math.sqrt(((xs - mean) ** 2).sum() / xs.size)


class TestRunningMoment:
    """The one-pass mean and std that a chart keeps of its stream."""

    def test_single_sample(self):
        s = SpcTracker()
        s.update(5.0)
        assert (s.count, s.mean, s.std) == (1, 5.0, 0.0)

    def test_small_sequence_vs_two_pass(self):
        s = SpcTracker()
        for x in (1.0, 2.0, 3.0, 4.0):
            s.update(x)
        mean, std = two_pass_stats([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5 and std == math.sqrt(1.25)
        assert abs(s.mean - mean) < 1e-15
        assert abs(s.std - std) < 1e-15

    def test_gaussian_stream_vs_two_pass(self):
        xs = np.random.default_rng(17).normal(size=10_000)
        s = SpcTracker()
        for x in xs:
            s.update(x)
        mean, std = two_pass_stats(xs)
        assert abs(s.mean - mean) <= 1e-9 * max(abs(mean), 1.0)
        assert abs(s.std - std) <= 1e-9 * std

    def test_m2_nonnegative(self):
        s = SpcTracker()
        for x in np.random.default_rng(19).uniform(-1, 1, size=1000):
            s.update(x)
            assert s.values()[2] >= 0.0


def tracker_with(count, mean, std, min_mean, min_std):
    """Forge a tracker in a given state (tests of the decision rule only)."""
    return SpcTracker(np.array([count, mean, std * std * count, min_mean, min_std, 0.0]))


class TestShouldGrow:
    def test_direct_inequality_high_bias(self):
        t = tracker_with(100, 0.5, 0.2, 0.3, 0.05)
        # bias so large that the factor is ~0.7: 0.7 >= 0.3 + 0.7 * 0.05 = 0.335
        assert should_grow(t, 50.0)

    def test_boundary_equality_grows(self):
        t = tracker_with(100, 0.4, 0.0, 0.4, 0.0)
        assert should_grow(t, 0.0)  # kappa = 2, equality holds at sigma = 0

    def test_equal_levels_positive_sigma_no_grow(self):
        t = tracker_with(100, 0.4, 0.1, 0.4, 0.1)
        assert not should_grow(t, 0.0)  # 0.5 < 0.4 + 2 * 0.1 is false... equality
        # kappa = 2: limit = 0.4 + 0.2 = 0.6 > 0.5

    def test_first_sample_after_reset_no_grow(self):
        # trace one step by hand: reseed makes min equal current, sigma > 0
        t = SpcTracker()
        for v in (0.2, 0.6, 0.3):
            t.update(v)
        t.reset_min()
        t.update(0.4)
        assert t.min_mean == t.mean and t.min_std == t.std
        assert t.std > 0
        assert not should_grow(t, 0.0)


class TestShouldPrune:
    def test_grew_guard(self):
        t = tracker_with(100, 0.5, 0.1, 0.1, 0.01)
        assert should_prune(t, 1.0, False, 5)
        assert not should_prune(t, 1.0, True, 5)

    def test_single_node_guard(self):
        t = tracker_with(100, 0.5, 0.1, 0.1, 0.01)
        assert not should_prune(t, 1.0, False, 1)

    def test_direct_inequality(self):
        t = tracker_with(100, 0.4, 0.1, 0.1, 0.05)
        # kappa ~ 0.7 at huge variance: 0.5 >= 0.1 + 2 * 0.7 * 0.05 = 0.17
        assert should_prune(t, 50.0, False, 3)

    def test_negative_variance_clamped_in_factor(self):
        t = tracker_with(100, 0.4, 0.1, 0.1, 0.05)
        # kappa(0) = 2 gives the loosest limit; a negative input must not tighten it
        assert should_prune(t, -0.3, False, 3) == should_prune(t, 0.0, False, 3)


class TestResetSemantics:
    def test_standard_reset_preserves_running_moments(self):
        t = SpcTracker()
        for v in (0.1, 0.2, 0.3):
            t.update(v)
        count_before = t.count
        t.reset_min()
        assert t.count == count_before

    def test_reseed_from_next_observation(self):
        t = SpcTracker()
        for v in (0.5, 0.1, 0.2):
            t.update(v)
        t.reset_min()
        t.update(0.9)
        assert t.min_mean == t.mean
        assert t.min_std == t.std

    def test_min_mean_below_running_mean_between_resets(self):
        rng = np.random.default_rng(21)
        t = SpcTracker()
        for i, v in enumerate(rng.uniform(size=500)):
            t.update(v)
            assert t.min_mean <= t.mean + 1e-15
            if i == 250:
                t.reset_min()


class TestHiddenSignificance:
    def test_zero_mean_node(self):
        stats = NodeStats(1)
        stats.update(np.array([0.0]))
        assert stats.expected_activations()[0] == 0.5

    def test_saturated_dead_node(self):
        stats = NodeStats(1)
        stats.update(np.array([-10.0]))
        assert stats.expected_activations()[0] == pytest.approx(4.5398e-05, rel=1e-3)

    def test_monte_carlo_grid(self):
        for i, mu in enumerate((-2.0, 0.0, 2.0)):
            for j, sig in enumerate((0.1, 1.0, 2.0)):
                approx = expected_activation(mu, sig)
                mc = mc_expected_sigmoid(mu, sig, n=200_000, seed=10 * i + j)
                assert abs(approx - mc) < 0.02


class TestWeakestNode:
    def test_min_index(self):
        assert weakest_node([0.9, 0.1, 0.5]) == 1

    def test_tie_lowest_index(self):
        assert weakest_node([0.3, 0.3]) == 0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        hs = rng.uniform(size=7)
        perm = rng.permutation(7)
        assert np.flatnonzero(perm == weakest_node(hs))[0] == weakest_node(hs[perm])

    def test_too_short(self):
        with pytest.raises(StructureError):
            weakest_node([0.5])


def direct_snapshot_eval(layer, stats, x):
    """Separate spelling of the snapshot formulas, loop-based."""
    mus, sds = stats.mean, stats.stds()
    ey = np.array(
        [sigmoid(mus[i] / math.sqrt(1 + math.pi * sds[i] ** 2 / 8)) for i in range(len(mus))]
    )
    ez = np.array(
        [sigmoid(sum(ey[i] * layer.w[j, i] for i in range(len(ey))) + layer.c[j])
         for j in range(layer.n_in)]
    )
    ez2 = np.array(
        [sigmoid(sum(ey[i] ** 2 * layer.w[j, i] for i in range(len(ey))) + layer.c[j])
         for j in range(layer.n_in)]
    )
    bias2 = float(np.mean((x - ez) ** 2))
    var = float(np.mean(ez2 - ez ** 2))
    return ez, ez2, bias2, var


class TestNsSnapshotGenerative:
    def make(self, seed=31, n=3, width=2):
        rng = np.random.default_rng(seed)
        layer = DaeLayer(
            rng.normal(scale=0.8, size=(n, width)),
            rng.normal(scale=0.4, size=width),
            rng.normal(scale=0.4, size=n),
        )
        stats = NodeStats(width)
        for _ in range(200):
            xt = rng.uniform(size=n)
            stats.update(xt @ layer.w + layer.b)
        return layer, stats, rng

    def test_requires_updated_stats(self):
        layer, _, _ = self.make()
        with pytest.raises(MonitorOrderError):
            ns_snapshot_generative(layer, NodeStats(2), np.zeros(3))

    def test_zero_bias_when_expectation_matches_input(self):
        # zero weight makes ez = sigmoid(c); pick x = sigmoid(c)
        layer = DaeLayer(np.zeros((3, 2)), np.zeros(2), np.array([-0.4, 0.0, 1.2]))
        stats = NodeStats(2)
        stats.update(np.zeros(2))
        x = sigmoid(layer.c)
        snap = ns_snapshot_generative(layer, stats, x)
        assert snap.bias2 == 0.0

    def test_matches_independent_evaluation(self):
        layer, stats, rng = self.make()
        x = rng.uniform(size=3)
        snap = ns_snapshot_generative(layer, stats, x)
        ez, ez2, bias2, var = direct_snapshot_eval(layer, stats, x)
        np.testing.assert_allclose(sigmoid(snap.ey @ layer.w.T + layer.c), ez, rtol=1e-12)
        np.testing.assert_allclose(
            sigmoid((snap.ey * snap.ey) @ layer.w.T + layer.c), ez2, rtol=1e-12
        )
        assert snap.bias2 == pytest.approx(bias2, rel=1e-12)
        assert snap.variance == pytest.approx(var, rel=1e-12)

    def test_sigma_zero_expectation_equals_actual_forward(self):
        # constant corrupted input: ey = y exactly, so ez equals the actual z
        rng = np.random.default_rng(41)
        layer = DaeLayer(
            rng.normal(size=(3, 2)), rng.normal(size=2), rng.normal(size=3)
        )
        xt = rng.uniform(size=3)
        stats = NodeStats(2)
        for _ in range(5):
            stats.update(xt @ layer.w + layer.b)
        assert np.all(stats.stds() == 0)
        snap = ns_snapshot_generative(layer, stats, xt)
        y = sigmoid(xt @ layer.w + layer.b)
        z = sigmoid(y @ layer.w.T + layer.c)
        np.testing.assert_allclose(snap.ey, y, rtol=1e-12)
        np.testing.assert_allclose(sigmoid(snap.ey @ layer.w.T + layer.c), z, rtol=1e-12)

    def test_expected_output_against_masking_monte_carlo(self):
        # ez tracks the true E[z] under masking noise well; the squared-output
        # channel is a monitoring proxy, not an estimator of E[z^2], so only
        # the first moment is held to the Monte-Carlo line
        rng = np.random.default_rng(43)
        layer = DaeLayer(
            rng.normal(scale=0.8, size=(3, 2)),
            rng.normal(scale=0.4, size=2),
            rng.normal(scale=0.4, size=3),
        )
        x = rng.uniform(size=3)
        spec = MaskSpec(0.34, rng)
        stats = NodeStats(2)
        n = 100_000
        zs = np.empty((n, 3))
        for i in range(n):
            xt = mask_input(x, spec)
            a = xt @ layer.w + layer.b
            stats.update(a)
            zs[i] = sigmoid(sigmoid(a) @ layer.w.T + layer.c)
        snap = ns_snapshot_generative(layer, stats, x)
        ez = sigmoid(snap.ey @ layer.w.T + layer.c)
        np.testing.assert_allclose(ez, zs.mean(axis=0), atol=0.02)
        # the decomposition identity itself is exact on the sample moments
        lhs = ((x - zs) ** 2).mean(axis=0)
        rhs = (x - zs.mean(axis=0)) ** 2 + zs.var(axis=0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        # and the bias term built from ez lands within Monte-Carlo error bars
        mc_bias = (x - zs.mean(axis=0)) ** 2
        np.testing.assert_allclose((x - ez) ** 2, mc_bias, atol=0.02)


class TestNsSnapshotDiscriminative:
    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(47)
        width, m = 3, 4
        theta = rng.normal(size=(width, m))
        eta = rng.normal(size=m)
        stats = NodeStats(width)
        for _ in range(50):
            stats.update(rng.normal(size=width))
        onehot = np.zeros(m)
        onehot[2] = 1.0
        snap = ns_snapshot_discriminative(theta, eta, stats, onehot)
        ey = stats.expected_activations()
        ec = softmax_row(ey @ theta + eta)
        ec2 = softmax_row((ey * ey) @ theta + eta)
        np.testing.assert_allclose(softmax_row(snap.ey @ theta + eta), ec, rtol=1e-12)
        assert snap.bias2 == pytest.approx(float(np.mean((onehot - ec) ** 2)), rel=1e-12)
        assert snap.variance == pytest.approx(float(np.mean(ec2 - ec ** 2)), rel=1e-12)

    def test_aggregate_variance_nonnegative(self):
        # softmax rows sum to one, so mean(ec2 - ec^2) = (1 - sum ec^2) / m >= 0
        rng = np.random.default_rng(53)
        for _ in range(20):
            theta = rng.normal(size=(2, 3))
            eta = rng.normal(size=3)
            stats = NodeStats(2)
            stats.update(rng.normal(size=2))
            snap = ns_snapshot_discriminative(theta, eta, stats, np.array([1.0, 0, 0]))
            assert snap.variance >= 0.0


def stats_as_training_leaves_them(rng, width, steps=25):
    """Node statistics of a layer grown during training: a node appended at a
    later step has seen fewer updates, down to one or none."""
    stats = NodeStats(1)
    born = np.sort(rng.integers(0, steps + 1, size=width - 1))
    for t in range(steps + 1):
        while stats.width < width and born[stats.width - 1] == t:
            for name in ("count", "mean", "m2"):
                arr = getattr(stats, name)
                setattr(stats, name, np.append(arr, np.zeros(1, dtype=arr.dtype)))
        if t < steps:
            stats.update(rng.normal(loc=0.5, scale=2.0, size=stats.width))
    return stats


def reference_snapshot(stats, weight, bias, squash, target):
    """The snapshot as plainly written: masked std, probit expectation, and
    np.mean over the output dimensions."""
    sd = np.zeros_like(stats.mean)
    np.divide(stats.m2, stats.count, out=sd, where=stats.count > 1)
    sd = np.sqrt(sd)
    ey = np.exp(-np.logaddexp(0.0, -(stats.mean / np.sqrt(1.0 + math.pi / 8.0 * sd * sd))))
    ez = squash(ey @ weight + bias)
    ez2 = squash((ey * ey) @ weight + bias)
    return NsSnapshot(ey, float(np.mean((target - ez) ** 2)), float(np.mean(ez2 - ez * ez)))


def plain_sigmoid(v):
    return np.exp(-np.logaddexp(0.0, -v))


def plain_softmax(v):
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [2, 3, 8, 20])
def test_snapshots_bit_identical_to_plain_formulas(n):
    # n >= 8 takes numpy's pairwise summation inside the means
    rng = np.random.default_rng(100 + n)
    for width in range(1, 41):
        stats = stats_as_training_leaves_them(rng, width)
        layer = DaeLayer(rng.normal(size=(n, width)), rng.normal(size=width), rng.normal(size=n))
        x = rng.uniform(size=n)
        snap = ns_snapshot_generative(layer, stats, x)
        ref = reference_snapshot(stats, layer.w.T, layer.c, plain_sigmoid, x)
        theta, eta = rng.normal(size=(width, n)), rng.normal(size=n)
        onehot = np.eye(n)[rng.integers(n)]
        dsnap = ns_snapshot_discriminative(theta, eta, stats, onehot)
        dref = reference_snapshot(stats, theta, eta, plain_softmax, onehot)
        for got, want in ((snap, ref), (dsnap, dref)):
            assert np.array_equal(got.ey, want.ey), width
            assert (got.bias2, got.variance) == (want.bias2, want.variance), width
