"""Kernel-level checks against independent oracles: two-pass batch
statistics and Monte Carlo draws."""
import math

import numpy as np

from devdan.numerics import RunningMoment, sigmoid, softmax_row, xavier, xavier_bound


def two_pass_stats(xs):
    """Batch mean and population std, the classic two-pass way."""
    xs = np.asarray(xs, dtype=np.float64)
    mean = xs.sum() / xs.size
    return mean, math.sqrt(((xs - mean) ** 2).sum() / xs.size)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_no_overflow(self):
        assert abs(sigmoid(50.0) - 1.0) < 1e-15
        assert sigmoid(-745.0) >= 0.0  # well past exp underflow

    def test_complement_identity(self):
        xs = np.random.default_rng(3).uniform(-80, 80, size=2000)
        np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-12)

    def test_monotone(self):
        xs = np.sort(np.random.default_rng(5).uniform(-30, 30, size=500))
        assert np.all(np.diff(sigmoid(xs)) >= 0)


class TestSoftmaxRow:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_row([2.0] * 5), 0.2, atol=1e-15)

    def test_large_shift_no_overflow(self):
        out = softmax_row([1000.0, 0.0])
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.normal(scale=20, size=rng.integers(2, 9))
            assert abs(softmax_row(v).sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=6)
        np.testing.assert_allclose(softmax_row(v), softmax_row(v + 37.5), atol=1e-12)


class TestRunningMoment:
    def test_single_sample(self):
        s = RunningMoment()
        s.update(5.0)
        assert (s.count, s.mean, s.std) == (1, 5.0, 0.0)

    def test_small_sequence_vs_two_pass(self):
        s = RunningMoment()
        for x in (1.0, 2.0, 3.0, 4.0):
            s.update(x)
        mean, std = two_pass_stats([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5 and std == math.sqrt(1.25)
        assert abs(s.mean - mean) < 1e-15
        assert abs(s.std - std) < 1e-15

    def test_gaussian_stream_vs_two_pass(self):
        xs = np.random.default_rng(17).normal(size=10_000)
        s = RunningMoment()
        for x in xs:
            s.update(x)
        mean, std = two_pass_stats(xs)
        assert abs(s.mean - mean) <= 1e-9 * max(abs(mean), 1.0)
        assert abs(s.std - std) <= 1e-9 * std

    def test_m2_nonnegative(self):
        s = RunningMoment()
        for x in np.random.default_rng(19).uniform(-1, 1, size=1000):
            s.update(x)
            assert s.m2 >= 0.0


class TestXavier:
    def test_bound_symmetric_fan(self):
        assert xavier_bound(3, 3) == 1.0
        draws = xavier(np.random.default_rng(23), 3, 3, size=1000)
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)

    def test_sample_mean_near_zero(self):
        n = 10_000
        draws = xavier(np.random.default_rng(29), 4, 6, size=n)
        se = xavier_bound(4, 6) / math.sqrt(3 * n)  # uniform variance = bound^2 / 3
        assert abs(draws.mean()) < 3 * se

    def test_seeded_determinism(self):
        a = xavier(np.random.default_rng(31), 5, 7, size=64)
        b = xavier(np.random.default_rng(31), 5, 7, size=64)
        np.testing.assert_array_equal(a, b)

