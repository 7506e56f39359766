"""Kernel-level checks against independent oracles: plain formulas and Monte
Carlo draws."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from devdan.numerics import sigmoid, softmax_row, xavier, xavier_bound


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



def reference_sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


def reference_softmax(v):
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TestBitIdentity:
    """The in-place kernels round exactly like the plain formulas."""

    def test_sigmoid_vectors_batches_and_scalars(self):
        rng = np.random.default_rng(61)
        for n in range(1, 41):
            x = rng.normal(scale=rng.choice([0.1, 3.0, 40.0]), size=n)
            assert np.array_equal(sigmoid(x), reference_sigmoid(x))
        batch = rng.normal(scale=5.0, size=(17, 6))
        assert np.array_equal(sigmoid(batch), reference_sigmoid(batch))
        for s in (0.0, -3.5, 2.25, 709.0, -745.0):
            assert sigmoid(s) == reference_sigmoid(s)
            assert np.ndim(sigmoid(s)) == 0

    def test_sigmoid_leaves_input_alone(self):
        x = np.array([-1.0, 0.5, 4.0])
        sigmoid(x)
        assert x.tolist() == [-1.0, 0.5, 4.0]

    def test_softmax_rows_and_batches(self):
        rng = np.random.default_rng(67)
        for n in range(1, 21):
            v = rng.normal(scale=rng.choice([0.5, 5.0, 50.0]), size=n)
            assert np.array_equal(softmax_row(v), reference_softmax(v))
        batch = rng.normal(scale=8.0, size=(23, 5))
        assert np.array_equal(softmax_row(batch), reference_softmax(batch))
        assert np.array_equal(softmax_row([1.0, 2.0]), reference_softmax(np.array([1.0, 2.0])))


EXTREME_LOGITS = st.one_of(
    st.sampled_from([745.0, -745.0, 1e308, -1e308, 0.0]),
    st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(logits=st.lists(EXTREME_LOGITS, min_size=1, max_size=12))
def test_nonlinearities_stay_finite_at_extreme_logits(logits):
    v = np.array(logits)
    with np.errstate(over="ignore"):  # max-subtraction may overflow to -inf, exp(-inf) = 0
        p = softmax_row(v)
        batch = softmax_row(np.vstack([v, -v]))
    s = sigmoid(v)
    for out in (s, p, batch):
        assert np.all(np.isfinite(out)) and np.all((out >= 0.0) & (out <= 1.0))
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(np.abs(batch.sum(axis=1) - 1.0) <= 1e-12)
