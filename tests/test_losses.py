import math

import numpy as np
import pytest

from mtabl.errors import DataError, DimensionError
from mtabl.losses import cross_entropy, inverse_frequency_weights, uniform_weights


def column(values):
    return np.array(values, dtype=float)[:, None]


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        loss, grad = cross_entropy(column([0.0, 1.0, 0.0]), 1)
        assert loss == 0.0
        assert np.abs(grad).max() <= 1e-15

    def test_uniform_prediction(self):
        loss, _ = cross_entropy(column([1 / 3, 1 / 3, 1 / 3]), 0)
        assert abs(loss - math.log(3.0)) <= 1e-12

    def test_weight_scales_loss_and_gradient(self):
        probs = column([0.2, 0.5, 0.3])
        weights = np.array([1.0, 2.0, 1.0])
        base_loss, base_grad = cross_entropy(probs, 1)
        loss, grad = cross_entropy(probs, 1, weights)
        assert abs(loss - 2.0 * base_loss) <= 1e-12
        assert np.abs(grad - 2.0 * base_grad).max() <= 1e-15

    def test_fused_gradient_matches_finite_differences(self, rng):
        # The returned gradient is w.r.t. pre-softmax scores, so the
        # numeric side perturbs scores and recomputes softmax + loss.
        scores = rng.normal(size=(3, 1))
        weights = np.array([0.7, 1.5, 0.8])

        def forward(z):
            e = np.exp(z - z.max())
            probs = e / e.sum()
            return cross_entropy(probs, 2, weights)[0]

        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        _, grad = cross_entropy(probs, 2, weights)
        step = 1e-7
        for i in range(3):
            up, down = scores.copy(), scores.copy()
            up[i, 0] += step
            down[i, 0] -= step
            numeric = (forward(up) - forward(down)) / (2 * step)
            rel = abs(grad[i, 0] - numeric) / max(abs(numeric), 1e-8)
            assert rel <= 1e-6

    def test_loss_nonnegative_and_zero_only_at_certainty(self, rng):
        for _ in range(50):
            raw = rng.uniform(0.01, 1.0, 3)
            probs = column(raw / raw.sum())
            label = int(rng.integers(3))
            loss, _ = cross_entropy(probs, label)
            assert loss >= 0.0
            assert (loss == 0.0) == (probs[label, 0] == 1.0)

    def test_tiny_probability_clamped_to_finite_loss(self):
        loss, _ = cross_entropy(column([1e-320, 0.5, 0.5]), 0)
        assert math.isfinite(loss)

    def test_bad_inputs(self):
        with pytest.raises(DimensionError):
            cross_entropy(np.zeros((3, 2)), 0)
        with pytest.raises(DataError):
            cross_entropy(column([0.3, 0.3, 0.4]), 3)


class TestBatchedCrossEntropy:
    def test_sums_the_per_window_losses(self, rng):
        raw = rng.uniform(0.01, 1.0, (3, 9, 1))
        probs = raw / raw.sum(axis=0)
        labels = rng.integers(0, 3, 9)
        weights = np.array([0.7, 1.5, 0.8])
        result = cross_entropy(probs, labels, weights)
        loss, grad = result
        singles = [cross_entropy(probs[:, b], int(labels[b]), weights) for b in range(9)]
        assert abs(loss - sum(l for l, _ in singles)) <= 1e-12
        assert grad.shape == probs.shape
        for b, (_, g) in enumerate(singles):
            assert np.array_equal(grad[:, b], g)
        assert result.clamped == 0

    def test_counts_floored_probabilities(self):
        probs = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])[:, :, None]
        result = cross_entropy(probs, np.array([0, 2, 2]))
        assert result.clamped == 2
        assert math.isfinite(result[0])
        assert cross_entropy(column([1e-320, 0.5, 0.5]), 0).clamped == 1

    def test_bad_batched_inputs(self):
        probs = np.full((3, 4, 1), 1 / 3)
        with pytest.raises(DimensionError):
            cross_entropy(probs, np.array([0, 1, 2]))
        with pytest.raises(DimensionError):
            cross_entropy(probs, 0)
        with pytest.raises(DataError):
            cross_entropy(probs, np.array([0, 1, 2, 7]))


class TestClassWeights:
    def test_inverse_frequency_mean_one(self):
        w = inverse_frequency_weights([0, 0, 0, 1, 1, 2])
        assert abs(w.mean() - 1.0) <= 1e-12
        # Rarest class gets the largest weight.
        assert w[2] > w[1] > w[0]
        # Proportional to inverse counts: w0*3 == w1*2 == w2*1.
        assert abs(w[0] * 3 - w[2]) <= 1e-12

    def test_missing_class_stays_finite(self):
        w = inverse_frequency_weights([0, 0, 1])
        assert np.isfinite(w).all()

    def test_uniform(self):
        assert np.array_equal(uniform_weights(), np.ones(3))
