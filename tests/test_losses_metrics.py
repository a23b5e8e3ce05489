"""Loss functions and evaluation metrics."""

import numpy as np
import pytest

from repro.nn.losses import smooth_l1_loss, softmax_cross_entropy
from repro.train.metrics import accuracy, predict_spans, span_em_f1


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.full((4, 3), -20.0)
        targets = np.array([0, 1, 2, 0])
        logits[np.arange(4), targets] = 20.0
        loss, grad = softmax_cross_entropy(logits, targets)
        assert loss < 1e-6
        assert np.abs(grad).max() < 1e-6

    def test_uniform_logits_log_k(self):
        logits = np.zeros((10, 5))
        loss, _ = softmax_cross_entropy(logits, np.zeros(10, dtype=int))
        assert loss == pytest.approx(np.log(5), rel=1e-6)

    def test_gradient_matches_finite_difference(self, rng):
        logits = rng.standard_normal((3, 4))
        targets = rng.integers(0, 4, 3)
        _, grad = softmax_cross_entropy(logits, targets)
        eps = 1e-5
        for i in range(3):
            for j in range(4):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                num = (
                    softmax_cross_entropy(lp, targets)[0]
                    - softmax_cross_entropy(lm, targets)[0]
                ) / (2 * eps)
                assert num == pytest.approx(grad[i, j], abs=1e-6)

    def test_grad_rows_sum_to_zero(self, rng):
        logits = rng.standard_normal((6, 5))
        _, grad = softmax_cross_entropy(logits, rng.integers(0, 5, 6))
        assert np.allclose(grad.sum(axis=-1), 0.0, atol=1e-7)

    def test_ignore_index_masks_positions(self, rng):
        logits = rng.standard_normal((2, 4, 5))
        targets = np.array([[1, 0, 0, 2], [0, 0, 3, 0]])
        loss, grad = softmax_cross_entropy(logits, targets, ignore_index=0)
        assert np.all(grad[0, 1] == 0)
        assert np.all(grad[1, 0] == 0)
        assert np.any(grad[0, 0] != 0)

    def test_3d_logits(self, rng):
        logits = rng.standard_normal((2, 7, 5))
        targets = rng.integers(0, 5, (2, 7))
        loss, grad = softmax_cross_entropy(logits, targets)
        assert grad.shape == logits.shape
        assert loss > 0

    def test_numerical_stability_large_logits(self):
        logits = np.array([[1000.0, -1000.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestRegressionLosses:
    def test_smooth_l1_quadratic_region(self):
        loss, grad = smooth_l1_loss(np.array([0.5]), np.array([0.0]))
        assert loss == pytest.approx(0.125)
        assert grad[0] == pytest.approx(0.5)

    def test_smooth_l1_linear_region(self):
        loss, grad = smooth_l1_loss(np.array([5.0]), np.array([0.0]))
        assert loss == pytest.approx(4.5)
        assert grad[0] == pytest.approx(1.0)

    def test_smooth_l1_bounded_gradient(self, rng):
        pred = rng.standard_normal(100) * 100
        _, grad = smooth_l1_loss(pred, np.zeros(100))
        assert np.abs(grad).max() <= 1.0 / 100 + 1e-9


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(100 * 2 / 3)

    def test_span_em_exact(self):
        em, f1 = span_em_f1(np.array([2]), np.array([4]), np.array([2]), np.array([4]))
        assert em == 100.0 and f1 == 100.0

    def test_span_no_overlap(self):
        em, f1 = span_em_f1(np.array([0]), np.array([1]), np.array([5]), np.array([6]))
        assert em == 0.0 and f1 == 0.0

    def test_span_partial_overlap(self):
        # pred [2,5] (4 tokens), gold [4,7] (4 tokens), overlap 2 -> F1 = 0.5
        em, f1 = span_em_f1(np.array([2]), np.array([5]), np.array([4]), np.array([7]))
        assert em == 0.0
        assert f1 == pytest.approx(50.0)

    def test_predict_spans_end_after_start(self, rng):
        logits = rng.standard_normal((10, 20, 2))
        starts, ends = predict_spans(logits)
        assert np.all(ends >= starts)

    def test_predict_spans_picks_argmax_start(self):
        logits = np.zeros((1, 5, 2))
        logits[0, 3, 0] = 10.0  # start at 3
        logits[0, 1, 1] = 10.0  # best end before start must be ignored
        logits[0, 4, 1] = 5.0
        starts, ends = predict_spans(logits)
        assert starts[0] == 3 and ends[0] == 4
