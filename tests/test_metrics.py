import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtabl.errors import ConfigurationError, DataError
from mtabl.metrics import confusion_matrix, evaluate

from oracles import metrics_bruteforce

pair_lists = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=60
)


class TestEvaluate:
    def test_perfect_predictions(self):
        report = evaluate([0, 1, 2, 1], [0, 1, 2, 1])
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_hand_computed_example(self):
        labels = [0, 0, 1, 1, 2, 2]
        predictions = [0, 1, 1, 1, 2, 0]
        report = evaluate(predictions, labels)
        assert report.confusion.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]
        assert abs(report.accuracy - 4 / 6) <= 1e-12
        assert np.allclose(report.per_class_precision, [0.5, 2 / 3, 1.0], atol=1e-12)
        assert np.allclose(report.per_class_recall, [0.5, 1.0, 0.5], atol=1e-12)
        expected_f1 = (0.5 + 0.8 + 2 / 3) / 3
        assert abs(report.macro_f1 - expected_f1) <= 1e-4
        assert abs(report.macro_f1 - 0.6556) <= 1e-4

    def test_degenerate_predictor(self):
        labels = [0, 0, 1, 1, 2, 2]
        report = evaluate([1] * 6, labels)
        assert report.per_class_recall[1] == 1.0
        assert report.per_class_f1[0] == 0.0
        assert report.per_class_f1[2] == 0.0

    def test_accuracy_is_trace_over_total(self, rng):
        labels = rng.integers(0, 3, 100).tolist()
        preds = rng.integers(0, 3, 100).tolist()
        report = evaluate(preds, labels)
        assert report.accuracy == np.trace(report.confusion) / 100

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            evaluate([], [])
        with pytest.raises(ConfigurationError):
            evaluate([0], [0, 1])
        with pytest.raises(DataError):
            evaluate([0, 3], [0, 1])
        with pytest.raises(DataError):
            evaluate([0, 1], [0, -1])

    def test_ndarray_inputs_match_lists(self, rng):
        labels = rng.integers(0, 3, 50)
        preds = rng.integers(0, 3, 50)
        report = evaluate(preds, labels)
        assert report.to_dict() == evaluate(preds.tolist(), labels.tolist()).to_dict()
        assert report.confusion.dtype == np.int64

    def test_out_of_range_prediction_named(self):
        with pytest.raises(DataError, match="prediction outside .*: 5"):
            confusion_matrix(np.array([0, 1, 5]), np.array([0, 1, 2]))

    @settings(max_examples=60, deadline=None)
    @given(pair_lists)
    def test_matches_bruteforce_oracle(self, pairs):
        predictions = [p for p, _ in pairs]
        labels = [t for _, t in pairs]
        report = evaluate(predictions, labels)
        expected = metrics_bruteforce(predictions, labels)
        assert abs(report.accuracy - expected["accuracy"]) <= 1e-12
        assert abs(report.macro_precision - expected["macro_precision"]) <= 1e-12
        assert abs(report.macro_recall - expected["macro_recall"]) <= 1e-12
        assert abs(report.macro_f1 - expected["macro_f1"]) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(pair_lists, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pairs, rand):
        predictions = [p for p, _ in pairs]
        labels = [t for _, t in pairs]
        before = evaluate(predictions, labels)
        shuffled = pairs[:]
        rand.shuffle(shuffled)
        after = evaluate([p for p, _ in shuffled], [t for _, t in shuffled])
        assert np.array_equal(before.confusion, after.confusion)
        assert before.macro_f1 == after.macro_f1


class TestReportSerialization:
    def test_dict_round_trip(self):
        report = evaluate([0, 1, 1, 2], [0, 1, 2, 2])
        clone = json.loads(json.dumps(report.to_dict()))
        assert clone["confusion"] == report.confusion.tolist()
        assert clone["macro_f1"] == report.macro_f1
        assert tuple(clone["per_class_precision"]) == report.per_class_precision

    def test_text_block_is_flat_key_value(self):
        report = evaluate([0, 1], [0, 1])
        lines = report.to_text().splitlines()
        assert all("=" in line for line in lines)
        keys = {line.split("=")[0] for line in lines}
        assert {"accuracy", "macro_f1", "n_samples", "confusion_00"} <= keys


def test_confusion_orientation():
    # Rows are the true class, columns the prediction.
    counts = confusion_matrix([2], [0])
    assert counts[0, 2] == 1
    assert counts[2, 0] == 0
