import json
import random

import pytest

from rljp.corpus import Judgment
from rljp.metrics import (
    AlignmentError,
    compute_metrics,
    compute_subtask_metrics,
    report_as_json,
    report_as_table,
)


def oracle_confusion(gold, pred, classes):
    """Independent confusion-matrix oracle with the same zero-division rule."""
    out = {}
    for cls in classes:
        tp = fp = fn = 0
        for g, p in zip(gold, pred):
            if p == cls and g == cls:
                tp += 1
            elif p == cls:
                fp += 1
            elif g == cls:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[cls] = (precision, recall, f1)
    macro = tuple(
        sum(values[i] for values in out.values()) / len(classes) for i in range(3)
    )
    accuracy = sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)
    return out, macro, accuracy


def _triple(article, charge="c", term="t"):
    return Judgment(article, charge, term)


class TestSubtaskMetrics:
    def test_perfect_predictions(self):
        metrics = compute_subtask_metrics(["A", "B"], ["A", "B"])
        assert metrics.accuracy == 1.0
        assert metrics.macro_f1 == 1.0
        assert metrics.macro_precision == 1.0 and metrics.macro_recall == 1.0

    def test_two_class_toy_hand_computed(self):
        # gold [A,A,B], pred [A,B,B]: acc 2/3; P_A=1, R_A=1/2, F1_A=2/3;
        # P_B=1/2, R_B=1, F1_B=2/3; macro-F 2/3
        metrics = compute_subtask_metrics(["A", "A", "B"], ["A", "B", "B"])
        assert metrics.accuracy == pytest.approx(2 / 3)
        a = metrics.per_class["A"]
        b = metrics.per_class["B"]
        assert (a.precision, a.recall) == (1.0, 0.5)
        assert a.f1 == pytest.approx(2 / 3)
        assert (b.precision, b.recall) == (0.5, 1.0)
        assert b.f1 == pytest.approx(2 / 3)
        assert metrics.macro_f1 == pytest.approx(2 / 3)

    def test_absent_class_zero_precision_in_macro(self):
        # class C appears in gold but never predicted: P_C = 0 by convention
        metrics = compute_subtask_metrics(["A", "C"], ["A", "A"])
        assert metrics.per_class["C"].precision == 0.0
        assert metrics.per_class["C"].recall == 0.0
        assert metrics.per_class["C"].f1 == 0.0
        assert metrics.macro_precision == pytest.approx((0.5 + 0.0) / 2)

    def test_class_only_in_predictions_included(self):
        metrics = compute_subtask_metrics(["A", "A"], ["A", "B"])
        assert set(metrics.per_class) == {"A", "B"}
        assert metrics.per_class["B"].recall == 0.0

    def test_macro_f1_bounded_by_class_f1(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 30)
            classes = ["A", "B", "C"]
            gold = [rng.choice(classes) for _ in range(n)]
            pred = [rng.choice(classes) for _ in range(n)]
            metrics = compute_subtask_metrics(gold, pred)
            f1s = [m.f1 for m in metrics.per_class.values()]
            assert min(f1s) - 1e-12 <= metrics.macro_f1 <= max(f1s) + 1e-12


class TestComputeMetrics:
    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(123)
        for _ in range(20):
            n = rng.randint(1, 25)
            labels = [f"L{i}" for i in range(rng.randint(2, 6))]
            gold = [
                _triple(rng.choice(labels), rng.choice(labels), rng.choice(labels))
                for _ in range(n)
            ]
            pred = [
                _triple(rng.choice(labels), rng.choice(labels), rng.choice(labels))
                for _ in range(n)
            ]
            report = compute_metrics(pred, gold)
            for subtask in ("article", "charge", "prison_term"):
                g = [row.label(subtask) for row in gold]
                p = [row.label(subtask) for row in pred]
                classes = sorted(set(g) | set(p))
                per_class, macro, accuracy = oracle_confusion(g, p, classes)
                m = report.subtasks[subtask]
                assert m.accuracy == pytest.approx(accuracy)
                assert m.macro_precision == pytest.approx(macro[0])
                assert m.macro_recall == pytest.approx(macro[1])
                assert m.macro_f1 == pytest.approx(macro[2])
                for cls, (precision, recall, f1) in per_class.items():
                    cm = m.per_class[cls]
                    assert (cm.precision, cm.recall) == (precision, recall)
                    assert cm.f1 == pytest.approx(f1)

    def test_permutation_invariance(self):
        gold = [_triple("A"), _triple("B"), _triple("C")]
        pred = [_triple("A"), _triple("C"), _triple("C")]
        report = compute_metrics(pred, gold)
        order = [2, 0, 1]
        report2 = compute_metrics([pred[i] for i in order], [gold[i] for i in order])
        assert report == report2

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            compute_metrics([_triple("A")], [])

    def test_accuracy_is_mean_exact_match(self):
        gold = [_triple("A", "c1"), _triple("B", "c2")]
        pred = [_triple("A", "c1"), _triple("B", "c9")]
        report = compute_metrics(pred, gold)
        assert report.subtasks["article"].accuracy == 1.0
        assert report.subtasks["charge"].accuracy == 0.5


class TestReports:
    def test_json_round_trips(self):
        report = compute_metrics([_triple("A")], [_triple("A")])
        payload = json.loads(report_as_json(report))
        assert payload["subtasks"]["article"]["accuracy"] == 1.0
        assert payload["num_cases"] == 1

    def test_table_has_one_row_per_subtask(self):
        report = compute_metrics([_triple("A")], [_triple("A")])
        table = report_as_table(report)
        for name in ("article", "charge", "prison_term"):
            assert name in table
