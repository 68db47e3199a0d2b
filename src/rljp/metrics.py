"""Accuracy and macro precision/recall/F1 per subtask.

Conventions are pinned for cross-run comparability: zero denominators yield
0.0, and macro averages run over the classes present in gold or predictions
(optionally the full label space via `class_universe`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .corpus import SUBTASKS, Judgment, LabelSpace


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class SubtaskMetrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: dict[str, ClassMetrics]


@dataclass(frozen=True)
class MetricsReport:
    subtasks: dict[str, SubtaskMetrics]
    num_cases: int


class AlignmentError(ValueError):
    pass


def _labels_of(record, subtask: str) -> str:
    # accepts Prediction objects, corpus Judgments carried on cases, or dicts;
    # a Prediction carries the same three label fields as a Judgment
    if isinstance(record, dict):
        return str(record[subtask])
    return Judgment.label(record, subtask)


def compute_subtask_metrics(
    gold: Sequence[str],
    predicted: Sequence[str],
    class_universe: Optional[Sequence[str]] = None,
) -> SubtaskMetrics:
    if len(gold) != len(predicted):
        raise AlignmentError("gold and predicted lengths differ")
    classes = (
        list(dict.fromkeys(class_universe))
        if class_universe is not None
        else sorted(set(gold) | set(predicted))
    )
    per_class: dict[str, ClassMetrics] = {}
    for cls in classes:
        tp = sum(1 for g, p in zip(gold, predicted) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(gold, predicted) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(gold, predicted) if g == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per_class[cls] = ClassMetrics(precision, recall, f1, support=tp + fn)
    n = len(classes)
    accuracy = (
        sum(1 for g, p in zip(gold, predicted) if g == p) / len(gold) if gold else 0.0
    )
    return SubtaskMetrics(
        accuracy=accuracy,
        macro_precision=sum(m.precision for m in per_class.values()) / n if n else 0.0,
        macro_recall=sum(m.recall for m in per_class.values()) / n if n else 0.0,
        macro_f1=sum(m.f1 for m in per_class.values()) / n if n else 0.0,
        per_class=per_class,
    )


def compute_metrics(
    predictions: Sequence,
    gold: Sequence,
    *,
    case_ids_predictions: Optional[Sequence[str]] = None,
    case_ids_gold: Optional[Sequence[str]] = None,
    labels: Optional[LabelSpace] = None,
    macro_over_full_label_space: bool = False,
) -> MetricsReport:
    """Per-subtask metrics over aligned prediction/gold sequences.

    When case id sequences are supplied they must match pairwise. Records may
    be Prediction objects, Judgment objects, or dicts keyed by subtask.
    """
    if len(predictions) != len(gold):
        raise AlignmentError(
            f"{len(predictions)} predictions vs {len(gold)} gold records"
        )
    if case_ids_predictions is not None and case_ids_gold is not None:
        for pid, gid in zip(case_ids_predictions, case_ids_gold):
            if pid != gid:
                raise AlignmentError(f"case id mismatch: {pid} vs {gid}")
    subtasks: dict[str, SubtaskMetrics] = {}
    for subtask in SUBTASKS:
        universe = None
        if macro_over_full_label_space:
            if labels is None:
                raise ValueError("macro_over_full_label_space requires labels")
            universe = labels.of(subtask)
        subtasks[subtask] = compute_subtask_metrics(
            [_labels_of(g, subtask) for g in gold],
            [_labels_of(p, subtask) for p in predictions],
            class_universe=universe,
        )
    return MetricsReport(subtasks=subtasks, num_cases=len(gold))


def report_as_dict(report: MetricsReport) -> dict:
    return {
        "num_cases": report.num_cases,
        "subtasks": {
            name: {
                "accuracy": m.accuracy,
                "macro_precision": m.macro_precision,
                "macro_recall": m.macro_recall,
                "macro_f1": m.macro_f1,
                "per_class": {
                    cls: {
                        "precision": cm.precision,
                        "recall": cm.recall,
                        "f1": cm.f1,
                        "support": cm.support,
                    }
                    for cls, cm in m.per_class.items()
                },
            }
            for name, m in report.subtasks.items()
        },
    }


def report_as_json(report: MetricsReport) -> str:
    return json.dumps(report_as_dict(report), indent=2, ensure_ascii=False) + "\n"


def report_as_table(report: MetricsReport) -> str:
    """Aligned plain-text table, one row per subtask."""
    header = f"{'subtask':<12} {'acc':>8} {'ma-p':>8} {'ma-r':>8} {'ma-f':>8}"
    rows = [header, "-" * len(header)]
    for name, m in report.subtasks.items():
        rows.append(
            f"{name:<12} {m.accuracy:>8.4f} {m.macro_precision:>8.4f} "
            f"{m.macro_recall:>8.4f} {m.macro_f1:>8.4f}"
        )
    return "\n".join(rows) + "\n"
