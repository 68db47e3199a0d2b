"""Accuracy and macro precision/recall/F1 per subtask.

Conventions are pinned for cross-run comparability: zero denominators yield
0.0, and macro averages run over the classes present in gold or predictions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import SUBTASKS, Judgment


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
    num_cases: int
    subtasks: dict[str, SubtaskMetrics]


class AlignmentError(ValueError):
    pass


def compute_subtask_metrics(gold: Sequence[str], predicted: Sequence[str]) -> SubtaskMetrics:
    if len(gold) != len(predicted):
        raise AlignmentError("gold and predicted lengths differ")
    classes = sorted(set(gold) | set(predicted))
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


def compute_metrics(predictions: Sequence[Judgment], gold: Sequence[Judgment]) -> MetricsReport:
    """Per-subtask metrics over aligned predicted and gold judgments."""
    if len(predictions) != len(gold):
        raise AlignmentError(
            f"{len(predictions)} predictions vs {len(gold)} gold records"
        )
    subtasks: dict[str, SubtaskMetrics] = {}
    for subtask in SUBTASKS:
        subtasks[subtask] = compute_subtask_metrics(
            [g.label(subtask) for g in gold],
            [p.label(subtask) for p in predictions],
        )
    return MetricsReport(subtasks=subtasks, num_cases=len(gold))


def report_as_json(report: MetricsReport) -> str:
    """metrics.json: the report's fields, in their declared order."""
    return json.dumps(asdict(report), indent=2, ensure_ascii=False) + "\n"


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
