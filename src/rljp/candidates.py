"""Candidate-label prescreening: a character n-gram one-vs-rest linear
classifier trained by averaged perceptron, one model per subtask.

A fact is a sparse vector: the sorted hashed indices of its character
n-grams and their L2-normalised counts. Training and scoring only touch the
weight columns at those indices, and the averaged weights come in closed
form (each update weighted by the steps left after it) rather than by
summing the whole matrix after every step. The saved artifact keeps, per
subtask, only the weight columns that are non-zero. A batch of facts is
featurized in one pass and ranked for every subtask at once.

This stands in for the heavyweight neural prescreener.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .confusable import gram_hashes
from .corpus import SUBTASKS, LabelSpace, LegalCase

logger = logging.getLogger(__name__)


class ProviderNotTrainedError(RuntimeError):
    pass


def _gold_label(case: LegalCase, subtask: str) -> str:
    if case.judgment is None:
        raise ValueError(f"case {case.case_id} has no judgment")
    return case.judgment.label(subtask)


class CharNgramPerceptron:
    """One-vs-rest averaged perceptron over hashed character 1..3-grams."""

    def __init__(
        self,
        labels: LabelSpace,
        *,
        ngram_sizes: tuple[int, ...] = (1, 2, 3),
        hash_dim: int = 32768,
        epochs: int = 5,
    ):
        self.labels = labels
        self.ngram_sizes = ngram_sizes
        self.hash_dim = hash_dim
        self.epochs = epochs
        self._weights: dict[str, np.ndarray] = {}

    def _features(self, texts: Sequence[str]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per text, its sorted hashed n-gram indices and their unit-norm counts."""
        features = []
        for hashes in gram_hashes(texts, self.ngram_sizes):
            idx, counts = np.unique(hashes % self.hash_dim, return_counts=True)
            vals = counts.astype(np.float64)
            norm = np.linalg.norm(vals)
            features.append((idx, vals / norm if norm else vals))
        return features

    def train(self, cases: Sequence[LegalCase]) -> None:
        if not cases:
            raise ValueError("no training cases")
        features = self._features([case.fact_text for case in cases])
        steps = self.epochs * len(cases)
        for subtask in SUBTASKS:
            label_list = self.labels.of(subtask)
            index = {label: i for i, label in enumerate(label_list)}
            y = [index[_gold_label(case, subtask)] for case in cases]
            n_labels = len(label_list)
            w = np.zeros((n_labels, self.hash_dim))
            # sum over steps of the weights after each step: the update made
            # at step s is present in the (steps - s) sums from s onwards
            accum = np.zeros_like(w)
            step = 0
            for _ in range(self.epochs):
                for (idx, vals), gold in zip(features, y):
                    margins = w[:, idx] @ vals
                    target = np.full(n_labels, -1.0)
                    target[gold] = 1.0
                    wrong = np.flatnonzero((margins * target) <= 0)
                    if wrong.size:
                        block = np.ix_(wrong, idx)
                        delta = np.outer(target[wrong], vals)
                        w[block] += delta
                        accum[block] += (steps - step) * delta
                    step += 1
            self._weights[subtask] = accum / steps
        logger.info("candidate provider trained on %d cases", len(cases))

    def scores(self, fact_texts: Sequence[str]) -> dict[str, np.ndarray]:
        """Per subtask, the margins of each text (a row) for each label (a
        column, in label-space order)."""
        if not self._weights:
            raise ProviderNotTrainedError("candidate provider has not been trained")
        features = self._features(fact_texts)
        # a row-wise sum, not a BLAS mat-vec: the mat-vec can round equal
        # weight rows differently, and tied labels must stay tied; the
        # reshape keeps an empty batch two-dimensional
        return {
            subtask: np.array(
                [(self._weights[subtask][:, idx] * vals).sum(axis=1) for idx, vals in features]
            ).reshape(len(features), len(self._weights[subtask]))
            for subtask in SUBTASKS
        }

    def top_labels(self, fact_texts: Sequence[str], k: int) -> list[dict[str, tuple[str, ...]]]:
        """Per text, each subtask's k best-scored labels, best first; tied
        labels keep label-space order."""
        if k < 1:
            raise ValueError(f"k must be at least 1, not {k}")
        ranked = {
            subtask: np.argsort(-margins, axis=1, kind="stable")[:, :k]
            for subtask, margins in self.scores(fact_texts).items()
        }
        return [
            {
                subtask: tuple(self.labels.of(subtask)[i] for i in order[row])
                for subtask, order in ranked.items()
            }
            for row in range(len(fact_texts))
        ]

    # -- persistence: per subtask, the non-zero weight columns and their
    # values as flat lists (label-major), which keeps the artifact diffable

    def save(self, path: str | Path) -> None:
        weights = {}
        for subtask, w in self._weights.items():
            columns = np.flatnonzero(w.any(axis=0))
            weights[subtask] = {
                "columns": columns.tolist(),
                "rows": w[:, columns].tolist(),
            }
        payload = {
            "hash_dim": self.hash_dim,
            "ngram_sizes": list(self.ngram_sizes),
            "epochs": self.epochs,
            "labels": asdict(self.labels),
            "weights": weights,
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CharNgramPerceptron":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        provider = cls(
            LabelSpace.from_dict(payload["labels"]),
            ngram_sizes=tuple(payload["ngram_sizes"]),
            hash_dim=payload["hash_dim"],
            epochs=payload["epochs"],
        )
        for subtask, stored in payload["weights"].items():
            n_labels = len(provider.labels.of(subtask))
            w = np.zeros((n_labels, provider.hash_dim))
            w[:, stored["columns"]] = np.asarray(stored["rows"], dtype=np.float64)
            provider._weights[subtask] = w
        return provider

