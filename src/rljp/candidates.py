"""Candidate-label prescreening: a character n-gram one-vs-rest linear
classifier trained by averaged perceptron, one model per subtask.

A fact is a sparse vector: the sorted hashed indices of its character
n-grams and their L2-normalised counts. Training and scoring only touch the
weight columns at those indices, and the averaged weights come in closed
form (each update weighted by the steps left after it) rather than by
summing the whole matrix after every step. The saved artifact keeps, per
subtask, only the weight columns that are non-zero.

This stands in for the heavyweight neural prescreener; anything exposing
scores(fact, subtask) can replace it (the examination module only consumes
the protocol).
"""

from __future__ import annotations

import json
import logging
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import SUBTASKS, LabelSpace, LegalCase

logger = logging.getLogger(__name__)


class CandidateProvider(Protocol):
    def scores(self, fact_text: str, subtask: str) -> dict[str, float]: ...


@dataclass(frozen=True)
class CandidateList:
    subtask: str
    entries: tuple[tuple[str, float], ...]  # (label, score), score non-increasing


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

    @property
    def trained(self) -> bool:
        return bool(self._weights)

    def _features(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted hashed n-gram indices of `text` and their unit-norm counts."""
        hashes = [
            zlib.crc32(text[i : i + n].encode("utf-8")) % self.hash_dim
            for n in self.ngram_sizes
            for i in range(len(text) - n + 1)
        ]
        idx, counts = np.unique(np.array(hashes, dtype=np.int64), return_counts=True)
        vals = counts.astype(np.float64)
        norm = np.linalg.norm(vals)
        return idx, (vals / norm if norm else vals)

    def train(self, cases: Sequence[LegalCase]) -> None:
        if not cases:
            raise ValueError("no training cases")
        features = [self._features(case.fact_text) for case in cases]
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

    def scores(self, fact_text: str, subtask: str) -> dict[str, float]:
        if not self.trained:
            raise ProviderNotTrainedError("candidate provider has not been trained")
        idx, vals = self._features(fact_text)
        margins = self._weights[subtask][:, idx] @ vals
        return {
            label: float(margins[i])
            for i, label in enumerate(self.labels.of(subtask))
        }

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
        """Reads the sparse artifact, and also the older dense one whose
        weights are full hash_dim-wide rows."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        provider = cls(
            LabelSpace.from_dict(payload["labels"]),
            ngram_sizes=tuple(payload["ngram_sizes"]),
            hash_dim=payload["hash_dim"],
            epochs=payload["epochs"],
        )
        for subtask, stored in payload["weights"].items():
            if isinstance(stored, list):
                provider._weights[subtask] = np.asarray(stored, dtype=np.float64)
                continue
            n_labels = len(provider.labels.of(subtask))
            w = np.zeros((n_labels, provider.hash_dim))
            w[:, stored["columns"]] = np.asarray(stored["rows"], dtype=np.float64)
            provider._weights[subtask] = w
        return provider


def candidate_labels(
    fact_text: str,
    subtask: str,
    provider: CandidateProvider,
    k: int = 10,
) -> CandidateList:
    """Top-k labels by provider score; ties resolve by label-space order."""
    if subtask not in SUBTASKS:
        raise ValueError(f"unknown subtask {subtask!r}")
    scored = provider.scores(fact_text, subtask)
    order = {label: i for i, label in enumerate(scored)}
    ranked = sorted(scored.items(), key=lambda item: (-item[1], order[item[0]]))
    return CandidateList(subtask=subtask, entries=tuple(ranked[:k]))
