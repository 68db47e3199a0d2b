"""Candidate-label prescreening: a character n-gram one-vs-rest linear
classifier trained by averaged perceptron, one model per subtask.

A fact is a sparse vector: the sorted hashed indices of its character
n-grams and their L2-normalised counts. Each subtask's weights are held, in
memory as in the saved artifact, as a pair: the sorted hashed columns with a
non-zero weight, and a labels x len(columns) block of rows. No
HASH_DIM-wide matrix is built. The artifact keeps the columns as a JSON list
and the rows as base64 text of their raw float64 bytes, so a load restores
every weight exactly by construction and parses no decimal text. Training
stacks the three subtasks' label rows into one block, so each fact costs one
gather, one mat-vec and at most one update, and works on the columns its
facts touch. It comes to the averaged weights in closed form (each update
weighted by the steps left after it) rather than by summing the whole block
after every step, and runs until an epoch makes no update, since every later
epoch would repeat it; the cap of EPOCHS epochs is also the averaging
horizon, so the average is mostly the converged weights. A batch of facts is
featurized in one pass and ranked for every subtask at once. The sizes are
engine constants, read at each use; the artifact records them, and a load
rejects a file hashed under other sizes.

This stands in for the heavyweight neural prescreener.
"""

from __future__ import annotations

import base64
import json
import logging
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .confusable import gram_hashes
from .corpus import SUBTASKS, LabelSpace, LegalCase

logger = logging.getLogger(__name__)

NGRAM_SIZES = (1, 2, 3)  # the character n-grams a fact's features hash
HASH_DIM = 32768  # the hashed feature columns
EPOCHS = 50  # the training cap, and the horizon the weights are averaged over

_ROW_DTYPE = np.dtype("<f8")  # the saved rows' bytes, whatever the platform's order


def _base64_bytes(text) -> bytes | None:
    """The bytes that `text` spells in base64, or None if it is not base64 text."""
    if not isinstance(text, str):
        return None
    try:
        return base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        return None


class ProviderNotTrainedError(RuntimeError):
    pass


class CharNgramPerceptron:
    """One-vs-rest averaged perceptron over hashed character n-grams."""

    def __init__(self, labels: LabelSpace):
        self.labels = labels
        # per subtask: sorted non-zero columns, and a labels x len(columns) block
        self._weights: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _features(self, texts: Sequence[str]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per text, its sorted hashed n-gram indices and their unit-norm counts."""
        features = []
        for hashes in gram_hashes(texts, NGRAM_SIZES):
            idx, counts = np.unique(hashes % HASH_DIM, return_counts=True)
            vals = counts.astype(np.float64)
            norm = np.linalg.norm(vals)
            features.append((idx, vals / norm if norm else vals))
        return features

    def train(self, cases: Sequence[LegalCase]) -> None:
        if not cases:
            raise ValueError("no training cases")
        features = self._features([case.fact_text for case in cases])
        # the columns any fact touches, and each fact's indices among them
        touched = np.unique(np.concatenate([idx for idx, _ in features]))
        local = [(np.searchsorted(touched, idx), vals) for idx, vals in features]
        # every subtask's label rows stacked in one block, so a fact takes one
        # gather, one mat-vec and at most one update for all three; a row
        # reads and writes only itself, so each subtask trains as if alone
        label_lists = [self.labels.of(subtask) for subtask in SUBTASKS]
        starts = np.cumsum([0] + [len(label_list) for label_list in label_lists])
        targets = np.full((len(cases), starts[-1]), -1.0)
        for subtask, label_list, start in zip(SUBTASKS, label_lists, starts):
            index = {label: start + i for i, label in enumerate(label_list)}
            gold = [index[case.judgment.label(subtask)] for case in cases]
            targets[np.arange(len(cases)), gold] = 1.0
        w = np.zeros((starts[-1], len(touched)))
        # sum over steps of the weights after each step: the update made at
        # step s is present in the (steps - s) sums from s onwards
        accum = np.zeros_like(w)
        steps = EPOCHS * len(cases)
        step = 0
        for epoch in range(1, EPOCHS + 1):
            updated = False
            for (idx, vals), target in zip(local, targets):
                wrong = np.flatnonzero(((w[:, idx] @ vals) * target) <= 0)
                if wrong.size:
                    block = np.ix_(wrong, idx)
                    delta = np.outer(target[wrong], vals)
                    w[block] += delta
                    accum[block] += (steps - step) * delta
                    updated = True
                step += 1
            if not updated:
                # the weights are unchanged, so every later epoch is this one;
                # a subtask's rows stop changing at its own first such epoch
                outcome = f"converged: epoch {epoch} of {EPOCHS} made no update"
                break
        else:
            outcome = f"stopped at the {EPOCHS}-epoch cap without converging"
        averaged = accum / steps
        for subtask, start, end in zip(SUBTASKS, starts, starts[1:]):
            rows = averaged[start:end]
            kept = rows.any(axis=0)
            self._weights[subtask] = (touched[kept], rows[:, kept])
        logger.info("candidate provider trained on %d cases; %s", len(cases), outcome)

    def scores(self, fact_texts: Sequence[str]) -> dict[str, np.ndarray]:
        """Per subtask, the margins of each text (a row) for each label (a
        column, in label-space order)."""
        if not self._weights:
            raise ProviderNotTrainedError("candidate provider has not been trained")
        features = self._features(fact_texts)
        margins = {}
        for subtask in SUBTASKS:
            columns, rows = self._weights[subtask]
            # each hashed index's place among the columns; an index with no
            # weight points at a trailing zero column, so a fact's gathered
            # values are those of the HASH_DIM-wide matrix, in the same order
            position = np.full(HASH_DIM, len(columns))
            position[columns] = np.arange(len(columns))
            padded = np.hstack([rows, np.zeros((len(rows), 1))])
            # a row-wise sum, not a BLAS mat-vec: the mat-vec can round equal
            # weight rows differently, and tied labels must stay tied; the
            # reshape keeps an empty batch two-dimensional
            margins[subtask] = np.array(
                [(padded[:, position[idx]] * vals).sum(axis=1) for idx, vals in features]
            ).reshape(len(features), len(rows))
        return margins

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

    # -- persistence: per subtask, the weights' pair as it is held: the
    # columns as a JSON list, and the rows as one base64 string of their
    # label-major little-endian float64 bytes, which round-trip exactly and
    # load without parsing a decimal per weight

    def save(self, path: str | Path) -> None:
        payload = {
            "hash_dim": HASH_DIM,
            "ngram_sizes": list(NGRAM_SIZES),
            "epochs": EPOCHS,
            "labels": asdict(self.labels),
            "weights": {
                subtask: {
                    "columns": columns.tolist(),
                    "rows": base64.b64encode(rows.astype(_ROW_DTYPE).tobytes()).decode("ascii"),
                }
                for subtask, (columns, rows) in self._weights.items()
            },
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CharNgramPerceptron":
        """The provider saved at `path`; ValueError naming the file unless it
        was hashed under HASH_DIM and NGRAM_SIZES, and naming the subtask too
        unless its weights hold, for exactly the three subtasks, strictly
        increasing columns in [0, HASH_DIM) and rows that are base64 text of
        labels x columns float64 values."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        for key, value in (("hash_dim", HASH_DIM), ("ngram_sizes", list(NGRAM_SIZES))):
            if payload[key] != value:
                raise ValueError(
                    f"{path}: {key} is {payload[key]!r}, not the prescreener's {value!r}"
                )
        provider = cls(LabelSpace.from_dict(payload["labels"]))
        weights = payload["weights"]
        unmatched = sorted(set(SUBTASKS) ^ set(weights))
        if unmatched:
            subtask = unmatched[0]
            kind = "missing" if subtask in SUBTASKS else "not a subtask"
            raise ValueError(f"{path}: weights for subtask {subtask!r}: {kind}")
        for subtask in SUBTASKS:
            columns, rows = weights[subtask]["columns"], weights[subtask]["rows"]
            n_labels = len(provider.labels.of(subtask))
            problem = None
            # numpy would read a JSON true among ints as 1, so the element
            # types are compared one by one (at C speed); numpy checks the rest
            ints = isinstance(columns, list) and set(map(type, columns)) <= {int}
            array = np.asarray(columns) if ints else None
            if not ints or array.size and (
                array.min() < 0 or array.max() >= HASH_DIM
            ):
                problem = f"columns are not all ints in [0, {HASH_DIM})"
            elif (np.diff(array) <= 0).any():
                problem = "columns are not strictly increasing"
            elif (blob := _base64_bytes(rows)) is None:
                problem = "rows are not base64 text"
            elif len(blob) != n_labels * len(columns) * _ROW_DTYPE.itemsize:
                problem = (
                    f"rows hold {len(blob)} bytes, not {n_labels} labels x "
                    f"{len(columns)} columns of float64"
                )
            if problem:
                raise ValueError(f"{path}: weights for subtask {subtask!r}: {problem}")
            provider._weights[subtask] = (
                array.astype(np.int64),
                np.frombuffer(blob, dtype=_ROW_DTYPE).reshape(n_labels, len(columns)),
            )
        return provider
