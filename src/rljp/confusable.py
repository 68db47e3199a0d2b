"""Confusable-case mining: embed facts, rank cross-label cosine similarity,
and collect each target's hardest negatives.

For a target label combination, the validation set pairs its positives with
the other-label cases whose facts sit closest in embedding space: per
positive, the single most similar other-label case is taken, the picks are
deduplicated keeping the highest similarity, and the top `num` survive.
"""

from __future__ import annotations

import json
import logging
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .agents import AgentError, HttpClient, RetryPolicy, retry
from .corpus import LegalCase
from .fol import Consequent, consequent_from_key

logger = logging.getLogger(__name__)

# texts per /embeddings request; OpenAI's endpoint takes at most 2048
EMBED_BATCH = 64
# characters whose n-grams `gram_hashes` hashes in one numpy pass; 8192 ran the
# kernel about a third faster but left the agent-latency benchmark's peak RSS
# 1.4 MB higher (BENCH_18.json, 2-vCPU x86-64 VM)
GRAM_CHUNK = 1 << 11
# the character n-grams `HashingEmbedder` hashes
EMBED_NGRAM_SIZES = (3,)


class EmbeddingBackend(Protocol):
    name: str

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray: ...


@dataclass(frozen=True)
class EmbeddingMatrix:
    vectors: np.ndarray  # (m, d)
    case_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[1] == 0:
            raise ValueError("vectors must be a non-degenerate 2-D array")
        if self.vectors.shape[0] != len(self.case_ids):
            raise ValueError("row count must match case_ids")
        finite = np.isfinite(self.vectors).all(axis=1)
        if not finite.all():
            bad = self.case_ids[int(np.argmin(finite))]
            raise ValueError(f"non-finite embedding vector for case {bad}")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(norms == 0):
            bad = self.case_ids[int(np.argmin(norms))]
            raise ValueError(f"zero embedding vector for case {bad}")

    def select(self, cases: Sequence[LegalCase]) -> "EmbeddingMatrix":
        """The rows of `cases`, in their order; each case must have a row."""
        row_of = {case_id: row for row, case_id in enumerate(self.case_ids)}
        rows = [row_of[case.case_id] for case in cases]
        return EmbeddingMatrix(self.vectors[rows], tuple(case.case_id for case in cases))


@dataclass(frozen=True)
class ConfusableSet:
    target: Consequent
    positives: tuple[LegalCase, ...]
    negatives: tuple[LegalCase, ...]
    negative_similarity: dict[str, float]  # case_id -> mined similarity

    def validation_cases(self) -> list[LegalCase]:
        """V_target: positives followed by mined negatives."""
        return list(self.positives) + list(self.negatives)


def save_confusable(path: str | Path, sets: dict[str, ConfusableSet]) -> None:
    """confusable.json by target key; each negative's similarity is rounded to 12 places."""
    payload = {
        key: {
            "target": key,
            "positive_ids": [case.case_id for case in conf.positives],
            "negative_ids": [case.case_id for case in conf.negatives],
            "similarity_of_each_negative": {
                case_id: round(sim, 12) for case_id, sim in conf.negative_similarity.items()
            },
        }
        for key, conf in sets.items()
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_confusable(path: str | Path, cases: dict[str, LegalCase]) -> dict[str, ConfusableSet]:
    """The sets `save_confusable` wrote, by target key; ids are looked up in `cases`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        key: ConfusableSet(
            target=consequent_from_key(key),
            positives=tuple(cases[i] for i in row["positive_ids"]),
            negatives=tuple(cases[i] for i in row["negative_ids"]),
            negative_similarity=dict(row["similarity_of_each_negative"]),
        )
        for key, row in payload.items()
    }


def _crc32_table() -> np.ndarray:
    """zlib's CRC-32 lookup table (reflected polynomial 0xEDB88320)."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()
# a UTF-8 lead byte's marker bits, by the character's continuation-byte count
_UTF8_LEAD = np.array([0x00, 0xC0, 0xE0, 0xF0], dtype=np.uint32)


def _utf8_planes(text: str, length: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per character of `text`, zero-padded to `length`: its number of UTF-8
    continuation bytes, and plane j holding its byte j."""
    codes = np.zeros(length, dtype=np.uint32)
    codes[: len(text)] = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    tail = (codes >= 0x80).astype(np.uint32) + (codes >= 0x800) + (codes >= 0x10000)
    planes = [(codes >> 6 * tail) | _UTF8_LEAD[tail]]
    for j in range(1, int(tail.max(initial=0)) + 1):
        planes.append(0x80 | ((codes >> 6 * (tail - np.minimum(tail, j))) & 0x3F))
    return tail, planes


def gram_hashes(texts: Sequence[str], ngram_sizes: Sequence[int]) -> list[np.ndarray]:
    """Per text, the crc32 of each UTF-8 character n-gram, by size, then by
    position: `[zlib.crc32(text[i:i+n].encode("utf-8")) for n in ngram_sizes
    for i in range(len(text) - n + 1)]` as an int64 array.

    Table-driven CRC-32 runs over every window of the joined batch at once,
    GRAM_CHUNK window starts per pass, so numpy's temporaries stay the same
    size however many texts there are. It takes one step per UTF-8 byte of
    each window's next character, masked where that character has fewer
    bytes; the state after n - 1 characters continues to n, and a window
    that would cross into the next text is dropped.
    """
    sizes = tuple(ngram_sizes)
    if any(n < 1 for n in sizes):
        raise ValueError(f"n-gram sizes must be positive, got {sizes}")
    lengths = np.array([len(text) for text in texts], dtype=np.int64)
    ends = np.cumsum(lengths)
    # grams per (text, size), and where each run starts in the flat output
    counts = np.maximum(lengths[:, None] - np.array(sizes, dtype=np.int64) + 1, 0)
    offsets = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
    first = offsets[:-1, None] + np.cumsum(counts, axis=1) - counts
    out = np.empty(offsets[-1], dtype=np.int64)
    joined = "".join(texts)
    longest = max(sizes, default=1)
    for chunk in range(0, len(joined), GRAM_CHUNK):
        span = min(GRAM_CHUNK, len(joined) - chunk)
        tail, planes = _utf8_planes(joined[chunk : chunk + span + longest - 1], span + longest - 1)
        start = np.arange(chunk, chunk + span)
        owner = np.searchsorted(ends, start, side="right")
        room = ends[owner] - start  # characters from the window's start to its text's end
        at = lengths[owner] - room  # the window's start within its text
        state = np.full(span, 0xFFFFFFFF, dtype=np.uint32)
        for k in range(longest):
            for j, plane in enumerate(planes):
                # every character has byte 0; byte j only one with j or more continuations
                step = _CRC32_TABLE[(state ^ plane[k : k + span]) & 0xFF] ^ (state >> 8)
                state = step if j == 0 else np.where(tail[k : k + span] >= j, step, state)
            for s, n in enumerate(sizes):
                if n == k + 1:
                    keep = room >= n
                    out[first[owner[keep], s] + at[keep]] = state[keep] ^ 0xFFFFFFFF
    return [out[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


class HashingEmbedder:
    """Deterministic offline embedder: character n-grams feature-hashed into a
    fixed dimension, L2-normalized.

    Buckets and signs come from crc32, so rows are stable across processes
    and platforms. Texts shorter than the smallest n-gram fall back to one
    whole-text feature, keeping every row nonzero.
    """

    name = "hashing-ngram"

    def __init__(self, dim: int = 256):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, (text, hashes) in enumerate(zip(texts, gram_hashes(texts, EMBED_NGRAM_SIZES))):
            whole = zlib.crc32(text.encode("utf-8"))
            if not hashes.size:
                hashes = np.array([whole])
            # the signed counts are small integers, so summing them is exact
            signs = np.where(hashes >> 31, -1.0, 1.0)
            out[row] = np.bincount(hashes % self.dim, weights=signs, minlength=self.dim)
            norm = np.linalg.norm(out[row])
            if norm == 0:
                # all-sign cancellation; pin a single deterministic bucket
                out[row, whole % self.dim] = 1.0
                norm = 1.0
            out[row] /= norm
        return out


class HttpEmbedder(HttpClient):
    """OpenAI-compatible /embeddings endpoint client. It posts the texts
    EMBED_BATCH at a time, and retries each batch under `policy` as
    `complete` retries a chat call."""

    policy = RetryPolicy()

    def _embed_batch(self, batch: list[str]) -> list[list[float]]:
        body = self.post("embeddings", {"model": self.model, "input": batch})
        try:
            rows = [row["embedding"] for row in sorted(body["data"], key=lambda row: row["index"])]
        except (LookupError, TypeError) as exc:
            raise AgentError(f"malformed response body: {exc!r}") from exc
        if len(rows) != len(batch):
            raise AgentError(f"malformed response body: {len(rows)} rows for {len(batch)} texts")
        return rows

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        rows: list[list[float]] = []
        for start in range(0, len(texts), EMBED_BATCH):
            batch = list(texts[start : start + EMBED_BATCH])
            embedded, _ = retry(
                partial(self._embed_batch, batch),
                f"embeddings[{start}:{start + len(batch)}]",
                policy=self.policy,
            )
            rows += embedded
        return np.asarray(rows, dtype=np.float64)


def embed_cases(
    cases: Sequence[LegalCase], provider: EmbeddingBackend
) -> EmbeddingMatrix:
    """Embed each case's fact text; row i corresponds to cases[i]."""
    if not cases:
        raise ValueError("no cases to embed")
    try:
        vectors = provider.embed_texts([case.fact_text for case in cases])
    except Exception as exc:
        raise RuntimeError(
            f"embedding failed (first case {cases[0].case_id}): {exc}"
        ) from exc
    return EmbeddingMatrix(
        vectors=np.asarray(vectors, dtype=np.float64),
        case_ids=tuple(case.case_id for case in cases),
    )


def cosine_similarity_matrix(
    targets: EmbeddingMatrix, others: EmbeddingMatrix
) -> np.ndarray:
    """Pairwise cosine similarity between target rows and other rows, an
    (m, n) array clipped to [-1, 1]."""
    if targets.vectors.shape[1] != others.vectors.shape[1]:
        raise ValueError(
            f"dimension mismatch: {targets.vectors.shape[1]} vs {others.vectors.shape[1]}"
        )
    t = targets.vectors / np.linalg.norm(targets.vectors, axis=1, keepdims=True)
    o = others.vectors / np.linalg.norm(others.vectors, axis=1, keepdims=True)
    return np.clip(t @ o.T, -1.0, 1.0)


def select_hard_negatives(
    similarity: np.ndarray,
    others: Sequence[LegalCase],
    num: int,
) -> tuple[list[LegalCase], dict[str, float]]:
    """Per positive row, take the most-similar other case (column j is
    `others[j]`); dedup keeping the highest similarity; keep the top `num` by
    (similarity desc, case_id asc)."""
    if num < 1:
        raise ValueError("num must be >= 1")
    by_id = {case.case_id: case for case in others}
    best: dict[str, float] = {}
    for row in similarity:
        col = int(np.argmax(row))  # ties: first column in input order
        case_id = others[col].case_id
        value = float(row[col])
        if case_id not in best or value > best[case_id]:
            best[case_id] = value
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    if len(ranked) < num:
        logger.warning(
            "requested %d negatives but only %d distinct top matches available",
            num,
            len(ranked),
        )
    chosen = ranked[:num]
    return [by_id[case_id] for case_id, _ in chosen], dict(chosen)


def build_confusable_set_from_embeddings(
    emb_positives: EmbeddingMatrix,
    emb_others: EmbeddingMatrix,
    positives: Sequence[LegalCase],
    others: Sequence[LegalCase],
    num: int,
    *,
    target: Consequent,
) -> ConfusableSet:
    """Mine the hardest other-label cases for `positives` and assemble the
    confusable validation set. Row i of `emb_positives` (`emb_others`) embeds
    `positives[i]` (`others[i]`)."""
    similarity = cosine_similarity_matrix(emb_positives, emb_others)
    negatives, sims = select_hard_negatives(similarity, others, num)
    return ConfusableSet(
        target=target,
        positives=tuple(positives),
        negatives=tuple(negatives),
        negative_similarity=sims,
    )
