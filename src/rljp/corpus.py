"""Case corpus handling: loading, validation, splitting, and precedent grouping.

This module also owns the judgment label model: the three subtasks, and which
`Judgment` field and `LabelSpace` list each one reads. Other modules ask
`Judgment.label` and `LabelSpace.of` rather than naming the fields.

Cases arrive as line-delimited JSON. Field names differ between corpora, so
loading takes a schema mapping logical field -> dotted path into each record.
Malformed lines are collected into a rejects report instead of aborting the
load; duplicate case ids abort (they would silently corrupt every downstream
grouping).
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

logger = logging.getLogger(__name__)

# CAIL2018-style field names; values are dotted paths into the JSON record.
DEFAULT_SCHEMA = {
    "case_id": "case_id",
    "fact_text": "fact",
    "article": "meta.relevant_articles",
    "charge": "meta.accusation",
    "prison_term_bucket": "meta.term_bucket",
}

# Each judgment subtask, in prediction order, with the Judgment field that
# holds its label and the LabelSpace list of labels it chooses among.
_SUBTASK_FIELDS = {
    "article": ("article_id", "articles"),
    "charge": ("charge_id", "charges"),
    "prison_term": ("prison_term_bucket", "prison_terms"),
}
SUBTASKS = tuple(_SUBTASK_FIELDS)


def _subtask_fields(subtask: str) -> tuple[str, str]:
    if subtask not in _SUBTASK_FIELDS:
        raise ValueError(f"unknown subtask {subtask!r}")
    return _SUBTASK_FIELDS[subtask]


@dataclass(frozen=True)
class Judgment:
    article_id: str
    charge_id: str
    prison_term_bucket: str

    def label(self, subtask: str) -> str:
        """This judgment's label for `subtask`."""
        return getattr(self, _subtask_fields(subtask)[0])


@dataclass(frozen=True)
class LegalCase:
    case_id: str
    fact_text: str
    judgment: Optional[Judgment] = None
    fact_length: int = 0

    def __post_init__(self) -> None:
        if not self.fact_text:
            raise ValueError(f"case {self.case_id}: empty fact_text")
        if self.fact_length == 0:
            object.__setattr__(self, "fact_length", len(self.fact_text))
        elif self.fact_length != len(self.fact_text):
            raise ValueError(f"case {self.case_id}: fact_length mismatch")


@dataclass(frozen=True)
class LabelSpace:
    articles: tuple[str, ...]
    charges: tuple[str, ...]
    prison_terms: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in ("articles", "charges", "prison_terms"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate entries in {name}")

    def of(self, subtask: str) -> tuple[str, ...]:
        """The labels `subtask` chooses among."""
        return getattr(self, _subtask_fields(subtask)[1])

    @classmethod
    def from_dict(cls, data: dict) -> "LabelSpace":
        """Inverse of `dataclasses.asdict`: {articles, charges, prison_terms}."""
        return cls(*(tuple(str(v) for v in data[f.name]) for f in fields(cls)))


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[LegalCase, ...]
    validation: tuple[LegalCase, ...]
    test: tuple[LegalCase, ...]


@dataclass
class RejectedLine:
    line: int
    reason: str


class CorpusError(ValueError):
    pass


def _dig(record: dict, dotted: str):
    value = record
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _as_label(value) -> Optional[str]:
    # CAIL-style fields are often one-element lists
    if isinstance(value, list):
        if len(value) != 1:
            return None
        value = value[0]
    if isinstance(value, (str, int)):
        text = str(value).strip()
        return text or None
    return None


def load_cases(
    path: str | Path,
    schema: Optional[dict[str, str]] = None,
    *,
    rejects: Optional[list[RejectedLine]] = None,
) -> list[LegalCase]:
    """Load cases from a JSONL file.

    Every line either yields a LegalCase or lands in `rejects` with its
    1-based line number; ordering of accepted cases follows the file. A
    missing case_id mapping synthesizes ids from line numbers. Duplicate
    case ids raise CorpusError.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    path = Path(path)
    cases: list[LegalCase] = []
    seen_ids: set[str] = set()
    sink = rejects if rejects is not None else []

    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                sink.append(RejectedLine(lineno, f"invalid JSON: {exc.msg}"))
                continue
            if not isinstance(record, dict):
                sink.append(RejectedLine(lineno, "record is not a JSON object"))
                continue

            case_id = _dig(record, schema["case_id"]) if schema.get("case_id") else None
            if case_id is None:
                case_id = f"case_{lineno:06d}"
            case_id = str(case_id)

            fact = _dig(record, schema["fact_text"])
            if not isinstance(fact, str) or not fact:
                sink.append(RejectedLine(lineno, "missing or empty fact text"))
                continue

            article = _as_label(_dig(record, schema["article"]))
            charge = _as_label(_dig(record, schema["charge"]))
            term = _as_label(_dig(record, schema["prison_term_bucket"]))
            judgment = None
            present = [v is not None for v in (article, charge, term)]
            if all(present):
                judgment = Judgment(article, charge, term)
            elif any(present):
                sink.append(RejectedLine(lineno, "incomplete judgment labels"))
                continue

            if case_id in seen_ids:
                raise CorpusError(f"duplicate case_id {case_id!r} at line {lineno}")
            seen_ids.add(case_id)
            cases.append(LegalCase(case_id=case_id, fact_text=fact, judgment=judgment))

    if sink:
        logger.warning("load_cases: %d rejected lines from %s", len(sink), path)
    return cases


def write_rejects_report(path: str | Path, rejects: Sequence[RejectedLine]) -> None:
    """One JSON object per rejected line: {line, reason}."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for reject in rejects:
            handle.write(json.dumps({"line": reject.line, "reason": reject.reason}))
            handle.write("\n")


def split_dataset(
    cases: Sequence[LegalCase],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> DatasetSplit:
    """Deterministic shuffle-and-slice split.

    Validation and test sizes are floors of their ratios; the remainder goes
    to train. Requires at least 3 cases and ratios summing to 1.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"ratios must sum to 1, got {sum(ratios)}")
    if len(cases) < 3:
        raise CorpusError(f"need at least 3 cases to split, got {len(cases)}")
    order = list(cases)
    random.Random(seed).shuffle(order)
    n = len(order)
    n_validation = math.floor(ratios[1] * n)
    n_test = math.floor(ratios[2] * n)
    n_train = n - n_validation - n_test
    return DatasetSplit(
        train=tuple(order[:n_train]),
        validation=tuple(order[n_train : n_train + n_validation]),
        test=tuple(order[n_train + n_validation :]),
    )


def group_precedents(
    cases: Iterable[LegalCase],
    mode: str,
    k: int,
) -> dict[tuple[str, ...], list[LegalCase]]:
    """Group judged cases by their labels for the subtasks `mode` names.

    `mode` joins subtasks with "+", e.g. "article+charge" groups by
    (article, charge). Each group keeps the first k cases in input order;
    empty groups are never emitted.
    """
    subtasks = mode.split("+")
    if any(subtask not in _SUBTASK_FIELDS for subtask in subtasks):
        raise CorpusError(f"unknown precedent mode {mode!r}")
    if k < 1:
        raise CorpusError("k must be >= 1")
    groups: dict[tuple[str, ...], list[LegalCase]] = {}
    for case in cases:
        if case.judgment is None:
            raise CorpusError(f"case {case.case_id} has no judgment")
        key = tuple(case.judgment.label(subtask) for subtask in subtasks)
        bucket = groups.setdefault(key, [])
        if len(bucket) < k:
            bucket.append(case)
    return groups


def long_subset(cases: Sequence[LegalCase], fraction: float) -> list[LegalCase]:
    """The ceil(fraction * n) longest cases, ties broken by case_id ascending."""
    if not 0 < fraction <= 1:
        raise CorpusError(f"fraction must be in (0, 1], got {fraction}")
    if not cases:
        return []
    count = math.ceil(fraction * len(cases))
    ranked = sorted(cases, key=lambda c: (-c.fact_length, c.case_id))
    return ranked[:count]


def label_space(cases: Iterable[LegalCase]) -> LabelSpace:
    """Deduplicated labels in first-appearance order across judged cases."""
    articles: dict[str, None] = {}
    charges: dict[str, None] = {}
    terms: dict[str, None] = {}
    for case in cases:
        if case.judgment is None:
            raise CorpusError(f"case {case.case_id} has no judgment")
        articles.setdefault(case.judgment.article_id)
        charges.setdefault(case.judgment.charge_id)
        terms.setdefault(case.judgment.prison_term_bucket)
    return LabelSpace(tuple(articles), tuple(charges), tuple(terms))


def load_label_space(path: str | Path) -> LabelSpace:
    """Label space from a dataset metadata file {articles, charges, prison_terms}."""
    return LabelSpace.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
