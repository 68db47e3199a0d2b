"""Case corpus handling: loading, validation, splitting, and precedent grouping.

This module also owns the judgment label model: the three subtasks, which
`Judgment` field and `LabelSpace` list each one reads, and a judgment's label
of a consequent kind (`case_label`). Other modules ask these rather than
naming the fields.

Cases arrive as line-delimited JSON. Field names differ between corpora, so
loading takes a schema mapping logical field -> dotted path into each record.
Every case kept carries a judgment: a malformed line, or one missing any of
its three labels, is collected into a rejects report instead of aborting the
load; duplicate case ids abort (they would silently corrupt every downstream
grouping).
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import random
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Collection, Iterable, Optional, Sequence

from .fol import ArticleCharge, ArticleTerm, Consequent, consequent_from_key, consequent_key

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

# the consequent kinds that get rules
RULE_KINDS = (ArticleCharge, ArticleTerm)

# fol.consequent_key joins a target's labels with it, so a label holding it
# cannot round-trip through any stored key
_KEY_SEPARATOR = ","


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
    judgment: Judgment

    def __post_init__(self) -> None:
        if not self.fact_text:
            raise ValueError(f"case {self.case_id}: empty fact_text")


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

    Every line either yields a judged LegalCase or lands in `rejects` with
    its 1-based line number and reason: a line lacking any of the article,
    charge and prison-term labels is rejected. Ordering of accepted cases
    follows the file. A missing case_id mapping synthesizes ids from line
    numbers. Duplicate case ids raise CorpusError.
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

            labels = [
                _as_label(_dig(record, schema[name]))
                for name in ("article", "charge", "prison_term_bucket")
            ]
            if None in labels:
                sink.append(RejectedLine(lineno, "missing judgment labels"))
                continue
            clash = next((v for v in labels if _KEY_SEPARATOR in v), None)
            if clash is not None:
                sink.append(RejectedLine(lineno, f"label {clash!r} holds a key separator"))
                continue

            if case_id in seen_ids:
                raise CorpusError(f"duplicate case_id {case_id!r} at line {lineno}")
            seen_ids.add(case_id)
            cases.append(LegalCase(case_id=case_id, fact_text=fact, judgment=Judgment(*labels)))

    if sink:
        logger.warning("load_cases: %d rejected lines from %s", len(sink), path)
    return cases


def save_cases(path: str | Path, cases: Iterable[LegalCase]) -> None:
    """One JSON line per case in DEFAULT_SCHEMA's fields, which `load_cases` reads back."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for case in cases:
            meta = {
                "relevant_articles": [case.judgment.article_id],
                "accusation": [case.judgment.charge_id],
                "term_bucket": [case.judgment.prison_term_bucket],
            }
            row = {"case_id": case.case_id, "fact": case.fact_text, "meta": meta}
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


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
    to train. Requires at least 3 cases and non-negative ratios summing to 1.
    """
    if min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"ratios must be non-negative and sum to 1, got {list(ratios)}")
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


def save_split(path: str | Path, split: DatasetSplit) -> None:
    """split.json: the case ids of train, validation and test, in split order."""
    payload = {part.name: [c.case_id for c in getattr(split, part.name)] for part in fields(split)}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_split(path: str | Path, cases: dict[str, LegalCase]) -> DatasetSplit:
    """The split `save_split` wrote, each id looked up in `cases`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return DatasetSplit(*(tuple(cases[i] for i in payload[f.name]) for f in fields(DatasetSplit)))


def case_label(case: LegalCase, kind: type[Consequent]) -> Consequent:
    """The case's judgment projected onto a consequent kind."""
    return kind(*(case.judgment.label(s) for s in kind.subtasks))


def label_universe(labels: LabelSpace, kind: type[Consequent]) -> list[Consequent]:
    """Every label of `kind` the label space can form: the labels a quiz on a
    target of that kind draws its options from."""
    return [kind(*combo) for combo in itertools.product(*(labels.of(s) for s in kind.subtasks))]


def group_precedents(
    cases: Iterable[LegalCase],
    kind: type[Consequent],
    k: int,
) -> dict[Consequent, list[LegalCase]]:
    """Group cases by their label of `kind`, in label order.

    Each group keeps the first k cases in input order; empty groups are
    never emitted.
    """
    if k < 1:
        raise CorpusError("k must be >= 1")
    groups: dict[Consequent, list[LegalCase]] = {}
    for case in cases:
        bucket = groups.setdefault(case_label(case, kind), [])
        if len(bucket) < k:
            bucket.append(case)
    return dict(sorted(groups.items(), key=lambda item: astuple(item[0])))


def save_precedents(path: str | Path, groups: dict[Consequent, Sequence[LegalCase]]) -> None:
    """precedents.json: each target's consequent_key -> its case ids, in group order."""
    payload = {consequent_key(t): [case.case_id for case in cases] for t, cases in groups.items()}
    Path(path).write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def load_precedents(
    path: str | Path, cases: dict[str, LegalCase]
) -> dict[Consequent, list[LegalCase]]:
    """The groups `save_precedents` wrote, in file order; ids are looked up in `cases`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {consequent_from_key(key): [cases[i] for i in ids] for key, ids in payload.items()}


def label_space(cases: Collection[LegalCase]) -> LabelSpace:
    """Deduplicated labels in first-appearance order across the cases."""
    return LabelSpace(
        *(tuple(dict.fromkeys(case.judgment.label(s) for case in cases)) for s in SUBTASKS)
    )


def load_label_space(path: str | Path) -> LabelSpace:
    """Label space from a dataset metadata file {articles, charges, prison_terms},
    each a list of string or int labels; an int is read as its decimal string."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise CorpusError(f"labels file {path} does not hold a JSON object")
    for f in fields(LabelSpace):
        values = data.get(f.name)
        if not isinstance(values, list) or any(type(v) not in (str, int) for v in values):
            raise CorpusError(f"labels file {path}: {f.name!r} is not a list of strings or ints")
    return LabelSpace.from_dict(data)


def save_label_space(path: str | Path, labels: LabelSpace) -> None:
    """labels.json: {articles, charges, prison_terms}, which `load_label_space` reads back."""
    Path(path).write_text(
        json.dumps(asdict(labels), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
