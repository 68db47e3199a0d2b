"""Correctness gate for one finished repetition.

Predictions are judged against the gold labels that `write_corpus` wrote,
not against anything the pipeline produced. The split is only trusted after
it is shown to partition the corpus with the test share the ratios demand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

STAGES = (
    "ingest",
    "split",
    "group-precedents",
    "init-rules",
    "build-confusable",
    "optimize",
    "train-candidates",
    "examine",
    "evaluate",
)
RESUMED = STAGES[: STAGES.index("examine")]  # verified and skipped by the resumed run
SUBTASK_FIELDS = {"article": "article", "charge": "charge", "prison_term": "term"}
TAG_KINDS = ("init", "quiz", "cacl", "exam", "abstract")


@dataclass
class RepCheck:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    agent_calls: int = 0
    calls_by_kind: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    artifact_bytes: int = 0
    tree_bytes: int = 0
    candidates_bytes: int = 0
    fallback_frac: float = 0.0
    abstract_frac: float = 0.0


def load_gold(corpus_dir: Path) -> dict[str, tuple[str, str, str]]:
    gold = {}
    with (corpus_dir / "cases.jsonl").open(encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            meta = row["meta"]
            gold[row["case_id"]] = (
                meta["relevant_articles"][0],
                meta["accusation"][0],
                meta["term_bucket"][0],
            )
    return gold


def outputs_digest(run_dir: Path) -> str:
    """sha256 over predictions.jsonl, metrics.json and trees/*.json."""
    digest = hashlib.sha256()
    paths = [run_dir / "predictions.jsonl", run_dir / "metrics.json"]
    paths += sorted((run_dir / "trees").glob("*.json"))
    for path in paths:
        digest.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def check_run(work: Path, num_test: int) -> RepCheck:
    """Judge the run under `work/run` against the gold under `work/corpus`.

    A run whose outputs cannot be read counts every expected test case as
    failed.
    """
    run_dir = work / "run"
    try:
        return _check(run_dir, load_gold(work / "corpus"), num_test)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return RepCheck(num_test, num_test, [f"unreadable run outputs: {exc!r}"])


def _check(run_dir: Path, gold: dict, num_test: int) -> RepCheck:
    problems: list[str] = []
    split = json.loads((run_dir / "split.json").read_text(encoding="utf-8"))
    parts = [split["train"], split["validation"], split["test"]]
    if sorted(i for part in parts for i in part) != sorted(gold):
        problems.append("split.json does not partition the corpus")
    test_ids = list(split["test"])
    if len(test_ids) != num_test:
        problems.append(f"split has {len(test_ids)} test cases, expected {num_test}")

    rows = _read_jsonl(run_dir / "predictions.jsonl")
    by_id: dict[str, dict] = {}
    for row in rows:
        if row["case_id"] in by_id:
            problems.append(f"duplicate prediction for {row['case_id']}")
        by_id[row["case_id"]] = row
    extra = sorted(set(by_id) - set(test_ids))
    if extra:
        problems.append(f"{len(extra)} predictions for cases outside the test split")

    failed = 0
    for case_id in test_ids:
        row = by_id.get(case_id)
        failed += row is None or tuple(row[f] for f in SUBTASK_FIELDS.values()) != gold[case_id]

    # the program's own report must agree with the gold over the rows it scored
    report = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
    if report["num_cases"] != len(rows):
        problems.append(f"metrics.json scores {report['num_cases']} cases, not {len(rows)}")
    for index, (subtask, key) in enumerate(SUBTASK_FIELDS.items()):
        hits = sum(row["case_id"] in gold and row[key] == gold[row["case_id"]][index] for row in rows)
        reported = report["subtasks"][subtask]["accuracy"]
        if rows and abs(reported - hits / len(rows)) > 1e-9:
            problems.append(f"metrics.json {subtask} accuracy {reported} != {hits / len(rows)}")

    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    for stage in STAGES:
        entry = manifest["stages"].get(stage, {})
        if entry.get("status") != "ok":
            problems.append(f"stage {stage} is {entry.get('status')!r}")
        elif entry.get("skipped") != (stage in RESUMED):
            problems.append(f"stage {stage} skipped={entry.get('skipped')} on resume")

    transcript = _read_jsonl(run_dir / "transcript.jsonl")
    if manifest["agent_calls"] != len(transcript):
        problems.append("manifest agent_calls disagrees with the transcript")
    calls_by_kind = {kind: 0 for kind in TAG_KINDS}
    for entry in transcript:
        kind = entry["tag"].split("/", 1)[0]
        calls_by_kind[kind] = calls_by_kind.get(kind, 0) + 1

    fallbacks = sum(sum(row["used_fallback"].values()) for row in rows)
    return RepCheck(
        attempted=len(test_ids),
        failed=failed,
        problems=problems,
        digest=outputs_digest(run_dir),
        agent_calls=len(transcript),
        calls_by_kind=calls_by_kind,
        retries=sum(entry["retries"] for entry in transcript),
        artifact_bytes=_size(run_dir),
        tree_bytes=_size(run_dir / "trees"),
        candidates_bytes=(run_dir / "candidates.json").stat().st_size,
        fallback_frac=fallbacks / (len(rows) * len(SUBTASK_FIELDS)) if rows else 0.0,
        abstract_frac=sum(row["used_abstract"] for row in rows) / len(rows) if rows else 0.0,
    )
