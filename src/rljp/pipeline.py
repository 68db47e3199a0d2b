"""Resumable pipeline: nine stages from raw cases to a metrics report.

The stages are the rows of one table, `STAGE_TABLE`, in run order. A row
gives a stage's input files, the config sections its input hash covers, the
fixed outputs it writes, and a body function over the `PipelineRun`; the
optimize body also returns its per-target tree stores as extra outputs.
`STAGES`, `PipelineRun.run_through` and the CLI subcommands all come from
this table, and every stage runs through `PipelineRun._execute`.

Every stage reads and writes plain files under the run directory and records
its input hash plus output hashes in the manifest, by paths relative to the
run directory, so a moved run directory still resumes. On rerun a stage is
skipped exactly when its recorded input hash still matches and all of its
outputs are present with their recorded hashes; an output whose bytes
changed behind the manifest's back is a checksum failure, not a silent
rebuild.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import logging
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import cacl as cacl_mod
from . import opt_tree
from .agents import Transcript
from .candidates import CharNgramPerceptron
from .config import build_agent, build_embedder
from .confusable import (
    ConfusableSet,
    build_confusable_set_from_embeddings,
    embed_cases,
)
from .corpus import (
    DatasetSplit,
    Judgment,
    LabelSpace,
    LegalCase,
    RejectedLine,
    group_precedents,
    label_space,
    load_cases,
    load_label_space,
    split_dataset,
    write_rejects_report,
)
from .examination import examine_case
from .fol import (
    ArticleCharge,
    ArticleTerm,
    Consequent,
    FolRule,
    consequent_from_key,
    consequent_key,
    parse_rule,
    render_rule,
    Provenance,
)
from .metrics import compute_metrics, report_as_json, report_as_table
from .quiz import case_label, make_quiz
from .rule_init import RuleSet, init_all_rules

logger = logging.getLogger(__name__)

# stands for the corpus named by config data.cases_path among a stage's inputs
CORPUS = "data.cases_path"

# the consequent kinds that get rules; precedents.json has one section of
# precedent groups per kind, named by its subtasks joined with "+"
RULE_KINDS = (ArticleCharge, ArticleTerm)


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")


class ChecksumError(StageError):
    pass


@dataclass(frozen=True)
class Stage:
    """One row of the stage table; file names other than CORPUS are in the run dir."""

    inputs: tuple[str, ...]
    config_sections: tuple[str, ...]
    outputs: tuple[str, ...]
    body: Callable[[PipelineRun], Optional[list[Path]]]  # returns extra outputs


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


class PipelineRun:
    """Holds the run directory, manifest, providers, and stage bookkeeping."""

    def __init__(
        self,
        config: dict,
        run_dir: str | Path,
        *,
        mock: bool = False,
        resume: bool = False,
    ):
        self.config = config
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "trees").mkdir(exist_ok=True)
        self.mock = mock
        self.manifest_path = self.run_dir / "manifest.json"
        if self.manifest_path.exists():
            if not resume:
                raise FileExistsError(
                    f"{self.manifest_path} exists; pass --resume or use a fresh --run-dir"
                )
            self.manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            self.manifest["config"] = config
            self.manifest["seed"] = config["seed"]
        else:
            self.manifest = {
                "run_id": uuid.uuid4().hex,
                "created_at": _now(),
                "config": config,
                "seed": config["seed"],
                "providers": {},
                "stages": {},
                "agent_calls": 0,
                "usage": {"input_units": 0, "output_units": 0},
                "artifacts": [],
            }
        self._agents: dict[str, object] = {}
        self.agent = self._agent_for(None)
        self.embedder = build_embedder(config, mock=mock)
        routed = {
            stage: getattr(self._agent_for(stage), "name", "?")
            for stage in config["providers"]["routing"]
        }
        self.manifest["providers"] = {
            "agent": getattr(self.agent, "name", "?"),
            "embedder": getattr(self.embedder, "name", "?"),
            **({"routing": routed} if routed else {}),
        }
        self.transcript = Transcript(self.run_dir / "transcript.jsonl")
        self._cases: Optional[dict[str, LegalCase]] = None
        self._labels: Optional[LabelSpace] = None

    def _agent_for(self, stage: Optional[str]):
        """Stage-routed agent backend; one instance per distinct spec."""
        spec = self.config["providers"]["agent"]
        if stage is not None:
            spec = self.config["providers"]["routing"].get(stage, spec)
        key = json.dumps(spec, sort_keys=True)
        if key not in self._agents:
            self._agents[key] = build_agent(self.config, mock=self.mock, stage=stage)
        return self._agents[key]

    # -- paths

    def path(self, name: str) -> Path:
        """`name` under the run dir; an absolute path (as older manifests
        recorded outputs) stays itself."""
        return self.run_dir / name

    def _input_path(self, name: str) -> Path:
        if name == CORPUS:
            return Path(self.config["data"]["cases_path"])
        return self.path(name)

    def tree_path(self, target_key: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "=,_-" else "-" for c in target_key)
        return self.run_dir / "trees" / f"{safe}.json"

    # -- manifest helpers

    def _save_manifest(self) -> None:
        self.manifest["agent_calls"] = self.transcript.calls
        self.manifest["usage"] = {
            "input_units": self.transcript.input_units,
            "output_units": self.transcript.output_units,
        }
        self.manifest_path.write_text(
            json.dumps(self.manifest, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )

    def _stage_input_hash(self, inputs: list[Path], config_sections: tuple[str, ...]) -> str:
        digest = hashlib.sha256()
        digest.update(str(self.config["seed"]).encode())
        for section in config_sections:
            digest.update(
                json.dumps(self.config.get(section), sort_keys=True).encode()
            )
        for path in inputs:
            digest.update(path.name.encode())
            digest.update(_sha256(path).encode())
        return digest.hexdigest()

    def _execute(self, name: str) -> None:
        stage = STAGE_TABLE[name]
        inputs = [self._input_path(input_name) for input_name in stage.inputs]
        for path in inputs:
            if not path.exists():
                raise StageError(name, f"missing input artifact {path}")
        input_hash = self._stage_input_hash(inputs, stage.config_sections)
        recorded = self.manifest["stages"].get(name)
        if recorded and recorded.get("status") == "ok" and recorded.get("input_hash") == input_hash:
            missing = [p for p in recorded["outputs"] if not self.path(p).exists()]
            if not missing:
                for path_str, digest in recorded["outputs"].items():
                    actual = _sha256(self.path(path_str))
                    if actual != digest:
                        raise ChecksumError(
                            name, f"artifact {path_str} does not match its recorded checksum"
                        )
                logger.info("stage %s: up to date, skipped", name)
                recorded["skipped"] = True
                self._save_manifest()
                return
        entry = {
            "status": "running",
            "started_at": _now(),
            "input_hash": input_hash,
            "outputs": {},
            "skipped": False,
        }
        self.manifest["stages"][name] = entry
        self._save_manifest()
        logger.info("stage %s: running", name)
        started = time.monotonic()
        try:
            extra_outputs = stage.body(self) or []
        except Exception as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
            entry["finished_at"] = _now()
            self._save_manifest()
            if isinstance(exc, StageError):
                raise
            raise StageError(name, str(exc)) from exc
        outputs = [self.path(output) for output in stage.outputs] + extra_outputs
        entry["outputs"] = {
            p.relative_to(self.run_dir).as_posix(): _sha256(p) for p in outputs
        }
        for path_str in entry["outputs"]:
            if path_str not in self.manifest["artifacts"]:
                self.manifest["artifacts"].append(path_str)
        entry["status"] = "ok"
        entry["finished_at"] = _now()
        entry["elapsed_s"] = round(time.monotonic() - started, 3)
        self._save_manifest()

    # -- shared loading (stages re-read artifacts rather than carry state)

    @property
    def cases(self) -> dict[str, LegalCase]:
        """cases.valid.jsonl by case id, in file order; parsed once per run."""
        if self._cases is None:
            cases = load_cases(self.path("cases.valid.jsonl"))
            self._cases = {case.case_id: case for case in cases}
        return self._cases

    @property
    def labels(self) -> LabelSpace:
        """data.labels_path, or else the labels of cases.valid.jsonl; read once per run."""
        if self._labels is None:
            labels_path = self.config["data"]["labels_path"]
            self._labels = (
                load_label_space(labels_path)
                if labels_path
                else label_space(self.cases.values())
            )
        return self._labels

    def _load_split(self) -> DatasetSplit:
        payload = json.loads(self.path("split.json").read_text(encoding="utf-8"))
        return DatasetSplit(
            train=tuple(self.cases[i] for i in payload["train"]),
            validation=tuple(self.cases[i] for i in payload["validation"]),
            test=tuple(self.cases[i] for i in payload["test"]),
        )

    def _load_ruleset(self, filename: str) -> RuleSet:
        payload = json.loads(self.path(filename).read_text(encoding="utf-8"))
        ruleset = RuleSet()
        for key in sorted(payload["rules"]):
            row = payload["rules"][key]
            provenance = Provenance(
                row["provenance"]["kind"], row["provenance"].get("parent_rule_id")
            )
            ruleset.rules[key] = parse_rule(
                row["rule_text"],
                rule_id=row["rule_id"],
                version=row["version"],
                provenance=provenance,
            )
        ruleset.failures = dict(payload.get("failures", {}))
        return ruleset

    def _dump_ruleset(self, ruleset: RuleSet, filename: str, *, weights=None) -> None:
        rows = {}
        for key in sorted(ruleset.rules):
            rule = ruleset.rules[key]
            rows[key] = {
                "target": key,
                "rule_id": rule.rule_id,
                "rule_text": render_rule(rule),
                "version": rule.version,
                "provenance": {
                    "kind": rule.provenance.kind,
                    "parent_rule_id": rule.provenance.parent_rule_id,
                },
            }
            if weights is not None and key in weights:
                rows[key]["weight"] = weights[key]
        payload = {"rules": rows, "failures": dict(sorted(ruleset.failures.items()))}
        self.path(filename).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )

    def _load_precedents(self) -> tuple[list[Consequent], dict[Consequent, list[LegalCase]]]:
        """Targets (one section per RULE_KINDS entry, each sorted) and their
        precedent groups."""
        payload = json.loads(self.path("precedents.json").read_text(encoding="utf-8"))
        targets: list[Consequent] = []
        groups: dict[Consequent, list[LegalCase]] = {}
        for kind in RULE_KINDS:
            section = payload["+".join(kind.subtasks)]
            for key in sorted(section):
                target = kind(*key.split("|", len(kind.subtasks) - 1))
                targets.append(target)
                groups[target] = [self.cases[i] for i in section[key]]
        return targets, groups

    def _load_confusable(self) -> dict[str, ConfusableSet]:
        payload = json.loads(self.path("confusable.json").read_text(encoding="utf-8"))
        return {
            key: ConfusableSet(
                target=consequent_from_key(key),
                positives=tuple(self.cases[i] for i in row["positive_ids"]),
                negatives=tuple(self.cases[i] for i in row["negative_ids"]),
                negative_similarity=dict(row["similarity_of_each_negative"]),
            )
            for key, row in payload.items()
        }

    def run_through(self, last_stage: str) -> dict:
        """Run the stage prefix ending at `last_stage`; returns the manifest."""
        if last_stage not in STAGE_TABLE:
            raise ValueError(f"unknown stage {last_stage!r}")
        for name in STAGES[: STAGES.index(last_stage) + 1]:
            self._execute(name)
        self._save_manifest()
        return self.manifest


# ---------------------------------------------------------------------------
# stage bodies


def _ingest(run: PipelineRun) -> None:
    data = run.config["data"]
    rejects: list[RejectedLine] = []
    cases = load_cases(run._input_path(CORPUS), data["schema"], rejects=rejects)
    if not cases:
        raise ValueError("no valid cases ingested")
    with run.path("cases.valid.jsonl").open("w", encoding="utf-8") as handle:
        for case in cases:
            row = {"case_id": case.case_id, "fact": case.fact_text}
            if case.judgment:
                row["meta"] = {
                    "relevant_articles": [case.judgment.article_id],
                    "accusation": [case.judgment.charge_id],
                    "term_bucket": [case.judgment.prison_term_bucket],
                }
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    write_rejects_report(run.path("rejects.jsonl"), rejects)
    # cases.valid.jsonl was rewritten; reparse it and its labels on next use
    run._cases = None
    run._labels = None


def _split(run: PipelineRun) -> None:
    split = split_dataset(
        list(run.cases.values()), tuple(run.config["data"]["ratios"]), run.config["seed"]
    )
    payload = {
        "train": [c.case_id for c in split.train],
        "validation": [c.case_id for c in split.validation],
        "test": [c.case_id for c in split.test],
    }
    run.path("split.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _group_precedents(run: PipelineRun) -> None:
    split = run._load_split()
    k = run.config["data"]["precedent_k"]
    payload = {}
    for kind in RULE_KINDS:
        mode = "+".join(kind.subtasks)
        groups = group_precedents(split.train, mode, k)
        payload[mode] = {
            "|".join(labels): [c.case_id for c in cases] for labels, cases in sorted(groups.items())
        }
    run.path("precedents.json").write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def _init_rules(run: PipelineRun) -> None:
    targets, groups = run._load_precedents()
    ruleset = init_all_rules(
        groups,
        targets,
        run._agent_for("init-rules"),
        run.labels,
        transcript=run.transcript,
        temperature=run.config["optimization"]["temperature"],
        k=run.config["data"]["precedent_k"],
    )
    if not ruleset.rules:
        raise ValueError("rule initialization produced no rules")
    run._dump_ruleset(ruleset, "rules_init.json")


def _build_confusable(run: PipelineRun) -> None:
    train = list(run._load_split().train)
    embeddings = embed_cases(train, run.embedder)
    row_of = {case_id: i for i, case_id in enumerate(embeddings.case_ids)}
    num_config = run.config["optimization"]["num_negatives"]
    targets, _ = run._load_precedents()
    payload = {}
    for target in targets:
        key = consequent_key(target)
        positives = [c for c in train if case_label(c, target) == target]
        others = [c for c in train if case_label(c, target) != target]
        if not positives or not others:
            logger.warning("target %s has no positives or no others; skipped", key)
            continue
        emb_pos = _slice_embeddings(embeddings, positives, row_of)
        emb_oth = _slice_embeddings(embeddings, others, row_of)
        num = num_config if num_config else len(positives)
        conf = build_confusable_set_from_embeddings(
            emb_pos, emb_oth, positives, others, num, target=target
        )
        payload[key] = {
            "target": key,
            "positive_ids": [c.case_id for c in conf.positives],
            "negative_ids": [c.case_id for c in conf.negatives],
            "similarity_of_each_negative": {
                case_id: round(sim, 12) for case_id, sim in conf.negative_similarity.items()
            },
        }
    if not payload:
        raise ValueError("no confusable sets could be built")
    run.path("confusable.json").write_text(
        json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _optimize(run: PipelineRun) -> list[Path]:
    labels = run.labels
    init_rules = run._load_ruleset("rules_init.json")
    confusable_sets = run._load_confusable()
    opt_config = run.config["optimization"]
    agent = run._agent_for("optimize")
    optimized = RuleSet()
    optimized.failures = dict(init_rules.failures)
    weights: dict[str, float] = {}
    tree_paths: list[Path] = []
    for key in sorted(init_rules.rules):
        if key not in confusable_sets:
            optimized.failures[key] = "no confusable set"
            continue
        conf = confusable_sets[key]
        questions = make_quiz(
            conf,
            labels,
            num_options=run.config["quiz"]["num_options"],
            seed=run.config["seed"],
            distractors_from_negatives=run.config["quiz"]["distractors_from_negatives"],
        )
        store = run.tree_path(key)
        tree_paths.append(store)
        tree = None
        if store.exists():
            # mid-stage resume; a store left by different inputs
            # (changed seed or confusable set) just starts over
            try:
                tree = opt_tree.load_tree(store, conf.target, questions)
                logger.info("resuming tree for %s at iteration %d", key, tree.iteration)
            except Exception as exc:
                logger.warning("tree store %s not resumable (%s); rebuilding", store, exc)
        if tree is None:
            tree = opt_tree.new_tree(init_rules.rules[key])

        def rewrite(rule: FolRule, result, child_rule_id: str) -> FolRule:
            return cacl_mod.optimize_rule(
                rule,
                result,
                agent,
                labels,
                child_rule_id=child_rule_id,
                tag_prefix=f"cacl/{key}",
                transcript=run.transcript,
                temperature=opt_config["temperature"],
                fact_truncate=opt_config["fact_truncate"],
                max_records_per_side=opt_config["max_records_per_side"],
            )

        best = opt_tree.optimize(
            tree,
            questions,
            agent,
            rewrite=rewrite,
            defined_score=opt_config["defined_score"],
            max_iterations=opt_config["max_iterations"],
            transcript=run.transcript,
            concurrency=run.config["agent_concurrency"],
            store_path=store,
        )
        optimized.rules[key] = best
        weights[key] = tree.max_score
    if not optimized.rules:
        raise ValueError("optimization produced no rules")
    run._dump_ruleset(optimized, "rules_optimized.json", weights=weights)
    return tree_paths


def _train_candidates(run: PipelineRun) -> None:
    exam = run.config["examination"]
    provider = CharNgramPerceptron(
        run.labels,
        ngram_sizes=tuple(exam["ngram_sizes"]),
        hash_dim=exam["hash_dim"],
        epochs=exam["epochs"],
    )
    provider.train(list(run._load_split().train))
    provider.save(run.path("candidates.json"))


def _examine(run: PipelineRun) -> None:
    labels = run.labels
    split = run._load_split()
    rules = run._load_ruleset("rules_optimized.json")
    provider = CharNgramPerceptron.load(run.path("candidates.json"))
    exam = run.config["examination"]
    with run.path("predictions.jsonl").open("w", encoding="utf-8") as handle:
        for case in split.test:
            prediction = examine_case(
                case.case_id,
                case.fact_text,
                rules,
                provider,
                labels,
                run._agent_for("examine"),
                seed=run.config["seed"],
                candidate_k=exam["candidate_k"],
                abstract_threshold=exam["abstract_threshold"],
                transcript=run.transcript,
            )
            row = {
                "case_id": prediction.case_id,
                "article": prediction.article_id,
                "charge": prediction.charge_id,
                "term": prediction.prison_term_bucket,
                "used_fallback": prediction.used_fallback,
                "used_abstract": prediction.used_abstract,
                "rationale": prediction.rationale,
            }
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def _evaluate(run: PipelineRun) -> None:
    split = run._load_split()
    gold_by_id: dict[str, Judgment] = {
        case.case_id: case.judgment for case in split.test if case.judgment is not None
    }
    predictions = []
    pred_ids = []
    with run.path("predictions.jsonl").open("r", encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            predictions.append(
                {"article": row["article"], "charge": row["charge"], "prison_term": row["term"]}
            )
            pred_ids.append(row["case_id"])
    gold = [gold_by_id[i] for i in pred_ids]
    report = compute_metrics(
        predictions,
        gold,
        labels=run.labels,
        macro_over_full_label_space=run.config["metrics"]["macro_over_full_label_space"],
    )
    run.path("metrics.json").write_text(report_as_json(report), encoding="utf-8")
    run.path("metrics.txt").write_text(report_as_table(report), encoding="utf-8")


# Stage order is run order. A stage's input hash covers the seed, then its
# config sections, then its inputs, each in the order listed here; reordering
# them invalidates every existing run directory.
STAGE_TABLE: dict[str, Stage] = {
    "ingest": Stage((CORPUS,), ("data",), ("cases.valid.jsonl", "rejects.jsonl"), _ingest),
    "split": Stage(("cases.valid.jsonl",), ("data",), ("split.json",), _split),
    "group-precedents": Stage(
        ("cases.valid.jsonl", "split.json"), ("data",), ("precedents.json",), _group_precedents
    ),
    "init-rules": Stage(
        ("cases.valid.jsonl", "precedents.json"),
        ("data", "optimization", "providers"),
        ("rules_init.json",),
        _init_rules,
    ),
    "build-confusable": Stage(
        ("cases.valid.jsonl", "split.json", "precedents.json"),
        ("data", "optimization", "providers"),
        ("confusable.json",),
        _build_confusable,
    ),
    "optimize": Stage(
        ("cases.valid.jsonl", "rules_init.json", "confusable.json"),
        ("quiz", "optimization", "providers"),
        ("rules_optimized.json",),
        _optimize,
    ),
    "train-candidates": Stage(
        ("cases.valid.jsonl", "split.json"),
        ("data", "examination"),
        ("candidates.json",),
        _train_candidates,
    ),
    "examine": Stage(
        ("cases.valid.jsonl", "split.json", "rules_optimized.json", "candidates.json"),
        ("examination", "providers"),
        ("predictions.jsonl",),
        _examine,
    ),
    "evaluate": Stage(
        ("cases.valid.jsonl", "split.json", "predictions.jsonl"),
        ("metrics",),
        ("metrics.json", "metrics.txt"),
        _evaluate,
    ),
}

STAGES = tuple(STAGE_TABLE)


def run_pipeline(
    config: dict,
    run_dir: str | Path,
    *,
    mock: bool = False,
    resume: bool = False,
    last_stage: str = "evaluate",
) -> dict:
    """Execute the pipeline end to end (or up to `last_stage`)."""
    run = PipelineRun(config, run_dir, mock=mock, resume=resume)
    return run.run_through(last_stage)


# ---------------------------------------------------------------------------
# helpers


def _slice_embeddings(embeddings, cases, row_of):
    import numpy as np

    from .confusable import EmbeddingMatrix

    rows = np.stack([embeddings.vectors[row_of[c.case_id]] for c in cases])
    return EmbeddingMatrix(vectors=rows, case_ids=tuple(c.case_id for c in cases))
