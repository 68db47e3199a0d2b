"""Resumable pipeline: nine stages from raw cases to a metrics report.

The stages are the rows of one table, `STAGE_TABLE`, in run order. A row
records what its body depends on: the dotted config keys it reads (its
settings), the engine constants and prompt texts it reads (its engine
values, each `module.NAME` in the module that defines it) and its input
files in the run directory. It also gives the fixed outputs the body
writes, and the body, a function over the `PipelineRun`; the optimize body
also returns its per-target tree stores as extra outputs. `STAGES`,
`PipelineRun.run_through` and the CLI subcommands all come from this table,
and every stage runs through `PipelineRun._execute`.

Every stage reads and writes plain files under the run directory through the
reader and writer beside each artifact's type (in `corpus`, `rule_init`,
`confusable`, `opt_tree`, `candidates` and `examination`), which need no run.
It records its input hash, over the current values of its settings and
engine values and the bytes of its input files, plus output hashes in the
manifest, by paths relative to the run directory, so a moved run directory
still resumes. A module's source is not hashed, so a docstring edit re-runs
nothing. On rerun a stage is skipped exactly when its recorded input hash
still matches and all of its outputs are present with their recorded
hashes; an output whose bytes changed behind the manifest's back is a
checksum failure, not a silent rebuild. Between two stage bodies each
run-directory file is hashed once: the input hashes, the skip checks and the
output hashes share a memo that is emptied before every body runs. Only a
stage re-run under the input hash it recorded last, after a crash or a
failure, resumes partial work: optimize reloads the tree of each target
whose snapshot was written, and quizzes every other target from its root
again.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import importlib
import json
import logging
import math
import time
import uuid
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import cacl, confusable, corpus, examination, opt_tree, rule_init
from .agents import Agent, Mark, Transcript, fan_out
from .candidates import CharNgramPerceptron
from .config import ConfigError, build_agent, build_embedder
from .corpus import Judgment, LegalCase, RejectedLine
from .fol import FolRule, consequent_key
from .metrics import compute_metrics, report_as_json, report_as_table
from .quiz import make_quiz
from .rule_init import RuleSet

logger = logging.getLogger(__name__)


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")


class ChecksumError(StageError):
    pass


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: input files in the run dir, the dotted
    config keys the body reads, and the engine constants and prompt texts it
    reads, as `module.NAME`."""

    inputs: tuple[str, ...]
    settings: tuple[str, ...]
    engine: tuple[str, ...]
    outputs: tuple[str, ...]
    body: Callable[[PipelineRun], Optional[list[Path]]]  # returns extra outputs


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _paths_as_digests(key: str, value):
    """A copy of the config value under `key` in which every `*_path` that
    names a file is that file's sha256, so a hash follows the bytes wherever
    the files sit."""
    if isinstance(value, dict):
        return {name: _paths_as_digests(name, item) for name, item in value.items()}
    if key.endswith("_path") and isinstance(value, str) and Path(value).is_file():
        return _sha256(Path(value))
    return value


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


class PipelineRun:
    """Holds the run directory, manifest, providers, and stage bookkeeping."""

    def __init__(
        self,
        config: dict,
        run_dir: str | Path,
        *,
        resume: bool = False,
    ):
        unknown = sorted(set(config["providers"]["routing"]) - set(AGENT_STAGES))
        if unknown:
            raise ConfigError(f"providers.routing keys {unknown} are not in {AGENT_STAGES}")
        self.config = config
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "trees").mkdir(exist_ok=True)
        self.manifest_path = self.run_dir / "manifest.json"
        if self.manifest_path.exists():
            if not resume:
                raise FileExistsError(
                    f"{self.manifest_path} exists; pass --resume or use a fresh --run-dir"
                )
            self.manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            self.manifest["config"] = config
        else:
            self.manifest = {
                "run_id": uuid.uuid4().hex,
                "created_at": _now(),
                "config": config,
                "providers": {},
                "stages": {},
                "agent_calls": 0,
                "usage": {"input_units": 0, "output_units": 0},
            }
        mark = None
        if "transcript_bytes" in self.manifest:  # absent from older run directories
            usage = self.manifest["usage"]
            mark = Mark(self.manifest["transcript_bytes"], self.manifest["agent_calls"],
                        usage["input_units"], usage["output_units"])
        self.transcript = Transcript(self.run_dir / "transcript.jsonl", mark)
        # built up front, so a bad spec is a config error before any stage runs
        self._agents: dict[str, Agent] = {}
        routed = {
            stage: getattr(self._agent_for(stage).backend, "name", "?")
            for stage in config["providers"]["routing"]
        }
        self.manifest["providers"] = {
            "agent": getattr(self._agent_for(None).backend, "name", "?"),
            "embedder": getattr(build_embedder(config["providers"]["embedder"]), "name", "?"),
            **({"routing": routed} if routed else {}),
        }
        self._cases: Optional[dict[str, LegalCase]] = None
        self.resuming = False  # set by _execute before each stage body
        # run-dir file -> sha256; emptied before each stage body, which may rewrite any file
        self._digests: dict[Path, str] = {}

    def agent_spec(self, stage: Optional[str]) -> dict:
        """The agent spec routed to `stage`: a stage row's `providers.agent`."""
        providers = self.config["providers"]
        return providers["routing"].get(stage, providers["agent"])

    def _agent_for(self, stage: Optional[str]) -> Agent:
        """The backend of `agent_spec(stage)`, recording into the run's
        transcript; one Agent per distinct spec."""
        spec = self.agent_spec(stage)
        key = json.dumps(spec, sort_keys=True)
        if key not in self._agents:
            self._agents[key] = Agent(build_agent(spec), self.transcript)
        return self._agents[key]

    # -- paths

    def path(self, name: str) -> Path:
        """`name` under the run dir; an absolute path (as older manifests
        recorded outputs) stays itself."""
        return self.run_dir / name

    def _digest(self, path: Path) -> str:
        """sha256 of a run-directory file, read once between stage bodies."""
        if path not in self._digests:
            self._digests[path] = _sha256(path)
        return self._digests[path]

    # -- manifest helpers

    def _save_manifest(self) -> None:
        # agent_calls is the file's line count, and a reopened transcript
        # counts only what follows transcript_bytes
        self.transcript.flush()
        mark = self.transcript.mark
        self.manifest["agent_calls"] = mark.calls
        self.manifest["usage"] = {
            "input_units": mark.input_units,
            "output_units": mark.output_units,
        }
        self.manifest["transcript_bytes"] = mark.offset
        opt_tree.write_atomically(
            self.manifest_path, json.dumps(self.manifest, indent=2, ensure_ascii=False) + "\n"
        )

    def _stage_input_hash(self, name: str) -> str:
        stage = STAGE_TABLE[name]
        digest = hashlib.sha256()
        for key in stage.settings:
            value = self.config
            for part in key.split("."):
                value = value[part]
            if key == "providers.agent":
                value = self.agent_spec(name)
            view = _paths_as_digests(key, value)
            digest.update(json.dumps([key, view], sort_keys=True).encode())
        for dotted in stage.engine:
            module, _, attribute = dotted.partition(".")
            value = getattr(importlib.import_module(f".{module}", __package__), attribute)
            digest.update(json.dumps([dotted, value], sort_keys=True).encode())
        for input_name in stage.inputs:
            digest.update(input_name.encode())
            digest.update(self._digest(self.path(input_name)).encode())
        return digest.hexdigest()

    def _execute(self, name: str) -> None:
        stage = STAGE_TABLE[name]
        for input_name in stage.inputs:
            if not self.path(input_name).exists():
                raise StageError(name, f"missing input artifact {self.path(input_name)}")
        input_hash = self._stage_input_hash(name)
        recorded = self.manifest["stages"].get(name)
        # partial work left by a crash or failure holds only under the same inputs
        self.resuming = recorded is not None and recorded.get("input_hash") == input_hash
        if recorded and recorded.get("status") == "ok" and recorded.get("input_hash") == input_hash:
            missing = [p for p in recorded["outputs"] if not self.path(p).exists()]
            if not missing:
                for path_str, digest in recorded["outputs"].items():
                    actual = self._digest(self.path(path_str))
                    if actual != digest:
                        raise ChecksumError(
                            name, f"artifact {path_str} does not match its recorded checksum"
                        )
                # saved with the next stage's start, or run_through's end
                logger.info("stage %s: up to date, skipped", name)
                recorded["skipped"] = True
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
        self._digests.clear()
        try:
            extra_outputs = stage.body(self) or []
        except Exception as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
            entry["finished_at"] = _now()
            if isinstance(exc, StageError):
                raise
            raise StageError(name, str(exc)) from exc
        else:
            outputs = [self.path(output) for output in stage.outputs] + extra_outputs
            entry["outputs"] = {
                p.relative_to(self.run_dir).as_posix(): self._digest(p) for p in outputs
            }
            entry["status"] = "ok"
            entry["finished_at"] = _now()
            entry["elapsed_s"] = round(time.monotonic() - started, 3)
        finally:
            # also after a KeyboardInterrupt: the body's calls reach the
            # transcript file and the manifest counts them
            self._save_manifest()

    # -- shared loading (stages re-read artifacts rather than carry state)

    @property
    def cases(self) -> dict[str, LegalCase]:
        """cases.valid.jsonl by case id, in file order; parsed once per run."""
        if self._cases is None:
            cases = corpus.load_cases(self.path("cases.valid.jsonl"))
            self._cases = {case.case_id: case for case in cases}
        return self._cases

    def run_through(self, last_stage: str) -> dict:
        """Run the stage prefix ending at `last_stage`; returns the manifest."""
        if last_stage not in STAGE_TABLE:
            raise ValueError(f"unknown stage {last_stage!r}")
        self._digests.clear()  # files may have changed since an earlier pass
        for name in STAGES[: STAGES.index(last_stage) + 1]:
            self._execute(name)
        self._save_manifest()
        return self.manifest


# ---------------------------------------------------------------------------
# stage bodies


def _ingest(run: PipelineRun) -> None:
    data = run.config["data"]
    rejects: list[RejectedLine] = []
    cases = corpus.load_cases(data["cases_path"], data["schema"], rejects=rejects)
    if not cases:
        raise ValueError("no valid cases ingested")
    # the one choice of label space; later stages read labels.json
    labels_path = data["labels_path"]
    labels = corpus.load_label_space(labels_path) if labels_path else corpus.label_space(cases)
    # the prescreener and the quizzes index the label space by every gold label
    known = {subtask: set(labels.of(subtask)) for subtask in corpus.SUBTASKS}
    for case in cases:
        for subtask in corpus.SUBTASKS:
            label = case.judgment.label(subtask)
            if label not in known[subtask]:
                raise ValueError(
                    f"case {case.case_id} has {subtask} label {label!r}, which "
                    f"data.labels_path {labels_path} does not list"
                )
    corpus.save_cases(run.path("cases.valid.jsonl"), cases)
    corpus.write_rejects_report(run.path("rejects.jsonl"), rejects)
    corpus.save_label_space(run.path("labels.json"), labels)
    # cases.valid.jsonl was rewritten; reparse it on next use
    run._cases = None


def _split(run: PipelineRun) -> None:
    split = corpus.split_dataset(
        list(run.cases.values()), tuple(run.config["data"]["ratios"]), run.config["seed"]
    )
    corpus.save_split(run.path("split.json"), split)


def _group_precedents(run: PipelineRun) -> None:
    # a quiz draws its options from its target kind's label universe; checked
    # here, a stage before the first agent call
    labels = corpus.load_label_space(run.path("labels.json"))
    num_options = run.config["quiz"]["num_options"]
    for kind in corpus.RULE_KINDS:
        size = math.prod(len(labels.of(subtask)) for subtask in kind.subtasks)
        if size < num_options:
            raise ValueError(
                f"quiz.num_options is {num_options}, but the label space has only "
                f"{size} {'+'.join(kind.subtasks)} labels to draw options from"
            )
    train = corpus.load_split(run.path("split.json"), run.cases).train
    k = run.config["data"]["precedent_k"]
    groups = {}
    for kind in corpus.RULE_KINDS:
        groups.update(corpus.group_precedents(train, kind, k))
    corpus.save_precedents(run.path("precedents.json"), groups)


def _init_rules(run: PipelineRun) -> None:
    groups = corpus.load_precedents(run.path("precedents.json"), run.cases)
    ruleset = rule_init.init_all_rules(
        groups,
        run._agent_for("init-rules"),
        corpus.load_label_space(run.path("labels.json")),
        temperature=run.config["optimization"]["temperature"],
        concurrency=run.config["agent_concurrency"],
    )
    if not ruleset.rules:
        raise ValueError("rule initialization produced no rules")
    rule_init.save_ruleset(run.path("rules_init.json"), ruleset)


def _build_confusable(run: PipelineRun) -> None:
    train = list(corpus.load_split(run.path("split.json"), run.cases).train)
    embeddings = confusable.embed_cases(train, build_embedder(run.config["providers"]["embedder"]))
    num_config = run.config["optimization"]["num_negatives"]
    gold = {kind: [corpus.case_label(c, kind) for c in train] for kind in corpus.RULE_KINDS}
    sets = {}
    for target in corpus.load_precedents(run.path("precedents.json"), run.cases):
        key = consequent_key(target)
        labelled = list(zip(train, gold[type(target)]))
        positives = [c for c, label in labelled if label == target]
        others = [c for c, label in labelled if label != target]
        if not positives or not others:
            logger.warning("target %s has no positives or no others; skipped", key)
            continue
        num = len(positives) if num_config is None else num_config
        sets[key] = confusable.build_confusable_set_from_embeddings(
            embeddings.select(positives),
            embeddings.select(others),
            positives,
            others,
            num,
            target=target,
        )
    if not sets:
        raise ValueError("no confusable sets could be built")
    confusable.save_confusable(run.path("confusable.json"), sets)


def _optimize(run: PipelineRun) -> list[Path]:
    labels = corpus.load_label_space(run.path("labels.json"))
    init_rules = rule_init.load_ruleset(run.path("rules_init.json"))
    confusable_sets = confusable.load_confusable(run.path("confusable.json"), run.cases)
    opt_config = run.config["optimization"]
    agent = run._agent_for("optimize")
    optimized = RuleSet(failures=dict(init_rules.failures))
    keys = []
    for key in sorted(init_rules.rules):
        if key in confusable_sets:
            keys.append(key)
        else:
            optimized.failures[key] = "no confusable set"

    def optimize_target(key: str, agent: Agent) -> tuple[FolRule, float, str]:
        """Quiz, tree and refinement loop of one target: its best rule, that
        rule's weight and the tree's snapshot, which the caller writes."""
        conf = confusable_sets[key]
        questions = make_quiz(
            conf,
            labels,
            num_options=run.config["quiz"]["num_options"],
            seed=run.config["seed"],
        )
        store = opt_tree.tree_path(run.run_dir, key)
        tree = None
        if run.resuming and store.exists():
            # resume after a crash or failure under the same input hash: a
            # target whose snapshot was written is done; a store the crash
            # cut short starts over
            try:
                tree = opt_tree.load_tree(store, conf.target, questions)
                logger.info("resuming tree for %s at iteration %d", key, tree.iteration)
            except Exception as exc:
                logger.warning("tree store %s not resumable (%s); rebuilding", store, exc)
        if tree is None:
            tree = opt_tree.new_tree(init_rules.rules[key])

        def rewrite(rule: FolRule, result, child_rule_id: str) -> FolRule:
            return cacl.optimize_rule(
                rule,
                result,
                agent,
                labels,
                child_rule_id=child_rule_id,
                tag_prefix=f"cacl/{key}",
                temperature=opt_config["temperature"],
            )

        best = opt_tree.optimize(
            tree,
            questions,
            agent,
            rewrite=rewrite,
            defined_score=opt_config["defined_score"],
            max_iterations=opt_config["max_iterations"],
        )
        # serialized here: the calling thread, starved of the interpreter
        # lock by the workers, only writes text that is ready
        return best, tree.max_score, opt_tree.tree_snapshot(tree)

    # closed before _execute's manifest save, even when a write below fails,
    # so the lines of the targets still running are counted
    with closing(fan_out(optimize_target, keys, agent, run.config["agent_concurrency"])) as results:
        for key, (best, weight, snapshot) in zip(keys, results, strict=True):
            # fan_out wrote the target's answers out before it yielded them
            opt_tree.write_atomically(opt_tree.tree_path(run.run_dir, key), snapshot)
            optimized.rules[key] = best
            optimized.weights[key] = weight
    if not optimized.rules:
        raise ValueError("optimization produced no rules")
    rule_init.save_ruleset(run.path("rules_optimized.json"), optimized)
    return [opt_tree.tree_path(run.run_dir, key) for key in keys]


def _train_candidates(run: PipelineRun) -> None:
    provider = CharNgramPerceptron(corpus.load_label_space(run.path("labels.json")))
    provider.train(list(corpus.load_split(run.path("split.json"), run.cases).train))
    provider.save(run.path("candidates.json"))


def _examine(run: PipelineRun) -> None:
    labels = corpus.load_label_space(run.path("labels.json"))
    split = corpus.load_split(run.path("split.json"), run.cases)
    if not split.test:
        raise ValueError("the test split is empty; give data.ratios a larger test share")
    rules = rule_init.load_ruleset(run.path("rules_optimized.json"))
    index = examination.RuleIndex(rules)  # the pools and rule texts every case reads
    provider = CharNgramPerceptron.load(run.path("candidates.json"))
    agent = run._agent_for("examine")
    # ranked here in one batch, not on the workers: numpy scoring on worker
    # threads contends for the interpreter lock and made examine slower
    candidates = provider.top_labels(
        [case.fact_text for case in split.test], run.config["examination"]["candidate_k"]
    )

    def examine(item: tuple[LegalCase, dict], agent: Agent):
        case, case_candidates = item
        return examination.examine_case(
            case.case_id,
            case.fact_text,
            rules,
            case_candidates,
            labels,
            agent,
            seed=run.config["seed"],
            index=index,
        )

    # fan_out writes each case's answers out as it yields the case's
    # prediction, so all of them are on disk before predictions.jsonl
    predictions = list(
        fan_out(examine, zip(split.test, candidates), agent, run.config["agent_concurrency"])
    )
    examination.save_predictions(run.path("predictions.jsonl"), predictions)


def _evaluate(run: PipelineRun) -> None:
    split = corpus.load_split(run.path("split.json"), run.cases)
    gold_by_id = {case.case_id: case.judgment for case in split.test}
    predictions = examination.load_predictions(run.path("predictions.jsonl"))
    report = compute_metrics(
        [Judgment(p.article_id, p.charge_id, p.prison_term_bucket) for p in predictions],
        [gold_by_id[p.case_id] for p in predictions],
    )
    run.path("metrics.json").write_text(report_as_json(report), encoding="utf-8")
    run.path("metrics.txt").write_text(report_as_table(report), encoding="utf-8")


# Stage order is run order. A stage's input hash covers its settings, then
# its engine values, then its inputs, each in the order listed here;
# reordering them invalidates every existing run directory.
STAGE_TABLE: dict[str, Stage] = {
    "ingest": Stage(
        (),
        ("data.cases_path", "data.schema", "data.labels_path"),
        ("corpus.DEFAULT_SCHEMA",),
        ("cases.valid.jsonl", "rejects.jsonl", "labels.json"),
        _ingest,
    ),
    "split": Stage(("cases.valid.jsonl",), ("seed", "data.ratios"), (), ("split.json",), _split),
    "group-precedents": Stage(
        ("cases.valid.jsonl", "labels.json", "split.json"),
        ("data.precedent_k", "quiz.num_options"),
        (),
        ("precedents.json",),
        _group_precedents,
    ),
    "init-rules": Stage(
        ("cases.valid.jsonl", "labels.json", "precedents.json"),
        ("optimization.temperature", "providers.agent"),
        ("rule_init.FACTOR_FIELDS", "cacl.MAX_REPAIRS", "prompts.SYSTEM_LEGAL_ANALYST",
         "prompts.SUMMARIZE_CIRCUMSTANCES", "prompts.DEFINE_SYMBOLS", "prompts.REPAIR_SYMBOLS",
         "prompts.CONSTRUCT_RULE", "fol.GRAMMAR_HELP", "prompts.REPAIR_RULE"),
        ("rules_init.json",),
        _init_rules,
    ),
    "build-confusable": Stage(
        ("cases.valid.jsonl", "split.json", "precedents.json"),
        ("optimization.num_negatives", "providers.embedder"),
        ("confusable.EMBED_NGRAM_SIZES",),
        ("confusable.json",),
        _build_confusable,
    ),
    "optimize": Stage(
        ("cases.valid.jsonl", "labels.json", "rules_init.json", "confusable.json"),
        ("seed", "quiz.num_options", "optimization.defined_score",
         "optimization.max_iterations", "optimization.temperature", "providers.agent"),
        ("cacl.FACT_TRUNCATE_DEFAULT", "cacl.MAX_RECORDS_PER_SIDE_DEFAULT", "cacl.MAX_REPAIRS",
         "prompts.SYSTEM_LEGAL_ANALYST", "prompts.QUIZ_QUESTION", "prompts.CACL_KEEP",
         "prompts.CACL_IMPROVE", "prompts.CACL_SYNTHESIZE", "prompts.CACL_REWRITE",
         "fol.GRAMMAR_HELP", "prompts.REPAIR_RULE"),
        ("rules_optimized.json",),
        _optimize,
    ),
    "train-candidates": Stage(
        ("cases.valid.jsonl", "labels.json", "split.json"),
        (),
        ("candidates.NGRAM_SIZES", "candidates.HASH_DIM", "candidates.EPOCHS"),
        ("candidates.json",),
        _train_candidates,
    ),
    "examine": Stage(
        ("cases.valid.jsonl", "labels.json", "split.json", "rules_optimized.json",
         "candidates.json"),
        ("seed", "examination.candidate_k", "providers.agent"),
        ("candidates.NGRAM_SIZES", "candidates.HASH_DIM", "examination.ABSTRACT_THRESHOLD_DEFAULT",
         "prompts.SYSTEM_LEGAL_ANALYST", "prompts.ABSTRACT_FACT", "prompts.EXAM_CHECK"),
        ("predictions.jsonl",),
        _examine,
    ),
    "evaluate": Stage(
        ("cases.valid.jsonl", "split.json", "predictions.jsonl"),
        (),
        (),
        ("metrics.json", "metrics.txt"),
        _evaluate,
    ),
}

STAGES = tuple(STAGE_TABLE)
# providers.routing may name only these
AGENT_STAGES = tuple(name for name, row in STAGE_TABLE.items() if "providers.agent" in row.settings)


def run_pipeline(
    config: dict,
    run_dir: str | Path,
    *,
    resume: bool = False,
    last_stage: str = "evaluate",
) -> dict:
    """Execute the pipeline end to end (or up to `last_stage`)."""
    run = PipelineRun(config, run_dir, resume=resume)
    return run.run_through(last_stage)
