import ast
import dataclasses
import errno
import hashlib
import importlib
import json
import re
import shutil
from collections import Counter
from pathlib import Path

import pytest

import rljp.cacl
import rljp.candidates
import rljp.corpus
import rljp.pipeline as pipeline_mod
import rljp.prompts
from rljp.agents import ChatResponse
from rljp.cli import build_parser, main
from rljp.agents import HttpBackend
from rljp.config import (
    _FREEFORM,
    DEFAULT_CONFIG,
    ConfigError,
    build_agent,
    build_embedder,
    load_config,
)
from rljp.candidates import CharNgramPerceptron
from rljp.confusable import HttpEmbedder, load_confusable, save_confusable
from rljp.corpus import (
    label_space,
    load_cases,
    load_label_space,
    load_precedents,
    load_split,
    save_cases,
    save_label_space,
    save_precedents,
    save_split,
)
from rljp.examination import load_predictions, save_predictions
from rljp.fol import ArticleCharge, consequent_key
from rljp.opt_tree import load_tree, save_tree, tree_path
from rljp.pipeline import STAGE_TABLE, STAGES, run_pipeline
from rljp.quiz import make_quiz
from rljp.rule_init import load_ruleset, save_ruleset
from rljp.synthetic import write_corpus
from test_transcript_writeout import agent_calls, disk_tags, line_count, tap


def run_cli(args):
    return main([str(a) for a in args])


def cases_of(run_dir):
    return {case.case_id: case for case in load_cases(run_dir / "cases.valid.jsonl")}


def resave_trees(run_dir, out):
    """Each tree store through load_tree and save_tree, its quiz rebuilt as
    the run built it: the run's recorded settings and its labels.json."""
    config = json.loads((run_dir / "manifest.json").read_text())["config"]
    labels = load_label_space(run_dir / "labels.json")
    (out / "trees").mkdir()
    for key, conf in load_confusable(run_dir / "confusable.json", cases_of(run_dir)).items():
        questions = make_quiz(
            conf, labels, num_options=config["quiz"]["num_options"], seed=config["seed"]
        )
        save_tree(load_tree(tree_path(run_dir, key), conf.target, questions), tree_path(out, key))


# each artifact that has a reader: (run dir, output dir) -> the artifact read
# from the run dir and written under the same name in the output dir
RESAVE = {
    "cases.valid.jsonl": lambda run, out: save_cases(
        out / "cases.valid.jsonl", load_cases(run / "cases.valid.jsonl")
    ),
    "labels.json": lambda run, out: save_label_space(
        out / "labels.json", load_label_space(run / "labels.json")
    ),
    "split.json": lambda run, out: save_split(
        out / "split.json", load_split(run / "split.json", cases_of(run))
    ),
    "precedents.json": lambda run, out: save_precedents(
        out / "precedents.json", load_precedents(run / "precedents.json", cases_of(run))
    ),
    "rules_init.json": lambda run, out: save_ruleset(
        out / "rules_init.json", load_ruleset(run / "rules_init.json")
    ),
    "rules_optimized.json": lambda run, out: save_ruleset(
        out / "rules_optimized.json", load_ruleset(run / "rules_optimized.json")
    ),
    "confusable.json": lambda run, out: save_confusable(
        out / "confusable.json", load_confusable(run / "confusable.json", cases_of(run))
    ),
    "candidates.json": lambda run, out: CharNgramPerceptron.load(
        run / "candidates.json"
    ).save(out / "candidates.json"),
    "predictions.jsonl": lambda run, out: save_predictions(
        out / "predictions.jsonl", load_predictions(run / "predictions.jsonl")
    ),
    "trees": resave_trees,
}


@pytest.fixture(scope="module")
def completed_run(fixture_config_path, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    code = run_cli(["run-all", "--config", fixture_config_path, "--run-dir", run_dir])
    assert code == 0
    return run_dir


@pytest.fixture(scope="module")
def repeated_run(fixture_config_path, tmp_path_factory):
    """A second run of the same config at the same seed."""
    run_dir = tmp_path_factory.mktemp("repeated")
    code = run_cli(["run-all", "--config", fixture_config_path, "--run-dir", run_dir])
    assert code == 0
    return run_dir


class TestConfig:
    def test_defaults_fill_in(self, fixture_config_path):
        config = load_config(fixture_config_path)
        assert config["optimization"]["defined_score"] == 0.9
        assert config["examination"]["candidate_k"] == 10
        assert config["quiz"]["num_options"] == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"data": {"cases_path": "x.jsonl"}, "typo_section": 1}')
        with pytest.raises(ConfigError, match="typo_section"):
            load_config(path)

    def test_missing_cases_path_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="cases_path"):
            load_config(path)

    def test_seed_override(self, fixture_config_path):
        config = load_config(fixture_config_path, seed_override=99)
        assert config["seed"] == 99

    def test_cli_exit_code_2_on_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert run_cli(["run-all", "--config", path, "--run-dir", tmp_path / "r"]) == 2

    @pytest.mark.parametrize("workers", ["4", 0, True])
    def test_cli_exit_code_2_on_bad_agent_concurrency(self, fixture_dir, tmp_path, workers):
        raw = json.loads((fixture_dir / "config.json").read_text())
        raw["agent_concurrency"] = workers
        raw["data"] = {"cases_path": str(fixture_dir / "cases.jsonl")}
        raw["providers"]["agent"]["world_path"] = str(fixture_dir / "world.json")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", path, "--run-dir", run_dir]) == 2
        assert not (run_dir / "manifest.json").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("data", "ratios", "0.8"),
            ("data", "ratios", [0.8, "0.1", 0.1]),
            ("data", "precedent_k", "3"),
            ("optimization", "defined_score", "0.9"),
        ],
    )
    def test_cli_exit_code_2_on_setting_of_wrong_type(
        self, fixture_dir, tmp_path, capsys, section, key, value
    ):
        raw = json.loads((fixture_dir / "config.json").read_text())
        raw["data"] = {"cases_path": str(fixture_dir / "cases.jsonl")}
        raw["providers"]["agent"]["world_path"] = str(fixture_dir / "world.json")
        raw.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", path, "--run-dir", run_dir]) == 2
        assert not (run_dir / "manifest.json").exists()
        assert f"{section}.{key} must have the type of its default" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("optimization", "num_negatives", "5"),
            ("optimization", "num_negatives", -3),
            ("optimization", "num_negatives", 0),
            ("optimization", "num_negatives", True),
            ("data", "cases_path", 7),
            ("data", "labels_path", 7),
            ("quiz", "num_options", 1),
            ("quiz", "num_options", 27),
            ("data", "precedent_k", 0),
            ("optimization", "max_iterations", -1),
            ("optimization", "temperature", -0.5),
            ("optimization", "temperature", float("nan")),
            ("examination", "candidate_k", 0),
            ("examination", "candidate_k", -1),
            ("examination", "candidate_k", -9),
        ],
    )
    def test_cli_exit_code_2_on_setting_out_of_range(
        self, fixture_dir, tmp_path, capsys, section, key, value
    ):
        # rejected when the config loads, before any stage spends an agent call
        raw = json.loads((fixture_dir / "config.json").read_text())
        raw["data"] = {"cases_path": str(fixture_dir / "cases.jsonl")}
        raw["providers"]["agent"]["world_path"] = str(fixture_dir / "world.json")
        raw.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", path, "--run-dir", run_dir]) == 2
        assert not (run_dir / "manifest.json").exists()
        assert f"{section}.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, fits",
        [
            ({"optimization": {"defined_score": 1}}, True),
            ({"data": {"cases_path": "x.jsonl", "ratios": [1, 0, 0]}}, True),
            ({"optimization": {"num_negatives": 12}}, True),
            ({"quiz": {"num_options": True}}, False),
            ({"quiz": {"num_options": 4.0}}, False),
            ({"data": {"cases_path": "x.jsonl", "ratios": [1, 0, "0"]}}, False),
            ({"quiz": 4}, False),
        ],
    )
    def test_a_setting_must_fit_its_default(self, tmp_path, override, fits):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": {"cases_path": "x.jsonl"}, **override}))
        if fits:
            load_config(path)
        else:
            with pytest.raises(ConfigError, match="type of its default"):
                load_config(path)

    def test_every_path_setting_is_resolved_against_the_config_dir(self, tmp_path):
        raw = {
            "data": {"cases_path": "c.jsonl", "schema": {"fact_text": "fact"}},
            "providers": {
                "embedder": {"kind": "hashing", "vocab_path": "v.txt"},
                "routing": {"optimize": {"kind": "scripted", "script_path": "s.json"}},
            },
        }
        (tmp_path / "config.json").write_text(json.dumps(raw))
        config = load_config(tmp_path / "config.json")
        assert config["data"]["cases_path"] == str(tmp_path / "c.jsonl")
        assert config["data"]["labels_path"] is None
        assert config["data"]["schema"] == {"fact_text": "fact"}
        assert config["providers"]["embedder"]["vocab_path"] == str(tmp_path / "v.txt")
        assert config["providers"]["routing"]["optimize"]["script_path"] == str(
            tmp_path / "s.json"
        )

    def test_negative_ratio_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"data": {"cases_path": "x.jsonl", "ratios": [1.2, -0.1, -0.1]}}')
        with pytest.raises(ConfigError, match="non-negative"):
            load_config(path)

    def test_cli_exit_code_2_on_backend_config_error(self, fixture_dir, tmp_path, capsys):
        (tmp_path / "not_json.txt").write_text("not json")
        world = {"kind": "synthetic-oracle", "world_path": str(fixture_dir / "world.json")}
        # (providers, extra flags, what the message names)
        cases = [
            # --mock with an http agent and no providers.mock.agent to swap in
            (
                {"agent": {"kind": "http", "base_url": "http://localhost:9", "model": "m"}},
                ["--mock"],
                "http agent",
            ),
            (
                {"agent": {"kind": "synthetic-oracle", "world_path": "missing.json"}},
                [],
                "world_path",
            ),
            (
                {"agent": {"kind": "synthetic-oracle", "world_path": "not_json.txt"}},
                [],
                "world_path",
            ),
            ({"agent": {"kind": "scripted", "script_path": "missing.json"}}, [], "script_path"),
            ({"agent": world, "embedder": {"kind": "hashing", "dim": 0}}, [], "dim"),
            ({"agent": world, "embedder": {"kind": "hashing", "dim": "abc"}}, [], "dim"),
        ]
        for i, (providers, flags, named) in enumerate(cases):
            raw = {"data": {"cases_path": str(fixture_dir / "cases.jsonl")}, "providers": providers}
            path = tmp_path / "config.json"
            path.write_text(json.dumps(raw))
            run_dir = tmp_path / f"run{i}"
            assert run_cli(["run-all", "--config", path, "--run-dir", run_dir, *flags]) == 2
            assert not (run_dir / "manifest.json").exists()
            err = capsys.readouterr().err
            assert err.startswith("config error:") and named in err, (providers, err)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("data", "ratios", [0.5, 0.5, float("nan")]),
            ("optimization", "defined_score", float("nan")),
            ("optimization", "temperature", float("inf")),
        ],
    )
    def test_cli_exit_code_2_on_a_float_setting_that_is_not_finite(
        self, fixture_dir, tmp_path, capsys, section, key, value
    ):
        # json reads NaN and Infinity; a NaN defined_score was never reached
        # and let optimize spend every iteration of every target
        raw = json.loads((fixture_dir / "config.json").read_text())
        raw["data"] = {"cases_path": str(fixture_dir / "cases.jsonl")}
        raw["providers"]["agent"]["world_path"] = str(fixture_dir / "world.json")
        raw.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", path, "--run-dir", run_dir]) == 2
        assert not (run_dir / "manifest.json").exists()
        assert f"config error: {section}.{key} must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("optimization", "max_records_per_side", 20),
            ("optimization", "fact_truncate", 1200),
            ("examination", "abstract_threshold", 4000),
            ("examination", "ngram_sizes", [1, 2, 3]),
            ("examination", "hash_dim", 32768),
            ("examination", "epochs", 5),
        ],
    )
    def test_cli_exit_code_2_on_an_engine_constant_set_in_the_config(
        self, fixture_dir, tmp_path, capsys, section, key, value
    ):
        # these sizes and budgets are engine constants, not settings
        raw = json.loads((fixture_dir / "config.json").read_text())
        raw["data"] = {"cases_path": str(fixture_dir / "cases.jsonl")}
        raw["providers"]["agent"]["world_path"] = str(fixture_dir / "world.json")
        raw.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", path, "--run-dir", run_dir]) == 2
        assert not (run_dir / "manifest.json").exists()
        assert f"unknown configuration key: {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "schema, message",
        [
            ({"facts": "fact"}, "data.schema.facts is not a case field"),
            ("fact", "data.schema must be an object"),
            ({"fact_text": 3}, "data.schema.fact_text must be a non-empty string"),
            ({"charge": ""}, "data.schema.charge must be a non-empty string"),
            ({"article": None}, "data.schema.article must be a non-empty string"),
        ],
    )
    def test_a_schema_names_case_fields_and_their_sources(self, tmp_path, schema, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": {"cases_path": "x.jsonl", "schema": schema}}))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_a_null_case_id_source_numbers_cases_by_line(self, fixture_dir, tmp_path):
        raw = {
            "data": {
                "cases_path": str(fixture_dir / "cases.jsonl"),
                "schema": {"case_id": None, "fact_text": "fact"},
            }
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        data = load_config(path)["data"]
        assert data["schema"] == {"case_id": None, "fact_text": "fact"}
        ids = [case.case_id for case in load_cases(data["cases_path"], data["schema"])]
        assert ids[:2] == ["case_000001", "case_000002"]

    def test_per_stage_routing_builds_distinct_backends(self, fixture_dir, tmp_path):
        raw = json.loads((fixture_dir / "config.json").read_text())
        raw["providers"]["routing"] = {
            "optimize": {"kind": "scripted", "script_path": "script.json"}
        }
        (tmp_path / "script.json").write_text("{}")
        config_path = tmp_path / "config.json"
        raw["data"] = {
            "cases_path": str(fixture_dir / "cases.jsonl"),
            "labels_path": str(fixture_dir / "labels.json"),
        }
        raw["providers"]["agent"]["world_path"] = str(fixture_dir / "world.json")
        config_path.write_text(json.dumps(raw))
        config = load_config(config_path)
        run = pipeline_mod.PipelineRun(config, tmp_path / "run")
        assert build_agent(config["providers"]["agent"]).name == "synthetic-oracle"
        assert build_agent(run.agent_spec("optimize")).name == "scripted"
        assert run._agent_for("optimize").backend.name == "scripted"
        # unrouted stages keep the default
        assert run.agent_spec("examine") == config["providers"]["agent"]
        assert run._agent_for("examine").backend.name == "synthetic-oracle"
        assert run.manifest["providers"]["routing"] == {"optimize": "scripted"}

    @pytest.mark.parametrize("stage", ["optimise", "ingest"])
    def test_routing_key_that_names_no_agent_stage_is_rejected(
        self, fixture_dir, tmp_path, capsys, stage
    ):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        raw = json.loads((data / "config.json").read_text())
        raw["providers"]["routing"] = {stage: {"kind": "scripted", "script_path": "script.json"}}
        (data / "script.json").write_text("{}")
        (data / "config.json").write_text(json.dumps(raw))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", data / "config.json", "--run-dir", run_dir]) == 2
        assert not (run_dir / "manifest.json").exists()
        assert stage in capsys.readouterr().err

    def test_mock_is_applied_at_load_time(self, fixture_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        raw = json.loads((data / "config.json").read_text())
        raw["providers"]["routing"] = {"optimize": {"kind": "scripted", "script_path": "s.json"}}
        raw["providers"]["mock"] = {"agent": {"kind": "scripted", "script_path": "s.json"}}
        (data / "s.json").write_text("{}")
        (data / "config.json").write_text(json.dumps(raw))
        config = load_config(data / "config.json", mock=True)
        providers = config["providers"]
        assert providers["agent"] == {"kind": "scripted", "script_path": str(data / "s.json")}
        assert providers["embedder"] == {"kind": "hashing"}
        assert providers["routing"] == {}
        run_dir = tmp_path / "run"
        args = ["split", "--config", data / "config.json", "--run-dir", run_dir, "--mock"]
        assert run_cli(args) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"] == config
        assert manifest["providers"] == {"agent": "scripted", "embedder": "hashing-ngram"}

    def test_mock_rejects_an_http_embedder(self, fixture_dir, tmp_path):
        raw = json.loads((fixture_dir / "config.json").read_text())
        raw["data"] = {"cases_path": str(fixture_dir / "cases.jsonl")}
        raw["providers"]["mock"]["embedder"] = {"kind": "http", "base_url": "u", "model": "m"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="http embedder"):
            load_config(path, mock=True)


class TestBackendBuilders:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "synthetic-oracle"}, "requires world_path"),
            ({"kind": "scripted", "script_path": ""}, "requires script_path"),
            ({"kind": "http", "base_url": "http://localhost:9"}, "http agent requires"),
        ],
    )
    def test_agent_spec_missing_a_field(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            build_agent(spec)

    def test_http_agent(self):
        backend = build_agent({"kind": "http", "base_url": "http://localhost:9", "model": "m"})
        assert isinstance(backend, HttpBackend)
        assert backend.name == "http:m"

    def test_http_embedder(self):
        with pytest.raises(ConfigError, match="http embedder requires"):
            build_embedder({"kind": "http", "model": "m"})
        embedder = build_embedder({"kind": "http", "base_url": "http://localhost:9", "model": "m"})
        assert isinstance(embedder, HttpEmbedder)

    def test_unknown_embedder_kind(self):
        with pytest.raises(ConfigError, match="unknown embedder kind 'dense'"):
            build_embedder({"kind": "dense"})


class TestRunAll:
    def test_nine_stage_outputs_and_metrics_present(self, completed_run):
        manifest = json.loads((completed_run / "manifest.json").read_text())
        assert list(manifest["stages"]) == list(STAGES)
        assert all(e["status"] == "ok" for e in manifest["stages"].values())
        assert (completed_run / "metrics.json").exists()
        assert (completed_run / "metrics.txt").exists()
        assert (completed_run / "predictions.jsonl").exists()

    def test_manifest_call_count_matches_transcript(self, completed_run):
        manifest = json.loads((completed_run / "manifest.json").read_text())
        with (completed_run / "transcript.jsonl").open() as handle:
            lines = sum(1 for _ in handle)
        assert manifest["agent_calls"] == lines > 0

    def test_manifest_lists_every_artifact(self, completed_run):
        manifest = json.loads((completed_run / "manifest.json").read_text())
        for entry in manifest["stages"].values():
            for path in entry["outputs"]:
                assert not Path(path).is_absolute()
                assert (completed_run / path).exists()

    def test_config_snapshot_is_complete(self, completed_run, fixture_config_path):
        manifest = json.loads((completed_run / "manifest.json").read_text())
        assert manifest["config"] == load_config(fixture_config_path)
        assert manifest["config"]["seed"] == 50

    def test_rejects_report_is_empty_for_clean_corpus(self, completed_run):
        assert (completed_run / "rejects.jsonl").read_text() == ""

    def test_empty_test_split_fails_examine_naming_the_ratios(self, fixture_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        raw = json.loads((data / "config.json").read_text())
        raw["data"]["ratios"] = [1.0, 0.0, 0.0]
        (data / "config.json").write_text(json.dumps(raw))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", data / "config.json", "--run-dir", run_dir]) == 1
        assert "data.ratios" in capsys.readouterr().err
        stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
        assert stages["examine"]["status"] == "failed"
        assert "evaluate" not in stages
        assert not (run_dir / "predictions.jsonl").exists()

    def test_num_options_beyond_a_label_universe_fails_before_any_agent_call(
        self, tmp_path, capsys
    ):
        # theft and robbery only: 2 articles x 2 charges, 2 articles x 2 terms
        data = tmp_path / "data"
        write_corpus(data, num_cases=120, seed=3)
        rows = (data / "cases.jsonl").read_text().splitlines(keepends=True)
        pair = ("theft", "robbery")
        kept = [row for row in rows if json.loads(row)["meta"]["accusation"][0] in pair]
        (data / "cases.jsonl").write_text("".join(kept))
        config = {
            "data": {"cases_path": "cases.jsonl"},
            "providers": {"agent": {"kind": "synthetic-oracle", "world_path": "world.json"}},
            "quiz": {"num_options": 6},
        }
        (data / "config.json").write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", data / "config.json", "--run-dir", run_dir]) == 1
        assert "quiz.num_options is 6, but the label space has only 4 article+charge" in (
            capsys.readouterr().err
        )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"]["group-precedents"]["status"] == "failed"
        assert "init-rules" not in manifest["stages"]
        assert manifest["agent_calls"] == 0


    def test_unjudged_test_split_lines_are_rejected_and_the_run_finishes(
        self, fixture_dir, tmp_path
    ):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        config = load_config(data / "config.json")
        cases = load_cases(data / "cases.jsonl")
        split = rljp.corpus.split_dataset(cases, tuple(config["data"]["ratios"]), config["seed"])
        stripped = {case.case_id for case in split.test[:2]}
        rows = [json.loads(row) for row in (data / "cases.jsonl").read_text().splitlines()]
        for row in rows:
            if row["case_id"] in stripped:
                del row["meta"]
        (data / "cases.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", data / "config.json", "--run-dir", run_dir]) == 0
        rejects = [json.loads(line) for line in (run_dir / "rejects.jsonl").open()]
        lines = sorted(i + 1 for i, row in enumerate(rows) if row["case_id"] in stripped)
        assert rejects == [{"line": n, "reason": "missing judgment labels"} for n in lines]
        test_ids = json.loads((run_dir / "split.json").read_text())["test"]
        assert not stripped & set(test_ids)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["num_cases"] == len(test_ids) > 0

    def test_label_outside_the_labels_file_fails_before_any_agent_call(
        self, fixture_dir, tmp_path, capsys
    ):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        labels = json.loads((data / "labels.json").read_text())
        labels["charges"].remove("arson")
        (data / "labels.json").write_text(json.dumps(labels))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", data / "config.json", "--run-dir", run_dir]) == 1
        err = capsys.readouterr().err
        assert "case syn_0010 has charge label 'arson'" in err
        assert "data.labels_path" in err and "labels.json" in err
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"]["ingest"]["status"] == "failed"
        assert manifest["agent_calls"] == 0

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda labels: labels.pop("prison_terms"), "prison_terms"),
            (lambda labels: labels.update(articles="264"), "articles"),
        ],
        ids=["missing-key", "string-not-list"],
    )
    def test_malformed_labels_file_fails_before_any_agent_call(
        self, fixture_dir, tmp_path, capsys, edit, key
    ):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        labels = json.loads((data / "labels.json").read_text())
        edit(labels)
        (data / "labels.json").write_text(json.dumps(labels))
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", data / "config.json", "--run-dir", run_dir]) == 1
        assert f"labels file {data / 'labels.json'}: {key!r} is not a list" in (
            capsys.readouterr().err
        )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"]["ingest"]["status"] == "failed"
        assert manifest["agent_calls"] == 0


class TestResume:
    def test_rerun_without_resume_flag_is_usage_error(
        self, completed_run, fixture_config_path
    ):
        code = run_cli(
            ["run-all", "--config", fixture_config_path, "--run-dir", completed_run]
        )
        assert code == 2

    def test_deleting_metrics_reruns_only_evaluate(
        self, fixture_config_path, tmp_path
    ):
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", fixture_config_path, "--run-dir", run_dir]) == 0
        (run_dir / "metrics.json").unlink()
        assert (
            run_cli(
                ["run-all", "--config", fixture_config_path, "--run-dir", run_dir, "--resume"]
            )
            == 0
        )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        skipped = {name for name, e in manifest["stages"].items() if e.get("skipped")}
        assert skipped == set(STAGES) - {"evaluate"}
        assert (run_dir / "metrics.json").exists()

    def test_a_resume_that_skips_seven_stages_hashes_each_file_once(
        self, fixture_config_path, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        config = load_config(fixture_config_path)
        run_pipeline(config, run_dir, last_stage="train-candidates")
        hashed: Counter = Counter()  # run-dir file -> hashes before the first body
        body_ran: list[str] = []
        sha256 = pipeline_mod._sha256

        def counting_sha256(path):
            if not body_ran and Path(path).is_relative_to(run_dir):
                hashed[Path(path).relative_to(run_dir).as_posix()] += 1
            return sha256(path)

        def examine(run, inner=STAGE_TABLE["examine"].body):
            body_ran.append("examine")
            return inner(run)

        monkeypatch.setattr(pipeline_mod, "_sha256", counting_sha256)
        monkeypatch.setitem(
            STAGE_TABLE, "examine", dataclasses.replace(STAGE_TABLE["examine"], body=examine)
        )
        manifest = run_pipeline(config, run_dir, resume=True)
        skipped = [name for name, entry in manifest["stages"].items() if entry["skipped"]]
        assert skipped == list(STAGES[:7])
        assert body_ran == ["examine"]
        assert hashed["cases.valid.jsonl"] == 1
        assert {name for name, count in hashed.items() if count > 1} == set()

    @pytest.mark.parametrize("change", ["delete predictions", "candidate_k 2"])
    def test_a_rewritten_predictions_file_is_hashed_from_its_new_bytes(
        self, fixture_config_path, tmp_path, change
    ):
        run_dir = tmp_path / "run"
        config = load_config(fixture_config_path)
        run_pipeline(config, run_dir)
        first = (run_dir / "predictions.jsonl").read_bytes()
        if change == "delete predictions":
            (run_dir / "predictions.jsonl").unlink()
        else:
            config["examination"]["candidate_k"] = 2
        manifest = run_pipeline(config, run_dir, resume=True)
        rewritten = (run_dir / "predictions.jsonl").read_bytes()
        ran = [name for name, entry in manifest["stages"].items() if not entry["skipped"]]
        if change == "delete predictions":
            # the same bytes again, so evaluate's inputs are unchanged
            assert rewritten == first
            assert ran == ["examine"]
        else:
            assert rewritten != first
            assert ran == ["examine", "evaluate"]
        examine = manifest["stages"]["examine"]
        assert examine["outputs"]["predictions.jsonl"] == hashlib.sha256(rewritten).hexdigest()
        # what a fresh run object, with nothing memoized, hashes from the files
        fresh = pipeline_mod.PipelineRun(config, run_dir, resume=True)
        assert manifest["stages"]["evaluate"]["input_hash"] == fresh._stage_input_hash("evaluate")

    def test_corrupted_tree_store_fails_checksum_naming_file(
        self, fixture_config_path, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", fixture_config_path, "--run-dir", run_dir]) == 0
        victim = sorted((run_dir / "trees").glob("*.json"))[0]
        payload = json.loads(victim.read_text())
        payload["max_score"] = 0.0
        victim.write_text(json.dumps(payload))
        code = run_cli(
            ["run-all", "--config", fixture_config_path, "--run-dir", run_dir, "--resume"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "checksum" in err
        assert victim.name in err

    def test_interrupted_optimize_rebuilds_unreadable_tree(
        self, fixture_config_path, tmp_path
    ):
        # a crash mid-optimize leaves the stage "running" under its input hash
        # and one tree store cut short: the resume reuses the intact stores
        # and rebuilds only the cut one, with no checksum error
        run_dir = tmp_path / "run"
        args = ["optimize", "--config", fixture_config_path, "--run-dir", run_dir]
        assert run_cli(args) == 0
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["stages"]["optimize"]
        manifest["stages"]["optimize"] = {
            "status": "running",
            "started_at": entry["started_at"],
            "input_hash": entry["input_hash"],
            "outputs": {},
            "skipped": False,
        }
        manifest_path.write_text(json.dumps(manifest))
        victim = sorted((run_dir / "trees").glob("*.json"))[0]
        key = json.loads(victim.read_text())["target"]
        victim.write_text("{ not json")
        calls_before = len(_transcript(run_dir))
        assert run_cli([*args, "--resume"]) == 0
        resumed = _transcript(run_dir)[calls_before:]
        assert resumed
        assert {entry["tag"].split("/")[1] for entry in resumed} == {key}
        assert json.loads(victim.read_text())["max_score"] >= 0.9

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_write_cut_short_keeps_the_previous_store_and_manifest(
        self, fixture_config_path, tmp_path, monkeypatch, completed_run, workers
    ):
        # a write that fails once its file is open (a full disk; a kill acts
        # alike) hits the second target's only snapshot write, and then the
        # manifest save that records the failed stage; with 4 workers, later
        # targets are running then, and their answers must still be counted
        run_dir = tmp_path / "run"
        config = load_config(fixture_config_path)
        config["agent_concurrency"] = workers
        answered = tap(monkeypatch)
        write_text = Path.write_text
        snapshots: list[Path] = []  # each target's snapshot, in write order
        cut: list[Path] = []
        # the cut manifest's agent_calls, and the lines and answered calls then
        counted: list[tuple[int, int, int]] = []

        def cut_short(path, data, *args, **kwargs):
            if path.parent.name == "trees":
                snapshots.append(path)
            if (len(snapshots) == 2 and not cut) or (
                len(cut) == 1 and path.name.startswith("manifest.json")
            ):
                if cut:
                    counted.append(
                        (json.loads(data)["agent_calls"], line_count(run_dir), len(answered))
                    )
                cut.append(path)
                write_text(path, data[: len(data) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            return write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", cut_short)
        with pytest.raises(OSError, match="injected"):
            run_pipeline(config, run_dir)
        monkeypatch.setattr(Path, "write_text", write_text)
        assert len(cut) == 2 and cut[0] == snapshots[1]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"]["optimize"]["status"] == "running"
        # the fan-out was closed before that manifest save: it counted every
        # answered call, those of the targets still running included
        (saved,) = counted
        assert saved[0] == saved[1] == saved[2] == len(answered)
        assert disk_tags(run_dir) == Counter(answered)
        stores = list((run_dir / "trees").iterdir())
        assert len(stores) == 1 and stores[0].suffix == ".json"
        payload = json.loads(stores[0].read_text())
        key = payload["target"]
        assert stores[0].read_bytes() == tree_path(completed_run, key).read_bytes()
        quizzed = {
            f"quiz/{node['node_id']}/{record['case_id']}"
            for node in payload["nodes"]
            for record in node["records"]
        }
        asked = {e["tag"] for e in _transcript(run_dir) if e["tag"].startswith(f"quiz/{key}/")}
        assert asked == quizzed != set()
        (second,) = {
            json.loads(path.read_text())["target"]
            for path in (completed_run / "trees").iterdir()
            if path.name + ".tmp" == cut[0].name
        }
        asked_second = Counter(
            e["tag"] for e in _transcript(run_dir) if e["tag"].startswith(f"quiz/{second}/")
        )

        calls_before = len(_transcript(run_dir))
        run_pipeline(config, run_dir, resume=True)
        resumed = [e["tag"] for e in _transcript(run_dir)[calls_before:]]
        # the written target asks nothing again; the cut one starts over
        assert not [tag for tag in resumed if tag.startswith(f"quiz/{key}/")]
        assert Counter(
            tag for tag in resumed if tag.startswith(f"quiz/{second}/")
        ) == asked_second != Counter()
        assert stores[0].read_bytes() == tree_path(completed_run, key).read_bytes()
        assert agent_calls(run_dir) == line_count(run_dir) == len(answered)

    def test_moved_run_dir_resumes_with_every_stage_skipped(
        self, fixture_config_path, tmp_path
    ):
        built = tmp_path / "built"
        assert run_cli(["run-all", "--config", fixture_config_path, "--run-dir", built]) == 0
        moved = built.rename(tmp_path / "moved")
        assert not built.exists()
        lines_before = (moved / "transcript.jsonl").read_text().count("\n")
        assert run_cli(
            ["run-all", "--config", fixture_config_path, "--run-dir", moved, "--resume"]
        ) == 0
        manifest = json.loads((moved / "manifest.json").read_text())
        assert all(entry["skipped"] for entry in manifest["stages"].values())
        assert list(manifest["stages"]) == list(STAGES)
        assert (moved / "transcript.jsonl").read_text().count("\n") == lines_before

    def test_fully_skipped_resume_writes_the_manifest_once(
        self, completed_run, fixture_config_path, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        shutil.copytree(completed_run, run_dir)
        writes = []
        write = pipeline_mod.opt_tree.write_atomically

        def counting(path, text):
            writes.append(Path(path).name)
            write(path, text)

        monkeypatch.setattr(pipeline_mod.opt_tree, "write_atomically", counting)
        assert run_cli(
            ["run-all", "--config", fixture_config_path, "--run-dir", run_dir, "--resume"]
        ) == 0
        assert writes == ["manifest.json"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert all(entry["skipped"] for entry in manifest["stages"].values())

    def test_corpus_moved_with_config_and_run_dir_resumes_with_every_stage_skipped(
        self, fixture_dir, tmp_path
    ):
        built = tmp_path / "built"
        shutil.copytree(fixture_dir, built)
        assert run_cli(
            ["run-all", "--config", built / "config.json", "--run-dir", built / "run"]
        ) == 0
        moved = tmp_path / "elsewhere" / "moved"
        shutil.copytree(built, moved)
        shutil.rmtree(built)
        lines_before = (moved / "run" / "transcript.jsonl").read_text().count("\n")
        assert run_cli(
            ["run-all", "--config", moved / "config.json", "--run-dir", moved / "run", "--resume"]
        ) == 0
        manifest = json.loads((moved / "run" / "manifest.json").read_text())
        assert {name: entry["skipped"] for name, entry in manifest["stages"].items()} == {
            name: True for name in STAGES
        }
        assert (moved / "run" / "transcript.jsonl").read_text().count("\n") == lines_before

    def test_edited_world_file_reruns_the_stages_that_ask_the_agent(self, fixture_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        args = ["--config", data / "config.json", "--run-dir", tmp_path / "run"]
        assert run_cli(["init-rules", *args]) == 0
        world_path = data / "world.json"
        world_path.write_text(world_path.read_text() + "\n")
        assert run_cli(["init-rules", *args, "--resume"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        skipped = {name: entry["skipped"] for name, entry in manifest["stages"].items()}
        assert skipped == {
            "ingest": True, "split": True, "group-precedents": True, "init-rules": False
        }

    def test_edited_label_file_reruns_the_stages_that_read_it(self, fixture_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        args = ["--config", data / "config.json", "--run-dir", tmp_path / "run"]
        assert run_cli(["init-rules", *args]) == 0
        labels_path = data / "labels.json"
        labels = json.loads(labels_path.read_text())
        labels["charges"].append("embezzlement")
        labels_path.write_text(json.dumps(labels, indent=2) + "\n")
        assert run_cli(["init-rules", *args, "--resume"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        skipped = {name: entry["skipped"] for name, entry in manifest["stages"].items()}
        assert skipped == {
            "ingest": False, "split": True, "group-precedents": False, "init-rules": False
        }

    def test_run_dir_with_dense_candidates_and_absolute_paths_resumes(
        self, completed_run, fixture_config_path, tmp_path
    ):
        # an older run dir: manifest outputs by absolute path; learned
        # stages stay skipped and predictions match
        run_dir = tmp_path / "run"
        args = ["--config", fixture_config_path, "--run-dir", run_dir]
        assert run_cli(["train-candidates", *args]) == 0
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["stages"].values():
            entry["outputs"] = {
                str(run_dir / name): digest for name, digest in entry["outputs"].items()
            }
        manifest_path.write_text(json.dumps(manifest))

        assert run_cli(["evaluate", *args, "--resume"]) == 0
        manifest = json.loads(manifest_path.read_text())
        learned = list(STAGES)[: list(STAGES).index("train-candidates") + 1]
        assert all(manifest["stages"][name]["skipped"] for name in learned)
        assert not manifest["stages"]["examine"]["skipped"]
        assert (run_dir / "predictions.jsonl").read_bytes() == (
            completed_run / "predictions.jsonl"
        ).read_bytes()

    def test_prefix_subcommand_stops_at_stage(self, fixture_config_path, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli(["split", "--config", fixture_config_path, "--run-dir", run_dir]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert list(manifest["stages"]) == ["ingest", "split"]
        assert (run_dir / "split.json").exists()
        assert not (run_dir / "precedents.json").exists()

    def test_every_stage_and_run_all_is_a_subcommand(self):
        parser = build_parser()
        for name in (*STAGES, "run-all"):
            assert parser.parse_args([name, "--config", "config.json"]).command == name

    def test_group_precedents_subcommand_stops_after_grouping(
        self, fixture_config_path, tmp_path
    ):
        run_dir = tmp_path / "run"
        assert run_cli(
            ["group-precedents", "--config", fixture_config_path, "--run-dir", run_dir]
        ) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert list(manifest["stages"]) == ["ingest", "split", "group-precedents"]
        written = sorted(p.name for p in run_dir.iterdir() if p.is_file())
        assert written == [
            "cases.valid.jsonl", "labels.json", "manifest.json", "precedents.json",
            "rejects.jsonl", "split.json",
        ]
        assert not any((run_dir / "trees").iterdir())

    def test_resumed_run_keeps_usage_of_earlier_calls(
        self, fixture_config_path, tmp_path, monkeypatch
    ):
        class Metered:
            """Passes calls through, reporting 10 input and 1 output unit each."""

            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name

            def send(self, request):
                response = self.inner.send(request)
                return ChatResponse(response.text, input_units=10, output_units=1)

        build_agent = pipeline_mod.build_agent
        monkeypatch.setattr(
            pipeline_mod, "build_agent", lambda *a, **k: Metered(build_agent(*a, **k))
        )
        run_dir = tmp_path / "run"
        args = ["--config", fixture_config_path, "--run-dir", run_dir]
        assert run_cli(["train-candidates", *args]) == 0
        assert run_cli(["evaluate", *args, "--resume"]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        with (run_dir / "transcript.jsonl").open() as handle:
            entries = [json.loads(line) for line in handle]
        assert manifest["agent_calls"] == len(entries) > 0
        assert (
            manifest["usage"]["input_units"]
            == 10 * manifest["agent_calls"]
            == sum(e["input_units"] for e in entries)
        )
        assert manifest["usage"]["output_units"] == sum(e["output_units"] for e in entries)

    def test_resumed_run_reports_the_oracles_usage(self, fixture_config_path, tmp_path):
        # the synthetic oracle bills each call's characters, so the totals a
        # reopened transcript seeds are not 0
        args = ["run-all", "--config", fixture_config_path, "--run-dir", tmp_path / "run"]
        assert run_cli(args) == 0
        assert run_cli([*args, "--resume"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert all(entry["skipped"] for entry in manifest["stages"].values())
        entries = _transcript(tmp_path / "run")
        assert manifest["agent_calls"] == len(entries)
        usage = manifest["usage"]
        assert usage["input_units"] == sum(e["input_units"] for e in entries) > 0
        assert usage["output_units"] == sum(e["output_units"] for e in entries) > 0
        for entry in entries:
            request = entry["request"]
            assert entry["input_units"] == len(request["system"]) + len(request["user"])
            assert entry["output_units"] == len(entry["response"])

    def test_run_all_reads_the_label_file_once(
        self, fixture_config_path, tmp_path, monkeypatch
    ):
        calls = []

        def counted(path):
            calls.append(Path(path))
            return load_label_space(path)

        monkeypatch.setattr(rljp.corpus, "load_label_space", counted)
        args = ["--config", fixture_config_path, "--run-dir", tmp_path / "run"]
        assert run_cli(["run-all", *args]) == 0
        labels_path = Path(load_config(fixture_config_path)["data"]["labels_path"])
        assert calls.count(labels_path) == 1

    def test_mock_flag_runs_offline(self, fixture_config_path, tmp_path):
        run_dir = tmp_path / "run"
        code = run_cli(
            ["split", "--config", fixture_config_path, "--run-dir", run_dir, "--mock"]
        )
        assert code == 0

    def test_mock_run_resumed_without_mock_skips_every_stage(self, fixture_config_path, tmp_path):
        # the fixture's mock backends are its own backends
        args = ["run-all", "--config", fixture_config_path, "--run-dir", tmp_path / "run"]
        assert run_cli([*args, "--mock"]) == 0
        calls = len(_transcript(tmp_path / "run"))
        assert run_cli([*args, "--resume"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert all(entry["skipped"] for entry in manifest["stages"].values())
        assert len(_transcript(tmp_path / "run")) == calls


def _transcript(run_dir) -> list[dict]:
    with (run_dir / "transcript.jsonl").open() as handle:
        return [json.loads(line) for line in handle]


def _resume_after_edit(fixture_dir, tmp_path, edit, *, first_args=(), prepare=None):
    """Run the fixture, apply `edit` to its config, resume; returns the run
    dir, the stages that re-ran, and the new agent calls."""
    data = tmp_path / "data"
    shutil.copytree(fixture_dir, data)
    config_path = data / "config.json"

    def rewrite(change):
        raw = json.loads(config_path.read_text())
        change(raw)
        config_path.write_text(json.dumps(raw))

    if prepare is not None:
        rewrite(prepare)
    run_dir = tmp_path / "run"
    args = ["run-all", "--config", config_path, "--run-dir", run_dir]
    assert run_cli([*args, *first_args]) == 0
    calls = len(_transcript(run_dir))
    rewrite(edit)
    assert run_cli([*args, "--resume"]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    rerun = {name for name, entry in manifest["stages"].items() if not entry["skipped"]}
    return run_dir, rerun, _transcript(run_dir)[calls:]


class TestSettingsPerRow:
    """An edit re-runs the stages whose rows list the edited setting, and
    the stages whose inputs then change; a tree store is reused only under
    its stage's recorded input hash."""

    def test_num_options_edit_requizzes_with_three_options(self, fixture_dir, tmp_path):
        def edit(raw):
            raw["quiz"] = {"num_options": 3}

        run_dir, rerun, calls = _resume_after_edit(fixture_dir, tmp_path, edit)
        # group-precedents re-checks the label universes; its precedents.json
        # is unchanged, so init-rules is skipped
        assert rerun == {"group-precedents", "optimize"}
        assert calls and all(e["tag"].startswith(("quiz/", "cacl/")) for e in calls)
        letters = {
            record["correct_letter"]
            for store in (run_dir / "trees").glob("*.json")
            for node in json.loads(store.read_text())["nodes"]
            for record in node["records"]
        }
        assert letters == {"A", "B", "C"}

    def test_max_iterations_edit_leaves_init_rules_and_confusable_skipped(
        self, fixture_dir, tmp_path
    ):
        def edit(raw):
            raw["optimization"] = {"max_iterations": 4}

        _, rerun, calls = _resume_after_edit(fixture_dir, tmp_path, edit)
        assert rerun == {"optimize"}
        assert calls and not any(e["tag"].startswith("init/") for e in calls)

    def test_candidate_k_edit_leaves_train_candidates_skipped(self, fixture_dir, tmp_path):
        def edit(raw):
            raw["examination"] = {"candidate_k": 5}

        _, rerun, _ = _resume_after_edit(fixture_dir, tmp_path, edit)
        assert rerun == {"examine", "evaluate"}

    def test_precedent_k_edit_leaves_ingest_and_split_skipped(self, fixture_dir, tmp_path):
        def edit(raw):
            raw["data"]["precedent_k"] = 2

        _, rerun, _ = _resume_after_edit(fixture_dir, tmp_path, edit)
        assert rerun == {"group-precedents", "init-rules", "build-confusable"}

    def test_dropping_mock_reruns_the_stages_that_ask_the_agent(self, fixture_dir, tmp_path):
        def prepare(raw):
            # a mock world with other bytes but the same answers
            raw["providers"]["mock"]["agent"]["world_path"] = "mock_world.json"
            world = (tmp_path / "data" / "world.json").read_text()
            (tmp_path / "data" / "mock_world.json").write_text(world + "\n")

        _, rerun, calls = _resume_after_edit(
            fixture_dir, tmp_path, lambda raw: None, first_args=["--mock"], prepare=prepare
        )
        assert rerun == {"init-rules", "optimize", "examine"}
        assert calls


class ConfigReads:
    """A view of a config that records each settable key read through it."""

    SETTABLE = frozenset(
        f"{section}.{key}" if isinstance(values, dict) else section
        for section, values in DEFAULT_CONFIG.items()
        for key in (values if isinstance(values, dict) else [None])
    )

    def __init__(self, config: dict, reads: set, prefix: str = ""):
        self._config, self._reads, self._prefix = config, reads, prefix

    def __getitem__(self, key):
        name = self._prefix + key
        if name in self.SETTABLE:
            self._reads.add(name)
            return self._config[key]
        return ConfigReads(self._config[key], self._reads, name + ".")


class TestStageSettings:
    def test_settable_keys_are_the_default_config_leaves(self):
        assert len(ConfigReads.SETTABLE) == 17
        assert set(_FREEFORM) <= ConfigReads.SETTABLE

    def test_each_body_reads_exactly_its_row_settings(
        self, fixture_config_path, tmp_path, monkeypatch
    ):
        # build-confusable builds its embedder in its body, so its row shows
        # the read; only ingest reads data.labels_path
        reads = {name: set() for name in STAGES}

        def recording(name, body):
            def wrapped(run):
                config, run.config = run.config, ConfigReads(run.config, reads[name])
                try:
                    return body(run)
                finally:
                    run.config = config

            return wrapped

        for name, row in STAGE_TABLE.items():
            wrapped = dataclasses.replace(row, body=recording(name, row.body))
            monkeypatch.setitem(STAGE_TABLE, name, wrapped)
        run_pipeline(load_config(fixture_config_path), tmp_path / "run")
        for name, row in STAGE_TABLE.items():
            seen = {
                "providers.agent" if key == "providers.routing" else key
                for key in reads[name] - {"agent_concurrency"}
            }
            assert seen == set(row.settings), name
            assert len(row.settings) == len(seen), name


    def test_each_body_touches_exactly_its_row_files(
        self, fixture_config_path, tmp_path, monkeypatch
    ):
        # the parsed cases are dropped before each body, so a body that uses
        # them reads cases.valid.jsonl itself; tree stores are named through
        # tree_path, not path, and are not row files
        touched: dict[str, set] = {name: set() for name in STAGES}
        current: list[str] = []
        path = pipeline_mod.PipelineRun.path

        def recording_path(run, name):
            if current:
                touched[current[-1]].add(name)
            return path(run, name)

        def recording(name, body):
            def wrapped(run):
                run._cases = None
                current.append(name)
                try:
                    return body(run)
                finally:
                    current.pop()

            return wrapped

        monkeypatch.setattr(pipeline_mod.PipelineRun, "path", recording_path)
        for name, row in STAGE_TABLE.items():
            wrapped = dataclasses.replace(row, body=recording(name, row.body))
            monkeypatch.setitem(STAGE_TABLE, name, wrapped)
        run_pipeline(load_config(fixture_config_path), tmp_path / "run")
        for name, row in STAGE_TABLE.items():
            assert touched[name] == set(row.inputs) | set(row.outputs), name


class TestEngineValuesPerRow:
    """An edited engine constant or prompt text re-runs the stages whose rows
    name it, and the stages whose inputs then change."""

    def test_a_resume_re_runs_each_stage_whose_engine_value_was_edited(
        self, fixture_config_path, tmp_path, monkeypatch
    ):
        config = load_config(fixture_config_path)
        run_dir = tmp_path / "run"
        run_pipeline(config, run_dir)

        def resume():
            manifest = run_pipeline(config, run_dir, resume=True)
            return {name for name, entry in manifest["stages"].items() if not entry["skipped"]}

        # every fact the fixture's CACL prompts quote is under 600 characters,
        # so the trees and rules come out the same and examine is skipped
        monkeypatch.setattr(rljp.cacl, "FACT_TRUNCATE_DEFAULT", 600)
        assert resume() == {"optimize"}
        # examination imported the template by name, so only the hash sees this
        # edit; an edit of the source reaches both
        monkeypatch.setattr(rljp.prompts, "EXAM_CHECK", rljp.prompts.EXAM_CHECK + " Be brief.")
        assert {"examine"} <= resume() <= {"examine", "evaluate"}
        monkeypatch.setattr(rljp.candidates, "EPOCHS", 5)
        assert {"train-candidates", "examine"} <= resume() <= {
            "train-candidates", "examine", "evaluate"
        }
        assert resume() == set()


# the package's module-level constants that no stage row names, and why; a
# name with a leading underscore is its module's own, like its code
NOT_NAMED_BY_A_ROW = {
    "agents.API_KEY_ENV": "names the credential's environment variable",
    "agents.R": "a type variable",
    "agents.T": "a type variable",
    "prompts.T": "a type variable",
    "config.DEFAULT_CONFIG": "read through the config, whose keys the rows name as settings",
    "confusable.EMBED_BATCH": "output-neutral: texts per embeddings request",
    "confusable.GRAM_CHUNK": "output-neutral: characters per n-gram hashing pass",
    "corpus.RULE_KINDS": "the vocabulary the code is written in, edited only with it",
    "corpus.SUBTASKS": "the vocabulary the code is written in, edited only with it",
    "fol.KEYWORDS": "the vocabulary the code is written in, edited only with it",
    "quiz.OUTCOMES": "the vocabulary the code is written in, edited only with it",
    "pipeline.AGENT_STAGES": "the stage table's",
    "pipeline.STAGES": "the stage table's",
    "pipeline.STAGE_TABLE": "the stage table",
    "synthetic.TERM_BUCKETS": "the corpus generator's; a run reads the corpus it wrote",
}


def _module_constants() -> set[str]:
    """`module.NAME` of each upper-case name a module of the package assigns
    at its top level."""
    names = set()
    for path in Path(pipeline_mod.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)
            ]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    names.add(f"{path.stem}.{target.id}")
    return names


class TestStageEngineValues:
    def test_every_module_constant_is_named_by_a_row_or_listed(self):
        named = {dotted for row in STAGE_TABLE.values() for dotted in row.engine}
        constants = _module_constants()
        assert named <= constants
        assert constants - named == set(NOT_NAMED_BY_A_ROW)
        for name, row in STAGE_TABLE.items():
            assert len(set(row.engine)) == len(row.engine), name

    def test_editing_a_named_value_changes_exactly_its_rows_input_hashes(
        self, completed_run, tmp_path, monkeypatch
    ):
        shutil.copytree(completed_run, tmp_path / "run")
        config = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]
        run = pipeline_mod.PipelineRun(config, tmp_path / "run", resume=True)
        before = {name: run._stage_input_hash(name) for name in STAGES}
        for dotted in {dotted for row in STAGE_TABLE.values() for dotted in row.engine}:
            module, _, attribute = dotted.partition(".")
            module = importlib.import_module(f"rljp.{module}")
            with monkeypatch.context() as patch:
                patch.setattr(module, attribute, [getattr(module, attribute)])
                changed = {name for name in STAGES if run._stage_input_hash(name) != before[name]}
            assert changed == {n for n, row in STAGE_TABLE.items() if dotted in row.engine}, dotted


class TestPipelineProducts:
    def test_split_is_a_partition(self, completed_run):
        split = json.loads((completed_run / "split.json").read_text())
        ids = split["train"] + split["validation"] + split["test"]
        assert len(ids) == len(set(ids)) == 60
        assert (len(split["train"]), len(split["validation"]), len(split["test"])) == (
            48,
            6,
            6,
        )

    def test_rule_stores_carry_required_fields(self, completed_run):
        for name in ("rules_init.json", "rules_optimized.json"):
            payload = json.loads((completed_run / name).read_text())
            assert payload["rules"]
            for row in payload["rules"].values():
                assert {"target", "rule_text", "version", "provenance"} <= set(row)

    def test_optimized_rules_advance_versions(self, completed_run):
        init = json.loads((completed_run / "rules_init.json").read_text())["rules"]
        optimized = json.loads((completed_run / "rules_optimized.json").read_text())["rules"]
        assert set(optimized) == set(init)
        assert all(row["version"] == 0 for row in init.values())
        assert all(row["version"] >= 1 for row in optimized.values())

    def test_confusable_store_schema(self, completed_run):
        payload = json.loads((completed_run / "confusable.json").read_text())
        for row in payload.values():
            assert row["positive_ids"]
            assert row["negative_ids"]
            assert set(row["similarity_of_each_negative"]) == set(row["negative_ids"])

    def test_predictions_cover_test_split(self, completed_run):
        split = json.loads((completed_run / "split.json").read_text())
        with (completed_run / "predictions.jsonl").open() as handle:
            rows = [json.loads(line) for line in handle]
        assert [r["case_id"] for r in rows] == split["test"]
        for row in rows:
            assert {"case_id", "article", "charge", "term", "used_fallback",
                    "used_abstract", "rationale"} <= set(row)

    def test_tree_stores_follow_node_id_scheme(self, completed_run):
        trees = sorted((completed_run / "trees").glob("*.json"))
        assert len(trees) == 24
        for path in trees:
            payload = json.loads(path.read_text())
            for node in payload["nodes"]:
                target, version, sequence = node["node_id"].rsplit("/", 2)
                assert target == payload["target"]
                assert version == str(node["version"])
                assert sequence.isdigit()

    @pytest.mark.parametrize("artifact", list(RESAVE))
    def test_artifact_round_trips_byte_for_byte(self, completed_run, tmp_path, artifact):
        # read then write reproduces the file; for tree stores, a node's
        # weight, outcome counts and correct letters come from its records
        RESAVE[artifact](completed_run, tmp_path)
        written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
        assert written
        if artifact == "trees":
            assert written == sorted(
                p.relative_to(completed_run) for p in (completed_run / "trees").glob("*.json")
            )
        for name in written:
            assert (tmp_path / name).read_bytes() == (completed_run / name).read_bytes(), name

    def test_a_finished_run_reads_without_its_corpus_or_config(self, fixture_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        run_dir = tmp_path / "run"
        assert run_cli(["run-all", "--config", corpus / "config.json", "--run-dir", run_dir]) == 0
        shutil.rmtree(corpus)

        # only the readers run: the config, and the world file an agent is
        # built from, went with the corpus directory
        cases = cases_of(run_dir)
        split = load_split(run_dir / "split.json", cases)
        parts = (split.train, split.validation, split.test)
        assert sorted(c.case_id for part in parts for c in part) == sorted(cases)
        groups = load_precedents(run_dir / "precedents.json", cases)
        assert {c.case_id for group in groups.values() for c in group} <= {
            c.case_id for c in split.train
        }
        init = load_ruleset(run_dir / "rules_init.json")
        assert set(init.rules) | set(init.failures) == {consequent_key(t) for t in groups}
        assert not init.weights
        sets = load_confusable(run_dir / "confusable.json", cases)
        assert set(sets) <= set(init.rules)
        optimized = load_ruleset(run_dir / "rules_optimized.json")
        assert set(optimized.rules) == set(optimized.weights) == set(sets)
        assert all(rule.version >= 1 for rule in optimized.rules.values())
        predictions = load_predictions(run_dir / "predictions.jsonl")
        assert [p.case_id for p in predictions] == [c.case_id for c in split.test]

        # each artifact, every tree store included, reads back and writes the
        # same bytes; the quizzes are rebuilt from labels.json
        out = tmp_path / "resaved"
        out.mkdir()
        for resave in RESAVE.values():
            resave(run_dir, out)
        trees = sorted(p.relative_to(run_dir) for p in (run_dir / "trees").glob("*.json"))
        assert len(trees) == len(sets)
        written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert written == sorted([*(Path(name) for name in RESAVE if name != "trees"), *trees])
        for name in written:
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_tree_store_names_are_distinct_per_target(self, tmp_path):
        keys = ["article=264,charge=a b", "article=264,charge=a.b", "article=264,charge=a-b"]
        assert len({tree_path(tmp_path, key) for key in keys}) == 3
        for key in ("article=264,charge=theft", "article=348,term=lt_6m"):
            assert tree_path(tmp_path, key) == tmp_path / "trees" / f"{key}.json"

    def test_every_artifact_is_deterministic(self, completed_run, repeated_run):
        # the manifest and transcript carry wall-clock times and latencies
        def files(root):
            return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

        names = files(repeated_run)
        assert names == files(completed_run)
        for name in names:
            if name in ("manifest.json", "transcript.jsonl"):
                continue
            assert (repeated_run / name).read_bytes() == (completed_run / name).read_bytes(), name

    def test_identical_runs_record_identical_input_hashes(self, completed_run, repeated_run):
        # a wall-clock time in a rule store would change the input hash of
        # optimize (rules_init.json) and examine (rules_optimized.json)
        def input_hashes(run_dir):
            stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
            return {name: stage["input_hash"] for name, stage in stages.items()}

        ours, theirs = input_hashes(repeated_run), input_hashes(completed_run)
        assert {"optimize", "examine"} <= set(ours)
        assert ours == theirs


class TestInitRulesPrecedents:
    def test_charge_and_term_groups_with_one_label_stay_apart(self, tmp_path):
        # under article 264, charge "2" and term bucket "2" name different cases
        rows = [
            ("c1", "took a bicycle", "2", "b0"),
            ("c2", "took a wallet", "theft", "2"),
            ("c3", "took a phone", "2", "b0"),
            ("c4", "took a purse", "theft", "2"),
        ]
        with (tmp_path / "cases.jsonl").open("w") as handle:
            for case_id, fact, charge, term in rows:
                meta = {"relevant_articles": ["264"], "accusation": [charge], "term_bucket": [term]}
                handle.write(json.dumps({"case_id": case_id, "fact": fact, "meta": meta}) + "\n")
        key = "article=264,charge=2"
        script = {
            f"init/summarize/{key}": "SUBJECT: adult\nBEHAVIOR: taking",
            f"init/symbols/{key}": "VAR x: the case\nPRED Took/1: took property\nQUANT x: FORALL",
            f"init/rule/{key}": "RULE: FORALL x (Took(x)) -> ARTICLE(264) CHARGE(2)",
        }
        (tmp_path / "script.json").write_text(json.dumps(script))
        # one article, two charges and two terms: a quiz can offer two options
        config = {
            "data": {"cases_path": "cases.jsonl"},
            "providers": {"agent": {"kind": "scripted", "script_path": "script.json"}},
            "quiz": {"num_options": 2},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        assert run_cli(["init-rules", "--config", config_path, "--run-dir", run_dir]) == 0

        precedents = json.loads((run_dir / "precedents.json").read_text())
        assert precedents["article=264,charge=2"] == ["c1", "c3"]
        assert precedents["article=264,term=2"] == ["c2", "c4"]
        with (run_dir / "transcript.jsonl").open() as handle:
            entries = [json.loads(line) for line in handle]
        (prompt,) = [e["request"]["user"] for e in entries if e["tag"] == f"init/summarize/{key}"]
        assert "bicycle" in prompt and "phone" in prompt
        assert "wallet" not in prompt and "purse" not in prompt
        rules = json.loads((run_dir / "rules_init.json").read_text())["rules"]
        assert list(rules) == [key]


def _write_small_corpus(directory, first_article, first_charge, **config):
    """Three cases, the first with the given labels, the others 264/theft,
    and a config over them with a scripted agent that has no answers."""
    rows = [
        ("c1", "took a bicycle", first_article, first_charge),
        ("c2", "took a wallet", "264", "theft"),
        ("c3", "took a phone", "264", "theft"),
    ]
    with (directory / "cases.jsonl").open("w") as handle:
        for case_id, fact, article, charge in rows:
            meta = {"relevant_articles": [article], "accusation": [charge], "term_bucket": ["b0"]}
            handle.write(json.dumps({"case_id": case_id, "fact": fact, "meta": meta}) + "\n")
    (directory / "script.json").write_text("{}")
    config = {
        "data": {"cases_path": "cases.jsonl"},
        "providers": {"agent": {"kind": "scripted", "script_path": "script.json"}},
        **config,
    }
    (directory / "config.json").write_text(json.dumps(config))
    return directory / "config.json"


class TestIngestRejects:
    @pytest.mark.parametrize("charge", ["theft, aggravated"], ids=["comma-in-charge"])
    def test_label_with_a_key_separator_is_rejected(self, tmp_path, charge):
        config_path = _write_small_corpus(tmp_path, "264", charge)
        run_dir = tmp_path / "run"
        assert run_cli(["ingest", "--config", config_path, "--run-dir", run_dir]) == 0

        rejects = [json.loads(line) for line in (run_dir / "rejects.jsonl").open()]
        assert rejects == [{"line": 1, "reason": f"label {charge!r} holds a key separator"}]
        valid = [json.loads(line)["case_id"] for line in (run_dir / "cases.valid.jsonl").open()]
        assert valid == ["c2", "c3"]

    def test_label_holding_a_pipe_is_kept_and_its_precedents_round_trip(self, tmp_path):
        # two articles, one charge and one term: a quiz can offer two options
        config_path = _write_small_corpus(tmp_path, "26|4", "theft", quiz={"num_options": 2})
        run_dir = tmp_path / "run"
        args = ["--config", config_path, "--run-dir", run_dir]
        assert run_cli(["group-precedents", *args]) == 0

        assert (run_dir / "rejects.jsonl").read_text() == ""
        cases = cases_of(run_dir)
        assert list(cases) == ["c1", "c2", "c3"]
        assert load_label_space(run_dir / "labels.json").articles == ("26|4", "264")
        payload = json.loads((run_dir / "precedents.json").read_text())
        assert payload["article=26|4,charge=theft"] == payload["article=26|4,term=b0"] == ["c1"]
        groups = load_precedents(run_dir / "precedents.json", cases)
        assert [c.case_id for c in groups[ArticleCharge("26|4", "theft")]] == ["c1"]
        save_precedents(tmp_path / "precedents.json", groups)
        assert (tmp_path / "precedents.json").read_bytes() == (
            run_dir / "precedents.json"
        ).read_bytes()


class TestIngestLabelSpace:
    def test_labels_json_is_the_labels_file(self, fixture_dir, tmp_path):
        # in the reverse of the order the cases show the labels in
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        labels = json.loads((data / "labels.json").read_text())
        labels = {key: values[::-1] for key, values in labels.items()}
        (data / "labels.json").write_text(json.dumps(labels))
        run_dir = tmp_path / "run"
        assert run_cli(["ingest", "--config", data / "config.json", "--run-dir", run_dir]) == 0
        written = load_label_space(run_dir / "labels.json")
        assert written == load_label_space(data / "labels.json")
        assert written != label_space(load_cases(run_dir / "cases.valid.jsonl"))

    def test_labels_json_without_a_labels_file_is_the_cases_labels(self, fixture_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        raw = json.loads((data / "config.json").read_text())
        raw["data"]["labels_path"] = None
        (data / "config.json").write_text(json.dumps(raw))
        (data / "labels.json").unlink()
        run_dir = tmp_path / "run"
        assert run_cli(["ingest", "--config", data / "config.json", "--run-dir", run_dir]) == 0
        labels = load_label_space(run_dir / "labels.json")
        assert labels == label_space(load_cases(run_dir / "cases.valid.jsonl"))
