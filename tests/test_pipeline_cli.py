import hashlib
import json
from pathlib import Path

import pytest

import rljp.pipeline as pipeline_mod
from rljp.agents import ChatResponse
from rljp.candidates import CharNgramPerceptron
from rljp.cli import build_parser, main
from rljp.config import ConfigError, load_config
from rljp.pipeline import STAGES


def run_cli(args):
    return main([str(a) for a in args])


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

    def test_per_stage_routing_builds_distinct_backends(self, fixture_dir, tmp_path):
        from rljp.config import build_agent

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
        default_agent = build_agent(config)
        routed_agent = build_agent(config, stage="optimize")
        assert default_agent.name == "synthetic-oracle"
        assert routed_agent.name == "scripted"
        # unrouted stages keep the default
        assert build_agent(config, stage="examine").name == "synthetic-oracle"


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
                assert path in manifest["artifacts"]
                assert not Path(path).is_absolute()
                assert (completed_run / path).exists()

    def test_config_snapshot_is_complete(self, completed_run, fixture_config_path):
        manifest = json.loads((completed_run / "manifest.json").read_text())
        assert manifest["config"] == load_config(fixture_config_path)
        assert manifest["seed"] == 50

    def test_rejects_report_is_empty_for_clean_corpus(self, completed_run):
        assert (completed_run / "rejects.jsonl").read_text() == ""


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
        # simulate a crash mid-optimize: stage not recorded in the manifest,
        # one tree file on disk unreadable -> stage rebuilds it, no checksum error
        run_dir = tmp_path / "run"
        assert run_cli(
            ["optimize", "--config", fixture_config_path, "--run-dir", run_dir]
        ) == 0
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["stages"]["optimize"]
        manifest_path.write_text(json.dumps(manifest))
        victim = sorted((run_dir / "trees").glob("*.json"))[0]
        victim.write_text("{ not json")
        assert run_cli(
            ["optimize", "--config", fixture_config_path, "--run-dir", run_dir, "--resume"]
        ) == 0
        assert json.loads(victim.read_text())["max_score"] >= 0.9

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

    def test_run_dir_with_dense_candidates_and_absolute_paths_resumes(
        self, completed_run, fixture_config_path, tmp_path
    ):
        # an older run dir: dense candidate weights, manifest outputs by
        # absolute path; learned stages stay skipped and predictions match
        run_dir = tmp_path / "run"
        args = ["--config", fixture_config_path, "--run-dir", run_dir]
        assert run_cli(["train-candidates", *args]) == 0
        candidates_path = run_dir / "candidates.json"
        provider = CharNgramPerceptron.load(candidates_path)
        payload = json.loads(candidates_path.read_text())
        payload["weights"] = {s: w.tolist() for s, w in provider._weights.items()}
        candidates_path.write_text(json.dumps(payload) + "\n")
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["stages"].values():
            entry["outputs"] = {
                str(run_dir / name): digest for name, digest in entry["outputs"].items()
            }
        manifest["stages"]["train-candidates"]["outputs"][str(candidates_path)] = (
            hashlib.sha256(candidates_path.read_bytes()).hexdigest()
        )
        manifest["artifacts"] = [str(run_dir / name) for name in manifest["artifacts"]]
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
            "cases.valid.jsonl", "manifest.json", "precedents.json", "rejects.jsonl", "split.json"
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

    def test_run_all_reads_the_label_file_once(
        self, fixture_config_path, tmp_path, monkeypatch
    ):
        calls = []
        load_label_space = pipeline_mod.load_label_space

        def counted(path):
            calls.append(path)
            return load_label_space(path)

        monkeypatch.setattr(pipeline_mod, "load_label_space", counted)
        args = ["--config", fixture_config_path, "--run-dir", tmp_path / "run"]
        assert run_cli(["run-all", *args]) == 0
        assert len(calls) == 1

    def test_mock_flag_runs_offline(self, fixture_config_path, tmp_path):
        run_dir = tmp_path / "run"
        code = run_cli(
            ["split", "--config", fixture_config_path, "--run-dir", run_dir, "--mock"]
        )
        assert code == 0


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
        config = {
            "data": {"cases_path": "cases.jsonl"},
            "providers": {"agent": {"kind": "scripted", "script_path": "script.json"}},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        assert run_cli(["init-rules", "--config", config_path, "--run-dir", run_dir]) == 0

        precedents = json.loads((run_dir / "precedents.json").read_text())
        assert precedents["article+charge"]["264|2"] == ["c1", "c3"]
        assert precedents["article+prison_term"]["264|2"] == ["c2", "c4"]
        with (run_dir / "transcript.jsonl").open() as handle:
            entries = [json.loads(line) for line in handle]
        (prompt,) = [e["request"]["user"] for e in entries if e["tag"] == f"init/summarize/{key}"]
        assert "bicycle" in prompt and "phone" in prompt
        assert "wallet" not in prompt and "purse" not in prompt
        rules = json.loads((run_dir / "rules_init.json").read_text())["rules"]
        assert list(rules) == [key]
