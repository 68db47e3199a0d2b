"""When transcript lines reach disk.

A worker records each call's line in its work item's own transcript;
`fan_out` appends an item's lines to the run's transcript and writes them
out, on the calling thread, before the caller writes any artifact that holds
their answers (a tree store, a rule file, the predictions), and the manifest
saves write out the rest. These tests pin that order, the one writing
thread, the accounting after a failed or interrupted stage, and a hard kill
followed by `--resume`.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import rljp.pipeline as pipeline_mod
from helpers import fan_out_under_stress
from rljp import examination, opt_tree, rule_init
from rljp.agents import ChatRequest, ChatResponse, RefusalError, Transcript
from rljp.cli import main
from rljp.config import load_config
from rljp.pipeline import StageError, run_pipeline

SRC = Path(__file__).resolve().parent.parent / "src"


class Tapped:
    """Passes each call to `inner` once `fault(request)` has let it through,
    and logs the tag of every answered call in `answered`."""

    def __init__(self, inner, answered, fault):
        self.inner = inner
        self.name = inner.name
        self.answered = answered
        self.fault = fault

    def send(self, request):
        self.fault(request)
        response = self.inner.send(request)
        self.answered.append(request.tag)
        return response


def tap(monkeypatch, fault=lambda request: None) -> list[str]:
    """The tags every backend the run builds answers, in answer order."""
    answered: list[str] = []
    build_agent = pipeline_mod.build_agent
    monkeypatch.setattr(
        pipeline_mod, "build_agent", lambda spec: Tapped(build_agent(spec), answered, fault)
    )
    return answered


def disk_tags(run_dir: Path) -> Counter:
    """The tag of each readable line of the run's transcript file."""
    tags = Counter()
    if not (run_dir / "transcript.jsonl").exists():
        return tags
    with (run_dir / "transcript.jsonl").open(encoding="utf-8") as handle:
        for line in handle:
            try:
                tags[json.loads(line)["tag"]] += 1
            except json.JSONDecodeError:
                pass  # a line a kill cut short
    return tags


def line_count(run_dir: Path) -> int:
    with (run_dir / "transcript.jsonl").open(encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def agent_calls(run_dir: Path) -> int:
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["agent_calls"]


def test_every_answer_is_on_disk_before_the_artifact_that_holds_it(
    fixture_config_path, tmp_path, monkeypatch
):
    answered = tap(monkeypatch)
    run_dir = tmp_path / "run"
    writes: Counter = Counter()
    problems: list[str] = []

    def check(artifact: str, prefixes: tuple[str, ...] = ("",)) -> None:
        # a failed assertion on a worker thread would only fail the stage
        held = Counter(tag for tag in list(answered) if tag.startswith(prefixes))
        missing = held - disk_tags(run_dir)
        if missing:
            problems.append(f"{artifact} written before {sorted(missing)[:3]} reached disk")
        writes[artifact if prefixes == ("",) else "trees"] += 1

    write_atomically = opt_tree.write_atomically

    def checked_write_atomically(path, text):
        if Path(path).parent.name == "trees":
            key = json.loads(text)["target"]
            check(Path(path).name, (f"quiz/{key}/", f"cacl/{key}/"))
        write_atomically(path, text)

    save_ruleset = rule_init.save_ruleset

    def checked_save_ruleset(path, ruleset):
        check(Path(path).name)
        save_ruleset(path, ruleset)

    save_predictions = examination.save_predictions

    def checked_save_predictions(path, predictions):
        check(Path(path).name)
        save_predictions(path, predictions)

    monkeypatch.setattr(opt_tree, "write_atomically", checked_write_atomically)
    monkeypatch.setattr(rule_init, "save_ruleset", checked_save_ruleset)
    monkeypatch.setattr(examination, "save_predictions", checked_save_predictions)
    run_pipeline(load_config(fixture_config_path), run_dir)
    assert problems == []
    assert writes["rules_init.json"] == writes["rules_optimized.json"] == 1
    assert writes["predictions.jsonl"] == 1
    # one snapshot per target, written when its loop has ended
    assert writes["trees"] == len(list((run_dir / "trees").glob("*.json"))) > 0
    assert agent_calls(run_dir) == line_count(run_dir) == len(answered)


def case_tags(run_dir: Path, case_id: str) -> Counter:
    """The transcript lines on disk that examining `case_id` wrote, by tag."""
    return Counter(
        {
            tag: count
            for tag, count in disk_tags(run_dir).items()
            if tag.startswith(f"exam/{case_id}/") or tag == f"abstract/{case_id}"
        }
    )


def test_every_agent_stage_writes_the_transcript_on_the_calling_thread(
    fixture_config_path, tmp_path, monkeypatch
):
    send_threads: set[int] = set()
    tap(monkeypatch, lambda request: send_threads.add(threading.get_ident()))
    run_dir = tmp_path / "run"
    config = load_config(fixture_config_path)
    config["agent_concurrency"] = 4
    caller = threading.get_ident()
    running: list[str] = []  # the stage whose body is running, while one is
    # (stage, method, thread) of each record, extend and flush of the run's
    # transcript, the only one with a file, while a body runs
    uses: list[tuple[str, str, int]] = []

    def watched(name):
        method = getattr(Transcript, name)

        def use(self, *args, **kwargs):
            if running and self.path is not None:
                uses.append((running[0], name, threading.get_ident()))
            return method(self, *args, **kwargs)

        monkeypatch.setattr(Transcript, name, use)

    for name in ("record", "extend", "flush"):
        watched(name)
    write_threads: set[int] = set()  # of the tree-store and manifest writes
    write_atomically = opt_tree.write_atomically

    def watched_write(path, text):
        write_threads.add(threading.get_ident())
        write_atomically(path, text)

    monkeypatch.setattr(opt_tree, "write_atomically", watched_write)
    for name in ("init-rules", "optimize", "examine"):
        row = pipeline_mod.STAGE_TABLE[name]

        def body(run, name=name, inner=row.body):
            running.append(name)
            try:
                return inner(run)
            finally:
                running.clear()

        monkeypatch.setitem(pipeline_mod.STAGE_TABLE, name, dataclasses.replace(row, body=body))

    # the examined cases, and each case's transcript lines on disk once the
    # caller has taken its prediction and asks for the next one (or the end)
    examined: list[str] = []
    seen_on_disk: list[Counter] = []
    fan_out = pipeline_mod.fan_out

    def watched_fan_out(fn, items, agent, workers):
        items = list(items)
        for item, result in zip(items, fan_out(fn, items, agent, workers)):
            yield result
            if running == ["examine"]:
                examined.append(item[0].case_id)
                seen_on_disk.append(sum((case_tags(run_dir, c) for c in examined), Counter()))

    monkeypatch.setattr(pipeline_mod, "fan_out", watched_fan_out)
    run_pipeline(config, run_dir)

    flushes = Counter(stage for stage, method, _ in uses if method == "flush")
    rules = json.loads((run_dir / "rules_init.json").read_text())["rules"]
    assert flushes["init-rules"] >= len(rules) > 1
    assert flushes["optimize"] >= len(list((run_dir / "trees").glob("*.json"))) > 1
    assert flushes["examine"] >= len(examined) > 1
    assert {thread for _, _, thread in uses} == write_threads == {caller}
    assert len(send_threads - {caller}) > 1  # the calls themselves ran on the workers
    for i, on_disk in enumerate(seen_on_disk):
        expected = sum((case_tags(run_dir, c) for c in examined[: i + 1]), Counter())
        assert expected and on_disk == expected, examined[i]


@pytest.mark.parametrize("fault", [RefusalError, KeyboardInterrupt])
@pytest.mark.parametrize("workers", [1, 4])
def test_a_stage_cut_short_leaves_every_answered_call_on_disk(
    fixture_config_path, tmp_path, monkeypatch, fault, workers
):
    quizzed: Counter = Counter()  # quiz calls per node
    failed: list[str] = []
    lock = threading.Lock()

    def fail_one_node_midway(request):
        # the third question of a node quizzed after the 40th quiz call: the
        # node's first two answers are queued, and no tree store holds them
        if request.tag.startswith("quiz/"):
            with lock:
                node = request.tag.rsplit("/", 1)[0]
                quizzed[node] += 1
                if quizzed.total() > 40 and quizzed[node] == 3 and not failed:
                    failed.append(node)
                    raise fault("injected")

    answered = tap(monkeypatch, fail_one_node_midway)
    run_dir = tmp_path / "run"
    config = load_config(fixture_config_path)
    config["agent_concurrency"] = workers
    with pytest.raises(StageError if fault is RefusalError else KeyboardInterrupt):
        run_pipeline(config, run_dir)
    assert failed
    assert Counter(answered) == disk_tags(run_dir)
    assert agent_calls(run_dir) == line_count(run_dir) == len(answered)
    status = json.loads((run_dir / "manifest.json").read_text())["stages"]["optimize"]["status"]
    assert status == ("failed" if fault is RefusalError else "running")


def read_store(path: Path):
    """(name, payload) of a tree store, or None for one a write has not finished."""
    try:
        return path.name, json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None


def test_a_killed_run_resumes_to_the_fresh_outputs_with_every_call_counted(
    fixture_config_path, tmp_path
):
    run_dir = tmp_path / "killed"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    args = ["run-all", "--config", str(fixture_config_path), "--run-dir", str(run_dir)]
    process = subprocess.Popen(
        [sys.executable, "-m", "rljp.cli", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while True:
            assert process.poll() is None, "the run ended before its first tree store"
            assert time.monotonic() < deadline, "no tree store within 120 s"
            # stopped, the files are exactly what a kill would leave
            process.send_signal(signal.SIGSTOP)
            os.waitpid(process.pid, os.WUNTRACED)
            stores = dict(filter(None, map(read_store, run_dir.glob("trees/*.json"))))
            if stores:
                break
            process.send_signal(signal.SIGCONT)
            time.sleep(0.002)
    finally:
        process.kill()
        process.wait()

    on_disk = disk_tags(run_dir)
    for name, payload in stores.items():
        quizzed = Counter(
            f"quiz/{node['node_id']}/{record['case_id']}"
            for node in payload["nodes"]
            for record in node["records"]
        )
        assert not quizzed - on_disk, name
        children = sum(node["parent"] is not None for node in payload["nodes"])
        assert children <= on_disk[f"cacl/{payload['target']}/rewrite"], name

    assert main([*args, "--resume"]) == 0
    assert agent_calls(run_dir) == line_count(run_dir)
    fresh = tmp_path / "fresh"
    assert main([*args[:3], "--run-dir", str(fresh)]) == 0
    for name in ("predictions.jsonl", "metrics.json"):
        assert (run_dir / name).read_bytes() == (fresh / name).read_bytes(), name
    trees = sorted(path.name for path in (fresh / "trees").iterdir())
    assert sorted(path.name for path in (run_dir / "trees").iterdir()) == trees
    for name in trees:
        assert (run_dir / "trees" / name).read_bytes() == (fresh / "trees" / name).read_bytes()


def test_a_line_cut_short_is_ended_before_the_next_call(tmp_path):
    path = tmp_path / "transcript.jsonl"
    first = Transcript(path)
    first.record(ChatRequest("s", "u", tag="a"), ChatResponse("x"), retries=0, backend="b")
    first.flush()
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"tag": "cut')
    reopened = Transcript(path)
    reopened.record(ChatRequest("s", "u", tag="b"), ChatResponse("y"), retries=0, backend="b")
    reopened.flush()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == reopened.calls == 3
    assert json.loads(lines[-1])["tag"] == "b"


def test_fanned_out_records_lose_no_line(tmp_path):
    # more threads than cores and a short switch interval, so a line lost
    # between a worker's record and the caller's write, or an item written
    # out after its result was handed over, would show
    path = tmp_path / "transcript.jsonl"
    problems: list[str] = []

    def on_result(item: int) -> None:
        on_disk = {json.loads(line)["tag"] for line in path.read_text().splitlines()}
        problems.extend(f"{item}/{call}" for call in range(5) if f"{item}/{call}" not in on_disk)

    transcript, _ = fan_out_under_stress(path, on_result)
    assert problems == []
    lines = path.read_text().splitlines()
    assert len(lines) == len({json.loads(line)["tag"] for line in lines}) == transcript.calls == 320
