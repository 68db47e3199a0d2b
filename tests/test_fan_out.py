"""The ordered fan-out and the pipeline stages that run on it."""

import json
import threading
import time

import pytest

import rljp.pipeline as pipeline_mod
from helpers import fan_out_under_stress
from rljp.agents import (
    Agent,
    AgentError,
    ChatRequest,
    ChatResponse,
    ScriptedBackend,
    Transcript,
    fan_out,
)
from rljp.config import load_config
from rljp.pipeline import StageError, run_pipeline


def bare_agent(path=None) -> Agent:
    """An agent whose backend no test item calls."""
    return Agent(ScriptedBackend({}), Transcript(path))


def record(agent: Agent, tag: str) -> None:
    agent.transcript.record(ChatRequest("s", "u", tag=tag), ChatResponse("x"), retries=0,
                            backend="b")


def tags_on_disk(path) -> list[str]:
    return [json.loads(line)["tag"] for line in path.read_text(encoding="utf-8").splitlines()]


class TestFanOut:
    def test_results_in_item_order(self):
        # later items finish first
        def slow_first(i, agent):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert list(fan_out(slow_first, range(8), bare_agent(), 4)) == [i * i for i in range(8)]

    def test_reraises_a_workers_exception(self):
        def fail_on_three(i, agent):
            if i == 3:
                raise ValueError("item 3")
            return i

        with pytest.raises(ValueError, match="item 3"):
            list(fan_out(fail_on_three, range(8), bare_agent(), 4))

    @pytest.mark.parametrize("workers", [0, 1])
    def test_one_worker_is_a_plain_loop(self, workers):
        seen = []
        results = list(
            fan_out(
                lambda i, agent: seen.append((i, threading.get_ident())) or i,
                range(5), bare_agent(), workers,
            )
        )
        assert results == list(range(5))
        assert seen == [(i, threading.get_ident()) for i in range(5)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_nothing_starts_before_the_first_result_is_asked_for(self, workers):
        started = []
        results = fan_out(lambda i, agent: started.append(i), range(5), bare_agent(), workers)
        time.sleep(0.01)
        assert started == []
        assert next(results) is None
        assert 0 in started
        results.close()

    def test_at_most_workers_run_at_once(self):
        lock = threading.Lock()
        running, peak = [0], [0]

        def work(i, agent):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1
            return i

        assert list(fan_out(work, range(12), bare_agent(), 3)) == list(range(12))
        assert 1 < peak[0] <= 3

    @pytest.mark.parametrize("workers", [1, 4])
    def test_each_items_lines_are_on_disk_before_its_result(self, tmp_path, workers):
        path = tmp_path / "transcript.jsonl"
        agent = bare_agent(path)
        threads = set()

        def work(i, item_agent):
            assert item_agent.transcript is not agent.transcript
            assert item_agent.backend is agent.backend
            threads.add(threading.get_ident())
            time.sleep(0.002 * (6 - i))  # later items finish first
            record(item_agent, f"{i}/a")
            record(item_agent, f"{i}/b")
            return i

        for i in fan_out(work, range(6), agent, workers):
            assert tags_on_disk(path) == [f"{j}/{call}" for j in range(i + 1) for call in "ab"]
            assert agent.transcript.mark.calls == agent.transcript.calls == 2 * (i + 1)
        assert (threading.get_ident() in threads) == (workers == 1)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_an_exception_writes_every_started_items_lines_first(self, tmp_path, workers):
        path = tmp_path / "transcript.jsonl"
        agent = bare_agent(path)
        started = []

        def work(i, item_agent):
            started.append(i)
            record(item_agent, f"{i}/asked")
            if i == 3:
                time.sleep(0.02)  # the items after it finish first
                raise ValueError("item 3")
            return i

        with pytest.raises(ValueError, match="item 3"):
            list(fan_out(work, range(12), agent, workers))
        assert tags_on_disk(path) == [f"{i}/asked" for i in sorted(started)]
        if workers == 1:
            assert started == [0, 1, 2, 3]
        else:
            assert len(started) > 4  # later items ran while item 3 slept
        assert agent.transcript.mark.calls == len(started)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_closing_early_writes_every_started_items_lines(self, tmp_path, workers):
        path = tmp_path / "transcript.jsonl"
        agent = bare_agent(path)
        started = []

        def work(i, item_agent):
            started.append(i)
            time.sleep(0.002)
            record(item_agent, f"{i}/asked")
            return i

        results = fan_out(work, range(12), agent, workers)
        assert next(results) == 0
        results.close()
        if workers == 1:
            assert started == [0]
        else:
            assert set(range(4)) <= set(started)  # those running beside item 0 finished
        assert tags_on_disk(path) == [f"{i}/asked" for i in sorted(started)]
        assert agent.transcript.mark.calls == len(started)


class TestSharedStateUnderFanOut:
    def test_transcript_keeps_every_call(self, tmp_path):
        # the calling thread alone appends and writes, so the lines follow
        # item order however the workers interleave
        path = tmp_path / "transcript.jsonl"
        transcript, _ = fan_out_under_stress(path)
        assert transcript.calls == 64 * 5
        assert tags_on_disk(path) == [f"{i}/{call}" for i in range(64) for call in range(5)]


class CountingBackend:
    """Passes sends through after a short sleep, tracking how many overlap."""

    def __init__(self, inner, meter):
        self.inner = inner
        self.name = inner.name
        self.meter = meter

    def send(self, request):
        meter = self.meter
        with meter["lock"]:
            meter["in_flight"] += 1
            meter["peak"] = max(meter["peak"], meter["in_flight"])
        try:
            time.sleep(0.002)
            return self.inner.send(request)
        finally:
            with meter["lock"]:
                meter["in_flight"] -= 1


def without_latency(path) -> list[dict]:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        del entry["latency"]
        lines.append(entry)
    return lines


LEARNED_AND_PREDICTED = (
    "rules_init.json", "rules_optimized.json", "predictions.jsonl", "metrics.json"
)


@pytest.fixture(scope="module")
def runs_by_concurrency(fixture_config_path, tmp_path_factory):
    """The fixture run at agent_concurrency 1, 2 and 4: run dir and peak sends
    in flight of each."""
    runs = {}
    build_agent = pipeline_mod.build_agent
    for concurrency in (1, 2, 4):
        meter = {"lock": threading.Lock(), "in_flight": 0, "peak": 0}
        config = load_config(fixture_config_path)
        config["agent_concurrency"] = concurrency
        run_dir = tmp_path_factory.mktemp(f"concurrency{concurrency}")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                pipeline_mod,
                "build_agent",
                lambda *a, meter=meter, **k: CountingBackend(build_agent(*a, **k), meter),
            )
            run_pipeline(config, run_dir)
        runs[concurrency] = (run_dir, meter["peak"])
    return runs


class TestPipelineFanOut:
    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_outputs_do_not_depend_on_concurrency(self, runs_by_concurrency, concurrency):
        serial, _ = runs_by_concurrency[1]
        threaded, _ = runs_by_concurrency[concurrency]
        trees = sorted(p.name for p in (serial / "trees").iterdir())
        assert trees and trees == sorted(p.name for p in (threaded / "trees").iterdir())
        for name in [*LEARNED_AND_PREDICTED, *(f"trees/{tree}" for tree in trees)]:
            assert (threaded / name).read_bytes() == (serial / name).read_bytes(), name
        # the transcript too, line by line, but for each call's measured latency
        serial_lines, threaded_lines = (without_latency(run / "transcript.jsonl")
                                        for run in (serial, threaded))
        assert len(threaded_lines) == len(serial_lines) > 0
        for number, (line, expected) in enumerate(zip(threaded_lines, serial_lines), 1):
            assert line == expected, f"transcript line {number}"

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    def test_sends_in_flight_never_exceed_concurrency(self, runs_by_concurrency, concurrency):
        _, peak = runs_by_concurrency[concurrency]
        assert peak <= concurrency
        if concurrency > 1:
            assert peak > 1

    def test_failing_optimize_target_is_a_stage_error(
        self, fixture_config_path, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        config = load_config(fixture_config_path)
        run_pipeline(config, run_dir, last_stage="build-confusable")
        failing = sorted(json.loads((run_dir / "rules_init.json").read_text())["rules"])[1]

        class FailingQuiz:
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name

            def send(self, request):
                if request.tag.startswith(f"quiz/{failing}/"):
                    raise AgentError(f"endpoint down for {failing}")
                return self.inner.send(request)

        build_agent = pipeline_mod.build_agent
        monkeypatch.setattr(
            pipeline_mod, "build_agent", lambda *a, **k: FailingQuiz(build_agent(*a, **k))
        )
        with pytest.raises(StageError, match=f"endpoint down for {failing}") as caught:
            run_pipeline(config, run_dir, resume=True, last_stage="optimize")
        assert caught.value.stage == "optimize"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"]["optimize"]["status"] == "failed"
