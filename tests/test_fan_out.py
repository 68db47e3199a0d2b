"""The ordered fan-out and the pipeline stages that run on it."""

import json
import sys
import threading
import time

import pytest

import rljp.pipeline as pipeline_mod
from helpers import transcript_entries
from rljp.agents import (
    Agent,
    AgentError,
    ChatRequest,
    ScriptedBackend,
    Transcript,
    complete,
    fan_out,
)
from rljp.config import load_config
from rljp.pipeline import StageError, run_pipeline


class TestFanOut:
    def test_results_in_item_order(self):
        # later items finish first
        def slow_first(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert list(fan_out(slow_first, range(8), 4)) == [i * i for i in range(8)]

    def test_reraises_a_workers_exception(self):
        def fail_on_three(i):
            if i == 3:
                raise ValueError("item 3")
            return i

        with pytest.raises(ValueError, match="item 3"):
            list(fan_out(fail_on_three, range(8), 4))

    @pytest.mark.parametrize("workers", [0, 1])
    def test_one_worker_is_a_plain_loop(self, workers):
        seen = []
        results = list(
            fan_out(lambda i: seen.append((i, threading.get_ident())) or i, range(5), workers)
        )
        assert results == list(range(5))
        assert seen == [(i, threading.get_ident()) for i in range(5)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_nothing_starts_before_the_first_result_is_asked_for(self, workers):
        started = []
        results = fan_out(started.append, range(5), workers)
        time.sleep(0.01)
        assert started == []
        assert next(results) is None
        assert 0 in started
        results.close()

    def test_at_most_workers_run_at_once(self):
        lock = threading.Lock()
        running, peak = [0], [0]

        def work(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1
            return i

        assert list(fan_out(work, range(12), 3)) == list(range(12))
        assert 1 < peak[0] <= 3


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestSharedStateUnderFanOut:
    def test_transcript_keeps_every_call(self, fast_switching, tmp_path):
        n = 400
        agent = Agent(ScriptedBackend({"t": ["ok"] * n}), Transcript(tmp_path / "transcript.jsonl"))

        def call(i):
            complete(ChatRequest("system", f"prompt {i}", tag="t"), agent)

        list(fan_out(call, range(n), 8))
        assert agent.transcript.calls == n
        entries = transcript_entries(agent.transcript)
        assert sorted(e["request"]["user"] for e in entries) == sorted(
            f"prompt {i}" for i in range(n)
        )


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
