import json
import os
import random
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path

import pytest
import requests

from helpers import fan_out_under_stress, transcript_entries
from rljp import agents
from rljp.agents import (
    Agent,
    AgentError,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    Refusal,
    RefusalError,
    RetriesExhaustedError,
    RetryPolicy,
    ScriptedBackend,
    TransientAgentError,
    Transcript,
    complete,
    render_template,
)


SRC = Path(__file__).resolve().parent.parent / "src"


class FlakyBackend:
    """Fails with transient errors n times, then succeeds."""

    name = "flaky"

    def __init__(self, failures: int, error=TransientAgentError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def send(self, request: ChatRequest) -> ChatResponse:
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"boom {self.calls}")
        return ChatResponse(text="ok")


def _request(tag="t"):
    return ChatRequest(system_text="s", user_text="u", tag=tag)


class TestTemplates:
    def test_substitution(self):
        template = "Fact: {{fact}}"
        assert render_template(template, {"fact": "X stole a phone"}) == "Fact: X stole a phone"

    def test_missing_slot_names_the_slot(self):
        template = "Fact: {{fact}}"
        with pytest.raises(KeyError, match="missing slot fact"):
            render_template(template, {})

    def test_no_recursive_expansion(self):
        template = "A: {{a}} B: {{b}}"
        out = render_template(template, {"a": "{{b}}", "b": "x"})
        assert out == "A: {{b}} B: x"


class TestScriptedBackend:
    def test_replays_by_tag(self):
        backend = ScriptedBackend({"quiz#3": "Answer: B"})
        response = backend.send(_request("quiz#3"))
        assert response.text == "Answer: B"
        assert len(backend.calls) == 1

    def test_unscripted_tag_errors(self):
        backend = ScriptedBackend({})
        with pytest.raises(AgentError, match="unscripted"):
            backend.send(_request("nope"))

    def test_replay_exhaustion_errors(self):
        backend = ScriptedBackend({"t": ["one"]})
        backend.send(_request("t"))
        with pytest.raises(AgentError):
            backend.send(_request("t"))

    def test_ordered_multi_entry(self):
        backend = ScriptedBackend({"t": ["one", "two"]})
        assert backend.send(_request("t")).text == "one"
        assert backend.send(_request("t")).text == "two"

    def test_refusal_entry(self):
        backend = ScriptedBackend({"t": Refusal("policy")})
        with pytest.raises(RefusalError):
            backend.send(_request("t"))


class TestComplete:
    def test_two_transient_failures_then_success(self, tmp_path):
        backend = FlakyBackend(failures=2)
        agent = Agent(backend, Transcript(tmp_path / "transcript.jsonl"))
        sleeps: list[float] = []
        response = complete(_request(), agent, rng=random.Random(0), sleep=sleeps.append)
        assert response.text == "ok"
        assert backend.calls == 3
        assert len(sleeps) == 2
        assert agent.transcript.calls == 1
        assert transcript_entries(agent.transcript)[0]["retries"] == 2

    def test_exhausted_retries(self):
        backend = FlakyBackend(failures=99)
        with pytest.raises(RetriesExhaustedError):
            complete(
                _request(),
                Agent(backend),
                policy=RetryPolicy(max_attempts=3),
                rng=random.Random(0),
                sleep=lambda _: None,
            )
        assert backend.calls == 3

    def test_non_transient_error_is_not_retried(self):
        backend = FlakyBackend(failures=99, error=AgentError)
        with pytest.raises(AgentError):
            complete(_request(), Agent(backend), sleep=lambda _: None)
        assert backend.calls == 1

    def test_refusal_is_distinct_and_not_retried(self):
        backend = ScriptedBackend({"t": Refusal("filtered")})
        with pytest.raises(RefusalError):
            complete(_request("t"), Agent(backend), sleep=lambda _: None)

    def test_backoff_is_exponential_with_full_jitter(self):
        policy = RetryPolicy(base_delay=1.0, factor=2.0, max_attempts=5)
        rng = random.Random(42)
        for attempt in range(4):
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert 0.0 <= delay <= 2.0**attempt

    def test_a_first_send_that_succeeds_builds_no_rng(self, monkeypatch):
        # an unseeded Random seeds itself from os.urandom, a system call on
        # every logical call that only a retry needs
        def no_rng(*args):
            raise AssertionError("random.Random() built for a call that did not retry")

        monkeypatch.setattr(agents.random, "Random", no_rng)
        agent = Agent(ScriptedBackend({"t": "ok"}))
        assert complete(_request("t"), agent, sleep=lambda _: None).text == "ok"
        assert agent.transcript.calls == 1

    def test_a_retried_call_builds_its_rng_after_the_first_failure(self, monkeypatch):
        events: list[str] = []
        seeded = random.Random

        def logged_rng(*args):
            events.append("rng")
            return seeded(7)

        class LoggedFlaky(FlakyBackend):
            def send(self, request):
                events.append("send")
                return super().send(request)

        monkeypatch.setattr(agents.random, "Random", logged_rng)
        sleeps: list[float] = []
        policy = RetryPolicy(base_delay=0.5, factor=3.0, max_attempts=5)
        response = complete(_request(), Agent(LoggedFlaky(failures=2)), policy=policy,
                            sleep=sleeps.append)
        assert response.text == "ok"
        assert events == ["send", "rng", "send", "send"]
        # full jitter over [0, base * factor^attempt), drawn from that one rng
        expected = seeded(7)
        assert sleeps == [expected.uniform(0.0, 0.5), expected.uniform(0.0, 1.5)]
        assert 0.0 <= sleeps[0] < 0.5 and 0.0 <= sleeps[1] < 1.5

    def test_transcript_lines_match_logical_calls(self, tmp_path):
        agent = Agent(ScriptedBackend({"a": "1", "b": "2"}), Transcript(tmp_path / "t.jsonl"))
        complete(_request("a"), agent)
        complete(_request("b"), agent)
        assert agent.transcript.calls == 2
        assert [e["tag"] for e in transcript_entries(agent.transcript)] == ["a", "b"]


class TestTranscript:
    def test_reopened_transcript_seeds_counters_from_its_lines(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        first = Transcript(path)
        first.record(_request("a"), ChatResponse("x", 7, 2), retries=0, backend="b")
        first.flush()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"tag": "cut short\n')
        reopened = Transcript(path)
        assert (reopened.calls, reopened.input_units, reopened.output_units) == (2, 7, 2)
        reopened.record(_request("b"), ChatResponse("y", 3, 1), retries=0, backend="b")
        assert (reopened.calls, reopened.input_units, reopened.output_units) == (3, 10, 3)

    def test_a_transcript_reopened_after_a_flush_seeds_the_same_totals(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        first = Transcript(path)
        for i in range(5):
            first.record(_request(f"t{i}"), ChatResponse("x", i, 2 * i), retries=0, backend="b")
        first.flush()
        totals = (first.calls, first.input_units, first.output_units)
        assert totals == (5, 10, 20)
        reopened = Transcript(path)
        assert (reopened.calls, reopened.input_units, reopened.output_units) == totals

    def test_a_memory_only_transcript_counts_and_flushes_nothing(self):
        transcript = Transcript()
        for i in range(3):
            transcript.record(_request(), ChatResponse("x", 4, i), retries=0, backend="b")
        transcript.flush()
        assert (transcript.calls, transcript.input_units, transcript.output_units) == (3, 12, 3)

    def test_a_transcript_holds_no_lock_and_no_queue(self, tmp_path):
        # one thread owns a transcript (fan_out gives each work item one of
        # its own), so there is no lock to take or to convoy on, and no queue
        transcript = Transcript(tmp_path / "transcript.jsonl")
        transcript.record(_request(), ChatResponse("x", 2, 1), retries=0, backend="b")
        shared = (type(threading.Lock()), type(threading.RLock()), deque)
        assert [name for name, value in vars(transcript).items() if isinstance(value, shared)] == []
        assert (transcript.calls, transcript.input_units, transcript.output_units) == (1, 2, 1)
        assert len(transcript_entries(transcript)) == 1

    def test_records_from_many_threads_are_all_counted_and_written(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        items, calls = 64, 50
        transcript, _ = fan_out_under_stress(path, items=items, calls=calls)
        assert transcript.calls == items * calls
        assert transcript.input_units == calls * sum(range(1, items + 1))
        assert transcript.output_units == items * sum(range(calls))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len({json.loads(line)["tag"] for line in lines}) == items * calls


class TestChatRequest:
    def test_empty_user_text_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(system_text="s", user_text="")

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(system_text="s", user_text="u", temperature=-0.1)


class FakeHttpResponse:
    def __init__(self, status_code, payload=None, text=None, headers=None):
        self.status_code = status_code
        self.text = json.dumps(payload or {}) if text is None else text
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})

    def json(self):
        return json.loads(self.text)


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _ok_payload(text="hello", finish="stop"):
    return {
        "choices": [{"message": {"content": text}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 3},
    }


class TestHttpBackend:
    def _backend(self, responses, **kwargs):
        session = FakeSession(responses)
        backend = HttpBackend(
            "https://models.example/v1", "legal-model", session=session, **kwargs
        )
        return backend, session

    def test_success_parses_text_and_usage(self):
        backend, session = self._backend([FakeHttpResponse(200, _ok_payload())])
        response = backend.send(_request())
        assert response.text == "hello"
        assert (response.input_units, response.output_units) == (12, 3)
        sent = session.requests[0]
        assert sent["url"] == "https://models.example/v1/chat/completions"
        assert sent["json"]["model"] == "legal-model"
        assert [m["role"] for m in sent["json"]["messages"]] == ["system", "user"]

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("RLJP_API_KEY", "sk-secret")
        backend, session = self._backend([FakeHttpResponse(200, _ok_payload())])
        backend.send(_request())
        assert session.requests[0]["headers"]["Authorization"] == "Bearer sk-secret"

    def test_server_error_is_transient(self):
        backend, _ = self._backend([FakeHttpResponse(503)])
        with pytest.raises(TransientAgentError):
            backend.send(_request())

    def test_transport_failure_is_transient(self):
        backend, _ = self._backend([requests.ConnectionError("reset")])
        with pytest.raises(TransientAgentError):
            backend.send(_request())

    def test_client_error_is_not_transient(self):
        backend, _ = self._backend([FakeHttpResponse(400, {"error": "bad"})])
        with pytest.raises(AgentError) as err:
            backend.send(_request())
        assert not isinstance(err.value, TransientAgentError)

    def test_content_filter_is_refusal(self):
        backend, _ = self._backend(
            [FakeHttpResponse(200, _ok_payload(finish="content_filter"))]
        )
        with pytest.raises(RefusalError):
            backend.send(_request())

    def test_retry_integration_5xx_then_success(self, tmp_path):
        backend, session = self._backend(
            [FakeHttpResponse(500), FakeHttpResponse(502), FakeHttpResponse(200, _ok_payload())]
        )
        agent = Agent(backend, Transcript(tmp_path / "transcript.jsonl"))
        response = complete(_request(), agent, rng=random.Random(1), sleep=lambda _: None)
        assert response.text == "hello"
        assert transcript_entries(agent.transcript)[0]["retries"] == 2
        assert len(session.requests) == 3

    def test_rate_limit_is_transient(self):
        backend, _ = self._backend([FakeHttpResponse(429)])
        with pytest.raises(TransientAgentError):
            backend.send(_request())

    def test_retry_integration_429_then_success(self):
        backend, session = self._backend(
            [FakeHttpResponse(429), FakeHttpResponse(200, _ok_payload())]
        )
        response = complete(
            _request(), Agent(backend), rng=random.Random(1), sleep=lambda _: None
        )
        assert response.text == "hello"
        assert len(session.requests) == 2

    @pytest.mark.parametrize(
        "status, header, seconds",
        [
            (429, "7", 7.0),
            (503, "2.5", 2.5),
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
            (503, "-1", 0.0),
            (502, "7", 0.0),
        ],
    )
    def test_numeric_retry_after_on_429_and_503(self, status, header, seconds):
        backend, _ = self._backend([FakeHttpResponse(status, headers={"retry-after": header})])
        with pytest.raises(TransientAgentError) as err:
            backend.send(_request())
        assert err.value.retry_after == seconds

    def test_complete_waits_at_least_retry_after(self):
        backend, session = self._backend(
            [
                FakeHttpResponse(429, headers={"Retry-After": "30"}),
                FakeHttpResponse(503, headers={"Retry-After": "0"}),
                FakeHttpResponse(200, _ok_payload()),
            ]
        )
        sleeps: list[float] = []
        response = complete(_request(), Agent(backend), rng=random.Random(1), sleep=sleeps.append)
        assert response.text == "hello"
        assert len(session.requests) == 3
        # the second wait is plain full jitter over [0, 2) s: "0" asks for none
        assert sleeps[0] == 30.0 and 0.0 <= sleeps[1] < 2.0

    @pytest.mark.parametrize(
        "response",
        [
            FakeHttpResponse(200, text="<html>gateway</html>"),
            FakeHttpResponse(200, {"object": "chat.completion"}),
            FakeHttpResponse(200, {"choices": []}),
            FakeHttpResponse(200, {"choices": [{"finish_reason": "stop"}]}),
            FakeHttpResponse(200, {"choices": [{"message": {"content": None}}]}),
            FakeHttpResponse(200, {"choices": [{"message": {"content": ["a"]}}]}),
            FakeHttpResponse(200, {**_ok_payload(), "usage": {"prompt_tokens": "many"}}),
        ],
        ids=["not-json", "no-choices", "empty-choices", "no-message",
             "null-content", "list-content", "bad-usage"],
    )
    def test_malformed_body_is_a_non_transient_agent_error(self, response):
        backend, session = self._backend([response])
        with pytest.raises(AgentError, match="malformed") as err:
            complete(_request(), Agent(backend), sleep=lambda _: None)
        assert not isinstance(err.value, TransientAgentError)
        assert len(session.requests) == 1


def test_a_run_with_no_http_backend_never_imports_requests(fixture_config_path, tmp_path):
    # the fixture's agent is the synthetic oracle and its embedder is hashing
    script = (
        "import sys\n"
        "from rljp.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(status, 'requests' in sys.modules)\n"
    )
    args = ["run-all", "--config", str(fixture_config_path), "--run-dir", str(tmp_path / "run")]
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.stdout.splitlines()[-1] == "0 False", result.stderr[-2000:]
