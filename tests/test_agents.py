import json
import random

import pytest
import requests

from helpers import transcript_entries
from rljp.agents import (
    AgentError,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    PromptTemplate,
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
        template = PromptTemplate("t", "Fact: {{fact}}", frozenset({"fact"}))
        assert render_template(template, {"fact": "X stole a phone"}) == "Fact: X stole a phone"

    def test_missing_slot_names_the_slot(self):
        template = PromptTemplate("t", "Fact: {{fact}}", frozenset({"fact"}))
        with pytest.raises(KeyError, match="missing slot fact"):
            render_template(template, {})

    def test_no_recursive_expansion(self):
        template = PromptTemplate("t", "A: {{a}} B: {{b}}", frozenset({"a", "b"}))
        out = render_template(template, {"a": "{{b}}", "b": "x"})
        assert out == "A: {{b}} B: x"

    def test_declared_slot_must_appear_in_body(self):
        with pytest.raises(ValueError):
            PromptTemplate("t", "no slots here", frozenset({"fact"}))


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
        transcript = Transcript(tmp_path / "transcript.jsonl")
        sleeps: list[float] = []
        response = complete(
            _request(),
            backend,
            transcript=transcript,
            rng=random.Random(0),
            sleep=sleeps.append,
        )
        assert response.text == "ok"
        assert backend.calls == 3
        assert len(sleeps) == 2
        assert len(transcript) == 1
        assert transcript_entries(transcript)[0]["retries"] == 2

    def test_exhausted_retries(self):
        backend = FlakyBackend(failures=99)
        with pytest.raises(RetriesExhaustedError):
            complete(
                _request(),
                backend,
                policy=RetryPolicy(max_attempts=3),
                rng=random.Random(0),
                sleep=lambda _: None,
            )
        assert backend.calls == 3

    def test_non_transient_error_is_not_retried(self):
        backend = FlakyBackend(failures=99, error=AgentError)
        with pytest.raises(AgentError):
            complete(_request(), backend, sleep=lambda _: None)
        assert backend.calls == 1

    def test_refusal_is_distinct_and_not_retried(self):
        backend = ScriptedBackend({"t": Refusal("filtered")})
        with pytest.raises(RefusalError):
            complete(_request("t"), backend, sleep=lambda _: None)

    def test_backoff_is_exponential_with_full_jitter(self):
        policy = RetryPolicy(base_delay=1.0, factor=2.0, max_attempts=5)
        rng = random.Random(42)
        for attempt in range(4):
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert 0.0 <= delay <= 2.0**attempt

    def test_transcript_lines_match_logical_calls(self, tmp_path):
        backend = ScriptedBackend({"a": "1", "b": "2"})
        transcript = Transcript(tmp_path / "transcript.jsonl")
        complete(_request("a"), backend, transcript=transcript)
        complete(_request("b"), backend, transcript=transcript)
        assert len(transcript) == 2
        assert [e["tag"] for e in transcript_entries(transcript)] == ["a", "b"]


class TestTranscript:
    def test_reopened_transcript_seeds_counters_from_its_lines(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        first = Transcript(path)
        first.record(_request("a"), ChatResponse("x", 7, 2), retries=0, backend="b")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"tag": "cut short\n')
        reopened = Transcript(path)
        assert (reopened.calls, reopened.input_units, reopened.output_units) == (2, 7, 2)
        reopened.record(_request("b"), ChatResponse("y", 3, 1), retries=0, backend="b")
        assert (len(reopened), reopened.input_units, reopened.output_units) == (3, 10, 3)


class TestChatRequest:
    def test_empty_user_text_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(system_text="s", user_text="")

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(system_text="s", user_text="u", temperature=-0.1)


class FakeHttpResponse:
    def __init__(self, status_code, payload=None, text=None):
        self.status_code = status_code
        self.text = json.dumps(payload or {}) if text is None else text

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
        transcript = Transcript(tmp_path / "transcript.jsonl")
        response = complete(
            _request(), backend, transcript=transcript,
            rng=random.Random(1), sleep=lambda _: None,
        )
        assert response.text == "hello"
        assert transcript_entries(transcript)[0]["retries"] == 2
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
            _request(), backend, rng=random.Random(1), sleep=lambda _: None
        )
        assert response.text == "hello"
        assert len(session.requests) == 2

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
            complete(_request(), backend, sleep=lambda _: None)
        assert not isinstance(err.value, TransientAgentError)
        assert len(session.requests) == 1
