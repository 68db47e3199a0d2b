"""Chat-completion abstraction: remote OpenAI-compatible backends, scripted
mocks for deterministic offline runs, retry with backoff, and prompt
templates.

Every logical call goes through complete(), which handles transient retries
(exponential backoff with full jitter) and appends one line per call to the
run transcript. Scripted mocks replay an ordered tag -> text mapping and fail
loudly on anything unscripted, so tests pin the exact conversation a stage is
allowed to have.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence, Union

import requests

logger = logging.getLogger(__name__)

API_KEY_ENV = "RLJP_API_KEY"


class AgentError(RuntimeError):
    """Non-retryable backend failure (bad request, unscripted mock, ...)."""


class TransientAgentError(AgentError):
    """Retryable failure: timeouts, 5xx, connection resets."""


class RefusalError(AgentError):
    """The provider returned a content refusal rather than an answer."""


class RetriesExhaustedError(AgentError):
    pass


@dataclass(frozen=True)
class ChatRequest:
    system_text: str
    user_text: str
    temperature: float = 0.0
    max_output_length: int = 2048
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.user_text:
            raise ValueError("user_text must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    input_units: int = 0
    output_units: int = 0
    latency_ms: float = 0.0


class Backend(Protocol):
    name: str

    def send(self, request: ChatRequest) -> ChatResponse: ...


@dataclass(frozen=True)
class RetryPolicy:
    base_delay: float = 1.0
    factor: float = 2.0
    max_attempts: int = 5

    def delay(self, attempt: int, rng: random.Random) -> float:
        # full jitter: uniform over [0, base * factor^attempt)
        return rng.uniform(0.0, self.base_delay * self.factor**attempt)


class Transcript:
    """Append-only call log; one JSON line per logical agent call.

    Keeps running totals of calls and usage units rather than the entries.
    Opening an existing log seeds the totals from its lines, so a resumed run
    still accounts for every call in the file.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self.calls = 0
        self.input_units = 0
        self.output_units = 0
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        # a write cut short by a crash: still one call
                        logger.warning("%s: unreadable line counted without usage", self.path)
                        entry = {}
                    self._count(entry)

    def _count(self, entry: dict) -> None:
        self.calls += 1
        self.input_units += entry.get("input_units", 0)
        self.output_units += entry.get("output_units", 0)

    def record(
        self,
        request: ChatRequest,
        response: ChatResponse,
        *,
        retries: int,
        backend: str,
    ) -> None:
        entry = {
            "tag": request.tag,
            "request": {
                "system": request.system_text,
                "user": request.user_text,
                "temperature": request.temperature,
            },
            "response": response.text,
            "latency": response.latency_ms,
            "retries": retries,
            "backend": backend,
            "input_units": response.input_units,
            "output_units": response.output_units,
        }
        with self._lock:
            self._count(entry)
            if self.path is not None:
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry, ensure_ascii=False))
                    handle.write("\n")

    def __len__(self) -> int:
        return self.calls


def complete(
    request: ChatRequest,
    provider: Backend,
    *,
    transcript: Optional[Transcript] = None,
    policy: RetryPolicy = RetryPolicy(),
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> ChatResponse:
    """One logical call: retries transient failures, logs, records transcript.

    Refusals and non-transient errors propagate immediately; transient ones
    are retried up to policy.max_attempts with full-jitter backoff.
    """
    rng = rng or random.Random()
    last_error: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        started = time.monotonic()
        try:
            response = provider.send(request)
        except TransientAgentError as exc:
            last_error = exc
            logger.warning(
                "transient failure on %s (attempt %d/%d): %s",
                request.tag,
                attempt + 1,
                policy.max_attempts,
                exc,
            )
            if attempt + 1 < policy.max_attempts:
                sleep(policy.delay(attempt, rng))
            continue
        elapsed_ms = (time.monotonic() - started) * 1000.0
        if response.latency_ms == 0.0:
            response = ChatResponse(
                text=response.text,
                input_units=response.input_units,
                output_units=response.output_units,
                latency_ms=elapsed_ms,
            )
        logger.debug(
            "call %s ok in %.1fms (retries=%d, in=%d, out=%d)",
            request.tag,
            response.latency_ms,
            attempt,
            response.input_units,
            response.output_units,
        )
        if transcript is not None:
            transcript.record(
                request, response, retries=attempt, backend=getattr(provider, "name", "?")
            )
        return response
    raise RetriesExhaustedError(
        f"gave up on {request.tag!r} after {policy.max_attempts} attempts: {last_error}"
    )


# ---------------------------------------------------------------------------
# Scripted mock


@dataclass(frozen=True)
class Refusal:
    """Script entry that makes the mock raise RefusalError."""

    reason: str = "refused"


ScriptEntry = Union[str, Refusal]


class ScriptedBackend:
    """Deterministic backend replaying an ordered tag -> response(s) script.

    Each tag maps to one response or a list consumed in order; asking a tag
    more times than scripted, or an unscripted tag, is an error. The full
    call sequence is kept in .calls.
    """

    name = "scripted"

    def __init__(self, script: dict[str, ScriptEntry | Sequence[ScriptEntry]]):
        self._remaining: dict[str, list[ScriptEntry]] = {}
        for tag, entries in script.items():
            if isinstance(entries, (str, Refusal)):
                self._remaining[tag] = [entries]
            else:
                self._remaining[tag] = list(entries)
        self.calls: list[ChatRequest] = []
        self._lock = threading.Lock()

    def send(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls.append(request)
            queue = self._remaining.get(request.tag)
            if not queue:
                raise AgentError(f"unscripted request for tag {request.tag!r}")
            entry = queue.pop(0)
        if isinstance(entry, Refusal):
            raise RefusalError(entry.reason)
        return ChatResponse(text=entry, latency_ms=0.0)


# ---------------------------------------------------------------------------
# OpenAI-compatible HTTP backend


class HttpBackend:
    """Chat-completions client for any OpenAI-compatible endpoint.

    Credentials come from the RLJP_API_KEY environment variable. 5xx, 429
    and transport errors surface as TransientAgentError (so complete()
    retries), other 4xx and malformed 200 bodies as AgentError, and
    content-filter stops as RefusalError.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        *,
        timeout: float = 60.0,
        session: Optional[requests.Session] = None,
        api_key: Optional[str] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.session = session or requests.Session()
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.name = f"http:{model}"

    def send(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_output_length,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        started = time.monotonic()
        try:
            http_response = self.session.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransientAgentError(f"transport failure: {exc}") from exc
        elapsed_ms = (time.monotonic() - started) * 1000.0
        status = http_response.status_code
        if status >= 500:
            raise TransientAgentError(f"server error {status}")
        if status == 429:
            raise TransientAgentError("rate limited (429)")
        if status >= 400:
            raise AgentError(f"request rejected ({status}): {http_response.text[:500]}")
        try:
            body = http_response.json()
            choice = body["choices"][0]
            refused = choice.get("finish_reason") == "content_filter"
            text = None if refused else choice["message"]["content"]
            usage = body.get("usage") or {}
            input_units = int(usage.get("prompt_tokens", 0))
            output_units = int(usage.get("completion_tokens", 0))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise AgentError(f"malformed response body: {exc!r}") from exc
        if refused:
            raise RefusalError("provider content filter")
        if not isinstance(text, str):
            raise AgentError(f"malformed response body: content is {type(text).__name__}")
        return ChatResponse(
            text=text,
            input_units=input_units,
            output_units=output_units,
            latency_ms=elapsed_ms,
        )


# ---------------------------------------------------------------------------
# Prompt templates

_SLOT_RE = re.compile(r"\{\{(\w+)\}\}")


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str
    required_slots: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        present = set(_SLOT_RE.findall(self.body))
        missing = self.required_slots - present
        if missing:
            raise ValueError(
                f"template {self.name}: declared slots absent from body: {sorted(missing)}"
            )


class MissingSlotError(KeyError):
    pass


def render_template(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Substitute {{slot}} markers; bindings are inserted verbatim, never
    re-expanded."""
    for slot in template.required_slots:
        if slot not in bindings:
            raise MissingSlotError(f"missing slot {slot}")

    pieces: list[str] = []
    last = 0
    for match in _SLOT_RE.finditer(template.body):
        slot = match.group(1)
        if slot not in bindings:
            raise MissingSlotError(f"missing slot {slot}")
        pieces.append(template.body[last : match.start()])
        pieces.append(str(bindings[slot]))
        last = match.end()
    pieces.append(template.body[last:])
    return "".join(pieces)
