"""Chat-completion abstraction: remote OpenAI-compatible backends, scripted
mocks for deterministic offline runs, retry with backoff, and the rendering
of prompt templates, which are plain strings with {{slot}} markers.

An `Agent` pairs a backend with the transcript its calls are recorded in.
Every logical call goes through complete(), which sends through the agent's
backend, handles transient retries (exponential backoff with full jitter, in
`retry`, which the HTTP embedder shares) and records one line per call in the
agent's transcript. Scripted mocks replay an ordered tag -> text mapping and
fail loudly on anything unscripted, so tests pin the exact conversation a
stage is allowed to have. fan_out() is the one place that runs agent work
on threads: each worker makes its calls one after another, so the worker
count bounds the calls in flight. Each work item records into a transcript
of its own, and the thread that iterates fan_out's results appends an item's
lines to the run's transcript and writes them out before it takes that
item's result, so the file holds the items' lines in item order and no two
threads ever share a transcript. Each write-out leaves a `Mark`, the file's
length and the totals of the calls it holds; a transcript reopened from a
mark (a run keeps the last one in its manifest) reads only the bytes after
it, so reopening costs the lines since the mark, not the run's history.

Outside its send, a call makes no system call: the retry jitter's RNG is
only built (and seeded from os.urandom) after a transient failure. Seeding
it on every call made the worker threads hand the interpreter lock to each
other on every call instead of only when a send waits.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Protocol, Sequence, TypeVar,
    Union,
)

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

API_KEY_ENV = "RLJP_API_KEY"

T = TypeVar("T")
R = TypeVar("R")


class AgentError(RuntimeError):
    """Non-retryable backend failure (bad request, unscripted mock, ...)."""


class TransientAgentError(AgentError):
    """Retryable failure: timeouts, 5xx, connection resets.

    `retry_after` is the wait in seconds the server asked for, or 0."""

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


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


class Mark(NamedTuple):
    """Where a transcript file ended at a flush, and the totals of the calls
    its lines up to there hold."""

    offset: int
    calls: int
    input_units: int
    output_units: int


class Transcript:
    """Append-only call log; one JSON line per logical agent call.

    Keeps running totals of calls and usage units, and the lines recorded
    since the last `flush`, which appends them to the file in one write (a
    transcript without a file drops them). A transcript belongs to one
    thread: `fan_out` gives each work item a path-less transcript of its
    own and `extend`s the caller's with it on the calling thread. Callers
    flush before writing any artifact that holds an answer, so a hard kill
    loses only lines whose answers no artifact holds. Opening an existing
    log seeds the totals, so a resumed run still accounts for every call in
    the file. Given the `Mark` of an earlier flush (a run's manifest keeps
    the last one), it starts from that mark's totals and decodes only the
    lines after its offset: those a crash left between that flush and the
    next manifest save, and any line cut short. Without a mark, or when the
    file is shorter than the mark's offset (which it logs), it decodes every
    line from byte 0. A transcript is only ever appended to, so the bytes
    before a mark's offset are the lines its totals count.
    """

    def __init__(self, path: Optional[str | Path] = None, mark: Optional[Mark] = None):
        self.path = Path(path) if path is not None else None
        self.calls = 0
        self.input_units = 0
        self.output_units = 0
        self.lines: list[str] = []  # recorded since the last flush
        # the file's length after the last flush and the totals of the calls
        # its lines hold; None before the first flush
        self.mark: Optional[Mark] = None
        size, offset = self._size(), 0
        if mark is not None and size >= mark.offset:
            offset = mark.offset
            self.calls, self.input_units, self.output_units = mark[1:]
        elif mark is not None:
            logger.warning(
                "%s: %d bytes, shorter than the %d recorded; counting every line",
                self.path, size, mark.offset,
            )
        if size == offset:
            return  # nothing after the mark, or no file
        line = b""
        with self.path.open("rb") as handle:
            handle.seek(offset)
            for line in handle:
                try:
                    entry = json.loads(line)
                except ValueError:
                    # a write cut short by a crash, even inside a character
                    # (a UnicodeDecodeError): still one call
                    logger.warning("%s: unreadable line counted without usage", self.path)
                    entry = {}
                self._count(entry.get("input_units", 0), entry.get("output_units", 0))
        if line and not line.endswith(b"\n"):
            self.lines.append("\n")  # so the next call starts a line of its own

    def _size(self) -> int:
        """The file's length in bytes; 0 while there is no file."""
        try:
            return self.path.stat().st_size if self.path is not None else 0
        except FileNotFoundError:
            return 0

    def _count(self, input_units: int, output_units: int) -> None:
        self.calls += 1
        self.input_units += input_units
        self.output_units += output_units

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
        self.lines.append(json.dumps(entry, ensure_ascii=False) + "\n")
        self._count(response.input_units, response.output_units)

    def extend(self, other: Transcript) -> None:
        """Take the calls a fresh, never flushed `other` recorded: its lines
        go after this transcript's, and its totals are added to these."""
        self.lines += other.lines
        other.lines = []
        self.calls += other.calls
        self.input_units += other.input_units
        self.output_units += other.output_units

    def flush(self) -> None:
        """Append the lines recorded since the last flush to the file; then
        `mark` is where the file ends."""
        lines, self.lines = self.lines, []
        if lines and self.path is not None:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.writelines(lines)
        self.mark = Mark(self._size(), self.calls, self.input_units, self.output_units)


@dataclass(frozen=True)
class Agent:
    """A backend and the transcript its calls are recorded in; without a
    transcript file the calls are counted and their lines kept until a
    flush drops them."""

    backend: Backend
    transcript: Transcript = field(default_factory=Transcript)


def retry(
    call: Callable[[], T],
    tag: str,
    *,
    policy: RetryPolicy,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[T, int]:
    """`call()` and the number of retries it took.

    A TransientAgentError is retried up to policy.max_attempts attempts in
    all, with full-jitter backoff and at least the failure's retry_after in
    between; any other error propagates at once.
    """
    last_error: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        try:
            return call(), attempt
        except TransientAgentError as exc:
            last_error = exc
            logger.warning(
                "transient failure on %s (attempt %d/%d): %s",
                tag, attempt + 1, policy.max_attempts, exc,
            )
            if attempt + 1 < policy.max_attempts:
                if rng is None:
                    # seeding from os.urandom is a system call; only a retry pays it
                    rng = random.Random()
                sleep(max(policy.delay(attempt, rng), exc.retry_after))
    raise RetriesExhaustedError(
        f"gave up on {tag!r} after {policy.max_attempts} attempts: {last_error}"
    )


def complete(
    request: ChatRequest,
    agent: Agent,
    *,
    policy: RetryPolicy = RetryPolicy(),
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> ChatResponse:
    """One logical call through `agent.backend`: retries transient failures
    (see `retry`), logs, records it in `agent.transcript`. Refusals and
    non-transient errors propagate immediately."""
    backend = agent.backend

    def send() -> ChatResponse:
        started = time.monotonic()
        response = backend.send(request)
        if response.latency_ms == 0.0:
            elapsed_ms = (time.monotonic() - started) * 1000.0
            response = replace(response, latency_ms=elapsed_ms)
        return response

    response, retries = retry(send, request.tag, policy=policy, rng=rng, sleep=sleep)
    logger.debug(
        "call %s ok in %.1fms (retries=%d, in=%d, out=%d)",
        request.tag, response.latency_ms, retries, response.input_units, response.output_units,
    )
    agent.transcript.record(
        request, response, retries=retries, backend=getattr(backend, "name", "?")
    )
    return response


def fan_out(
    fn: Callable[[T, Agent], R], items: Iterable[T], agent: Agent, workers: int
) -> Iterator[R]:
    """`fn(item, item_agent)` over `items` on at most `workers` threads;
    yields the results in item order, each as soon as it and every earlier
    one are done.

    `item_agent` is `agent`'s backend with a path-less transcript of the
    item's own. Before it yields item i's result, fan_out appends item i's
    lines to `agent.transcript` and flushes it, on the calling thread, so
    the file holds them, in item order, before the caller writes anything
    that holds their answers. Nothing starts before the first result is
    asked for. With `workers <= 1` it is a plain loop. An exception raised
    by `fn` propagates, the first in item order, after the items not yet
    started are cancelled and the running ones have finished; on that
    exception, or when the caller closes the generator early, the lines of
    every started item are appended and flushed first, in item order.
    """
    items = list(items)
    views = [Agent(agent.backend, Transcript()) for _ in items]
    taken = 0
    pool = None
    try:
        if workers <= 1 or len(items) <= 1:
            results = map(fn, items, views)
        else:
            pool = ThreadPoolExecutor(max_workers=min(workers, len(items)))
            results = pool.map(fn, items, views)
        for result in results:
            agent.transcript.extend(views[taken].transcript)
            taken += 1
            agent.transcript.flush()
            yield result
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # waits for the running items
        for view in views[taken:]:
            agent.transcript.extend(view.transcript)  # an item never started has none
        agent.transcript.flush()


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
# OpenAI-compatible HTTP clients


class HttpClient:
    """Session, bearer key and base URL of an OpenAI-compatible endpoint, and
    the one POST that classifies its failures.

    Credentials come from the RLJP_API_KEY environment variable. 5xx, 429
    and transport errors surface as TransientAgentError (so `retry` retries,
    no sooner than a numeric Retry-After on 429 or 503), other 4xx and
    unparsable bodies as AgentError. `requests` is imported here, not with
    the module, so a run with no http backend or embedder never loads it.
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
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.name = f"http:{model}"

    def post(self, path: str, payload: dict):
        """The parsed JSON body of a POST of `payload` to `path`."""
        import requests

        try:
            http_response = self.session.post(
                f"{self.base_url}/{path}",
                json=payload,
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransientAgentError(f"transport failure: {exc}") from exc
        status = http_response.status_code
        retry_after = _retry_after(http_response) if status in (429, 503) else 0.0
        if status >= 500:
            raise TransientAgentError(f"server error {status}", retry_after)
        if status == 429:
            raise TransientAgentError("rate limited (429)", retry_after)
        if status >= 400:
            raise AgentError(f"request rejected ({status}): {http_response.text[:500]}")
        try:
            return http_response.json()
        except ValueError as exc:
            raise AgentError(f"malformed response body: {exc!r}") from exc


class HttpBackend(HttpClient):
    """Chat-completions client. Besides `HttpClient`'s failures, a malformed
    200 body is an AgentError and a content-filter stop a RefusalError;
    `complete` times the call."""

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
        body = self.post("chat/completions", payload)
        try:
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
        return ChatResponse(text=text, input_units=input_units, output_units=output_units)


def _retry_after(http_response) -> float:
    """A numeric Retry-After header in seconds; 0 when absent or an HTTP date."""
    try:
        seconds = float(http_response.headers.get("Retry-After", ""))
    except ValueError:
        return 0.0
    return seconds if 0.0 <= seconds < math.inf else 0.0


# ---------------------------------------------------------------------------
# Prompt template rendering

_SLOT_RE = re.compile(r"\{\{(\w+)\}\}")


class MissingSlotError(KeyError):
    pass


def render_template(template: str, bindings: dict[str, str]) -> str:
    """Substitute the {{slot}} markers of `template`; bindings are inserted
    verbatim, never re-expanded."""
    pieces: list[str] = []
    last = 0
    for match in _SLOT_RE.finditer(template):
        slot = match.group(1)
        if slot not in bindings:
            raise MissingSlotError(f"missing slot {slot}")
        pieces.append(template[last : match.start()])
        pieces.append(str(bindings[slot]))
        last = match.end()
    pieces.append(template[last:])
    return "".join(pieces)
