"""A latency-injecting wrapper around every agent backend the pipeline builds.

It sleeps a fixed delay before each send, standing in for a remote endpoint,
then delegates and returns the reply unchanged. It also counts what a real
endpoint would bill: characters sent, and temperature-0 requests that repeat
an earlier one exactly.
"""

from __future__ import annotations

import hashlib
import threading
import time

from patch import replace_function


class BackendStats:
    """Counters shared by every wrapped backend of one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seen: set[bytes] = set()
        self.prompt_chars = 0
        self.temp0_sends = 0
        self.repeats = 0
        self.inner_cpu_s = 0.0

    def observe(self, backend: str, request) -> None:
        chars = len(request.system_text) + len(request.user_text)
        key = None
        if request.temperature == 0:
            key = hashlib.sha1(
                "\0".join(
                    (
                        backend,
                        request.system_text,
                        request.user_text,
                        repr(request.temperature),
                        str(request.max_output_length),
                    )
                ).encode("utf-8")
            ).digest()
        with self._lock:
            self.prompt_chars += chars
            if key is not None:
                self.temp0_sends += 1
                if key in self._seen:
                    self.repeats += 1
                else:
                    self._seen.add(key)

    def add_inner_cpu(self, seconds: float) -> None:
        with self._lock:
            self.inner_cpu_s += seconds


class LatencyBackend:
    """Sleeps `delay_s`, then forwards to `inner`; the reply is untouched."""

    def __init__(self, inner, delay_s: float, stats: BackendStats):
        self.inner = inner
        self.name = getattr(inner, "name", "?")
        self.delay_s = delay_s
        self.stats = stats

    def send(self, request):
        if self.delay_s:
            time.sleep(self.delay_s)
        self.stats.observe(self.name, request)
        started = time.thread_time()
        try:
            return self.inner.send(request)
        finally:
            self.stats.add_inner_cpu(time.thread_time() - started)


def install(delay_s: float) -> BackendStats:
    """Wrap every backend that `rljp.config.build_agent` returns from now on,
    including stage-routed ones."""
    import rljp.config

    stats = BackendStats()
    original = rljp.config.build_agent

    def build_agent(*args, **kwargs):
        return LatencyBackend(original(*args, **kwargs), delay_s, stats)

    replace_function(original, build_agent)
    return stats
