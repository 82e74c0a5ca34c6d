"""A latency-injecting fake LLM server around the program's MockBackend.

It keeps the mock's backend_id and model, so response-cache keys are the
same as without it, and sleeps a fixed time before each call to stand in
for the network round trip. It records what a real endpoint's logs would
show: calls per purpose, prompt and reply characters, calls in flight, the
process's thread count, and each call's interval.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import tracing


@dataclass(frozen=True)
class CallRecord:
    purpose: str
    start: float
    end: float
    question_id: str | None
    span: int | None


class FakeServer:
    supports_scoring = True

    def __init__(self, backend, latency_s: float):
        self._backend = backend
        self.backend_id = backend.backend_id
        self.model = backend.model
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self.calls = {"rephrase": 0, "summarize": 0, "qa": 0}
        self.prompt_chars = 0
        self.reply_chars = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.peak_threads = 0
        self.records: list[CallRecord] = []

    def prepare_prompt(self, prompt: str) -> str:
        return self._backend.prepare_prompt(prompt)

    def _serve(self, purpose: str, prompt_chars: int, fn):
        with self._lock:
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)
            self.peak_threads = max(self.peak_threads, threading.active_count())
        start = time.perf_counter()
        try:
            if self.latency_s:
                time.sleep(self.latency_s)
            reply = fn()
        finally:
            end = time.perf_counter()
            with self._lock:
                self.inflight -= 1
        with self._lock:
            self.calls[purpose] += 1
            self.prompt_chars += prompt_chars
            self.reply_chars += len(reply) if isinstance(reply, str) else 0
            self.records.append(
                CallRecord(purpose, start, end, tracing.QUESTION.get(), tracing.CURRENT.get())
            )
        return reply

    def complete(self, req):
        return self._serve(req.purpose_tag, len(req.prompt), lambda: self._backend.complete(req))

    def score(self, prefix: str, continuation: str) -> float:
        return self._serve(
            "qa", len(prefix) + len(continuation), lambda: self._backend.score(prefix, continuation)
        )
