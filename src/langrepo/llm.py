"""LLM transport: text generation and continuation scoring.

One client fronts an OpenAI-compatible /completions endpoint or a
deterministic mock, adding retries, a content-addressed response cache, a
per-purpose call ledger, the one loop that re-asks until a reply parses,
and one scheduler that bounds backend requests in flight and runs the
fan-out helper (map) every caller goes through, oldest item first and at
any parallelism, each task keeping its run place through its calls.
The cache persists to one SQLite file when a directory is configured,
which makes repository builds resumable and lets repeated runs issue zero
new backend calls.
"""

from __future__ import annotations

import contextvars
import hashlib
import heapq
import itertools
import json
import logging
import re
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

from .errors import (
    BackendUnavailable, ConfigError, ContextOverflow, CountMismatch, FormatError, MalformedFile, ScoringUnsupported,
    require_min, require_timing,
)
from .ingest import decode
from .prompts import GROUP_MEMBER_SEPARATOR, ITEM_LINE

if TYPE_CHECKING:
    from .transport import Session

logger = logging.getLogger(__name__)

PURPOSES = ("rephrase", "summarize", "qa")
LLM_KEY_ENV = "LANGREPO_LLM_KEY"
CACHE_FILE = "responses.sqlite"
_BUSY_TIMEOUT_S = 30.0

_CONTEXT_OVERFLOW = re.compile(r"context|too (?:long|many tokens)|maximum.*length", re.I)

T = TypeVar("T")
R = TypeVar("R")

# The key of the map task running in this context: its path of item indices
# through nested maps, e.g. (3, k) for option k of question 3.
_TASK_KEY: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar("map_task_key", default=())


@dataclass(frozen=True)
class GenerationRequest:
    """Inputs of one text-generation call.

    attempt is a deliberate-retry nonce: it participates in the cache key,
    so re-asking after a bad reply reaches the backend instead of the cache.
    """

    prompt: str
    max_new_tokens: int = 512
    purpose_tag: str = "qa"
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.purpose_tag not in PURPOSES:
            raise ValueError(f"purpose_tag must be one of {PURPOSES}")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")


@dataclass(frozen=True)
class ScoreRequest:
    """Prefix plus the continuation whose log-likelihood is wanted."""

    prefix: str
    continuation: str

    def __post_init__(self) -> None:
        if not self.continuation:
            raise ValueError("continuation must be non-empty")


class CallLedger:
    """Thread-safe counts of backend calls per purpose and of "cache_hits"."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys((*PURPOSES, "cache_hits"), 0)

    def record(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def total_calls(self) -> int:
        with self._lock:
            return sum(self._counts[purpose] for purpose in PURPOSES)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class ResponseCache:
    """Replies by content-addressed key: in memory, or only in one SQLite
    file when a directory is given, so that a disk-backed cache does not
    grow in memory and several processes on one host can share it."""

    def __init__(self, directory: str | Path | None = None):
        self._lock = threading.Lock()
        self._mem: dict[str, dict] = {}
        self.directory = Path(directory) if directory else None
        self._db = None
        if self.directory:
            import sqlite3

            path = self.directory / CACHE_FILE
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                # Autocommit; WAL lets readers work beside one writer, and the
                # busy timeout makes writers of other processes wait their turn.
                self._db = sqlite3.connect(path, timeout=_BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False)
                # The switch to WAL does not wait the busy timeout: it fails at
                # once while another process writes a file still in rollback
                # mode, as when several open a new cache together.
                deadline = time.monotonic() + _BUSY_TIMEOUT_S
                while True:
                    try:
                        self._db.execute("PRAGMA journal_mode=WAL")
                        break
                    except sqlite3.OperationalError as exc:
                        if "locked" not in str(exc) or time.monotonic() > deadline:
                            raise
                        time.sleep(0.05)
                self._db.execute("PRAGMA synchronous=NORMAL")
                self._db.execute("CREATE TABLE IF NOT EXISTS replies (key TEXT PRIMARY KEY, value TEXT)")
            except OSError as exc:
                raise ConfigError(f"cache_dir {self.directory}: cannot create the directory: {exc}") from exc
            except sqlite3.DatabaseError as exc:
                raise MalformedFile(f"{path}: cannot open response cache: {exc}") from exc

    @staticmethod
    def key_for(payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def get(self, key: str) -> dict | None:
        with self._lock:
            if self._db is None:
                return self._mem.get(key)
            row = self._db.execute("SELECT value FROM replies WHERE key = ?", (key,)).fetchone()
        return None if row is None else json.loads(row[0])

    def put(self, key: str, value: dict) -> dict:
        """Store value unless key has one; the stored value, so the first writer wins across processes."""
        with self._lock:
            if self._db is None:
                return self._mem.setdefault(key, value)
            blob = json.dumps(value, ensure_ascii=False)
            self._db.execute("INSERT INTO replies VALUES (?, ?) ON CONFLICT (key) DO NOTHING", (key, blob))
            row = self._db.execute("SELECT value FROM replies WHERE key = ?", (key,)).fetchone()
        return json.loads(row[0])


class MockBackend:
    """Deterministic offline backend; a pure function of (prompt, params).

    Replies come from, in priority order: an exact-match scripted table,
    a per-purpose reply table, then built-in rules that keep the pipeline
    flowing (rephrase echoes each group's first member, summarize emits a
    digest roughly proportional to the prompt length, QA answers "A").
    Scripted values may be lists indexed by the request's attempt nonce.
    """

    backend_id = "mock"
    model = "mock"

    def __init__(
        self,
        scripted: dict[str, str | list[str]] | None = None,
        scripted_scores: dict[tuple[str, str], float] | None = None,
        purpose_replies: dict[str, str | list[str]] | None = None,
    ):
        self.scripted = scripted or {}
        self.scripted_scores = scripted_scores or {}
        self.purpose_replies = purpose_replies or {}

    def prepare_prompt(self, prompt: str) -> str:
        return prompt

    @staticmethod
    def _pick(value: str | list[str], attempt: int) -> str:
        if isinstance(value, str):
            return value
        return value[min(attempt, len(value) - 1)]

    def complete(self, req: GenerationRequest) -> str:
        if req.prompt in self.scripted:
            return self._pick(self.scripted[req.prompt], req.attempt)
        if req.purpose_tag in self.purpose_replies:
            return self._pick(self.purpose_replies[req.purpose_tag], req.attempt)
        if req.purpose_tag == "rephrase":
            return self._default_rephrase(req.prompt)
        if req.purpose_tag == "summarize":
            return self._default_summarize(req.prompt)
        return "A"

    @staticmethod
    def _default_rephrase(prompt: str) -> str:
        firsts = []
        for line in prompt.splitlines():
            m = ITEM_LINE.match(line)
            if m:
                firsts.append(m.group(2).split(GROUP_MEMBER_SEPARATOR)[0].strip())
        if not firsts:
            firsts = ["nothing to rephrase"]
        return "\n".join(f"{i + 1}. {text}" for i, text in enumerate(firsts))

    @staticmethod
    def _default_summarize(prompt: str) -> str:
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:10]
        unit = f"Summary {digest} of this segment. "
        target = max(len(unit), len(prompt) // 6)
        return (unit * (target // len(unit) + 1))[:target].rstrip()

    def score(self, prefix: str, continuation: str) -> float:
        if (prefix, continuation) in self.scripted_scores:
            return self.scripted_scores[(prefix, continuation)]
        return -len(continuation) / 10.0


@dataclass
class _Logprobs:
    token_logprobs: list[float | None]
    text_offset: list[int]

    def __post_init__(self) -> None:
        if len(self.token_logprobs) != len(self.text_offset):
            raise ValueError(f"has {len(self.token_logprobs)} token_logprobs and {len(self.text_offset)} text_offset")


@dataclass
class _Choice:
    text: str
    logprobs: _Logprobs | None = None


@dataclass
class _Completion:
    choices: list[_Choice]

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError("choices is empty")


LLM_KINDS = ("mock", "http")


@dataclass
class LlmSettings:
    kind: str = "mock"
    endpoint: str = ""
    model: str = ""
    max_retries: int = 2
    backoff_s: float = 1.0
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.kind not in LLM_KINDS:
            raise ConfigError(f"llm.kind must be one of {LLM_KINDS}, got {self.kind!r}")
        if self.kind == "http" and (not self.endpoint or not self.model):
            raise ConfigError("llm.kind 'http' requires endpoint and model")
        require_min("llm.max_retries", self.max_retries, 0)
        require_timing("llm", self.timeout_s, self.backoff_s)


class HttpBackend:
    """OpenAI-compatible /completions endpoint, for generation and scoring.

    Built from LlmSettings of kind "http". Generation POSTs {model, prompt,
    max_tokens, temperature 0} to <endpoint>/completions and reads
    choices[0].text. Scoring POSTs the concatenated text with echo and
    logprobs and sums the log-probabilities of the tokens whose span
    reaches into the continuation. Every reply is read by ingest.decode, so
    a malformed one raises BackendUnavailable naming the field. The API key
    is read from LANGREPO_LLM_KEY.
    """

    def __init__(self, settings: LlmSettings, session: Session | None = None):
        from . import transport

        if settings.kind != "http":
            raise ConfigError(f"HttpBackend needs llm.kind 'http', got {settings.kind!r}")
        self.settings = settings
        self.url = f"{settings.endpoint.rstrip('/')}/completions"
        self.model = settings.model
        self.session = session or transport.new_session()
        self.backend_id = f"http:{self.url}"

    def prepare_prompt(self, prompt: str) -> str:
        return prompt if prompt.startswith("[INST]") else f"[INST] {prompt} [/INST]"

    def _completion(self, prompt: str, max_tokens: int, **extra) -> _Choice:
        """The first choice of the endpoint's reply to prompt at temperature 0."""
        from . import transport

        body = {"model": self.model, "prompt": prompt, "max_tokens": max_tokens, **extra, "temperature": 0.0}
        try:
            data = transport.post_json(
                self.session, self.url, body,
                key_env=LLM_KEY_ENV, auth_header="Authorization", timeout_s=self.settings.timeout_s,
                max_retries=self.settings.max_retries, backoff_s=self.settings.backoff_s,
                label="llm backend", unavailable=BackendUnavailable,
            )
        except transport.HttpStatusError as exc:
            if exc.status == 400 and _CONTEXT_OVERFLOW.search(exc.text):
                raise ContextOverflow(f"backend rejected prompt as too long: {exc.text}") from exc
            raise BackendUnavailable(str(exc)) from exc
        return decode(_Completion, data, f"{self.url} reply", BackendUnavailable, reject_unknown=False).choices[0]

    def complete(self, req: GenerationRequest) -> str:
        return self._completion(req.prompt, req.max_new_tokens).text

    def score(self, prefix: str, continuation: str) -> float:
        logprobs = self._completion(prefix + continuation, 0, echo=True, logprobs=0).logprobs
        if logprobs is None:
            raise ScoringUnsupported(f"{self.url} returned no echo logprobs")
        # A token belongs to the continuation when its span ends past the
        # prefix: BPE and SentencePiece tokenizers attach the prefix's
        # trailing space to the next word, so that token starts before the
        # boundary. A span ends where the next token starts, the last one at
        # the end of the text.
        boundary = len(prefix)
        ends = [*logprobs.text_offset[1:], len(prefix) + len(continuation)]
        total = 0.0
        for logprob, end in zip(logprobs.token_logprobs, ends):
            if end > boundary and logprob is not None:
                total += logprob
        return total


class _Batch:
    """The items of one map call: results, errors, and the unfinished count."""

    def __init__(self, size: int):
        self.results: list = [None] * size
        self.errors: list[BaseException | None] = [None] * size
        self.remaining = size


class _Scheduler:
    """Task threads, run places and backend slots shared by a client's maps.

    Queued tasks wait in a heap by key, so a free run place always goes to
    the smallest key: the oldest unfinished item's work runs first. Each
    task that may start gets a place and a new thread that runs just that
    task, gives the place back and exits. No task starts while another's
    thread has yet to begin, so a task whose thread runs late still queues
    its map's items ahead of later keys. A thread keeps its place through
    a backend call, so tasks that wait for slots cannot fill the places
    that smaller queued keys need; one more task may start only while every
    place is held by a call, to take the next free slot. A thread gives
    its place up while it waits on its own map and takes it back after,
    even if the places are then overdrawn. Only a thread waiting in map
    starts threads, so no thread about to call the backend starts one:
    that can take a millisecond, which would delay the call.
    """

    def __init__(self, size: int):
        self._size = size
        self._cond = threading.Condition()
        self._seq = itertools.count()
        self._queue: list[tuple] = []
        self._free_places = size
        self._free_slots = size
        self._calls = 0  # slots held by placed threads
        self._starting = False  # a task's thread has yet to begin it
        self._slot_waiters: list[tuple[tuple[int, ...], int, threading.Event]] = []
        self._local = threading.local()

    def map(self, fn: Callable[[T], R], items: list[T]) -> list[R]:
        parent = _TASK_KEY.get()
        batch = _Batch(len(items))
        tasks = [
            ((*parent, i), next(self._seq), batch, i, contextvars.copy_context(), fn, item)
            for i, item in enumerate(items)
        ]
        placed = getattr(self._local, "placed", False)
        with self._cond:
            for task in tasks:
                heapq.heappush(self._queue, task)
            self._free_places += placed
        while True:
            with self._cond:
                self._cond.wait_for(lambda: not batch.remaining or self._startable())
                if not self._startable():
                    self._free_places -= placed
                    break
                self._free_places -= 1
                self._starting = True
                task = heapq.heappop(self._queue)
            threading.Thread(target=self._run_task, args=(task,), daemon=True).start()
        for error in batch.errors:
            if error is not None:
                raise error
        return batch.results

    @contextmanager
    def backend_slot(self) -> Iterator[None]:
        """Hold one of the slots, released to the smallest waiting key."""
        placed = getattr(self._local, "placed", False)
        with self._cond:
            if self._free_slots:
                self._free_slots -= 1
                granted = None
            else:
                granted = threading.Event()
                heapq.heappush(self._slot_waiters, (_TASK_KEY.get(), next(self._seq), granted))
        if granted is not None:
            granted.wait()
        if placed:
            with self._cond:
                self._calls += 1
                if self._startable():
                    self._cond.notify_all()
        try:
            yield
        finally:
            with self._cond:
                if self._slot_waiters:
                    heapq.heappop(self._slot_waiters)[2].set()
                else:
                    self._free_slots += 1
                self._calls -= placed

    def _startable(self) -> bool:
        free = self._free_places + (self._calls == self._size)
        return bool(self._queue) and not self._starting and free > 0

    def _run_task(self, task: tuple) -> None:
        """Run task on this new thread, which holds its place, then give the place back."""
        self._local.placed = True
        with self._cond:
            self._starting = False
            if self._startable():
                self._cond.notify_all()
        key, _, batch, index, ctx, fn, item = task
        ctx.run(_TASK_KEY.set, key)
        try:
            batch.results[index] = ctx.run(fn, item)
        except BaseException as exc:  # raised by map in the caller's thread
            batch.errors[index] = exc
        with self._cond:
            batch.remaining -= 1
            self._free_places += 1
            if not batch.remaining or self._startable():
                self._cond.notify_all()


class LlmClient:
    """Caching, counting front-end over a backend.

    generate and score both answer through _cached: identical requests come
    from the cache without touching the backend, and concurrent ones for a
    key collapse into one cache read and at most one backend call. Requests
    for different keys wait for each other only at the max_parallel bound on
    backend calls.
    """

    def __init__(self, backend, cache_dir: str | Path | None = None, max_parallel: int = 4):
        self.backend = backend
        self.cache = ResponseCache(cache_dir)
        self.ledger = CallLedger()
        self._scheduler = _Scheduler(max(1, max_parallel))
        self._inflight_lock = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}

    @property
    def backend_id(self) -> str:
        return self.backend.backend_id

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """fn over every item; results in input order.

        The first error by input position is raised once every item has
        finished. Each item runs start to end on one thread, in a copy of
        the caller's context taken in the calling thread, so context
        variables the caller set are seen by the backend calls fn makes.

        Work runs oldest item first: an item's key is its path of indices
        through nested maps, and a free run place goes to the smallest
        queued key, so a question's option scores finish before the next
        question starts. There are max_parallel run places and as many
        backend slots; a thread keeps its place through a call and holds
        none while it waits on its own map, and one more task starts while
        every place is held by a call. A map over no items starts nothing.
        """
        items = list(items)
        return self._scheduler.map(fn, items) if items else []

    def _cached(self, payload: dict, purpose: str, call: Callable[[], dict]) -> dict:
        """The cached value for payload plus the backend id and model, from
        one backend call on a miss, which the ledger counts under purpose.

        A request first registers an Event for its key, then reads the cache
        once, and on a miss makes the call. Other requests for that key wait
        for the Event and start over, so their one read sees what the owner
        stored. If the call raised, the cache is still empty and one of them
        calls the backend itself. A hit holds _inflight_lock only to register
        and remove the Event; the cache read runs outside the lock.
        """
        key = ResponseCache.key_for({**payload, "backend": self.backend.backend_id, "model": self.backend.model})
        while True:
            with self._inflight_lock:
                pending = self._inflight.get(key)
                if pending is None:
                    self._inflight[key] = owned = threading.Event()
            if pending is not None:
                pending.wait()
                continue
            try:
                value = self.cache.get(key)
                if value is not None:
                    self.ledger.record("cache_hits")
                    return value
                with self._scheduler.backend_slot():
                    value = call()
                value = self.cache.put(key, value)
                self.ledger.record(purpose)
                return value
            finally:
                with self._inflight_lock:
                    del self._inflight[key]
                owned.set()

    def generate(self, req: GenerationRequest) -> str:
        prompt = self.backend.prepare_prompt(req.prompt)
        payload = {
            "kind": "generate", "prompt": prompt, "max_new_tokens": req.max_new_tokens, "attempt": req.attempt,
            # Constant fields, kept so that replies cached by earlier
            # releases are still found under the same keys.
            "temperature": 0.0, "stop": None,
        }
        value = self._cached(
            payload, req.purpose_tag, lambda: {"text": self.backend.complete(replace(req, prompt=prompt))}
        )
        return value["text"]

    def generate_parsed(
        self, req: GenerationRequest, parse: Callable[[str], T], tries: int
    ) -> tuple[T | None, str]:
        """The first reply to req that parse accepts, parsed, and that reply.

        Try k asks with attempt k, so every re-ask reaches the backend
        instead of the cache. parse rejects a reply by raising FormatError or
        CountMismatch; any other error propagates. After tries rejections
        one warning names the purpose and the last error, and the value is
        None beside the last reply.
        """
        reply, error = "", None
        for attempt in range(tries):
            reply = self.generate(replace(req, attempt=attempt))
            try:
                return parse(reply), reply
            except (FormatError, CountMismatch) as exc:
                error = exc
        logger.warning("%s reply unparseable after %d tries: %s", req.purpose_tag, tries, error)
        return None, reply

    def score(self, req: ScoreRequest) -> float:
        payload = {"kind": "score", "prefix": req.prefix, "continuation": req.continuation}
        value = self._cached(
            payload, "qa", lambda: {"score": float(self.backend.score(req.prefix, req.continuation))}
        )
        return float(value["score"])
