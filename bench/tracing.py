"""Spans around the program's layers, recorded from the benchmark's side.

Nothing here edits the program: layers are wrapped by replacing the module
or class attributes through which their callers reach them, and the
originals are put back afterwards. Spans stay in memory as small records and are
written out once the run ends.

Two context variables travel with the work: the current span (so a span
knows its parent) and the question being answered. Thread pools inside the
program do not copy context into their workers, so while tracing, the
pools of the repository and evalharness modules are swapped for one that
does.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar("span", default=None)
QUESTION: contextvars.ContextVar[str | None] = contextvars.ContextVar("question", default=None)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    question: str | None
    info: object = None


class ContextExecutor(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Patches:
    """Attribute replacements that can all be undone, last first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class EvalProbe:
    """Per-build and per-question timing inside evalharness.evaluate.

    evaluate keeps its builds and questions internal, so the probe wraps the
    three names its worker looks up: build (one per video), descriptions_for
    (a question starts) and answer_loglik (the question ends). It costs two
    clock reads per event and is installed with tracing on and off alike.
    It also samples the thread count when a build or a question starts,
    which shows the pools even when no call reaches the backend, and keeps
    each question's descriptions so that they can be checked afterwards.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.builds: list[tuple[float, object]] = []
        self.question_s: list[float] = []
        self.descriptions: dict[str, list[str]] = {}
        self.peak_threads = 0

    def _sample_threads(self) -> None:
        with self._lock:
            self.peak_threads = max(self.peak_threads, threading.active_count())

    def install(self, patches: Patches, evalharness) -> None:
        def on_build(build):
            @functools.wraps(build)
            def timed(captions, *args, **kwargs):
                self._sample_threads()
                start = time.perf_counter()
                repo = build(captions, *args, **kwargs)
                self.builds.append((time.perf_counter() - start, repo))
                return repo

            return timed

        def on_question(descriptions_for):
            @functools.wraps(descriptions_for)
            def started(item, *args, **kwargs):
                self._sample_threads()
                self._local.start = time.perf_counter()
                QUESTION.set(item.question_id)
                descriptions = descriptions_for(item, *args, **kwargs)
                with self._lock:
                    self.descriptions[item.question_id] = descriptions
                return descriptions

            return started

        def on_answer(answer_loglik):
            @functools.wraps(answer_loglik)
            def answered(*args, **kwargs):
                prediction = answer_loglik(*args, **kwargs)
                self.question_s.append(time.perf_counter() - self._local.start)
                return prediction

            return answered

        patches.wrap(evalharness, "build", on_build)
        patches.wrap(evalharness, "descriptions_for", on_question)
        patches.wrap(evalharness, "answer_loglik", on_answer)


class Tracer:
    """Records one span per call at every layer boundary it is installed on."""

    def __init__(self, max_text_chars: int) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._max_text_chars = max_text_chars
        self._seen_lock = threading.Lock()
        self._seen: set[str] = set()

    def new_unit(self) -> None:
        """Forget which texts were embedded; repeats count within one unit."""
        with self._seen_lock:
            self._seen.clear()

    def _wrapper(self, name: str, info=None):
        spans, ids = self.spans, self._ids

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = next(ids)
                parent = CURRENT.get()
                token = CURRENT.set(sid)
                start = time.perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    CURRENT.reset(token)
                    note = info(args, kwargs, result) if info else None
                    spans.append(Span(sid, name, start, end, parent, QUESTION.get(), note))

            return traced

        return make

    def _embed_info(self, args, kwargs, result):
        texts = args[1] if len(args) > 1 else kwargs["texts"]
        truncated = [t[: self._max_text_chars] for t in texts]
        with self._seen_lock:
            repeats = sum(1 for t in truncated if t in self._seen)
            self._seen.update(truncated)
        return (len(texts), repeats)

    @staticmethod
    def _generate_info(args, kwargs, result):
        req = args[1] if len(args) > 1 else kwargs["req"]
        return (req.purpose_tag, req.attempt)

    @staticmethod
    def _repo_info(args, kwargs, result):
        if result is None:
            return None
        return tuple(sum(len(e.descriptions) for e in scale) for scale in result.scales)

    @staticmethod
    def _length_info(args, kwargs, result):
        return len(result) if isinstance(result, str) else 0

    def install(self, patches: Patches, lr) -> None:
        """Wrap every traced layer of the langrepo package namespace ``lr``."""
        points = [
            ("ingest.load_captions", None, [(lr.ingest, "load_captions")]),
            ("ingest.chunk_captions", None, [(lr.repository, "chunk_captions"), (lr.evalharness, "chunk_captions")]),
            ("embed.encode", self._embed_info, [(lr.embed.Embedder, "encode")]),
            ("grouping.split", None, [(lr.grouping, "split")]),
            ("grouping.match_and_group", None, [(lr.grouping, "match_and_group")]),
            ("prompts.render_rephrase", self._length_info, [(lr.repository, "render_rephrase")]),
            ("prompts.parse_rephrase_output", None, [(lr.repository, "parse_rephrase_output")]),
            ("prompts.render_summarize", None, [(lr.repository, "render_summarize"), (lr.evalharness, "render_summarize")]),
            ("prompts.render_qa_loglik", None, [(lr.vqa, "render_qa_loglik")]),
            ("llm.generate", self._generate_info, [(lr.llm.LlmClient, "generate")]),
            ("llm.score", None, [(lr.llm.LlmClient, "score")]),
            ("llm.cache.get", None, [(lr.llm.ResponseCache, "get")]),
            ("llm.cache.put", None, [(lr.llm.ResponseCache, "put")]),
            ("repository.build", self._repo_info, [(lr.repository, "build"), (lr.evalharness, "build")]),
            ("repository.write_to_repo", None, [(lr.repository, "write_to_repo")]),
            ("repository.read_from_repo", None, [(lr.repository, "read_from_repo"), (lr.evalharness, "read_from_repo")]),
            ("repository.load", self._repo_info, [(lr.repository, "load")]),
            ("repository.save", None, [(lr.repository, "save")]),
            ("vqa.answer_loglik", None, [(lr.vqa, "answer_loglik"), (lr.evalharness, "answer_loglik")]),
            ("evalharness.evaluate", None, [(lr.evalharness, "evaluate")]),
        ]
        for name, info, targets in points:
            for owner, attr in targets:
                patches.wrap(owner, attr, self._wrapper(name, info))
        for module in (lr.repository, lr.evalharness):
            patches.wrap(module, "ThreadPoolExecutor", lambda _original: ContextExecutor)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may run in parallel threads, so their intervals are merged
    before they are subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def critical_depth(intervals: list[tuple[float, float]]) -> int:
    """Longest chain of calls in which each starts after the previous ended.

    This counts the round trips that had to run one after another: calls
    that overlap in time share a round.
    """
    ordered = sorted(intervals)
    depth: list[int] = []
    for i, (start, _) in enumerate(ordered):
        depth.append(1 + max((depth[j] for j in range(i) if ordered[j][1] <= start), default=0))
    return max(depth, default=0)


def write_spans(path, spans: list[Span], calls) -> None:
    """One JSON line per span, with self time, then one per backend call."""
    own = self_times(spans)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for s in spans:
            row = {
                "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "question": s.question, "self_s": own[s.id],
            }
            out.write(json.dumps(row) + "\n")
        for c in calls:
            row = {
                "name": f"backend.{c.purpose}", "start": c.start, "end": c.end,
                "parent": c.span, "question": c.question_id,
            }
            out.write(json.dumps(row) + "\n")
