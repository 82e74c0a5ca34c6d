import contextvars
import json
import multiprocessing
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from langrepo.errors import (
    BackendUnavailable,
    ContextOverflow,
    CountMismatch,
    FormatError,
    MalformedFile,
    ScoringUnsupported,
)
from langrepo.llm import (
    CACHE_FILE,
    CallLedger,
    GenerationRequest,
    HttpBackend,
    LlmClient,
    MockBackend,
    ResponseCache,
    ScoreRequest,
)

from conftest import settled_thread_count


def _fill_cache(directory, indices, start):
    try:
        client = LlmClient(MockBackend(), cache_dir=directory)
    except BaseException:
        start.abort()  # the other process must not wait for this one
        raise
    start.wait(timeout=30)
    for i in indices:
        client.generate(req(f"prompt {i}"))


class PidBackend(MockBackend):
    """Replies after 0.2 s naming its process, so that two processes' replies differ."""

    def complete(self, req):
        time.sleep(0.2)
        return f"reply of process {os.getpid()}"


def _ask_once(directory, start, replies):
    try:
        client = LlmClient(PidBackend(), cache_dir=directory)
    except BaseException:
        start.abort()  # the other process must not wait for this one
        raise
    start.wait(timeout=30)
    replies.put(client.generate(req("shared")))


def req(prompt, **kw):
    kw.setdefault("purpose_tag", "qa")
    return GenerationRequest(prompt=prompt, **kw)


class TestMockBackend:
    def test_scripted_reply(self):
        client = LlmClient(MockBackend(scripted={"P": "1. a\n2. b"}))
        assert client.generate(req("P")) == "1. a\n2. b"

    def test_scripted_score(self):
        client = LlmClient(MockBackend(scripted_scores={("pre", "cont"): -2.5}))
        assert client.score(ScoreRequest("pre", "cont")) == -2.5

    def test_default_score_rule(self):
        client = LlmClient(MockBackend())
        assert client.score(ScoreRequest("anything", "abcde")) == -0.5

    def test_default_rephrase_echoes_first_members(self):
        prompt = "instructions\n\n1. a | a2 | a3\n2. b | b2\n"
        backend = MockBackend()
        reply = backend.complete(req(prompt, purpose_tag="rephrase"))
        assert reply == "1. a\n2. b"

    def test_attempt_indexed_script(self):
        backend = MockBackend(scripted={"P": ["bad", "1. good"]})
        assert backend.complete(req("P", attempt=0)) == "bad"
        assert backend.complete(req("P", attempt=1)) == "1. good"
        assert backend.complete(req("P", attempt=5)) == "1. good"

    def test_pure_function_of_inputs(self):
        a, b = MockBackend(), MockBackend()
        for purpose in ("rephrase", "summarize", "qa"):
            r = req("some prompt\n1. x | y", purpose_tag=purpose)
            assert a.complete(r) == b.complete(r)


class TestCacheAndLedger:
    def test_repeat_request_hits_cache(self, tmp_path):
        client = LlmClient(MockBackend(), cache_dir=tmp_path)
        first = client.generate(req("P"))
        second = client.generate(req("P"))
        assert first == second
        assert client.ledger.snapshot() == {"rephrase": 0, "summarize": 0, "qa": 1, "cache_hits": 1}

    def test_cache_persists_across_clients(self, tmp_path):
        c1 = LlmClient(MockBackend(), cache_dir=tmp_path)
        c1.generate(req("P"))
        c2 = LlmClient(MockBackend(), cache_dir=tmp_path)
        c2.generate(req("P"))
        assert c2.ledger.total_calls() == 0
        assert c2.ledger.snapshot()["cache_hits"] == 1

    def test_distinct_attempts_are_distinct_calls(self):
        client = LlmClient(MockBackend())
        client.generate(req("P", attempt=0))
        client.generate(req("P", attempt=1))
        assert client.ledger.snapshot()["qa"] == 2

    def test_ledger_total_counts_uncached_only(self):
        client = LlmClient(MockBackend())
        for prompt in ("a", "b", "a", "c", "b"):
            client.generate(req(prompt))
        assert client.ledger.total_calls() == 3
        assert client.ledger.snapshot()["cache_hits"] == 2

    def test_purpose_counters(self):
        client = LlmClient(MockBackend())
        client.generate(req("1. x", purpose_tag="rephrase"))
        client.generate(req("s", purpose_tag="summarize"))
        client.generate(req("q", purpose_tag="qa"))
        client.score(ScoreRequest("p", "c"))
        snap = client.ledger.snapshot()
        assert snap == {"rephrase": 1, "summarize": 1, "qa": 2, "cache_hits": 0}

    def test_concurrent_identical_requests_single_call(self):
        client = LlmClient(MockBackend(), max_parallel=8)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: client.generate(req("same")), range(16)))
        assert len(set(results)) == 1
        assert client.ledger.snapshot()["qa"] == 1
        assert client.ledger.snapshot()["cache_hits"] == 15

    def test_concurrent_identical_requests_single_call_with_cache_dir(self, tmp_path):
        client = LlmClient(MockBackend(), cache_dir=tmp_path, max_parallel=8)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: client.generate(req("same")), range(16)))
        assert len(set(results)) == 1
        assert client.ledger.snapshot()["qa"] == 1
        assert client.ledger.snapshot()["cache_hits"] == 15

    def test_disk_backed_cache_keeps_nothing_in_memory(self, tmp_path):
        cache = ResponseCache(tmp_path)
        values = {ResponseCache.key_for({"i": i}): {"text": f"reply {i}"} for i in range(200)}
        for key, value in values.items():
            cache.put(key, value)
        assert cache._mem == {}
        assert all(cache.get(key) == value for key, value in values.items())
        assert cache._mem == {}

    def test_threads_sharing_a_disk_cache(self, tmp_path):
        client = LlmClient(MockBackend(), cache_dir=tmp_path, max_parallel=8)
        requests = [req(f"prompt {i % 300}", purpose_tag="summarize") for i in range(1200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                replies = list(pool.map(client.generate, requests, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert replies == [MockBackend().complete(r) for r in requests]
        assert client.ledger.snapshot()["summarize"] == 300
        fresh = LlmClient(MockBackend(), cache_dir=tmp_path)
        assert [fresh.generate(r) for r in requests[:300]] == replies[:300]
        assert fresh.ledger.total_calls() == 0

    def test_processes_sharing_a_cache_directory(self, tmp_path):
        # Two processes write overlapping keys into one database at once;
        # every reply either wrote is then answered from it.
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(2)
        workers = [
            ctx.Process(target=_fill_cache, args=(str(tmp_path), range(first, first + 60), start))
            for first in (0, 30)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0, 0]
        client = LlmClient(MockBackend(), cache_dir=tmp_path)
        for i in range(90):
            assert client.generate(req(f"prompt {i}")) == "A"
        assert client.ledger.total_calls() == 0
        assert client.ledger.snapshot()["cache_hits"] == 90

    @pytest.mark.parametrize("cache_dir", [False, True])
    def test_first_writer_wins(self, tmp_path, cache_dir):
        cache = ResponseCache(tmp_path if cache_dir else None)
        assert cache.put("k", {"text": "first"}) == {"text": "first"}
        assert cache.put("k", {"text": "second"}) == {"text": "first"}
        assert cache.get("k") == {"text": "first"}

    def test_processes_asking_for_one_key_agree_on_the_stored_reply(self, tmp_path):
        # Both processes miss the key and call the backend at once; the
        # first reply stored is the one each of them returns.
        ctx = multiprocessing.get_context("spawn")
        start, replies = ctx.Barrier(2), ctx.Queue()
        workers = [ctx.Process(target=_ask_once, args=(str(tmp_path), start, replies)) for _ in range(2)]
        try:
            for worker in workers:
                worker.start()
            got = [replies.get(timeout=120) for _ in workers]
            for worker in workers:
                worker.join(timeout=30)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
                    worker.join()
        assert [worker.exitcode for worker in workers] == [0, 0]
        client = LlmClient(MockBackend(), cache_dir=tmp_path)
        stored = client.generate(req("shared"))
        assert client.ledger.total_calls() == 0
        assert stored.startswith("reply of process ")
        assert got == [stored, stored]

    def test_cache_file_that_is_not_a_database(self, tmp_path):
        (tmp_path / CACHE_FILE).write_text("not a database\n" * 100, encoding="utf-8")
        with pytest.raises(MalformedFile, match=re.escape(str(tmp_path / CACHE_FILE))):
            LlmClient(MockBackend(), cache_dir=tmp_path)

    def test_cache_key_stable(self):
        key1 = ResponseCache.key_for({"a": 1, "b": "x"})
        key2 = ResponseCache.key_for({"b": "x", "a": 1})
        assert key1 == key2

    def test_cache_keys_are_pinned(self):
        # Replies cached by earlier releases are found under these keys; a
        # change to any key payload makes every existing cache miss.
        client = LlmClient(MockBackend(), max_parallel=1)
        client.cache = RecordingCache()
        client.generate(GenerationRequest(
            "1. C opens the drawer | C opens a drawer", max_new_tokens=768, purpose_tag="rephrase", attempt=1
        ))
        client.generate(GenerationRequest("Summarize:\nC stirs the pot", max_new_tokens=512, purpose_tag="summarize"))
        client.generate(GenerationRequest("Which letter? A: cooking", max_new_tokens=16, purpose_tag="qa"))
        client.score(ScoreRequest("C stirs the pot. What is C doing ", "cooking"))
        assert client.cache.keys == [
            "64cdae560dcf92b391ef316c600a9794180fb839a0785f5cf7c17efe6e6607fa",
            "b60a5899d9b28e64f3937aa81348555b4dc06dd55559bf367bf212d887d224c0",
            "268c5eddb681b5a4b383d9067480002b8a3e7f992605f48d83e7dfbdb35c8796",
            "b321138a6d8293db12b0abfffc29ed0ea3ece601355f6c00a50e1726644d6529",
        ]

    @pytest.mark.parametrize("cache_dir", [False, True])
    def test_one_cache_read_per_request(self, tmp_path, cache_dir):
        client = LlmClient(MockBackend(), max_parallel=1)
        client.cache = CountingCache(tmp_path if cache_dir else None)
        client.generate(req("P"))
        client.score(ScoreRequest("pre", "cont"))
        assert client.cache.gets == 2  # one per miss
        client.generate(req("P"))
        client.score(ScoreRequest("pre", "cont"))
        assert client.cache.gets == 4  # one per hit
        assert client.ledger.snapshot() == {"rephrase": 0, "summarize": 0, "qa": 2, "cache_hits": 2}


class AttemptRecordingBackend(MockBackend):
    """Mock that keeps the attempt nonce of every request it serves."""

    def __init__(self, replies):
        super().__init__(scripted={"P": replies})
        self.attempts = []

    def complete(self, req):
        self.attempts.append(req.attempt)
        return super().complete(req)


def number(reply):
    if not reply.isdigit():
        raise FormatError(f"not a number: {reply!r}")
    return int(reply)


class TestGenerateParsed:
    def test_every_try_reaches_the_backend_with_its_own_nonce(self):
        backend = AttemptRecordingBackend(["x", "y", "z"])
        client = LlmClient(backend)
        assert client.generate_parsed(req("P"), number, 3) == (None, "z")
        assert backend.attempts == [0, 1, 2]
        assert client.ledger.snapshot()["qa"] == 3

    def test_stops_at_the_first_accepted_reply(self):
        backend = AttemptRecordingBackend(["x", "42", "7"])
        client = LlmClient(backend)
        assert client.generate_parsed(req("P"), number, 3) == (42, "42")
        assert backend.attempts == [0, 1]
        assert client.ledger.snapshot()["qa"] == 2

    @pytest.mark.parametrize("error", [FormatError, CountMismatch])
    def test_none_and_the_last_reply_after_every_try_is_rejected(self, error, caplog):
        def reject(reply):
            raise error(f"rejected {reply}")

        client = LlmClient(AttemptRecordingBackend(["x", "y"]))
        assert client.generate_parsed(req("P", purpose_tag="rephrase"), reject, 2) == (None, "y")
        assert [r.getMessage() for r in caplog.records] == ["rephrase reply unparseable after 2 tries: rejected y"]

    def test_context_overflow_propagates(self):
        class OverflowBackend(AttemptRecordingBackend):
            def complete(self, req):
                super().complete(req)
                raise ContextOverflow("prompt too long")

        backend = OverflowBackend(["x"])
        with pytest.raises(ContextOverflow):
            LlmClient(backend).generate_parsed(req("P"), number, 3)
        assert backend.attempts == [0]

    def test_other_parse_errors_propagate(self):
        def broken(reply):
            raise ValueError("parser bug")

        backend = AttemptRecordingBackend(["x"])
        with pytest.raises(ValueError, match="parser bug"):
            LlmClient(backend).generate_parsed(req("P"), broken, 3)
        assert backend.attempts == [0]


class TestRequestValidation:
    def test_bad_purpose(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", purpose_tag="other")

    def test_empty_continuation(self):
        with pytest.raises(ValueError):
            ScoreRequest(prefix="p", continuation="")


class _FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload else "")

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        if not self.responses:
            raise AssertionError("unexpected extra request")
        reply = self.responses.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def http_backend(responses, **kw):
    kw.setdefault("max_retries", 2)
    kw.setdefault("backoff_s", 0.0)
    return HttpBackend(
        "http://llm.test/v1", "test-model", session=_FakeSession(responses), **kw
    )


def text_ok(text):
    return _FakeResponse(200, {"choices": [{"text": text}]})


def logprobs_ok(token_logprobs, text_offset):
    logprobs = {"token_logprobs": token_logprobs, "text_offset": text_offset}
    return _FakeResponse(200, {"choices": [{"text": "ab", "logprobs": logprobs}]})


class TestHttpBackend:
    def test_complete_parses_content(self):
        backend = http_backend([text_ok("hello")])
        client = LlmClient(backend)
        assert client.generate(req("hi")) == "hello"
        call = backend.session.calls[0]
        assert call["url"] == "http://llm.test/v1/completions"
        assert call["json"] == {"model": "test-model", "prompt": "[INST] hi [/INST]", "max_tokens": 512, "temperature": 0.0}
        assert backend.backend_id == "http:http://llm.test/v1/completions"

    def test_requests_ask_for_greedy_decoding(self):
        backend = http_backend([text_ok("x"), logprobs_ok([None, -1.0], [0, 1])])
        backend.complete(req("hi", max_new_tokens=7))
        backend.score("a", "b")
        generation, scoring = (call["json"] for call in backend.session.calls)
        assert generation["temperature"] == 0.0 and generation["max_tokens"] == 7 and "stop" not in generation
        assert scoring == {
            "model": "test-model", "prompt": "ab", "max_tokens": 0, "echo": True, "logprobs": 0, "temperature": 0.0,
        }
        assert {call["url"] for call in backend.session.calls} == {"http://llm.test/v1/completions"}

    def test_wraps_instructions_once(self):
        backend = http_backend([text_ok("x")])
        assert backend.prepare_prompt("[INST] already [/INST]") == "[INST] already [/INST]"
        assert backend.prepare_prompt("plain") == "[INST] plain [/INST]"

    def test_three_500s_exhaust_retries(self):
        backend = http_backend([_FakeResponse(500), _FakeResponse(500), _FakeResponse(500)])
        with pytest.raises(BackendUnavailable):
            backend.complete(req("hi"))
        assert len(backend.session.calls) == 3

    def test_recovers_on_second_attempt(self):
        backend = http_backend([_FakeResponse(500), text_ok("ok")])
        assert backend.complete(req("hi")) == "ok"

    def test_recovers_after_rate_limit(self):
        backend = http_backend([_FakeResponse(429, text="slow down"), text_ok("ok")])
        assert backend.complete(req("hi")) == "ok"
        assert len(backend.session.calls) == 2

    def test_three_429s_exhaust_retries(self):
        backend = http_backend([_FakeResponse(429), _FakeResponse(429), _FakeResponse(429)])
        with pytest.raises(BackendUnavailable):
            backend.complete(req("hi"))
        assert len(backend.session.calls) == 3

    @pytest.mark.parametrize(
        "first", [requests.ConnectionError("refused"), _FakeResponse(200, text="<html>busy</html>")],
        ids=["connection-error", "non-json-200"],
    )
    def test_recovers_after_transport_error_or_unreadable_body(self, first):
        backend = http_backend([first, text_ok("ok")])
        assert backend.complete(req("hi")) == "ok"
        assert len(backend.session.calls) == 2

    def test_connection_errors_exhaust_retries(self):
        backend = http_backend([requests.ConnectionError("refused") for _ in range(3)], max_retries=2)
        with pytest.raises(BackendUnavailable, match="after 3 attempts: refused"):
            backend.complete(req("hi"))
        assert len(backend.session.calls) == 3

    def test_reply_text_utf8_cannot_encode_is_refused(self):
        backend = http_backend([text_ok("ok \ud800")])
        with pytest.raises(BackendUnavailable, match=r"reply: choices\[0\]\.text must be a string UTF-8 can encode"):
            backend.complete(req("hi"))

    def test_context_overflow(self):
        backend = http_backend(
            [_FakeResponse(400, text="this model's maximum context length is 8192 tokens")]
        )
        with pytest.raises(ContextOverflow):
            backend.complete(req("hi"))

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("LANGREPO_LLM_KEY", "sekret")
        backend = http_backend([text_ok("x")])
        backend.complete(req("hi"))
        assert backend.session.calls[0]["headers"]["Authorization"] == "Bearer sekret"

    def test_score_sums_continuation_logprobs(self):
        payload = {
            "choices": [
                {
                    "text": "abcabcdefdef",
                    "logprobs": {
                        "token_logprobs": [None, -1.0, -2.0, -3.0],
                        "text_offset": [0, 3, 6, 9],
                    }
                }
            ]
        }
        backend = http_backend([_FakeResponse(200, payload)])
        # prefix is 6 chars, so tokens at offsets 6 and 9 belong to the continuation
        assert backend.score("abcabc", "defdef") == -5.0
        body = backend.session.calls[0]["json"]
        assert body["prompt"] == "abcabcdefdef"
        assert body["echo"] is True and body["max_tokens"] == 0

    def test_score_counts_token_that_carries_the_leading_space(self):
        # "... Question cooking" tokenized as "...", " Question", " cook", "ing":
        # the prefix's trailing space starts " cook", one char before the boundary.
        payload = {
            "choices": [
                {
                    "text": "... Question cooking",
                    "logprobs": {
                        "token_logprobs": [None, -1.0, -2.0, -0.5],
                        "text_offset": [0, 3, 12, 17],
                    }
                }
            ]
        }
        backend = http_backend([_FakeResponse(200, payload)])
        assert backend.score("... Question ", "cooking") == -2.5

    def test_score_without_logprobs_unsupported(self):
        backend = http_backend([_FakeResponse(200, {"choices": [{"text": "x"}]})])
        with pytest.raises(ScoringUnsupported):
            backend.score("a", "b")


# Replies that do not fit the completions schema, or whose status is not
# retried: (request kind, the bad reply, what the error names). Each one
# raises BackendUnavailable after one request, is not cached, and a second
# identical request reaches the endpoint again.
MALFORMED_REPLIES = [
    ("generate", text_ok(None), "choices[0].text"),
    ("generate", _FakeResponse(200, {"choices": []}), "choices is empty"),
    ("generate", _FakeResponse(200, {"choice": [{"text": "x"}]}), "choices is missing"),
    ("score", logprobs_ok([None, "-1.0"], [0, 1]), "choices[0].logprobs.token_logprobs[1]"),
    ("score", logprobs_ok([None, -1.0], [0, "1"]), "choices[0].logprobs.text_offset[1]"),
    ("score", logprobs_ok([None, -1.0, -3.0], [0, 1]), "3 token_logprobs and 2 text_offset"),
    ("generate", _FakeResponse(401, text="invalid api key"), "HTTP 401: invalid api key"),
    ("score", _FakeResponse(400, text="echo is not supported"), "HTTP 400: echo is not supported"),
]


@pytest.mark.parametrize(
    "kind, reply, named", MALFORMED_REPLIES, ids=[f"{kind}-{named}" for kind, _, named in MALFORMED_REPLIES]
)
def test_malformed_reply_raises_naming_the_field_and_is_not_cached(kind, reply, named):
    good = text_ok("fine") if kind == "generate" else logprobs_ok([None, -1.0], [0, 1])
    backend = http_backend([reply, good])
    client = LlmClient(backend)

    def ask():
        return client.generate(req("hi")) if kind == "generate" else client.score(ScoreRequest("a", "b"))

    with pytest.raises(BackendUnavailable, match=re.escape(named)):
        ask()
    assert ask() == ("fine" if kind == "generate" else -1.0)
    assert len(backend.session.calls) == 2


REQUEST_ID = contextvars.ContextVar("request_id", default=None)


class RecordingCache(ResponseCache):
    def __init__(self):
        super().__init__()
        self.keys = []

    def put(self, key, value):
        self.keys.append(key)
        return super().put(key, value)


class CountingCache(ResponseCache):
    def __init__(self, directory=None):
        super().__init__(directory)
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return super().get(key)


def stripe_sharing_pair():
    """Two score requests whose cache keys agree modulo 64 in their first
    eight hex digits: one lock of a 64-way lock stripe would cover both."""
    probe = LlmClient(MockBackend(), max_parallel=1)
    probe.cache = RecordingCache()
    by_stripe = {}
    for i in range(65):
        request = ScoreRequest("prefix ", f"option {i}")
        probe.score(request)
        stripe = int(probe.cache.keys[-1][:8], 16) % 64
        if stripe in by_stripe:
            return by_stripe[stripe], request
        by_stripe[stripe] = request
    raise AssertionError("65 keys over 64 stripes must collide")


class GatedBackend(MockBackend):
    """Holds one continuation's score until released; counts calls."""

    def __init__(self, gated):
        super().__init__()
        self.gated = gated
        self.entered = threading.Event()
        self.release = threading.Event()

    def score(self, prefix, continuation):
        if continuation == self.gated:
            self.entered.set()
            self.release.wait(10)
        return super().score(prefix, continuation)


class FailFirstBackend(MockBackend):
    """The first completion waits to be released, then raises."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def complete(self, req):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            self.entered.set()
            self.release.wait(10)
            raise BackendUnavailable("first call fails")
        return "fresh"


class ContextRecordingBackend(MockBackend):
    def __init__(self):
        super().__init__()
        self.seen = []

    def complete(self, req):
        self.seen.append(REQUEST_ID.get())
        return super().complete(req)


class TestConcurrency:
    def test_cache_hit_not_blocked_by_unrelated_slow_miss(self):
        hit_request, slow_request = stripe_sharing_pair()
        backend = GatedBackend(slow_request.continuation)
        client = LlmClient(backend, max_parallel=4)
        client.score(hit_request)
        with ThreadPoolExecutor(max_workers=2) as pool:
            slow = pool.submit(client.score, slow_request)
            assert backend.entered.wait(5)
            hit = pool.submit(client.score, hit_request)
            try:
                assert hit.result(timeout=2) == -len(hit_request.continuation) / 10
            finally:
                backend.release.set()
            assert slow.result(timeout=5) == -len(slow_request.continuation) / 10
        assert client.ledger.snapshot()["qa"] == 2

    def test_waiters_retry_when_the_owner_raises(self):
        backend = FailFirstBackend()
        client = LlmClient(backend, max_parallel=8)
        with ThreadPoolExecutor(max_workers=5) as pool:
            owner = pool.submit(client.generate, req("P"))
            assert backend.entered.wait(5)
            waiters = [pool.submit(client.generate, req("P")) for _ in range(4)]
            time.sleep(0.1)
            backend.release.set()
            with pytest.raises(BackendUnavailable):
                owner.result(timeout=5)
            assert [w.result(timeout=5) for w in waiters] == ["fresh"] * 4
        assert backend.calls == 2
        assert client.ledger.snapshot() == {"rephrase": 0, "summarize": 0, "qa": 1, "cache_hits": 3}

    def test_map_keeps_input_order(self):
        client = LlmClient(MockBackend(), max_parallel=4)

        def slow_first(i):
            time.sleep(0.01 * (8 - i))
            return i

        assert client.map(slow_first, range(8)) == list(range(8))

    @pytest.mark.parametrize("max_parallel", [1, 4])
    def test_failing_item_raises_only_after_every_other_item_ran(self, max_parallel):
        client = LlmClient(MockBackend(), max_parallel=max_parallel)
        ran = []

        def fn(i):
            ran.append(i)
            if i == 1:
                raise BackendUnavailable("item 1")
            return i

        with pytest.raises(BackendUnavailable, match="item 1"):
            client.map(fn, range(5))
        assert sorted(ran) == list(range(5))

    @pytest.mark.parametrize("max_parallel", [1, 4])
    def test_context_set_in_a_one_item_map_stays_inside_it(self, max_parallel):
        client = LlmClient(MockBackend(), max_parallel=max_parallel)

        def fn(_):
            REQUEST_ID.set("item")
            return REQUEST_ID.get()

        token = REQUEST_ID.set("caller")
        try:
            assert client.map(fn, ["only"]) == ["item"]
            assert REQUEST_ID.get() == "caller"
        finally:
            REQUEST_ID.reset(token)

    def test_empty_nested_map_keeps_the_callers_run_place(self):
        # A write pass whose chunks have nothing to group maps over no
        # items; at parallelism 1 that must not let a queued item start.
        client = LlmClient(MockBackend(), max_parallel=1)
        events = []

        def fn(i):
            events.append(f"{i} start")
            assert client.map(str, []) == []
            time.sleep(0.05)
            events.append(f"{i} end")

        client.map(fn, range(2))
        assert events == ["0 start", "0 end", "1 start", "1 end"]

    def test_map_carries_caller_context_into_nested_backend_calls(self):
        backend = ContextRecordingBackend()
        client = LlmClient(backend, max_parallel=3)

        def outer(i):
            return client.map(lambda j: client.generate(req(f"{i}-{j}")), range(3))

        token = REQUEST_ID.set("question-1")
        try:
            results = client.map(outer, range(3))
        finally:
            REQUEST_ID.reset(token)
        assert [len(r) for r in results] == [3, 3, 3]
        assert backend.seen == ["question-1"] * 9



class SleepyBackend(MockBackend):
    """Replies with the prompt after a delay, raising instead for the prompts
    in fail_on; records the order in which calls start and the peak number
    of calls in flight."""

    def __init__(self, fail_on=(), delay_s=0.02):
        super().__init__()
        self.fail_on = set(fail_on)
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak = 0
        self.finished = 0
        self.started = []

    def complete(self, req):
        with self._lock:
            self._inflight += 1
            self.peak = max(self.peak, self._inflight)
            self.started.append(req.prompt)
        try:
            time.sleep(self.delay_s)
            if req.prompt in self.fail_on:
                raise BackendUnavailable(f"no reply to {req.prompt}")
            return req.prompt
        finally:
            with self._lock:
                self._inflight -= 1
                self.finished += 1


class ThreadPeak:
    """Samples threading.active_count(), less its own thread, every millisecond."""

    def __enter__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, threading.active_count() - 1)
            time.sleep(0.001)

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def run_within(fn, timeout_s=30.0):
    """fn() on its own thread, failing if it runs longer than timeout_s."""
    outcome = {}

    def run():
        try:
            outcome["result"] = fn()
        except Exception as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout_s)
    assert not runner.is_alive(), f"still running after {timeout_s} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestScheduler:
    """Nested maps of 8 outer x 5 inner items, like questions and their
    option scores, at 20 ms per backend call."""

    OUTER, INNER, P = 8, 5, 4

    def nested_map(self, client, outer=OUTER):
        return client.map(
            lambda i: client.map(lambda k: client.generate(req(f"{i}-{k}")), range(self.INNER)),
            range(outer),
        )

    def test_threads_and_requests_stay_bounded(self):
        backend = SleepyBackend()
        client = LlmClient(backend, max_parallel=self.P)
        before = threading.active_count()
        with ThreadPeak() as threads:
            results = run_within(lambda: self.nested_map(client))
        assert results == [[f"{i}-{k}" for k in range(self.INNER)] for i in range(self.OUTER)]
        # Per run place: a running or slot-waiting task, a slot holder, and
        # an outer item waiting on its map; plus the threads already there.
        assert threads.peak <= 3 * self.P + before + 1  # + run_within's thread
        assert backend.peak <= self.P
        assert settled_thread_count(before) == before

    def test_oldest_outer_item_runs_first(self):
        backend = SleepyBackend()
        client = LlmClient(backend, max_parallel=self.P)
        run_within(lambda: self.nested_map(client))
        outer = [int(prompt.split("-")[0]) for prompt in backend.started]
        for i in range(self.OUTER):
            starts = [n for n, o in enumerate(outer) if o == i]
            assert len(starts) == self.INNER
            assert starts[-1] - starts[0] < self.INNER + self.P, outer

    def test_nested_failure_raises_the_first_by_position_after_every_item(self):
        backend = SleepyBackend(fail_on={"2-3", "2-4", "5-0"})
        client = LlmClient(backend, max_parallel=self.P)
        before = threading.active_count()

        def run():
            try:
                self.nested_map(client)
            except BackendUnavailable as exc:
                return exc, backend.finished

        error, finished = run_within(run)
        assert str(error) == "no reply to 2-3"
        assert finished == self.OUTER * self.INNER
        assert settled_thread_count(before) == before

    def test_stress_with_fast_thread_switches(self):
        backend = SleepyBackend(delay_s=0.0)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_within(
                lambda: [self.nested_map(LlmClient(backend, max_parallel=self.P), outer=40) for _ in range(5)]
            )
        finally:
            sys.setswitchinterval(interval)
        expected = [[f"{i}-{k}" for k in range(self.INNER)] for i in range(40)]
        assert results == [expected] * 5
        assert backend.peak <= self.P
        assert settled_thread_count(before) == before


def test_ledger_snapshot_is_copy():
    ledger = CallLedger()
    snap = ledger.snapshot()
    snap["qa"] = 99
    assert ledger.snapshot()["qa"] == 0
