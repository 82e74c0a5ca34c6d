"""An http config runs evaluate end to end against a local server that
serves POST /completions: requests, transport.post_json and the typed reply
reader all run, and nothing leaves 127.0.0.1.

The server answers by the mock backend's rules, so the run must ask the
same prompts (each wrapped once) and reach the same predictions as a run on
MockBackend.
"""

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from langrepo.config import load_app_config, make_providers
from langrepo.embed import Embedder, EmbeddingProviderConfig
from langrepo.evalharness import Providers, evaluate
from langrepo.llm import GenerationRequest, LlmClient, MockBackend
from langrepo.repository import BuildConfig
from langrepo.vqa import QaItem

from conftest import make_caption_set, settled_thread_count

INST, END_INST = "[INST] ", " [/INST]"
PURPOSE_BY_OPENING = {"Below is a numbered list": "rephrase", "The lines below describe": "summarize"}


def mock_reply(prompt: str) -> str:
    """MockBackend's reply to the prompt the client wrapped."""
    if prompt.startswith(INST) and prompt.endswith(END_INST):
        prompt = prompt[len(INST) : -len(END_INST)]
    purpose = next((p for opening, p in PURPOSE_BY_OPENING.items() if prompt.startswith(opening)), "qa")
    return MockBackend().complete(GenerationRequest(prompt, purpose_tag=purpose))


class CompletionsHandler(BaseHTTPRequestHandler):
    """Generation replies by the mock's rules; scoring echoes one token per
    character, each with log-probability -0.1 except the first (null)."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.posts.append((self.path, body))
        text = body["prompt"]
        if body.get("echo"):
            logprobs = {"token_logprobs": [None] + [-0.1] * (len(text) - 1), "text_offset": list(range(len(text)))}
            choice = {"text": text, "logprobs": logprobs}
        else:
            choice = {"text": mock_reply(text)}
        payload = json.dumps({"choices": [choice]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


class RecordingMock(MockBackend):
    def __init__(self):
        super().__init__()
        self.prompts = []

    def complete(self, req):
        self.prompts.append(req.prompt)
        return super().complete(req)


ITEMS = [
    QaItem(f"q{i}", "vid", f"what does the person do, part {i}", [f"o{j}" + "x" * (j + i) for j in range(5)], 0)
    for i in range(3)
]
BUILD = {"chunk_schedule": [3, 2], "grouping_ratio": 0.5}


@pytest.mark.parametrize("classifier", ["loglik", "generative"])
def test_http_config_runs_evaluate_over_one_completions_endpoint(tmp_path, classifier):
    captions = {"vid": make_caption_set(24)}
    mock = RecordingMock()
    expected = evaluate(
        ITEMS, captions, BuildConfig(**BUILD), "langrepo",
        Providers(LlmClient(mock), Embedder(EmbeddingProviderConfig(dimension=16))), classifier=classifier,
    )
    assert expected.ledger_snapshot["rephrase"] > 0

    threads_before = threading.active_count()
    server = ThreadingHTTPServer(("127.0.0.1", 0), CompletionsHandler)
    server.lock, server.posts = threading.Lock(), []
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    try:
        config = tmp_path / "http.json"
        config.write_text(json.dumps({
            "llm": {"kind": "http", "endpoint": f"http://127.0.0.1:{server.server_address[1]}/v1",
                    "model": "mock-7b", "max_retries": 0, "timeout_s": 10.0},
            "embed": {"kind": "hashed", "dimension": 16},
            "build": BUILD,
            "classifier": classifier,
        }))
        cfg = load_app_config(config)
        report = evaluate(
            ITEMS, captions, cfg.build, "langrepo", make_providers(cfg), classifier=cfg.classifier,
        )
    finally:
        server.shutdown()
        server.server_close()
        serving.join(timeout=5)

    assert {path for path, _ in server.posts} == {"/v1/completions"}
    generations = [body for _, body in server.posts if not body.get("echo")]
    assert {tuple(sorted(body)) for body in generations} == {("max_tokens", "model", "prompt", "temperature")}
    generated = [body["prompt"] for body in generations]
    assert all(p.startswith("[INST]") and p.count("[INST]") == 1 for p in generated)
    assert Counter(generated) == Counter(p if p.startswith("[INST]") else f"[INST] {p} [/INST]" for p in mock.prompts)
    assert report.ledger_snapshot == expected.ledger_snapshot
    assert [p.choice_index for p in report.predictions] == [p.choice_index for p in expected.predictions]
    if classifier == "loglik":
        for item, prediction in zip(ITEMS, report.predictions):
            assert prediction.per_option_scores == pytest.approx([-len(o) / 10 for o in item.options])
    assert not serving.is_alive()
    assert settled_thread_count(threads_before) == threads_before
