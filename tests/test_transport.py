"""The HTTP stack is loaded only by HTTP backends and providers."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import requests

from langrepo.embed import EmbeddingProviderConfig, HttpEmbeddingProvider
from langrepo.llm import HttpBackend

SRC = Path(__file__).resolve().parents[1] / "src"

OFFLINE_RUN = textwrap.dedent(
    """
    import sys, tempfile
    import langrepo, langrepo.cli, langrepo.config
    from langrepo.config import AppConfig, make_providers
    from langrepo.evalharness import evaluate
    from langrepo.ingest import Caption, CaptionSet
    from langrepo.repository import BuildConfig
    from langrepo.vqa import QaItem

    captions = CaptionSet("v", 12.0, [
        Caption(f"c{i}", "v", float(i), i + 1.0, f"person does action {i % 4}") for i in range(12)
    ])
    items = [QaItem("q0", "v", "What happens?", ["a", "b", "c", "d", "e"], 0)]
    with tempfile.TemporaryDirectory() as cache_dir:
        report = evaluate(items, {"v": captions}, BuildConfig(chunk_schedule=[3, 2]), "langrepo",
                          make_providers(AppConfig(), cache_dir=cache_dir))
    assert len(report.predictions) == 1
    print(" ".join(m for m in ("requests", "urllib3") if m in sys.modules))
    """
)


def test_offline_run_never_loads_the_http_stack():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", OFFLINE_RUN], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def test_http_clients_without_a_session_get_a_real_one(monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("no request may be sent")

    monkeypatch.setattr(requests.Session, "request", no_network)
    backend = HttpBackend("http://llm.test/v1", "test-model")
    provider = HttpEmbeddingProvider(
        EmbeddingProviderConfig(kind="http-endpoint", location="http://embed.test/v1")
    )
    assert isinstance(backend.session, requests.Session)
    assert isinstance(provider.session, requests.Session)
