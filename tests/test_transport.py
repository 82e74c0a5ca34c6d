"""The HTTP stack is loaded only by HTTP backends and providers, and the
SQLite module only by a disk-backed response cache."""

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
    import sys
    import langrepo, langrepo.cli, langrepo.config
    from langrepo.config import AppConfig, make_providers
    from langrepo.evalharness import evaluate
    from langrepo.ingest import Caption, CaptionSet
    from langrepo.repository import BuildConfig
    from langrepo.vqa import QaItem

    captions = CaptionSet("v", 12.0, [
        Caption(f"c{i}", float(i), i + 1.0, f"person does action {i % 4}") for i in range(12)
    ])
    items = [QaItem("q0", "v", "What happens?", ["a", "b", "c", "d", "e"], 0)]
    report = evaluate(items, {"v": captions}, BuildConfig(chunk_schedule=[3, 2]), "langrepo",
                      make_providers(AppConfig(), cache_dir=sys.argv[1] or None))
    assert len(report.predictions) == 1
    print(" ".join(m for m in ("requests", "urllib3", "sqlite3") if m in sys.modules))
    """
)


def modules_loaded_by_offline_run(cache_dir: str) -> set[str]:
    """Which of requests, urllib3 and sqlite3 a mock + hashed evaluate loads
    in a fresh interpreter; an empty cache_dir keeps the cache in memory."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", OFFLINE_RUN, cache_dir],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_offline_run_never_loads_the_http_stack(tmp_path):
    assert modules_loaded_by_offline_run(str(tmp_path / "cache")) == {"sqlite3"}


def test_run_without_cache_dir_never_loads_sqlite():
    assert modules_loaded_by_offline_run("") == set()


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
