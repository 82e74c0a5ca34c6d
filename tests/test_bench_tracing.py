"""The benchmark's tracer still finds every program name it wraps.

bench/tracing.py reaches the program's layers through module and class
attributes. A refactor that removes or renames one of them fails here,
instead of only in a traced benchmark run.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import langrepo
from langrepo.evalharness import Providers, evaluate
from langrepo.llm import LlmClient, MockBackend
from langrepo.repository import BuildConfig
from langrepo.vqa import QaItem

BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def namespace(lr):
    owners = [
        lr.ingest, lr.embed, lr.grouping, lr.prompts, lr.llm, lr.repository, lr.vqa,
        lr.evalharness, lr.embed.Embedder, lr.llm.LlmClient, lr.llm.ResponseCache,
    ]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_and_probe_install_trace_and_restore(tracing, caption_set_60, hashed_embedder):
    items = [
        QaItem(f"q{i}", "vid", f"What does C do {i}", ["cook", "read a book", "sweep", "sleep"], 0)
        for i in range(3)
    ]
    before = namespace(langrepo)
    tracer, probe, patches = tracing.Tracer(max_text_chars=256), tracing.EvalProbe(), tracing.Patches()
    try:
        tracer.install(patches, langrepo)
        probe.install(patches, langrepo.evalharness)
        client = LlmClient(MockBackend(), max_parallel=4)
        report = evaluate(
            items, {"vid": caption_set_60}, BuildConfig(), "langrepo", Providers(client, hashed_embedder)
        )
    finally:
        patches.restore()
    assert namespace(langrepo) == before
    assert [p.choice_index for p in report.predictions] == [0, 0, 0]
    assert len(probe.builds) == 1 and len(probe.question_s) == 3
    scores = [s for s in tracer.spans if s.name == "llm.score"]
    assert Counter(s.question for s in scores) == {it.question_id: 4 for it in items}


# Traced points that only file I/O reaches, which evaluate does none of.
FILE_POINTS = {"ingest.load_captions", "repository.load", "repository.save"}


def test_langrepo_evaluate_yields_a_span_at_every_traced_point_but_file_io(
    tracing, caption_set_60, hashed_embedder
):
    # A layer its caller reaches through a local alias would record no span,
    # and its per-layer metric would read 0 in every traced benchmark run.
    tracer, patches = tracing.Tracer(max_text_chars=256), tracing.Patches()
    points = set()
    wrapper = tracer._wrapper
    tracer._wrapper = lambda name, info=None: points.add(name) or wrapper(name, info)
    item = QaItem("q0", "vid", "What does C do", ["cook", "read a book", "sweep", "sleep"], 0)
    try:
        tracer.install(patches, langrepo)
        providers = Providers(LlmClient(MockBackend()), hashed_embedder)
        langrepo.evalharness.evaluate([item], {"vid": caption_set_60}, BuildConfig(), "langrepo", providers)
    finally:
        patches.restore()
    assert FILE_POINTS < points
    assert {s.name for s in tracer.spans} == points - FILE_POINTS
