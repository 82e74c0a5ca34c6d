"""Equivalence gate: evaluation outputs pinned as digests.

Each digest covers one evaluate run's predictions (per-option scores
included) and its report (accuracy, splits and ledger). The backend below
makes every score and every generative answer depend on the whole prompt,
so a changed description, chunk or question changes the digest. A digest
must not depend on max_parallel. The last test pins the same outputs at
the benchmark's scale, on inputs from its generator.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from langrepo.embed import Embedder, EmbeddingProviderConfig
from langrepo.evalharness import MODES, Providers, evaluate, load_qa_dataset, predictions_payload, report_payload
from langrepo.ingest import load_captions
from langrepo.llm import LlmClient, MockBackend
from langrepo.repository import BuildConfig, build, to_canonical_json
from langrepo.vqa import QaItem

from conftest import make_caption_set


def _hash(*parts: str) -> int:
    return int(hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()[:12], 16)


class PromptHashBackend(MockBackend):
    """Mock whose QA scores and letters are hashes of the whole request.

    A third of the generative prompts get no letter at the first ask and a
    ninth get none at the second either, so re-asks and the option-0
    fallback are covered too.
    """

    def complete(self, req):
        if req.purpose_tag != "qa":
            return super().complete(req)
        h = _hash(req.prompt)
        if h % 9 == 0 or (h % 3 == 0 and req.attempt == 0):
            return "not sure"
        return f"Answer: {'ABCDE'[h % 5]}"

    def score(self, prefix, continuation):
        return -(_hash(prefix, continuation) % 100_000) / 1000.0


CAPTIONS = {
    "vid": make_caption_set(12),
    "other": make_caption_set(15, "other"),
    "long": make_caption_set(40, "long", span_s=0.5),
}

CONFIGS = {
    "default": BuildConfig(),
    "timestamps-conditioned-coarsest": BuildConfig(
        include_timestamps=True, question_conditioning=True, read_scales=1
    ),
}

CLASSIFIERS = {
    "loglik-plain": ("loglik", "plain"),
    "loglik-structured": ("loglik", "structured"),
    "generative": ("generative", "plain"),
}


def items() -> list[QaItem]:
    out = []
    for video in CAPTIONS:
        for i in range(3):
            out.append(
                QaItem(
                    question_id=f"{video}-q{i}",
                    video_id=video,
                    question=f"what does the person in {video} do with object {i}?",
                    options=[f"{video} option {k} of question {i}" for k in range(5)],
                    answer_index=None if i == 2 else (i * 2) % 5,
                    split_tag="causal" if i == 0 else "temporal",
                )
            )
    return out


def digest(*payloads) -> str:
    return hashlib.sha256(json.dumps(list(payloads), sort_keys=True).encode("utf-8")).hexdigest()[:16]


def providers(max_parallel: int) -> Providers:
    return Providers(
        client=LlmClient(PromptHashBackend(), max_parallel=max_parallel),
        embedder=Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16)),
    )


EXPECTED = {
    ("langrepo", "generative", "default"): "fa8caaa7263f75b3",
    ("langrepo", "generative", "timestamps-conditioned-coarsest"): "317f9d5e21066445",
    ("langrepo", "loglik-plain", "default"): "6ced96721a49a1aa",
    ("langrepo", "loglik-plain", "timestamps-conditioned-coarsest"): "7e2c499dcf81ce4e",
    ("langrepo", "loglik-structured", "default"): "bba9a8d5d8b93ae9",
    ("langrepo", "loglik-structured", "timestamps-conditioned-coarsest"): "f8bade18452f5ff9",
    ("llovi-whole", "generative", "default"): "1485650502d01528",
    ("llovi-whole", "generative", "timestamps-conditioned-coarsest"): "1485650502d01528",
    ("llovi-whole", "loglik-plain", "default"): "adbc8fceea4ce696",
    ("llovi-whole", "loglik-plain", "timestamps-conditioned-coarsest"): "adbc8fceea4ce696",
    ("llovi-whole", "loglik-structured", "default"): "f99ba4b0946a3b18",
    ("llovi-whole", "loglik-structured", "timestamps-conditioned-coarsest"): "f99ba4b0946a3b18",
    ("llovi-chunked", "generative", "default"): "bee301359e5f6281",
    ("llovi-chunked", "generative", "timestamps-conditioned-coarsest"): "bee301359e5f6281",
    ("llovi-chunked", "loglik-plain", "default"): "4acc3193c8fbbf24",
    ("llovi-chunked", "loglik-plain", "timestamps-conditioned-coarsest"): "4acc3193c8fbbf24",
    ("llovi-chunked", "loglik-structured", "default"): "caf0a4ffbf46518d",
    ("llovi-chunked", "loglik-structured", "timestamps-conditioned-coarsest"): "caf0a4ffbf46518d",
}

EXPECTED_REPOSITORIES = {
    "default": "31815f1dbafe8292",
    "timestamps-conditioned-coarsest": "b66193c32a08413f",
}


@pytest.mark.parametrize("max_parallel", [1, 4])
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("classifier", sorted(CLASSIFIERS))
@pytest.mark.parametrize("mode", MODES)
def test_evaluation_outputs_are_pinned(mode, classifier, config, max_parallel):
    kind, loglik_format = CLASSIFIERS[classifier]
    report = evaluate(
        items(), CAPTIONS, CONFIGS[config], mode, providers(max_parallel),
        classifier=kind, loglik_format=loglik_format,
    )
    got = digest(predictions_payload(report.predictions), report_payload(report))
    assert got == EXPECTED[mode, classifier, config]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_repository_bytes_are_pinned(config):
    prov = providers(4)
    repos = [to_canonical_json(build(c, CONFIGS[config], prov.embedder, prov.client)) for c in CAPTIONS.values()]
    assert digest(*repos) == EXPECTED_REPOSITORIES[config]


BENCH = Path(__file__).resolve().parents[1] / "bench"


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.fixture
def bench_inputs(monkeypatch, tmp_path):
    """bench/gen.py's seed-11 inputs: 12 videos of 600 captions, 10 questions each."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # Registered so that the module imported below is dropped from sys.modules again afterwards.
    monkeypatch.setitem(sys.modules, "gen", None)
    del sys.modules["gen"]
    import gen

    captions_dir, dataset = gen.write_inputs(11, tmp_path, 12, 600, 10)
    items = load_qa_dataset(dataset)
    captions = {vid: load_captions(captions_dir / f"{vid}.json") for vid in sorted({it.video_id for it in items})}
    return items, captions


@pytest.mark.parametrize("max_parallel", [1, 4])
def test_outputs_at_bench_scale_are_pinned(bench_inputs, max_parallel):
    items, captions = bench_inputs
    embedder = Embedder(EmbeddingProviderConfig())
    client = LlmClient(MockBackend(), max_parallel=max_parallel)
    repos = [to_canonical_json(build(captions[vid], BuildConfig(), embedder, client)) for vid in sorted(captions)]
    assert sha16("".join(repos)) == "3e76314ae28fa6e1"
    assert client.ledger.snapshot()["rephrase"] == 108

    prov = Providers(client=LlmClient(MockBackend(), max_parallel=max_parallel), embedder=embedder)
    report = evaluate(items, captions, BuildConfig(), "langrepo", prov)
    rows = [[p.question_id, p.choice_index, p.per_option_scores] for p in report.predictions]
    assert sha16(json.dumps(rows)) == "94b1ff2ea68d45b4"
    assert report.ledger_snapshot == {"rephrase": 108, "summarize": 108, "qa": 600, "cache_hits": 0}
