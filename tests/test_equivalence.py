"""Equivalence gate: evaluation outputs pinned as digests.

Each digest covers one evaluate run's predictions (per-option scores
included) and its report (accuracy, splits and ledger). The backend below
makes every score and every generative answer depend on the whole prompt,
so a changed description, chunk or question changes the digest. A digest
must not depend on max_parallel.
"""

import hashlib
import json

import pytest

from langrepo.embed import Embedder, EmbeddingProviderConfig
from langrepo.evalharness import MODES, Providers, evaluate, predictions_payload, report_payload
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
        classifier=kind, loglik_format=loglik_format, shuffle_seed=3,
    )
    got = digest(predictions_payload(report.predictions), report_payload(report))
    assert got == EXPECTED[mode, classifier, config]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_repository_bytes_are_pinned(config):
    prov = providers(4)
    repos = [to_canonical_json(build(c, CONFIGS[config], prov.embedder, prov.client)) for c in CAPTIONS.values()]
    assert digest(*repos) == EXPECTED_REPOSITORIES[config]
