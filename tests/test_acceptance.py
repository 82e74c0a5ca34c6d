"""Acceptance suite: one test per release criterion, all runnable offline
with the deterministic mock backend. Run with ``pytest tests/test_acceptance.py -s``
to see one pass line per criterion.
"""

import math
import os
import time

import numpy as np
import pytest

from langrepo.embed import Embedder, EmbeddingProviderConfig, similarity_matrix
from langrepo.evalharness import Providers, evaluate, write_predictions
from langrepo.grouping import match_and_group, split
from langrepo.ingest import RepoDescription, RepoEntry, chunk_captions, chunk_items, transform_rate
from langrepo.llm import LlmClient, MockBackend
from langrepo.prompts import QaPromptInput, render_qa_generative, render_qa_loglik
from langrepo.repository import (
    BuildConfig,
    build,
    load,
    save,
    to_canonical_json,
    write_to_repo,
)
from langrepo.vqa import QaItem, answer_loglik

from conftest import make_caption_set
from reference import reference_match


def _passed(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def fresh_providers(max_parallel=1) -> Providers:
    return Providers(
        client=LlmClient(MockBackend(), max_parallel=max_parallel),
        embedder=Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16)),
    )


def test_criterion_1_grouping_matches_exhaustive_reference():
    """1,000 random instances (p <= 32, d <= 16, x in {0, .25, .5, 1}) must
    match the pure-Python exhaustive matcher exactly, in under 10 s."""
    rng = np.random.default_rng(20240817)
    x_grid = [0.0, 0.25, 0.5, 1.0]
    started = time.monotonic()
    for trial in range(1000):
        p = int(rng.integers(2, 33))
        d = int(rng.integers(2, 17))
        ratio = float(rng.uniform(0.05, 0.95))
        x = x_grid[trial % len(x_grid)]
        vectors = rng.standard_normal((p, d))
        if trial % 2:  # quantize to force exact similarity ties
            vectors = np.round(vectors, 1)
            vectors[np.linalg.norm(vectors, axis=1) == 0, 0] = 1.0
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        sp = split(p, ratio)
        sim = similarity_matrix(vectors[list(sp.src_indices)], vectors[list(sp.dst_indices)])
        groups, pass_through = match_and_group(sim, sp, x)
        ref_groups, ref_pass = reference_match(
            sim.tolist(), list(sp.src_indices), list(sp.dst_indices), x
        )
        got = {g.dst_index: list(zip(g.src_indices, g.similarities)) for g in groups}
        assert got == ref_groups, f"trial {trial}: groups diverge"
        assert pass_through == ref_pass, f"trial {trial}: pass-through diverges"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    _passed("criterion 1", f"1000/1000 instances match the reference matcher in {elapsed:.2f}s")


def test_criterion_2_description_count_law():
    """Every written entry holds exactly p - floor(x * |src|) descriptions."""
    rng = np.random.default_rng(7)
    embedder = Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16))
    client = LlmClient(MockBackend())
    checked = 0
    for trial in range(120):
        p = int(rng.integers(1, 33))
        x = [0.0, 0.25, 0.5, 1.0][trial % 4]
        cfg = BuildConfig(chunk_schedule=[1], grouping_ratio=x, dst_ratio=0.25)
        texts = [f"actor {trial} performs step {i} variant {int(rng.integers(0, 9))}" for i in range(p)]
        items = [RepoDescription(text, [[float(i), float(i + 1)]]) for i, text in enumerate(texts)]
        entry = write_to_repo([RepoEntry(chunk_index=0, descriptions=items)], cfg, embedder, client)[0]
        if p == 1:
            expected = 1
        else:
            n_src = len(split(p, cfg.dst_ratio).src_indices)
            expected = p - math.floor(x * n_src)
        assert len(entry.descriptions) == expected, f"trial {trial}: p={p} x={x}"
        checked += 1
    _passed("criterion 2", f"{checked} random writes, zero count-law violations")


def test_criterion_3_occurrence_conservation_and_timestamp_containment():
    """Full mock build, schedule [4,3,2], 60 captions: occurrences sum to 60
    at every scale and every description stays inside its chunk's span."""
    captions = make_caption_set(60)
    cfg = BuildConfig(chunk_schedule=[4, 3, 2])
    providers = fresh_providers()
    repo = build(captions, cfg, providers.embedder, providers.client)

    for scale_index, scale in enumerate(repo.scales):
        total = sum(d.occurrences for entry in scale for d in entry.descriptions)
        assert total == 60, f"scale {scale_index}: occurrence sum {total}"

    chunks = chunk_captions(captions, cfg.chunk_schedule[0])
    for scale_index, scale in enumerate(repo.scales):
        if scale_index > 0:
            previous = [d for entry in repo.scales[scale_index - 1] for d in entry.descriptions]
            chunks = chunk_items(previous, cfg.chunk_schedule[scale_index])
        for chunk, entry in zip(chunks, scale):
            low = min(span[0] for d in chunk.descriptions for span in d.timestamps)
            high = max(span[1] for d in chunk.descriptions for span in d.timestamps)
            for d in entry.descriptions:
                for start, end in d.timestamps:
                    assert low <= start <= end <= high, (
                        f"scale {scale_index} chunk {chunk.chunk_index}: span [{start}, {end}] "
                        f"outside founding span [{low}, {high}]"
                    )
    _passed("criterion 3", "occurrences conserved at 60 per scale; all spans contained")


GENERATIVE_FIXTURE = QaPromptInput(
    description="C looks around the room.\nC picks up a knife.",
    question="What is the main activity shown",
    options=(
        "cutting vegetables",
        "washing dishes",
        "reading a book",
        "tying shoelaces",
        "opening a window",
    ),
    duration_s=180.0,
)

EXPECTED_GENERATIVE = (
    "[INST] <<SYS>> You are a helpful expert in first person view video analysis."
    " <</SYS>> Please provide a single-letter answer (A, B, C, D, E) to the"
    " following multiple-choice question, and your answer must be one of the"
    " letters (A, B, C, D, or E). You must not provide any other response or"
    " explanation. You are given some language descriptions of a first person"
    " view video. The video is 180 seconds long. Here are the descriptions:"
    " C looks around the room.\nC picks up a knife..\n"
    " You are going to answer a multiple choice question based on the"
    " descriptions, and your answer should be a single letter chosen from the"
    " choices.\n Here is the question: What is the main activity shown.\n"
    " Here are the choices.\n"
    " A: cutting vegetables\n"
    " B: washing dishes\n"
    " C: reading a book\n"
    " D: tying shoelaces\n"
    " E: opening a window\n"
    " [/INST]"
)


def test_criterion_4_prompt_byte_exactness():
    """Rendered QA prompts must equal their published skeletons byte for byte."""
    assert render_qa_generative(GENERATIVE_FIXTURE) == EXPECTED_GENERATIVE

    qa = GENERATIVE_FIXTURE
    # plain: "${description} ${question} ${answer_option}", scored on the option
    for i, option in enumerate(qa.options):
        prefix, continuation = render_qa_loglik(qa, i, "plain")
        assert prefix + continuation == f"{qa.description} {qa.question} {option}"
        assert continuation == option

    # structured: enumerated choices then "The correct answer is,
    # ${option_id}: ${answer_option}", scored on the id + option
    expected_structured_prefix = (
        f"{qa.description} Based on the description above, answer the following"
        f" question: {qa.question}? Select one of these choices as the answer:\n"
        " A: cutting vegetables\n"
        " B: washing dishes\n"
        " C: reading a book\n"
        " D: tying shoelaces\n"
        " E: opening a window\n"
        " The correct answer is, "
    )
    for i, option in enumerate(qa.options):
        prefix, continuation = render_qa_loglik(qa, i, "structured")
        assert prefix == expected_structured_prefix
        assert continuation == f"{chr(ord('A') + i)}: {option}"
    _passed("criterion 4", "generative and both log-likelihood formats are byte-exact")


def test_criterion_5_loglik_classifier_correctness():
    """Argmax with lowest-index tie-breaking on 100 random score vectors,
    invariant under adding a constant to every score."""
    options = [f"answer option number {i}" for i in range(5)]
    item = QaItem(question_id="q", video_id="v", question="what", options=options)

    class VectorBackend(MockBackend):
        def __init__(self, vector, shift=0.0):
            super().__init__()
            self.vector = vector
            self.shift = shift

        def score(self, prefix, continuation):
            for i, option in enumerate(options):
                if option in continuation:
                    return self.vector[i] + self.shift
            raise AssertionError(f"unexpected continuation {continuation!r}")

    rng = np.random.default_rng(99)
    for trial in range(100):
        vector = [float(v) for v in np.round(rng.uniform(-10, 0, size=5), 2)]
        if trial % 3 == 0:  # exact tie between two positions
            i, j = sorted(rng.choice(5, size=2, replace=False))
            vector[j] = vector[i]
        expected = 0
        for i in range(1, 5):
            if vector[i] > vector[expected]:
                expected = i
        prediction = answer_loglik(["d"], item, "plain", LlmClient(VectorBackend(vector)))
        assert prediction.choice_index == expected, f"trial {trial}: {vector}"
        shift = float(np.round(rng.uniform(-5, 5), 2))
        shifted = answer_loglik(["d"], item, "plain", LlmClient(VectorBackend(vector, shift)))
        assert shifted.choice_index == expected, f"trial {trial}: shift {shift} moved the argmax"
    _passed("criterion 5", "100/100 argmax picks correct, tie-stable, shift-invariant")


def test_criterion_6_end_to_end_determinism(tmp_path):
    """Two independent mock builds serialize byte-identically; save/load is
    lossless and re-serialization is byte-stable."""
    captions = make_caption_set(60)
    cfg = BuildConfig(chunk_schedule=[4, 3, 2], include_timestamps=True)

    outputs = []
    for run in range(2):
        providers = fresh_providers(max_parallel=4)
        repo = build(captions, cfg, providers.embedder, providers.client)
        outputs.append(to_canonical_json(repo))
    assert outputs[0] == outputs[1]

    path = tmp_path / "repo.json"
    providers = fresh_providers()
    repo = build(captions, cfg, providers.embedder, providers.client)
    save(repo, path)
    loaded = load(path)
    assert loaded == repo
    save(loaded, path)
    assert path.read_text(encoding="utf-8") == outputs[0]
    _passed("criterion 6", "independent builds byte-identical; round trip lossless")


def _five_questions():
    return [
        QaItem(
            question_id=f"q{i}",
            video_id="vid",
            question=f"distinct question number {i}",
            options=[f"o{j}" + "x" * j for j in range(5)],
            answer_index=0,
        )
        for i in range(5)
    ]


def test_criterion_7_multi_query_amortization():
    """langrepo pays the write cost once across 5 questions on one video;
    llovi-whole pays one summarize per question (5x)."""
    captions = {"vid": make_caption_set(24)}
    cfg = BuildConfig(chunk_schedule=[4, 3, 2], question_conditioning=False)
    items = _five_questions()

    providers = fresh_providers()
    evaluate(items[:1], captions, cfg, "langrepo", providers)
    rephrase_after_q1 = providers.client.ledger.snapshot()["rephrase"]
    evaluate(items, captions, cfg, "langrepo", providers)
    rephrase_after_q5 = providers.client.ledger.snapshot()["rephrase"]
    assert rephrase_after_q1 > 0
    assert rephrase_after_q1 == rephrase_after_q5, "a second build's rephrase calls were issued"

    build_only = fresh_providers()
    build(captions["vid"], cfg, build_only.embedder, build_only.client)
    assert build_only.client.ledger.snapshot()["rephrase"] == rephrase_after_q1

    one = fresh_providers()
    summarize_1 = evaluate(items[:1], captions, cfg, "llovi-whole", one).ledger_snapshot["summarize"]
    five = fresh_providers()
    summarize_5 = evaluate(items, captions, cfg, "llovi-whole", five).ledger_snapshot["summarize"]
    assert summarize_1 == 1
    assert summarize_5 == 5 * summarize_1
    _passed(
        "criterion 7",
        f"langrepo rephrase calls: {rephrase_after_q1} after q1 == {rephrase_after_q5} after q5; "
        f"llovi-whole summarize calls: {summarize_1} -> {summarize_5}",
    )


def test_criterion_8_length_transform_sizes():
    """transform_rate yields exactly ceil(p/2) and 2p captions."""
    sizes = list(range(1, 21)) + [60]
    for p in sizes:
        captions = make_caption_set(p)
        assert len(transform_rate(captions, 0.5).captions) == math.ceil(p / 2)
        assert len(transform_rate(captions, 1.0).captions) == p
        assert len(transform_rate(captions, 2.0).captions) == 2 * p
    _passed("criterion 8", f"verified ceil(p/2) and 2p on {len(sizes)} fixture sizes")


GARBAGE_REPLIES = [
    "Sure, here are the rephrased captions:",
    "- bullet one\n- bullet two",
    "1. only one item",
    "1. a\n2. b\n3. c\n4. d\n5. e",
    "",
    "I cannot help with that request.",
    "Here you go:\n1. a\n2. b",
    "2. out\n1. of order",
]


def test_criterion_9_rephrase_parser_robustness(angled_caption_set, angled_embedder):
    """Fuzzed LLM replies never crash a build; after the configured retries
    the fallback text is the members joined by '; '."""
    captions = make_caption_set(12)
    cfg = BuildConfig(chunk_schedule=[2], grouping_ratio=0.5, rephrase_retries=2)
    embedder = Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16))

    # crafted and random garbage: builds always complete and obey the laws
    rng = np.random.default_rng(13)
    alphabet = list("abc 123.\n)-:")
    random_replies = [
        "".join(rng.choice(alphabet, size=int(rng.integers(1, 120)))) for _ in range(40)
    ]
    for reply in GARBAGE_REPLIES + random_replies:
        client = LlmClient(MockBackend(purpose_replies={"rephrase": reply}))
        repo = build(captions, cfg, embedder, client)
        for chunk, entry in zip(chunk_captions(captions, 2), repo.scales[0]):
            p = len(chunk.descriptions)
            n_src = len(split(p, cfg.dst_ratio).src_indices)
            assert len(entry.descriptions) == p - math.floor(cfg.grouping_ratio * n_src)
        total = sum(d.occurrences for e in repo.scales[0] for d in e.descriptions)
        assert total == 12

    # on the fixture with a known 2-group structure, none of the crafted
    # replies parses as a 2-item list, so every group must fall back to its
    # members joined by "; " after 1 + rephrase_retries attempts
    texts = [c.text for c in angled_caption_set.captions]
    fallback_cfg = BuildConfig(
        chunk_schedule=[1], grouping_ratio=0.5, dst_ratio=1 / 3, rephrase_retries=2
    )
    for reply in GARBAGE_REPLIES:
        client = LlmClient(MockBackend(purpose_replies={"rephrase": reply}))
        entry = write_to_repo(
            [chunk_captions(angled_caption_set, 1)[0]], fallback_cfg, angled_embedder, client
        )[0]
        got = [d.text for d in entry.descriptions]
        assert got[0] == f"{texts[0]}; {texts[1]}"
        assert got[1] == f"{texts[2]}; {texts[4]}"
        assert client.ledger.snapshot()["rephrase"] == 3
    _passed(
        "criterion 9",
        f"{len(GARBAGE_REPLIES)} crafted + 40 random garbage replies: no crash, "
        "count law holds, fallback equals '; '-joined members",
    )


@pytest.mark.skipif(
    "LANGREPO_INTEGRATION_URL" not in os.environ,
    reason="criterion 10 (optional): set LANGREPO_INTEGRATION_URL to run against a live endpoint",
)
def test_criterion_10_optional_live_integration(tmp_path):
    """Against a live OpenAI-compatible endpoint: the pipeline completes and
    emits a predictions file. No accuracy is asserted."""
    from langrepo.llm import HttpBackend

    backend = HttpBackend(
        base_url=os.environ["LANGREPO_INTEGRATION_URL"],
        model=os.environ.get("LANGREPO_INTEGRATION_MODEL", "mistral"),
    )
    providers = Providers(
        client=LlmClient(backend, cache_dir=tmp_path / "cache"),
        embedder=Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16)),
    )
    captions = {"vid": make_caption_set(24)}
    items = _five_questions()[:2]
    report = evaluate(
        items, captions, BuildConfig(chunk_schedule=[3, 2]), "langrepo", providers,
        classifier="generative",
    )
    out = tmp_path / "predictions.json"
    write_predictions(report.predictions, out)
    assert out.exists()
    _passed("criterion 10", f"live endpoint run completed; predictions at {out}")
