import random
import threading
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langrepo.embed import Embedder, EmbeddingProviderConfig, similarity_matrix
from langrepo.errors import ConfigError, MalformedFile, VersionMismatch
from langrepo.grouping import split
from langrepo.ingest import Caption, CaptionSet, RepoEntry, chunk_captions, chunk_items, split_counts
from langrepo.llm import LlmClient, MockBackend
from langrepo.repository import (
    BuildConfig,
    RepoDescription,
    build,
    load,
    merge_spans,
    read_from_repo,
    render_description_line,
    save,
    to_canonical_json,
    write_to_repo,
)

from conftest import ANGLED_TEXTS, make_caption_set
from reference import reference_match


class TestBuildConfig:
    def test_defaults_valid(self):
        cfg = BuildConfig()
        assert cfg.chunk_schedule == [4, 3, 2]
        assert cfg.include_occurrences and not cfg.include_timestamps

    def test_non_decreasing_schedule_rejected(self):
        with pytest.raises(ConfigError):
            BuildConfig(chunk_schedule=[2, 3])
        with pytest.raises(ConfigError):
            BuildConfig(chunk_schedule=[4, 4])

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigError):
            BuildConfig(chunk_schedule=[])

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigError, match="chunk counts must be positive"):
            BuildConfig(chunk_schedule=[4, 0])

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            BuildConfig(grouping_ratio=1.5)
        with pytest.raises(ConfigError):
            BuildConfig(dst_ratio=1.0)

    def test_dict_round_trip(self):
        cfg = BuildConfig(chunk_schedule=[3, 2], read_scales=1, include_timestamps=True)
        assert BuildConfig(**asdict(cfg)) == cfg


class TestMergeSpans:
    def test_touching_spans_coalesce(self):
        assert merge_spans([[0, 1], [1, 2]]) == [[0.0, 2.0]]

    def test_disjoint_preserved_sorted(self):
        assert merge_spans([[4, 5], [0, 1]]) == [[0.0, 1.0], [4.0, 5.0]]

    def test_overlap_merged(self):
        assert merge_spans([[0, 3], [2, 5], [7, 8]]) == [[0.0, 5.0], [7.0, 8.0]]


class TestWriteToRepo:
    def cfg(self, **kw):
        kw.setdefault("chunk_schedule", [1])
        kw.setdefault("grouping_ratio", 0.5)
        kw.setdefault("dst_ratio", 1 / 3)
        return BuildConfig(**kw)

    def test_single_caption_bypasses(self, hashed_embedder, mock_client):
        chunk = chunk_captions(make_caption_set(1), 1)[0]
        entry = write_to_repo([chunk], self.cfg(), hashed_embedder, mock_client)[0]
        assert len(entry.descriptions) == 1
        d = entry.descriptions[0]
        assert d.occurrences == 1
        assert d.text == chunk.descriptions[0].text
        assert mock_client.ledger.total_calls() == 0

    def test_six_caption_worked_example(self, angled_caption_set, angled_embedder, mock_client):
        # expected grouping comes from the reference matcher on the same
        # fixture embeddings; the default mock rephraser echoes the first
        # member of each group
        chunk = chunk_captions(angled_caption_set, 1)[0]
        sp = split(6, 1 / 3)
        vectors = angled_embedder.encode(ANGLED_TEXTS)
        sim = similarity_matrix(vectors[list(sp.src_indices)], vectors[list(sp.dst_indices)])
        ref_groups, ref_pass = reference_match(
            sim.tolist(), list(sp.src_indices), list(sp.dst_indices), 0.5
        )
        assert sorted(ref_groups) == [1, 4]
        assert [s for s, _ in ref_groups[1]] == [0]
        assert [s for s, _ in ref_groups[4]] == [2]
        assert ref_pass == [3, 5]

        entry = write_to_repo([chunk], self.cfg(), angled_embedder, mock_client)[0]
        assert len(entry.descriptions) == 4  # p - g = 6 - 2
        first, second, third, fourth = entry.descriptions
        assert first.text == ANGLED_TEXTS[0]  # echo of group {0, 1}
        assert first.occurrences == 2
        assert first.timestamps == [[0.0, 2.0]]  # touching spans coalesced
        assert second.text == ANGLED_TEXTS[2]  # echo of group {2, 4}
        assert second.occurrences == 2
        assert second.timestamps == [[2.0, 3.0], [4.0, 5.0]]
        assert (third.text, third.occurrences) == (ANGLED_TEXTS[3], 1)
        assert (fourth.text, fourth.occurrences) == (ANGLED_TEXTS[5], 1)
        assert mock_client.ledger.snapshot()["rephrase"] == 1

    def test_garbage_rephraser_falls_back_after_retries(
        self, angled_caption_set, angled_embedder
    ):
        client = LlmClient(MockBackend(purpose_replies={"rephrase": "garbage"}))
        chunk = chunk_captions(angled_caption_set, 1)[0]
        entry = write_to_repo([chunk], self.cfg(rephrase_retries=2), angled_embedder, client)[0]
        assert client.ledger.snapshot()["rephrase"] == 3  # 1 + 2 retries
        texts = [d.text for d in entry.descriptions]
        assert texts[0] == f"{ANGLED_TEXTS[0]}; {ANGLED_TEXTS[1]}"
        assert texts[1] == f"{ANGLED_TEXTS[2]}; {ANGLED_TEXTS[4]}"

    def test_recovers_when_retry_parses(self, angled_caption_set, angled_embedder):
        client = LlmClient(
            MockBackend(purpose_replies={"rephrase": ["nonsense", "1. fixed a\n2. fixed b"]})
        )
        chunk = chunk_captions(angled_caption_set, 1)[0]
        entry = write_to_repo([chunk], self.cfg(rephrase_retries=2), angled_embedder, client)[0]
        assert client.ledger.snapshot()["rephrase"] == 2
        assert [d.text for d in entry.descriptions][:2] == ["fixed a", "fixed b"]

    def test_zero_ratio_skips_llm_and_embedding(self, mock_client):
        chunk = chunk_captions(make_caption_set(6), 1)[0]

        class ExplodingEmbedder:
            def encode(self, texts):
                raise AssertionError("embedding should not run when nothing groups")

        entry = write_to_repo([chunk], self.cfg(grouping_ratio=0.0), ExplodingEmbedder(), mock_client)[0]
        assert len(entry.descriptions) == 6
        assert mock_client.ledger.total_calls() == 0

    def test_empty_chunk_rejected(self, hashed_embedder, mock_client):
        with pytest.raises(ValueError):
            write_to_repo([RepoEntry(chunk_index=0, descriptions=[])], self.cfg(), hashed_embedder, mock_client)[0]


class TestChunkItems:
    """Chunking one scale's descriptions for the next scale's writes."""

    def descriptions(self, n):
        return [RepoDescription(f"d{i}", [[float(i), float(i + 1)]]) for i in range(n)]

    def test_remainder_rule(self):
        chunks = chunk_items(self.descriptions(9), 2)
        assert [len(c.descriptions) for c in chunks] == [5, 4]
        assert [d.text for c in chunks for d in c.descriptions] == [f"d{i}" for i in range(9)]

    def test_one_description_per_chunk(self):
        chunks = chunk_items(self.descriptions(4), 4)
        assert [len(c.descriptions) for c in chunks] == [1, 1, 1, 1]

    def test_clamps_to_description_count(self):
        chunks = chunk_items(self.descriptions(3), 4)
        assert [len(c.descriptions) for c in chunks] == [1, 1, 1]

    def test_empty_descriptions_rejected(self):
        with pytest.raises(ValueError):
            chunk_items([], 2)


class CountingEmbedder(Embedder):
    """A hashed embedder that records every text it is asked to encode."""

    def __init__(self):
        super().__init__(EmbeddingProviderConfig(kind="hashed", dimension=32))
        self._lock = threading.Lock()
        self.encoded: list[str] = []

    def encode(self, texts):
        with self._lock:
            self.encoded.extend(texts)
        return super().encode(texts)


class CallCountingEmbedder(CountingEmbedder):
    """A counting embedder that also keeps the texts of each encode call."""

    def __init__(self):
        super().__init__()
        self.calls: list[list[str]] = []

    def encode(self, texts):
        self.calls.append(list(texts))
        return super().encode(texts)


class TestBuild:
    def test_schedule_shapes_scales(self, hashed_embedder, mock_client):
        cfg = BuildConfig(chunk_schedule=[3, 2])
        repo = build(make_caption_set(12), cfg, hashed_embedder, mock_client)
        assert len(repo.scales) == 2
        assert [len(scale) for scale in repo.scales] == [3, 2]
        assert repo.video_id == "vid"
        assert repo.provenance["backend_id"] == "mock"

    def test_three_scale_schedule(self, caption_set_60, hashed_embedder, mock_client):
        repo = build(caption_set_60, BuildConfig(), hashed_embedder, mock_client)
        assert [len(scale) for scale in repo.scales] == [4, 3, 2]
        for scale in repo.scales:
            total_occ = sum(d.occurrences for e in scale for d in e.descriptions)
            assert total_occ == 60

    def test_description_count_law_per_chunk(self, caption_set_60, hashed_embedder, mock_client):
        cfg = BuildConfig(chunk_schedule=[4])
        repo = build(caption_set_60, cfg, hashed_embedder, mock_client)
        for chunk, entry in zip(chunk_captions(caption_set_60, 4), repo.scales[0]):
            p = len(chunk.descriptions)
            src = split(p, cfg.dst_ratio).src_indices
            expected = p - int(cfg.grouping_ratio * len(src))
            assert len(entry.descriptions) == expected

    def test_temporal_monotonicity(self, caption_set_60, hashed_embedder, mock_client):
        repo = build(caption_set_60, BuildConfig(), hashed_embedder, mock_client)
        for scale in repo.scales:
            starts = [d.earliest_s for e in scale for d in e.descriptions]
            assert starts == sorted(starts)

    def test_parallel_build_matches_serial(self, caption_set_60, hashed_embedder):
        serial = build(
            caption_set_60, BuildConfig(), hashed_embedder, LlmClient(MockBackend(), max_parallel=1)
        )
        parallel = build(
            caption_set_60, BuildConfig(), hashed_embedder, LlmClient(MockBackend(), max_parallel=8)
        )
        assert to_canonical_json(serial) == to_canonical_json(parallel)

    @pytest.mark.parametrize("max_parallel", [1, 8])
    def test_each_description_is_embedded_once(self, max_parallel):
        captions = make_caption_set(600)
        embedder = CountingEmbedder()
        repo = build(captions, BuildConfig(), embedder, LlmClient(MockBackend(), max_parallel=max_parallel))
        # Every write groups, so every text some write took is embedded. The
        # mock rephraser echoes a group's first member, so rephrased
        # descriptions bring no new texts, only new timestamps and counts.
        written = {c.text for c in captions.captions}
        written |= {d.text for scale in repo.scales[:-1] for entry in scale for d in entry.descriptions}
        assert len(embedder.encoded) == len(written) == 600

    @pytest.mark.parametrize("max_parallel", [1, 8])
    def test_one_encode_call_per_write_pass_with_new_texts(self, max_parallel):
        embedder = CallCountingEmbedder()
        build(make_caption_set(600), BuildConfig(), embedder, LlmClient(MockBackend(), max_parallel=max_parallel))
        # The mock rephraser echoes a group's first member, so only scale 0
        # brings new texts.
        assert [len(call) for call in embedder.calls] == [600]

    @pytest.mark.parametrize("max_parallel", [1, 8])
    def test_a_text_every_chunk_shares_is_embedded_once(self, max_parallel):
        texts = [f"C does step {k}" for k in range(5)]
        captions = CaptionSet("vid", 40.0, [Caption(f"c{i}", float(i), i + 1.0, texts[i % 5]) for i in range(40)])
        embedder = CallCountingEmbedder()
        build(captions, BuildConfig(chunk_schedule=[4]), embedder, LlmClient(MockBackend(), max_parallel=max_parallel))
        assert embedder.calls == [texts]

    @settings(max_examples=5, deadline=None)
    @given(
        n=st.integers(1_000, 10_000),
        vocabulary=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        schedule=st.sampled_from([[4, 3, 2], [16, 5, 1], [7]]),
        grouping_ratio=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_laws_on_long_videos_of_repeated_captions(self, n, vocabulary, seed, schedule, grouping_ratio):
        rng = random.Random(seed)
        texts = [f"C does step {k}" for k in range(vocabulary)]
        captions = CaptionSet(
            "long", float(n), [Caption(f"c{i}", float(i), float(i + 1), rng.choice(texts)) for i in range(n)]
        )
        cfg = BuildConfig(chunk_schedule=schedule, grouping_ratio=grouping_ratio)
        embedder = CountingEmbedder()
        repo = build(captions, cfg, embedder, LlmClient(MockBackend(), max_parallel=1))

        # The time spans of each item of the scale being checked, in order.
        previous = [[[c.start_s, c.end_s]] for c in captions.captions]
        for n_chunks, scale in zip(schedule, repo.scales):
            sizes = split_counts(len(previous), n_chunks)
            assert len(scale) == len(sizes)
            pos = 0
            for size, entry in zip(sizes, scale):
                chunk, pos = previous[pos : pos + size], pos + size
                merged = 0 if size < 2 else int(grouping_ratio * len(split(size, cfg.dst_ratio).src_indices))
                assert len(entry.descriptions) == size - merged
                low = min(spans[0][0] for spans in chunk)
                high = max(end for spans in chunk for _, end in spans)
                assert all(low <= s <= e <= high for d in entry.descriptions for s, e in d.timestamps)
            descriptions = [d for entry in scale for d in entry.descriptions]
            assert sum(d.occurrences for d in descriptions) == n
            starts = [d.earliest_s for d in descriptions]
            assert starts == sorted(starts)
            previous = [d.timestamps for d in descriptions]
        assert len(embedder.encoded) == len(set(embedder.encoded))

    def test_carried_vectors_leave_the_repository_unchanged(self, hashed_embedder, mock_client):
        captions = make_caption_set(600)
        cfg = BuildConfig()
        # Every write embeds all of its items when no vectors are carried.
        scales = []
        chunks = chunk_captions(captions, cfg.chunk_schedule[0])
        for scale, n_chunks in enumerate(cfg.chunk_schedule):
            if scale > 0:
                chunks = chunk_items([d for entry in scales[-1] for d in entry.descriptions], n_chunks)
            scales.append([write_to_repo([ch], cfg, hashed_embedder, mock_client)[0] for ch in chunks])
        assert build(captions, cfg, hashed_embedder, mock_client).scales == scales


class TestRenderDescriptionLine:
    D = RepoDescription("C picks a bag", [[0.0, 1.0], [4.0, 5.0]], occurrences=3)

    def test_both_flags(self):
        cfg = BuildConfig(include_timestamps=True, include_occurrences=True)
        assert render_description_line(self.D, cfg) == "[0.0s-1.0s, 4.0s-5.0s] C picks a bag (x3)"

    def test_flags_off(self):
        cfg = BuildConfig(include_timestamps=False, include_occurrences=False)
        assert render_description_line(self.D, cfg) == "C picks a bag"

    def test_single_occurrence_suffix_omitted(self):
        d = RepoDescription("C picks a bag", [[0.0, 1.0]], occurrences=1)
        cfg = BuildConfig(include_occurrences=True)
        assert render_description_line(d, cfg) == "C picks a bag"


class TestReadFromRepo:
    def repo(self, hashed_embedder, mock_client, **cfg_kw):
        cfg = BuildConfig(**cfg_kw)
        return build(make_caption_set(24), cfg, hashed_embedder, mock_client), cfg

    def test_read_scales_one_reads_coarsest_only(self, hashed_embedder, mock_client):
        repo, _ = self.repo(hashed_embedder, mock_client)
        cfg = BuildConfig(read_scales=1)
        outs = read_from_repo(repo, cfg, None, mock_client)
        assert len(outs) == len(repo.scales[-1]) == 2

    def test_read_all_scales_counts_entries(self, hashed_embedder, mock_client):
        repo, cfg = self.repo(hashed_embedder, mock_client)
        before = mock_client.ledger.snapshot()["summarize"]
        outs = read_from_repo(repo, cfg, None, mock_client)
        assert len(outs) == 4 + 3 + 2
        assert mock_client.ledger.snapshot()["summarize"] - before == 9

    def test_question_conditioning_changes_prompts(self, hashed_embedder, mock_client):
        repo, _ = self.repo(hashed_embedder, mock_client)
        plain_cfg = BuildConfig(read_scales=1, question_conditioning=False)
        cond_cfg = BuildConfig(read_scales=1, question_conditioning=True)
        plain = read_from_repo(repo, plain_cfg, "why?", mock_client)
        conditioned = read_from_repo(repo, cond_cfg, "why?", mock_client)
        assert plain != conditioned  # mock output is prompt-dependent


class TestPersistence:
    def build_repo(self, hashed_embedder, mock_client):
        return build(make_caption_set(12), BuildConfig(chunk_schedule=[3, 2]), hashed_embedder, mock_client)

    def test_round_trip(self, tmp_path, hashed_embedder, mock_client):
        repo = self.build_repo(hashed_embedder, mock_client)
        path = tmp_path / "repo.json"
        save(repo, path)
        loaded = load(path)
        assert loaded == repo
        assert to_canonical_json(loaded) == to_canonical_json(repo)

    def test_reserialization_byte_identical(self, tmp_path, hashed_embedder, mock_client):
        repo = self.build_repo(hashed_embedder, mock_client)
        path = tmp_path / "repo.json"
        save(repo, path)
        first = path.read_bytes()
        save(load(path), path)
        assert path.read_bytes() == first

    def test_truncated_file(self, tmp_path, hashed_embedder, mock_client):
        repo = self.build_repo(hashed_embedder, mock_client)
        path = tmp_path / "repo.json"
        save(repo, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(MalformedFile):
            load(path)

    def test_version_mismatch(self, tmp_path, hashed_embedder, mock_client):
        repo = self.build_repo(hashed_embedder, mock_client)
        path = tmp_path / "repo.json"
        text = to_canonical_json(repo).replace('"schema_version": 1', '"schema_version": 99')
        path.write_text(text)
        with pytest.raises(VersionMismatch):
            load(path)

    def test_scale_indices_restored(self, tmp_path, hashed_embedder, mock_client):
        repo = self.build_repo(hashed_embedder, mock_client)
        path = tmp_path / "repo.json"
        save(repo, path)
        # An entry's scale is the position of its list in scales.
        assert [[e.chunk_index for e in scale] for scale in load(path).scales] == [[0, 1, 2], [0, 1]]
