import json
import logging
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from langrepo import evalharness
from langrepo.embed import Embedder, EmbeddingProviderConfig
from langrepo.errors import BackendUnavailable, EmptyInput, MalformedFile, MissingCaptions, OptionCountError
from langrepo.evalharness import (
    Providers,
    descriptions_for,
    evaluate,
    load_qa_dataset,
    mode_config,
    prepare_video,
    predictions_payload,
    report_payload,
    write_predictions,
    write_report,
)
from langrepo.ingest import CaptionSet, chunk_captions
from langrepo.llm import LlmClient, MockBackend
from langrepo.prompts import render_summarize
from langrepo.repository import BuildConfig, build, read_from_repo
from langrepo.vqa import QaItem

from conftest import make_caption_set


def dataset_file(tmp_path, items):
    path = tmp_path / "qa.json"
    path.write_text(json.dumps({"items": items}))
    return path


def qa_entry(qid, video_id="vid", answer_index=0, split_tag=None, n_options=5):
    entry = {
        "question_id": qid,
        "video_id": video_id,
        "question": f"question {qid}",
        # shortest option first so the default mock scorer picks index 0
        "options": [f"o{i}" + "x" * i for i in range(n_options)],
    }
    if answer_index is not None:
        entry["answer_index"] = answer_index
    if split_tag:
        entry["split_tag"] = split_tag
    return entry


def providers(max_parallel=1):
    return Providers(
        client=LlmClient(MockBackend(), max_parallel=max_parallel),
        embedder=Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16)),
    )


class TestLoadQaDataset:
    def test_two_item_fixture(self, tmp_path):
        path = dataset_file(tmp_path, [qa_entry("q1"), qa_entry("q2", split_tag="causal")])
        items = load_qa_dataset(path)
        assert len(items) == 2
        assert items[1].split_tag == "causal"

    def test_three_options_accepted_but_not_generative(self, tmp_path):
        path = dataset_file(tmp_path, [qa_entry("q1", n_options=3)])
        items = load_qa_dataset(path)
        assert not items[0].generative_compatible

    def test_missing_question_field(self, tmp_path):
        entry = qa_entry("q1")
        del entry["question"]
        with pytest.raises(MalformedFile):
            load_qa_dataset(dataset_file(tmp_path, [entry]))

    def test_one_option_rejected(self, tmp_path):
        with pytest.raises(MalformedFile):
            load_qa_dataset(dataset_file(tmp_path, [qa_entry("q1", n_options=1)]))

    def test_missing_answer_index_allowed(self, tmp_path):
        path = dataset_file(tmp_path, [qa_entry("q1", answer_index=None)])
        assert load_qa_dataset(path)[0].answer_index is None

    @pytest.mark.parametrize("answer_index", [1.7, True, "1", 1.0])
    def test_answer_index_must_be_a_json_integer(self, tmp_path, answer_index):
        # int() would score 1.7 and true against option 1
        entries = [qa_entry("q0"), qa_entry("q1", answer_index=answer_index)]
        with pytest.raises(MalformedFile, match=r"items\[1\]\.answer_index must be an integer"):
            load_qa_dataset(dataset_file(tmp_path, entries))

    @pytest.mark.parametrize("entry", [1, "q1", ["q1"]])
    def test_item_that_is_not_an_object_rejected(self, tmp_path, entry):
        with pytest.raises(MalformedFile, match=r"items\[0\] must be an object"):
            load_qa_dataset(dataset_file(tmp_path, [entry]))

    def test_duplicate_options_rejected_at_load(self, tmp_path):
        # a duplicate must fail here, not after evaluate has prepared every video
        entry = qa_entry("q1")
        entry["options"][3] = entry["options"][1]
        with pytest.raises(MalformedFile, match=r"qa\.json: items\[1\]: item 'q1'.*distinct"):
            load_qa_dataset(dataset_file(tmp_path, [qa_entry("q0"), entry]))

    def test_empty_option_rejected_at_load(self, tmp_path):
        # an empty option cannot be scored, so it must fail here, not after the video is built
        entry = {**qa_entry("q0"), "options": ["", "yy"]}
        with pytest.raises(MalformedFile, match=r"qa\.json: items\[0\]: item 'q0'.*non-empty"):
            load_qa_dataset(dataset_file(tmp_path, [entry]))

    def test_no_items_rejected(self, tmp_path):
        with pytest.raises(EmptyInput, match=r"qa\.json: items is empty"):
            load_qa_dataset(dataset_file(tmp_path, []))

    def test_repeated_question_id_rejected_naming_both_positions(self, tmp_path):
        entries = [qa_entry("q0"), qa_entry("q1"), qa_entry("q2"), qa_entry("q1")]
        with pytest.raises(MalformedFile, match=r"qa\.json: items\[3\] repeats question_id 'q1' of items\[1\]"):
            load_qa_dataset(dataset_file(tmp_path, entries))


class TestEvaluate:
    def run(self, items, mode="langrepo", prov=None, cfg=None, captions=None):
        prov = prov or providers()
        cfg = cfg or BuildConfig(chunk_schedule=[3, 2])
        captions = captions or {"vid": make_caption_set(12)}
        return evaluate(items, captions, cfg, mode, prov)

    def items(self, n=4, **kw):
        return [QaItem(**qa_entry(f"q{i}", **kw)) for i in range(n)]

    def test_all_correct_when_mock_matches_truth(self):
        # default mock scorer prefers the shortest option, which is index 0,
        # and every item's answer_index is 0
        report = self.run(self.items(4))
        assert report.overall_accuracy == 1.0
        assert report.n_items == 4

    def test_accuracy_counts_misses(self):
        items = self.items(4)
        items[0].answer_index = 3
        items[1].answer_index = 3
        report = self.run(items)
        assert report.overall_accuracy == 0.5

    def test_per_split_accuracy(self):
        items = self.items(3)
        items[0].split_tag = "causal"
        items[1].split_tag = "causal"
        items[1].answer_index = 2  # will be predicted wrong
        items[2].split_tag = "temporal"
        report = self.run(items)
        assert report.per_split == {"causal": 0.5, "temporal": 1.0}

    def test_unscored_items_excluded(self):
        items = self.items(3)
        items[2].answer_index = None
        report = self.run(items)
        assert report.n_items == 2
        assert report.n_unscored == 1
        assert len(report.predictions) == 3

    def test_missing_captions(self):
        with pytest.raises(MissingCaptions):
            self.run(self.items(1), captions={"other": make_caption_set(3)})

    def test_build_happens_once_per_video(self):
        prov = providers()
        report = self.run(self.items(2), prov=prov)
        rephrase_two_items = report.ledger_snapshot["rephrase"]
        prov_single = providers()
        report_single = self.run(self.items(1), prov=prov_single)
        assert rephrase_two_items == report_single.ledger_snapshot["rephrase"]

    def test_llovi_whole_single_summary_per_item(self):
        prov = providers()
        report = self.run(self.items(3), mode="llovi-whole", prov=prov)
        assert report.ledger_snapshot["summarize"] == 3
        assert report.ledger_snapshot["rephrase"] == 0

    def test_llovi_chunked_summary_per_chunk(self):
        prov = providers()
        cfg = BuildConfig(chunk_schedule=[3, 2])
        report = self.run(self.items(1), mode="llovi-chunked", prov=prov, cfg=cfg)
        assert report.ledger_snapshot["summarize"] == 3  # schedule[0] chunks
        assert report.ledger_snapshot["rephrase"] == 0

    def test_generative_classifier_path(self):
        prov = providers()
        report = evaluate(
            self.items(2),
            {"vid": make_caption_set(12)},
            BuildConfig(chunk_schedule=[3, 2]),
            "langrepo",
            prov,
            classifier="generative",
        )
        # mock answers "A", which is index 0 = ground truth
        assert report.overall_accuracy == 1.0

    def test_generative_rejects_other_option_counts_before_any_call(self):
        prov = providers()
        items = self.items(2) + [QaItem(**qa_entry("q4", n_options=4)), QaItem(**qa_entry("q6", n_options=6))]
        captions = {"vid": make_caption_set(12)}
        with pytest.raises(OptionCountError, match="items q4, q6"):
            evaluate(items, captions, BuildConfig(chunk_schedule=[3, 2]), "langrepo", prov, classifier="generative")
        assert prov.client.ledger.total_calls() == 0

    def test_bad_loglik_format_rejected_before_any_call(self):
        prov = providers()
        captions = {"vid": make_caption_set(12)}
        with pytest.raises(ValueError, match="loglik_format"):
            evaluate(self.items(2), captions, BuildConfig(chunk_schedule=[3, 2]), "langrepo", prov, loglik_format="bogus")
        assert prov.client.ledger.total_calls() == 0

    def test_bad_classifier_rejected_before_any_call(self):
        prov = providers()
        captions = {"vid": make_caption_set(12)}
        with pytest.raises(ValueError, match="classifier"):
            evaluate(self.items(2), captions, BuildConfig(chunk_schedule=[3, 2]), "langrepo", prov, classifier="vote")
        assert prov.client.ledger.total_calls() == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            self.run(self.items(1), mode="nonsense")

    def test_parallel_matches_serial(self):
        serial = self.run(self.items(4), prov=providers(max_parallel=1))
        parallel = self.run(self.items(4), prov=providers(max_parallel=8))
        assert [p.choice_index for p in serial.predictions] == [
            p.choice_index for p in parallel.predictions
        ]
        assert serial.ledger_snapshot == parallel.ledger_snapshot


class CountingClient(LlmClient):
    """LlmClient that keeps every summarize prompt it is asked for, cache
    hits included, and counts generate requests per purpose."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self.requests = Counter()
        self.summarize_prompts = []

    def generate(self, req):
        with self._lock:
            self.requests[req.purpose_tag] += 1
            if req.purpose_tag == "summarize":
                self.summarize_prompts.append(req.prompt)
        return super().generate(req)


class FailingRephrase(MockBackend):
    """Mock whose rephrase calls fail for captions that mention a marker."""

    def __init__(self, marker):
        super().__init__()
        self.marker = marker

    def complete(self, req):
        if req.purpose_tag == "rephrase" and self.marker in req.prompt:
            raise BackendUnavailable("endpoint down")
        return super().complete(req)


def marked_caption_set(n, video_id, marker):
    plain = make_caption_set(n, video_id)
    return CaptionSet(
        video_id, plain.duration_s, [replace(c, text=f"{marker} {c.text}") for c in plain.captions]
    )


class TestPreparePerVideo:
    """The build, and the read when it ignores the question, run once per
    video ahead of its questions; every question still sees its own read."""

    cfg = BuildConfig(chunk_schedule=[3, 2])
    entries = 5  # one summary per entry: 3 + 2

    def questions(self, n, video_id="vid"):
        return [
            QaItem(f"{video_id}-q{i}", video_id, f"what happens in {video_id} part {i}?", ["a", "bb"], 0)
            for i in range(n)
        ]

    def counting(self, max_parallel=4):
        return Providers(
            client=CountingClient(MockBackend(), max_parallel=max_parallel),
            embedder=Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16)),
        )

    def test_unconditioned_read_is_requested_once_per_entry(self):
        prov = self.counting()
        evaluate(self.questions(4), {"vid": make_caption_set(12)}, self.cfg, "langrepo", prov)
        assert prov.client.requests["summarize"] == self.entries

    def test_conditioned_read_is_requested_per_entry_per_question(self):
        cfg = replace(self.cfg, question_conditioning=True)
        items = self.questions(4)
        prov = self.counting()
        evaluate(items, {"vid": make_caption_set(12)}, cfg, "langrepo", prov)
        assert prov.client.requests["summarize"] == self.entries * len(items)
        for item in items:
            holding = [p for p in prov.client.summarize_prompts if item.question in p]
            assert len(holding) == self.entries

    @pytest.mark.parametrize("conditioned", [False, True])
    @pytest.mark.parametrize("max_parallel", [1, 8])
    def test_each_question_reads_what_an_independent_read_gives(
        self, monkeypatch, conditioned, max_parallel
    ):
        cfg = replace(self.cfg, question_conditioning=conditioned)
        captions = {"vid": make_caption_set(12), "other": make_caption_set(15, "other")}
        items = [x for pair in zip(self.questions(3), self.questions(3, "other")) for x in pair]
        seen = {}
        original = evalharness.descriptions_for

        def recording(item, *args, **kwargs):
            seen[item.question_id] = original(item, *args, **kwargs)
            return seen[item.question_id]

        monkeypatch.setattr(evalharness, "descriptions_for", recording)
        prov = self.counting(max_parallel)
        evaluate(items, captions, cfg, "langrepo", prov)
        reads = len(items) if conditioned else len(captions)
        assert prov.client.requests["summarize"] == self.entries * reads
        for item in items:
            alone = self.counting(1)
            repo = build(captions[item.video_id], cfg, alone.embedder, alone.client)
            assert seen[item.question_id] == read_from_repo(repo, cfg, item.question, alone.client)

    @pytest.mark.parametrize("max_parallel", [1, 4])
    def test_failed_build_raises_without_hanging(self, max_parallel):
        captions = {
            "vid": make_caption_set(12),
            "bad": marked_caption_set(12, "bad", "unreachable"),
            "other": make_caption_set(15, "other"),
        }
        items = self.questions(2) + self.questions(2, "bad") + self.questions(2, "other")
        prov = Providers(
            client=LlmClient(FailingRephrase("unreachable"), max_parallel=max_parallel),
            embedder=Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16)),
        )
        raised = []

        def run():
            try:
                evaluate(items, captions, self.cfg, "langrepo", prov)
            except BackendUnavailable as exc:
                raised.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "evaluate hung after a failed build"
        assert len(raised) == 1
        # the other two videos were still built, read and asked their questions
        assert prov.client.ledger.snapshot()["summarize"] == 2 * self.entries
        assert prov.client.ledger.snapshot()["qa"] == 8  # 2 videos x 2 questions x 2 options

    @pytest.mark.parametrize("max_parallel", [1, 4])
    def test_predictions_follow_the_input_order_across_interleaved_videos(self, max_parallel):
        captions = {vid: make_caption_set(n, vid) for vid, n in [("vid", 12), ("other", 15), ("third", 9)]}
        by_video = [self.questions(3, vid) for vid in ("other", "vid", "third")]
        items = [item for turn in zip(*by_video) for item in turn]  # other, vid, third, other, ...
        report = evaluate(items, captions, self.cfg, "langrepo", self.counting(max_parallel))
        assert [p.question_id for p in report.predictions] == [item.question_id for item in items]

    def test_a_ready_video_is_answered_while_a_later_video_still_builds(self):
        # Every backend call of the second video waits for the release; the
        # first video's questions must reach the backend before it.
        release = threading.Event()
        scored = []

        class HoldMarked(MockBackend):
            def complete(self, req):
                if "held" in req.prompt:
                    release.wait(30)
                return super().complete(req)

            def score(self, prefix, continuation):
                if "held" in prefix:
                    release.wait(30)
                scored.append(prefix)
                return super().score(prefix, continuation)

        captions = {"vid": make_caption_set(12), "later": marked_caption_set(12, "later", "held")}
        items = self.questions(3) + self.questions(3, "later")
        prov = Providers(
            client=LlmClient(HoldMarked(), max_parallel=4),
            embedder=Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16)),
        )
        reports = []
        worker = threading.Thread(target=lambda: reports.append(evaluate(items, captions, self.cfg, "langrepo", prov)),
                                  daemon=True)
        worker.start()
        try:
            deadline = time.monotonic() + 10
            while len(scored) < 6 and time.monotonic() < deadline:  # 3 questions x 2 options
                time.sleep(0.01)
            before_release = list(scored)
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive(), "evaluate hung"
        assert len(before_release) == 6
        assert not any("held" in prefix for prefix in before_release)
        assert [p.question_id for p in reports[0].predictions] == [item.question_id for item in items]

    def test_each_video_logs_when_its_questions_are_answered(self, caplog):
        captions = {"vid": make_caption_set(12), "other": make_caption_set(15, "other")}
        items = self.questions(2, "other") + self.questions(3)
        with caplog.at_level(logging.INFO, logger="langrepo.evalharness"):
            evaluate(items, captions, self.cfg, "langrepo", self.counting())
        lines = [r.getMessage() for r in caplog.records if r.name == "langrepo.evalharness"]
        assert sorted(lines) == ["video other: 2 question(s) answered", "video vid: 3 question(s) answered"]


class TestModeComparison:
    """langrepo vs the LLoVi baselines over identical inputs."""

    def item(self):
        return QaItem(**qa_entry("q0"))

    def descriptions(self, captions, cfg, mode):
        cfg = mode_config(cfg, mode)
        prov = providers()
        return descriptions_for(self.item(), prepare_video(captions, cfg, prov), cfg, prov.client)

    def test_degenerate_config_yields_identical_summaries(self):
        # no pruning, single scale, question-conditioned reads: the repository
        # path degenerates to exactly the chunk-based baseline
        cfg = BuildConfig(chunk_schedule=[4], grouping_ratio=0.0, question_conditioning=True)
        captions = make_caption_set(12)
        lang = self.descriptions(captions, cfg, "langrepo")
        assert lang == self.descriptions(captions, cfg, "llovi-chunked")

    def test_pruned_repository_feeds_fewer_characters_to_qa(self):
        # with pruning on, the summaries entering the QA prompt are strictly
        # smaller than the chunk-based baseline's (mock summaries scale with
        # their input)
        cfg = BuildConfig(chunk_schedule=[4], grouping_ratio=0.5, question_conditioning=True)
        captions = make_caption_set(60)
        lang = self.descriptions(captions, cfg, "langrepo")
        chunked = self.descriptions(captions, cfg, "llovi-chunked")
        assert len(lang) == len(chunked) == 4
        assert sum(map(len, lang)) < sum(map(len, chunked))

    @pytest.mark.parametrize("mode, n_chunks", [("llovi-whole", 1), ("llovi-chunked", 3)])
    def test_baseline_prompts_are_raw_caption_chunks_plus_question(self, mode, n_chunks):
        # timestamps and pruning on, conditioning off: the baselines must
        # override all three
        cfg = BuildConfig(chunk_schedule=[3, 2], grouping_ratio=0.5, include_timestamps=True)
        captions = make_caption_set(12)
        items = [QaItem(**qa_entry(f"q{i}")) for i in range(3)]
        prov = Providers(
            client=CountingClient(MockBackend(), max_parallel=4),
            embedder=Embedder(EmbeddingProviderConfig(kind="hashed", dimension=16)),
        )
        evaluate(items, {"vid": captions}, cfg, mode, prov)
        expected = [
            render_summarize([c.text for c in chunk.descriptions], item.question)
            for item in items
            for chunk in chunk_captions(captions, n_chunks)
        ]
        assert sorted(prov.client.summarize_prompts) == sorted(expected)
        assert prov.client.requests["rephrase"] == 0


class TestReportFiles:
    def test_predictions_payload_shape(self):
        items = [QaItem(**qa_entry("q0"))]
        report = evaluate(
            items, {"vid": make_caption_set(6)}, BuildConfig(chunk_schedule=[2]), "langrepo", providers()
        )
        payload = predictions_payload(report.predictions)
        assert payload["predictions"][0]["question_id"] == "q0"
        assert payload["predictions"][0]["classifier"] == "loglik"
        assert "scores" in payload["predictions"][0]

    def test_written_files_parse(self, tmp_path):
        items = [QaItem(**qa_entry("q0"))]
        report = evaluate(
            items, {"vid": make_caption_set(6)}, BuildConfig(chunk_schedule=[2]), "langrepo", providers()
        )
        write_report(report, tmp_path / "report.json")
        write_predictions(report.predictions, tmp_path / "predictions.json")
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["overall_accuracy"] == report.overall_accuracy
        assert loaded == report_payload(report)
        preds = json.loads((tmp_path / "predictions.json").read_text())
        assert len(preds["predictions"]) == 1
