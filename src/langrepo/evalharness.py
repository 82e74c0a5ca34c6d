"""Dataset loading and pipeline evaluation.

Three modes, each run as: build a repository per video, read it (once per
video, or per question when reads are conditioned on it), classify. A
video's questions are answered as soon as that video is ready, ahead of
later videos' work.

* ``langrepo``: the repository the build config describes.
* ``llovi-whole`` / ``llovi-chunked``: the LLoVi baselines, as unpruned
  single-scale repositories of one chunk / chunk_schedule[0] chunks, read
  with the question (see mode_config).

Accuracy is computed against answer_index; items without ground truth get
predictions but are excluded from accuracy and counted separately. The
input-length study is the same evaluation at another caption rate: each
caption set passed through ingest.transform_rate (``eval --rate-factor``).
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  bench/tracing.py swaps this name
from dataclasses import dataclass, field, replace
from pathlib import Path

from .embed import Embedder
from .errors import EmptyInput, MalformedFile, MissingCaptions, OptionCountError
from .ingest import chunk_captions  # noqa: F401  bench/tracing.py wraps this name
from .ingest import CaptionSet, decode, read_json_object
from .llm import PURPOSES, LlmClient
from .prompts import LOGLIK_FORMATS
from .prompts import render_summarize  # noqa: F401  bench/tracing.py wraps this name
from .repository import BuildConfig, Repository, build, read_from_repo
from .vqa import CLASSIFIERS, Prediction, QaItem, answer_generative, answer_loglik

logger = logging.getLogger(__name__)

MODES = ("langrepo", "llovi-whole", "llovi-chunked")


@dataclass
class Providers:
    """The external services one evaluation run talks to."""

    client: LlmClient
    embedder: Embedder


@dataclass
class EvalReport:
    mode: str
    overall_accuracy: float
    per_split: dict[str, float]
    n_items: int
    n_unscored: int
    ledger_snapshot: dict[str, int]
    predictions: list[Prediction] = field(default_factory=list)


@dataclass
class _QaDataset:
    items: list[QaItem]


def load_qa_dataset(path: str | Path) -> list[QaItem]:
    """Load the neutral QA schema: {"items": [{question_id, video_id,
    question, options, answer_index?, split_tag?}, ...]}. Keys other than
    these are ignored. Raises EmptyInput when there are no items and
    MalformedFile when a question_id repeats, naming both positions."""
    path = Path(path)
    raw = read_json_object(path, MalformedFile)
    items = decode(_QaDataset, raw, str(path), MalformedFile, reject_unknown=False).items
    if not items:
        raise EmptyInput(f"{path}: items is empty")
    first_at: dict[str, int] = {}
    for i, item in enumerate(items):
        j = first_at.setdefault(item.question_id, i)
        if j != i:
            raise MalformedFile(f"{path}: items[{i}] repeats question_id {item.question_id!r} of items[{j}]")
        if not item.generative_compatible:
            logger.info("item %s has %d options; loglik only", item.question_id, len(item.options))
    return items


def mode_config(cfg: BuildConfig, mode: str) -> BuildConfig:
    """The build and read settings that run mode through the repository.

    langrepo uses cfg as it is. The baselines keep one scale of
    chunk_schedule[0] chunks (one chunk for llovi-whole), prune nothing,
    render each caption's text alone and read with the question.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "langrepo":
        return cfg
    n_chunks = 1 if mode == "llovi-whole" else cfg.chunk_schedule[0]
    return replace(
        cfg,
        chunk_schedule=[n_chunks],
        grouping_ratio=0.0,
        include_timestamps=False,
        question_conditioning=True,
    )


def prepare_video(
    captions: CaptionSet, cfg: BuildConfig, providers: Providers
) -> tuple[Repository, list[str] | None]:
    """The question-independent work on one video: its repository and, when
    reads are not conditioned on the question, the read every question shares."""
    repo = build(captions, cfg, providers.embedder, providers.client)
    if cfg.question_conditioning:
        return repo, None
    return repo, read_from_repo(repo, cfg, None, providers.client)


def descriptions_for(
    item: QaItem,
    prepared: tuple[Repository, list[str] | None],
    cfg: BuildConfig,
    client: LlmClient,
) -> list[str]:
    """The description texts a classifier sees for one item, given
    prepare_video's result for the item's video."""
    repo, shared_read = prepared
    if shared_read is not None:
        return shared_read
    return read_from_repo(repo, cfg, item.question, client)


def _ledger_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before.get(k, 0) for k in after}


def check_classifier(items: list[QaItem], classifier: str, loglik_format: str) -> None:
    """Reject an unknown classifier or loglik format, and items the
    classifier cannot answer, before any backend call."""
    if classifier not in CLASSIFIERS:
        raise ValueError(f"classifier must be one of {CLASSIFIERS}, got {classifier!r}")
    if loglik_format not in LOGLIK_FORMATS:
        raise ValueError(f"loglik_format must be one of {LOGLIK_FORMATS}, got {loglik_format!r}")
    if classifier == "generative":
        unfit = [it.question_id for it in items if not it.generative_compatible]
        if unfit:
            raise OptionCountError(f"generative classifier needs exactly 5 options; items {', '.join(unfit)} differ")


def answer(
    item: QaItem, descriptions: list[str], duration_s: float, classifier: str, loglik_format: str, client: LlmClient
) -> Prediction:
    """Classify item from the descriptions read for it."""
    if classifier == "generative":
        return answer_generative(descriptions, item, duration_s, client)
    return answer_loglik(descriptions, item, loglik_format, client)


def evaluate(
    items: list[QaItem],
    captions_by_video: dict[str, CaptionSet],
    cfg: BuildConfig,
    mode: str,
    providers: Providers,
    classifier: str = "loglik",
    loglik_format: str = "plain",
) -> EvalReport:
    """Run the chosen mode over all items and score against ground truth;
    predictions come back aligned with the input items. Each video is
    prepared once, and its questions are answered as soon as it is ready,
    ahead of later videos' builds and reads. If a video fails, the others
    still run to the end; then the first error by video position is raised."""
    cfg = mode_config(cfg, mode)
    check_classifier(items, classifier, loglik_format)
    missing = sorted({it.video_id for it in items if it.video_id not in captions_by_video})
    if missing:
        raise MissingCaptions(f"no captions for video(s): {', '.join(missing)}")

    client = providers.client
    before = client.ledger.snapshot()

    # One task per video prepares it, then maps its own questions: their keys
    # sit under the video's, so they run ahead of later videos' builds and reads.
    positions: dict[str, list[int]] = {}
    for i, item in enumerate(items):
        positions.setdefault(item.video_id, []).append(i)

    def run_video(vid: str) -> list[Prediction]:
        captions = captions_by_video[vid]
        prepared = prepare_video(captions, cfg, providers)

        def predict(i: int) -> Prediction:
            descriptions = descriptions_for(items[i], prepared, cfg, client)
            return answer(items[i], descriptions, captions.duration_s, classifier, loglik_format, client)

        answered = client.map(predict, positions[vid])
        logger.info("video %s: %d question(s) answered", vid, len(answered))
        return answered

    predictions: list = [None] * len(items)
    for at, answered in zip(positions.values(), client.map(run_video, list(positions))):
        for i, prediction in zip(at, answered):
            predictions[i] = prediction

    correct = 0
    n_scored = 0
    n_unscored = 0
    split_totals: dict[str, list[int]] = {}
    for item, prediction in zip(items, predictions):
        if item.answer_index is None:
            n_unscored += 1
            continue
        n_scored += 1
        hit = int(prediction.choice_index == item.answer_index)
        correct += hit
        if item.split_tag:
            tally = split_totals.setdefault(item.split_tag, [0, 0])
            tally[0] += hit
            tally[1] += 1

    return EvalReport(
        mode=mode,
        overall_accuracy=correct / n_scored if n_scored else 0.0,
        per_split={tag: hits / total for tag, (hits, total) in sorted(split_totals.items())},
        n_items=n_scored,
        n_unscored=n_unscored,
        ledger_snapshot=_ledger_delta(before, client.ledger.snapshot()),
        predictions=predictions,
    )


def predictions_payload(predictions: list[Prediction]) -> dict:
    out = []
    for p in predictions:
        row: dict = {
            "question_id": p.question_id,
            "choice_index": p.choice_index,
            "classifier": p.classifier,
        }
        if p.per_option_scores is not None:
            row["scores"] = p.per_option_scores
        if p.fallback:
            row["fallback"] = True
        out.append(row)
    return {"predictions": out}


def write_predictions(predictions: list[Prediction], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(predictions_payload(predictions), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def report_payload(report: EvalReport) -> dict:
    return {
        "mode": report.mode,
        "overall_accuracy": report.overall_accuracy,
        "per_split": report.per_split,
        "n_items": report.n_items,
        "n_unscored": report.n_unscored,
        "ledger": report.ledger_snapshot,
    }


def write_report(report: EvalReport, path: str | Path, **extra) -> None:
    Path(path).write_text(
        json.dumps({**report_payload(report), **extra}, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def format_report(report: EvalReport) -> str:
    """Human-readable accuracy table."""
    lines = [
        f"mode: {report.mode}",
        f"items scored: {report.n_items} (unscored: {report.n_unscored})",
        f"overall accuracy: {report.overall_accuracy:.4f}",
    ]
    if report.per_split:
        lines.append("per split:")
        width = max(len(tag) for tag in report.per_split)
        for tag, acc in report.per_split.items():
            lines.append(f"  {tag.ljust(width)}  {acc:.4f}")
    lines.append(format_ledger(report.ledger_snapshot))
    return "\n".join(lines)


def format_ledger(ledger: dict[str, int]) -> str:
    """One line of backend calls per purpose plus cache hits."""
    calls = ", ".join(f"{k}={ledger.get(k, 0)}" for k in PURPOSES)
    return f"llm calls: {calls}, cache_hits={ledger.get('cache_hits', 0)}"
