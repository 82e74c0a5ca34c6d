"""The textual repository: iterative write with pruning and rephrasing,
re-chunking across scales, multi-scale read, and canonical persistence.

One write takes a chunk of descriptions, groups the most redundant ones,
rewrites every group as a single concise sentence through one LLM call,
and stores the result together with merged timestamps and an occurrence
counter. Writes repeat over increasingly longer chunks (one repository
scale per pass): the first over the captions, which chunking turns into
one-span descriptions, each later one over the previous scale's
descriptions. Reads summarize each stored entry separately.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  bench/tracing.py swaps this name
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import grouping
from .embed import Embedder, similarity_matrix
from .errors import ConfigError, CountMismatch, FormatError, MalformedFile, VersionMismatch, require_min
from .ingest import CaptionSet, Chunk, RepoDescription, chunk_captions, chunk_items, decode, read_json_object
from .llm import GenerationRequest, LlmClient
from .prompts import (
    GROUP_MEMBER_SEPARATOR,
    parse_rephrase_output,
    render_rephrase,
    render_summarize,
    template_version,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
FALLBACK_JOINER = "; "
REPHRASE_MAX_TOKENS = 768
SUMMARIZE_MAX_TOKENS = 512


@dataclass
class RepoEntry:
    """All descriptions one write produced for one chunk; its scale is the
    index of the list in Repository.scales that holds it."""

    chunk_index: int
    descriptions: list[RepoDescription]


@dataclass
class BuildConfig:
    """Knobs of the iterative build and of reading.

    chunk_schedule gives the chunk count of each write pass and must be
    strictly decreasing, e.g. [4, 3, 2]. read_scales=None reads all scales;
    an integer N reads the N coarsest (the coarsest is always included).
    """

    chunk_schedule: list[int] = field(default_factory=lambda: [4, 3, 2])
    grouping_ratio: float = 0.5
    dst_ratio: float = 0.25
    read_scales: int | None = None
    include_timestamps: bool = False
    include_occurrences: bool = True
    question_conditioning: bool = False
    rephrase_retries: int = 2

    def __post_init__(self) -> None:
        if not self.chunk_schedule:
            raise ConfigError("chunk_schedule must be non-empty")
        if any(n < 1 for n in self.chunk_schedule):
            raise ConfigError("chunk counts must be positive")
        for a, b in zip(self.chunk_schedule, self.chunk_schedule[1:]):
            if b >= a:
                raise ConfigError(f"chunk_schedule must be strictly decreasing, got {self.chunk_schedule}")
        if not 0.0 <= self.grouping_ratio <= 1.0:
            raise ConfigError("grouping_ratio must be in [0, 1]")
        if not 0.0 < self.dst_ratio < 1.0:
            raise ConfigError("dst_ratio must be in (0, 1)")
        if self.read_scales is not None:
            require_min("read_scales", self.read_scales, 1)
        require_min("rephrase_retries", self.rephrase_retries, 0)


@dataclass
class Repository:
    """All scales of entries plus the config and provenance that made them."""

    video_id: str
    duration_s: float
    scales: list[list[RepoEntry]]
    config: BuildConfig
    provenance: dict[str, str] = field(default_factory=dict)


def merge_spans(spans: list[list[float]]) -> list[list[float]]:
    """Sorted union of time spans; overlapping or touching spans coalesce."""
    merged: list[list[float]] = []
    for s, e in sorted([float(a), float(b)] for a, b in spans):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return merged


def _rephrase_groups(
    member_texts: list[list[str]], cfg: BuildConfig, client: LlmClient
) -> list[str]:
    """One LLM call rewriting all groups of a chunk; retry then fall back.

    After cfg.rephrase_retries failed parses every group falls back to its
    member texts joined by "; " so a build never aborts on formatting noise.
    """
    group_lines = [GROUP_MEMBER_SEPARATOR.join(texts) for texts in member_texts]
    prompt = render_rephrase(group_lines)
    last_error: Exception | None = None
    for attempt in range(cfg.rephrase_retries + 1):
        reply = client.generate(
            GenerationRequest(
                prompt=prompt,
                max_new_tokens=REPHRASE_MAX_TOKENS,
                purpose_tag="rephrase",
                attempt=attempt,
            )
        )
        try:
            return parse_rephrase_output(reply, len(group_lines))
        except (CountMismatch, FormatError) as exc:
            last_error = exc
    logger.warning(
        "rephrase output unparseable after %d attempts (%s); joining members verbatim",
        cfg.rephrase_retries + 1,
        last_error,
    )
    return [FALLBACK_JOINER.join(texts) for texts in member_texts]


def write_to_repo(
    chunk: Chunk, cfg: BuildConfig, embedder: Embedder, client: LlmClient,
    *, vectors: dict[str, np.ndarray] | None = None,
) -> RepoEntry:
    """Prune one chunk and store the surviving descriptions.

    Grouped members get one rephrased text with the union of their time
    spans and summed occurrences; everything else passes through verbatim.
    The entry holds exactly p - floor(x * |src|) descriptions, ordered by
    earliest timestamp.

    vectors maps texts to their unit vectors: only texts it lacks are
    embedded, and they are added to it. Two writes sharing it at the same
    moment may both embed a text they share; both get the same vector.
    """
    items = chunk.items
    if not items:
        raise ValueError("chunk must be non-empty")
    p = len(items)
    known = {} if vectors is None else vectors

    groups: list[grouping.CaptionGroup] = []
    pass_through = list(range(p))
    if p >= 2:
        split_result = grouping.split(p, cfg.dst_ratio)
        if int(cfg.grouping_ratio * len(split_result.src_indices)) >= 1:
            missing = list(dict.fromkeys(d.text for d in items if d.text not in known))
            if missing:
                known.update(zip(missing, embedder.encode(missing)))
            matrix = np.stack([known[d.text] for d in items])
            sim = similarity_matrix(
                matrix[list(split_result.src_indices)],
                matrix[list(split_result.dst_indices)],
            )
            groups, pass_through = grouping.match_and_group(sim, split_result, cfg.grouping_ratio)

    keyed: list[tuple[tuple[float, int], RepoDescription]] = []
    if groups:
        member_texts = [[items[m].text for m in grp.members()] for grp in groups]
        rephrased = _rephrase_groups(member_texts, cfg, client)
        for grp, text in zip(groups, rephrased):
            members = grp.members()
            spans = merge_spans([span for m in members for span in items[m].timestamps])
            occurrences = sum(items[m].occurrences for m in members)
            keyed.append(((spans[0][0], members[0]), RepoDescription(text, spans, occurrences)))
    keyed.extend(((items[index].earliest_s, index), items[index]) for index in pass_through)

    keyed.sort(key=lambda pair: pair[0])
    return RepoEntry(chunk_index=chunk.index, descriptions=[d for _, d in keyed])


def build(
    captions: CaptionSet,
    cfg: BuildConfig,
    embedder: Embedder,
    client: LlmClient,
    captioner: str = "unknown",
) -> Repository:
    """Run every write pass of the schedule and assemble the repository."""
    scales: list[list[RepoEntry]] = []
    vectors: dict[str, np.ndarray] = {}  # unit vectors by text, of the scale being written only
    chunks = chunk_captions(captions, cfg.chunk_schedule[0])
    for scale, n_chunks in enumerate(cfg.chunk_schedule):
        if scale > 0:
            items = [d for entry in scales[-1] for d in entry.descriptions]
            vectors = {d.text: vectors[d.text] for d in items if d.text in vectors}
            chunks = chunk_items(items, n_chunks)
        entries = client.map(lambda ch: write_to_repo(ch, cfg, embedder, client, vectors=vectors), chunks)
        logger.info(
            "scale %d: %d chunks -> %d descriptions",
            scale,
            len(entries),
            sum(len(e.descriptions) for e in entries),
        )
        scales.append(entries)
    provenance = {
        "captioner": captioner,
        "template_version": template_version(),
        "backend_id": client.backend_id,
    }
    return Repository(
        video_id=captions.video_id,
        duration_s=captions.duration_s,
        scales=scales,
        config=cfg,
        provenance=provenance,
    )


def render_description_line(d: RepoDescription, cfg: BuildConfig) -> str:
    """"[0.0s-1.0s, 4.0s-5.0s] text (x3)" with parts gated by the config.

    The occurrence suffix is omitted for single-occurrence descriptions
    even when the flag is on.
    """
    parts = []
    if cfg.include_timestamps:
        spans = ", ".join(f"{s:.1f}s-{e:.1f}s" for s, e in d.timestamps)
        parts.append(f"[{spans}]")
    parts.append(d.text)
    if cfg.include_occurrences and d.occurrences > 1:
        parts.append(f"(x{d.occurrences})")
    return " ".join(parts)


def read_from_repo(
    repo: Repository, cfg: BuildConfig, question: str | None, client: LlmClient
) -> list[str]:
    """Summarize every entry of the selected scales, one LLM call each.

    The coarsest cfg.read_scales scales are read (all when None); output
    order is scale ascending, then chunk index ascending. The question is
    included as conditioning only when cfg.question_conditioning is set.
    """
    available = len(repo.scales)
    take = available if cfg.read_scales is None else max(1, min(cfg.read_scales, available))
    condition_on = question if cfg.question_conditioning else None

    jobs = [entry for scale in repo.scales[available - take :] for entry in scale]

    def summarize(entry: RepoEntry) -> str:
        lines = [render_description_line(d, cfg) for d in entry.descriptions]
        return client.generate(
            GenerationRequest(
                prompt=render_summarize(lines, condition_on),
                max_new_tokens=SUMMARIZE_MAX_TOKENS,
                purpose_tag="summarize",
            )
        )

    return client.map(summarize, jobs)


def to_canonical_json(repo: Repository) -> str:
    """Canonical serialization: sorted keys, fixed layout, trailing newline.

    Re-serializing a loaded repository reproduces the bytes exactly.
    """
    # vars() of these dataclasses holds exactly their fields, as _SavedRepository reads them back.
    scales = [
        [{"chunk_index": entry.chunk_index, "descriptions": list(map(vars, entry.descriptions))} for entry in scale]
        for scale in repo.scales
    ]
    payload = {"schema_version": SCHEMA_VERSION, "video_id": repo.video_id, "duration_s": float(repo.duration_s),
               "config": vars(repo.config), "provenance": repo.provenance, "scales": scales}
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save(repo: Repository, path: str | Path) -> None:
    Path(path).write_text(to_canonical_json(repo), encoding="utf-8")


@dataclass
class _SavedRepository:
    schema_version: int
    video_id: str
    duration_s: float
    config: BuildConfig
    provenance: dict[str, str]
    scales: list[list[RepoEntry]]


def load(path: str | Path) -> Repository:
    path = Path(path)
    raw = read_json_object(path, MalformedFile)
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise VersionMismatch(f"{path}: schema_version {version!r}, supported {SCHEMA_VERSION}")
    saved = decode(_SavedRepository, raw, str(path), MalformedFile, reject_unknown=True)
    return Repository(saved.video_id, saved.duration_s, saved.scales, saved.config, saved.provenance)
