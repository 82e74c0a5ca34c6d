"""The textual repository: iterative write with pruning and rephrasing,
re-chunking across scales, multi-scale read, and canonical persistence.

One write takes a chunk of descriptions, groups the most redundant ones,
rewrites every group as a single concise sentence through one LLM call,
and stores the result together with merged timestamps and an occurrence
counter. Writes repeat over increasingly longer chunks (one repository
scale per pass); reads summarize each stored entry separately.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  bench/tracing.py swaps this name
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import grouping
from .embed import Embedder, similarity_matrix
from .errors import ConfigError, CountMismatch, FormatError, MalformedFile, VersionMismatch, require_int
from .ingest import Caption, CaptionSet, Chunk, chunk_captions, chunk_items, read_json_object
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
class RepoDescription:
    """One stored description: text, founding time spans, merge count."""

    text: str
    timestamps: list[list[float]]
    occurrences: int = 1

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("description text must be non-empty")
        if self.occurrences < 1:
            raise ValueError("occurrences must be >= 1")
        spans = [[float(s), float(e)] for s, e in self.timestamps]
        for s, e in spans:
            if e < s:
                raise ValueError(f"invalid span [{s}, {e}]")
        if spans != sorted(spans):
            raise ValueError("timestamps must be sorted by start")
        self.timestamps = spans

    @property
    def earliest_s(self) -> float:
        return self.timestamps[0][0]


@dataclass
class RepoEntry:
    """All descriptions one write produced for one chunk at one scale."""

    scale: int
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
        # Integers only: bool is an int subclass, and int() would round 4.7
        # down silently.
        if not isinstance(self.chunk_schedule, (list, tuple)) or any(
            type(n) is not int for n in self.chunk_schedule
        ):
            raise ConfigError(f"chunk_schedule must be a list of integers, got {self.chunk_schedule!r}")
        self.chunk_schedule = list(self.chunk_schedule)
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
            require_int("read_scales", self.read_scales, 1)
        require_int("rephrase_retries", self.rephrase_retries, 0)


@dataclass
class Repository:
    """All scales of entries plus the config and provenance that made them."""

    video_id: str
    duration_s: float
    scales: list[list[RepoEntry]]
    config: BuildConfig
    provenance: dict[str, str] = field(default_factory=dict)


def _as_description(item) -> RepoDescription:
    if isinstance(item, RepoDescription):
        return item
    if isinstance(item, Caption):
        return RepoDescription(item.text, [[item.start_s, item.end_s]], 1)
    raise TypeError(f"chunk items must be Caption or RepoDescription, got {type(item)!r}")


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
    chunk: Chunk, cfg: BuildConfig, embedder: Embedder, client: LlmClient, scale: int = 0,
    *, vectors: dict[int, tuple[RepoDescription, np.ndarray]] | None = None,
) -> RepoEntry:
    """Prune one chunk and store the surviving descriptions.

    Grouped members get one rephrased text with the union of their time
    spans and summed occurrences; everything else passes through verbatim.
    The entry holds exactly p - floor(x * |src|) descriptions, ordered by
    earliest timestamp.

    vectors carries unit vectors from one write to the next, keyed by the
    id of a description and holding it, so that the id cannot be reused:
    the chunk's items are taken out of it and are not embedded again, and
    the passed-through descriptions go back in with their vectors.
    """
    if not chunk.items:
        raise ValueError("chunk must be non-empty")
    items = [_as_description(it) for it in chunk.items]
    p = len(items)
    known = [None] * p if vectors is None else [vectors.pop(id(it), (it, None))[1] for it in items]

    groups: list[grouping.CaptionGroup] = []
    pass_through = list(range(p))
    if p >= 2:
        split_result = grouping.split(p, cfg.dst_ratio)
        if int(cfg.grouping_ratio * len(split_result.src_indices)) >= 1:
            missing = [i for i, vec in enumerate(known) if vec is None]
            if missing:
                for i, vec in zip(missing, embedder.encode([items[i].text for i in missing])):
                    known[i] = vec
            matrix = np.stack(known)
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
    for index in pass_through:
        item = items[index]
        keyed.append(((item.earliest_s, index), item))
        if vectors is not None and known[index] is not None:
            vectors[id(item)] = (item, known[index])

    keyed.sort(key=lambda pair: pair[0])
    return RepoEntry(scale=scale, chunk_index=chunk.index, descriptions=[d for _, d in keyed])


def re_chunk(entries: list[RepoEntry], m: int) -> list[Chunk]:
    """Concatenate a scale's descriptions in temporal order and re-split
    into m chunks (clamped to the description count)."""
    if not entries:
        raise ValueError("entries must be non-empty")
    ordered = sorted(entries, key=lambda e: e.chunk_index)
    flat = [d for entry in ordered for d in entry.descriptions]
    return chunk_items(flat, m)


def build(
    captions: CaptionSet,
    cfg: BuildConfig,
    embedder: Embedder,
    client: LlmClient,
    captioner: str = "unknown",
) -> Repository:
    """Run every write pass of the schedule and assemble the repository."""
    scales: list[list[RepoEntry]] = []
    # The vectors of one scale's passed-through descriptions, which are
    # items of the next scale; chunks of a scale hold disjoint items.
    vectors: dict[int, tuple[RepoDescription, np.ndarray]] = {}
    chunks = chunk_captions(captions, cfg.chunk_schedule[0])
    for scale, n_chunks in enumerate(cfg.chunk_schedule):
        if scale > 0:
            chunks = re_chunk(scales[-1], n_chunks)
        entries = client.map(
            lambda ch: write_to_repo(ch, cfg, embedder, client, scale, vectors=vectors), chunks
        )
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
    payload = {
        "schema_version": SCHEMA_VERSION,
        "video_id": repo.video_id,
        "duration_s": float(repo.duration_s),
        "config": asdict(repo.config),
        "provenance": dict(repo.provenance),
        "scales": [
            [
                {
                    "chunk_index": entry.chunk_index,
                    "descriptions": [
                        {
                            "text": d.text,
                            "timestamps": d.timestamps,
                            "occurrences": d.occurrences,
                        }
                        for d in entry.descriptions
                    ],
                }
                for entry in scale
            ]
            for scale in repo.scales
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save(repo: Repository, path: str | Path) -> None:
    Path(path).write_text(to_canonical_json(repo), encoding="utf-8")


def load(path: str | Path) -> Repository:
    path = Path(path)
    raw = read_json_object(path)
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise VersionMismatch(f"{path}: schema_version {version!r}, supported {SCHEMA_VERSION}")
    try:
        # An unknown key raises TypeError, reported as MalformedFile below.
        config = BuildConfig(**raw["config"])
        scales = []
        for scale_index, entries in enumerate(raw["scales"]):
            scale_entries = []
            for entry in entries:
                descriptions = [
                    RepoDescription(
                        text=d["text"],
                        timestamps=d["timestamps"],
                        occurrences=int(d["occurrences"]),
                    )
                    for d in entry["descriptions"]
                ]
                scale_entries.append(
                    RepoEntry(
                        scale=scale_index,
                        chunk_index=int(entry["chunk_index"]),
                        descriptions=descriptions,
                    )
                )
            scales.append(scale_entries)
        return Repository(
            video_id=str(raw["video_id"]),
            duration_s=float(raw["duration_s"]),
            scales=scales,
            config=config,
            provenance={str(k): str(v) for k, v in raw.get("provenance", {}).items()},
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: bad repository structure: {exc}") from exc
