"""The textual repository: iterative write with pruning and rephrasing,
re-chunking across scales, multi-scale read, and canonical persistence.

One write pass takes the chunks of one scale in three steps. Plan, on the
calling thread: group the most redundant descriptions of every chunk, with
one embedding call for the whole pass. Rephrase: one fan-out of LLM calls,
one per chunk that has groups, each rewriting every group of its chunk as
a single concise sentence. Assemble: store the result together with merged
timestamps and an occurrence counter. Passes repeat over increasingly
longer chunks (one repository scale per pass): the first over the
captions, which chunking turns into one-span descriptions, each later one
over the previous scale's descriptions. Reads summarize each stored entry
separately.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  bench/tracing.py swaps this name
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from . import grouping
from .embed import Embedder, similarity_matrix
from .errors import ConfigError, MalformedFile, VersionMismatch, require_min
from .ingest import _BOUND_TYPES, _MAX, CaptionSet, RepoDescription, RepoEntry, chunk_captions, chunk_items, decode, read_json_object
from .ingest import utf8_encodable
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
    provenance: dict[str, str]

    def __post_init__(self) -> None:
        # The rules load applies, as in RepoDescription, so that whatever save writes loads.
        if type(self.video_id) is not str:
            raise ValueError(f"video_id must be a string, got {self.video_id!r}")
        if type(self.duration_s) not in _BOUND_TYPES or not -_MAX <= self.duration_s <= _MAX:  # nan fails too
            raise ValueError(f"duration_s must be a finite number, got {self.duration_s!r}")
        self.duration_s = float(self.duration_s)
        if type(self.provenance) is not dict or not all(type(k) is str and type(v) is str for k, v in self.provenance.items()):
            raise ValueError(f"provenance must map strings to strings, got {self.provenance!r}")
        if not all(map(utf8_encodable, [self.video_id, *self.provenance, *self.provenance.values()])):
            raise ValueError(f"video_id and provenance must be UTF-8 encodable, got {self.video_id!r}, {self.provenance!r}")


def merge_spans(spans: list[list[float]]) -> list[list[float]]:
    """Sorted union of time spans; overlapping or touching spans coalesce."""
    merged: list[list[float]] = []
    for s, e in sorted(spans):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return merged


def _rephrase_groups(
    member_texts: list[list[str]], cfg: BuildConfig, client: LlmClient
) -> list[str]:
    """One LLM call rewriting all groups of a chunk, re-asked up to
    cfg.rephrase_retries times while its reply does not parse.

    Then every group falls back to its member texts joined by "; ", so a
    build never aborts on formatting noise.
    """
    group_lines = [GROUP_MEMBER_SEPARATOR.join(texts) for texts in member_texts]
    req = GenerationRequest(render_rephrase(group_lines), REPHRASE_MAX_TOKENS, purpose_tag="rephrase")
    rephrased, _ = client.generate_parsed(
        req, lambda reply: parse_rephrase_output(reply, len(group_lines)), cfg.rephrase_retries + 1
    )
    if rephrased is None:
        return [FALLBACK_JOINER.join(texts) for texts in member_texts]
    return rephrased


def write_to_repo(
    chunks: list[RepoEntry], cfg: BuildConfig, embedder: Embedder, client: LlmClient,
    *, vectors: dict[str, np.ndarray] | None = None,
) -> list[RepoEntry]:
    """One write pass: prune every chunk of a scale and store the surviving
    descriptions, one entry per chunk, in order.

    Plan, on the calling thread: split every chunk, embed the texts of the
    chunks that group in one encode call, then match and group. Rephrase:
    one client.map sends the request of every chunk that has groups.
    Assemble: grouped members get one rephrased text with the union of
    their time spans and summed occurrences; everything else passes through
    verbatim. Each entry holds exactly p - floor(x * |src|) descriptions,
    ordered by earliest timestamp.

    vectors maps texts to their unit vectors: only texts it lacks are
    embedded, and they are added to it.
    """
    sizes = [len(chunk.descriptions) for chunk in chunks]
    if not all(sizes):
        raise ValueError("every chunk must be non-empty")
    known = {} if vectors is None else vectors

    splits = {i: grouping.split(p, cfg.dst_ratio) for i, p in enumerate(sizes) if p >= 2}
    splits = {i: sp for i, sp in splits.items() if int(cfg.grouping_ratio * len(sp.src_indices)) >= 1}
    missing = list(dict.fromkeys(d.text for i in splits for d in chunks[i].descriptions if d.text not in known))
    if missing:
        known.update(zip(missing, embedder.encode(missing)))
    plans = [([], range(p)) for p in sizes]  # (groups, pass-through positions); all pass by default
    for i, sp in splits.items():
        matrix = np.stack([known[d.text] for d in chunks[i].descriptions])
        sim = similarity_matrix(matrix[list(sp.src_indices)], matrix[list(sp.dst_indices)])
        plans[i] = grouping.match_and_group(sim, sp, cfg.grouping_ratio)

    member_texts = {
        i: [[chunks[i].descriptions[m].text for m in grp.members()] for grp in groups]
        for i, (groups, _) in enumerate(plans) if groups
    }
    fan_out = client.map(lambda i: _rephrase_groups(member_texts[i], cfg, client), member_texts)
    rephrased = dict(zip(member_texts, fan_out))

    entries = []
    for i, (chunk, (groups, pass_through)) in enumerate(zip(chunks, plans)):
        items = chunk.descriptions
        keyed: list[tuple[tuple[float, int], RepoDescription]] = []
        for grp, text in zip(groups, rephrased.get(i, ())):
            members = grp.members()
            spans = merge_spans([span for m in members for span in items[m].timestamps])
            occurrences = sum(items[m].occurrences for m in members)
            keyed.append(((spans[0][0], members[0]), RepoDescription(text, spans, occurrences)))
        keyed.extend(((items[index].earliest_s, index), items[index]) for index in pass_through)
        keyed.sort(key=lambda pair: pair[0])
        entries.append(RepoEntry(chunk_index=chunk.chunk_index, descriptions=[d for _, d in keyed]))
    return entries


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
        entries = write_to_repo(chunks, cfg, embedder, client, vectors=vectors)
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
    """Canonical serialization: sorted keys, 2-space indent, non-ASCII
    unescaped, trailing newline. Re-serializing a loaded repository
    reproduces the bytes exactly.

    The result equals, byte for byte, json.dumps(payload, sort_keys=True,
    indent=2, ensure_ascii=False) + "\\n", where payload holds
    schema_version and every field of the repository, with each dataclass
    as the object of its fields.
    With an indent json.dumps encodes in pure Python, so the scales are
    written here at their fixed depths: text through json's C string
    escaper, numbers through repr, which for the exact ints and finite
    floats that RepoDescription and RepoEntry admit is json's own form.
    """
    def array(items: list[str], indent: int) -> str:  # encoded items; the array's own line is indent spaces in
        pad = "\n" + " " * indent
        return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]" if items else "[]"

    def description(d: RepoDescription) -> str:
        # array(spans, 12) written out: most of the bytes are at this level
        spans = ",\n              ".join([f"[\n                {s!r},\n                {e!r}\n              ]" for s, e in d.timestamps])
        timestamps = f"[\n              {spans}\n            ]" if spans else "[]"
        return (f'{{\n            "occurrences": {d.occurrences!r},\n            "text": {encode_basestring(d.text)},\n'
                f'            "timestamps": {timestamps}\n          }}')

    def entry(e: RepoEntry) -> str:
        descriptions = array(list(map(description, e.descriptions)), 8)
        return f'{{\n        "chunk_index": {e.chunk_index!r},\n        "descriptions": {descriptions}\n      }}'

    head = {"schema_version": SCHEMA_VERSION, "video_id": repo.video_id, "duration_s": repo.duration_s,
            "config": vars(repo.config), "provenance": repo.provenance}
    # A JSON string holds no raw newline, so every newline json.dumps writes is layout, indented one level more here.
    members = {key: json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", "\n  ")
               for key, value in head.items()}
    members["scales"] = array([array(list(map(entry, scale)), 4) for scale in repo.scales], 2)
    return "{\n" + ",\n".join(f"  {encode_basestring(key)}: {members[key]}" for key in sorted(members)) + "\n}\n"


def save(repo: Repository, path: str | Path) -> None:
    Path(path).write_text(to_canonical_json(repo), encoding="utf-8")


def load(path: str | Path) -> Repository:
    """The saved repository. Each description it holds at several scales is
    read as one record those scales share, as in the repository build made
    (RepoDescription.decode_shared)."""
    path = Path(path)
    raw = read_json_object(path, MalformedFile)
    version = raw.pop("schema_version", None)
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 compare equal to 1
        raise VersionMismatch(f"{path}: schema_version {version!r}, supported {SCHEMA_VERSION}")
    return decode(Repository, raw, str(path), MalformedFile, reject_unknown=True)
