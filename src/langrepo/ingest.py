"""Caption loading, rate transforms, and temporal chunking.

A caption file is one JSON document per video:

    {"video_id": str, "duration_s": number,
     "captions": [{"id": str, "start_s": number, "end_s": number, "text": str}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyInput, MalformedFile, UnsupportedFactor

RATE_FACTORS = (0.5, 1.0, 2.0)


def read_json_object(path: Path, shape: str = "top level must be an object") -> dict:
    """Parse the JSON object in path. MalformedFile if the file cannot be read
    or parsed, or (its message ending in shape) if it holds no object."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedFile(f"{path}: {shape}")
    return raw


@dataclass(frozen=True)
class Caption:
    """One timestamped text unit from a captioner; the atomic input."""

    id: str
    video_id: str
    start_s: float
    end_s: float
    text: str


@dataclass
class CaptionSet:
    """All captions of one video, sorted by (start_s, id)."""

    video_id: str
    duration_s: float
    captions: list[Caption] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.captions:
            raise EmptyInput(f"caption set for {self.video_id!r} is empty")
        seen: set[str] = set()
        prev_start = None
        for cap in self.captions:
            if not cap.text:
                raise MalformedFile(f"caption {cap.id!r} has empty text")
            if cap.end_s < cap.start_s:
                raise MalformedFile(f"caption {cap.id!r} ends before it starts")
            if cap.start_s < 0:
                raise MalformedFile(f"caption {cap.id!r} has negative start")
            if cap.id in seen:
                raise MalformedFile(f"duplicate caption id {cap.id!r}")
            seen.add(cap.id)
            if prev_start is not None and cap.start_s < prev_start:
                raise MalformedFile("captions not sorted by start_s")
            prev_start = cap.start_s
        max_end = max(cap.end_s for cap in self.captions)
        if self.duration_s < max_end:
            raise MalformedFile(
                f"duration {self.duration_s} shorter than last caption end {max_end}"
            )


@dataclass
class Chunk:
    """Contiguous slice of a video's descriptions; the unit of one write.

    Items are Caption objects at scale 0 and RepoDescription objects at
    every later scale.
    """

    index: int
    items: list


def load_captions(path: str | Path) -> CaptionSet:
    """Load and validate one caption file.

    Raises MalformedFile on syntax or schema problems and EmptyInput when
    the file holds zero captions.
    """
    path = Path(path)
    raw = read_json_object(path)
    try:
        video_id = raw["video_id"]
        duration_s = float(raw["duration_s"])
        entries = raw["captions"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: missing or invalid field: {exc}") from exc
    if not isinstance(entries, list):
        raise MalformedFile(f"{path}: 'captions' must be an array")
    if not entries:
        raise EmptyInput(f"{path} contains no captions")

    captions = []
    for i, entry in enumerate(entries):
        try:
            captions.append(
                Caption(
                    id=str(entry["id"]),
                    video_id=str(video_id),
                    start_s=float(entry["start_s"]),
                    end_s=float(entry["end_s"]),
                    text=str(entry["text"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFile(f"{path}: caption #{i}: {exc}") from exc
    captions.sort(key=lambda c: (c.start_s, c.id))
    try:
        return CaptionSet(video_id=str(video_id), duration_s=duration_s, captions=captions)
    except MalformedFile as exc:
        raise MalformedFile(f"{path}: {exc}") from exc


def split_counts(total: int, n: int) -> list[int]:
    """Sizes of ``n`` near-equal parts of ``total`` items, remainder first.

    n is clamped to total, so every part is non-empty and sizes differ by
    at most one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n = min(n, total)
    base, rem = divmod(total, n)
    return [base + 1] * rem + [base] * (n - rem)


def chunk_items(items: list, n: int) -> list[Chunk]:
    """Split any ordered item list into at most ``n`` contiguous chunks."""
    chunks = []
    pos = 0
    for index, size in enumerate(split_counts(len(items), n)):
        chunks.append(Chunk(index=index, items=items[pos : pos + size]))
        pos += size
    return chunks


def chunk_captions(captions: CaptionSet, n: int) -> list[Chunk]:
    """Split a caption set into ``n`` non-overlapping temporal chunks.

    Chunks are near-equal in caption count; when the count does not divide
    evenly the earliest chunks take the extra caption. Fewer than n chunks
    come back when the video has fewer than n captions.
    """
    return chunk_items(captions.captions, n)


def transform_rate(captions: CaptionSet, factor: float) -> CaptionSet:
    """Thin out or thicken a caption stream for the input-length study.

    0.5 keeps even-indexed captions (stride 2 from index 0), 1.0 is the
    identity, and 2.0 duplicates each caption in place with a suffixed id.
    """
    if factor not in RATE_FACTORS:
        raise UnsupportedFactor(f"factor must be one of {RATE_FACTORS}, got {factor}")
    if factor == 1.0:
        return captions
    if factor == 0.5:
        kept = captions.captions[0::2]
        return CaptionSet(captions.video_id, captions.duration_s, kept)
    doubled = []
    for cap in captions.captions:
        doubled.append(cap)
        doubled.append(
            Caption(
                id=f"{cap.id}-dup",
                video_id=cap.video_id,
                start_s=cap.start_s,
                end_s=cap.end_s,
                text=cap.text,
            )
        )
    return CaptionSet(captions.video_id, captions.duration_s, doubled)
