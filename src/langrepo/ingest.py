"""Caption loading, rate transforms, and temporal chunking, plus the one
reader every JSON input goes through.

A caption file is one JSON document per video (other keys are ignored):

    {"video_id": str, "duration_s": number,
     "captions": [{"id": str, "start_s": number, "end_s": number, "text": str}, ...]}

Chunking turns each caption into a RepoDescription of one span and one
occurrence, the item type every write of the repository takes.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import EmptyInput, LangRepoError, MalformedFile, UnsupportedFactor

RATE_FACTORS = (0.5, 1.0, 2.0)


def read_json_object(path: Path, error: type[LangRepoError]) -> dict:
    """Parse the JSON object in path; error if the file cannot be read or
    parsed, or holds no object."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{path}: top level must be an object")
    return raw


def decode(cls, raw, where: str, error: type[LangRepoError], *, reject_unknown: bool):
    """Build cls from the parsed JSON value raw, checking each value against
    its annotation: str, bool and int exactly (a bool is no int), float as a
    finite number (an int is widened), and list[X], dict[str, X], X | None
    and dataclasses nested. An absent key takes the field's default; an
    unknown key is an error if reject_unknown, else ignored. A wrong value,
    or a ValueError or LangRepoError a constructor raises, becomes error,
    whose message starts with where and names the field."""
    try:
        return _converter(cls, reject_unknown)(raw)
    except _Misfit as exc:
        path, problem = exc.args
        raise error(f"{where}: {path.lstrip('.')}{problem}" if path else f"{where}{problem}") from exc.__cause__


class _Misfit(Exception):
    """(path, problem) of a value that does not fit; the path grows as the error leaves each value."""


def _wrong(kind: str, value) -> _Misfit:
    shown = "an array" if type(value) is list else "an object" if type(value) is dict else json.dumps(value)[:60]
    return _Misfit("", f" must be {kind}, got {shown}")


_KINDS = {str: "a string", bool: "true or false", int: "an integer", float: "a finite number"}


@lru_cache(maxsize=None)
def _converter(tp, reject_unknown: bool):
    """The function that checks and builds a value of type tp, made once per type."""
    origin, args = get_origin(tp), get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _object_converter(tp, reject_unknown)
    if tp in _KINDS:
        def convert(value):
            if type(value) is tp and (tp is not float or value - value == 0.0):  # nan and +-inf give nan
                return value
            if tp is float and type(value) is int and abs(value) <= sys.float_info.max:
                return float(value)
            raise _wrong(_KINDS[tp], value)
    elif origin is UnionType and len(args) == 2 and args[1] is type(None):
        inner = _converter(args[0], reject_unknown)
        return lambda value: None if value is None else inner(value)
    elif origin is list or origin is dict and args[0] is str:
        item, kind = _converter(args[-1], reject_unknown), "an array" if origin is list else "an object"

        def convert(value):
            if type(value) is not origin:
                raise _wrong(kind, value)
            out = []
            try:
                for element in value if origin is list else value.values():
                    out.append(item(element))
            except _Misfit as exc:
                at = len(out) if origin is list else json.dumps(list(value)[len(out)])
                raise _Misfit(f"[{at}]{exc.args[0]}", exc.args[1]) from exc.__cause__
            return out if origin is list else dict(zip(value, out))
    else:
        raise TypeError(f"decode cannot read a value of type {tp!r}")
    return convert


def _object_converter(cls, reject_unknown: bool):
    hints = get_type_hints(cls)
    # (key, converter, None or a function giving the default), in the constructor's parameter order
    fields = [
        (f.name, _converter(hints[f.name], reject_unknown),
         f.default_factory if f.default_factory is not dataclasses.MISSING
         else None if f.default is dataclasses.MISSING else lambda value=f.default: value)
        for f in dataclasses.fields(cls)
    ]
    names = frozenset(name for name, _, _ in fields)

    def convert(value):
        if type(value) is not dict:
            raise _wrong("an object", value)
        if reject_unknown and not names.issuperset(value):
            raise _Misfit("", f" has unknown key(s): {', '.join(sorted(set(value) - names))}")
        args = []
        for name, item, default in fields:
            if name in value:
                try:
                    args.append(item(value[name]))
                except _Misfit as exc:
                    raise _Misfit(f".{name}{exc.args[0]}", exc.args[1]) from exc.__cause__
            elif default is None:
                raise _Misfit("." + name, " is missing")
            else:
                args.append(default())
        try:
            return cls(*args)
        except (ValueError, LangRepoError) as exc:
            raise _Misfit("", f": {exc}") from exc

    return convert


@dataclass(frozen=True)
class Caption:
    """One timestamped text unit from a captioner; the atomic input."""

    id: str
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
        for s, e in self.timestamps:
            if e < s:
                raise ValueError(f"invalid span [{s}, {e}]")
        if self.timestamps != sorted(self.timestamps):
            raise ValueError("timestamps must be sorted by start")

    @property
    def earliest_s(self) -> float:
        return self.timestamps[0][0]


@dataclass
class Chunk:
    """Contiguous slice of a video's descriptions; the unit of one write."""

    index: int
    items: list[RepoDescription]


@dataclass
class _CaptionFile:
    video_id: str
    duration_s: float
    captions: list[Caption]


def load_captions(path: str | Path) -> CaptionSet:
    """Load and validate one caption file.

    Raises MalformedFile on syntax or schema problems and EmptyInput when
    the file holds zero captions.
    """
    path = Path(path)
    doc = decode(_CaptionFile, read_json_object(path, MalformedFile), str(path), MalformedFile, reject_unknown=False)
    captions = sorted(doc.captions, key=lambda c: (c.start_s, c.id))
    try:
        return CaptionSet(video_id=doc.video_id, duration_s=doc.duration_s, captions=captions)
    except (MalformedFile, EmptyInput) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def split_counts(total: int, n: int) -> list[int]:
    """Sizes of ``n`` near-equal parts of ``total`` items, remainder first.

    n is clamped to total, so every part is non-empty and sizes differ by
    at most one.
    """
    if total < 1 or n < 1:
        raise ValueError(f"cannot split {total} items into {n} parts")
    n = min(n, total)
    base, rem = divmod(total, n)
    return [base + 1] * rem + [base] * (n - rem)


def chunk_items(items: list[RepoDescription], n: int) -> list[Chunk]:
    """Split an ordered, non-empty description list into at most ``n`` contiguous chunks."""
    chunks = []
    pos = 0
    for index, size in enumerate(split_counts(len(items), n)):
        chunks.append(Chunk(index=index, items=items[pos : pos + size]))
        pos += size
    return chunks


def chunk_captions(captions: CaptionSet, n: int) -> list[Chunk]:
    """Split a caption set into ``n`` non-overlapping temporal chunks of
    descriptions, one per caption.

    Chunks are near-equal in caption count; when the count does not divide
    evenly the earliest chunks take the extra caption. Fewer than n chunks
    come back when the video has fewer than n captions.
    """
    return chunk_items([RepoDescription(c.text, [[float(c.start_s), float(c.end_s)]]) for c in captions.captions], n)


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
    doubled = [c for cap in captions.captions for c in (cap, dataclasses.replace(cap, id=f"{cap.id}-dup"))]
    return CaptionSet(captions.video_id, captions.duration_s, doubled)
