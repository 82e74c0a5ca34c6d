"""Caption loading, rate transforms, and temporal chunking, plus the one
reader every JSON input goes through.

A caption file is one JSON document per video (other keys are ignored):

    {"video_id": str, "duration_s": number,
     "captions": [{"id": str, "start_s": number, "end_s": number, "text": str}, ...]}

Chunking turns each caption into a RepoDescription of one span and one
occurrence and slices the descriptions into RepoEntry chunks, the record
every write of the repository takes and returns.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import EmptyInput, LangRepoError, MalformedFile, UnsupportedFactor

RATE_FACTORS = (0.5, 1.0, 2.0)
_BOUND_TYPES = frozenset((int, float))  # exactly, so no bool and no numpy scalar
_MAX = sys.float_info.max  # the finite floats are [-_MAX, _MAX], and an int in it widens to one
_SURROGATE = re.compile("[\ud800-\udfff]")


def utf8_encodable(text: str) -> bool:
    """Whether UTF-8 can encode text: it holds no surrogate code point."""
    return text.isascii() or not _SURROGATE.search(text)


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
    its annotation: str, bool and int exactly (a bool is no int; a str UTF-8
    can encode), float as a finite number (an int is widened), and list[X],
    dict[str, X], X | None and dataclasses nested. An absent key takes the
    field's default; an unknown key is an error if reject_unknown, else
    ignored. A wrong value, or a ValueError or LangRepoError a constructor
    raises, becomes error, whose message starts with where and names the
    field.

    Valid input is read by one function compiled per dataclass, as
    dataclasses compiles __init__: its code checks and builds every scalar
    and list inline, so there is no Python call per scalar or per list
    element. The failing field's path is worked out only after a check
    fails: raw is then walked again, field by field and element by element
    in the order decode reads them, to the first value that does not fit.
    A dataclass with a decode_shared class method is built through it,
    given a dict kept for that class through one decode, so that it may give
    back a record it built before.
    """
    try:
        return _converter(cls, reject_unknown)(raw, defaultdict(dict))
    except _FAULTS:
        path, fault = _first_misfit(cls, raw, reject_unknown)
    if isinstance(fault, _Misfit):
        problem, cause = fault.args[0], None
    elif isinstance(fault, (ValueError, LangRepoError)):
        problem, cause = f": {fault}", fault
    else:  # a KeyError a constructor raised
        raise fault
    raise error(f"{where}: {path.lstrip('.')}{problem}" if path else f"{where}{problem}") from cause


class _Misfit(Exception):
    """The problem of a value that does not fit its annotation, as the error message ends."""


# What a converter raises where a check fails: a misfit, a missing key, or a constructor's refusal.
_FAULTS = (_Misfit, KeyError, ValueError, LangRepoError)


_KINDS = {str: "a string", bool: "true or false", int: "an integer", float: "a finite number",
          list: "an array", dict: "an object"}


def _misfit(tp, value):
    """Raise the _Misfit of value, which does not fit the kind tp."""
    shown = "an array" if type(value) is list else "an object" if type(value) is dict else json.dumps(value)[:60]
    kind = "a string UTF-8 can encode" if tp is str and type(value) is str else _KINDS[tp]
    raise _Misfit(f" must be {kind}, got {shown}")


# For each scalar kind, the condition under which the JSON value in {x} is already its decoded value.
_AS_IS = {
    str: "type({x}) is str and ({x}.isascii() or not _surrogate({x}))",  # a lone surrogate can be neither saved nor sent
    bool: "type({x}) is bool",
    int: "type({x}) is int",
    float: "type({x}) is float and {x} - {x} == 0.0",  # nan and +-inf give nan
}
# The decoded value of a float that is not one already: an int is widened.
_WIDEN = "float({x}) if type({x}) is int and -_MAX <= {x} <= _MAX else _misfit(float, {x})"


def _emit(tp, x: str, lines: list[str], depth: int, reject_unknown: bool, env: dict) -> None:
    """Append to lines, depth levels in, statements that check the JSON value
    in variable x against tp and rebind x to the value decode gives for it,
    raising _Misfit, or what a constructor raises, where a check fails.
    Converters of nested dataclasses go into env."""
    origin, args = get_origin(tp), get_args(tp)
    pad = "    " * depth

    def add(*statements: str) -> None:
        lines.extend(pad + statement for statement in statements)

    if dataclasses.is_dataclass(tp):
        name = f"_{tp.__name__}_{id(tp):x}"
        env[name] = _converter(tp, reject_unknown)
        add(f"{x} = {name}({x}, memo)")
    elif tp in _AS_IS:
        fix = f"{x} = {_WIDEN.format(x=x)}" if tp is float else f"_misfit({tp.__name__}, {x})"
        add(f"if not ({_AS_IS[tp].format(x=x)}):", f"    {fix}")
    elif origin is UnionType and len(args) == 2 and args[1] is type(None):
        add(f"if {x} is not None:")
        _emit(args[0], x, lines, depth + 1, reject_unknown, env)
    elif origin is list and args[0] in _AS_IS:  # copied whole, unless a float must be widened
        item, y = args[0], x + "_"
        fix = (f"{x} = [{y} if {_AS_IS[float].format(x=y)} else {_WIDEN.format(x=y)} for {y} in {x}]"
               if item is float else f"_misfit({item.__name__}, {y})")
        add(f"if type({x}) is not list:", f"    _misfit(list, {x})", f"for {y} in {x}:",
            f"    if not ({_AS_IS[item].format(x=y)}):", f"        {fix}", "        break",
            "else:", f"    {x} = {x}[:]")
    elif origin is list or origin is dict and args[0] is str:
        name = origin.__name__
        add(f"if type({x}) is not {name}:", f"    _misfit({name}, {x})", f"{x}_out = {'[]' if origin is list else '{}'}")
        add(f"for {x}_ in {x}:" if origin is list else f"for {x}_key, {x}_ in {x}.items():")
        _emit(args[-1], x + "_", lines, depth + 1, reject_unknown, env)
        add(f"    {x}_out.append({x}_)" if origin is list else f"    {x}_out[{x}_key] = {x}_", f"{x} = {x}_out")
    else:
        raise TypeError(f"decode cannot read a value of type {tp!r}")


@lru_cache(maxsize=None)
def _fields(cls) -> tuple[tuple[str, object, object], ...]:
    """(name, annotation, None or a function giving the default) of each
    field of cls, in the constructor's parameter order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default_factory if f.default_factory is not dataclasses.MISSING
                  else None if f.default is dataclasses.MISSING else lambda value=f.default: value)
                 for f in dataclasses.fields(cls))


@lru_cache(maxsize=None)
def _converter(tp, reject_unknown: bool):
    """The function (value, memo) that checks and builds a value of type tp,
    compiled once per type; memo holds a dict per class for decode_shared."""
    env = {"_misfit": _misfit, "_surrogate": _SURROGATE.search, "_MAX": _MAX}
    lines = ["def convert(v, memo):"]
    if not dataclasses.is_dataclass(tp):
        _emit(tp, "v", lines, 1, reject_unknown, env)
        lines.append("    return v")
    else:
        lines += ["    if type(v) is not dict:", "        _misfit(dict, v)"]
        if reject_unknown:
            env.update(_names=frozenset(name for name, _, _ in _fields(tp)), _Misfit=_Misfit)
            lines += ["    if not _names.issuperset(v):",
                      "        raise _Misfit(f\" has unknown key(s): {', '.join(sorted(set(v) - _names))}\")"]
        for i, (name, annotation, default) in enumerate(_fields(tp)):
            if default is None:
                lines.append(f"    f{i} = v[{name!r}]")
                _emit(annotation, f"f{i}", lines, 1, reject_unknown, env)
            else:
                env[f"_default{i}"] = default
                lines += [f"    f{i} = v.get({name!r}, _absent)", f"    if f{i} is _absent:",
                          f"        f{i} = _default{i}()", "    else:"]
                _emit(annotation, f"f{i}", lines, 2, reject_unknown, env)
        fields = ", ".join(f"f{i}" for i in range(len(_fields(tp))))
        env.update(_cls=tp, _absent=dataclasses.MISSING, _make=getattr(tp, "decode_shared", None))
        lines.append(f"    return _make(memo[_cls], {fields})" if env["_make"] else f"    return _cls({fields})")
    exec(compile("\n".join(lines) + "\n", f"<decode {getattr(tp, '__name__', tp)}>", "exec"), env)
    return env["convert"]


def _first_misfit(tp, value, reject_unknown: bool) -> tuple[str, Exception] | None:
    """(path, exception) of the first value in value that does not fit tp,
    in the order decode reads them, or None if value fits."""
    try:
        _converter(tp, reject_unknown)(value, defaultdict(dict))
        return None
    except _FAULTS as exc:
        fault = exc  # value's own, unless a part of it is found below
    origin, args = get_origin(tp), get_args(tp)
    if dataclasses.is_dataclass(tp):
        names = {name for name, _, _ in _fields(tp)}
        if type(value) is dict and not (reject_unknown and not names.issuperset(value)):
            for name, annotation, default in _fields(tp):
                if name in value:
                    found = _first_misfit(annotation, value[name], reject_unknown)
                    if found:
                        return f".{name}{found[0]}", found[1]
                elif default is None:
                    return f".{name}", _Misfit(" is missing")
    elif origin is UnionType and value is not None:
        return _first_misfit(args[0], value, reject_unknown)
    elif origin in (list, dict) and type(value) is origin:
        for at, element in enumerate(value) if origin is list else value.items():
            found = _first_misfit(args[-1], element, reject_unknown)
            if found:
                return f"[{at if origin is list else json.dumps(at)}]{found[0]}", found[1]
    return "", fault


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


@dataclass(slots=True)
class RepoDescription:
    """One stored description: text, founding time spans, merge count.
    A write pass that does not merge it keeps this same record in the next scale: treat it as read-only."""

    text: str
    timestamps: list[list[float]]
    occurrences: int = 1

    def __post_init__(self) -> None:
        # Exactly the values load reads back, so that whatever save writes loads.
        if type(self.text) is not str or not self.text:
            raise ValueError(f"description text must be non-empty and a string, got {self.text!r}")
        if not utf8_encodable(self.text):
            raise ValueError(f"description text must be UTF-8 encodable, got {self.text!r}")
        if type(self.occurrences) is not int or self.occurrences < 1:
            raise ValueError(f"occurrences must be >= 1 and an integer, got {self.occurrences!r}")
        # Spans that already hold floats are kept; any other are rebuilt, an int widened, as load reads them back.
        floats = type(self.timestamps) is list
        spans = self.timestamps if floats else list(self.timestamps)
        ordered, last_s, last_e = True, -_MAX, -_MAX
        for span in spans:
            s, e = span
            if type(s) not in _BOUND_TYPES or type(e) not in _BOUND_TYPES or not -_MAX <= s <= e <= _MAX:  # nan fails too
                raise ValueError(f"invalid span [{s!r}, {e!r}]: bounds must be finite numbers, the end not before the start")
            if type(s) is not float or type(e) is not float or type(span) is not list:
                floats, s, e = False, float(s), float(e)
            if s < last_s or s == last_s and e < last_e:
                ordered = False
            last_s, last_e = s, e
        if not ordered:
            raise ValueError("timestamps must be sorted by start")
        if not floats:
            self.timestamps = [[float(s), float(e)] for s, e in spans]

    @classmethod
    def decode_shared(cls, built: dict, text: str, timestamps: list[list[float]], occurrences: int) -> RepoDescription:
        """The record in built that saves as these fields would, else a new
        one put there: decode builds descriptions so, with one built per
        document, and load, like build, holds a description that several
        scales keep as one record. A cheap key (text, occurrences, span
        count, first start, last end) finds the record and equal spans
        confirm it; as 0.0 == -0.0, spans that may hold a zero (the first
        start is not above zero) must also match in repr. A description
        whose cheap key is another's is keyed by its spans' repr instead."""
        try:
            key = (text, occurrences, len(timestamps), timestamps[0][0], timestamps[-1][-1])
        except IndexError:  # no span, or an empty one, which the constructor refuses
            key = (text, occurrences)
        first = built.get(key)
        if first is None:
            first = built[key] = cls(text, timestamps, occurrences)
        elif first.timestamps != timestamps or not (
            not timestamps or timestamps[0][0] > 0 or repr(first.timestamps) == repr(timestamps)
        ):
            key = (text, occurrences, repr(timestamps))
            first = built.get(key)
            if first is None:
                first = built[key] = cls(text, timestamps, occurrences)
        return first

    @property
    def earliest_s(self) -> float:
        return self.timestamps[0][0]


@dataclass
class RepoEntry:
    """A contiguous slice of one scale's descriptions: a chunk before its
    write, the stored entry after it. Its scale is the index of the list in
    Repository.scales that holds it."""

    chunk_index: int
    descriptions: list[RepoDescription]

    def __post_init__(self) -> None:
        if type(self.chunk_index) is not int:
            raise ValueError(f"chunk_index must be an integer, got {self.chunk_index!r}")


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


def chunk_items(items: list[RepoDescription], n: int) -> list[RepoEntry]:
    """Split an ordered, non-empty description list into at most ``n`` contiguous chunks."""
    chunks = []
    pos = 0
    for index, size in enumerate(split_counts(len(items), n)):
        chunks.append(RepoEntry(chunk_index=index, descriptions=items[pos : pos + size]))
        pos += size
    return chunks


def chunk_captions(captions: CaptionSet, n: int) -> list[RepoEntry]:
    """Split a caption set into ``n`` non-overlapping temporal chunks of
    descriptions, one per caption.

    Chunks are near-equal in caption count; when the count does not divide
    evenly the earliest chunks take the extra caption. Fewer than n chunks
    come back when the video has fewer than n captions.
    """
    return chunk_items([RepoDescription(c.text, [[c.start_s, c.end_s]]) for c in captions.captions], n)


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
