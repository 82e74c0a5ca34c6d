"""Independent reference implementations used as test oracles.

Pure-Python loops only; deliberately kept free of the library's matching
code so the two routes can disagree.
"""

import dataclasses
import json
import math
import re
import sys
from functools import lru_cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from langrepo.errors import LangRepoError


def reference_match(sim_rows, src_ids, dst_ids, x):
    """Exhaustive matcher: every source scans every destination.

    Returns ({dst_id: [(src_id, similarity), ...]}, pass_through) with group
    members in ascending source order. Selection: the floor(x * |src|)
    sources with the highest best-match similarity, ties to the lower
    source id; argmax ties to the lower destination column.
    """
    n_src = len(src_ids)
    best = []
    for r in range(n_src):
        best_col = 0
        best_sim = sim_rows[r][0]
        for c in range(1, len(dst_ids)):
            if sim_rows[r][c] > best_sim:
                best_sim = sim_rows[r][c]
                best_col = c
        best.append((best_sim, best_col))

    g = math.floor(x * n_src)
    order = sorted(range(n_src), key=lambda r: (-best[r][0], src_ids[r]))
    chosen = set(order[:g])

    groups = {}
    for r in sorted(chosen, key=lambda r: src_ids[r]):
        dst = dst_ids[best[r][1]]
        groups.setdefault(dst, []).append((src_ids[r], best[r][0]))

    pass_through = sorted(
        [src_ids[r] for r in range(n_src) if r not in chosen]
        + [d for d in dst_ids if d not in groups]
    )
    return groups, pass_through


def reference_canonical_json(repo):
    """A saved repository's bytes as json.dumps writes them: the payload
    to_canonical_json serialized with json.dumps, whose indented encoder is
    pure Python."""
    scales = [
        [{"chunk_index": entry.chunk_index, "descriptions": list(map(dataclasses.asdict, entry.descriptions))} for entry in scale]
        for scale in repo.scales
    ]
    payload = {"schema_version": 1, "video_id": repo.video_id, "duration_s": float(repo.duration_s),
               "config": vars(repo.config), "provenance": repo.provenance, "scales": scales}
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# The JSON reader as it stood before it was compiled per dataclass: one
# converter function per type, called per value, that names the failing
# field as the error leaves each value.

_MAX = sys.float_info.max
_SURROGATE = re.compile("[\ud800-\udfff]")


def reference_decode(cls, raw, where, error, *, reject_unknown):
    """ingest.decode's contract, read value by value: the decoded value, or
    error with the message decode must give."""
    try:
        return _converter(cls, reject_unknown)(raw)
    except _Misfit as exc:
        path, problem = exc.args
        raise error(f"{where}: {path.lstrip('.')}{problem}" if path else f"{where}{problem}") from exc.__cause__


class _Misfit(Exception):
    """(path, problem) of a value that does not fit; the path grows as the error leaves each value."""


def _wrong(kind, value):
    shown = "an array" if type(value) is list else "an object" if type(value) is dict else json.dumps(value)[:60]
    return _Misfit("", f" must be {kind}, got {shown}")


_KINDS = {str: "a string", bool: "true or false", int: "an integer", float: "a finite number"}


@lru_cache(maxsize=None)
def _converter(tp, reject_unknown):
    origin, args = get_origin(tp), get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _object_converter(tp, reject_unknown)
    if tp in _KINDS:
        def convert(value):
            if type(value) is tp and (tp is not float or value - value == 0.0):
                if tp is not str or value.isascii() or not _SURROGATE.search(value):
                    return value
            if tp is float and type(value) is int and abs(value) <= _MAX:
                return float(value)
            raise _wrong("a string UTF-8 can encode" if tp is str and type(value) is str else _KINDS[tp], value)
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


def _object_converter(cls, reject_unknown):
    hints = get_type_hints(cls)
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
