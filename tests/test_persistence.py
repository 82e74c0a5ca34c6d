"""The saved repository's bytes: to_canonical_json against json.dumps, the
values a saved repository may hold, and the persistence layer's timings.

`pytest --benchmark-only` prints the timings of to_canonical_json and load
on a 600-caption repository and of load_captions on a 600-caption file the
bench writes, and after them the bytes a loaded repository holds; the plain
suite runs them briefly, asserting nothing about time.
"""

import dataclasses
import importlib.util
import math
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langrepo.embed import Embedder, EmbeddingProviderConfig
from langrepo.ingest import RepoDescription, RepoEntry, load_captions
from langrepo.llm import LlmClient, MockBackend
from langrepo.repository import BuildConfig, Repository, build, load, save, to_canonical_json

from conftest import make_caption_set
from reference import reference_canonical_json

# Characters JSON must escape or that sit outside the BMP, mixed into full-Unicode text.
AWKWARD = '"\\/\n\r\t\b\f\x00\x1f\x7f\x85\u2028\u2029\ufeff\U0001f600\U0010ffff é漢'
# Every code point but the surrogates, which UTF-8 cannot encode and the records refuse.
texts = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters(exclude_categories=["Cs"])), min_size=1, max_size=12)
bounds = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.2345e22, 3.0, -7.0, 1e300]),
    st.integers(-(2**70), 2**70),
)
big_ints = st.one_of(st.integers(1, 2**80), st.sampled_from([1, 2**31, 2**63 + 1]))


@st.composite
def descriptions(draw):
    points = sorted(draw(st.lists(bounds, max_size=6)))
    spans = [list(pair) for pair in zip(points[0::2], points[1::2])]
    return RepoDescription(draw(texts), spans, draw(big_ints))


entries = st.builds(RepoEntry, chunk_index=st.integers(-(2**70), 2**80), descriptions=st.lists(descriptions(), max_size=3))
repositories = st.builds(
    Repository,
    video_id=st.text(),
    duration_s=st.floats(allow_nan=False, allow_infinity=False),
    scales=st.lists(st.lists(entries, max_size=3), max_size=3),
    config=st.builds(BuildConfig, chunk_schedule=st.sampled_from([[4, 3, 2], [1], [9, 2]]),
                     question_conditioning=st.booleans(), read_scales=st.none() | st.integers(1, 3)),
    provenance=st.dictionaries(texts, texts, max_size=3),
)


@settings(deadline=None)
@given(repo=repositories)
def test_writer_matches_json_dumps(repo):
    assert to_canonical_json(repo) == reference_canonical_json(repo)


def test_empty_lists_at_every_level():
    cfg = BuildConfig()
    for scales in ([], [[]], [[RepoEntry(0, [])]], [[RepoEntry(0, [RepoDescription("x", [])])]]):
        repo = Repository("v", 1.0, scales, cfg, {})
        assert to_canonical_json(repo) == reference_canonical_json(repo)


def escape_heavy_repository() -> Repository:
    spans = [[-0.0, 5e-324], [0.0, 1e16], [2.5, 1.2345e22]]
    texts = ['He said "stop" \\ twice', "tab\there\nnewline\r\x00\x1f\x7f", "é 漢字 \u2028\u2029 \U0001f600\ufeff"]
    scale = [RepoEntry(i, [RepoDescription(t, spans[: i + 1], 2**40 + i) for t in texts]) for i in range(3)]
    return Repository("vid \"é\" \U0001f600", 120.0, [scale, []], BuildConfig(), {"captioner": 'a "b"\\c', "é": "\n"})


def test_escape_heavy_save_load_save_is_byte_stable(tmp_path):
    repo = escape_heavy_repository()
    path = tmp_path / "repo.json"
    save(repo, path)
    first = path.read_bytes()
    assert first == reference_canonical_json(repo).encode("utf-8")
    loaded = load(path)
    assert loaded == repo
    save(loaded, path)
    assert path.read_bytes() == first


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "repo.json"


savable_repositories = st.builds(dataclasses.replace, repositories, duration_s=bounds)


@settings(deadline=None)
@given(repo=savable_repositories)
def test_save_load_save_round_trips(repo, round_trip_path):
    # Integer and float bounds, any finite duration, full-Unicode provenance.
    save(repo, round_trip_path)
    first = round_trip_path.read_bytes()
    loaded = load(round_trip_path)
    assert loaded == repo
    save(loaded, round_trip_path)
    assert round_trip_path.read_bytes() == first


def identity_pattern(repo: Repository) -> list[int]:
    """For each description in saved order, the position of the first one that is the same object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(d), n) for n, d in enumerate(d for s in repo.scales for e in s for d in e.descriptions)]


def test_load_shares_each_pass_through_description_as_build_does(repository_600, tmp_path):
    path = tmp_path / "repo.json"
    save(repository_600, path)
    loaded = load(path)
    built_pattern = identity_pattern(repository_600)
    assert len(set(built_pattern)) < len(built_pattern)  # the write passes let descriptions through
    assert identity_pattern(loaded) == built_pattern


def test_load_shares_only_descriptions_that_save_alike(tmp_path):
    # 0.0 == -0.0, and a cheap key that misses a middle span clashes: neither may be shared.
    zero, signed_zero = RepoDescription("a", [[0.0, 1.0]]), RepoDescription("a", [[-0.0, 1.0]])
    gap, no_gap = RepoDescription("b", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), RepoDescription("b", [[1.0, 2.0], [2.5, 4.0], [5.0, 6.0]])
    scales = [[RepoEntry(0, [zero, gap])], [RepoEntry(0, [signed_zero, no_gap, zero, gap]), RepoEntry(1, [no_gap, signed_zero])]]
    repo = Repository("v", 6.0, scales, BuildConfig(), {})
    path = tmp_path / "repo.json"
    save(repo, path)
    loaded = load(path)
    assert loaded == repo
    assert identity_pattern(loaded) == identity_pattern(repo) == [0, 1, 2, 3, 0, 1, 3, 2]
    save(loaded, path)
    assert path.read_bytes() == to_canonical_json(repo).encode("utf-8")


def test_description_has_no_instance_dict():
    description = RepoDescription("x", [[0.0, 1.0]])
    assert not hasattr(description, "__dict__")
    with pytest.raises(AttributeError):
        description.extra = 1


def test_integer_bounds_and_duration_are_stored_as_floats():
    repo = Repository("v", 3, [[RepoEntry(0, [RepoDescription("x", [[1, 2]])])]], BuildConfig(), {})
    assert type(repo.duration_s) is float
    assert [type(b) for b in repo.scales[0][0].descriptions[0].timestamps[0]] == [float, float]


def test_float_spans_are_kept_and_others_rebuilt():
    spans = [[0.0, 1.0], [2.0, 3.0]]
    assert RepoDescription("x", spans).timestamps is spans
    for given_spans in ([[0, 1.0], [2.0, 3.0]], [[0.0, 1.0], (2.0, 3.0)], ([0.0, 1.0], [2.0, 3.0])):
        timestamps = RepoDescription("x", given_spans).timestamps
        assert timestamps == spans and type(timestamps) is list and {type(span) for span in timestamps} == {list}
    # The order is checked on the widened bounds: these two starts are one float.
    assert RepoDescription("x", [[2**53 + 1, 2**53 + 1], [2.0**53, 2.0**53]]).timestamps == [[2.0**53, 2.0**53]] * 2


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("duration_s", math.nan, "duration_s must be a finite number, got nan"),
        ("duration_s", math.inf, "duration_s must be a finite number, got inf"),
        ("duration_s", -math.inf, "duration_s must be a finite number, got -inf"),
        ("duration_s", True, "duration_s must be a finite number, got True"),
        ("duration_s", 10**400, "duration_s must be a finite number, got 1000"),
        ("video_id", 5, "video_id must be a string, got 5"),
        ("provenance", {5: "x"}, "provenance must map strings to strings, got {5: 'x'}"),
        ("provenance", {"captioner": 5}, "provenance must map strings to strings, got {'captioner': 5}"),
    ],
    ids=["nan", "inf", "-inf", "true", "huge-int", "int-video-id", "int-key", "int-value"],
)
def test_repository_rejects_what_load_refuses(field, value, message):
    fields = {"video_id": "v", "duration_s": 1.0, "scales": [], "config": BuildConfig(), "provenance": {}}
    with pytest.raises(ValueError, match=re.escape(message)):
        Repository(**{**fields, field: value})


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_non_finite_span_bound_rejected(bound, position):
    span = [0.0, 1.0]
    span[position] = bound
    with pytest.raises(ValueError, match=rf"invalid span \[{span[0]!r}, {span[1]!r}\]: bounds must be finite numbers"):
        RepoDescription("x", [span])


@pytest.mark.parametrize("bound", [True, "1.0", None])
def test_non_number_span_bound_rejected(bound):
    with pytest.raises(ValueError, match=rf"invalid span \[0.0, {bound!r}\]: bounds must be finite numbers"):
        RepoDescription("x", [[0.0, bound]])


@pytest.mark.parametrize("occurrences", [True, 2.0])
def test_non_integer_occurrences_rejected(occurrences):
    with pytest.raises(ValueError, match=rf"occurrences must be >= 1 and an integer, got {occurrences!r}"):
        RepoDescription("x", [[0.0, 1.0]], occurrences)


@pytest.mark.parametrize("text", ["C opens \ud800", "\udfff", "a\ud83d\ude00"])
def test_text_utf8_cannot_encode_is_rejected(text):
    with pytest.raises(ValueError, match="description text must be UTF-8 encodable"):
        RepoDescription(text, [[0.0, 1.0]])
    fields = {"video_id": "v", "duration_s": 1.0, "scales": [], "config": BuildConfig(), "provenance": {}}
    for field, value in [("video_id", text), ("provenance", {text: "x"}), ("provenance", {"captioner": text})]:
        with pytest.raises(ValueError, match="video_id and provenance must be UTF-8 encodable"):
            Repository(**{**fields, field: value})


def test_non_string_text_and_non_integer_chunk_index_rejected():
    with pytest.raises(ValueError, match="description text must be non-empty and a string, got 5"):
        RepoDescription(5, [[0.0, 1.0]])
    with pytest.raises(ValueError, match="chunk_index must be an integer, got True"):
        RepoEntry(True, [])


@pytest.fixture(scope="module")
def repository_600():
    cfg = BuildConfig(question_conditioning=True)
    embedder = Embedder(EmbeddingProviderConfig(kind="hashed", dimension=32))
    return build(make_caption_set(600), cfg, embedder, LlmClient(MockBackend(), max_parallel=1))


@pytest.mark.benchmark(group="persistence", max_time=0.3)
def test_bench_to_canonical_json(benchmark, repository_600):
    assert benchmark(to_canonical_json, repository_600) == reference_canonical_json(repository_600)


def retained_bytes(fn, *args) -> int:
    """The bytes that fn(*args) allocates and still holds when it returns, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841  held while its memory is counted
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.benchmark(group="persistence", max_time=0.3)
def test_bench_load(benchmark, repository_600, tmp_path):
    path = tmp_path / "repo.json"
    save(repository_600, path)
    assert benchmark(load, path) == repository_600
    benchmark.extra_info["retained_bytes"] = retained_bytes(load, path)


@pytest.fixture(scope="module")
def bench_captions_path(tmp_path_factory):
    """The first caption file bench/gen.py writes for seed 1: 600 one-second captions."""
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    path = tmp_path_factory.mktemp("captions") / "vid00.json"
    gen.write_json(path, gen.caption_set(random.Random(1), "vid00", 600))
    return path


@pytest.mark.benchmark(group="persistence", max_time=0.3)
def test_bench_load_captions(benchmark, bench_captions_path):
    assert len(benchmark(load_captions, bench_captions_path).captions) == 600
