"""Every JSON input is read by ingest.decode: a value of the wrong JSON type
raises the file's error naming the file and the field, and valid documents
load as before.

The table test takes a valid document of each kind, walks every field (the
first element of each array), and puts each JSON type the field does not
take in its place. The JSON types a field takes follow from its value in
the valid document: a string, true/false, an integer, an array or an object
takes only that type; a number written with a fraction point takes any
finite number; NULLABLE fields also take null.
"""

import copy
import json
import math
import random
import sys
from pathlib import Path

import pytest

from langrepo.cli import main
from langrepo.config import load_app_config
from langrepo.embed import Embedder, EmbeddingProviderConfig
from langrepo.errors import ConfigError, MalformedFile
from langrepo.evalharness import load_qa_dataset
from langrepo.ingest import load_captions
from langrepo.llm import LlmClient, MockBackend
from langrepo.repository import BuildConfig, build, load, save, to_canonical_json

from conftest import make_caption_set, write_caption_file

BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFIG = {
    "llm": {"kind": "mock", "endpoint": "http://x", "model": "m", "max_retries": 2,
            "backoff_s": 1.0, "timeout_s": 120.0},
    "embed": {"kind": "hashed", "location": "", "dimension": 16, "max_text_chars": 300,
              "auth_header": "Authorization", "timeout_s": 30.0, "max_retries": 2, "backoff_s": 1.0},
    "build": {"chunk_schedule": [3, 2], "grouping_ratio": 0.5, "dst_ratio": 0.25, "read_scales": 1,
              "include_timestamps": False, "include_occurrences": True, "question_conditioning": False,
              "rephrase_retries": 2},
    "cache_dir": "cache",
    "parallelism": 4,
    "classifier": "loglik",
    "loglik_format": "plain",
}

CAPTIONS = {
    "video_id": "vid",
    "duration_s": 4.0,
    "captions": [
        {"id": "c0", "start_s": 0.0, "end_s": 1.0, "text": "C opens the drawer"},
        {"id": "c1", "start_s": 1.0, "end_s": 2.0, "text": "C closes the drawer"},
    ],
}

QA = {
    "items": [
        {"question_id": "q0", "video_id": "vid", "question": "What does C open",
         "options": ["drawer", "door", "box", "bag", "lid"], "answer_index": 0, "split_tag": "descriptive"},
    ],
}

TABLE = {"C opens the drawer": [1.0, 0.0], "C closes the drawer": [0.0, 1.0]}


def saved_repository() -> dict:
    cfg = BuildConfig(chunk_schedule=[3, 2], read_scales=1)
    embedder = Embedder(EmbeddingProviderConfig(dimension=16))
    repo = build(make_caption_set(12), cfg, embedder, LlmClient(MockBackend()), captioner="test")
    return json.loads(to_canonical_json(repo))


NULLABLE = {("cache_dir",), ("build", "read_scales"), ("items", 0, "answer_index"),
            ("items", 0, "split_tag"), ("config", "read_scales")}

SUBSTITUTES = {
    "null": None, "bool": True, "int": 3, "float": 2.5, "string": "x",
    "array": [1], "object": {"k": 1}, "nan": math.nan,
}


def kinds_taken(value, path) -> set[str]:
    if isinstance(value, bool):
        taken = {"bool"}
    elif isinstance(value, int):
        taken = {"int"}
    elif isinstance(value, float):
        taken = {"int", "float"}
    elif isinstance(value, str):
        taken = {"string"}
    elif isinstance(value, list):
        taken = {"array"}
    else:
        taken = {"object"}
    return taken | {"null"} if path in NULLABLE else taken


def fields(value, path=()):
    """(path, value) of every field, descending into the first array element."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield (*path, key), inner
            yield from fields(inner, (*path, key))
    elif isinstance(value, list) and value:
        yield (*path, 0), value[0]
        yield from fields(value[0], (*path, 0))


def path_text(path, mappings) -> str:
    """The field as an error message names it: keys of objects read as
    dataclasses joined by dots, keys of mappings and indices in brackets."""
    out = ""
    for i, part in enumerate(path):
        if isinstance(part, int):
            out += f"[{part}]"
        elif path[:i] in mappings:
            out += f'["{part}"]'
        else:
            out += f".{part}" if out else part
    return out


def put(document, path, value):
    target = document
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value


def read_table(path):
    cfg = EmbeddingProviderConfig(kind="precomputed-file", location=str(path), dimension=2)
    return Embedder(cfg)


# name: (valid document, loader, error, paths left out, paths whose keys are mapping keys)
LOADERS = {
    "config": (CONFIG, load_app_config, ConfigError, set(), set()),
    "captions": (CAPTIONS, load_captions, MalformedFile, set(), set()),
    "qa": (QA, load_qa_dataset, MalformedFile, set(), set()),
    # A wrong schema_version is a VersionMismatch, checked in test_repository.
    "repository": (None, load, MalformedFile, {("schema_version",)}, {("provenance",)}),
    "embedding-table": (TABLE, read_table, MalformedFile, set(), {()}),
}


@pytest.mark.parametrize("name", list(LOADERS))
def test_every_wrong_json_type_names_the_file_and_field(tmp_path, name):
    document, loader, error, skipped, mappings = LOADERS[name]
    document = document if document is not None else saved_repository()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document))
    loader(path)  # the valid document itself loads
    misses = []
    for field_path, value in fields(document):
        if field_path in skipped:
            continue
        taken = kinds_taken(value, field_path)
        wrong = [kind for kind in SUBSTITUTES if kind not in taken and (kind != "nan" or taken & {"int", "float"})]
        for kind in wrong:
            bad = copy.deepcopy(document)
            put(bad, field_path, SUBSTITUTES[kind])
            path.write_text(json.dumps(bad))
            field = path_text(field_path, mappings)
            try:
                loader(path)
            except error as exc:
                if f"{name}.json" not in str(exc) or f"{field} must be" not in str(exc):
                    misses.append(f"{field} = {kind}: message {exc}")
            except Exception as exc:  # any other exception is the defect sought
                misses.append(f"{field} = {kind}: raised {type(exc).__name__}: {exc}")
            else:
                misses.append(f"{field} = {kind}: loaded")
            if name == "config":
                code = main(["build", "--captions", str(path), "--config", str(path), "--out", str(tmp_path / "r")])
                if code != 2:
                    misses.append(f"{field} = {kind}: langrepo build exited {code}")
    assert misses == []


def test_caption_entries_and_qa_items_with_extra_keys_load(tmp_path):
    captions = copy.deepcopy(CAPTIONS)
    captions["source"] = "narrator-v2"
    captions["captions"][0]["speaker"] = "C"
    path = tmp_path / "vid.json"
    path.write_text(json.dumps(captions))
    assert [c.id for c in load_captions(path).captions] == ["c0", "c1"]

    qa = copy.deepcopy(QA)
    qa["version"] = "1.0"
    qa["items"][0]["metadata"] = {"clip_uid": "abc", "duration": 180}
    path = tmp_path / "qa.json"
    path.write_text(json.dumps(qa))
    assert [item.question_id for item in load_qa_dataset(path)] == ["q0"]


def test_caption_text_utf8_cannot_encode_is_refused_at_load(tmp_path):
    captions = copy.deepcopy(CAPTIONS)
    captions["captions"][0]["text"] = "C opens \ud800"
    path = tmp_path / "vid.json"
    path.write_text(json.dumps(captions))
    with pytest.raises(MalformedFile, match=r"vid\.json: captions\[0\]\.text must be a string UTF-8 can encode"):
        load_captions(path)


def test_saved_repository_rejects_unknown_keys(tmp_path):
    document = saved_repository()
    document["checksum"] = 1
    path = tmp_path / "repo.json"
    path.write_text(json.dumps(document))
    with pytest.raises(MalformedFile, match=r"repo\.json has unknown key\(s\): checksum"):
        load(path)


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None], ids=["true", "1.0", "string", "2", "missing"])
def test_only_integer_schema_version_1_loads(tmp_path, capsys, version):
    document = saved_repository()
    if version is None:
        del document["schema_version"]
    else:
        document["schema_version"] = version
    path = tmp_path / "repo.json"
    path.write_text(json.dumps(document))
    assert main(["inspect", "--repo", str(path)]) == 2
    assert f"{path}: schema_version" in capsys.readouterr().err


def test_bench_shaped_repository_round_trips_byte_stably(tmp_path, monkeypatch, hashed_embedder, mock_client):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "gen", None)
    del sys.modules["gen"]
    import gen

    path = tmp_path / "vid00.json"
    gen.write_json(path, gen.caption_set(random.Random(11), "vid00", 600))
    cfg = BuildConfig(question_conditioning=True)
    repo = build(load_captions(path), cfg, hashed_embedder, mock_client)
    first = tmp_path / "repo.json"
    save(repo, first)
    loaded = load(first)
    assert loaded == repo
    second = tmp_path / "again.json"
    save(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_integer_grouping_ratio_is_saved_as_a_float(tmp_path, hashed_embedder, mock_client):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"build": {"chunk_schedule": [2], "grouping_ratio": 1}}))
    cfg = load_app_config(config).build
    assert type(cfg.grouping_ratio) is float
    repo = build(make_caption_set(6), cfg, hashed_embedder, mock_client)
    assert '"grouping_ratio": 1.0,' in to_canonical_json(repo)


# Wrong values that must not load as something else or end in a raw
# traceback: (file kind, change to the valid document, field named).
PROBES = [
    ("captions", lambda d: d["captions"][0].update(text=None), "captions[0].text"),
    ("captions", lambda d: d["captions"][0].update(start_s=True), "captions[0].start_s"),
    ("captions", lambda d: d["captions"][0].update(start_s="0.5"), "captions[0].start_s"),
    ("captions", lambda d: d["captions"][1].update(start_s=math.nan, end_s=math.nan), "captions[1].start_s"),
    ("qa", lambda d: d["items"][0].update(options="abcde"), "items[0].options"),
    ("qa", lambda d: d["items"][0].update(question=None), "items[0].question"),
    ("qa", lambda d: d["items"][0].update(split_tag=["x"]), "items[0].split_tag"),
    ("repository", lambda d: d["scales"][0][0]["descriptions"][0].update(occurrences=1.7),
     "scales[0][0].descriptions[0].occurrences"),
    ("repository", lambda d: d["scales"][1][0]["descriptions"][0].update(text=5),
     "scales[1][0].descriptions[0].text"),
    ("config", lambda d: d["build"].update(include_timestamps="yes"), "build.include_timestamps"),
    ("config", lambda d: d["llm"].update(timeout_s="x"), "llm.timeout_s"),
    ("config", lambda d: d["build"].update(grouping_ratio=True), "build.grouping_ratio"),
    ("config", lambda d: d.update(cache_dir=5), "cache_dir"),
    ("config", lambda d: d["llm"].update(endpoint=5), "llm.endpoint"),
    # A lone surrogate: valid JSON that UTF-8 cannot encode, so no file or prompt could hold it.
    ("captions", lambda d: d["captions"][1].update(text="C opens \ud800"), "captions[1].text"),
    ("qa", lambda d: d["items"][0]["options"].__setitem__(2, "bo\udc00x"), "items[0].options[2]"),
    ("repository", lambda d: d["scales"][0][0]["descriptions"][0].update(text="\udfff"),
     "scales[0][0].descriptions[0].text"),
    ("repository", lambda d: d.update(video_id="vid\ud83d"), "video_id"),
    ("repository", lambda d: d["provenance"].update(captioner="\ud800"), 'provenance["captioner"]'),
    ("config", lambda d: d["llm"].update(model="m\ud800"), "llm.model"),
]


@pytest.mark.parametrize("kind, change, field", PROBES, ids=[f"{kind}-{field}" for kind, _, field in PROBES])
def test_probe_cases_exit_2_naming_the_field(tmp_path, capsys, kind, change, field):
    document = copy.deepcopy({"captions": CAPTIONS, "qa": QA, "config": CONFIG}.get(kind)) or saved_repository()
    change(document)
    bad = tmp_path / f"bad-{kind}.json"
    bad.write_text(json.dumps(document))
    config = tmp_path / "config.json"
    config.write_text("{}")
    captions_dir = tmp_path / "captions"
    captions_dir.mkdir()
    write_caption_file(captions_dir / "vid.json", make_caption_set(12))
    out = str(tmp_path / "out")
    argv = {
        "captions": ["build", "--captions", str(bad), "--config", str(config), "--out", out],
        "qa": ["eval", "--dataset", str(bad), "--captions-dir", str(captions_dir), "--config", str(config),
               "--report-out", out, "--predictions-out", out],
        "repository": ["inspect", "--repo", str(bad)],
        "config": ["build", "--captions", str(captions_dir / "vid.json"), "--config", str(bad), "--out", out],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"bad-{kind}.json: {field} must be" in err
    assert not Path(out).exists()
