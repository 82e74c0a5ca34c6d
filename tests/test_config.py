import json
from pathlib import Path

import pytest

from langrepo.cli import main
from langrepo.config import AppConfig, load_app_config
from langrepo.embed import EmbeddingProviderConfig
from langrepo.errors import ConfigError, MalformedFile
from langrepo.repository import BuildConfig, build, load, save, to_canonical_json

from conftest import make_caption_set, write_caption_file


def write_config(tmp_path, raw) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("raw", [{}, {"llm": {"kind": "mock"}}, {"embed": {}, "build": {}}])
def test_missing_keys_take_the_dataclass_defaults(tmp_path, raw):
    cfg = load_app_config(write_config(tmp_path, raw))
    assert cfg == AppConfig()
    assert cfg.embed == EmbeddingProviderConfig(kind="hashed")


@pytest.mark.parametrize("name", ["mock.json", "http.json"])
def test_shipped_configs_load(name):
    cfg = load_app_config(Path(__file__).resolve().parents[1] / "configs" / name)
    assert cfg.build == BuildConfig()


def test_every_key_set(tmp_path):
    raw = {
        "llm": {"kind": "mock"},
        "embed": {"kind": "hashed", "dimension": 64, "max_text_chars": 300},
        "build": {"chunk_schedule": [3, 2], "read_scales": None, "question_conditioning": True},
        "cache_dir": None,
        "parallelism": 2,
        "classifier": "generative",
        "loglik_format": "structured",
    }
    cfg = load_app_config(write_config(tmp_path, raw))
    assert cfg.build == BuildConfig(chunk_schedule=[3, 2], question_conditioning=True)
    assert (cfg.parallelism, cfg.classifier, cfg.loglik_format) == (2, "generative", "structured")


@pytest.mark.parametrize(
    "raw, where",
    [
        ({"parallel": 4}, r"config\.json has unknown key\(s\): parallel"),
        ({"llm": {"kind": "mock", "temperature": 0.5}}, r"json: llm has unknown key\(s\): temperature"),
        ({"llm": {"kind": "mock", "wrap_instructions": True}}, r"json: llm has unknown key\(s\): wrap_instructions"),
        ({"embed": {"kind": "hashed", "dim": 8}}, r"json: embed has unknown key\(s\): dim"),
        ({"build": {"read_scale": 1}}, r"json: build has unknown key\(s\): read_scale"),
    ],
)
def test_unknown_key_rejected(tmp_path, raw, where):
    with pytest.raises(ConfigError, match=where):
        load_app_config(write_config(tmp_path, raw))


@pytest.mark.parametrize("section", ["llm", "embed", "build"])
def test_section_that_is_not_an_object_rejected(tmp_path, section):
    with pytest.raises(ConfigError, match=f"json: {section} must be an object"):
        load_app_config(write_config(tmp_path, {section: ["kind", "mock"]}))


@pytest.mark.parametrize("parallelism", ["4", 4.5, True, 0])
def test_parallelism_must_be_a_positive_integer(tmp_path, parallelism):
    with pytest.raises(ConfigError, match="parallelism"):
        load_app_config(write_config(tmp_path, {"parallelism": parallelism}))


@pytest.mark.parametrize(
    "build, name",
    [
        ({"chunk_schedule": ["x"]}, "chunk_schedule"),
        ({"chunk_schedule": [4.7, 2]}, "chunk_schedule"),
        ({"chunk_schedule": [4, True]}, "chunk_schedule"),
        ({"chunk_schedule": "42"}, "chunk_schedule"),
        ({"chunk_schedule": 4}, "chunk_schedule"),
        ({"rephrase_retries": 1.5}, "rephrase_retries"),
        ({"rephrase_retries": "2"}, "rephrase_retries"),
        ({"rephrase_retries": False}, "rephrase_retries"),
        ({"read_scales": 1.5}, "read_scales"),
        ({"read_scales": "2"}, "read_scales"),
        ({"read_scales": True}, "read_scales"),
    ],
)
def test_build_counts_must_be_json_integers(tmp_path, build, name):
    with pytest.raises(ConfigError, match=name):
        load_app_config(write_config(tmp_path, {"build": build}))


@pytest.mark.parametrize(
    "raw, name",
    [
        ({"llm": {"max_retries": 1.5}}, "llm.max_retries"),
        ({"llm": {"max_retries": "2"}}, "llm.max_retries"),
        ({"llm": {"max_retries": True}}, "llm.max_retries"),
        ({"llm": {"max_retries": -1}}, "llm.max_retries"),
        ({"embed": {"dimension": 16.5}}, "embed.dimension"),
        ({"embed": {"dimension": "16"}}, "embed.dimension"),
        ({"embed": {"dimension": True}}, "embed.dimension"),
        ({"embed": {"max_text_chars": 300.0}}, "embed.max_text_chars"),
        ({"embed": {"max_text_chars": 0}}, "embed.max_text_chars"),
        ({"embed": {"max_retries": 1.5}}, "embed.max_retries"),
        ({"embed": {"max_retries": False}}, "embed.max_retries"),
        ({"embed": {"max_retries": -1}}, "embed.max_retries"),
    ],
)
def test_provider_counts_must_be_json_integers(tmp_path, raw, name):
    with pytest.raises(ConfigError, match=name):
        load_app_config(write_config(tmp_path, raw))


@pytest.mark.parametrize(
    "raw, name",
    [
        ({"llm": {"kind": "openai"}}, "llm.kind"),
        ({"llm": {"kind": "http", "model": "m"}}, "endpoint"),
        ({"llm": {"kind": "http", "endpoint": "http://llm.test/v1"}}, "model"),
        ({"classifier": "vote"}, "classifier"),
        ({"loglik_format": "json"}, "loglik_format"),
        ({"embed": {"kind": "http-endpoint"}}, "http-endpoint provider needs a location"),
        ({"embed": {"kind": "precomputed-file"}}, "precomputed-file provider needs a location"),
    ],
)
def test_unknown_or_incomplete_choice_rejected(tmp_path, raw, name):
    with pytest.raises(ConfigError, match=name):
        load_app_config(write_config(tmp_path, raw))


def test_build_with_non_integer_schedule_exits_2(tmp_path, capsys):
    captions = write_caption_file(tmp_path / "vid.json", make_caption_set(12))
    config = write_config(tmp_path, {"build": {"chunk_schedule": ["x"]}})
    out = tmp_path / "repo.json"
    code = main(["build", "--captions", str(captions), "--config", config, "--out", str(out)])
    assert code == 2
    assert "chunk_schedule" in capsys.readouterr().err
    assert not out.exists()


def test_build_with_fractional_embedding_dimension_exits_2(tmp_path, capsys):
    # numpy would otherwise die with a TypeError traceback mid-build
    captions = write_caption_file(tmp_path / "vid.json", make_caption_set(12))
    config = write_config(tmp_path, {"embed": {"dimension": 16.5}})
    out = tmp_path / "repo.json"
    code = main(["build", "--captions", str(captions), "--config", config, "--out", str(out)])
    assert code == 2
    assert "embed.dimension" in capsys.readouterr().err
    assert not out.exists()


def test_top_level_that_is_not_an_object_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_app_config(write_config(tmp_path, [1, 2]))


def test_saved_repository_with_unknown_config_key_rejected(tmp_path, hashed_embedder, mock_client):
    repo = build(make_caption_set(12), BuildConfig(chunk_schedule=[3, 2]), hashed_embedder, mock_client)
    path = tmp_path / "repo.json"
    save(repo, path)
    raw = json.loads(to_canonical_json(repo))
    raw["config"]["read_scale"] = 1
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(MalformedFile, match="read_scale"):
        load(path)
