import json
from pathlib import Path

import pytest

from langrepo.config import AppConfig, load_app_config
from langrepo.embed import EmbeddingProviderConfig
from langrepo.errors import ConfigError, MalformedFile
from langrepo.repository import BuildConfig, build, load, save, to_canonical_json

from conftest import make_caption_set


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
        ({"parallel": 4}, "config"),
        ({"llm": {"kind": "mock", "temperature": 0.5}}, "llm settings"),
        ({"embed": {"kind": "hashed", "dim": 8}}, "embed settings"),
        ({"build": {"read_scale": 1}}, "build settings"),
    ],
)
def test_unknown_key_rejected(tmp_path, raw, where):
    with pytest.raises(ConfigError, match=f"unknown key.*in {where}"):
        load_app_config(write_config(tmp_path, raw))


@pytest.mark.parametrize("section", ["llm", "embed", "build"])
def test_section_that_is_not_an_object_rejected(tmp_path, section):
    with pytest.raises(ConfigError, match=f"'{section}' must be an object"):
        load_app_config(write_config(tmp_path, {section: ["kind", "mock"]}))


@pytest.mark.parametrize("parallelism", ["4", 4.5, True, 0])
def test_parallelism_must_be_a_positive_integer(tmp_path, parallelism):
    with pytest.raises(ConfigError, match="parallelism"):
        load_app_config(write_config(tmp_path, {"parallelism": parallelism}))


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
