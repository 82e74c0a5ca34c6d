"""Application configuration: one JSON file wiring every module together.

Shape (every key optional; a missing key takes its dataclass default, and
an unknown key at any level is an error):

    {
      "llm":   {"kind": "mock" | "http", "endpoint": str, "model": str,
                "max_retries": int, "backoff_s": num, "timeout_s": num,
                "wrap_instructions": bool},
      "embed": {"kind": "hashed" | "precomputed-file" | "http-endpoint",
                "location": str, "dimension": int, "max_text_chars": int},
      "build": {... BuildConfig fields ...},
      "cache_dir": str | null,
      "parallelism": int,
      "classifier": "loglik" | "generative",
      "loglik_format": "plain" | "structured"
    }

API keys come from the environment: LANGREPO_LLM_KEY and
LANGREPO_EMBED_KEY. The config is validated before any network call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .embed import Embedder, EmbeddingProviderConfig
from .errors import ConfigError, MalformedFile
from .evalharness import Providers
from .ingest import read_json_object
from .llm import HttpBackend, LlmClient, MockBackend
from .prompts import LOGLIK_FORMATS
from .repository import BuildConfig
from .vqa import CLASSIFIERS

LLM_KINDS = ("mock", "http")


@dataclass
class LlmSettings:
    kind: str = "mock"
    endpoint: str = ""
    model: str = ""
    max_retries: int = 2
    backoff_s: float = 1.0
    timeout_s: float = 120.0
    wrap_instructions: bool = True

    def __post_init__(self) -> None:
        if self.kind not in LLM_KINDS:
            raise ConfigError(f"llm.kind must be one of {LLM_KINDS}, got {self.kind!r}")
        if self.kind == "http" and (not self.endpoint or not self.model):
            raise ConfigError("llm.kind 'http' requires endpoint and model")
        if self.max_retries < 0:
            raise ConfigError("llm.max_retries must be >= 0")


@dataclass
class AppConfig:
    llm: LlmSettings = field(default_factory=LlmSettings)
    embed: EmbeddingProviderConfig = field(default_factory=EmbeddingProviderConfig)
    build: BuildConfig = field(default_factory=BuildConfig)
    cache_dir: str | None = None
    parallelism: int = 4
    classifier: str = "loglik"
    loglik_format: str = "plain"

    def __post_init__(self) -> None:
        # bool is an int subclass, and int() would round 4.5 down silently.
        if type(self.parallelism) is not int or self.parallelism < 1:
            raise ConfigError(f"parallelism must be an integer >= 1, got {self.parallelism!r}")
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(f"classifier must be one of {CLASSIFIERS}")
        if self.loglik_format not in LOGLIK_FORMATS:
            raise ConfigError(f"loglik_format must be one of {LOGLIK_FORMATS}")


# The sections of AppConfig that are objects, each built by _pick first.
_SECTIONS = {"llm": LlmSettings, "embed": EmbeddingProviderConfig, "build": BuildConfig}


def _pick(cls, raw: dict, context: str):
    known = set(cls.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad {context}: {exc}") from exc


def load_app_config(path: str | Path) -> AppConfig:
    try:
        raw = read_json_object(Path(path))
    except MalformedFile as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    for name, cls in _SECTIONS.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                raise ConfigError(f"config section {name!r} must be an object")
            raw[name] = _pick(cls, raw[name], f"{name} settings")
    return _pick(AppConfig, raw, "config")


def make_client(cfg: AppConfig, cache_dir: str | None = None) -> LlmClient:
    if cfg.llm.kind == "http":
        backend = HttpBackend(
            base_url=cfg.llm.endpoint,
            model=cfg.llm.model,
            max_retries=cfg.llm.max_retries,
            backoff_s=cfg.llm.backoff_s,
            timeout_s=cfg.llm.timeout_s,
            wrap_instructions=cfg.llm.wrap_instructions,
        )
    else:
        backend = MockBackend()
    return LlmClient(
        backend,
        cache_dir=cache_dir if cache_dir is not None else cfg.cache_dir,
        max_parallel=cfg.parallelism,
    )


def make_providers(cfg: AppConfig, cache_dir: str | None = None) -> Providers:
    return Providers(client=make_client(cfg, cache_dir=cache_dir), embedder=Embedder(cfg.embed))
