"""Application configuration: one JSON file wiring every module together.

The file is an AppConfig object (README "Configuration"): every key is
optional and takes its dataclass default when absent, and an unknown key
at any level is an error. API keys come from the environment:
LANGREPO_LLM_KEY and LANGREPO_EMBED_KEY. The config is validated before any
network call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .embed import Embedder, EmbeddingProviderConfig
from .errors import ConfigError, require_min, require_timing
from .evalharness import Providers
from .ingest import decode, read_json_object
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

    def __post_init__(self) -> None:
        if self.kind not in LLM_KINDS:
            raise ConfigError(f"llm.kind must be one of {LLM_KINDS}, got {self.kind!r}")
        if self.kind == "http" and (not self.endpoint or not self.model):
            raise ConfigError("llm.kind 'http' requires endpoint and model")
        require_min("llm.max_retries", self.max_retries, 0)
        require_timing("llm", self.timeout_s, self.backoff_s)


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
        require_min("parallelism", self.parallelism, 1)
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(f"classifier must be one of {CLASSIFIERS}")
        if self.loglik_format not in LOGLIK_FORMATS:
            raise ConfigError(f"loglik_format must be one of {LOGLIK_FORMATS}")


def load_app_config(path: str | Path) -> AppConfig:
    path = Path(path)
    return decode(AppConfig, read_json_object(path, ConfigError), str(path), ConfigError, reject_unknown=True)


def make_client(cfg: AppConfig) -> LlmClient:
    if cfg.llm.kind == "http":
        backend = HttpBackend(
            base_url=cfg.llm.endpoint,
            model=cfg.llm.model,
            max_retries=cfg.llm.max_retries,
            backoff_s=cfg.llm.backoff_s,
            timeout_s=cfg.llm.timeout_s,
        )
    else:
        backend = MockBackend()
    return LlmClient(backend, cache_dir=cfg.cache_dir, max_parallel=cfg.parallelism)


def make_providers(cfg: AppConfig) -> Providers:
    client = make_client(cfg)
    return Providers(client=client, embedder=Embedder(cfg.embed, map_batches=client.map))
