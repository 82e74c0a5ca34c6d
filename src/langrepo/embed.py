"""Unit-norm text embeddings via pluggable providers, plus cosine similarity.

Three provider kinds:

* ``precomputed-file``: JSON object mapping exact text -> vector; offline
  and reproducible.
* ``http-endpoint``: POST {"texts": [...]} -> {"vectors": [[...], ...]},
  in batches of 64 texts. API key read from the LANGREPO_EMBED_KEY
  environment variable.
* ``hashed``: deterministic pseudo-embeddings derived from a content hash;
  lets the full pipeline run without any model or network.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    MalformedFile,
    MissingEmbedding,
    ProviderUnavailable,
    require_min,
    require_timing,
)
from .ingest import decode, read_json_object

if TYPE_CHECKING:
    from .transport import Session

PROVIDER_KINDS = ("precomputed-file", "http-endpoint", "hashed")
EMBED_KEY_ENV = "LANGREPO_EMBED_KEY"

_HTTP_BATCH = 64


@dataclass
class EmbeddingProviderConfig:
    kind: str = "hashed"
    location: str = ""
    dimension: int = 64
    max_text_chars: int = 300
    auth_header: str = "Authorization"
    timeout_s: float = 30.0
    max_retries: int = 2
    backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PROVIDER_KINDS:
            raise ConfigError(f"unknown embedding provider kind {self.kind!r}")
        require_min("embed.dimension", self.dimension, 1)
        require_min("embed.max_text_chars", self.max_text_chars, 1)
        require_min("embed.max_retries", self.max_retries, 0)
        require_timing("embed", self.timeout_s, self.backoff_s)
        if self.kind in ("precomputed-file", "http-endpoint") and not self.location:
            raise ConfigError(f"{self.kind} provider needs a location")


class PrecomputedFileProvider:
    """Looks vectors up by exact (post-truncation) text string."""

    def __init__(self, cfg: EmbeddingProviderConfig):
        self.cfg = cfg
        raw = read_json_object(Path(cfg.location), MalformedFile)
        table = decode(dict[str, list[float]], raw, cfg.location, MalformedFile, reject_unknown=False)
        for text, vec in table.items():
            if len(vec) != cfg.dimension:
                raise MalformedFile(
                    f"{cfg.location}: {text[:60]!r} has {len(vec)} numbers, embed.dimension is {cfg.dimension}"
                )
        self._table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        rows = []
        for text in texts:
            vec = self._table.get(text)
            if vec is None:
                raise MissingEmbedding(f"no precomputed vector for text {text[:60]!r}")
            rows.append(vec)
        return np.stack(rows)


class HttpEmbeddingProvider:
    def __init__(
        self, cfg: EmbeddingProviderConfig, session: Session | None = None, map_batches: Callable | None = None
    ):
        from . import transport

        self.cfg = cfg
        self.session = session or transport.new_session()
        # map_batches(post, batches) posts every batch of one call. config.make_providers passes
        # LlmClient.map, so they are in flight together within the parallelism; by default, in turn.
        self.map_batches = map_batches or (lambda post, batches: list(map(post, batches)))

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        batches = [texts[start : start + _HTTP_BATCH] for start in range(0, len(texts), _HTTP_BATCH)]
        return np.asarray([v for vectors in self.map_batches(self._post, batches) for v in vectors], dtype=np.float64)

    def _post(self, batch: list[str]) -> list[list[float]]:
        from . import transport

        try:
            reply = transport.post_json(
                self.session, self.cfg.location, {"texts": batch},
                key_env=EMBED_KEY_ENV, auth_header=self.cfg.auth_header, timeout_s=self.cfg.timeout_s,
                max_retries=self.cfg.max_retries, backoff_s=self.cfg.backoff_s,
                label="embedding endpoint", unavailable=ProviderUnavailable,
            )
        except transport.HttpStatusError as exc:
            raise ProviderUnavailable(str(exc)) from exc
        # A readable reply of the wrong shape fails at once, as a wrong LLM reply does.
        if type(reply) is not dict or "vectors" not in reply:
            raise ProviderUnavailable(f"embedding endpoint reply has no vectors: {json.dumps(reply)[:60]}")
        where = "embedding endpoint vectors"
        vectors = decode(list[list[float]], reply["vectors"], where, ProviderUnavailable, reject_unknown=False)
        if len(vectors) != len(batch):
            raise ProviderUnavailable(f"endpoint returned {len(vectors)} vectors for {len(batch)} texts")
        dimension = self.cfg.dimension
        for i, vec in enumerate(vectors):
            if len(vec) != dimension:
                raise DimensionMismatch(f"{where}: [{i}] has {len(vec)} numbers, embed.dimension is {dimension}")
        return vectors


class HashedEmbeddingProvider:
    """Deterministic stand-in encoder: same text, same vector, any machine."""

    def __init__(self, cfg: EmbeddingProviderConfig):
        self.cfg = cfg

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        return np.stack([self._one(t) for t in texts])

    def _one(self, text: str) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        # The Generator default_rng(seed) builds, without its argument checks.
        return np.random.Generator(np.random.PCG64(seed)).standard_normal(self.cfg.dimension)


class Embedder:
    """The provider the config names, checked and normalized to unit vectors.

    provider is a plain attribute, so a test may replace it with any object
    that has embed_batch.
    """

    def __init__(
        self, cfg: EmbeddingProviderConfig, session: Session | None = None, map_batches: Callable | None = None
    ):
        self.cfg = cfg
        if cfg.kind == "precomputed-file":
            self.provider = PrecomputedFileProvider(cfg)
        elif cfg.kind == "http-endpoint":
            self.provider = HttpEmbeddingProvider(cfg, session=session, map_batches=map_batches)
        else:
            self.provider = HashedEmbeddingProvider(cfg)

    def encode(self, texts: list[str]) -> np.ndarray:
        """Embed texts in order, returning an (n, dimension) unit-norm matrix.

        Each text is truncated to cfg.max_text_chars before dispatch, which
        stands in for the encoder's token limit.
        """
        if not texts:
            raise ValueError("texts must be non-empty")
        truncated = [t[: self.cfg.max_text_chars] for t in texts]
        matrix = np.asarray(self.provider.embed_batch(truncated), dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(texts):
            raise DimensionMismatch(f"provider returned shape {matrix.shape} for {len(texts)} texts")
        if matrix.shape[1] != self.cfg.dimension:
            raise DimensionMismatch(
                f"provider returned dimension {matrix.shape[1]}, config says {self.cfg.dimension}"
            )
        if not np.all(np.isfinite(matrix)):
            raise DimensionMismatch("provider returned non-finite values")
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise DimensionMismatch("provider returned a zero vector")
        return matrix / norms


def similarity_matrix(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of unit vectors; entry (i, j) = src_i . dst_j."""
    src = np.atleast_2d(np.asarray(src, dtype=np.float64))
    dst = np.atleast_2d(np.asarray(dst, dtype=np.float64))
    if src.shape[1] != dst.shape[1]:
        raise DimensionMismatch(f"src dimension {src.shape[1]} != dst dimension {dst.shape[1]}")
    return src @ dst.T
