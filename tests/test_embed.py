import hashlib
import json

import numpy as np
import pytest
import requests

from langrepo.embed import (
    Embedder,
    EmbeddingProviderConfig,
    HttpEmbeddingProvider,
    similarity_matrix,
)
from langrepo.errors import (
    ConfigError,
    DimensionMismatch,
    MalformedFile,
    MissingEmbedding,
    ProviderUnavailable,
)


def hashed_cfg(dimension=16):
    return EmbeddingProviderConfig(kind="hashed", dimension=dimension)


class TestEmbedTexts:
    def test_identical_texts_identical_vectors(self):
        vecs = Embedder(hashed_cfg()).encode(["same text", "same text"])
        np.testing.assert_array_equal(vecs[0], vecs[1])

    def test_unit_norm(self):
        vecs = Embedder(hashed_cfg()).encode([f"t{i}" for i in range(10)])
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize(
        "dimension, digest",
        [
            (16, "9ee10f185c30ec295d368930819ba2128735e58b281435299c9de49420ebd910"),
            (64, "71774d6afb6d7ead3f8b99f99df201a9bd21e36c37c7cfe9db63636c8531bfb8"),
        ],
    )
    def test_hashed_vectors_are_pinned(self, dimension, digest):
        # Repositories built with the hashed provider must stay byte-identical
        # across releases, so its raw vectors may never change.
        texts = ["C opens the drawer", "person does action 7 near object 0", "Ünïcode — text", ""]
        raw = Embedder(hashed_cfg(dimension)).provider.embed_batch(texts)
        assert hashlib.sha256(raw.astype("<f8").tobytes()).hexdigest() == digest

    def test_truncation_makes_long_texts_equal(self):
        cfg = EmbeddingProviderConfig(kind="hashed", dimension=8, max_text_chars=10)
        vecs = Embedder(cfg).encode(["abcdefghijKLM", "abcdefghijXYZ"])
        np.testing.assert_array_equal(vecs[0], vecs[1])

    def test_missing_embedding(self, tmp_path):
        path = tmp_path / "vecs.json"
        path.write_text(json.dumps({"known": [1.0, 0.0]}))
        cfg = EmbeddingProviderConfig(kind="precomputed-file", location=str(path), dimension=2)
        embedder = Embedder(cfg)
        assert embedder.encode(["known"]).shape == (1, 2)
        with pytest.raises(MissingEmbedding):
            embedder.encode(["unknown"])

    def test_dimension_mismatch(self):
        class ShortProvider:
            def embed_batch(self, texts):
                return np.ones((len(texts), 2))

        embedder = Embedder(EmbeddingProviderConfig(kind="hashed", dimension=3))
        embedder.provider = ShortProvider()
        with pytest.raises(DimensionMismatch):
            embedder.encode(["t"])

    @pytest.mark.parametrize(
        "table, problem",
        [
            ({"t": [1.0, 0.0]}, "'t' has 2 numbers, embed.dimension is 3"),
            ({"t": [1.0, 0.0, 0.0], "u": [1.0, 0.0]}, "'u' has 2 numbers"),
            ({"t": ["x", 0, 0]}, r'\["t"\]\[0\] must be a finite number, got "x"'),
            ({"t": [True, "1", 0]}, r'\["t"\]\[0\] must be a finite number, got true'),
            ({"t": [1.0, float("nan"), 0]}, r'\["t"\]\[1\] must be a finite number, got NaN'),
            ({"t": 1.0}, r'\["t"\] must be an array'),
        ],
    )
    def test_precomputed_table_checked_at_load(self, tmp_path, table, problem):
        # a ragged table must not reach np.stack, nor [true, "1"] embed as [1, 1]
        path = tmp_path / "vecs.json"
        path.write_text(json.dumps(table))
        cfg = EmbeddingProviderConfig(kind="precomputed-file", location=str(path), dimension=3)
        with pytest.raises(MalformedFile, match="vecs.json: .*" + problem):
            Embedder(cfg)

    @pytest.mark.parametrize("content", [None, "{not json", "[[1.0, 0.0]]"])
    def test_unreadable_precomputed_file(self, tmp_path, content):
        path = tmp_path / "vecs.json"
        if content is not None:
            path.write_text(content)
        cfg = EmbeddingProviderConfig(kind="precomputed-file", location=str(path), dimension=2)
        with pytest.raises(MalformedFile, match="vecs.json"):
            Embedder(cfg)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            Embedder(hashed_cfg()).encode([])

    def test_substituted_provider_is_checked(self):
        class ZeroProvider:
            def embed_batch(self, texts):
                return np.zeros((len(texts), 16))

        embedder = Embedder(hashed_cfg())
        embedder.provider = ZeroProvider()
        with pytest.raises(DimensionMismatch, match="zero vector"):
            embedder.encode(["t"])

    @pytest.mark.parametrize(
        "rows, problem",
        [(lambda texts: np.ones((len(texts) + 1, 16)), "shape"), (lambda texts: np.full((len(texts), 16), np.nan), "non-finite")],
        ids=["extra-row", "nan"],
    )
    def test_substituted_provider_output_is_checked(self, rows, problem):
        class Provider:
            def embed_batch(self, texts):
                return rows(texts)

        embedder = Embedder(hashed_cfg())
        embedder.provider = Provider()
        with pytest.raises(DimensionMismatch, match=problem):
            embedder.encode(["t"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            EmbeddingProviderConfig(kind="nope")


class _FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        reply = self.responses.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


class TestHttpProvider:
    def cfg(self):
        return EmbeddingProviderConfig(
            kind="http-endpoint",
            location="http://embed.test/v1",
            dimension=2,
            max_retries=2,
            backoff_s=0.0,
        )

    def test_success(self):
        session = _FakeSession([_FakeResponse(200, {"vectors": [[3.0, 4.0]]})])
        vecs = Embedder(self.cfg(), session=session).encode(["t"])
        np.testing.assert_allclose(vecs[0], [0.6, 0.8])
        assert session.calls[0]["json"] == {"texts": ["t"]}

    def test_retries_then_fails(self):
        session = _FakeSession([_FakeResponse(500), _FakeResponse(500), _FakeResponse(500)])
        provider = HttpEmbeddingProvider(self.cfg(), session=session)
        with pytest.raises(ProviderUnavailable):
            provider.embed_batch(["t"])
        assert len(session.calls) == 3

    def test_recovers_after_one_failure(self):
        session = _FakeSession([_FakeResponse(500), _FakeResponse(200, {"vectors": [[1.0, 0.0]]})])
        provider = HttpEmbeddingProvider(self.cfg(), session=session)
        assert provider.embed_batch(["t"]).shape == (1, 2)

    def test_recovers_after_rate_limit(self):
        session = _FakeSession([_FakeResponse(429), _FakeResponse(200, {"vectors": [[1.0, 0.0]]})])
        provider = HttpEmbeddingProvider(self.cfg(), session=session)
        assert provider.embed_batch(["t"]).shape == (1, 2)
        assert len(session.calls) == 2

    def test_three_429s_exhaust_retries(self):
        session = _FakeSession([_FakeResponse(429), _FakeResponse(429), _FakeResponse(429)])
        provider = HttpEmbeddingProvider(self.cfg(), session=session)
        with pytest.raises(ProviderUnavailable):
            provider.embed_batch(["t"])
        assert len(session.calls) == 3

    @pytest.mark.parametrize(
        "first", [requests.ConnectionError("refused"), _FakeResponse(200, text="<html>busy</html>")],
        ids=["connection-error", "non-json-200"],
    )
    def test_recovers_after_transport_error_or_unreadable_body(self, first):
        session = _FakeSession([first, _FakeResponse(200, {"vectors": [[1.0, 0.0]]})])
        provider = HttpEmbeddingProvider(self.cfg(), session=session)
        assert provider.embed_batch(["t"]).shape == (1, 2)
        assert len(session.calls) == 2

    @pytest.mark.parametrize(
        "reply, problem",
        [
            (_FakeResponse(401, text="bad key"), "HTTP 401: bad key"),
            (_FakeResponse(200, {"data": [[1.0, 0.0]]}), "no vectors"),
            (_FakeResponse(200, [[1.0, 0.0]]), "no vectors"),
        ],
        ids=["http-401", "no-vectors-key", "not-an-object"],
    )
    def test_fails_after_one_request(self, reply, problem):
        session = _FakeSession([reply])
        provider = HttpEmbeddingProvider(self.cfg(), session=session)
        with pytest.raises(ProviderUnavailable, match=problem):
            provider.embed_batch(["t"])
        assert len(session.calls) == 1

    def test_connection_errors_exhaust_retries(self):
        session = _FakeSession([requests.ConnectionError("refused") for _ in range(3)])
        provider = HttpEmbeddingProvider(self.cfg(), session=session)
        with pytest.raises(ProviderUnavailable, match="after 3 attempts: refused"):
            provider.embed_batch(["t"])
        assert len(session.calls) == 3

    def test_fewer_vectors_than_texts_rejected(self):
        session = _FakeSession([_FakeResponse(200, {"vectors": [[1.0, 0.0]]})])
        with pytest.raises(ProviderUnavailable, match="1 vectors for 2 texts"):
            Embedder(self.cfg(), session=session).encode(["a", "b"])

    def test_reply_value_that_is_no_number_rejected(self):
        session = _FakeSession([_FakeResponse(200, {"vectors": [[1.0, "x"]]})])
        with pytest.raises(ProviderUnavailable, match=r"vectors: \[0\]\[1\] must be a finite number"):
            Embedder(self.cfg(), session=session).encode(["t"])

    def test_ragged_reply_rejected(self):
        session = _FakeSession([_FakeResponse(200, {"vectors": [[1.0, 0.0], [1.0]]})])
        with pytest.raises(DimensionMismatch, match=r"vectors: \[1\] has 1 numbers, embed.dimension is 2"):
            Embedder(self.cfg(), session=session).encode(["a", "b"])

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("LANGREPO_EMBED_KEY", "sekret")
        session = _FakeSession([_FakeResponse(200, {"vectors": [[1.0, 0.0]]})])
        provider = HttpEmbeddingProvider(self.cfg(), session=session)
        provider.embed_batch(["t"])
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sekret"


class TestSimilarityMatrix:
    def test_self_similarity(self):
        u = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(similarity_matrix(u, u), [[1.0]], atol=1e-6)

    def test_orthogonal(self):
        np.testing.assert_allclose(
            similarity_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])), [[0.0]]
        )

    def test_hand_computed_dot(self):
        # (0.6, 0.8) . (0.8, 0.6) = 0.48 + 0.48
        sim = similarity_matrix(np.array([[0.6, 0.8]]), np.array([[0.8, 0.6]]))
        np.testing.assert_allclose(sim, [[0.96]], atol=1e-12)

    def test_unit_diagonal_and_symmetry(self):
        vecs = Embedder(hashed_cfg(8)).encode([f"v{i}" for i in range(6)])
        sim = similarity_matrix(vecs, vecs)
        np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-6)
        np.testing.assert_allclose(sim, similarity_matrix(vecs, vecs).T, atol=1e-6)
        assert np.all(sim <= 1 + 1e-6) and np.all(sim >= -1 - 1e-6)

    def test_row_permutation(self):
        vecs = Embedder(hashed_cfg(8)).encode([f"v{i}" for i in range(5)])
        perm = [3, 0, 4, 1, 2]
        sim = similarity_matrix(vecs, vecs[:2])
        np.testing.assert_array_equal(similarity_matrix(vecs[perm], vecs[:2]), sim[perm])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))


def test_embedder_bundles_config():
    embedder = Embedder(hashed_cfg(12))
    assert embedder.encode(["a", "b"]).shape == (2, 12)
