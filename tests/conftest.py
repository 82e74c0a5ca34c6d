import json
import math
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from langrepo.embed import Embedder, EmbeddingProviderConfig
from langrepo.ingest import Caption, CaptionSet
from langrepo.llm import LlmClient, MockBackend


def make_caption_set(n: int, video_id: str = "vid", span_s: float = 1.0) -> CaptionSet:
    captions = [
        Caption(
            id=f"c{i:03d}",
            start_s=i * span_s,
            end_s=(i + 1) * span_s,
            text=f"person does action {i} near object {i % 7}",
        )
        for i in range(n)
    ]
    return CaptionSet(video_id=video_id, duration_s=n * span_s, captions=captions)


def settled_thread_count(target, timeout_s=5.0):
    """The thread count once it falls to target, or after timeout_s."""
    deadline = time.monotonic() + timeout_s
    while threading.active_count() > target and time.monotonic() < deadline:
        time.sleep(0.005)
    return threading.active_count()


@pytest.fixture
def caption_set_60() -> CaptionSet:
    return make_caption_set(60)


@pytest.fixture
def hashed_embedder() -> Embedder:
    return Embedder(EmbeddingProviderConfig(kind="hashed", dimension=32))


@pytest.fixture
def mock_client() -> LlmClient:
    return LlmClient(MockBackend(), max_parallel=1)


# Six captions whose 2-d embeddings are picked so the grouping outcome is
# known: with dst_ratio=1/3 the destinations are positions 1 and 4, and at
# x=0.5 sources 0 and 2 (the two highest best-match similarities) merge
# into them.
ANGLED_TEXTS = [
    "C opens the drawer",
    "C opens the kitchen drawer",
    "C pours water into a cup",
    "C opens a drawer in the kitchen",
    "C fills the cup from the tap",
    "C wipes the counter",
]
_ANGLES_DEG = [10.0, 0.0, 85.0, 20.0, 90.0, 50.0]


def angled_vectors() -> dict[str, list[float]]:
    return {
        text: [math.cos(math.radians(a)), math.sin(math.radians(a))]
        for text, a in zip(ANGLED_TEXTS, _ANGLES_DEG)
    }


@pytest.fixture
def angled_caption_set() -> CaptionSet:
    captions = [
        Caption(id=f"a{i}", start_s=float(i), end_s=float(i + 1), text=text)
        for i, text in enumerate(ANGLED_TEXTS)
    ]
    return CaptionSet(video_id="angled", duration_s=6.0, captions=captions)


@pytest.fixture
def angled_embedder(tmp_path) -> Embedder:
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(angled_vectors()), encoding="utf-8")
    return Embedder(
        EmbeddingProviderConfig(kind="precomputed-file", location=str(path), dimension=2)
    )


def write_caption_file(path: Path, captions: CaptionSet) -> Path:
    payload = {
        "video_id": captions.video_id,
        "duration_s": captions.duration_s,
        "captions": [
            {"id": c.id, "start_s": c.start_s, "end_s": c.end_s, "text": c.text}
            for c in captions.captions
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path
