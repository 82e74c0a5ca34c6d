"""Seeded input generator for the benchmark.

Everything the program sees is written here as plain caption files and a QA
dataset in the formats the README documents; the program never sees the
seed. The same seed always yields byte-identical files.

Captions are "C <verb> the <object>" sentences drawn from a small vocabulary.
An activity persists for a run of consecutive captions before the next one
starts (it changes with probability ACTIVITY_CHANGE_P per caption), and
every caption of a run is the same string, so chunks carry real redundancy
that the matcher groups and the hashed embedder sees exact repeats.

The run length (mean 1 / ACTIVITY_CHANGE_P = 6.7 captions) and the exact
repeats are assumptions, not measured from real narration data: the
repository holds no real captions to measure them from, and no published
statistic of this kind is cited. They set most of the share of exact-repeat
texts the embedder sees (embed.encode.repeat_ratio in a traced run), so a
gain that comes from reusing work on identical strings rests on this
assumption and cannot be claimed from this benchmark alone.
Questions are distinct per video, so question-conditioned summaries never
collide in the response cache.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

VERBS = (
    "stirs", "cuts", "washes", "picks up", "puts down", "opens", "closes",
    "holds", "moves", "cleans", "looks at", "carries",
)
OBJECTS = (
    "pot", "knife", "onion", "cup", "plate", "door", "drawer", "towel",
    "bottle", "pan", "phone", "book", "bag", "box", "lid", "spoon",
)
# Chance per caption that a new activity starts (an assumption, see above).
ACTIVITY_CHANGE_P = 0.15
QUESTION_TEMPLATES = (
    "What is C mostly doing with the {obj}",
    "Why does C keep touching the {obj}",
    "Which object does C use right after the {obj}",
    "How does C handle the {obj} over the video",
)

# Why each workload is shaped as it is; its keys are the workload names.
WORKLOAD_WHY = {
    "eval-cold": (
        "12 videos x 600 captions, 120 five-option questions, langrepo mode at 20 ms per LLM call"
        " with an empty disk cache: round-trip-bound batch evaluation where one build per video is"
        " amortized over its questions and cache hits and misses mix under parallelism"
    ),
    "answer-conditioned": (
        "the same 120 questions answered one after another through load -> read_from_repo ->"
        " answer_loglik on repositories saved in setup with question_conditioning on: interactive"
        " latency where read and vqa do all the work and the write path none (the bypass workload"
        " for build-path changes)"
    ),
}


def _activity(rng: random.Random) -> str:
    return f"C {rng.choice(VERBS)} the {rng.choice(OBJECTS)}"


def caption_set(rng: random.Random, video_id: str, n: int) -> dict:
    """One caption file: n one-second captions in runs of one activity."""
    captions = []
    activity = _activity(rng)
    for i in range(n):
        if rng.random() < ACTIVITY_CHANGE_P:
            activity = _activity(rng)
        captions.append({"id": f"c{i:05d}", "start_s": float(i), "end_s": float(i + 1), "text": activity})
    return {"video_id": video_id, "duration_s": float(n), "captions": captions}


def _options(rng: random.Random) -> list[str]:
    options: list[str] = []
    while len(options) < 5:
        option = _activity(rng)
        if option not in options:
            options.append(option)
    return options


def qa_items(rng: random.Random, video_id: str, n: int) -> list[dict]:
    """n distinct five-option questions about one video."""
    pairs = [(t, o) for t in QUESTION_TEMPLATES for o in OBJECTS]
    chosen = rng.sample(pairs, n)
    return [
        {
            "question_id": f"{video_id}-q{k:02d}",
            "video_id": video_id,
            "question": template.format(obj=obj),
            "options": _options(rng),
            "answer_index": rng.randrange(5),
            "split_tag": template.split()[0].lower(),
        }
        for k, (template, obj) in enumerate(chosen)
    ]


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def write_inputs(seed: int, out_dir: Path, n_videos: int, n_captions: int, n_questions: int) -> tuple[Path, Path]:
    """Write <out_dir>/captions/<video>.json and <out_dir>/qa.json.

    Returns (captions directory, dataset path).
    """
    rng = random.Random(seed)
    captions_dir = out_dir / "captions"
    captions_dir.mkdir(parents=True, exist_ok=True)
    items: list[dict] = []
    for v in range(n_videos):
        video_id = f"vid{v:02d}"
        write_json(captions_dir / f"{video_id}.json", caption_set(rng, video_id, n_captions))
        items.extend(qa_items(rng, video_id, n_questions))
    dataset = out_dir / "qa.json"
    write_json(dataset, {"items": items})
    return captions_dir, dataset
