"""Multiple-choice answering over read-out descriptions.

Two classifiers: generative (parse the letter the model writes) and
log-likelihood (score each option's tokens and take the argmax). The
log-likelihood classifier is the default; it constrains predictions to
the given choices.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import OptionCountError
from .llm import GenerationRequest, LlmClient, ScoreRequest
from .prompts import QaPromptInput, render_qa_generative, render_qa_loglik

logger = logging.getLogger(__name__)

CLASSIFIERS = ("generative", "loglik")

_STANDALONE_LETTER = re.compile(r"\b([A-Ea-e])\b")


@dataclass
class QaItem:
    """One multiple-choice question bound to a video."""

    question_id: str
    video_id: str
    question: str
    options: list[str]
    answer_index: int | None = None
    split_tag: str | None = None

    def __post_init__(self) -> None:
        if len(self.options) < 2:
            raise OptionCountError(f"item {self.question_id!r} needs at least 2 options")
        if self.answer_index is not None and not 0 <= self.answer_index < len(self.options):
            raise ValueError(f"item {self.question_id!r}: answer_index out of range")

    @property
    def generative_compatible(self) -> bool:
        return len(self.options) == 5


@dataclass
class Prediction:
    question_id: str
    choice_index: int
    classifier: str
    per_option_scores: list[float] | None = None
    raw_output: str | None = None
    fallback: bool = False


def _qa_input(descriptions: list[str], item: QaItem, duration_s: float) -> QaPromptInput:
    return QaPromptInput(
        description="\n".join(descriptions),
        question=item.question,
        options=tuple(item.options),
        duration_s=duration_s,
    )


def answer_generative(
    descriptions: list[str], item: QaItem, duration_s: float, client: LlmClient
) -> Prediction:
    """Ask for a single letter and parse the first standalone A-E.

    An unparseable reply triggers exactly one re-ask; if that also fails the
    prediction falls back to option 0 and is flagged.
    """
    if len(item.options) != 5:
        raise OptionCountError(
            f"generative classifier needs exactly 5 options, item {item.question_id!r} has {len(item.options)}"
        )
    prompt = render_qa_generative(_qa_input(descriptions, item, duration_s))
    raw = ""
    for attempt in range(2):
        raw = client.generate(
            GenerationRequest(
                prompt=prompt,
                max_new_tokens=16,
                temperature=0.0,
                purpose_tag="qa",
                attempt=attempt,
            )
        )
        m = _STANDALONE_LETTER.search(raw)
        if m:
            return Prediction(
                question_id=item.question_id,
                choice_index=ord(m.group(1).upper()) - ord("A"),
                classifier="generative",
                raw_output=raw,
            )
    logger.warning("no letter in generative reply for %s; falling back to option 0", item.question_id)
    return Prediction(
        question_id=item.question_id,
        choice_index=0,
        classifier="generative",
        raw_output=raw,
        fallback=True,
    )


def answer_loglik(
    descriptions: list[str],
    item: QaItem,
    format: str,
    client: LlmClient,
    length_normalize: bool = False,
) -> Prediction:
    """Score every option's continuation and take the argmax.

    The options are scored concurrently through client.map, one score
    request each. Ties resolve to the lowest option index. The default
    score is the raw joint log-probability; length_normalize divides it by
    the continuation length to discount long options.
    """
    qa = _qa_input(descriptions, item, duration_s=0.0)
    requests = [
        ScoreRequest(*render_qa_loglik(qa, index, format)) for index in range(len(item.options))
    ]
    scores = client.map(client.score, requests)
    if length_normalize:
        scores = [s / max(1, len(r.continuation)) for s, r in zip(scores, requests)]
    choice = max(range(len(scores)), key=lambda i: (scores[i], -i))
    return Prediction(
        question_id=item.question_id,
        choice_index=choice,
        classifier="loglik",
        per_option_scores=scores,
    )
