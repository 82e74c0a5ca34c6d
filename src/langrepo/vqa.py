"""Multiple-choice answering over read-out descriptions.

Two classifiers: generative (parse the letter the model writes) and
log-likelihood (score each option's tokens and take the argmax). The
log-likelihood classifier is the default; it constrains predictions to
the given choices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError, OptionCountError, UsageError
from .ingest import utf8_encodable
from .llm import GenerationRequest, LlmClient, ScoreRequest
from .prompts import QaPromptInput, render_qa_generative, render_qa_loglik

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
        if len(set(self.options)) != len(self.options):
            raise OptionCountError(f"item {self.question_id!r}: answer options must be distinct")
        if self.answer_index is not None and not 0 <= self.answer_index < len(self.options):
            raise ValueError(f"item {self.question_id!r}: answer_index out of range")
        if not all(map(utf8_encodable, [self.question, *self.options])):  # argv holds undecodable bytes as lone surrogates
            raise UsageError(f"item {self.question_id!r}: question and options must be UTF-8 encodable")

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


def _letter_index(reply: str) -> int:
    """The option index of the first standalone letter A-E in reply."""
    m = _STANDALONE_LETTER.search(reply)
    if m is None:
        raise FormatError(f"no standalone letter A-E in {reply[:80]!r}")
    return ord(m.group(1).upper()) - ord("A")


def answer_generative(
    descriptions: list[str], item: QaItem, duration_s: float, client: LlmClient
) -> Prediction:
    """Ask for a single letter and parse the first standalone A-E.

    An unparseable reply triggers exactly one re-ask; if that also fails the
    prediction falls back to option 0 and is flagged.
    """
    prompt = render_qa_generative(_qa_input(descriptions, item, duration_s))
    choice, raw = client.generate_parsed(GenerationRequest(prompt, max_new_tokens=16), _letter_index, 2)
    return Prediction(
        question_id=item.question_id,
        choice_index=0 if choice is None else choice,
        classifier="generative",
        raw_output=raw,
        fallback=choice is None,
    )


def answer_loglik(
    descriptions: list[str],
    item: QaItem,
    format: str,
    client: LlmClient,
) -> Prediction:
    """Score every option's continuation and take the argmax.

    The options are scored concurrently through client.map, one score
    request each. An option's score is the raw joint log-probability of
    its continuation. Ties resolve to the lowest option index.
    """
    qa = _qa_input(descriptions, item, duration_s=0.0)
    requests = [
        ScoreRequest(*render_qa_loglik(qa, index, format)) for index in range(len(item.options))
    ]
    scores = client.map(client.score, requests)
    choice = max(range(len(scores)), key=lambda i: (scores[i], -i))
    return Prediction(
        question_id=item.question_id,
        choice_index=choice,
        classifier="loglik",
        per_option_scores=scores,
    )
