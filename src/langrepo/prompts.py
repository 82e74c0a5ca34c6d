"""Prompt rendering and strict parsing of structured replies.

Every template is a constant here. Saved repositories record the version
tag of the rephrase and summarize texts, so change the tag with the text.
The multiple-choice QA formats are a generative prompt that asks for a
single letter, and two log-likelihood formats that differ in how much
structure surrounds the scored answer option.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import Template

from .errors import CountMismatch, FormatError, OptionCountError

GROUP_MEMBER_SEPARATOR = " | "
LOGLIK_FORMATS = ("plain", "structured")

REPHRASE_TEMPLATE = Template(
    "Below is a numbered list of ${count} caption groups from one segment of a video."
    ' Captions inside a group are separated by " | " and describe the same thing.\n'
    "Rephrase each group into exactly one concise sentence that keeps every distinct detail"
    " and drops the repetition.\n"
    "Reply with a numbered list of exactly ${count} items, in the same order, one sentence per item,"
    " and nothing else.\n\n${items}"
)

SUMMARIZE_TEMPLATE = Template(
    "The lines below describe one segment of a video in temporal order. A bracketed range is a timestamp"
    " in seconds, and a trailing (xN) marks how many raw captions were merged into that line, so give it"
    " proportional weight.\n\n${lines}\n\n"
    "${question_line}Write a short summary of what happens in this segment. Reply with the summary only."
)

GENERATIVE_QA_TEMPLATE = Template(
    "[INST] <<SYS>> You are a helpful expert in first person view video analysis."
    " <</SYS>> Please provide a single-letter answer (A, B, C, D, E) to the"
    " following multiple-choice question, and your answer must be one of the"
    " letters (A, B, C, D, or E). You must not provide any other response or"
    " explanation. You are given some language descriptions of a first person"
    " view video. The video is ${duration} seconds long. Here are the"
    " descriptions: ${description}.\n You are going to answer a multiple choice"
    " question based on the descriptions, and your answer should be a single"
    " letter chosen from the choices.\n Here is the question: ${question}.\n"
    " Here are the choices.\n${choices} [/INST]"
)

_STRUCTURED_QUESTION = Template(
    "${description} Based on the description above, answer the following"
    " question: ${question}? Select one of these choices as the answer:\n"
)
_STRUCTURED_LEAD_IN = " The correct answer is, "

ITEM_LINE = re.compile(r"^\s*(\d+)[.)]\s*(.*\S)\s*$")


@dataclass(frozen=True)
class QaPromptInput:
    """Everything a multiple-choice QA prompt needs."""

    description: str
    question: str
    options: tuple[str, ...]
    duration_s: float = 0.0


def template_version() -> str:
    """Combined version tag of the rephrase and summarize templates."""
    return "rephrase=v1,summarize=v1"


def option_letter(index: int) -> str:
    if not 0 <= index < 26:
        raise OptionCountError(f"option index {index} out of letter range")
    return chr(ord("A") + index)


def render_rephrase(groups: list[str]) -> str:
    """Prompt asking for one concise sentence per group, as a strict list.

    Each entry of ``groups`` is the member texts of one group already joined
    by GROUP_MEMBER_SEPARATOR, in chunk order.
    """
    if not groups:
        raise ValueError("groups must be non-empty")
    items = "\n".join(f"{i + 1}. {text}" for i, text in enumerate(groups))
    return REPHRASE_TEMPLATE.substitute(count=str(len(groups)), items=items)


def parse_rephrase_output(text: str, expected_n: int) -> list[str]:
    """Parse a strict numbered list ("1. ..." or "1) ...") of rephrasings.

    Raises FormatError for anything that is not a clean 1..n list (prose,
    bullets, wrong numbering) and CountMismatch when the list is well formed
    but has the wrong number of items. Blank lines are tolerated.
    """
    if expected_n < 1:
        raise ValueError("expected_n must be positive")
    items: list[tuple[int, str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        m = ITEM_LINE.match(line)
        if not m:
            raise FormatError(f"line is not a numbered item: {line[:80]!r}")
        items.append((int(m.group(1)), m.group(2).strip()))
    for position, (number, _) in enumerate(items, start=1):
        if number != position:
            raise FormatError(f"item numbering breaks at {number} (expected {position})")
    if len(items) != expected_n:
        raise CountMismatch(f"expected {expected_n} items, got {len(items)}")
    return [text for _, text in items]


def render_summarize(entry_lines: list[str], question: str | None = None) -> str:
    """Prompt summarizing one repository entry's rendered lines.

    When a question is given it is included as conditioning context.
    """
    if not entry_lines:
        raise ValueError("entry_lines must be non-empty")
    question_line = ""
    if question:
        question_line = f"Keep this question in mind and keep details that help answer it: {question}\n"
    return SUMMARIZE_TEMPLATE.substitute(lines="\n".join(entry_lines), question_line=question_line)


def _format_duration(duration_s: float) -> str:
    if float(duration_s).is_integer():
        return str(int(duration_s))
    return f"{duration_s:g}"


def _choices(options: tuple[str, ...]) -> str:
    """One " <letter>: <option>" line per option."""
    return "".join(f" {option_letter(i)}: {text}\n" for i, text in enumerate(options))


def render_qa_generative(qa: QaPromptInput) -> str:
    """Single-letter-answer prompt; fixed to exactly five options."""
    if len(qa.options) != 5:
        raise OptionCountError(f"generative classifier needs 5 options, got {len(qa.options)}")
    return GENERATIVE_QA_TEMPLATE.substitute(
        duration=_format_duration(qa.duration_s),
        description=qa.description,
        question=qa.question,
        choices=_choices(qa.options),
    )


def render_qa_loglik(qa: QaPromptInput, option_index: int, format: str) -> tuple[str, str]:
    """Return (prefix, continuation) for scoring one answer option.

    plain:      "<description> <question> " + the option text.
    structured: description, restated question, the enumerated choices, then
                "The correct answer is, " + "<letter>: <option text>".
    All options of one item share the prefix, so their scores compare.
    """
    if not 0 <= option_index < len(qa.options):
        raise OptionCountError(f"option index {option_index} out of range")
    if format not in LOGLIK_FORMATS:
        raise ValueError(f"format must be one of {LOGLIK_FORMATS}")
    option = qa.options[option_index]
    if format == "plain":
        return f"{qa.description} {qa.question} ", option
    prefix = (
        _STRUCTURED_QUESTION.substitute(description=qa.description, question=qa.question)
        + _choices(qa.options)
        + _STRUCTURED_LEAD_IN
    )
    return prefix, f"{option_letter(option_index)}: {option}"
