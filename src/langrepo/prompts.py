"""Prompt rendering and strict parsing of structured replies.

Rephrase and summarize templates are versioned text assets shipped under
assets/prompts/ (leading "#" lines are metadata, stripped at load). The
multiple-choice QA formats are fixed strings: a generative prompt that asks
for a single letter, and two log-likelihood formats that differ in how much
structure surrounds the scored answer option.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from string import Template

from .errors import CountMismatch, FormatError, OptionCountError

GROUP_MEMBER_SEPARATOR = " | "
LOGLIK_FORMATS = ("plain", "structured")

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
    " Here are the choices.\n A: ${optionA}\n B: ${optionB}\n C: ${optionC}\n"
    " D: ${optionD}\n E: ${optionE}\n [/INST]"
)

_STRUCTURED_QUESTION = Template(
    "${description} Based on the description above, answer the following"
    " question: ${question}? Select one of these choices as the answer:\n"
)
_STRUCTURED_LEAD_IN = " The correct answer is, "

ITEM_LINE = re.compile(r"^\s*(\d+)[.)]\s*(.*\S)\s*$")
_VERSION_LINE = re.compile(r"#\s*template:\s*(\S+)\s+(\S+)")


@dataclass(frozen=True)
class QaPromptInput:
    """Everything a multiple-choice QA prompt needs."""

    description: str
    question: str
    options: tuple[str, ...]
    duration_s: float = 0.0


@lru_cache(maxsize=None)
def _load_asset(name: str) -> tuple[str, str]:
    """Return (template text, version) for a packaged prompt asset."""
    raw = resources.files("langrepo").joinpath(f"assets/prompts/{name}.txt").read_text("utf-8")
    version = "unversioned"
    body_lines = []
    for line in raw.splitlines():
        if line.startswith("#"):
            m = _VERSION_LINE.match(line)
            if m:
                version = m.group(2)
            continue
        body_lines.append(line)
    return "\n".join(body_lines).strip("\n"), version


def template_version() -> str:
    """Combined version tag of the shipped rephrase/summarize templates."""
    return ",".join(f"{name}={_load_asset(name)[1]}" for name in ("rephrase", "summarize"))


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
    return Template(_load_asset("rephrase")[0]).substitute(count=str(len(groups)), items=items)


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
    return Template(_load_asset("summarize")[0]).substitute(lines="\n".join(entry_lines), question_line=question_line)


def _format_duration(duration_s: float) -> str:
    if float(duration_s).is_integer():
        return str(int(duration_s))
    return f"{duration_s:g}"


def render_qa_generative(qa: QaPromptInput) -> str:
    """Single-letter-answer prompt; fixed to exactly five options."""
    if len(qa.options) != 5:
        raise OptionCountError(f"generative classifier needs 5 options, got {len(qa.options)}")
    return GENERATIVE_QA_TEMPLATE.substitute(
        duration=_format_duration(qa.duration_s),
        description=qa.description,
        question=qa.question,
        optionA=qa.options[0],
        optionB=qa.options[1],
        optionC=qa.options[2],
        optionD=qa.options[3],
        optionE=qa.options[4],
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
    choices = "".join(
        f" {option_letter(i)}: {text}\n" for i, text in enumerate(qa.options)
    )
    prefix = (
        _STRUCTURED_QUESTION.substitute(description=qa.description, question=qa.question)
        + choices
        + _STRUCTURED_LEAD_IN
    )
    return prefix, f"{option_letter(option_index)}: {option}"
