import pytest
from hypothesis import given
from hypothesis import strategies as st

from langrepo.errors import CountMismatch, FormatError, OptionCountError
from langrepo.prompts import (
    QaPromptInput,
    parse_rephrase_output,
    render_qa_generative,
    render_qa_loglik,
    render_rephrase,
    render_summarize,
    template_version,
)

OPTIONS = ("opt one", "opt two", "opt three", "opt four", "opt five")


def qa_input(**kw):
    kw.setdefault("description", "C does things.")
    kw.setdefault("question", "What happened")
    kw.setdefault("options", OPTIONS)
    kw.setdefault("duration_s", 180.0)
    return QaPromptInput(**kw)


class TestRenderRephrase:
    def test_contains_numbered_groups_and_count(self):
        prompt = render_rephrase(["a | a'", "b | b' | b''"])
        assert "1. a | a'" in prompt
        assert "2. b | b' | b''" in prompt
        assert "2" in prompt.split("\n")[0]

    def test_single_group_demands_one_item(self):
        prompt = render_rephrase(["only | group"])
        assert "1. only | group" in prompt
        assert "exactly 1 items" in prompt or "1 item" in prompt

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            render_rephrase([])

    def test_text_is_pinned(self):
        # The mock's rephrase reply ignores the prompt, so only this test
        # sees a change to the template's text; the cache keys depend on it.
        assert render_rephrase(["a | a'", "b"]) == (
            "Below is a numbered list of 2 caption groups from one segment of a video."
            ' Captions inside a group are separated by " | " and describe the same thing.\n'
            "Rephrase each group into exactly one concise sentence that keeps every"
            " distinct detail and drops the repetition.\n"
            "Reply with a numbered list of exactly 2 items, in the same order, one"
            " sentence per item, and nothing else.\n"
            "\n"
            "1. a | a'\n"
            "2. b"
        )


class TestParseRephraseOutput:
    def test_canonical(self):
        assert parse_rephrase_output("1. a\n2. b", 2) == ["a", "b"]

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            parse_rephrase_output("1. a\n2. b", 3)

    def test_bullets_rejected(self):
        with pytest.raises(FormatError):
            parse_rephrase_output("- a\n- b", 2)

    def test_paren_numbering_accepted(self):
        assert parse_rephrase_output("1) a\n2) b", 2) == ["a", "b"]

    def test_blank_lines_tolerated(self):
        assert parse_rephrase_output("\n1. a\n\n2. b\n\n", 2) == ["a", "b"]

    def test_prose_interleaved_rejected(self):
        with pytest.raises(FormatError):
            parse_rephrase_output("Here you go:\n1. a\n2. b", 2)

    def test_non_sequential_numbering_rejected(self):
        with pytest.raises(FormatError):
            parse_rephrase_output("1. a\n3. b", 2)
        with pytest.raises(FormatError):
            parse_rephrase_output("2. a\n1. b", 2)

    def test_empty_reply_is_count_mismatch(self):
        with pytest.raises(CountMismatch):
            parse_rephrase_output("", 1)

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                min_size=1,
            )
            .map(str.strip)
            .filter(lambda s: s and "\n" not in s),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip(self, sentences):
        rendered = "\n".join(f"{i + 1}. {s}" for i, s in enumerate(sentences))
        assert parse_rephrase_output(rendered, len(sentences)) == sentences


class TestRenderSummarize:
    def test_lines_verbatim_without_question(self):
        lines = ["[0.0s-1.0s] first", "second (x3)", "third"]
        prompt = render_summarize(lines)
        for line in lines:
            assert line in prompt
        assert "Keep this question in mind" not in prompt

    def test_question_included_once(self):
        prompt = render_summarize(["a line"], question="why did C stand up?")
        assert prompt.count("why did C stand up?") == 1

    def test_empty_lines_rejected(self):
        with pytest.raises(ValueError):
            render_summarize([])

    @pytest.mark.parametrize(
        "question, question_line",
        [
            (None, ""),
            ("What is it?", "Keep this question in mind and keep details that help answer it: What is it?\n"),
        ],
    )
    def test_text_is_pinned(self, question, question_line):
        assert render_summarize(["[0-2] x (x2)", "y"], question) == (
            "The lines below describe one segment of a video in temporal order. A bracketed"
            " range is a timestamp in seconds, and a trailing (xN) marks how many raw"
            " captions were merged into that line, so give it proportional weight.\n"
            "\n"
            "[0-2] x (x2)\n"
            "y\n"
            "\n"
            f"{question_line}Write a short summary of what happens in this segment."
            " Reply with the summary only."
        )


class TestGenerativePrompt:
    def test_begins_with_appendix_header(self):
        prompt = render_qa_generative(qa_input())
        assert prompt.startswith("[INST] <<SYS>> You are a helpful expert")
        assert prompt.endswith("[/INST]")

    def test_four_options_rejected(self):
        with pytest.raises(OptionCountError):
            render_qa_generative(qa_input(options=OPTIONS[:4]))

    def test_newlines_embedded_verbatim(self):
        prompt = render_qa_generative(qa_input(description="line1\nline2"))
        assert "Here are the descriptions: line1\nline2." in prompt

    def test_integral_duration_rendered_bare(self):
        assert "The video is 180 seconds long." in render_qa_generative(qa_input())
        assert "The video is 44.5 seconds long." in render_qa_generative(
            qa_input(duration_s=44.5)
        )

    def test_deterministic(self):
        assert render_qa_generative(qa_input()) == render_qa_generative(qa_input())


class TestLoglikPrompt:
    def test_plain_continuation_is_option_text(self):
        prefix, continuation = render_qa_loglik(qa_input(), 0, "plain")
        assert continuation == OPTIONS[0]
        assert prefix == "C does things. What happened "

    def test_structured_continuation_has_letter(self):
        _, continuation = render_qa_loglik(qa_input(), 2, "structured")
        assert continuation == "C: opt three"

    def test_prefixes_differ_between_formats(self):
        plain_prefix, plain_cont = render_qa_loglik(qa_input(), 1, "plain")
        structured_prefix, structured_cont = render_qa_loglik(qa_input(), 1, "structured")
        assert plain_prefix != structured_prefix
        assert OPTIONS[1] in plain_cont and OPTIONS[1] in structured_cont

    def test_shared_prefix_across_options(self):
        for fmt in ("plain", "structured"):
            prefixes = {render_qa_loglik(qa_input(), i, fmt)[0] for i in range(5)}
            assert len(prefixes) == 1

    def test_structured_enumerates_choices(self):
        prefix, _ = render_qa_loglik(qa_input(), 0, "structured")
        for letter, option in zip("ABCDE", OPTIONS):
            assert f" {letter}: {option}\n" in prefix
        assert prefix.endswith("The correct answer is, ")

    def test_more_than_five_options_supported(self):
        qa = qa_input(options=tuple(f"o{i}" for i in range(7)))
        _, continuation = render_qa_loglik(qa, 6, "structured")
        assert continuation == "G: o6"

    def test_bad_option_index(self):
        with pytest.raises(OptionCountError):
            render_qa_loglik(qa_input(), 9, "plain")

    def test_bad_format(self):
        with pytest.raises(ValueError):
            render_qa_loglik(qa_input(), 0, "fancy")


def test_template_version_is_pinned():
    assert template_version() == "rephrase=v1,summarize=v1"
