import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from langrepo.errors import OptionCountError
from langrepo.llm import LlmClient, MockBackend
from langrepo.prompts import QaPromptInput, render_qa_generative
from langrepo.vqa import QaItem, answer_generative, answer_loglik

OPTIONS = ["first option", "second option", "third option", "fourth option", "fifth option"]


def item(**kw):
    kw.setdefault("question_id", "q1")
    kw.setdefault("video_id", "vid")
    kw.setdefault("question", "What is C doing")
    kw.setdefault("options", list(OPTIONS))
    return QaItem(**kw)


class IndexScoreBackend(MockBackend):
    """Scores options by position using a fixed vector; optional constant shift."""

    def __init__(self, vector, shift=0.0):
        super().__init__()
        self.vector = list(vector)
        self.shift = shift

    def score(self, prefix, continuation):
        for i, option in enumerate(OPTIONS):
            if option in continuation:
                return self.vector[i] + self.shift
        raise AssertionError(f"unexpected continuation {continuation!r}")


class BarrierBackend(MockBackend):
    """Each score waits until `parties` scores are in flight together."""

    def __init__(self, parties):
        super().__init__()
        self.barrier = threading.Barrier(parties, timeout=5)
        self.lock = threading.Lock()
        self.inflight = 0
        self.peak = 0

    def score(self, prefix, continuation):
        with self.lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            self.barrier.wait()
        finally:
            with self.lock:
                self.inflight -= 1
        return super().score(prefix, continuation)


class TestAnswerGenerative:
    def run(self, reply, descriptions=("C stands.",)):
        qa = item()
        prompt = render_qa_generative(
            QaPromptInput(
                description="\n".join(descriptions),
                question=qa.question,
                options=tuple(qa.options),
                duration_s=180.0,
            )
        )
        client = LlmClient(MockBackend(scripted={prompt: reply}))
        return answer_generative(list(descriptions), qa, 180.0, client), client

    def test_bare_letter(self):
        prediction, _ = self.run("B")
        assert prediction.choice_index == 1
        assert prediction.raw_output == "B"
        assert not prediction.fallback

    def test_letter_in_prose(self):
        prediction, _ = self.run("The answer is (C).")
        assert prediction.choice_index == 2

    def test_lowercase_letter(self):
        prediction, _ = self.run("the answer: d")
        assert prediction.choice_index == 3

    def test_unparseable_falls_back_after_reask(self):
        prediction, client = self.run("none of these")
        assert prediction.choice_index == 0
        assert prediction.fallback
        assert client.ledger.snapshot()["qa"] == 2  # original ask plus one re-ask

    def test_four_options_rejected(self):
        with pytest.raises(OptionCountError):
            answer_generative(["d"], item(options=OPTIONS[:4]), 10.0, LlmClient(MockBackend()))

    def test_classifier_tag(self):
        prediction, _ = self.run("A")
        assert prediction.classifier == "generative"


class TestAnswerLoglik:
    def test_argmax(self):
        backend = IndexScoreBackend([-5, -2, -7, -9, -3])
        prediction = answer_loglik(["desc"], item(), "plain", LlmClient(backend))
        assert prediction.choice_index == 1
        assert prediction.per_option_scores == [-5, -2, -7, -9, -3]

    @pytest.mark.parametrize("n_options, max_parallel", [(5, 8), (6, 3), (4, 4)])
    def test_options_scored_concurrently(self, n_options, max_parallel):
        parties = min(n_options, max_parallel)
        backend = BarrierBackend(parties)
        options = [f"option{'s' * i}" for i in range(n_options)]
        client = LlmClient(backend, max_parallel=max_parallel)
        prediction = answer_loglik(["desc"], item(options=options), "plain", client)
        assert backend.peak == parties
        assert prediction.per_option_scores == [-len(o) / 10 for o in options]
        assert prediction.choice_index == 0

    def test_tie_takes_lowest_index(self):
        backend = IndexScoreBackend([-2, -2, -9, -9, -9])
        prediction = answer_loglik(["desc"], item(), "plain", LlmClient(backend))
        assert prediction.choice_index == 0

    def test_default_mock_rule_prefers_shortest(self):
        options = ["tiny", "a medium option", "a very very long option text", "even longer option than that", "x" * 50]
        prediction = answer_loglik(["desc"], item(options=options), "plain", LlmClient(MockBackend()))
        assert prediction.choice_index == 0

    def test_both_formats_give_predictions(self):
        for fmt in ("plain", "structured"):
            prediction = answer_loglik(["desc"], item(), fmt, LlmClient(MockBackend()))
            assert prediction.classifier == "loglik"
            assert len(prediction.per_option_scores) == 5

    def test_three_option_item_supported(self):
        backend = MockBackend(scripted_scores={})
        prediction = answer_loglik(["d"], item(options=["aa", "b", "cccc"]), "plain", LlmClient(backend))
        assert prediction.choice_index == 1  # shortest under the default rule

    # quarter-integer grid keeps float addition exact, so the invariance
    # holds bit-for-bit
    @given(
        st.lists(st.integers(-200, 200).map(lambda n: n / 4), min_size=5, max_size=5),
        st.integers(-80, 80).map(lambda n: n / 4),
    )
    def test_constant_shift_invariance(self, vector, shift):
        base = answer_loglik(["d"], item(), "plain", LlmClient(IndexScoreBackend(vector)))
        shifted = answer_loglik(["d"], item(), "plain", LlmClient(IndexScoreBackend(vector, shift)))
        assert base.choice_index == shifted.choice_index

    def test_deterministic(self):
        a = answer_loglik(["d1", "d2"], item(), "structured", LlmClient(MockBackend()))
        b = answer_loglik(["d1", "d2"], item(), "structured", LlmClient(MockBackend()))
        assert a == b

    def test_length_normalization_discounts_long_options(self):
        options = ["ab", "abcdefghijklmnopqrst"]
        scores = {"ab": -1.0, "abcdefghijklmnopqrst": -3.0}

        class ByOption(MockBackend):
            def score(self, prefix, continuation):
                return scores[continuation]

        it = item(options=options)
        raw = answer_loglik(["d"], it, "plain", LlmClient(ByOption()))
        assert raw.choice_index == 0  # -1.0 beats -3.0
        normalized = answer_loglik(["d"], it, "plain", LlmClient(ByOption()), length_normalize=True)
        assert normalized.choice_index == 1  # -3/20 beats -1/2

    def test_descriptions_joined_with_newline(self):
        seen = {}

        class CapturingBackend(MockBackend):
            def score(self, prefix, continuation):
                seen["prefix"] = prefix
                return super().score(prefix, continuation)

        answer_loglik(["line one", "line two"], item(), "plain", LlmClient(CapturingBackend()))
        assert seen["prefix"].startswith("line one\nline two ")


class TestQaItem:
    def test_too_few_options(self):
        with pytest.raises(OptionCountError):
            item(options=["only"])

    def test_answer_index_range(self):
        with pytest.raises(ValueError):
            item(answer_index=9)

    def test_generative_compatible(self):
        assert item().generative_compatible
        assert not item(options=["a", "b", "c"]).generative_compatible


def test_generative_and_loglik_share_description_text():
    descriptions = ["alpha", "beta"]
    qa = item()
    joined = {}

    class SpyBackend(MockBackend):
        def complete(self, req):
            joined["generative"] = req.prompt
            return "A"

        def score(self, prefix, continuation):
            joined["loglik"] = prefix
            return -1.0

    client = LlmClient(SpyBackend())
    answer_generative(descriptions, qa, 10.0, client)
    answer_loglik(descriptions, qa, "plain", client)
    assert "alpha\nbeta" in joined["generative"]
    assert joined["loglik"].startswith("alpha\nbeta")
