import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from langrepo.errors import EmptyInput, MalformedFile, UnsupportedFactor
from langrepo.ingest import RepoDescription, chunk_captions, load_captions, split_counts, transform_rate

from conftest import make_caption_set, write_caption_file


class TestLoadCaptions:
    def test_loads_and_sorts(self, tmp_path):
        payload = {
            "video_id": "v",
            "duration_s": 10,
            "captions": [
                {"id": "b", "start_s": 5, "end_s": 6, "text": "later"},
                {"id": "a", "start_s": 0, "end_s": 1, "text": "earlier"},
            ],
        }
        path = tmp_path / "caps.json"
        path.write_text(json.dumps(payload))
        cs = load_captions(path)
        assert len(cs.captions) == 2
        assert [c.id for c in cs.captions] == ["a", "b"]
        assert cs.duration_s == 10.0

    def test_empty_captions_array(self, tmp_path):
        path = tmp_path / "caps.json"
        path.write_text(json.dumps({"video_id": "v", "duration_s": 1, "captions": []}))
        with pytest.raises(EmptyInput):
            load_captions(path)

    def test_missing_end_s(self, tmp_path):
        payload = {
            "video_id": "v",
            "duration_s": 1,
            "captions": [{"id": "a", "start_s": 0, "text": "x"}],
        }
        path = tmp_path / "caps.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedFile):
            load_captions(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "caps.json"
        path.write_text("{not json")
        with pytest.raises(MalformedFile):
            load_captions(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            {"end_s": -1.0},  # ends before start
            {"text": ""},
            {"start_s": -2.0, "end_s": -1.0},
        ],
    )
    def test_bad_caption_fields(self, tmp_path, mutate):
        cap = {"id": "a", "start_s": 0.0, "end_s": 1.0, "text": "x"}
        cap.update(mutate)
        path = tmp_path / "caps.json"
        path.write_text(json.dumps({"video_id": "v", "duration_s": 9, "captions": [cap]}))
        with pytest.raises(MalformedFile):
            load_captions(path)

    def test_duration_shorter_than_captions(self, tmp_path):
        payload = {
            "video_id": "v",
            "duration_s": 0.5,
            "captions": [{"id": "a", "start_s": 0, "end_s": 1, "text": "x"}],
        }
        path = tmp_path / "caps.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedFile):
            load_captions(path)

    def test_duplicate_ids(self, tmp_path):
        caps = [
            {"id": "a", "start_s": 0, "end_s": 1, "text": "x"},
            {"id": "a", "start_s": 1, "end_s": 2, "text": "y"},
        ]
        path = tmp_path / "caps.json"
        path.write_text(json.dumps({"video_id": "v", "duration_s": 9, "captions": caps}))
        with pytest.raises(MalformedFile):
            load_captions(path)

    def test_round_trip_through_file(self, tmp_path):
        cs = make_caption_set(7)
        path = write_caption_file(tmp_path / "caps.json", cs)
        assert load_captions(path) == cs


class TestChunkCaptions:
    def test_even_split(self):
        chunks = chunk_captions(make_caption_set(12), 3)
        assert [len(c.descriptions) for c in chunks] == [4, 4, 4]

    def test_remainder_goes_first(self):
        chunks = chunk_captions(make_caption_set(13), 3)
        assert [len(c.descriptions) for c in chunks] == [5, 4, 4]

    def test_clamps_to_caption_count(self):
        chunks = chunk_captions(make_caption_set(2), 5)
        assert [len(c.descriptions) for c in chunks] == [1, 1]

    def test_indices_sequential(self):
        chunks = chunk_captions(make_caption_set(10), 4)
        assert [c.chunk_index for c in chunks] == [0, 1, 2, 3]

    @given(total=st.integers(1, 200), n=st.integers(1, 40))
    def test_concatenation_identity_and_balance(self, total, n):
        cs = make_caption_set(total)
        chunks = chunk_captions(cs, n)
        flattened = [item for chunk in chunks for item in chunk.descriptions]
        assert flattened == [RepoDescription(c.text, [[c.start_s, c.end_s]]) for c in cs.captions]
        sizes = [len(c.descriptions) for c in chunks]
        assert len(chunks) == min(n, total)
        assert max(sizes) - min(sizes) <= 1
        # remainder sits in the earliest chunks
        assert sizes == sorted(sizes, reverse=True)

    def test_split_counts_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_counts(5, 0)

    def test_split_counts_rejects_zero_items(self):
        with pytest.raises(ValueError, match="cannot split 0 items"):
            split_counts(0, 3)


class TestTransformRate:
    def test_half_keeps_even_indices(self):
        cs = make_caption_set(8)
        out = transform_rate(cs, 0.5)
        assert [c.id for c in out.captions] == [f"c{i:03d}" for i in (0, 2, 4, 6)]

    def test_identity(self):
        cs = make_caption_set(5)
        assert transform_rate(cs, 1.0) == cs

    def test_double_duplicates_adjacently(self):
        cs = make_caption_set(3)
        out = transform_rate(cs, 2.0)
        assert len(out.captions) == 6
        for i in range(3):
            first, second = out.captions[2 * i], out.captions[2 * i + 1]
            assert first.id == f"c{i:03d}"
            assert second.id == f"c{i:03d}-dup"
            assert first.text == second.text
            assert (first.start_s, first.end_s) == (second.start_s, second.end_s)

    def test_unknown_factor(self):
        with pytest.raises(UnsupportedFactor):
            transform_rate(make_caption_set(3), 3.0)

    @given(p=st.integers(1, 99))
    def test_sizes(self, p):
        cs = make_caption_set(p)
        assert len(transform_rate(cs, 0.5).captions) == (p + 1) // 2
        assert len(transform_rate(cs, 2.0).captions) == 2 * p
