import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langrepo.errors import ShapeMismatch
from langrepo.grouping import match_and_group, split

from reference import reference_match


class TestSplit:
    def test_six_items_third_ratio(self):
        result = split(6, 1 / 3)
        assert result.dst_indices == (1, 4)
        assert result.src_indices == (0, 2, 3, 5)

    def test_single_item_bypasses(self):
        result = split(1, 0.5)
        assert result.dst_indices == ()
        assert result.src_indices == (0,)

    def test_ratio_clamped_for_pairs(self):
        result = split(2, 0.9)
        assert result.dst_indices == (1,)
        assert result.src_indices == (0,)

    @given(p=st.integers(1, 200), ratio=st.floats(0.01, 0.99))
    def test_partition_properties(self, p, ratio):
        result = split(p, ratio)
        dst, src = set(result.dst_indices), set(result.src_indices)
        assert dst | src == set(range(p))
        assert dst & src == set()
        if p >= 2:
            assert 1 <= len(dst) <= p - 1
        assert list(result.dst_indices) == sorted(dst)
        assert list(result.src_indices) == sorted(src)

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(2, 10_000), ratio=st.floats(0.001, 0.999))
    def test_destinations_are_the_q_centered_strides(self, p, ratio):
        q = max(1, min(int(p * ratio + 0.5), p - 1))
        result = split(p, ratio)
        assert len(result.dst_indices) == q
        assert result.dst_indices == tuple(int((j + 0.5) * p / q) for j in range(q))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            split(0, 0.5)
        with pytest.raises(ValueError):
            split(4, 1.0)


def _as_dict(groups):
    return {g.dst_index: list(zip(g.src_indices, g.similarities)) for g in groups}


class TestMatchAndGroup:
    SIM = np.array([[0.9, 0.1], [0.2, 0.8], [0.85, 0.3], [0.1, 0.2]])
    SPLIT = split(6, 1 / 3)

    def test_zero_ratio_groups_nothing(self):
        groups, pass_through = match_and_group(self.SIM, self.SPLIT, 0.0)
        assert groups == []
        assert pass_through == [0, 1, 2, 3, 4, 5]

    def test_full_ratio_groups_every_source(self):
        groups, pass_through = match_and_group(self.SIM, self.SPLIT, 1.0)
        grouped = sum(len(g.src_indices) for g in groups)
        assert grouped == 4
        # only destinations (with or without sources) remain
        assert len(groups) + len(pass_through) == 2

    def test_worked_example(self):
        groups, pass_through = match_and_group(self.SIM, self.SPLIT, 0.5)
        assert _as_dict(groups) == {1: [(0, 0.9), (3, 0.85)]}
        assert pass_through == [2, 4, 5]

    def test_similarities_match_matrix_entries(self):
        groups, _ = match_and_group(self.SIM, self.SPLIT, 1.0)
        src_pos = {s: i for i, s in enumerate(self.SPLIT.src_indices)}
        dst_pos = {d: j for j, d in enumerate(self.SPLIT.dst_indices)}
        for g in groups:
            for s, sim in zip(g.src_indices, g.similarities):
                assert sim == self.SIM[src_pos[s], dst_pos[g.dst_index]]

    def test_tie_prefers_lower_src_index(self):
        sim = np.array([[0.5], [0.5], [0.5]])
        sp = split(4, 0.25)  # dst=(2,), src=(0,1,3)
        groups, pass_through = match_and_group(sim, sp, 0.34)  # g = floor(1.02) = 1
        assert _as_dict(groups) == {2: [(0, 0.5)]}
        assert pass_through == [1, 3]

    def test_argmax_tie_prefers_lower_dst(self):
        sim = np.array([[0.7, 0.7]])
        sp = split(3, 0.67)  # dst=(0, 2), src=(1,)
        groups, _ = match_and_group(sim, sp, 1.0)
        assert [g.dst_index for g in groups] == [0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            match_and_group(np.ones((3, 2)), self.SPLIT, 0.5)

    def test_degenerate_split_passes_through(self):
        groups, pass_through = match_and_group(np.zeros((0, 0)), split(1, 0.5), 0.5)
        assert groups == []
        assert pass_through == [0]


@given(
    p=st.integers(2, 32),
    ratio=st.floats(0.05, 0.95),
    x=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 2**31),
    quantize=st.booleans(),
)
def test_matches_reference_oracle(p, ratio, x, seed, quantize):
    rng = np.random.default_rng(seed)
    sp = split(p, ratio)
    sim = rng.uniform(-1, 1, size=(len(sp.src_indices), len(sp.dst_indices)))
    if quantize:  # force plenty of exact ties
        sim = np.round(sim, 1)
    groups, pass_through = match_and_group(sim, sp, x)
    ref_groups, ref_pass = reference_match(
        sim.tolist(), list(sp.src_indices), list(sp.dst_indices), x
    )
    assert _as_dict(groups) == ref_groups
    assert pass_through == ref_pass


@given(p=st.integers(2, 40), x=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), seed=st.integers(0, 2**31))
def test_conservation_law(p, x, seed):
    rng = np.random.default_rng(seed)
    sp = split(p, 0.25)
    sim = rng.uniform(-1, 1, size=(len(sp.src_indices), len(sp.dst_indices)))
    groups, pass_through = match_and_group(sim, sp, x)
    g = int(x * len(sp.src_indices))
    grouped_sources = sum(len(grp.src_indices) for grp in groups)
    assert grouped_sources == g
    assert grouped_sources + len(pass_through) + len(groups) == p
    # bipartite: grouped sources are sources, group heads are destinations
    src, dst = set(sp.src_indices), set(sp.dst_indices)
    assert all(s in src for grp in groups for s in grp.src_indices)
    assert all(grp.dst_index in dst for grp in groups)
