"""Redundancy pruning core: split a chunk, match sources to destinations,
and group the most similar sources under their matched destination.

Destinations are sampled uniformly across the chunk's temporal span; every
other position is a source. Each source is matched to its most similar
destination, and the top fraction of sources by best-match similarity is
merged; everything else passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch


@dataclass(frozen=True)
class SplitResult:
    """Chunk-local index partition into destination and source positions."""

    dst_indices: tuple[int, ...]
    src_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.dst_indices) + len(self.src_indices)


@dataclass
class CaptionGroup:
    """One destination plus the sources merged into it.

    similarities[i] is the matrix entry for (src_indices[i], dst_index).
    """

    dst_index: int
    src_indices: list[int] = field(default_factory=list)
    similarities: list[float] = field(default_factory=list)

    def members(self) -> list[int]:
        """All chunk-local member positions, destination included, in temporal order."""
        return sorted([self.dst_index, *self.src_indices])


def split(p: int, dst_ratio: float) -> SplitResult:
    """Pick q destination positions spread uniformly over 0..p-1.

    q = round(p * dst_ratio), clamped to [1, p-1]; position j of q sits at
    floor((j + 0.5) * p / q), the centered-stride sample. A single-item
    chunk has no destinations and bypasses grouping entirely.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0.0 < dst_ratio < 1.0:
        raise ValueError("dst_ratio must be in (0, 1)")
    if p == 1:
        return SplitResult(dst_indices=(), src_indices=(0,))

    q = int(p * dst_ratio + 0.5)
    q = max(1, min(q, p - 1))
    # For q < p consecutive strides lie p / q > 1 apart, so the positions
    # are distinct and ascending.
    dst = [int((j + 0.5) * p / q) for j in range(q)]
    taken = set(dst)
    src = [i for i in range(p) if i not in taken]
    return SplitResult(dst_indices=tuple(dst), src_indices=tuple(src))


def match_and_group(
    sim: np.ndarray, split_result: SplitResult, x: float
) -> tuple[list[CaptionGroup], list[int]]:
    """Group the top x fraction of sources under their best-match destination.

    sim has one row per source and one column per destination, aligned with
    the split's sorted index tuples. Exactly g = floor(x * |src|) sources are
    grouped: those with the highest best-match similarity, ties resolved in
    favor of the lower source index. Returns the non-empty groups (ordered
    by destination index) and the pass-through positions: ungrouped sources
    plus destinations that attracted no source.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    src_ids = split_result.src_indices
    dst_ids = split_result.dst_indices
    if not dst_ids or not src_ids:
        return [], sorted(src_ids + dst_ids)

    sim = np.asarray(sim, dtype=np.float64)
    if sim.shape != (len(src_ids), len(dst_ids)):
        raise ShapeMismatch(
            f"similarity shape {sim.shape} does not match split "
            f"({len(src_ids)} src, {len(dst_ids)} dst)"
        )

    best_col = np.argmax(sim, axis=1)  # ties: lowest destination index
    best_sim = sim[np.arange(len(src_ids)), best_col]

    g = int(x * len(src_ids))
    order = sorted(range(len(src_ids)), key=lambda r: (-best_sim[r], src_ids[r]))
    grouped_rows = order[:g]

    by_dst: dict[int, CaptionGroup] = {}
    for row in sorted(grouped_rows, key=lambda r: src_ids[r]):
        dst_index = dst_ids[int(best_col[row])]
        group = by_dst.setdefault(dst_index, CaptionGroup(dst_index=dst_index))
        group.src_indices.append(src_ids[row])
        group.similarities.append(float(best_sim[row]))

    groups = [by_dst[d] for d in sorted(by_dst)]
    grouped_src = {s for grp in groups for s in grp.src_indices}
    pass_through = sorted(
        [s for s in src_ids if s not in grouped_src]
        + [d for d in dst_ids if d not in by_dst]
    )
    return groups, pass_through
