"""Independent reference implementations used as test oracles.

Pure-Python loops only; deliberately kept free of the library's matching
code so the two routes can disagree.
"""

import dataclasses
import json
import math


def reference_match(sim_rows, src_ids, dst_ids, x):
    """Exhaustive matcher: every source scans every destination.

    Returns ({dst_id: [(src_id, similarity), ...]}, pass_through) with group
    members in ascending source order. Selection: the floor(x * |src|)
    sources with the highest best-match similarity, ties to the lower
    source id; argmax ties to the lower destination column.
    """
    n_src = len(src_ids)
    best = []
    for r in range(n_src):
        best_col = 0
        best_sim = sim_rows[r][0]
        for c in range(1, len(dst_ids)):
            if sim_rows[r][c] > best_sim:
                best_sim = sim_rows[r][c]
                best_col = c
        best.append((best_sim, best_col))

    g = math.floor(x * n_src)
    order = sorted(range(n_src), key=lambda r: (-best[r][0], src_ids[r]))
    chosen = set(order[:g])

    groups = {}
    for r in sorted(chosen, key=lambda r: src_ids[r]):
        dst = dst_ids[best[r][1]]
        groups.setdefault(dst, []).append((src_ids[r], best[r][0]))

    pass_through = sorted(
        [src_ids[r] for r in range(n_src) if r not in chosen]
        + [d for d in dst_ids if d not in groups]
    )
    return groups, pass_through


def reference_canonical_json(repo):
    """A saved repository's bytes as json.dumps writes them: the payload
    to_canonical_json serialized with json.dumps, whose indented encoder is
    pure Python."""
    scales = [
        [{"chunk_index": entry.chunk_index, "descriptions": list(map(dataclasses.asdict, entry.descriptions))} for entry in scale]
        for scale in repo.scales
    ]
    payload = {"schema_version": 1, "video_id": repo.video_id, "duration_s": float(repo.duration_s),
               "config": vars(repo.config), "provenance": repo.provenance, "scales": scales}
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
