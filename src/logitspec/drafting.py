"""Draft construction: next-next-token speculation plus retrieval.

The drafter speculates next-next candidates from the last logit (minus
the already-sampled next token): its top-k at temperature 0, and at
temperature > 0 the tokens whose intervals of the tempered last-logit
CDF lie nearest the uniform that will draw the next-next token. Should
the next-next dist equal the last one, the nearest is that token, which
shared randomness makes a drafter's best guess at a sample (Daliri,
Musco and Suresh 2024); verification does not change. It retrieves
continuations for the next token (one match_with_fallback query) and
for every candidate (one NGramIndex.match_candidates call per step), and
inserts each path into the draft tree as it drafts it. The tree is the
budget: capacity bounds its draft rows, which is what verification pays
for, so a path costs only the rows it adds.

Next-token paths are drafted to the session's draft depth, a budget
that `DraftConfig` owns: it starts at DEPTH_FLOOR, grows by 2 toward
DEPTH_CAP after a step that accepts the whole depth, and shrinks by 1
back toward the floor after any other step (`DraftConfig.next_depth`),
so paths grow only while the step shows it accepts them (Sequoia, Chen
et al. 2024). The index returns continuations of up to depth tokens,
judged distinct at that length, so two that agree on their first depth
tokens are one path. A next-token continuation shorter than the depth ran
into the end of the source. The text from its occurrence to the pending
next token is then one period, so the drafter repeats that period up to
the depth (LZ77's overlapping copy). NGramIndex still returns verbatim
substrings, and candidate paths keep their prune_budget tails whatever
the depth.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .ngram_index import NGramIndex
from .tree import DraftTree

__all__ = [
    "DraftConfig",
    "speculate_next_next",
    "prune_budget",
    "build_draft",
]

# fallback floor for candidate queries: the candidate token itself must
# stay inside the query gram
CANDIDATE_MIN_M = 2


@dataclass(frozen=True)
class DraftConfig:
    """Retrieval drafting knobs: top_k candidates, at most capacity draft
    rows per tree (the root not counted), query grams of <= m_start tokens.

    It also owns the draft depth, the most tokens a next-token path
    drafts. A decode starts each session at DEPTH_FLOOR and moves the
    depth by `next_depth` after every step, never past DEPTH_CAP. The
    schedule is not a knob: its bounds are class constants, so they are
    not fields and not in the report's config."""

    DEPTH_FLOOR: ClassVar[int] = 8
    DEPTH_CAP: ClassVar[int] = 16

    top_k: int = 16
    capacity: int = 60
    m_start: int = 3

    def __post_init__(self) -> None:
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.m_start < 1:
            raise ValueError(f"m_start must be >= 1, got {self.m_start}")

    @classmethod
    def next_depth(cls, depth: int, accepted: int) -> int:
        """The draft depth after a step drafted at depth accepted
        `accepted` draft tokens: 2 deeper, up to DEPTH_CAP, when it
        accepted all of depth, and 1 shallower, down to DEPTH_FLOOR,
        otherwise."""
        if accepted >= depth:
            return min(depth + 2, cls.DEPTH_CAP)
        return max(depth - 1, cls.DEPTH_FLOOR)


def speculate_next_next(
    last_dist: np.ndarray,
    next_token: int,
    k: int,
    draw: tuple[np.ndarray, float] | None = None,
) -> list[int]:
    """Up to k next-next candidates from the last logit, never the next
    token; a candidate's 0-based rank is its position in the list.

    Without draw (temperature 0): the top of last_dist in descending
    probability, ties to the lower id. With draw = (cdf, u), the coming
    next-next draw at temperature > 0 (cdf is
    `models.tempered_cdf(last_dist, temperature)`, which the draw of the
    next token built, and u the uniform that will draw the next-next
    token): tokens by the distance from u to their interval of cdf,
    nearest first, ties to the lower id. The token whose interval holds
    u (distance 0) is the draw itself should the next-next dist equal
    the last one.
    """
    if k <= 0:
        return []
    if draw is None:
        top = np.argsort(-last_dist, kind="stable")[: k + 1].tolist()
        if next_token in top:
            top.remove(next_token)
        return top[:k]
    cdf, u = draw
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must be in [0, 1), got {u}")
    return _nearest_intervals(cdf.tolist(), u, next_token, k)


def _nearest_intervals(cdf: list[float], u: float, skip: int, k: int) -> list[int]:
    """The k tokens other than skip whose intervals [cdf[j - 1], cdf[j])
    lie nearest u, nearest first, ties to the lower id.

    Token j's distance is u - cdf[j] left of the token holding u, 0 for
    that token and cdf[j - 1] - u right of it, so distances grow on each
    side and the order is a two-sided merge out from the holder, O(k)
    after the bisection. A tie across the sides goes left (the lower
    id), and a run of equal distances on the left comes lowest id first.
    """
    n = len(cdf)
    hi = bisect_right(cdf, u)  # the next right token, the holder first
    lo = hi - 1  # the next left token
    d_hi = 0.0 if hi < n else math.inf
    d_lo = u - cdf[lo] if lo >= 0 else math.inf
    out: list[int] = []
    append = out.append
    # k + 1 tokens, so k remain once skip is dropped
    for _ in range(k + 1):
        if d_lo <= d_hi:
            if lo < 0:  # both sides are exhausted
                break
            start = lo
            d = u - cdf[start - 1] if start else math.inf
            while d == d_lo:
                start -= 1
                d = u - cdf[start - 1] if start else math.inf
            if start == lo:
                append(lo)
            else:
                out += range(start, lo + 1)
            lo, d_lo = start - 1, d
        else:
            append(hi)
            hi += 1
            d_hi = cdf[hi - 1] - u if hi < n else math.inf
    if skip in out:
        out.remove(skip)
    return out[:k]


def prune_budget(rank: int) -> int:
    """Token budget for one candidate sequence (candidate included) as a
    function of its candidate rank (`speculate_next_next` order)."""
    if rank < 0:
        raise ValueError(f"rank must be >= 0, got {rank}")
    if rank < 8:
        return 4
    if rank < 32:
        return 3
    return 1


def build_draft(
    index: NGramIndex,
    context: list[int],
    next_token: int,
    last_dist: np.ndarray,
    cfg: DraftConfig,
    *,
    depth: int = DraftConfig.DEPTH_FLOOR,
    draw: tuple[np.ndarray, float] | None = None,
) -> DraftTree:
    """Build the draft tree for one decode step.

    One plain loop passes the next-token retrievals, then one path per
    candidate in rank order (candidate token followed by its most recent
    retrieved continuation, capped by prune_budget; the bare candidate
    when nothing matches), to `DraftTree.insert`, so rows keep the order
    in which their paths first appear. Each path is cut to the
    cfg.capacity - tree.draft_count rows still free, and drafting stops
    once none is. Candidates past that stop are neither probed nor
    counted in the tree's queries.

    Next-token continuations are retrieved at up to depth tokens, and
    one cut short by the source end is drafted as
    `((cont + [next_token]) * depth)[:depth]`. Candidate continuations
    are cut by prune_budget alone.

    draw passes to `speculate_next_next`: at temperature > 0 it is the
    coming next-next draw, (the tempered CDF of last_dist, the uniform of
    position len(context) + 1), and candidates come in the coupled
    order. Without it (temperature 0), a next-token query that hits at
    its starting length min(m_start, len(context) + 1) drafts its
    continuations only: no candidate is speculated, probed or counted.
    """
    # queries read at most m_start tokens back, so only the context's
    # tail is copied
    suffix = context[-cfg.m_start :] + [next_token]
    m_next = min(cfg.m_start, len(suffix))
    found, used_m = index.match_with_fallback(suffix, m_next, depth)
    tree = DraftTree(len(context), [next_token], [-1], queries=1, hits=int(bool(found)))
    # draft_ids holds the root, then one id per draft row
    ids, full = tree.draft_ids, cfg.capacity + 1
    for cont in found:
        if len(cont) < depth:
            # cut by the source end: repeat its period
            cont = ((cont + [next_token]) * depth)[:depth]
        tree.insert(cont[: full - len(ids)])
        if len(ids) >= full:
            return tree
    # a full-length greedy hit rarely loses to a candidate, and greedy
    # verification emits the same tokens whatever the draft holds
    if draw is None and used_m == m_next:
        return tree

    candidates = speculate_next_next(last_dist, next_token, cfg.top_k, draw)
    if not candidates:
        return tree
    # one index call serves every candidate query suffix + [cand],
    # floored at CANDIDATE_MIN_M, at the longest tail prune_budget keeps
    m_start = min(cfg.m_start, len(suffix) + 1)
    continuations = index.match_candidates(
        suffix, candidates, m_start, prune_budget(0) - 1, min(CANDIDATE_MIN_M, m_start)
    )
    for rank, cont in enumerate(continuations):
        tree.queries += 1
        path = [candidates[rank]]
        if cont:
            tree.hits += 1
            path += cont[: prune_budget(rank) - 1]
        tree.insert(path[: full - len(ids)])
        if len(ids) >= full:
            break
    return tree
