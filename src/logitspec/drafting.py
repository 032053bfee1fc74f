"""Draft construction: next-next-token speculation plus retrieval.

The drafter speculates next-next candidates from the top of the last
logit (minus the already-sampled next token), retrieves continuations for
the next token (one match_with_fallback query) and for every candidate
(one NGramIndex.match_candidates call per step), and inserts each path
into the draft tree as it drafts it. The tree is the budget: capacity
bounds its draft rows, which is what verification pays for, so a path
costs only the rows it adds.

A next-token continuation shorter than the index's value_len ran into
the end of the source. The text from its occurrence to the pending next
token is then one period, so the drafter repeats that period up to
value_len tokens (LZ77's overlapping copy). NGramIndex still returns
verbatim substrings, and candidate paths are not extended.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    rows per tree (the root not counted), query grams of <= m_start tokens."""

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


def speculate_next_next(last_dist: np.ndarray, next_token: int, k: int) -> list[int]:
    """Top-k tokens of the last logit excluding the next token, in
    descending probability (ties broken by lower id); a token's 0-based
    rank is its position in the list."""
    if k <= 0:
        return []
    top = np.argsort(-last_dist, kind="stable")[: k + 1].tolist()
    if next_token in top:
        top.remove(next_token)
    return top[:k]


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
    greedy: bool = False,
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

    A next-token continuation cut short by the source end is drafted as
    `((cont + [next_token]) * index.value_len)[: index.value_len]`.

    With greedy (temperature-0 decoding), a next-token query that hits
    at its starting length min(m_start, len(context) + 1) drafts its
    continuations only: no candidate is speculated, probed or counted.
    """
    # queries read at most m_start tokens back, so only the context's
    # tail is copied
    suffix = context[-cfg.m_start :] + [next_token]
    m_next = min(cfg.m_start, len(suffix))
    found, used_m = index.match_with_fallback(suffix, m_next)
    tree = DraftTree(len(context), [next_token], [-1], queries=1, hits=int(bool(found)))
    # draft_ids holds the root, then one id per draft row
    ids, full = tree.draft_ids, cfg.capacity + 1
    for cont in found:
        if len(cont) < index.value_len:
            # cut by the source end: repeat its period
            cont = ((cont + [next_token]) * index.value_len)[: index.value_len]
        tree.insert(cont[: full - len(ids)])
        if len(ids) >= full:
            return tree
    # a full-length greedy hit rarely loses to a candidate, and greedy
    # verification emits the same tokens whatever the draft holds
    if greedy and used_m == m_next:
        return tree

    candidates = speculate_next_next(last_dist, next_token, cfg.top_k)
    if not candidates:
        return tree
    # one index call serves every candidate query suffix + [cand],
    # floored at CANDIDATE_MIN_M
    m_start = min(cfg.m_start, len(suffix) + 1)
    continuations = index.match_candidates(
        suffix, candidates, m_start, min_m=min(CANDIDATE_MIN_M, m_start)
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
