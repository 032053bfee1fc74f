"""Draft construction: next-next-token speculation plus retrieval.

The drafter speculates next-next candidates from the last logit (minus
the already-sampled next token) by one rule: a key per token and one
stable sort of the keys, smallest first, ties to the lower id. At
temperature 0 the key is minus the last dist, so the candidates are its
top-k. At temperature > 0 it is the distance from the uniform that will
draw the next-next token to the token's interval of the tempered
last-logit CDF. Should the next-next dist equal the last one, the
nearest is that token, which shared randomness makes a drafter's best
guess at a sample (Daliri, Musco and Suresh 2024); verification does
not change. At temperature > 0 the same CDF inverts the uniforms of the
next depth positions too, in one `searchsorted`: the coupled path, the
tokens the sampler emits should every later dist equal the last one.
It retrieves continuations for the next token (one match_with_fallback
query) and for every candidate (one NGramIndex.match_candidates call
per step), and inserts each path into the draft tree as it drafts it.
The tree is the budget: capacity bounds its draft rows, which is what
verification pays for, so a path costs only the rows it adds.

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
the depth. The coupled path is drafted to the depth as well, so it
grows while its chains verify and shrinks toward the floor when they
fail.
"""

from __future__ import annotations

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


def _check_uniforms(us: list[float]) -> None:
    """Raise ValueError unless every uniform of us lies in [0, 1) (a NaN
    does not)."""
    if not all(0.0 <= u < 1.0 for u in us):
        raise ValueError(f"uniforms must lie in [0, 1), got {us}")


def speculate_next_next(
    last_dist: np.ndarray,
    next_token: int,
    k: int,
    draw: tuple[np.ndarray, list[float]] | None = None,
) -> list[int]:
    """Up to k next-next candidates from the last logit, never the next
    token; a candidate's 0-based rank is its position in the list.

    One rule ranks every temperature: each token gets a key, and the
    tokens come in one stable sort of the keys, smallest first, so ties
    go to the lower id. Without draw (temperature 0) the key is
    -last_dist, so this is the top of last_dist. With draw = (cdf, us),
    the coming draws at temperature > 0 (cdf is
    `models.tempered_cdf(last_dist, temperature)`, which the draw of the
    next token built, and us the uniforms of the positions after it, the
    next-next one first), token j's key is the distance from u = us[0]
    to its interval [cdf[j - 1], cdf[j]): max(u - cdf[j], cdf[j - 1] -
    u, 0). The token whose interval holds u (key 0) is the draw itself
    should the next-next dist equal the last one. A uniform of us outside
    [0, 1) raises ValueError.
    """
    if k <= 0:
        return []
    if draw is None:
        key = -last_dist
    else:
        cdf, us = draw
        _check_uniforms(us)
        u = us[0]
        key = np.maximum(u - cdf, 0.0)
        np.maximum(key[1:], cdf[:-1] - u, out=key[1:])
    # k + 1 tokens, so k remain once next_token is dropped
    top = np.argsort(key, kind="stable")[: k + 1].tolist()
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
    depth: int = DraftConfig.DEPTH_FLOOR,
    draw: tuple[np.ndarray, list[float]] | None = None,
) -> DraftTree:
    """Build the draft tree for one decode step.

    One plain loop passes the next-token retrievals, at temperature > 0
    the coupled path, then one path per candidate in rank order
    (candidate token followed by its most recent retrieved continuation,
    capped by prune_budget; the bare candidate when nothing matches), to
    `DraftTree.insert`, so rows keep the order in which their paths
    first appear. Each path is cut to the cfg.capacity -
    tree.draft_count rows still free, and drafting stops once none is.
    Candidates past that stop are neither probed nor counted in the
    tree's queries.

    Next-token continuations are retrieved at up to depth tokens, and
    one cut short by the source end is drafted as
    `((cont + [next_token]) * depth)[:depth]`. Candidate continuations
    are cut by prune_budget alone.

    draw is the coming draws at temperature > 0: (cdf, us), with cdf the
    tempered CDF of last_dist and us the uniforms of positions
    len(context) + 1 .. len(context) + depth, the next-next one first.
    With it and cfg.top_k > 0, the coupled path
    `cdf.searchsorted(us, side="right")` (its first depth uniforms) is
    drafted: the tokens the sampler emits should every later dist equal
    the last one. It costs no query, and its first row is mostly the
    rank-0 candidate's. draw then passes to `speculate_next_next`, so
    candidates come in the coupled order. A uniform outside [0, 1)
    raises ValueError. Without draw (temperature 0), a next-token query
    that hits at its starting length min(m_start, len(context) + 1)
    drafts its continuations only: no candidate is speculated, probed or
    counted.
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
    if draw is None:
        # a full-length greedy hit rarely loses to a candidate, and
        # greedy verification emits the same tokens whatever the draft
        # holds
        if used_m == m_next:
            return tree
    elif cfg.top_k > 0:
        # the coupled path: the draws of the next depth positions should
        # every later dist equal the last one
        cdf, us = draw
        _check_uniforms(us)
        tree.insert(cdf.searchsorted(us[:depth], side="right").tolist()[: full - len(ids)])
        if len(ids) >= full:
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
