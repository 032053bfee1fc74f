"""Draft construction: next-next-token speculation plus retrieval.

The drafter speculates next-next candidates from the last logit (minus
the already-sampled next token): one stable sort of the per-token keys
of the decode's draw rule (`models.Greedy`, `models.InverseCDF`),
smallest first, ties to the lower id, ranks them. Greedy's keys give
the last dist's top-k; inverse-CDF's put first the token the sampler
draws at the next-next position should that dist equal the last one.
The rule also drafts its coupled path, its draws at the next depth
positions should every later dist equal the last one (none at
temperature 0). It retrieves continuations for the next token (one
match_with_fallback query) and for every candidate (one
NGramIndex.match_candidates call per step), and inserts each path into
the draft tree as it drafts it.
The tree is the budget: capacity bounds its draft rows, which is what
verification pays for, so a path costs only the rows it adds.

Next-token paths are drafted to the session's draft depth, a budget that
`DraftConfig.next_depth` moves after every step, so paths grow only
while the step shows it accepts them (Sequoia, Chen et al. 2024). The
index returns continuations of up to depth tokens, judged distinct at
that length, so two that agree on their first depth tokens are one path.
A next-token continuation shorter than the depth ran into the end of the
source. The text from its occurrence to the pending next token is then
one period, so the drafter repeats that period up to the depth (LZ77's
overlapping copy). NGramIndex still returns verbatim substrings, and
candidate paths keep their prune_budget tails whatever the depth. The
coupled path is drafted to the depth as well, so it grows while its
chains verify and shrinks toward the floor when they fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .models import GREEDY, Rule
from .ngram_index import NGramIndex
from .tree import DraftTree

__all__ = [
    "DraftConfig",
    "speculate_next_next",
    "prune_budget",
    "build_draft",
]

# fallback floor for candidate queries, which end in the candidate: the
# pending next token must stay inside the query gram
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
    last_dist: np.ndarray, next_token: int, k: int, rule: Rule = GREEDY, pos: int = 0
) -> list[int]:
    """Up to k next-next candidates from the last logit, never the next
    token, in one stable sort of `rule.key(last_dist, pos)`, smallest
    first (ties to the lower id); a candidate's 0-based rank is its
    position in the list. pos is the position the next-next token is
    drawn at (the context length + 1), which only a rule that reads
    uniforms uses."""
    if k <= 0:
        return []
    # k + 1 tokens, so k remain once next_token is dropped
    top = np.argsort(rule.key(last_dist, pos), kind="stable")[: k + 1].tolist()
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
    rule: Rule = GREEDY,
) -> DraftTree:
    """Build the draft tree for one decode step.

    One plain loop passes the next-token retrievals, the rule's coupled
    path when cfg.top_k > 0, then one path per candidate in rank order
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

    rule is the decode's draw rule; the next-next token is drawn at
    position len(context) + 1. The coupled path costs no query, and its
    first row is mostly the rank-0 candidate's. When
    rule.stops_at_full_hit (greedy), a next-token query that hits at its
    starting length min(m_start, len(context) + 1) ends the draft.
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
    if rule.stops_at_full_hit and used_m == m_next:
        return tree
    pos = len(context) + 1
    if cfg.top_k > 0:
        tree.insert(rule.path(last_dist, pos, depth)[: full - len(ids)])
        if len(ids) >= full:
            return tree

    candidates = speculate_next_next(last_dist, next_token, cfg.top_k, rule, pos)
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
