"""Draft construction: next-next-token speculation plus retrieval.

The drafter speculates next-next candidates from the top of the last
logit (minus the already-sampled next token), retrieves continuations for
the next token (one match_with_fallback query) and for every candidate
(one NGramIndex.match_candidates call per step), and assembles the
proposed sequences, overlaps included (the draft tree merges them), under
a fixed token budget with a rank-tiered per-candidate cap. One plain
loop assembles the draft: the next-token sequences, then each candidate
as match_candidates yields its continuation, so candidates past an
exhausted budget are never speculated or probed. A DraftSet records how
many sequences came from the next-token query (n_next) and derives each
sequence's origin from that count.

At temperature 0, a next-token query that hits at its full starting
length ends the draft, so such steps speculate and probe no candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ngram_index import NGramIndex

__all__ = [
    "DraftConfig",
    "DraftSet",
    "speculate_next_next",
    "prune_budget",
    "build_draft",
]

# fallback floor for candidate queries: the candidate token itself must
# stay inside the query gram
CANDIDATE_MIN_M = 2


@dataclass(frozen=True)
class DraftConfig:
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


@dataclass
class DraftSet:
    """Draft sequences to merge under the pending next token.

    The first n_next sequences are next-token retrievals; the rest are
    candidate-rooted, one per candidate in rank order. Query bookkeeping
    feeds the per-step retrieval-hit metric.
    """

    sequences: list[list[int]] = field(default_factory=list)
    n_next: int = 0
    queries: int = 0
    hits: int = 0
    used_m: int = 0

    @property
    def origins(self) -> list[str]:
        """Per sequence, "next" for a next-token retrieval and
        "cand:<rank>" for a candidate-rooted sequence."""
        n_cand = len(self.sequences) - self.n_next
        return ["next"] * self.n_next + [f"cand:{rank}" for rank in range(n_cand)]


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
    function of its rank in the last logit."""
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
) -> DraftSet:
    """Assemble the draft set for one decode step.

    Next-token retrieval sequences come first, then one sequence per
    candidate in rank order (candidate token followed by its most recent
    retrieved continuation, capped by prune_budget; the bare candidate
    when nothing matches). Accumulation truncates the final sequence to
    the remaining capacity and stops, so capacity bounds the proposed
    tokens, repeats included. Candidates past that stop are neither
    probed nor counted in queries.

    With greedy (temperature-0 decoding), a next-token query that hits
    at its starting length min(m_start, len(context) + 1) drafts its
    continuations only: no candidate is speculated, probed or counted.
    """
    # queries read at most m_start tokens back, so only the context's
    # tail is copied
    suffix = context[-cfg.m_start :] + [next_token]
    m_next = min(cfg.m_start, len(suffix))
    found, used_m = index.match_with_fallback(suffix, m_next)
    draft = DraftSet(queries=1, hits=int(bool(found)), used_m=used_m)
    sequences = draft.sequences
    room = cfg.capacity
    for cont in found:
        sequences.append(cont[:room])
        draft.n_next += 1
        room -= len(cont)
        if room <= 0:
            return draft
    # a full-length greedy hit rarely loses to a candidate, and greedy
    # verification emits the same tokens whatever the draft holds
    if greedy and used_m == m_next:
        return draft

    candidates = speculate_next_next(last_dist, next_token, cfg.top_k)
    if not candidates:
        return draft
    # one index call serves every candidate query suffix + [cand],
    # floored at CANDIDATE_MIN_M
    m_start = min(cfg.m_start, len(suffix) + 1)
    continuations = index.match_candidates(
        suffix, candidates, m_start, min_m=min(CANDIDATE_MIN_M, m_start)
    )
    hits = 0
    for rank, cont in enumerate(continuations):
        if cont:
            hits += 1
            seq = [candidates[rank], *cont[: min(prune_budget(rank), room) - 1]]
        else:
            seq = [candidates[rank]]
        sequences.append(seq)
        room -= len(seq)
        if room <= 0:
            break
    draft.queries += len(sequences) - draft.n_next
    draft.hits += hits
    return draft
