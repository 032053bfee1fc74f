"""Draft construction: next-next-token speculation plus retrieval.

The drafter speculates next-next candidates from the top of the last
logit (minus the already-sampled next token), retrieves continuations for
the next token (one match_with_fallback query) and for every candidate
(one NGramIndex.match_candidates call per step, consumed lazily so that
candidates past an exhausted budget are never probed), and assembles
sibling sequences under a fixed token budget with a rank-tiered
per-candidate cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ngram_index import NGramIndex

__all__ = [
    "DraftConfig",
    "CandidateSet",
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
    next_token_value_len: int = 8
    max_matches: int = 2

    def __post_init__(self) -> None:
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.m_start < 1:
            raise ValueError(f"m_start must be >= 1, got {self.m_start}")


@dataclass
class CandidateSet:
    """Next-next-token guesses: (token, rank) with 0-based ranks assigned
    after removing the sampled next token."""

    candidates: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class DraftSet:
    """Sibling sequences to hang under the pending next token.

    Origins are "next" for next-token retrievals and "cand:<rank>" for
    candidate-rooted sequences. Query bookkeeping feeds the per-step
    retrieval-hit metric.
    """

    sequences: list[list[int]] = field(default_factory=list)
    origins: list[str] = field(default_factory=list)
    queries: int = 0
    hits: int = 0
    used_m: int = 0

    @property
    def total_tokens(self) -> int:
        return sum(len(s) for s in self.sequences)


def speculate_next_next(last_dist: np.ndarray, next_token: int, k: int) -> CandidateSet:
    """Top-k tokens of the last logit excluding the next token, in
    descending probability (ties broken by lower id)."""
    if k <= 0:
        return CandidateSet()
    order = np.argsort(-last_dist, kind="stable")
    candidates = []
    for tok in order[: k + 1]:
        tok = int(tok)
        if tok == next_token:
            continue
        candidates.append((tok, len(candidates)))
        if len(candidates) == k:
            break
    return CandidateSet(candidates)


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
) -> DraftSet:
    """Assemble the draft set for one decode step.

    Next-token retrieval sequences come first, then one sequence per
    candidate in rank order (candidate token followed by its most recent
    retrieved continuation, capped by prune_budget; the bare candidate
    when nothing matches). Accumulation truncates the final sequence to
    the remaining capacity and stops; identical sequences are dropped.
    Candidates past that stop are neither probed nor counted in queries.
    """
    draft = DraftSet()
    # queries read at most m_start tokens back, so only the context's
    # tail is copied
    suffix = context[-cfg.m_start :] + [next_token]
    seen: set[tuple[int, ...]] = set()
    total = 0

    def add(seq: list[int], origin: str) -> bool:
        """Append a sequence, truncating to remaining capacity. Returns
        False once the budget is exhausted."""
        nonlocal total
        remaining = cfg.capacity - total
        if remaining <= 0:
            return False
        seq = seq[:remaining]
        key = tuple(seq)
        if key in seen:
            return True
        seen.add(key)
        draft.sequences.append(seq)
        draft.origins.append(origin)
        total += len(seq)
        return total < cfg.capacity

    m_start = min(cfg.m_start, len(suffix))
    result, used_m = index.match_with_fallback(
        suffix, m_start, max_matches=cfg.max_matches
    )
    draft.queries += 1
    draft.used_m = used_m
    if result:
        draft.hits += 1
    for cont in result.continuations:
        if not add(cont[: cfg.next_token_value_len], "next"):
            return draft

    candidates = speculate_next_next(last_dist, next_token, cfg.top_k).candidates
    if not candidates:
        return draft
    # one index call serves every candidate query suffix + [cand],
    # floored at CANDIDATE_MIN_M; it probes a candidate only when this
    # loop reaches it, so candidates past a full budget stay unqueried
    m_start = min(cfg.m_start, len(suffix) + 1)
    continuations = index.match_candidates(
        suffix,
        [cand for cand, _ in candidates],
        m_start,
        min_m=min(CANDIDATE_MIN_M, m_start),
    )
    # add() inlined: this loop runs up to top_k times per step
    for (cand, rank), cont in zip(candidates, continuations):
        draft.queries += 1
        if cont:
            draft.hits += 1
        seq = ([cand] + cont[: prune_budget(rank) - 1])[: cfg.capacity - total]
        key = tuple(seq)
        if key in seen:
            continue
        seen.add(key)
        draft.sequences.append(seq)
        draft.origins.append(f"cand:{rank}")
        total += len(seq)
        if total >= cfg.capacity:
            break
    return draft
