from __future__ import annotations

import numpy as np
import pytest

from logitspec import DraftConfig, NGramIndex, build_draft, prune_budget, speculate_next_next
from logitspec.drafting import CANDIDATE_MIN_M
from logitspec.engine import DecodeConfig, _build_step_draft

from conftest import naive_fallback


def make_dist(order: list[int], vocab: int = 16) -> np.ndarray:
    """Distribution whose descending-probability order is `order`."""
    p = np.zeros(vocab)
    weight = 0.5
    for tok in order:
        p[tok] = weight
        weight /= 2
    return p / p.sum()


def test_speculate_excludes_next_token():
    dist = make_dist([5, 9, 2, 7])
    cands = speculate_next_next(dist, 5, 3)
    assert cands == [9, 2, 7]  # rank = position


def test_speculate_next_token_outside_window():
    dist = make_dist([5, 9, 2, 7])
    cands = speculate_next_next(dist, 14, 3)
    assert cands == [5, 9, 2]


def test_speculate_uniform_tie_break_lowest_ids():
    dist = np.full(8, 1.0 / 8)
    cands = speculate_next_next(dist, 0, 2)
    assert cands == [1, 2]


def test_prune_budget_tiers():
    assert prune_budget(5) == 4
    assert prune_budget(20) == 3
    assert prune_budget(40) == 1


def test_prune_budget_boundaries_and_monotone():
    assert prune_budget(0) == 4
    assert prune_budget(7) == 4
    assert prune_budget(8) == 3
    assert prune_budget(31) == 3
    assert prune_budget(32) == 1
    budgets = [prune_budget(r) for r in range(101)]
    assert all(a >= b for a, b in zip(budgets, budgets[1:]))


def test_build_draft_figure_scenario():
    # "what is the area of the triangle": what=0 is=1 the=2 area=3 of=4
    # triangle=5. Pending next token "the"=2: next-token-only retrieval
    # surfaces the wrong reference "triangle ..."; the rank-0 candidate
    # "area"=3 makes the (the, area) query retrieve "of the ..." instead.
    context = [0, 1, 2, 3, 4, 2, 5]
    index = NGramIndex.build(context + [2], m_max=3)
    last_dist = make_dist([2, 3], vocab=8)
    cfg = DraftConfig(top_k=1, capacity=16, m_start=3)
    draft = build_draft(index, context, 2, last_dist, cfg)
    assert draft.sequences[0] == [5, 2]  # most recent "the" -> "triangle the"
    assert draft.origins[0] == "next"
    i = draft.sequences.index([3, 4, 2, 5])  # "area of the triangle", budget 4
    assert draft.origins[i] == "cand:0"


def test_build_draft_empty_index_candidates_alone():
    index = NGramIndex(m_max=3)
    last_dist = make_dist([0, 4, 6], vocab=8)
    cfg = DraftConfig(top_k=2, capacity=16)
    draft = build_draft(index, [1, 2, 3], 0, last_dist, cfg)
    assert draft.sequences == [[4], [6]]
    assert draft.origins == ["cand:0", "cand:1"]
    assert draft.hits == 0


def test_build_draft_capacity_truncates():
    # next-token continuation is 8 tokens long but capacity is 3
    source = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2]
    index = NGramIndex.build(source, m_max=3, value_len=8)
    cfg = DraftConfig(top_k=4, capacity=3, m_start=2)
    draft = build_draft(index, source[:-1], 2, make_dist([2, 5], vocab=16), cfg)
    assert sum(map(len, draft.sequences)) <= 3
    assert draft.sequences[0] == [3, 4, 5]


def test_build_draft_short_context_queries_whole_context():
    # a context shorter than m_start is queried whole: [1, 2] + next 3
    # matches the 3-gram "1 2 3"; dropping the 1 would match the more
    # recent "2 3" first
    index = NGramIndex.build([1, 2, 3, 4, 9, 2, 3, 5], m_max=3)
    cfg = DraftConfig(top_k=0, m_start=3)
    dist = make_dist([3], vocab=16)
    draft = build_draft(index, [1, 2], 3, dist, cfg)
    assert draft.used_m == 3
    assert draft.sequences == [[4, 9, 2, 3, 5]]
    draft = build_draft(index, [2], 3, dist, cfg)
    assert draft.used_m == 2
    assert draft.sequences == [[5], [4, 9, 2, 3, 5]]


def test_build_draft_invariants_fuzz():
    rng = np.random.default_rng(23)
    for _ in range(300):
        vocab = 12
        source = rng.integers(0, vocab, size=rng.integers(4, 40)).tolist()
        index = NGramIndex.build(source, m_max=3)
        cfg = DraftConfig(
            top_k=int(rng.integers(1, 8)),
            capacity=int(rng.integers(1, 20)),
            m_start=3,
        )
        next_token = int(rng.integers(0, vocab))
        dist = rng.random(vocab)
        dist /= dist.sum()
        draft = build_draft(index, source, next_token, dist, cfg)

        assert sum(map(len, draft.sequences)) <= cfg.capacity
        assert all(draft.sequences)
        # next-token sequences precede candidates; candidate ranks
        # non-decreasing; candidate sequences start with their candidate
        # and respect the rank budget
        cands = speculate_next_next(dist, next_token, cfg.top_k)
        rank_by_tok = {tok: rank for rank, tok in enumerate(cands)}
        seen_cand = False
        prev_rank = -1
        for seq, origin in zip(draft.sequences, draft.origins):
            if origin == "next":
                assert not seen_cand
            else:
                seen_cand = True
                rank = int(origin.split(":")[1])
                assert rank > prev_rank
                prev_rank = rank
                assert rank_by_tok[seq[0]] == rank
                assert len(seq) <= prune_budget(rank)


@pytest.mark.parametrize(
    "context, m_start",
    [([0, 1, 2, 3, 4, 1, 2], 3), ([2], 3)],
    ids=["m_start", "short-context"],
)
def test_build_draft_greedy_full_length_hit_skips_candidates(context, m_start):
    # next token 3: the query gram of length min(m_start, len(context) + 1)
    # is "1 2 3" ("2 3" for the short context), which occurs in the
    # source, so the first probe hits
    source = [0, 1, 2, 3, 4, 1, 2]
    cfg = DraftConfig(top_k=4, capacity=60, m_start=m_start)
    last_dist = make_dist([3, 5, 6, 7, 4], vocab=8)
    index = NGramIndex.build(source, m_max=m_start)
    draft = build_draft(index, context, 3, last_dist, cfg, greedy=True)
    assert draft.used_m == min(m_start, len(context) + 1)
    assert draft.sequences and set(draft.origins) == {"next"}
    assert (draft.queries, draft.hits, index.probe_count) == (1, 1, 1)
    # the same step drafts candidates when sampling
    index = NGramIndex.build(source, m_max=m_start)
    sampled = build_draft(index, context, 3, last_dist, cfg, greedy=False)
    assert sampled.sequences[: len(draft.sequences)] == draft.sequences
    assert sampled.queries == 1 + cfg.top_k
    assert index.probe_count > 1


@pytest.mark.parametrize(
    "next_token, used_m",
    [(3, 2), (5, 0)],
    ids=["fallback-hit", "miss"],
)
def test_build_draft_greedy_without_full_length_hit_drafts_candidates(next_token, used_m):
    # context ends "9 2": "9 2 3" never occurs but "2 3" does (a
    # shorter hit); 5 never occurs at all (a miss)
    source = [0, 1, 2, 3, 4, 9, 2]
    cfg = DraftConfig(top_k=4, capacity=60, m_start=3)
    last_dist = make_dist([next_token, 1, 6, 7, 4], vocab=10)
    drafts, probes = [], []
    for greedy in (True, False):
        index = NGramIndex.build(source, m_max=3)
        drafts.append(build_draft(index, source, next_token, last_dist, cfg, greedy=greedy))
        probes.append(index.probe_count)
    assert drafts[0].used_m == used_m
    assert drafts[0] == drafts[1]
    assert drafts[0].queries == 1 + cfg.top_k
    assert probes[0] == probes[1]


def test_speculate_returns_at_most_k():
    dist = np.full(4, 0.25)
    assert len(speculate_next_next(dist, 1, 10)) <= 10
    assert all(t != 1 for t in speculate_next_next(dist, 1, 10))


def naive_build_draft(source, context, next_token, last_dist, cfg, value_len, greedy):
    """Reference drafter: every query runs naive_fallback over the whole
    context, one candidate at a time, with the documented assembly rules
    (capacity truncation, repeats kept, stop at a full budget) and the
    greedy rule (a next-token hit at full length ends the draft). Probes
    count one index lookup per gram length tried."""
    suffix = list(context) + [next_token]
    sequences, origins = [], []
    counts = {"queries": 0, "hits": 0, "total": 0, "probes": 0}

    def add(seq, origin):
        seq = seq[: cfg.capacity - counts["total"]]
        sequences.append(seq)
        origins.append(origin)
        counts["total"] += len(seq)
        return counts["total"] < cfg.capacity

    def query(query_suffix, m_start, min_m, max_matches):
        conts, used_m = naive_fallback(
            source, query_suffix, m_start, value_len, min_m=min_m, max_matches=max_matches
        )
        counts["queries"] += 1
        counts["hits"] += bool(conts)
        counts["probes"] += m_start - (used_m if conts else min_m) + 1
        return conts, used_m

    def result(used_m):
        return sequences, origins, counts["queries"], counts["hits"], used_m, counts["probes"]

    # up to 2 next-token continuations: match_with_fallback's default
    m_next = min(cfg.m_start, len(suffix))
    conts, used_m = query(suffix, m_next, 1, 2)
    for cont in conts:
        if not add(cont, "next"):
            return result(used_m)
    if greedy and used_m == m_next:
        return result(used_m)
    for rank, cand in enumerate(speculate_next_next(last_dist, next_token, cfg.top_k)):
        m_start = min(cfg.m_start, len(suffix) + 1)
        conts, _ = query(suffix + [cand], m_start, min(CANDIDATE_MIN_M, m_start), 1)
        seq = [cand] + (conts[0][: prune_budget(rank) - 1] if conts else [])
        if not add(seq, f"cand:{rank}"):
            return result(used_m)
    return result(used_m)


def test_build_draft_equals_per_candidate_reference_random():
    rng = np.random.default_rng(31)
    for _ in range(600):
        vocab = int(rng.integers(3, 12))
        cfg = DraftConfig(
            top_k=int(rng.integers(0, 13)),
            capacity=int(rng.integers(1, 41)),
            m_start=int(rng.integers(1, 6)),
        )
        # short contexts too: shorter than m_start, or empty
        context = rng.integers(0, vocab, size=rng.integers(0, 30)).tolist()
        next_token = int(rng.integers(0, vocab))
        # the engine indexes the committed context; sometimes index more
        source = context + rng.integers(0, vocab, size=rng.integers(0, 3)).tolist()
        value_len = int(rng.integers(1, 9))
        index = NGramIndex.build(source, m_max=cfg.m_start, value_len=value_len)
        last_dist = rng.random(vocab + 2)
        last_dist /= last_dist.sum()
        greedy = bool(rng.integers(0, 2))

        draft = build_draft(index, context, next_token, last_dist, cfg, greedy=greedy)
        want = naive_build_draft(
            source, context, next_token, last_dist, cfg, value_len, greedy
        )
        assert (
            draft.sequences, draft.origins, draft.queries, draft.hits, draft.used_m,
            index.probe_count,
        ) == want


def test_build_draft_probe_count_flat_in_source_length():
    # Both sources repeat one block that starts and ends with separator
    # 63, which no query contains, so every query gram hits or misses
    # alike on the short and the long source; only the number of
    # occurrences per gram grows. Probes must not follow it.
    rng = np.random.default_rng(37)
    for _ in range(20):
        block = [63] + rng.integers(0, 12, size=48).tolist() + [63]
        cfg = DraftConfig(top_k=16, capacity=500, m_start=int(rng.integers(2, 5)))
        context = rng.integers(0, 12, size=6).tolist()
        next_token = int(rng.integers(0, 12))
        last_dist = np.zeros(64)
        last_dist[:12] = rng.random(12) + 0.01  # candidates 12.. never occur
        probes = []
        for source in (block, block * 100):
            index = NGramIndex.build(source, m_max=cfg.m_start)
            draft = build_draft(index, context, next_token, last_dist, cfg)
            assert draft.queries == 1 + cfg.top_k
            probes.append(index.probe_count)
        assert probes[0] == probes[1]
        # at most the cost of one fallback query per candidate
        min_m = min(CANDIDATE_MIN_M, cfg.m_start)
        assert probes[0] <= cfg.m_start + cfg.top_k * (cfg.m_start - min_m + 1)


def test_origins_derived_from_next_count_random():
    # the first n_next sequences are the next-token continuations, the
    # rest one per candidate in rank order, so a sequence's origin
    # follows from its index and n_next alone
    rng = np.random.default_rng(47)
    for _ in range(300):
        vocab = int(rng.integers(3, 10))
        cfg = DraftConfig(
            top_k=int(rng.integers(0, 9)),
            capacity=int(rng.integers(1, 30)),
            m_start=int(rng.integers(1, 4)),
        )
        context = rng.integers(0, vocab, size=rng.integers(0, 25)).tolist()
        next_token = int(rng.integers(0, vocab))
        last_dist = rng.random(vocab)
        index = NGramIndex.build(context, m_max=cfg.m_start)
        draft = build_draft(
            index, context, next_token, last_dist, cfg, greedy=bool(rng.integers(0, 2))
        )
        n_cand = len(draft.sequences) - draft.n_next
        assert draft.origins == ["next"] * draft.n_next + [f"cand:{r}" for r in range(n_cand)]
        found, _ = NGramIndex.build(context, m_max=cfg.m_start).match_with_fallback(
            context[-cfg.m_start :] + [next_token], min(cfg.m_start, len(context) + 1)
        )
        assert draft.n_next <= len(found)
        for seq, cont in zip(draft.sequences, found[: draft.n_next]):
            assert cont[: len(seq)] == seq
        cands = speculate_next_next(last_dist, next_token, cfg.top_k)
        assert [seq[0] for seq in draft.sequences[draft.n_next :]] == cands[:n_cand]


def test_last_logit_draft_origins_are_candidates():
    rng = np.random.default_rng(53)
    last_dist = rng.random(16)
    cfg = DecodeConfig(mode="last_logit", last_logit_k=6)
    draft = _build_step_draft(cfg, None, [1, 2], 4, last_dist)
    cands = speculate_next_next(last_dist, 4, 6)
    assert draft.n_next == 0
    assert draft.sequences == [[tok] for tok in cands]
    assert draft.origins == [f"cand:{r}" for r in range(6)]
