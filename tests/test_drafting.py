from __future__ import annotations

import numpy as np
import pytest

from logitspec import (
    DraftConfig,
    NGramIndex,
    build_draft,
    prepare_attention_inputs,
    prune_budget,
    speculate_next_next,
)
from logitspec.drafting import CANDIDATE_MIN_M
from logitspec.engine import DecodeConfig, _build_step_draft
from logitspec.models import GREEDY, InverseCDF, sample_uniform, tempered_cdf

from conftest import naive_fallback


def make_dist(order: list[int], vocab: int = 16) -> np.ndarray:
    """Distribution whose descending-probability order is `order`."""
    p = np.zeros(vocab)
    weight = 0.5
    for tok in order:
        p[tok] = weight
        weight /= 2
    return p / p.sum()


def rows(tree):
    return tree.past_len, tree.draft_ids, tree.parents


def merged(context, next_token, sequences):
    """Rows of the reference trie merge of sequences under next_token."""
    return rows(prepare_attention_inputs(len(context), next_token, sequences))


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


# cdf 0.125, 0.375, 0.75, 1.0: every interval edge is exact in binary
QUARTERS = np.array([0.125, 0.25, 0.375, 0.25])
QUARTERS_CDF = tempered_cdf(QUARTERS, 1.0)


def rule_at(pos, us, temperature=1.0):
    """An inverse-CDF rule whose uniforms at positions pos, pos + 1, ..
    are us. Earlier positions hold NaN, which a rule that read them would
    reject."""
    return InverseCDF(temperature, [float("nan")] * pos + list(us))


def coupled_order(cdf, next_token, k, u):
    """Full-sort reference for the coupled order: every token by (distance
    from u to its interval of the tempered CDF cdf, id), next token
    dropped."""
    cdf = cdf.tolist()

    def distance(j):
        if cdf[j] <= u:
            return u - cdf[j]
        if j and cdf[j - 1] > u:
            return cdf[j - 1] - u
        return 0.0

    order = sorted(range(len(cdf)), key=lambda j: (distance(j), j))
    return [t for t in order if t != next_token][:k]


def test_speculate_with_uniform_puts_the_holder_first():
    # u = 1/16 lies in token 0's interval [0, 0.125); the top-k order
    # would start with token 2
    assert speculate_next_next(QUARTERS, 3, 3, rule_at(0, [0.0625])) == [0, 1, 2]
    assert speculate_next_next(QUARTERS, 3, 2, rule_at(5, [0.0625, 0.9]), 5) == [0, 1]
    assert speculate_next_next(QUARTERS, 3, 3) == [2, 1, 0]


def test_speculate_with_uniform_excludes_next_token_and_ties_go_low():
    # u = 9/16 lies in token 2's interval [0.375, 0.75); tokens 1 and 3
    # both lie 3/16 from it
    rule = rule_at(0, [0.5625])
    assert speculate_next_next(QUARTERS, 0, 3, rule) == [2, 1, 3]
    assert speculate_next_next(QUARTERS, 2, 3, rule) == [1, 3, 0]
    assert speculate_next_next(QUARTERS, 2, 10, rule) == [1, 3, 0]
    assert speculate_next_next(QUARTERS, 2, 0, rule) == []


def test_speculate_without_uniform_is_the_top_k():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dist = rng.random(int(rng.integers(2, 70)))
        dist[rng.random(len(dist)) < 0.3] = 0.0
        dist[0] += 0.01
        dist /= dist.sum()
        next_token, k = int(rng.integers(0, len(dist))), int(rng.integers(0, 70))
        top = [t for t in np.argsort(-dist, kind="stable").tolist() if t != next_token]
        assert speculate_next_next(dist, next_token, k) == top[:k]


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_speculate_coupled_order_equals_reference(temperature):
    # zero and tiny entries give equal distances on both sides of the
    # holder; u on an interval edge gives a second distance-0 token
    rng = np.random.default_rng(int(temperature * 10))
    for case in range(3000):
        vocab = int(rng.integers(1, 70))
        dist = rng.random(vocab)
        dist[rng.random(vocab) < 0.3] = 0.0
        if case % 4 == 0:
            dist[rng.random(vocab) < 0.5] = 1e-18
        if not dist.any():
            dist[0] = 1.0
        dist /= dist.sum()
        if case % 5 == 0:
            u = tempered_cdf(dist, temperature)[int(rng.integers(0, vocab))] % 1.0
        else:
            u = float(rng.random())
        next_token, k = int(rng.integers(0, vocab)), int(rng.integers(0, vocab + 2))
        want = coupled_order(tempered_cdf(dist, temperature), next_token, k, u)
        got = speculate_next_next(dist, next_token, k, rule_at(0, [u], temperature))
        assert got == want, case


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_speculate_coupled_first_candidate_is_the_draw(temperature):
    # should the next-next dist equal the last one, the first candidate
    # is the token sample_uniform draws with the same uniform, unless
    # that is the next token
    rng = np.random.default_rng(5)
    for _ in range(500):
        dist = rng.random(16)
        dist /= dist.sum()
        u = float(rng.random())
        drawn = sample_uniform(dist, temperature, u)
        next_token = int(rng.integers(0, 16))
        cands = speculate_next_next(dist, next_token, 4, rule_at(0, [u], temperature))
        assert (cands[0] == drawn) == (next_token != drawn)
        assert next_token not in cands


@pytest.mark.parametrize("u", [None, 0.5625])
def test_speculate_reads_read_only_inputs_and_leaves_them(u):
    # decode passes read-only model rows, and the rule keeps its CDF
    # from step to step; the key is built in new arrays
    dist = QUARTERS.copy()
    dist.flags.writeable = False
    rule = GREEDY if u is None else rule_at(0, [u])
    if u is not None:
        rule.cdf(dist).flags.writeable = False
    # the top-k order and the coupled order from u = 9/16 agree here
    assert speculate_next_next(dist, 0, 3, rule) == [2, 1, 3]
    assert np.array_equal(dist, QUARTERS)
    if u is not None:
        assert np.array_equal(rule.cdf(dist), QUARTERS_CDF)


@pytest.mark.parametrize("u", [-0.1, 1.0, float("nan")])
def test_speculate_rejects_uniform_outside_unit_interval(u):
    # at the next-next position, wherever that lies in the stream
    with pytest.raises(ValueError):
        speculate_next_next(QUARTERS, 0, 2, rule_at(0, [u]))
    with pytest.raises(ValueError):
        speculate_next_next(QUARTERS, 0, 2, rule_at(0, [0.5, 0.25, u]), 2)
    # ranking reads no later uniform: only logitspec's coupled path does
    assert speculate_next_next(QUARTERS, 0, 2, rule_at(0, [0.5, u])) == [2, 1]


@pytest.mark.parametrize("u", [-0.1, 1.0, float("nan")])
@pytest.mark.parametrize("at", [0, 1, 7])
def test_build_draft_rejects_uniform_outside_unit_interval(u, at):
    # the coupled path would map u >= 1 to token id len(cdf), outside the
    # vocab, and a negative u to token 0. At capacity 4 the path fills the
    # draft, so no candidate is ranked
    us = [0.5] * 8
    us[at] = u
    for capacity in (4, 60):
        index = NGramIndex.build([0, 1, 2, 3], m_max=3)
        cfg = DraftConfig(top_k=1, capacity=capacity)
        with pytest.raises(ValueError):
            build_draft(index, [0, 1, 2], 3, QUARTERS, cfg, rule=rule_at(4, us))


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
    # surfaces the wrong reference "triangle ..." first; the rank-0
    # candidate "area"=3 makes the (the, area) query retrieve "of the ..."
    # instead, which the second (older) next-token continuation holds too.
    context = [0, 1, 2, 3, 4, 2, 5]
    index = NGramIndex.build(context + [2], m_max=3)
    last_dist = make_dist([2, 3], vocab=8)
    cfg = DraftConfig(top_k=1, capacity=20, m_start=3)
    draft = build_draft(index, context, 2, last_dist, cfg)
    # most recent "the" -> "triangle the", then "area of the triangle the",
    # each run into the source end and so repeated with the pending "the"
    # up to the depth; the candidate path "area of the triangle" (budget
    # 4, the capacity left) adds no row
    assert rows(draft) == merged(
        context, 2, [[5, 2, 2, 5, 2, 2, 5, 2], [3, 4, 2, 5, 2, 2, 3, 4], [3, 4, 2, 5]]
    )
    assert draft.draft_ids == [2, 5, 2, 2, 5, 2, 2, 5, 2, 3, 4, 2, 5, 2, 2, 3, 4]
    assert (draft.queries, draft.hits) == (2, 2)


def test_next_depth_grows_after_a_full_accept_and_shrinks_otherwise():
    assert (DraftConfig.DEPTH_FLOOR, DraftConfig.DEPTH_CAP) == (8, 16)
    assert DraftConfig.next_depth(8, 8) == 10
    assert DraftConfig.next_depth(15, 15) == 16
    assert DraftConfig.next_depth(16, 16) == 16
    assert DraftConfig.next_depth(12, 11) == 11
    assert DraftConfig.next_depth(8, 0) == 8


def test_build_draft_empty_index_candidates_alone():
    index = NGramIndex(m_max=3)
    last_dist = make_dist([0, 4, 6], vocab=8)
    cfg = DraftConfig(top_k=2, capacity=16)
    draft = build_draft(index, [1, 2, 3], 0, last_dist, cfg)
    assert rows(draft) == (3, [0, 4, 6], [-1, 0, 0])
    assert (draft.queries, draft.hits) == (3, 0)


def test_candidate_query_floor_keeps_the_next_token_in_the_gram():
    # next token 1 never occurs, so its query misses; candidate 3 occurs
    # (followed by 7), but the bigram "1 3" never does, so the floored
    # candidate query finds nothing and 3's row gets no tail
    context = [3, 7, 2, 3, 7]
    index = NGramIndex.build(context, m_max=3)
    assert CANDIDATE_MIN_M == 2
    # at floor 1 the unigram "3" would give the tail [7]
    assert list(index.match_candidates(context[-3:] + [1], [3], 3, 4, 1)) == [[7]]
    cfg = DraftConfig(top_k=1, capacity=16, m_start=3)
    draft = build_draft(index, context, 1, make_dist([1, 3, 5], vocab=8), cfg)
    assert rows(draft) == (5, [1, 3], [-1, 0])
    assert (draft.queries, draft.hits) == (2, 0)


def test_build_draft_bare_candidate_shares_a_next_token_row():
    # next token 1: "1" is followed by 2 only at the end of the source, so
    # the next-token continuation [2] repeats its period "2 1", while
    # candidate 2's query "1 2" has no continuation; the bare candidate
    # lies on the row that the next-token continuation already drafted
    index = NGramIndex.build([7, 1, 2], m_max=3)
    cfg = DraftConfig(top_k=2, capacity=60, m_start=3)
    draft = build_draft(index, [7, 1, 2], 1, make_dist([1, 2, 5], vocab=8), cfg)
    assert rows(draft) == merged([7, 1, 2], 1, [[2, 1, 2, 1, 2, 1, 2, 1], [2], [5]])
    assert rows(draft) == (3, [1, 2, 1, 2, 1, 2, 1, 2, 1, 5], [-1, *range(8), 0])
    assert (draft.queries, draft.hits) == (3, 1)


def test_build_draft_capacity_truncates():
    # next-token continuation is 8 tokens long but capacity is 3
    source = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2]
    index = NGramIndex.build(source, m_max=3)
    cfg = DraftConfig(top_k=4, capacity=3, m_start=2)
    draft = build_draft(index, source[:-1], 2, make_dist([2, 5], vocab=16), cfg)
    assert rows(draft) == merged(source[:-1], 2, [[3, 4, 5]])
    assert draft.draft_count == 3


def test_build_draft_short_context_queries_whole_context():
    # a context shorter than m_start is queried whole: [1, 2] + next 3
    # matches the 3-gram "1 2 3"; dropping the 1 would match the more
    # recent "2 3" first
    index = NGramIndex.build([1, 2, 3, 4, 9, 2, 3, 5], m_max=3)
    cfg = DraftConfig(top_k=0, m_start=3)
    dist = make_dist([3], vocab=16)
    draft = build_draft(index, [1, 2], 3, dist, cfg)
    # a hit at length u after starting at length m costs m - u + 1 probes
    assert index.probe_count == 3 - 3 + 1
    # continuations that reach the source end repeat "cont + [3]"
    assert rows(draft) == merged([1, 2], 3, [[4, 9, 2, 3, 5, 3, 4, 9]])
    index = NGramIndex.build([1, 2, 3, 4, 9, 2, 3, 5], m_max=3)
    draft = build_draft(index, [2], 3, dist, cfg)
    assert index.probe_count == 2 - 2 + 1
    assert rows(draft) == merged([2], 3, [[5, 3, 5, 3, 5, 3, 5, 3], [4, 9, 2, 3, 5, 3, 4, 9]])


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

        draft.check()
        assert draft.past_len == len(source)
        assert draft.draft_ids[0] == next_token
        assert draft.draft_count <= cfg.capacity
        # one row per distinct token path
        assert len(set(zip(draft.parents, draft.draft_ids))) == draft.seq_len
        # a root child that no next-token continuation starts with is a
        # candidate: such rows come in rank order, and each subtree
        # respects its candidate's rank budget
        found, _ = NGramIndex.build(source, m_max=3).match_with_fallback(
            source[-3:] + [next_token], 3, DraftConfig.DEPTH_FLOOR
        )
        cands = speculate_next_next(dist, next_token, cfg.top_k)
        top, depth = [0] * draft.seq_len, [0] * draft.seq_len
        for r in range(1, draft.seq_len):
            p = draft.parents[r]
            top[r] = r if p == 0 else top[p]
            depth[r] = depth[p] + 1
        cand_rows = [
            r for r in range(1, draft.seq_len)
            if draft.parents[r] == 0 and all(cont[0] != draft.draft_ids[r] for cont in found)
        ]
        ranks = [cands.index(draft.draft_ids[r]) for r in cand_rows]
        assert ranks == sorted(ranks)
        for r, rank in zip(cand_rows, ranks):
            assert max(d for d, t in zip(depth, top) if t == r) <= prune_budget(rank)


@pytest.mark.parametrize("capacity", [60, 5])
def test_build_draft_repeats_a_period_cut_by_the_source_end(capacity):
    # a b c a b c a b, next token c: the most recent "a b c" is one period
    # back, so its continuation "a b" stops at the source end and the
    # draft repeats "a b c" up to the depth (the floor, 8), then truncates
    # to capacity
    a, b, c = 1, 2, 3
    source = [a, b, c, a, b, c, a, b]
    index = NGramIndex.build(source, m_max=3)
    cfg = DraftConfig(top_k=0, capacity=capacity, m_start=3)
    draft = build_draft(index, source, c, make_dist([c]), cfg)
    drafted = min(capacity, 8)
    assert draft.draft_count == drafted
    assert rows(draft) == (
        len(source), [c, a, b, c, a, b, c, a, b][: drafted + 1], [-1, *range(drafted)]
    )


def test_build_draft_duplicate_next_token_paths_leave_rows_to_candidates():
    # a b c a b c a b, next token c: both next-token continuations, "a b"
    # and "a b c a b", run into the source end and repeat into the same
    # 8-token path, so the second adds no row and the candidates fill the
    # rows left under capacity 12. At T=1 the CDF of last_dist (in 127ths)
    # gives a [0, 32), b [32, 40), c [40, 104), 4 [104, 108), 5 [108, 124),
    # 6 [124, 126), 7 [126, 127) and 0 nothing at 0, so the uniforms 0.2,
    # 0.3 and 0.5 draw a, b and c: the coupled path "a b c a b c a b" is
    # the next-token path and adds no row either, and u = 0.2 orders the
    # candidates a, b, 0, 4, 5, 6. Candidate a's query "b c a" hits and
    # follows the next-token rows; b, 0, 4 and 5 miss and take one row
    # each, which fills the draft, so 6 is never queried.
    a, b, c = 1, 2, 3
    source = [a, b, c, a, b, c, a, b]
    index = NGramIndex.build(source, m_max=3)
    cfg = DraftConfig(top_k=6, capacity=12, m_start=3)
    last_dist = make_dist([c, a, 5, b, 4, 6, 7], vocab=8)
    rule = rule_at(len(source) + 1, [0.2, 0.3, 0.5] * 2 + [0.2, 0.3])
    draft = build_draft(index, source, c, last_dist, cfg, rule=rule)
    assert rows(draft) == (
        len(source), [c, a, b, c, a, b, c, a, b, b, 0, 4, 5], [-1, *range(8), 0, 0, 0, 0]
    )
    assert (draft.queries, draft.hits) == (6, 2)
    assert draft.draft_count <= cfg.capacity


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
    draft = build_draft(index, context, 3, last_dist, cfg)
    # one probe: the query hit at its starting length
    assert (draft.queries, draft.hits, index.probe_count) == (1, 1, 1)
    # "4 1 2" runs into the source end, so its period "4 1 2 3" repeats
    assert rows(draft) == merged(context, 3, [[4, 1, 2, 3, 4, 1, 2, 3]])
    # the same step drafts the coupled path and candidates when
    # sampling, in rows after the next-token rows
    index = NGramIndex.build(source, m_max=m_start)
    rule = rule_at(len(context) + 1, [0.5] * DraftConfig.DEPTH_FLOOR)
    sampled = build_draft(index, context, 3, last_dist, cfg, rule=rule)
    assert sampled.draft_ids[: draft.seq_len] == draft.draft_ids
    assert sampled.parents[: draft.seq_len] == draft.parents
    assert sampled.seq_len > draft.seq_len
    assert sampled.queries == 1 + cfg.top_k
    assert index.probe_count > 1


@pytest.mark.parametrize(
    "next_token, next_probes, next_paths, greedy_cands, sampled_cands",
    [
        (3, 2, [[4, 9, 2, 3, 4, 9, 2, 3]], [[1], [6], [7], [4, 9, 2]], [[1], [2], [4, 9, 2], [5]]),
        (5, 3, [], [[1], [6], [7], [4]], [[4], [1], [2], [3]]),
    ],
    ids=["fallback-hit", "miss"],
)
def test_build_draft_greedy_without_full_length_hit_drafts_candidates(
    next_token, next_probes, next_paths, greedy_cands, sampled_cands
):
    # context ends "9 2": "9 2 3" never occurs but "2 3" does (a
    # shorter hit, 3 - 2 + 1 probes, whose continuation "4 9 2" repeats
    # its period); 5 never occurs at all (a miss probes every length
    # from 3 down to 1). Greedy drafts the top-4 candidates 1 6 7 4.
    # Sampling with u = 0.5 at T=1 drafts the tokens whose intervals lie
    # nearest u: next token 3 holds it in [8/31, 24/31) and 1, 2 (empty
    # at 8/31) and 4 [24/31, 25/31) follow, then 5 (empty at 25/31); next
    # token 5 holds it in [9/31, 25/31) and 4 [8/31, 9/31) then 1, 2 and
    # 3 (1 is [0, 8/31), 2 and 3 empty at 8/31) follow. Only candidate 4
    # after "2 3" hits, and its path follows the next-token rows. Every
    # uniform 0.5 draws the next token, so the coupled path repeats it to
    # the depth, in rows between the next-token and the candidate rows.
    source = [0, 1, 2, 3, 4, 9, 2]
    cfg = DraftConfig(top_k=4, capacity=60, m_start=3)
    last_dist = make_dist([next_token, 1, 6, 7, 4], vocab=10)
    index = NGramIndex.build(source, m_max=3)
    build_draft(index, source, next_token, last_dist, DraftConfig(top_k=0, m_start=3))
    assert index.probe_count == next_probes
    drafts, probes = [], []
    depth = DraftConfig.DEPTH_FLOOR
    for rule in (GREEDY, rule_at(len(source) + 1, [0.5] * depth)):
        index = NGramIndex.build(source, m_max=3)
        drafts.append(build_draft(index, source, next_token, last_dist, cfg, rule=rule))
        probes.append(index.probe_count)
    assert rows(drafts[0]) == merged(source, next_token, next_paths + greedy_cands)
    coupled = [[next_token] * depth]
    assert rows(drafts[1]) == merged(source, next_token, next_paths + coupled + sampled_cands)
    assert (drafts[0].queries, drafts[0].hits) == (drafts[1].queries, drafts[1].hits)
    assert drafts[0].queries == 1 + cfg.top_k
    assert probes[0] == probes[1]


def test_speculate_returns_at_most_k():
    dist = np.full(4, 0.25)
    assert len(speculate_next_next(dist, 1, 10)) <= 10
    assert all(t != 1 for t in speculate_next_next(dist, 1, 10))


def naive_build_draft(source, context, next_token, last_dist, cfg, depth, draw=None):
    """Reference drafter: every query runs naive_fallback over the whole
    context, one candidate at a time, with the documented assembly rules
    (each path cut to the rows its merged trie has free under capacity,
    stop once they are all drafted), the period rule (a next-token
    continuation cut short by the source end cycles through itself and
    the next token up to depth tokens), the greedy rule (without a draw,
    a next-token hit at full length ends the draft) and the coupled rule
    (with a draw and candidates, the path of the tokens whose intervals
    of the CDF hold the first depth uniforms, one at a time, follows the
    next-token paths). Probes count one index lookup per gram length
    tried."""
    suffix = list(context) + [next_token]
    sequences = []
    counts = {"queries": 0, "hits": 0, "probes": 0}

    def drafted_rows():
        return prepare_attention_inputs(len(context), next_token, sequences).draft_count

    def add(seq):
        sequences.append(seq[: cfg.capacity - drafted_rows()])
        return drafted_rows() < cfg.capacity

    def query(query_suffix, m_start, length, min_m, max_matches):
        conts, used_m = naive_fallback(
            source, query_suffix, m_start, length, min_m=min_m, max_matches=max_matches
        )
        counts["queries"] += 1
        counts["hits"] += bool(conts)
        counts["probes"] += m_start - (used_m if conts else min_m) + 1
        return conts, used_m

    def result():
        return sequences, counts["queries"], counts["hits"], counts["probes"]

    # up to 2 next-token continuations: match_with_fallback's default
    m_next = min(cfg.m_start, len(suffix))
    conts, used_m = query(suffix, m_next, depth, 1, 2)
    for cont in conts:
        if len(cont) < depth:
            period = cont + [next_token]
            cont = [period[i % len(period)] for i in range(depth)]
        if not add(cont):
            return result()
    if draw is None and used_m == m_next:
        return result()
    if draw is None:
        candidates = speculate_next_next(last_dist, next_token, cfg.top_k)
    else:
        cdf, us = draw
        if cfg.top_k > 0:
            # token j's interval is [cdf[j - 1], cdf[j])
            path = [next(j for j, c in enumerate(cdf) if c > u) for u in us[:depth]]
            if not add(path):
                return result()
        candidates = coupled_order(cdf, next_token, cfg.top_k, us[0])
    for rank, cand in enumerate(candidates):
        m_start = min(cfg.m_start, len(suffix) + 1)
        # a candidate's tail is its prune budget, whatever the depth
        budget = prune_budget(rank)
        conts, _ = query(suffix + [cand], m_start, budget, min(CANDIDATE_MIN_M, m_start), 1)
        seq = [cand] + (conts[0][: budget - 1] if conts else [])
        if not add(seq):
            return result()
    return result()


# the oracle fuzz runs at depth 1, the floor and the cap
DEPTHS = (1, DraftConfig.DEPTH_FLOOR, DraftConfig.DEPTH_CAP)


def test_build_draft_equals_per_candidate_reference_random():
    rng = np.random.default_rng(31)
    for case in range(600):
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
        depth = DEPTHS[case % 3]
        index = NGramIndex.build(source, m_max=cfg.m_start)
        last_dist = rng.random(vocab + 2)
        last_dist /= last_dist.sum()
        # half the cases draft greedily, half at T=1 with drawn uniforms
        draw, rule = None, GREEDY
        if rng.integers(0, 2) == 0:
            us = rng.random(depth).tolist()
            draw, rule = (tempered_cdf(last_dist, 1.0), us), rule_at(len(context) + 1, us)

        draft = build_draft(index, context, next_token, last_dist, cfg, depth=depth, rule=rule)
        sequences, queries, hits, probes = naive_build_draft(
            source, context, next_token, last_dist, cfg, depth, draw
        )
        assert rows(draft) == merged(context, next_token, sequences)
        assert (draft.queries, draft.hits, index.probe_count) == (queries, hits, probes)


def test_build_draft_coupled_equals_per_candidate_reference_random():
    # at T > 0 the coupled path follows the next-token paths and the
    # candidates come in the coupled order; bare candidates (a miss) and
    # the path's first row often repeat rows, which the small vocabs make
    # common
    rng = np.random.default_rng(41)
    for case in range(600):
        vocab = int(rng.integers(3, 12))
        cfg = DraftConfig(
            top_k=int(rng.integers(0, 13)),
            capacity=int(rng.integers(1, 41)),
            m_start=int(rng.integers(1, 6)),
        )
        context = rng.integers(0, vocab, size=rng.integers(0, 30)).tolist()
        next_token = int(rng.integers(0, vocab))
        depth = DEPTHS[case % 3]
        index = NGramIndex.build(context, m_max=cfg.m_start)
        last_dist = rng.random(vocab + 2)
        last_dist /= last_dist.sum()
        us, temperature = rng.random(depth).tolist(), float(rng.choice([0.5, 1.0, 2.0]))

        draw = (tempered_cdf(last_dist, temperature), us)
        rule = rule_at(len(context) + 1, us, temperature)
        draft = build_draft(index, context, next_token, last_dist, cfg, depth=depth, rule=rule)
        sequences, queries, hits, probes = naive_build_draft(
            context, context, next_token, last_dist, cfg, depth, draw
        )
        assert rows(draft) == merged(context, next_token, sequences)
        assert (draft.queries, draft.hits, index.probe_count) == (queries, hits, probes)


def test_continuations_agreeing_to_the_depth_count_as_one():
    # 9's occurrences, most recent first, continue "1 2 3", "1 2 4" and
    # "5 6": at depth 2 the first two are one path, so the second
    # distinct continuation is "5 6"; at depth 3 they are two
    source = [9, 5, 6, 0, 9, 1, 2, 4, 0, 9, 1, 2, 3, 0]
    cfg = DraftConfig(top_k=0, m_start=1)
    index = NGramIndex.build(source, m_max=1)
    assert index.match([9], 2) == [[1, 2], [5, 6]]
    assert index.match([9], 3) == [[1, 2, 3], [1, 2, 4]]
    draft = build_draft(index, source, 9, make_dist([9]), cfg, depth=2)
    assert rows(draft) == merged(source, 9, [[1, 2], [5, 6]])
    draft = build_draft(index, source, 9, make_dist([9]), cfg, depth=3)
    assert rows(draft) == merged(source, 9, [[1, 2, 3], [1, 2, 4]])


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
        last_dist /= last_dist.sum()
        probes = []
        # sampled, so a full-length next-token hit still drafts candidates
        rule = rule_at(len(context) + 1, [0.5] * DraftConfig.DEPTH_FLOOR)
        for source in (block, block * 100):
            index = NGramIndex.build(source, m_max=cfg.m_start)
            draft = build_draft(index, context, next_token, last_dist, cfg, rule=rule)
            assert draft.queries == 1 + cfg.top_k
            probes.append(index.probe_count)
        assert probes[0] == probes[1]
        # at most the cost of one fallback query per candidate
        min_m = min(CANDIDATE_MIN_M, cfg.m_start)
        assert probes[0] <= cfg.m_start + cfg.top_k * (cfg.m_start - min_m + 1)


def test_last_logit_draft_is_a_star_of_candidates():
    rng = np.random.default_rng(53)
    last_dist = rng.random(16)
    cfg = DecodeConfig(mode="last_logit", last_logit_k=6)
    draft = _build_step_draft(cfg, None, [1, 2], 4, last_dist, GREEDY, DraftConfig.DEPTH_FLOOR)
    cands = speculate_next_next(last_dist, 4, 6)
    assert rows(draft) == merged([1, 2], 4, [[tok] for tok in cands])
    assert rows(draft) == (2, [4, *cands], [-1] + [0] * 6)
