from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from logitspec import (
    DecodeConfig,
    DraftConfig,
    MarkovTableModel,
    ScriptedModel,
    VocabSpec,
    decode,
    prune_budget,
    sample,
    speculate_next_next,
)
from logitspec.cli import prompt_row
from logitspec.corpus import gen_corpus
from logitspec.engine import MODES, PHASES, DecodeResult, StepRecord
from logitspec.models import InverseCDF, Model, sample_uniform

# next-next rank bucket -> its range of 0-based ranks [lo, hi)
RANK_RANGES = {
    "1": (0, 1), "2": (1, 2), "4": (2, 4), "8": (4, 8), "16": (8, 16),
    "32": (16, 32), "60": (32, 60), "rest": (60, float("inf")),
}


class LastTokenModel(Model):
    """Test model whose distribution depends only on the last token."""

    def __init__(self, vocab: VocabSpec, dist_for: dict[int, np.ndarray]):
        self.vocab = vocab
        self.dist_for = dist_for

    def context_dist(self, context):
        return self.dist_for[context[-1]]


def chain_model(vocab_size: int, succ: dict[int, int], eos: int) -> LastTokenModel:
    """Deterministic chain: argmax after token t is succ[t]."""
    dists = {}
    for t in range(vocab_size):
        d = np.full(vocab_size, 0.01)
        d[succ.get(t, t)] += 1.0
        dists[t] = d / d.sum()
    return LastTokenModel(VocabSpec(vocab_size, eos), dists)


def trained_markov(seed: int, vocab: int = 32) -> tuple[MarkovTableModel, list[list[int]]]:
    corpus = gen_corpus(seed=seed, vocab_size=vocab, count=10, length=24, repetitiveness=0.6)
    model = MarkovTableModel(VocabSpec(vocab, vocab - 1), order=2, alpha=0.1, seed=seed)
    return model.train(corpus.sequences), corpus.sequences


class ForwardCountingModel(MarkovTableModel):
    """MarkovTableModel that counts its `forward` calls."""

    forward_calls = 0

    def forward(self, state, new_tokens):
        self.forward_calls += 1
        return super().forward(state, new_tokens)


def test_forward_runs_once_per_decode():
    # the prefill is the only forward call: each step commits from the
    # tree pass, and the tokens equal a plain model's
    corpus = gen_corpus(seed=5, vocab_size=32, count=4, length=24, repetitiveness=0.6)
    plain = MarkovTableModel(VocabSpec(32, 31), order=2, alpha=0.1, seed=5)
    plain.train(corpus.sequences)
    counting = ForwardCountingModel(plain.vocab, order=2, alpha=0.1, seed=5)
    counting.train(corpus.sequences)
    for temperature in (0.0, 1.0):
        for mode in MODES:
            cfg = DecodeConfig(mode=mode, max_new_tokens=48, temperature=temperature, seed=3)
            for prompt in corpus.sequences:
                counting.forward_calls = 0
                result = decode(counting, prompt, cfg)
                assert result.metrics.steps > 1
                assert counting.forward_calls == 1, (temperature, mode)
                assert result.tokens == decode(plain, prompt, cfg).tokens


def test_greedy_losslessness_all_modes():
    for seed in range(20):
        model, prompts = trained_markov(seed)
        prompt = prompts[seed % len(prompts)]
        cfgs = {
            mode: DecodeConfig(mode=mode, max_new_tokens=48, seed=seed)
            for mode in MODES
        }
        reference = decode(model, prompt, cfgs["autoregressive"]).tokens
        for mode in ("last_logit", "retrieval_only", "logitspec"):
            assert decode(model, prompt, cfgs[mode]).tokens == reference, mode


def test_short_prompts_greedy_lossless():
    # 1- and 2-token prompts are shorter than m_start: drafting must still
    # query the whole context and emit exactly the autoregressive tokens
    for seed in range(6):
        model, prompts = trained_markov(seed)
        for length in (1, 2):
            prompt = prompts[seed][:length]
            ref = decode(model, prompt, DecodeConfig(mode="autoregressive", max_new_tokens=48))
            for mode in ("retrieval_only", "logitspec"):
                out = decode(model, prompt, DecodeConfig(mode=mode, max_new_tokens=48))
                assert out.tokens == ref.tokens, (seed, length, mode)


def test_retrieval_only_accepts_on_repeating_span():
    # argmax continuation cycles 1 -> 2 -> 3 -> 1, repeating the prompt's
    # bigrams verbatim
    model = chain_model(5, {1: 2, 2: 3, 3: 1}, eos=4)
    result = decode(
        model,
        [1, 2, 3, 1],
        DecodeConfig(mode="retrieval_only", max_new_tokens=12),
    )
    assert decode(model, [1, 2, 3, 1], DecodeConfig(mode="autoregressive", max_new_tokens=12)).tokens == result.tokens
    assert any(rec.accepted_len >= 1 for rec in result.step_records)
    assert result.metrics.tokens / result.metrics.steps > 1.0


def test_last_logit_mode_bounds():
    model, prompts = trained_markov(3)
    cfg = DecodeConfig(mode="last_logit", max_new_tokens=64, last_logit_k=60)
    for prompt in prompts[:5]:
        result = decode(model, prompt, cfg)
        assert all(rec.accepted_len in (0, 1) for rec in result.step_records)
        assert 1.0 <= result.metrics.tokens / result.metrics.steps <= 2.0


@pytest.mark.parametrize("temperature", [0.0, 1.0], ids=lambda t: f"T{t:g}")
@pytest.mark.parametrize("mode, rows", [("last_logit", 1 + 60), ("autoregressive", 1)])
def test_non_retrieval_mode_trees(mode, rows, temperature):
    # last_logit drafts last_logit_k sibling rows under the root, however
    # small the capacity; autoregressive's tree is the root alone
    model, prompts = trained_markov(3, vocab=64)
    cfg = DecodeConfig(
        mode=mode, max_new_tokens=24, temperature=temperature,
        draft=DraftConfig(capacity=5), last_logit_k=60,
    )
    for prompt in prompts[:3]:
        trees = []
        result = decode(model, prompt, cfg, tree_observer=trees.append)
        assert len(trees) == result.metrics.steps
        past_len = len(prompt)
        for tree, rec in zip(trees, result.step_records):
            assert tree.past_len == past_len
            assert tree.parents == [-1] + [0] * (rows - 1)
            assert len(set(tree.draft_ids)) == rows
            assert rec.draft_size == rows - 1
            past_len += rec.accepted_len + 1


def test_mat_autoregressive_is_one():
    model, prompts = trained_markov(4)
    result = decode(model, prompts[0], DecodeConfig(mode="autoregressive", max_new_tokens=32))
    assert result.metrics.tokens / result.metrics.steps == 1.0
    assert result.metrics.steps == result.metrics.tokens


def test_decode_metrics_match_step_records():
    # every DecodeMetrics total and report row field, recomputed from
    # the decode's step records
    model, prompts = trained_markov(7)
    for temperature in (0.0, 1.0):
        for mode in MODES:
            cfg = DecodeConfig(mode=mode, max_new_tokens=48, temperature=temperature, seed=5)
            for i, prompt in enumerate(prompts[:4]):
                result = decode(model, prompt, cfg)
                records = result.step_records
                m = result.metrics
                assert m.steps == len(records)
                assert m.tokens == sum(r.accepted_len + 1 for r in records) == len(result.tokens)
                assert m.retrieval_hit_steps == sum(r.retrieval_hit for r in records)
                row = prompt_row(i, result)
                assert row["prompt_index"] == i
                assert (row["steps"], row["tokens"], row["retrieval_hit_steps"]) == (
                    m.steps, m.tokens, m.retrieval_hit_steps
                )
                assert row["mat"] == m.tokens / m.steps
                assert row["rank_counts"] == {
                    name: sum(lo <= r.next_next_rank < hi for r in records)
                    for name, (lo, hi) in RANK_RANGES.items()
                }
                assert row["phase_counters"] == {
                    p: sum(r.phase_counters[p] for r in records) for p in PHASES
                }


@pytest.mark.parametrize("temperature", [0.0, 1.0], ids=lambda t: f"T{t:g}")
@pytest.mark.parametrize("mode", MODES)
def test_step_records_hold_what_each_step_observed(mode, temperature):
    # the six counts come from the step's tree and verification, and the
    # derived phase counters give each phase's work
    model, prompts = trained_markov(7)
    cfg = DecodeConfig(mode=mode, max_new_tokens=48, temperature=temperature, seed=5)
    for prompt in prompts[:4]:
        trees = []
        result = decode(model, prompt, cfg, tree_observer=trees.append)
        for i, (tree, rec) in enumerate(zip(trees, result.step_records, strict=True)):
            assert (rec.draft_size, rec.queries, rec.hits) == (
                tree.draft_count, tree.queries, tree.hits
            )
            assert rec.retrieval_hit == (tree.hits > 0)
            # only the last step can stop inside its accepted drafts
            last = i == len(trees) - 1
            assert rec.draws == rec.accepted_len + 1 or (last and rec.draws > rec.accepted_len + 1)
            assert rec.phase_counters == {
                "retrieve": tree.queries,
                "prepare": 1,
                "forward": tree.seq_len,
                "verify": rec.draws,
                "update": rec.accepted_len + 1,
            }


def test_retrieval_success_rate_edges():
    model = chain_model(5, {1: 2, 2: 3, 3: 1}, eos=4)
    hit = decode(model, [1, 2, 3, 1], DecodeConfig(mode="retrieval_only", max_new_tokens=8))
    assert hit.metrics.retrieval_hit_steps == hit.metrics.steps
    # all-distinct prompt, nothing to match on the first step
    model2 = chain_model(8, {i: i + 1 for i in range(6)}, eos=7)
    miss = decode(model2, [0], DecodeConfig(mode="retrieval_only", max_new_tokens=4))
    assert not miss.step_records[0].retrieval_hit
    assert miss.metrics.retrieval_hit_steps < miss.metrics.steps


def test_rank_histogram_second_entry_case():
    # after token t the argmax is t+1 and the runner-up is t+2, so the
    # realized next-next token always has rank 1 in the last logit
    vocab = 5
    dists = {}
    for t in range(vocab):
        d = np.full(vocab, 0.01)
        d[(t + 1) % 3] += 0.6
        d[(t + 2) % 3] += 0.3
        dists[t] = d / d.sum()
    model = LastTokenModel(VocabSpec(vocab, 4), dists)
    result = decode(model, [0], DecodeConfig(mode="autoregressive", max_new_tokens=20))
    counts = prompt_row(0, result)["rank_counts"]
    assert counts["1"] == 0
    assert counts["2"] == result.metrics.steps
    assert sum(counts.values()) == result.metrics.steps


def test_rank_bucket_counts_pending_token_but_candidate_rank_skips_it():
    # the pending token 0 tops the last logit and token 16 follows it:
    # 16 is candidate rank 15 (inside top_k 16, budget tier 3) but ranks
    # 16 among all V tokens, so its step lands in bucket "32", not "16"
    vocab = VocabSpec(20, 19)
    last = np.arange(20, 0, -1, dtype=float) / sum(range(1, 21))
    after = np.full(20, 0.1 / 19)
    after[16] = 0.9
    model = ScriptedModel(vocab, {(5, 0): after}, last)
    assert speculate_next_next(last, 0, 16).index(16) == 15
    assert prune_budget(15) == 3
    cfg = DecodeConfig(mode="last_logit", max_new_tokens=2, last_logit_k=16)
    result = decode(model, [5], cfg)
    assert result.tokens == [0, 16]
    assert result.step_records[0].accepted_len == 1
    assert result.step_records[0].next_next_rank == 16
    counts = prompt_row(0, result)["rank_counts"]
    assert counts == {**dict.fromkeys(counts, 0), "32": 1}


def test_rank_bucket_edges():
    # each bucket's bound is exclusive: ranks 0, 1, 59 and 60 are the
    # first rank of "1", of "2", the last of "60" and the first of "rest"
    records = [StepRecord(0, 0, rank, 0, 0, 1) for rank in (0, 1, 59, 60)]
    result = DecodeResult([1, 2, 3, 4], records)
    counts = prompt_row(0, result)["rank_counts"]
    assert counts == {**dict.fromkeys(counts, 0), "1": 1, "2": 1, "60": 1, "rest": 1}


def test_rank_histogram_conservation_and_replay_oracle():
    corpus = gen_corpus(seed=9, vocab_size=16, count=20, length=24, repetitiveness=0.6)
    model = MarkovTableModel(VocabSpec(16, 15), order=2, alpha=0.1, seed=9)
    model.train(corpus.sequences)
    prompts = corpus.sequences
    results = []
    total_steps = 0
    for prompt in prompts:
        r = decode(model, prompt, DecodeConfig(mode="autoregressive", max_new_tokens=96))
        results.append(r)
        total_steps += r.metrics.steps
    assert total_steps >= 500
    rows = [prompt_row(i, r) for i, r in enumerate(results)]
    # the buckets hold every step
    assert sum(sum(row["rank_counts"].values()) for row in rows) == total_steps

    # brute-force oracle: replay each run with plain forwards and
    # recompute the rank of token i+1 in the distribution that preceded
    # the one it was sampled from
    for prompt, r in zip(prompts, results):
        state = model.new_state()
        dists = model.forward(state, list(prompt) + r.tokens)
        seq_dists = dists[len(prompt) - 1 :]  # dist producing each generated token
        recomputed = []
        for i in range(1, len(r.tokens)):
            last = seq_dists[i - 1]
            tok = r.tokens[i]
            p = last[tok]
            rank = int(np.sum(last > p) + np.sum((last == p) & (np.arange(len(last)) < tok)))
            recomputed.append(rank)
        observed = [rec.next_next_rank for rec in r.step_records]
        # step t's record covers generated token t+1; the final step's
        # entry is the never-emitted bonus and has no replay counterpart
        assert observed[:-1] == recomputed


def test_tokens_advance_by_accepted_plus_one():
    model, prompts = trained_markov(6)
    result = decode(model, prompts[0], DecodeConfig(mode="logitspec", max_new_tokens=48))
    assert sum(rec.accepted_len + 1 for rec in result.step_records) == result.metrics.tokens
    assert sum(rec.phase_counters["update"] for rec in result.step_records) == result.metrics.tokens


def test_decode_determinism():
    model, prompts = trained_markov(8)
    cfg = DecodeConfig(mode="logitspec", max_new_tokens=32, temperature=1.0, seed=99)
    r1 = decode(model, prompts[1], cfg)
    r2 = decode(model, prompts[1], cfg)
    assert r1.tokens == r2.tokens
    assert [rec.accepted_len for rec in r1.step_records] == [
        rec.accepted_len for rec in r2.step_records
    ]


def test_stochastic_first_token_marginal():
    vocab = 5
    d = np.array([0.35, 0.25, 0.2, 0.2, 0.0])
    model = LastTokenModel(VocabSpec(vocab, 4), {t: d for t in range(vocab)})
    counts = np.zeros(vocab)
    n = 50_000
    for trial in range(n):
        cfg = DecodeConfig(mode="logitspec", max_new_tokens=1, temperature=1.0, seed=trial)
        out = decode(model, [0], cfg)
        counts[out.tokens[0]] += 1
    tv = 0.5 * np.abs(counts / n - d).sum()
    assert tv <= 0.02


@pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0, 2.0])
def test_first_token_is_the_one_token_sample(temperature):
    # the first token is verification's draw on a one-row tree under the
    # prompt's last token: exactly `sample` of the prefill's last dist
    # with a fresh rng from the decode seed, in every mode
    for seed in range(4):
        model, prompts = trained_markov(seed)
        for i, prompt in enumerate([prompts[0][:1], *prompts[:4]]):
            decode_seed = 10 * seed + i
            last_dist = model.forward(model.new_state(), prompt)[-1]
            want = sample(last_dist, temperature, np.random.default_rng(decode_seed))
            for mode in MODES:
                cfg = DecodeConfig(
                    mode=mode, max_new_tokens=1, temperature=temperature, seed=decode_seed
                )
                assert decode(model, prompt, cfg).tokens == [want], (seed, i, mode)


# a repeating prompt, so retrieval drafts continue the 0 1 2 cycle
TINY_PROMPT = (0, 1, 2, 0, 1, 2, 0, 1)


def tiny_scripted_model() -> ScriptedModel:
    """Vocab 4 with eos 3 unreachable; a random dist over 0..2 for every
    context of up to 2 tokens after TINY_PROMPT."""
    rng = np.random.default_rng(31)
    table = {
        TINY_PROMPT + prefix: np.append(rng.dirichlet(np.ones(3)), 0.0)
        for n in range(3)
        for prefix in itertools.product(range(3), repeat=n)
    }
    return ScriptedModel(VocabSpec(4, 3), table, np.array([0.5, 0.3, 0.2, 0.0]))


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("mode", MODES)
def test_first_three_tokens_follow_tempered_joint(mode, temperature):
    # the exact joint of the first 3 tokens: each token drawn from its
    # context's dist ** (1 / temperature), renormalized
    model = tiny_scripted_model()
    sequences = list(itertools.product(range(3), repeat=3))
    target = np.ones(len(sequences))
    for i, seq in enumerate(sequences):
        for k, tok in enumerate(seq):
            d = model.table[TINY_PROMPT + seq[:k]] ** (1.0 / temperature)
            target[i] *= d[tok] / d.sum()
    n = 1000
    counts = np.zeros(len(sequences))
    for seed in range(n):
        cfg = DecodeConfig(mode=mode, max_new_tokens=3, temperature=temperature, seed=seed)
        counts[sequences.index(tuple(decode(model, list(TINY_PROMPT), cfg).tokens))] += 1
    # sampling noise alone gives an expected TV of 0.04-0.06 at n = 1000;
    # drawing any token from an untempered dist gives about 0.15 or more
    tv = 0.5 * np.abs(counts / n - target).sum()
    assert tv <= 0.1, tv


@pytest.mark.parametrize("mode", ["last_logit", "logitspec"])
def test_coupled_candidate_accepted_when_next_dist_equals_last(mode):
    # every context gets one dist (eos unreachable), so every later dist
    # is the last dist. last_logit: the candidate whose interval holds
    # the next-next position's uniform is the draw, so every step accepts
    # a depth-1 draft, unless the draw is the pending token itself, which
    # is never a candidate. Four candidates out of 63 tokens: a top-k
    # draft would miss most draws. logitspec: the coupled path is the
    # sampler's next depth draws, so every step accepts the whole depth
    # and the depth grows on its schedule up to the cap; max_new_tokens
    # cuts the last step
    rng = np.random.default_rng(19)
    d = np.append(rng.dirichlet(np.ones(63)), 0.0)
    model = ScriptedModel(VocabSpec(64, 63), {}, d)
    prompt = rng.integers(0, 63, size=8).tolist()
    checked = 0
    for seed in range(20):
        cfg = DecodeConfig(
            mode=mode,
            max_new_tokens=64,
            temperature=1.0,
            seed=seed,
            draft=DraftConfig(top_k=4),
            last_logit_k=4,
        )
        pasts = []
        result = decode(model, prompt, cfg, tree_observer=lambda t: pasts.append(t.past_len))
        assert result.tokens == decode(model, prompt, replace(cfg, mode="autoregressive")).tokens
        if mode == "logitspec":
            depth = DraftConfig.DEPTH_FLOOR
            for rec in result.step_records[:-1]:
                assert rec.accepted_len == depth, seed
                depth = DraftConfig.next_depth(depth, rec.accepted_len)
                checked += 1
            assert result.step_records[-1].accepted_len <= depth
            assert depth == DraftConfig.DEPTH_CAP
            continue
        full = prompt + result.tokens
        for past, rec in zip(pasts, result.step_records):
            if past + 1 < len(full) and full[past + 1] != full[past]:
                assert rec.accepted_len >= 1, (seed, past)
                checked += 1
    assert checked > (500 if mode == "last_logit" else 60)


def test_coupled_path_accepts_nothing_when_later_dists_differ():
    # the dist after an even token puts all its mass on odd tokens and
    # the reverse (eos unreachable), so the next-next token never has the
    # parity of the pending one, while the coupled path, drawn from the
    # pending token's own dist, always starts with that parity. The path
    # is drafted on every step, no step accepts its first row, and every
    # seed still emits autoregressive's tokens
    rng = np.random.default_rng(29)
    dist_for = {}
    for t in range(64):
        d = np.zeros(64)
        d[(t + 1) % 2 : 63 : 2] = rng.dirichlet(np.ones(31 + t % 2))
        dist_for[t] = d
    model = LastTokenModel(VocabSpec(64, 63), dist_for)
    prompt = rng.integers(0, 63, size=8).tolist()
    checked = 0
    for seed in range(10):
        cfg = DecodeConfig(
            mode="logitspec", max_new_tokens=64, temperature=1.0, seed=seed,
            draft=DraftConfig(top_k=4),
        )
        trees = []
        result = decode(model, prompt, cfg, tree_observer=trees.append)
        assert result.tokens == decode(model, prompt, replace(cfg, mode="autoregressive")).tokens
        full = prompt + result.tokens
        # position p's uniform: one rng.random() per position from the prompt's end
        uniforms = np.random.default_rng(seed).random(len(result.tokens) + 2)
        for tree, rec in zip(trees, result.step_records):
            past = tree.past_len
            # the path's first token: the pending token's dist and the
            # next-next position's uniform
            u = uniforms[past + 1 - len(prompt)]
            first = sample_uniform(dist_for[full[past - 1]], 1.0, u)
            assert any(p == 0 and t == first for p, t in zip(tree.parents, tree.draft_ids))
            if rec.accepted_len:
                assert full[past + 1] != first
                checked += 1
    assert checked > 50


def test_eos_truncates_accepted_span():
    # chain 1 -> 2 -> 3 -> eos(0) -> 1; the retrieved span can run past
    # eos but output must stop at the first eos
    model = chain_model(4, {1: 2, 2: 3, 3: 0, 0: 1}, eos=0)
    prompt = [1, 2, 3, 0, 1, 2, 3, 0, 1]
    auto = decode(model, prompt, DecodeConfig(mode="autoregressive", max_new_tokens=16))
    spec = decode(model, prompt, DecodeConfig(mode="logitspec", max_new_tokens=16))
    assert spec.tokens == auto.tokens
    assert spec.tokens.count(0) == 1
    assert spec.tokens[-1] == 0


def test_decode_rejects_bad_inputs():
    model, _ = trained_markov(1)
    with pytest.raises(ValueError):
        decode(model, [], DecodeConfig())
    with pytest.raises(ValueError):
        decode(model, [999], DecodeConfig())
    with pytest.raises(ValueError):
        DecodeConfig(mode="nope")
    with pytest.raises(ValueError):
        DecodeConfig(last_logit_k=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        DecodeConfig(seed=-1)
    for temperature in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DecodeConfig(temperature=temperature)
    assert DecodeConfig(last_logit_k=0).last_logit_k == 0


def cycle_model() -> MarkovTableModel:
    """An order-1 model that cycles 0 1 2, greedily, and at T=1 with
    probability about 0.93 per token."""
    return MarkovTableModel(VocabSpec(8, 7), order=1, alpha=0.1).train([[0, 1, 2] * 10])


@pytest.mark.parametrize("mode", ["retrieval_only", "logitspec"])
def test_greedy_cycle_accepted_lengths_follow_the_depth_schedule(mode):
    # the prompt already holds the cycle: every retrieved continuation
    # runs into the source end, and repeating its period drafts the whole
    # depth, all of which verifies. So the depth grows by 2 per step from
    # the floor (8) to the cap (16) and stays there; max_new_tokens cuts
    # the last step
    prompt = [0, 1, 2, 0, 1, 2]
    result = decode(cycle_model(), prompt, DecodeConfig(mode=mode, max_new_tokens=120))
    assert result.tokens == [0, 1, 2] * 40
    assert [r.accepted_len for r in result.step_records] == [8, 10, 12, 14, 16, 16, 16, 16, 3]


def test_sampled_cycle_follows_the_depth_schedule_and_keeps_autoregressive_tokens():
    # the same cycle at T=1: the model leaves it now and then, so some
    # steps accept less than their depth and the depth shrinks again.
    # Every seed still emits autoregressive's tokens, and no step accepts
    # more than the depth the schedule gives it
    model, prompt = cycle_model(), [0, 1, 2, 0, 1, 2]
    grown = 0
    for seed in range(10):
        cfg = DecodeConfig(mode="autoregressive", max_new_tokens=120, temperature=1.0, seed=seed)
        want = decode(model, prompt, cfg).tokens
        for mode in ("retrieval_only", "logitspec"):
            result = decode(model, prompt, replace(cfg, mode=mode))
            assert result.tokens == want, (seed, mode)
            depth = DraftConfig.DEPTH_FLOOR
            for r in result.step_records:
                assert r.accepted_len <= depth, (seed, mode)
                grown += r.accepted_len > DraftConfig.DEPTH_FLOOR
                depth = DraftConfig.next_depth(depth, r.accepted_len)
    assert grown > 0


class CheckedUniform(float):
    """A uniform that counts the comparisons made on it, as checking it
    against [0, 1) does."""

    compares = 0

    def _count(self) -> float:
        self.compares += 1
        return float(self)

    def __lt__(self, other):
        return self._count() < other

    def __le__(self, other):
        return self._count() <= other

    def __gt__(self, other):
        return self._count() > other

    def __ge__(self, other):
        return self._count() >= other


class CheckCountingRng:
    """Wraps a Generator: `random(n)` hands out its values as
    CheckedUniforms and keeps every one it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn: list[CheckedUniform] = []

    def random(self, n: int) -> np.ndarray:
        block = [CheckedUniform(u) for u in self.rng.random(n).tolist()]
        self.drawn += block
        return np.array(block, dtype=object)  # tolist() returns the same objects


class ReadTrackingRule(InverseCDF):
    """InverseCDF over a CheckCountingRng that keeps the highest position
    read."""

    def __init__(self, temperature, rng, start):
        super().__init__(temperature, CheckCountingRng(rng), start)
        self.highest = start - 1

    def _at(self, pos, n=1):
        self.highest = max(self.highest, pos + n - 1)
        return super()._at(pos, n)


@pytest.mark.parametrize("temperature", [0.7, 1.0])
@pytest.mark.parametrize("mode", MODES)
def test_drafter_uniforms_are_checked_once_per_step(monkeypatch, mode, temperature):
    # every uniform, whether the drafter or verification reads it first,
    # is checked once, as the rule draws it, and never again; the rule
    # draws no position past the highest one read
    import logitspec.engine as engine_module

    one = ReadTrackingRule(temperature, np.random.default_rng(0), 0)
    one.draw(np.full(4, 0.25), 0)
    per_check = one.rng.drawn[0].compares  # the comparisons one check makes
    assert per_check > 0
    rules = []

    def build(temperature, rng, start):
        rules.append(ReadTrackingRule(temperature, rng, start))
        return rules[-1]

    monkeypatch.setattr(engine_module, "InverseCDF", build)
    model, corpus = trained_markov(4)
    for seed, prompt in enumerate(corpus[:4]):
        cfg = DecodeConfig(mode=mode, max_new_tokens=64, temperature=temperature, seed=seed)
        result = decode(model, prompt, cfg)
        rule = rules[-1]
        drawn = rule.rng.drawn
        assert rule.uniforms == drawn and len(drawn) >= len(result.tokens), seed
        assert [u.compares for u in drawn] == [per_check] * len(drawn), seed
        assert rule.start + len(drawn) - 1 == rule.highest, seed
