"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s`."""

from __future__ import annotations

import contextlib
import json

import numpy as np
import pytest

from logitspec import (
    DecodeConfig,
    MarkovTableModel,
    ScriptedModel,
    VocabSpec,
    acceptance_prob,
    decode,
    prepare_attention_inputs,
    prune_budget,
    residual,
    verify_stochastic,
)
from logitspec.cli import main, prompt_seed
from logitspec.corpus import gen_corpus
from logitspec.models import InverseCDF
from logitspec.ngram_index import NGramIndex

from conftest import naive_fallback, naive_match


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def seed_setup(seed: int):
    corpus = gen_corpus(seed=seed, vocab_size=64, count=40, length=32, repetitiveness=0.7)
    model = MarkovTableModel(VocabSpec(64, 63), order=2, alpha=0.1, seed=seed)
    model.train(corpus.sequences)
    return model, corpus.sequences


@pytest.fixture(scope="module")
def mode_sweep():
    """10 seeds x 40 prompts x 4 modes at max_new_tokens=128 (criteria 7-9)."""
    sweep: dict[str, list[dict]] = {}
    for mode in ("autoregressive", "last_logit", "retrieval_only", "logitspec"):
        per_seed = []
        for seed in range(10):
            model, prompts = seed_setup(seed)
            steps = tokens = hit_steps = 0
            step_emits_ok = True
            for i, prompt in enumerate(prompts):
                cfg = DecodeConfig(
                    mode=mode, max_new_tokens=128, seed=prompt_seed(seed, i)
                )
                r = decode(model, prompt, cfg)
                steps += r.metrics.steps
                tokens += r.metrics.tokens
                hit_steps += r.metrics.retrieval_hit_steps
                if any(rec.accepted_len not in (0, 1) for rec in r.step_records):
                    step_emits_ok = False
            per_seed.append(
                {
                    "mat": tokens / steps,
                    "rate": hit_steps / steps,
                    "single_or_double": step_emits_ok,
                }
            )
        sweep[mode] = per_seed
    return sweep


def test_criterion_1_greedy_losslessness():
    with criterion(1, "greedy losslessness, 200 runs"):
        runs = 0
        for seed in range(5):
            model, prompts = seed_setup(seed)
            for i, prompt in enumerate(prompts):
                cfgs = {
                    mode: DecodeConfig(
                        mode=mode, max_new_tokens=128, temperature=0.0,
                        seed=prompt_seed(seed, i),
                    )
                    for mode in ("autoregressive", "logitspec", "retrieval_only", "last_logit")
                }
                reference = decode(model, prompt, cfgs["autoregressive"]).tokens
                for mode in ("logitspec", "retrieval_only", "last_logit"):
                    assert decode(model, prompt, cfgs[mode]).tokens == reference, (seed, i, mode)
                runs += 1
        assert runs == 200


def test_criterion_2_stochastic_losslessness():
    with criterion(2, "stochastic losslessness, 7 tree shapes"):
        vocab = VocabSpec(8, 7)
        rng_target = np.random.default_rng(2024)
        target = rng_target.random(8)
        target /= target.sum()
        after = np.full(8, 1.0 / 8)
        model = ScriptedModel(vocab, {}, after)

        shapes = {
            "linear": [[0, 1, 2]],
            "two_siblings": [[0], [1]],
            "three_siblings": [[2], [0], [5]],
            "empty": [],
            "full_capacity": [[t % 8, (t + 1) % 8] for t in range(30)],
            "repeated_siblings": [[3], [3], [5], [3]],
            "wide_fan": [[t % 8] for t in range(60)],
        }
        trials = 100_000
        for shape_idx, (name, seqs) in enumerate(shapes.items()):
            tree = prepare_attention_inputs(0, 1, seqs)
            dists = [target] + [after] * tree.draft_count
            rng = np.random.default_rng(1000 + shape_idx)
            counts = np.zeros(8)
            for _ in range(trials):
                rule = InverseCDF(1.0, rng, tree.past_len + 1)
                out = verify_stochastic(tree, dists, rule)
                first = out.accepted[0] if out.accepted else out.bonus
                counts[first] += 1
            tv = 0.5 * np.abs(counts / trials - target).sum()
            assert tv <= 0.02, (name, tv)


def test_criterion_3_traced_mask_bit_exact():
    with criterion(3, "attention-input trace bit-exact"):
        tree = prepare_attention_inputs(3, 0, [[1, 2], [3]])
        rows = ["".join(map(str, row.tolist())) for row in tree.mask]
        assert rows == ["1111000", "1111100", "1111110", "1111001"]
        assert tree.position_ids.tolist() == [3, 4, 5, 4]
        assert tree.draft_ids == [0, 1, 2, 3]


def test_criterion_4_retrieval_oracle_equivalence():
    with criterion(4, "retrieval oracle equivalence, 1000 cases"):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            source = rng.integers(0, 16, size=rng.integers(0, 201)).tolist()
            index = NGramIndex.build(source, m_max=3)
            query = rng.integers(0, 16, size=rng.integers(1, 4)).tolist()
            assert index.match(query, 6) == naive_match(source, query, 6)
            suffix = rng.integers(0, 16, size=rng.integers(3, 9)).tolist()
            got, got_m = index.match_with_fallback(suffix, 3, 6)
            assert (got, got_m) == naive_fallback(source, suffix, 3, 6)
            # extend == rebuild
            extra = rng.integers(0, 16, size=rng.integers(0, 10)).tolist()
            extended = index.extend(extra)
            rebuilt = NGramIndex.build(source + extra, m_max=3)
            assert extended.match(query, 6) == rebuilt.match(query, 6)


def test_criterion_5_acceptance_and_residual_values():
    with criterion(5, "acceptance rate / residual unit values"):
        assert acceptance_prob(np.array([0.6, 0.4]), np.array([0.5, 0.5]), 0) == 1.0
        assert acceptance_prob(np.array([0.3, 0.7]), np.array([0.6, 0.4]), 0) == 0.5
        assert acceptance_prob(np.array([0.0, 1.0]), np.array([0.4, 0.6]), 0) == 0.0
        r = residual(np.array([0.5, 0.3, 0.2]), np.array([0.7, 0.2, 0.1]))
        np.testing.assert_allclose(r, [0.0, 0.5, 0.5], atol=1e-12)


def test_criterion_6_pruning_tiers():
    with criterion(6, "pruning tiers"):
        assert prune_budget(5) == 4
        assert prune_budget(20) == 3
        assert prune_budget(40) == 1
        budgets = [prune_budget(r) for r in range(101)]
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))


def test_criterion_7_directional_mat(mode_sweep):
    with criterion(7, "directional MAT ordering"):
        mean = {m: float(np.mean([s["mat"] for s in rows])) for m, rows in mode_sweep.items()}
        assert all(s["mat"] == 1.0 for s in mode_sweep["autoregressive"])
        assert mean["logitspec"] >= mean["retrieval_only"]
        assert mean["logitspec"] >= mean["last_logit"]
        assert mean["last_logit"] >= 1.0


def test_criterion_8_retrieval_success_direction(mode_sweep):
    with criterion(8, "retrieval success direction, >=9/10 seeds"):
        wins = sum(
            ls["rate"] >= ro["rate"]
            for ls, ro in zip(mode_sweep["logitspec"], mode_sweep["retrieval_only"])
        )
        assert wins >= 9, wins


def test_criterion_9_last_logit_bound(mode_sweep):
    with criterion(9, "last-logit mode emits 1 or 2 tokens per step"):
        for row in mode_sweep["last_logit"]:
            assert row["single_or_double"]
            assert 1.0 <= row["mat"] <= 2.0


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI report determinism"):
        corpus = tmp_path / "corpus.txt"
        model = tmp_path / "model.txt"
        assert main(["gen-corpus", "--out", str(corpus), "--seed", "11",
                     "--vocab", "64", "--count", "10", "--length", "24",
                     "--repetitiveness", "0.7"]) == 0
        assert main(["gen-model", "--out", str(model), "--corpus", str(corpus),
                     "--vocab", "64"]) == 0
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main([
                "run", "--model", str(model), "--corpus", str(corpus),
                "--mode", "logitspec,autoregressive", "--max-new-tokens", "64",
                "--seed", "4", "--json-out", str(out), "--compare",
            ]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        json.loads(reports[0])  # well-formed
