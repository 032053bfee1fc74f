from __future__ import annotations

import re

import numpy as np
import pytest

from logitspec import (
    MarkovTableModel,
    ScriptedModel,
    VocabSpec,
    prepare_attention_inputs,
    sample,
)
from logitspec.models import (
    InverseCDF,
    load_model_file,
    sample_uniform,
    save_model_file,
    tempered,
    tempered_cdf,
    validate_distribution,
)
from logitspec.tree import TreeStructureError

from conftest import dist


def test_vocab_spec_validation():
    VocabSpec(2, 0)
    with pytest.raises(ValueError):
        VocabSpec(1, 0)
    with pytest.raises(ValueError):
        VocabSpec(4, 4)


def test_validate_distribution():
    validate_distribution(np.array([0.5, 0.5]), 2)
    with pytest.raises(ValueError):
        validate_distribution(np.array([0.6, 0.5]), 2)
    with pytest.raises(ValueError):
        validate_distribution(np.array([1.2, -0.2]), 2)


def test_scripted_forward_table_lookup():
    vocab = VocabSpec(4, 3)
    model = ScriptedModel(vocab, {(0,): dist(4, t1=1.0)}, np.full(4, 0.25))
    state = model.new_state()
    dists = model.forward(state, [0])
    assert dists[0][1] == 1.0
    assert state.committed == [0]


def test_markov_add_alpha_hand_evaluation():
    # counts only A(=0) -> B(=1); prob(B|A) = (1 + a) / (1 + a*V)
    vocab = VocabSpec(4, 3)
    alpha = 1e-6
    model = MarkovTableModel(vocab, order=1, alpha=alpha, counts={(0,): {1: 1}})
    state = model.new_state()
    (d,) = model.forward(state, [0])
    expected = (1 + alpha) / (1 + alpha * 4)
    assert d[1] == pytest.approx(expected, abs=1e-12)
    assert d[1] > 1 - 1e-5


def test_markov_empty_context_normalized():
    vocab = VocabSpec(8, 7)
    model = MarkovTableModel(vocab, order=2, alpha=0.1, counts={(): {3: 5}})
    (d,) = model.forward(model.new_state(), [2])
    # first position conditions on the empty context is not applicable
    # here (context is (2,)); check normalization on both
    assert d.sum() == pytest.approx(1.0, abs=1e-9)
    d0 = model.context_dist(())
    assert d0.sum() == pytest.approx(1.0, abs=1e-9)
    assert d0[3] > d0[0]


def test_forward_rejects_out_of_range(small_markov):
    with pytest.raises(ValueError):
        small_markov.forward(small_markov.new_state(), [99])


def test_forward_determinism(small_markov):
    s1, s2 = small_markov.new_state(), small_markov.new_state()
    d1 = small_markov.forward(s1, [1, 2, 3])
    d2 = small_markov.forward(s2, [1, 2, 3])
    for a, b in zip(d1, d2):
        np.testing.assert_array_equal(a, b)


def test_forward_tree_linear_chain_matches_forward(small_markov):
    state = small_markov.new_state()
    small_markov.forward(state, [1, 2])
    tree = prepare_attention_inputs(2, 3, [[1, 2]])
    tree_dists = small_markov.forward_tree(state, tree)
    ref_state = small_markov.new_state()
    small_markov.forward(ref_state, [1, 2])
    ref = small_markov.forward(ref_state, [3, 1, 2])
    for a, b in zip(tree_dists, ref):
        np.testing.assert_array_equal(a, b)
    # forward_tree must not advance the state
    assert state.committed == [1, 2]


def test_forward_tree_siblings_isolated():
    # scripted model distinguishes whether sibling 2's context contains
    # sibling 1's token
    vocab = VocabSpec(6, 5)
    model = ScriptedModel(
        vocab,
        {
            (0, 1, 3): dist(6, t4=1.0),  # root + sibling-2 path only
            (0, 1, 2, 3): dist(6, t5=1.0),  # would require seeing sibling 1
        },
        np.full(6, 1.0 / 6),
    )
    state = model.new_state()
    model.forward(state, [0])
    tree = prepare_attention_inputs(1, 1, [[2], [3]])
    dists = model.forward_tree(state, tree)
    assert dists[2][4] == 1.0  # saw [0, 1, 3], not [0, 1, 2, 3]


def test_forward_tree_appendix_shape_conditioning(small_markov):
    # past_len=3, sub-sequences of length 2 and 1: rows 1-2 condition on
    # the chain, row 3 conditions on past + root only
    state = small_markov.new_state()
    small_markov.forward(state, [1, 2, 3])
    tree = prepare_attention_inputs(3, 1, [[2, 3], [4]])
    dists = small_markov.forward_tree(state, tree)
    base = (1, 2, 3)
    np.testing.assert_array_equal(dists[0], small_markov.context_dist(base + (1,)))
    np.testing.assert_array_equal(dists[1], small_markov.context_dist(base + (1, 2)))
    np.testing.assert_array_equal(dists[2], small_markov.context_dist(base + (1, 2, 3)))
    np.testing.assert_array_equal(dists[3], small_markov.context_dist(base + (1, 4)))


def test_forward_tree_random_path_equivalence(small_markov):
    rng = np.random.default_rng(7)
    for _ in range(200):
        past = rng.integers(0, 8, size=rng.integers(1, 5)).tolist()
        n_seqs = int(rng.integers(0, 4))
        seqs = [
            rng.integers(0, 8, size=rng.integers(1, 4)).tolist()
            for _ in range(n_seqs)
        ]
        if sum(len(s) for s in seqs) > 7:
            continue
        state = small_markov.new_state()
        small_markov.forward(state, past)
        root = int(rng.integers(0, 8))
        tree = prepare_attention_inputs(len(past), root, seqs)
        dists = small_markov.forward_tree(state, tree)
        # each sequence prefix's row, found by its token path
        paths = [()]
        for r in range(1, tree.seq_len):
            paths.append(paths[tree.parents[r]] + (tree.draft_ids[r],))
        row_of = {path: r for r, path in enumerate(paths)}
        # oracle: sequential forward along each ancestor path
        np.testing.assert_array_equal(
            dists[0], small_markov.context_dist(tuple(past) + (root,))
        )
        for seq in seqs:
            for t in range(len(seq)):
                path = tuple(past) + (root,) + tuple(seq[: t + 1])
                np.testing.assert_array_equal(
                    dists[row_of[tuple(seq[: t + 1])]], small_markov.context_dist(path)
                )


def test_forward_tree_evaluates_each_distinct_path_once():
    class CountingModel(ScriptedModel):
        def context_dist(self, context):
            self.calls.append(context)
            return super().context_dist(context)

    model = CountingModel(VocabSpec(6, 5), {}, np.full(6, 1.0 / 6))
    model.calls = []
    state = model.new_state()
    model.forward(state, [0])
    model.calls.clear()
    # 11 proposed tokens, 5 distinct draft paths: (2,) (2, 3) (2, 3, 4)
    # (4,) (2, 4)
    tree = prepare_attention_inputs(1, 1, [[2, 3], [2, 3, 4], [2, 3], [4], [2, 4]])
    model.forward_tree(state, tree)
    assert sorted(model.calls) == sorted({
        (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 1, 4), (0, 1, 2, 4),
    })


def test_forward_tree_rejects_malformed_parents(small_markov):
    state = small_markov.new_state()
    small_markov.forward(state, [1])
    for row, parent in ((1, 1), (1, 2), (2, 2), (2, 3)):  # itself or a later row
        tree = prepare_attention_inputs(1, 2, [[3], [4, 5]])
        tree.parents[row] = parent
        with pytest.raises(TreeStructureError):
            small_markov.forward_tree(state, tree)
    tree = prepare_attention_inputs(1, 2, [[3]])
    tree.parents[0] = 0  # the root must have no parent
    with pytest.raises(TreeStructureError):
        small_markov.forward_tree(state, tree)


def test_sample_argmax_tie_break_lowest_id():
    rng = np.random.default_rng(0)
    assert sample(np.array([0.5, 0.5]), 0.0, rng) == 0


def test_sample_one_hot_any_temperature():
    rng = np.random.default_rng(0)
    d = np.array([0.0, 1.0, 0.0])
    for temp in (0.0, 0.5, 1.0):
        assert sample(d, temp, rng) == 1


def test_sample_categorical_frequencies():
    rng = np.random.default_rng(42)
    d = np.array([0.3, 0.7])
    draws = np.array([sample(d, 1.0, rng) for _ in range(100_000)])
    assert np.mean(draws == 0) == pytest.approx(0.3, abs=0.01)
    assert np.mean(draws == 1) == pytest.approx(0.7, abs=0.01)


def test_sample_temperature_one_is_a_plain_choice():
    # no tempering at T=1: the draw is rng.choice on dist itself
    d = np.random.default_rng(3).random(64)
    d /= d.sum()
    for seed in range(20):
        want = np.random.default_rng(seed).choice(64, p=d)
        assert sample(d, 1.0, np.random.default_rng(seed)) == want


@pytest.mark.parametrize("temperature", [0.5, 2.0])
def test_sample_tempered_frequencies(temperature):
    rng = np.random.default_rng(8)
    d = np.array([0.6, 0.3, 0.1, 0.0])
    target = d ** (1.0 / temperature)
    target /= target.sum()
    n = 50_000
    counts = np.bincount([sample(d, temperature, rng) for _ in range(n)], minlength=4)
    assert counts[3] == 0
    np.testing.assert_allclose(counts / n, target, atol=0.01)


def test_sample_tiny_temperature_does_not_underflow():
    # every p ** 1000 underflows to 0 unless dist is scaled by its max first
    rng = np.random.default_rng(0)
    uniform = np.full(64, 1.0 / 64)
    draws = {sample(uniform, 0.001, rng) for _ in range(500)}
    assert draws <= set(range(64)) and len(draws) > 32
    peaked = np.array([0.2, 0.5, 0.3])
    assert all(sample(peaked, 0.002, rng) == 1 for _ in range(50))


@pytest.mark.parametrize("temperature", [-1.0, float("nan"), float("inf")])
def test_sample_rejects_bad_temperature(temperature):
    with pytest.raises(ValueError):
        sample(np.array([0.0, 1.0, 0.0, 0.0]), temperature, np.random.default_rng(0))


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_sample_equals_choice_on_tempered_dist(temperature):
    # the same token and the same RNG consumption as Generator.choice on
    # the tempered dist, zero entries included
    rng = np.random.default_rng(int(temperature * 4))
    for case in range(200):
        d = rng.random(64)
        d[rng.random(64) < 0.2] = 0.0
        d /= d.sum()
        p = tempered(d, temperature)
        want, got = np.random.default_rng(case), np.random.default_rng(case)
        for _ in range(20):
            assert sample(d, temperature, got) == want.choice(64, p=p)
        assert got.bit_generator.state == want.bit_generator.state


def test_sample_keeps_choice_checks():
    rng = np.random.default_rng(0)
    eps_root = np.sqrt(np.finfo(np.float64).eps)
    with pytest.raises(ValueError, match="non-negative"):
        sample(np.array([0.5, 0.6, -0.1]), 1.0, rng)
    with pytest.raises(ValueError, match="sum"):
        sample(np.array([0.5, 0.5 + 2 * eps_root]), 1.0, rng)
    with pytest.raises(ValueError, match="NaN"):
        sample(np.array([0.5, float("nan")]), 1.0, rng)
    with pytest.raises(ValueError, match="1-dimensional"):
        sample(np.full((2, 2), 0.25), 1.0, rng)
    # within sqrt(eps) of 1 is accepted, as choice accepts it
    assert sample(np.array([0.5, 0.5 + eps_root / 2]), 1.0, rng) in (0, 1)


def test_sample_draws_no_uniform_at_temperature_zero():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert sample(np.array([0.2, 0.5, 0.3]), 0.0, rng) == 1
    assert rng.bit_generator.state == state


def test_sample_uniform_inverts_the_tempered_cdf():
    d = np.array([0.125, 0.25, 0.375, 0.25])  # cdf 0.125, 0.375, 0.75, 1
    assert [sample_uniform(d, 1.0, u) for u in (0.0, 0.124, 0.125, 0.5, 0.75, 0.99)] == [
        0, 0, 1, 2, 3, 3,
    ]
    np.testing.assert_array_equal(tempered_cdf(d, 1.0), [0.125, 0.375, 0.75, 1.0])
    with pytest.raises(ValueError):
        sample_uniform(d, 0.0, 0.5)


@pytest.mark.parametrize("u", [1.0, 1.5, -0.25, float("nan")])
def test_sample_uniform_rejects_uniform_outside_unit_interval(u):
    # u >= 1 or NaN would draw token id 4, outside the 4-token vocab, and
    # a negative u token 0; InverseCDF rejects the same uniforms
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        sample_uniform(np.full(4, 0.25), 1.0, u)


def test_uniforms_are_keyed_by_position():
    # the rule draws lazily and in position order, so reading ahead
    # draws the positions in between and changes no value: its draws
    # equal sample_uniform of one plain rng.random() per position
    d = np.array([0.125, 0.25, 0.375, 0.25])
    rule = InverseCDF(0.7, np.random.default_rng(6), start=10)
    ahead = rule.path(d, 13, 4)
    plain = np.random.default_rng(6)
    want = [plain.random() for _ in range(20)]
    got = [rule.draw(d, pos) for pos in range(10, 30)]
    assert got == [sample_uniform(d, 0.7, u) for u in want]
    assert ahead == got[3:7]
    assert rule.uniforms == want
    assert rule.rng.bit_generator.state == plain.bit_generator.state
    with pytest.raises(IndexError):
        rule.draw(d, 9)


def test_inverse_cdf_rule_draws_sample_uniform_and_keeps_the_bonus_cdf():
    d = np.array([0.125, 0.25, 0.375, 0.25])
    other = np.full(4, 0.25)
    rule = InverseCDF(0.7, np.random.default_rng(9), start=3)
    for pos in range(3, 20):
        assert rule.draw(d, pos) == sample_uniform(d, 0.7, rule.uniforms[pos - 3])
    # the coupled path: the draws of depth positions from one dist
    assert rule.path(d, 5, 4) == [rule.draw(d, pos) for pos in range(5, 9)]
    kept, dropped = rule.cdf(d), rule.cdf(other)
    np.testing.assert_array_equal(kept, tempered_cdf(d, 0.7))
    rule.handoff(d)
    assert rule.cdf(d) is kept and rule.cdf(other) is not dropped
    with pytest.raises(ValueError):
        InverseCDF(0.0, np.random.default_rng(9), start=3).draw(d, 3)


def _hand_counts(sequences, order):
    """The dict-of-counters training loop the table replaced."""
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for seq in sequences:
        for i, tok in enumerate(seq):
            per_tok = counts.setdefault(tuple(seq[max(0, i - order) : i]), {})
            per_tok[tok] = per_tok.get(tok, 0) + 1
    return counts


def _hand_dist(counts, context, order, vocab_size, alpha):
    """The add-alpha formula as evaluated per context before the table."""
    probs = np.full(vocab_size, alpha, dtype=np.float64)
    for tok, cnt in counts.get(tuple(context[-order:]), {}).items():
        probs[tok] += cnt
    probs /= probs.sum()
    return probs


def _random_sequences(rng, vocab_size, n=8):
    # a few hot tokens, so contexts repeat and rows get several counts
    hot = rng.integers(0, vocab_size, size=min(vocab_size, 4))
    return [
        [int(rng.choice(hot)) if rng.random() < 0.7 else int(rng.integers(0, vocab_size))
         for _ in range(rng.integers(0, 25))]
        for _ in range(n)
    ]


# (vocab size, order); the last pair's keys exceed int64
TABLE_SHAPES = [(v, o) for v in (2, 7, 64) for o in (1, 2, 3)] + [(64, 12)]


@pytest.mark.parametrize("vocab_size, order", TABLE_SHAPES)
def test_markov_table_equals_hand_formula(vocab_size, order):
    rng = np.random.default_rng(vocab_size * 10 + order)
    alpha = 0.1
    seqs = _random_sequences(rng, vocab_size)
    counts = _hand_counts(seqs, order)
    vocab = VocabSpec(vocab_size, vocab_size - 1)
    trained = MarkovTableModel(vocab, order=order, alpha=alpha).train(seqs)
    given = MarkovTableModel(vocab, order=order, alpha=alpha, counts=counts)
    assert trained.observed_counts() == given.observed_counts() == dict(sorted(counts.items()))
    unseen = [
        tuple(rng.integers(0, vocab_size, size=rng.integers(0, order + 3)).tolist())
        for _ in range(200)
    ]
    for ctx in [(), *counts, *unseen]:
        want = _hand_dist(counts, ctx, order, vocab_size, alpha)
        np.testing.assert_array_equal(trained.context_dist(ctx), want)
        np.testing.assert_array_equal(given.context_dist(ctx), want)


@pytest.mark.parametrize("vocab_size, order", TABLE_SHAPES)
def test_markov_forward_tree_equals_context_dist_under_short_prompts(vocab_size, order):
    rng = np.random.default_rng(vocab_size * 100 + order)
    seqs = _random_sequences(rng, vocab_size)
    counts = _hand_counts(seqs, order)
    model = MarkovTableModel(VocabSpec(vocab_size, vocab_size - 1), order=order).train(seqs)
    for _ in range(40):
        # prompts shorter than the order (empty: no prefill), trees deeper
        prompt = rng.integers(0, vocab_size, size=rng.integers(0, order)).tolist()
        state = model.new_state()
        if prompt:
            model.forward(state, prompt)
        drafts = [
            (seqs[rng.integers(len(seqs))] + [0])[: order + 3]
            if rng.random() < 0.5
            else rng.integers(0, vocab_size, size=rng.integers(1, order + 4)).tolist()
            for _ in range(rng.integers(1, 5))
        ]
        root = int(rng.integers(0, vocab_size))
        tree = prepare_attention_inputs(len(prompt), root, drafts)
        dists = model.forward_tree(state, tree)
        paths = [(*prompt, root)]
        for r in range(1, tree.seq_len):
            paths.append(paths[tree.parents[r]] + (tree.draft_ids[r],))
        for d, path in zip(dists, paths, strict=True):
            np.testing.assert_array_equal(d, model.context_dist(path))
            np.testing.assert_array_equal(
                d, _hand_dist(counts, path, order, vocab_size, model.alpha)
            )


def test_markov_train_twice_equals_train_once(small_markov):
    first = [[1, 2, 3, 1, 2, 3, 4, 1, 2, 3], [2, 3, 4, 2, 3, 4]]
    second = [[3, 4, 5, 6], [], [1, 2, 6, 6, 6]]
    twice = MarkovTableModel(small_markov.vocab, order=2).train(first).train(second)
    once = MarkovTableModel(small_markov.vocab, order=2).train(first + second)
    assert twice.observed_counts() == once.observed_counts()
    for ctx in [(), (7,), *once.observed_counts()]:
        np.testing.assert_array_equal(twice.context_dist(ctx), once.context_dist(ctx))


def test_markov_dists_are_read_only(small_markov):
    state = small_markov.new_state()
    dists = small_markov.forward(state, [1, 2])
    dists += small_markov.forward_tree(state, prepare_attention_inputs(2, 3, [[1]]))
    dists.append(small_markov.context_dist((7, 7)))  # unseen
    for d in dists:
        with pytest.raises(ValueError, match="read-only"):
            d[0] = 1.0


def test_model_file_round_trip(tmp_path, small_markov):
    given = MarkovTableModel(
        small_markov.vocab, order=2, alpha=0.25, seed=4,
        counts={(): {3: 5}, (1,): {2: 1, 6: 2}, (4, 1): {0: 7}},
    )
    for model in (small_markov, given):  # built by train and by counts=
        path = tmp_path / "model.txt"
        save_model_file(path, model)
        loaded = load_model_file(path)
        assert loaded.vocab == model.vocab
        assert loaded.order == model.order
        assert loaded.alpha == model.alpha
        assert loaded.seed == model.seed
        assert loaded.observed_counts() == model.observed_counts()
        for ctx in [*model.observed_counts(), (5, 5)]:
            np.testing.assert_array_equal(loaded.context_dist(ctx), model.context_dist(ctx))


def test_model_file_train_corpus_path(tmp_path):
    (tmp_path / "corpus.txt").write_text("1 2 3 1 2 3\n")
    (tmp_path / "model.txt").write_text(
        "vocab_size 8\neos 7\norder 2\nalpha 0.1\nseed 3\ntrain_corpus_path corpus.txt\n"
    )
    model = load_model_file(tmp_path / "model.txt")
    ref = MarkovTableModel(VocabSpec(8, 7), order=2, alpha=0.1).train([[1, 2, 3, 1, 2, 3]])
    np.testing.assert_array_equal(model.context_dist((1, 2)), ref.context_dist((1, 2)))


def test_model_file_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("vocab_size 8\n")
    with pytest.raises(ValueError):
        load_model_file(bad)
    bad.write_text("vocab_size 8\neos 7\ncounts\nnot a counts line\n")
    with pytest.raises(ValueError):
        load_model_file(bad)


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 2 -> -1:5", "token id -1 out of range"),
        ("1 -> 9:1", "token id 9 out of range"),
        ("8 -> 1:1", "token id 8 out of range"),
        ("2 3 -> 4:-3", "negative count"),
        ("1 2 3 -> 4:1", "context of 3 tokens exceeds order 2"),
        ("1 x -> 2:1", "invalid literal for int()"),
        ("1 -> 2:1.5", "invalid literal for int()"),
        ("1 2 -> 4:1", "counts context 1 2 repeated"),
        ("1 -> 3:5,3:6", "counts token 3 repeated"),
    ],
    ids=["negative-token", "token-past-vocab", "context-token-past-vocab",
         "negative-count", "context-past-order", "context-not-int", "count-not-int",
         "context-repeated", "token-repeated"],
)
def test_model_file_rejects_invalid_counts_line(tmp_path, line, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"vocab_size 8\neos 7\norder 2\ncounts\n1 2 -> 3:2\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:6: {message}")):
        load_model_file(bad)


@pytest.mark.parametrize(
    "counts, message",
    [
        ({(): {1: -5}}, "negative count"),
        ({(2,): {4: 1}}, "token id 4 out of range"),
        ({(1, 2): {1: 1}}, "context of 2 tokens exceeds order 1"),
    ],
    ids=["negative-count", "token-past-vocab", "context-past-order"],
)
def test_markov_counts_rejects_invalid(counts, message):
    # the constructor runs the model file's counts-line checks
    with pytest.raises(ValueError, match=re.escape(message)):
        MarkovTableModel(VocabSpec(4, 3), order=1, alpha=0.1, counts=counts)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_markov_rejects_alpha_outside_positive_finite(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        MarkovTableModel(VocabSpec(8, 7), alpha=alpha)


@pytest.mark.parametrize(
    "header, message",
    [
        ("vocab_size 64.0\neos 7\n", ":1: invalid literal for int()"),
        ("vocab_size 8\neos 7\nalpha nan\n", ": alpha must be finite and > 0"),
        ("vocab_size 8\neos 7\nalpha inf\n", ": alpha must be finite and > 0"),
        ("vocab_size 8\neos 7\nalpah 0.5\n", ":3: unknown header key 'alpah'"),
        ("vocab_size 8\neos 7\nalpha 0.1\nalpha 0.5\n", ":4: header key 'alpha' repeated"),
        # neither corpus exists: the repeat is found before either is read
        ("vocab_size 8\neos 7\ntrain_corpus_path a.txt\ntrain_corpus_path b.txt\n",
         ":4: header key 'train_corpus_path' repeated"),
        # a file has one source: a corpus or a counts section, never both
        ("vocab_size 8\neos 7\ntrain_corpus_path a.txt\n",
         ":4: counts section after train_corpus_path"),
    ],
    ids=["vocab_size-not-int", "alpha-nan", "alpha-inf", "unknown-key", "repeated-key",
         "repeated-corpus-path", "corpus-and-counts"],
)
def test_model_file_rejects_invalid_header(tmp_path, header, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{header}counts\n1 -> 2:1\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}{message}")):
        load_model_file(bad)
