from __future__ import annotations

import itertools

import numpy as np
import pytest

from logitspec import (
    acceptance_prob,
    prepare_attention_inputs,
    residual,
    sample,
    verify_greedy,
    verify_stochastic,
)

from logitspec.models import InverseCDF, sample_uniform, tempered_cdf
from logitspec.verify import VerifyOutcome

from conftest import ListRng, dist


def test_acceptance_prob_values():
    p = np.array([0.6, 0.4])
    q = np.array([0.5, 0.5])
    assert acceptance_prob(p, q, 0) == 1.0
    assert acceptance_prob(np.array([0.3, 0.7]), np.array([0.6, 0.4]), 0) == 0.5
    assert acceptance_prob(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0) == 0.0


def test_acceptance_prob_zero_proposal_rejected():
    with pytest.raises(ValueError):
        acceptance_prob(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1)


def test_residual_hand_values():
    r = residual(np.array([0.5, 0.3, 0.2]), np.array([0.7, 0.2, 0.1]))
    np.testing.assert_allclose(r, [0.0, 0.5, 0.5], atol=1e-12)


def test_residual_one_hot_zeroes_entry():
    p = np.array([0.5, 0.3, 0.2])
    r = residual(p, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(r, [0.5 / 0.7, 0.0, 0.2 / 0.7], atol=1e-12)


def test_residual_degenerate():
    p = np.array([0.5, 0.5])
    assert residual(p, p) is None


def make_dists(tree, table):
    """Distribution per tree row from a {token_path: dist} table."""
    paths: list[tuple[int, ...]] = []  # token path per row, root first
    for tok, parent in zip(tree.draft_ids, tree.parents):
        paths.append((paths[parent] if parent >= 0 else ()) + (tok,))
    return [table[path] for path in paths]


def test_greedy_full_linear_acceptance():
    # tree [[a, b]] with argmax chain (a, b, c)
    a, b, c = 1, 2, 3
    tree = prepare_attention_inputs(0, 0, [[a, b]])
    dists = [dist(4, t1=1.0), dist(4, t2=1.0), dist(4, t3=1.0)]
    out = verify_greedy(tree, dists)
    assert out.accepted == [a, b]
    assert out.bonus == c


def test_greedy_sibling_selection():
    tree = prepare_attention_inputs(0, 0, [[1], [2]])
    dists = [dist(4, t2=1.0), dist(4, t3=1.0), dist(4, t1=1.0)]
    out = verify_greedy(tree, dists)
    assert out.accepted == [2]
    assert out.bonus == 1  # argmax after the accepted sibling


def test_greedy_longest_path_over_first_matching_sibling():
    # every sequence starts with the argmax 1; the second continues along
    # the argmax chain 1 -> 3 -> 2, and the third repeats it, which the
    # trie holds as the same rows
    tree = prepare_attention_inputs(0, 0, [[1, 2], [1, 3, 2], [1, 3, 2]])
    table = {
        (0,): dist(4, t1=1.0),
        (0, 1): dist(4, t3=1.0),
        (0, 1, 2): dist(4, t0=1.0),
        (0, 1, 3): dist(4, t2=1.0),
        (0, 1, 3, 2): dist(4, t0=1.0),
    }
    out = verify_greedy(tree, make_dists(tree, table))
    assert out.accepted == [1, 3, 2]
    assert out.bonus == 0


def test_greedy_total_rejection_still_emits():
    tree = prepare_attention_inputs(0, 0, [[1], [2]])
    dists = [dist(4, t3=1.0), dist(4, t0=1.0), dist(4, t0=1.0)]
    out = verify_greedy(tree, dists)
    assert out.accepted == []
    assert out.bonus == 3
    np.testing.assert_array_equal(out.next_dist, dists[0])


def test_greedy_invariant_under_nonmatching_permutation():
    # matching sequence [2]; non-matching [1] and [3] may swap around it
    base = {0: dist(5, t2=1.0), 1: dist(5, t0=1.0), 2: dist(5, t4=1.0), 3: dist(5, t0=1.0)}
    for order in itertools.permutations([1, 2, 3]):
        tree = prepare_attention_inputs(0, 0, [[t] for t in order])
        dists = [base[0]] + [base[t] for t in order]
        out = verify_greedy(tree, dists)
        assert out.accepted == [2]
        assert out.bonus == 4


def test_stochastic_certain_draft_always_accepted():
    tree = prepare_attention_inputs(0, 0, [[2]])
    dists = [dist(4, t2=1.0), dist(4, t1=1.0)]
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = verify_stochastic(tree, dists, InverseCDF(1.0, rng, tree.past_len + 1))
        assert out.accepted == [2]
        assert out.bonus == 1


def test_stochastic_impossible_draft_always_rejected():
    tree = prepare_attention_inputs(0, 0, [[0]])
    p = np.array([0.0, 0.25, 0.75, 0.0])
    dists = [p, dist(4, t1=1.0)]
    rng = np.random.default_rng(1)
    draws = [
        verify_stochastic(tree, dists, InverseCDF(1.0, rng, tree.past_len + 1))
        for _ in range(5000)
    ]
    assert all(not o.accepted for o in draws)
    freq = np.mean([o.bonus == 2 for o in draws])
    assert freq == pytest.approx(0.75, abs=0.02)


def test_stochastic_sibling_marginal_preserved():
    # vocab {A, B, C}, p = [0.5, 0.3, 0.2], siblings [A], [B]: the first
    # emitted token must be distributed exactly as p
    tree = prepare_attention_inputs(0, 9, [[0], [1]])
    p = np.array([0.5, 0.3, 0.2])
    after = np.full(3, 1.0 / 3)
    dists = [p, after, after]
    rng = np.random.default_rng(1234)
    counts = np.zeros(3)
    n = 50_000
    for _ in range(n):
        out = verify_stochastic(tree, dists, InverseCDF(1.0, rng, tree.past_len + 1))
        first = out.accepted[0] if out.accepted else out.bonus
        counts[first] += 1
    tv = 0.5 * np.abs(counts / n - p).sum()
    assert tv <= 0.02


def test_stochastic_emits_at_least_one_token():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_seqs = int(rng.integers(0, 4))
        seqs = [rng.integers(0, 4, size=rng.integers(1, 3)).tolist() for _ in range(n_seqs)]
        tree = prepare_attention_inputs(0, 0, seqs)
        dists = []
        for _ in range(tree.seq_len):
            d = rng.random(4)
            dists.append(d / d.sum())
        out = verify_stochastic(tree, dists, InverseCDF(1.0, rng, tree.past_len + 1))
        assert len(out.accepted) <= tree.draft_count
        assert 0 <= out.bonus < 4
        assert out.next_dist.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("u", [1.0, 1.5, -0.25, float("nan")])
def test_stochastic_rejects_uniform_outside_unit_interval(u):
    # u >= 1 or NaN would draw token id 4, outside the 4-token vocab, and
    # a negative u token 0: the rule checks the uniform as it draws it
    tree = prepare_attention_inputs(2, 0, [])
    rule = InverseCDF(1.0, ListRng([u]), tree.past_len + 1)
    with pytest.raises(ValueError):
        verify_stochastic(tree, [np.full(4, 0.25)], rule)


def reference_verify(tree, dists, temperature, rng):
    """Walk the token paths: draw from the dist of the lowest row whose
    path is the emitted prefix, and continue while some row's path
    extends the prefix by the drawn token."""
    lowest_row = {}
    paths = [()]
    for r in range(1, tree.seq_len):
        paths.append(paths[tree.parents[r]] + (tree.draft_ids[r],))
        lowest_row.setdefault(paths[r], r)
    row = 0
    accepted = []
    while True:
        x = sample(dists[row], temperature, rng)
        child = lowest_row.get(paths[row] + (x,))
        if child is None:
            return VerifyOutcome(accepted=accepted, bonus=x, next_dist=dists[row])
        accepted.append(x)
        row = child


def random_dist(rng, vocab):
    kind = rng.integers(0, 3)
    if kind == 0:  # one-hot
        d = np.zeros(vocab)
        d[rng.integers(0, vocab)] = 1.0
        return d
    d = rng.random(vocab)
    if kind == 1:  # some tokens impossible
        d[rng.random(vocab) < 0.4] = 0.0
        if not d.any():
            d[rng.integers(0, vocab)] = 1.0
    return d / d.sum()


def test_verify_matches_token_path_oracle():
    # vocabs this small make repeated sibling tokens the rule
    rng = np.random.default_rng(77)
    for case in range(2000):
        vocab = int(rng.integers(2, 9))
        fan = int(rng.integers(0, 61 if case % 4 == 0 else 6))
        seqs = [
            rng.integers(0, vocab, size=rng.integers(1, 5)).tolist() for _ in range(fan)
        ]
        tree = prepare_attention_inputs(0, 0, seqs)
        dists = [random_dist(rng, vocab) for _ in range(tree.seq_len)]
        for r in range(1, tree.seq_len):
            if rng.random() < 0.3:  # lean the parent towards r so walks go deep
                p = tree.parents[r]
                dists[p] = 0.1 * dists[p]
                dists[p][tree.draft_ids[r]] += 0.9
        temperature = [0.0, 0.5, 1.0, 2.0][case // 4 % 4]
        ref_rng = np.random.default_rng(case)
        new_rng = np.random.default_rng(case)
        want = reference_verify(tree, dists, temperature, ref_rng)
        if temperature == 0:
            got = verify_greedy(tree, dists)
        else:
            rule = InverseCDF(temperature, new_rng, tree.past_len + 1)
            got = verify_stochastic(tree, dists, rule)
        assert got.accepted == want.accepted, case
        assert got.bonus == want.bonus, case
        assert got.next_dist is want.next_dist, case
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state, case


def test_stochastic_reads_the_uniform_of_each_depths_position():
    # depth d draws with the uniform of position past_len + d + 1,
    # exactly as `sample` on a Generator drawn in depth order would
    rng = np.random.default_rng(23)
    for case in range(300):
        vocab = int(rng.integers(2, 6))
        seqs = [rng.integers(0, vocab, size=rng.integers(1, 4)).tolist() for _ in range(4)]
        tree = prepare_attention_inputs(int(rng.integers(0, 5)), 0, seqs)
        dists = [random_dist(rng, vocab) for _ in range(tree.seq_len)]
        temperature = [0.5, 1.0, 2.0][case % 3]
        want = reference_verify(tree, dists, temperature, np.random.default_rng(case))
        rule = InverseCDF(temperature, np.random.default_rng(case), tree.past_len + 1)
        rule.path(dists[0], tree.past_len + 1, 3)  # reading ahead moves nothing
        got = verify_stochastic(tree, dists, rule)
        assert (got.accepted, got.bonus) == (want.accepted, want.bonus), case
        depth = len(got.accepted)
        assert got.bonus == sample_uniform(got.next_dist, temperature, rule.uniforms[depth])


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_stochastic_builds_one_cdf_per_distinct_dist(monkeypatch, temperature):
    # a chain whose rows share one dist array (as a model's unseen row
    # does) builds its tempered CDF once per call, and every draw is
    # still sample_uniform of its own row and position
    import logitspec.models as models_module

    calls = []

    def counting_cdf(d, t):
        calls.append(id(d))
        return tempered_cdf(d, t)

    monkeypatch.setattr(models_module, "tempered_cdf", counting_cdf)
    shared = np.full(3, 1.0 / 3)
    other = np.array([0.2, 0.5, 0.3])
    rng = np.random.default_rng(3)
    for case in range(200):
        path = rng.integers(0, 3, size=12).tolist()
        tree = prepare_attention_inputs(int(rng.integers(0, 9)), 0, [path])
        dists = [shared if rng.random() < 0.8 else other for _ in range(tree.seq_len)]
        calls.clear()
        rule = InverseCDF(temperature, np.random.default_rng(case), tree.past_len + 1)
        got = verify_stochastic(tree, dists, rule)
        walked = dists[: len(got.accepted) + 1]
        built = len(calls)
        assert built == len({id(d) for d in walked}), case
        # the rule keeps the bonus draw's CDF for the next step's drafter
        # and drops the walk's others
        np.testing.assert_array_equal(
            rule.cdf(got.next_dist), tempered_cdf(got.next_dist, temperature)
        )
        rule.cdf(other if got.next_dist is shared else shared)
        assert len(calls) == built + 1, case
        for depth, tok in enumerate([*got.accepted, got.bonus]):
            u = rule.uniforms[depth]
            assert tok == sample_uniform(walked[depth], temperature, u), case
