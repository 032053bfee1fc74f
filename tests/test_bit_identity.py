"""Bit-identity gate: every mode's emitted tokens and per-step records on
the seed-0 corpus hash to digests recorded from the dense-mask
implementation. Any change to drafting, the tree, the model contract or
verification (including the order of RNG draws at T=1) shows up here.
A second digest per setting and mode hashes every step's draft tree row
for row, which the draft sizes alone cannot pin.

The T=0 logitspec digest was re-recorded when greedy steps whose
next-token query hits at full length stopped drafting candidates: its
tokens are unchanged, its draft sizes are not.

The three speculative T=1 digests were re-recorded when stochastic
verification became one `sample` draw per emitted token: every mode now
emits autoregressive's tokens for a seed, so their tokens, accepted
lengths and next-next ranks moved. The autoregressive T=1 digest did not
(its one-row tree made one `rng.choice` per token before and after).

The four retrieval_only and logitspec digests were re-recorded when the
draft tree became a token trie (one row per distinct token path): their
draft sizes fell, while tokens, accepted lengths and next-next ranks did
not move. Before -> after: T=0 retrieval_only 25e71235...abf2e8 ->
5efdf5e0...6bf9359, T=0 logitspec 73e06461...b72f8b -> 4915d7b3...a643b3,
T=1 retrieval_only 0a224fb1...a335f7 -> 4d0705d5...4f2d06, T=1 logitspec
42f8d7b1...e9a8a9 -> 537fbe0b...e79d777a.

The eight retrieval_only and logitspec digests (decode and tree) were
re-recorded when a next-token continuation that runs into the source end
began repeating its period up to value_len tokens: tokens and next-next
ranks did not move, draft sizes grew and accepted lengths rose (T=0
steps 942 -> 581 for retrieval_only, 934 -> 573 for logitspec; the T=1
step counts did not change). Decode digests, before -> after: T=0
retrieval_only 5efdf5e0...6bf9359 -> 82969f5a...85e0c37, T=0 logitspec
4915d7b3...a643b3 -> 72f7ae22...e33e9889, T=1 retrieval_only
4d0705d5...4f2d06 -> 63fc6557...5c763e8, T=1 logitspec
537fbe0b...e79d777a -> 653dd502...3f6f20d. Tree digests: T=0
retrieval_only 7a1edcd0...46fc665 -> e8aee85e...7ae251e, T=0 logitspec
c49be339...9c67f95c -> f4495174...7aed6096, T=1 retrieval_only
2d96628a...e0a5dc -> 80ccaaa0...bdf50e5, T=1 logitspec
fe340312...1fbe7383 -> 07e44fdd...8b430618.

The four T=1 last_logit and logitspec digests (decode and tree) were
re-recorded when, at T>0, the drafter began ordering next-next
candidates by the distance from the next-next position's uniform to
their intervals of the tempered last-logit CDF. No token moved: a
tokens-only sha256 of each mode's 40 decodes reads f1811c52...
before and after, in all four modes. Steps fell (MAT: last_logit
1.8924 -> 1.9609, logitspec 1.2604 -> 1.9315), so accepted lengths,
draft sizes, next-next ranks and trees moved. Decode digests, before ->
after: T=1 last_logit 54b18c92...260453f7 -> 11596432...694cbadf,
T=1 logitspec 653dd502...3f6f20d -> a52e8975...a082d7d9. Tree digests:
T=1 last_logit a20f6135...e0cd8d39 -> d5330243...c1643b7a, T=1
logitspec 07e44fdd...8b430618 -> 56b87f5b...d28278f6f. The
autoregressive and retrieval_only T=1 digests did not move: neither
drafts a candidate.

The four T=0 retrieval_only and logitspec digests (decode and tree) were
re-recorded when the next-token draft depth became a per-session budget
(8 at first, 2 deeper after a step that accepts the whole depth, up to
16, and 1 shallower after any other step). Tokens and next-next ranks
did not move; steps fell (retrieval_only 581 -> 405, logitspec 573 ->
397), so accepted lengths, draft sizes and trees moved. Decode digests,
before -> after: T=0 retrieval_only 82969f5a...85e0c37 ->
2887c869...d3fe202, T=0 logitspec 72f7ae22...e33e9889 ->
f98a0072...5ae49edd. Tree digests: T=0 retrieval_only
e8aee85e...7ae251e -> 42eb49ae...f85341, T=0 logitspec
f4495174...7aed6096 -> 7b9521ef...2794d2. No T=1 digest moved.

The two T=1 logitspec digests (decode and tree) were re-recorded when,
at T>0, logitspec began drafting the coupled path: the tokens the
tempered last-logit CDF draws with the uniforms of the next depth
positions. No token moved (the tokens-only sha256 of every mode's
decodes is unchanged at T = 0.5, 1 and 2, rep 0.7 and 0.2). Steps fell
1065 -> 623 (MAT 1.9315 -> 3.3018), so accepted lengths, draft sizes,
next-next ranks and trees moved. Decode digest, before -> after: T=1
logitspec a52e8975...a082d7d9 -> eda39b5c...eb4e284. Tree digest: T=1
logitspec 56b87f5b...d28278f6f -> 0f8efa20...4d190480. No other digest
moved.

The eight T=0.7 rep-0.2 digests (decode and tree, every mode) were
recorded from the implementation that drafted from a `draw = (cdf, us)`
tuple and handed the bonus's CDF on in `VerifyOutcome.next_cdf`, before
one draw-rule object per decode (`models.Greedy`, `models.InverseCDF`)
replaced them. At T=1 `tempered` returns the dist itself, so only these
digests see a tempered CDF's candidate order and coupled path. The
refactor left all of them, and every other digest, unchanged."""

from __future__ import annotations

import functools
import hashlib

import pytest

from logitspec import DecodeConfig, DecodeResult, MarkovTableModel, VocabSpec, decode
from logitspec.cli import prompt_seed
from logitspec.corpus import gen_corpus
from logitspec.engine import MODES
from logitspec.tree import DraftTree

# (temperature, repetitiveness) -> mode -> sha256 over 40 prompts x 128 tokens
DIGESTS = {
    (0.0, 0.7): {
        "autoregressive": (
            "6cd81ddd5429ec94cb52316613d5fb62"
            "fe642e0b854fb34e88198fee0930555a"
        ),
        "last_logit": (
            "67e271debba7428f442998e481096fa5"
            "aeb045a37346dda6bec50455f4f319bb"
        ),
        "retrieval_only": (
            "2887c869109a9f8c8f37b3a5d3780802"
            "52f135ea5cf4c4c85fdb2ebc3d3fe202"
        ),
        "logitspec": (
            "f98a007249390a61a2fbd4d4a0d09b2e"
            "a78cac4ded4c1066b3a5e8d05ae49edd"
        ),
    },
    (0.7, 0.2): {
        "autoregressive": (
            "834c0ca81683ff40b514641ffcff4e5c"
            "8af4304cbda9e37b63cf9bc949dd691e"
        ),
        "last_logit": (
            "86eb88fb2c876ae5cf05c122042ccb53"
            "1dd7e5cb286290888c16f4924a34ce50"
        ),
        "retrieval_only": (
            "b18e44834fd3a0763c9b0d964dcfe7d6"
            "0031bf847e2d280b28292bc935d38c0e"
        ),
        "logitspec": (
            "00ddd8e8844ba2894d06ee5c1e0e0ead"
            "d1a907593d786a5710ab17d7936e9ff4"
        ),
    },
    (1.0, 0.2): {
        "autoregressive": (
            "ec9dea7a5bb07d2f5accd40aa0c48f65"
            "ea2ed9a6b2d64163bfb4b0ef68576991"
        ),
        "last_logit": (
            "11596432709d559e4159d819b2d4c5fd"
            "4dd766461b5cbed012796ddd694cbadf"
        ),
        "retrieval_only": (
            "63fc65575509c4d813676d60f99626f2"
            "035a191a3b3c66b0e0f6f29cb5c763e8"
        ),
        "logitspec": (
            "eda39b5c67161d099ee60fb890895599"
            "4f1dbf40862c2dd8305ddfd5eeb4e284"
        ),
    },
}

# (temperature, repetitiveness) -> mode -> sha256 over every step's draft
# tree, recorded while decode still merged a sequence list into the trie
TREE_DIGESTS = {
    (0.0, 0.7): {
        "autoregressive": (
            "155c421734bc1d70ed0327224fc3b017"
            "3c9ea5bea48213d6ec490f9d050e47ac"
        ),
        "last_logit": (
            "5f3fc7686a0760d2fc197e2d7d7d58b7"
            "09052dbf6ba5e4fd76c6e34a09a6f496"
        ),
        "retrieval_only": (
            "42eb49aedef0e757f687aba04693ae2c"
            "ec0b93901437edc17e2dd2692df85341"
        ),
        "logitspec": (
            "7b9521ef0a34e2895edfaf1b37be8188"
            "66d2907f9debddfa139becaa692794d2"
        ),
    },
    (0.7, 0.2): {
        "autoregressive": (
            "fdde42158d8a947a631a67912fb00eec"
            "4c166d0fe508ca779742a2185370344b"
        ),
        "last_logit": (
            "b54c8f196897a9378b1c529ee2602a62"
            "c8eab4ccb2c9644107b1d677be04285e"
        ),
        "retrieval_only": (
            "785d1db7d741223e98b79b6db58dd732"
            "ad20eaaa51ae6395dc0b2a58b04fe485"
        ),
        "logitspec": (
            "09967b2feb56330ad53b13ce00e28734"
            "5f053c909d1d9a5a1c073e49e8944f50"
        ),
    },
    (1.0, 0.2): {
        "autoregressive": (
            "40ce588a501106e30a865e74f6a13f62"
            "ce8f74e74d285c8f651687a543caebaa"
        ),
        "last_logit": (
            "d53302431cc6c0a2361b4678db3718d0"
            "9bf4d2f7c396be1d68e3a6d0c1643b7a"
        ),
        "retrieval_only": (
            "80ccaaa00e6513c891f0bd71941c1bd5"
            "5474dba8e2d884863abbeb918bdf50e5"
        ),
        "logitspec": (
            "0f8efa2035f1e41e0f592bfabafb3e19"
            "59198f1103fda7aeba859623d4190480"
        ),
    },
}


@functools.cache
def decode_corpus(
    temperature: float, repetitiveness: float, mode: str
) -> tuple[list[DecodeResult], str]:
    """The decodes of the 40 prompts, and a sha256 over every step's
    draft tree in order (past length, row tokens, parent rows)."""
    corpus = gen_corpus(
        seed=0, vocab_size=64, count=40, length=32, repetitiveness=repetitiveness
    )
    model = MarkovTableModel(VocabSpec(64, 63), order=2, alpha=0.1, seed=0)
    model.train(corpus.sequences)
    trees = hashlib.sha256()

    def observe(tree: DraftTree) -> None:
        trees.update(f"{tree.past_len} {tree.draft_ids} {tree.parents}\n".encode())

    results = [
        decode(
            model,
            prompt,
            DecodeConfig(
                mode=mode,
                max_new_tokens=128,
                temperature=temperature,
                seed=prompt_seed(0, i),
            ),
            tree_observer=observe,
        )
        for i, prompt in enumerate(corpus.sequences)
    ]
    return results, trees.hexdigest()


def decode_digest(temperature: float, repetitiveness: float, mode: str) -> str:
    h = hashlib.sha256()
    for i, result in enumerate(decode_corpus(temperature, repetitiveness, mode)[0]):
        h.update(f"prompt {i} tokens {result.tokens}\n".encode())
        for rec in result.step_records:
            h.update(
                f"{rec.accepted_len} {rec.draft_size} {rec.next_next_rank}\n".encode()
            )
    return h.hexdigest()


@pytest.mark.parametrize("setting", sorted(DIGESTS), ids=lambda s: f"T{s[0]:g}-rep{s[1]:g}")
@pytest.mark.parametrize("mode", MODES)
def test_decode_bit_identical_to_reference(setting, mode):
    temperature, repetitiveness = setting
    assert decode_digest(temperature, repetitiveness, mode) == DIGESTS[setting][mode]


@pytest.mark.parametrize("setting", sorted(TREE_DIGESTS), ids=lambda s: f"T{s[0]:g}-rep{s[1]:g}")
@pytest.mark.parametrize("mode", MODES)
def test_draft_trees_identical_to_reference(setting, mode):
    # draft_size alone cannot see a reordered or re-parented row
    assert decode_corpus(*setting, mode)[1] == TREE_DIGESTS[setting][mode]


@pytest.mark.parametrize(
    "setting",
    [(0.5, 0.7), (1.0, 0.7), (2.0, 0.7), (0.5, 0.2), (1.0, 0.2), (2.0, 0.2)],
    # rep 0.7 cases keep their ids from before rep 0.2 was added
    ids=lambda s: f"T{s[0]:g}" + ("" if s[1] == 0.7 else f"-rep{s[1]:g}"),
)
@pytest.mark.parametrize("mode", [m for m in MODES if m != "autoregressive"])
def test_sampled_tokens_equal_autoregressive(setting, mode):
    # every emitted token is one draw on the dist autoregressive decoding
    # draws it from, so a seed gives the same tokens in every mode; at
    # rep 0.2 most rows are the unseen row, where the drafter's coupled
    # candidates and coupled path are accepted most, and at T = 0.5 and 2
    # the tempered CDF is not the dist's own
    reference = decode_corpus(*setting, "autoregressive")[0]
    for i, result in enumerate(decode_corpus(*setting, mode)[0]):
        assert result.tokens == reference[i].tokens, i
