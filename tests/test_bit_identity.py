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
42f8d7b1...e9a8a9 -> 537fbe0b...e79d777a."""

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
            "5efdf5e0d9ed16cd20872184867be232"
            "bed21c78695e2ed3f22bcb0946bf9359"
        ),
        "logitspec": (
            "4915d7b39afc3b1adac828bf220c9b43"
            "b93a6ba84c04529e9fc76795bba643b3"
        ),
    },
    (1.0, 0.2): {
        "autoregressive": (
            "ec9dea7a5bb07d2f5accd40aa0c48f65"
            "ea2ed9a6b2d64163bfb4b0ef68576991"
        ),
        "last_logit": (
            "54b18c925d6a33297942b7da6011394b"
            "ef927002567556e49299f180260453f7"
        ),
        "retrieval_only": (
            "4d0705d547027406f9405a22bb81d001"
            "a64d18669b0c8b06a29321108f4f2d06"
        ),
        "logitspec": (
            "537fbe0beeec6d73aaa45bef5eb53f9c"
            "3fc83b41524f1bf77ccd0510e79d777a"
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
            "7a1edcd0aec856c7412f628f8cfcf495"
            "80e31a55d0cdac87e9f7c354a46fc665"
        ),
        "logitspec": (
            "c49be339d4b3dbd6da07fd51e7cf79d9"
            "bf4090d327dc60fa6b5fd97e9c67f95c"
        ),
    },
    (1.0, 0.2): {
        "autoregressive": (
            "40ce588a501106e30a865e74f6a13f62"
            "ce8f74e74d285c8f651687a543caebaa"
        ),
        "last_logit": (
            "a20f613585227a8e59388991b6bca860"
            "6ad59e41ad19ad3bef9cf143e0cd8d39"
        ),
        "retrieval_only": (
            "2d96628a429e3fc9378c62f0ffc210fc"
            "fb465a65bb2f3267e7a14ab1ffe0a5dc"
        ),
        "logitspec": (
            "fe3403123e7740b54bca92106b183ae3"
            "59b022392fb5566c115af7ac1fbe7383"
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


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0], ids=lambda t: f"T{t:g}")
@pytest.mark.parametrize("mode", [m for m in MODES if m != "autoregressive"])
def test_sampled_tokens_equal_autoregressive(temperature, mode):
    # every emitted token is one draw on the dist autoregressive decoding
    # draws it from, so a seed gives the same tokens in every mode
    reference = decode_corpus(temperature, 0.7, "autoregressive")[0]
    for i, result in enumerate(decode_corpus(temperature, 0.7, mode)[0]):
        assert result.tokens == reference[i].tokens, i
