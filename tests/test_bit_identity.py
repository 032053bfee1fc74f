"""Bit-identity gate: every mode's emitted tokens and per-step records on
the seed-0 corpus hash to digests recorded from the dense-mask
implementation. Any change to drafting, the tree, the model contract or
verification (including the order of RNG draws at T=1) shows up here.

The T=0 logitspec digest was re-recorded when greedy steps whose
next-token query hits at full length stopped drafting candidates: its
tokens are unchanged, its draft sizes are not."""

from __future__ import annotations

import hashlib

import pytest

from logitspec import DecodeConfig, MarkovTableModel, VocabSpec, decode
from logitspec.cli import prompt_seed
from logitspec.corpus import gen_corpus
from logitspec.engine import MODES

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
            "25e712351654161bb0ff1db66b7ad6eb"
            "3337da38fd5983953ab0d263e9abf2e8"
        ),
        "logitspec": (
            "73e064612e77a3c8db2068858044c959"
            "405303fd64a945abb433087e46b72f8b"
        ),
    },
    (1.0, 0.2): {
        "autoregressive": (
            "ec9dea7a5bb07d2f5accd40aa0c48f65"
            "ea2ed9a6b2d64163bfb4b0ef68576991"
        ),
        "last_logit": (
            "3dc716fd6f927171f808abfe1cfaf065"
            "81a4c77baac15fd939cc2acd71243a35"
        ),
        "retrieval_only": (
            "65e7036a4ffb331e82aab01fd3f41cef"
            "fe7d1a76bada94c969e463e2b737916d"
        ),
        "logitspec": (
            "bbd522cdddb7889364f18d6a5b8ebeff"
            "528bf6f5d47c194719bf8f9ecf0f7497"
        ),
    },
}


def decode_digest(temperature: float, repetitiveness: float, mode: str) -> str:
    corpus = gen_corpus(
        seed=0, vocab_size=64, count=40, length=32, repetitiveness=repetitiveness
    )
    model = MarkovTableModel(VocabSpec(64, 63), order=2, alpha=0.1, seed=0)
    model.train(corpus.sequences)
    h = hashlib.sha256()
    for i, prompt in enumerate(corpus.sequences):
        cfg = DecodeConfig(
            mode=mode,
            max_new_tokens=128,
            temperature=temperature,
            seed=prompt_seed(0, i),
        )
        result = decode(model, prompt, cfg)
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
