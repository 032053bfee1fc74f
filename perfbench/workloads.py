"""Benchmark workloads: generated corpora and decode settings.

Every workload decodes prompts of a synthetic corpus made by
`gen_corpus(seed=<workload seed>)` with an order-2, alpha-0.1
`MarkovTableModel` trained on that corpus. README.md gives the measured
reasons behind each choice.
"""

from __future__ import annotations

from dataclasses import dataclass

VOCAB_SIZE = 64
EOS = 63
CORPUS_PROMPTS = 40
PROMPT_LEN = 32
MODEL_ORDER = 2
MODEL_ALPHA = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpora: int  # corpora decoded per run, each with its own model
    repetitiveness: float
    prompts: int  # the first `prompts` prompts of the corpus are decoded
    max_new_tokens: int
    temperature: float
    # engine.step_growth compares the median step time at past_len >=
    # growth_long with the median at past_len < growth_short
    growth_short: int
    growth_long: int

    @property
    def greedy(self) -> bool:
        return self.temperature == 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="repeat-greedy",
            corpora=6,
            why="repetitive prompts, greedy: retrieval hits on most steps and drafts are "
            "large, so tree, drafting and verify do most of the work",
            repetitiveness=0.7,
            prompts=CORPUS_PROMPTS,
            max_new_tokens=128,
            temperature=0.0,
            growth_short=64,
            growth_long=128,
        ),
        Workload(
            name="long-greedy",
            corpora=1,
            why="4 prompts decoded to 2048 tokens: per-step O(context) costs in engine, "
            "drafting, models and the tree mask grow with context",
            repetitiveness=0.7,
            prompts=4,
            max_new_tokens=2048,
            temperature=0.0,
            growth_short=256,
            growth_long=1024,
        ),
        Workload(
            name="novel-sampled",
            corpora=8,
            why="low repetition at T=1: retrieval misses often, candidate drafts lift MAT, "
            "and verify_stochastic and early eos run",
            repetitiveness=0.2,
            prompts=CORPUS_PROMPTS,
            max_new_tokens=128,
            temperature=1.0,
            growth_short=64,
            growth_long=128,
        ),
    )
}
