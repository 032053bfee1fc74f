"""The decode loop, its per-step records and its totals.

Per step: build the draft tree under the pending next token in one pass
(whatever the mode), evaluate it in one model call, verify, commit the
pending token plus accepted drafts, update the retrieval index, and
carry the bonus token (with the distribution that produced it) into the
next step as the new pending token / last logit. Committing appends to
the model state's tokens with no model call (the tree pass already
evaluated them), so the model runs once per step after the prefill; the
retrieval index keeps its own copy of the prompt and emitted tokens.

Every token, the first included, is a verification draw by the decode's
one draw rule, which `decode` builds from the temperature: the argmax
(`models.Greedy`) at 0, and otherwise the inverse-CDF draw of the
tempered dist at the uniform of the token's position (`models.InverseCDF`,
which draws one `rng.random()` of the decode seed per position). The
first token is drawn on a one-row tree under the prompt's last token
with the prefill's last dist and makes no `StepRecord`: it is emitted as
the first step's root, as every bonus is emitted as the next step's
root. Drafts only decide how many draws one forward call serves,
so for a seed every mode emits exactly the autoregressive tokens. The
drafter takes the same rule: its key ranks the next-next candidates
(`speculate_next_next`), and logitspec drafts its coupled path
(`build_draft`).

The retrieval modes draft to a per-session depth that
`DraftConfig.next_depth` moves after every step.

Modes:
  autoregressive  no drafts; one token per forward (the baseline).
  last_logit      last_logit_k last-logit candidates (the top-k at
                  temperature 0, the coupled order otherwise) as
                  single-token sibling guesses at the next-next token,
                  whatever the capacity (accepted length 0 or 1 per
                  step, so at most 2 tokens per forward).
  retrieval_only  next-token retrieval continuations only.
  logitspec       retrieval for the next token and for each speculated
                  next-next candidate, and the rule's coupled path; a
                  greedy step whose next-token query hits at full
                  length drafts neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .drafting import DraftConfig, build_draft, speculate_next_next
from .models import GREEDY, InverseCDF, Model, Rule
from .models import sample  # noqa: F401  (perfbench/spans.py wraps engine.sample)
from .ngram_index import NGramIndex
from .tree import DraftTree
from .tree import prepare_attention_inputs  # noqa: F401  (perfbench/spans.py wraps engine.prepare_attention_inputs)
from .verify import verify_greedy, verify_stochastic

__all__ = [
    "MODES",
    "DecodeConfig",
    "StepRecord",
    "DecodeMetrics",
    "DecodeResult",
    "decode",
]

MODES = ("autoregressive", "last_logit", "retrieval_only", "logitspec")
RETRIEVAL_MODES = ("retrieval_only", "logitspec")

PHASES = ("retrieve", "prepare", "forward", "verify", "update")


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "logitspec"
    max_new_tokens: int = 128
    temperature: float = 0.0
    seed: int = 0
    draft: DraftConfig = field(default_factory=DraftConfig)
    last_logit_k: int = 60

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.last_logit_k < 0:
            raise ValueError(f"last_logit_k must be >= 0, got {self.last_logit_k}")


@dataclass
class StepRecord:
    accepted_len: int  # emitted tokens after the pending one
    draft_size: int
    next_next_rank: int
    queries: int  # the tree's retrieval queries, and those that hit
    hits: int
    draws: int  # verification draws

    @property
    def retrieval_hit(self) -> bool:
        return self.hits > 0

    @property
    def phase_counters(self) -> dict[str, int]:
        counts = (self.queries, 1, self.draft_size + 1, self.draws, self.accepted_len + 1)
        return dict(zip(PHASES, counts))


@dataclass
class DecodeMetrics:
    """A decode's totals: steps (verification forwards, prefill
    excluded), generated tokens and steps whose retrieval hit. Like a
    `StepRecord`'s `retrieval_hit` and `phase_counters`, they derive on
    read from the six counts each step's record holds."""

    steps: int
    tokens: int
    retrieval_hit_steps: int


@dataclass
class DecodeResult:
    tokens: list[int]
    step_records: list[StepRecord]

    @property
    def metrics(self) -> DecodeMetrics:
        records = self.step_records
        return DecodeMetrics(len(records), len(self.tokens), sum(r.retrieval_hit for r in records))


def _token_rank(dist: np.ndarray, token: int) -> int:
    """0-based rank of token in dist sorted descending, ties by lower id."""
    p = dist[token]
    return int(np.sum(dist > p) + np.sum((dist == p) & (np.arange(len(dist)) < token)))


def _build_step_draft(
    cfg: DecodeConfig,
    index: NGramIndex | None,
    context: list[int],
    pending: int,
    last_dist: np.ndarray,
    rule: Rule,
    depth: int,
) -> DraftTree:
    """The step's draft tree; depth bounds the retrieval modes' paths."""
    if cfg.mode == "autoregressive":
        return DraftTree(len(context), [pending], [-1])
    if cfg.mode == "last_logit":
        # distinct tokens, none of them pending: a star of root children
        cands = speculate_next_next(last_dist, pending, cfg.last_logit_k, rule, len(context) + 1)
        return DraftTree(len(context), [pending, *cands], [-1, *[0] * len(cands)])
    assert index is not None
    return build_draft(index, context, pending, last_dist, cfg.draft, depth=depth, rule=rule)


def decode(
    model: Model,
    prompt: list[int],
    cfg: DecodeConfig,
    tree_observer=None,
) -> DecodeResult:
    """Generate up to max_new_tokens after prompt, stopping at eos.

    Identical (model, prompt, cfg) always produces an identical result,
    and every mode emits the tokens of mode autoregressive with the same
    temperature and seed.
    """
    if not prompt:
        raise ValueError("prompt must be non-empty")
    if cfg.mode == "retrieval_only":  # logitspec drafting without candidates
        cfg = replace(cfg, draft=replace(cfg.draft, top_k=0))
    eos = model.vocab.eos
    if cfg.temperature == 0:
        rule, verify = GREEDY, verify_greedy
    else:
        rng = np.random.default_rng(cfg.seed)
        rule, verify = InverseCDF(cfg.temperature, rng, len(prompt)), verify_stochastic

    state = model.new_state()
    # the prefill: the first token is verification's draw on a one-row
    # tree under the prompt's last token
    prefill = DraftTree(len(prompt) - 1, [prompt[-1]], [-1])
    outcome = verify(prefill, [model.forward(state, list(prompt))[-1]], rule)
    depth = DraftConfig.DEPTH_FLOOR

    index: NGramIndex | None = None
    if cfg.mode in RETRIEVAL_MODES:
        index = NGramIndex.build(list(prompt), m_max=cfg.draft.m_start)

    end = len(prompt) + cfg.max_new_tokens
    records: list[StepRecord] = []
    while True:
        pending, last_dist = outcome.bonus, outcome.next_dist
        tree = _build_step_draft(cfg, index, state.committed, pending, last_dist, rule, depth)
        if tree_observer is not None:
            tree_observer(tree)
        dists = model.forward_tree(state, tree)
        outcome = verify(tree, dists, rule)

        emitted = [pending] + outcome.accepted
        emitted = emitted[: end - len(state)]
        if eos in emitted:
            emitted = emitted[: emitted.index(eos) + 1]
        # commit: the tree pass evaluated every emitted token, and
        # rejected drafts were never applied
        state.committed.extend(emitted)
        if index is not None:
            index.extend(emitted)

        rank = _token_rank(last_dist, outcome.accepted[0] if outcome.accepted else outcome.bonus)
        draws = len(outcome.accepted) + 1
        records.append(
            StepRecord(len(emitted) - 1, tree.draft_count, rank, tree.queries, tree.hits, draws)
        )
        if emitted[-1] == eos or len(state) >= end:
            break
        depth = DraftConfig.next_depth(depth, len(outcome.accepted))

    return DecodeResult(state.committed[len(prompt) :], records)
