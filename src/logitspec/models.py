"""Target-model contract and exact reference models.

The decode engine needs two calls from a target model: `forward` for the
prefill and, once per step, `forward_tree` to evaluate a draft tree. It
commits accepted tokens by appending them to `ModelState.committed`.
Both reference models here (an add-alpha Markov table and a scripted
lookup table) are exact and deterministic, so they double as oracles in
tests.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tree import DraftTree, TreeStructureError
from .tree import ancestor_rows  # noqa: F401  (perfbench/spans.py wraps models.ancestor_rows)

__all__ = [
    "VocabSpec",
    "ModelState",
    "Model",
    "MarkovTableModel",
    "ScriptedModel",
    "sample",
    "validate_distribution",
    "load_model_file",
    "save_model_file",
]


@dataclass(frozen=True)
class VocabSpec:
    """Token id space: ids are 0..size-1, with a designated eos id."""

    size: int
    eos: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocab size must be >= 2, got {self.size}")
        if not 0 <= self.eos < self.size:
            raise ValueError(f"eos {self.eos} out of range [0, {self.size})")


def validate_distribution(probs: np.ndarray, vocab_size: int) -> None:
    """Raise if probs is not a valid probability vector over the vocab."""
    if probs.shape != (vocab_size,):
        raise ValueError(f"distribution shape {probs.shape} != ({vocab_size},)")
    if np.any(probs < 0):
        raise ValueError("distribution has negative entries")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total}, not 1")


@dataclass
class ModelState:
    """Session-local decode state: the committed token prefix."""

    committed: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.committed)


class Model:
    """Base class for target models.

    Subclasses implement `context_dist`; `forward` and `forward_tree` are
    derived from it, and `forward_tree` follows the draft tree's parent
    array. A backend that evaluates the tree with tree attention
    overrides `forward_tree` and reads `tree.mask` and
    `tree.position_ids` instead. Models are immutable after construction
    and shareable across sessions.
    """

    vocab: VocabSpec

    def context_dist(self, context: tuple[int, ...]) -> np.ndarray:
        """Next-token distribution given a full committed context."""
        raise NotImplementedError

    def new_state(self) -> ModelState:
        return ModelState()

    def _check_tokens(self, tokens: list[int]) -> None:
        for t in tokens:
            if not 0 <= t < self.vocab.size:
                raise ValueError(f"token id {t} out of range [0, {self.vocab.size})")

    def forward(self, state: ModelState, new_tokens: list[int]) -> list[np.ndarray]:
        """Consume new_tokens, returning the next-token distribution at
        each position. Advances the state; the decode engine uses it for
        the prefill only."""
        if not new_tokens:
            raise ValueError("forward requires at least one new token")
        self._check_tokens(new_tokens)
        dists = []
        ctx = list(state.committed)
        for t in new_tokens:
            ctx.append(t)
            dists.append(self.context_dist(tuple(ctx)))
        state.committed = ctx
        return dists

    def forward_tree(self, state: ModelState, tree: DraftTree) -> list[np.ndarray]:
        """Evaluate every draft-tree row in one call.

        The distribution at each row equals sequential `forward` along
        that row's ancestor path. The reference models read the paths
        from `tree.parents`, extending each row's context from its parent
        row's; a backend that consumes attention inputs reads
        `tree.mask` and `tree.position_ids`, which are derived from the
        same parents. The state is not advanced; the caller commits the
        accepted path by appending its tokens to `state.committed`, with
        no further model call.

        Raises TreeStructureError when a row's parent is not an earlier
        row (or row 0 is not the root).
        """
        ids = tree.draft_ids
        parents = tree.parents
        self._check_tokens(ids)
        if tree.past_len != len(state.committed):
            raise ValueError(
                f"tree past_len {tree.past_len} != committed length {len(state.committed)}"
            )
        if len(parents) != len(ids):
            raise TreeStructureError("parents length != draft_ids length")
        if parents[0] != -1:
            raise TreeStructureError(f"row 0 has parent {parents[0]}, not -1")
        contexts = [tuple(state.committed) + (ids[0],)]
        for r in range(1, len(ids)):
            p = parents[r]
            if not 0 <= p < r:
                raise TreeStructureError(f"row {r} has parent {p}, not an earlier row")
            contexts.append(contexts[p] + (ids[r],))
        return [self.context_dist(ctx) for ctx in contexts]


class MarkovTableModel(Model):
    """Order-o add-alpha Markov model over token ids.

    Trained by counting (context, token) transitions in a seed corpus;
    prob(t | ctx) = (count(ctx, t) + alpha) / (sum(count(ctx)) + alpha * V)
    with ctx the last min(o, len) committed tokens. Low-entropy training
    corpora make the model reproduce phrases, which gives the retrieval
    index signal.
    """

    def __init__(
        self,
        vocab: VocabSpec,
        order: int = 2,
        alpha: float = 0.1,
        seed: int = 0,
        counts: dict[tuple[int, ...], dict[int, int]] | None = None,
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        self.vocab = vocab
        self.order = order
        self.alpha = alpha
        self.seed = seed
        self.counts: dict[tuple[int, ...], dict[int, int]] = counts or {}
        self._dist_cache: dict[tuple[int, ...], np.ndarray] = {}

    def train(self, sequences: list[list[int]]) -> "MarkovTableModel":
        for seq in sequences:
            self._check_tokens(seq)
            for i, tok in enumerate(seq):
                ctx = tuple(seq[max(0, i - self.order) : i])
                self.counts.setdefault(ctx, collections.Counter())[tok] += 1
        self._dist_cache.clear()
        return self

    def context_dist(self, context: tuple[int, ...]) -> np.ndarray:
        ctx = context[-self.order :] if len(context) > self.order else context
        cached = self._dist_cache.get(ctx)
        if cached is not None:
            return cached
        probs = np.full(self.vocab.size, self.alpha, dtype=np.float64)
        for tok, cnt in self.counts.get(ctx, {}).items():
            probs[tok] += cnt
        probs /= probs.sum()
        self._dist_cache[ctx] = probs
        return probs


class ScriptedModel(Model):
    """Lookup-table model: explicit distribution per context, used as a
    unit-test oracle. Contexts not in the table get the default."""

    def __init__(
        self,
        vocab: VocabSpec,
        table: dict[tuple[int, ...], np.ndarray],
        default: np.ndarray,
    ):
        validate_distribution(default, vocab.size)
        for ctx, dist in table.items():
            validate_distribution(dist, vocab.size)
        self.vocab = vocab
        self.table = table
        self.default = default

    def context_dist(self, context: tuple[int, ...]) -> np.ndarray:
        return self.table.get(context, self.default)


def sample(dist: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    """Sample a token id. Temperature 0 is argmax with lowest-id
    tie-break; temperature 1 is an exact categorical draw from dist.
    Other temperatures draw from dist ** (1 / temperature), renormalized;
    dist is scaled by its maximum first, so the tempered sum is at least
    1 and cannot underflow to 0."""
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if temperature == 0:
        return int(np.argmax(dist))
    if temperature != 1.0:
        scaled = np.power(dist / dist.max(), 1.0 / temperature)
        scaled /= scaled.sum()
    else:
        scaled = dist
    return int(rng.choice(len(scaled), p=scaled))


def save_model_file(path: str | Path, model: MarkovTableModel) -> None:
    """Write the structured-text model file with explicit counts."""
    lines = [
        f"vocab_size {model.vocab.size}",
        f"eos {model.vocab.eos}",
        f"order {model.order}",
        f"alpha {model.alpha}",
        f"seed {model.seed}",
        "counts",
    ]
    for ctx in sorted(model.counts):
        pairs = ",".join(
            f"{tok}:{cnt}" for tok, cnt in sorted(model.counts[ctx].items())
        )
        lines.append(f"{' '.join(map(str, ctx))} -> {pairs}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# header fields and their parsers; any other header key is ignored
_HEADER_FIELDS = {"vocab_size": int, "eos": int, "order": int, "alpha": float, "seed": int}


def load_model_file(path: str | Path) -> MarkovTableModel:
    """Parse a model file.

    Header fields: vocab_size, eos, order, alpha, seed. Then either a
    `train_corpus_path <relative path>` line or a `counts` section with
    one line per context: "ctx_tokens -> token:count,...". A malformed
    number, or a counts line with a token id outside the vocab, a
    negative count or a context longer than the order, raises ValueError
    naming its path:line.
    """
    path = Path(path)
    header: dict[str, int | float] = {}
    model: MarkovTableModel | None = None
    corpus_path: Path | None = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if model is None and line == "counts":
            model = _header_model(path, header)
            continue
        try:
            if model is not None:
                _add_counts_line(model, line)
                continue
            key, _, value = line.partition(" ")
            if not value:
                raise ValueError(f"malformed header line {line!r}")
            if key == "train_corpus_path":
                corpus_path = path.parent / value.strip()
            elif key in _HEADER_FIELDS:
                header[key] = _HEADER_FIELDS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if model is None:
        model = _header_model(path, header)
    if corpus_path is not None:
        from .corpus import load_corpus

        model.train(load_corpus(corpus_path).sequences)
    return model


def _header_model(path: Path, header: dict[str, int | float]) -> MarkovTableModel:
    try:
        return MarkovTableModel(
            VocabSpec(int(header["vocab_size"]), int(header["eos"])),
            order=int(header.get("order", 2)),
            alpha=header.get("alpha", 0.1),
            seed=int(header.get("seed", 0)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing model header field {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _add_counts_line(model: MarkovTableModel, line: str) -> None:
    """Parse and check one "ctx_tokens -> token:count,..." line."""
    ctx_part, arrow, val_part = line.partition("->")
    if not arrow:
        raise ValueError("malformed counts line")
    ctx = tuple(int(t) for t in ctx_part.split())
    per_tok: dict[int, int] = {}
    for pair in val_part.strip().split(","):
        if pair:
            tok, _, cnt = pair.partition(":")
            per_tok[int(tok)] = int(cnt)
    if len(ctx) > model.order:
        raise ValueError(f"context of {len(ctx)} tokens exceeds order {model.order}")
    for tok in (*ctx, *per_tok):
        if not 0 <= tok < model.vocab.size:
            raise ValueError(f"token id {tok} out of range [0, {model.vocab.size})")
    if any(cnt < 0 for cnt in per_tok.values()):
        raise ValueError("negative count")
    model.counts[ctx] = per_tok
