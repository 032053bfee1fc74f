"""Target-model contract and exact reference models.

The decode engine needs two calls from a target model: `forward` for the
prefill and, once per step, `forward_tree` to evaluate a draft tree. It
commits accepted tokens by appending them to `ModelState.committed`.
Both reference models here (an add-alpha Markov table and a scripted
lookup table) are exact and deterministic, so they double as oracles in
tests. The draw rules turn a dist into tokens and drafts: `Greedy` at
temperature 0, and otherwise `InverseCDF`, which draws the decode's
uniforms itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import load_corpus
from .tree import DraftTree
from .tree import ancestor_rows  # noqa: F401  (perfbench/spans.py wraps models.ancestor_rows)

__all__ = [
    "VocabSpec",
    "ModelState",
    "Model",
    "MarkovTableModel",
    "ScriptedModel",
    "sample",
    "sample_uniform",
    "tempered",
    "tempered_cdf",
    "Greedy",
    "GREEDY",
    "InverseCDF",
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

    Subclasses implement `context_dist`. `forward` and `forward_tree`
    check their inputs and hand the rows to one hook, `_row_dists`,
    which by default calls `context_dist` on each row's full context. A
    model with a faster way to evaluate rows overrides `_row_dists`,
    never `forward` or `forward_tree`, so every model keeps the same
    checks (and perfbench/spans.py, which wraps both by name, sees every
    call). A model is trained before decoding (`MarkovTableModel.train`
    adds counts in place); from then on it is read-only and shareable
    across sessions.
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
        chain = [-1, *range(len(new_tokens) - 1)]
        dists = self._row_dists(state.committed, new_tokens, chain)
        state.committed = [*state.committed, *new_tokens]
        return dists

    def forward_tree(self, state: ModelState, tree: DraftTree) -> list[np.ndarray]:
        """Evaluate every draft-tree row in one call.

        The distribution at each row equals sequential `forward` along
        that row's ancestor path. The reference models read the paths
        from `tree.parents`; a backend that consumes attention inputs
        reads `tree.mask` and `tree.position_ids`, which are derived from
        the same parents. The state is not advanced; the caller commits
        the accepted path by appending its tokens to `state.committed`,
        with no further model call.

        Raises TreeStructureError (`DraftTree.check`) when a row's parent
        is not an earlier row (or row 0 is not the root).
        """
        ids = tree.draft_ids
        self._check_tokens(ids)
        if tree.past_len != len(state.committed):
            raise ValueError(
                f"tree past_len {tree.past_len} != committed length {len(state.committed)}"
            )
        tree.check()
        return self._row_dists(state.committed, ids, tree.parents)

    def _row_dists(
        self, committed: list[int], ids: list[int], parents: list[int]
    ) -> list[np.ndarray]:
        """Next-token distribution after each row of a checked tree: row
        r's context is `committed` followed by the tokens on the path
        from row 0 to row r (`parents[0]` is -1, every other parent an
        earlier row)."""
        contexts = [(*committed, ids[0])]
        for r in range(1, len(ids)):
            contexts.append(contexts[parents[r]] + (ids[r],))
        return [self.context_dist(ctx) for ctx in contexts]


class MarkovTableModel(Model):
    """Order-o add-alpha Markov model over token ids.

    Trained by counting (context, token) transitions in a seed corpus;
    prob(t | ctx) = (count(ctx, t) + alpha) / (sum(count(ctx)) + alpha * V)
    with ctx the last min(o, len) committed tokens. Low-entropy training
    corpora make the model reproduce phrases, which gives the retrieval
    index signal.

    The model is a dense table: one row of counts and one read-only row
    of probabilities per observed context, and one shared probability
    row (zero counts, so 1/V) for every unseen context. A context's key
    is the context padded on the left with the sentinel V to o tokens,
    read as base-(V+1) digits, so contexts shorter than o (at the start
    of a sequence) get keys of their own. A child's key drops its
    parent key's top digit and appends its token, so a draft tree's row
    keys follow its parent array with one multiply-add per row.
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
        self._base = vocab.size + 1
        # a child key keeps its parent key modulo _wrap (the low o-1 digits)
        self._wrap = self._base ** (order - 1)
        self._empty_key = self._base**order - 1  # o sentinels
        # int64 keys while the largest key fits, Python ints past that
        fits = self._empty_key <= np.iinfo(np.int64).max
        self._key_dtype = np.int64 if fits else object
        self._keys = np.zeros(0, self._key_dtype)  # observed context keys, sorted
        self._counts = np.zeros((1, vocab.size), np.int64)  # see _add
        self._add(self._keys, np.zeros(0, np.intp), np.zeros(0, np.int64))
        if counts:
            self._add_counts(counts)

    def train(self, sequences: list[list[int]]) -> "MarkovTableModel":
        """Add one count per position of every sequence, under the key of
        the (up to o) tokens before it."""
        lens = [len(seq) for seq in sequences]
        tokens = np.fromiter(itertools.chain.from_iterable(sequences), np.int64, sum(lens))
        bad = tokens[(tokens < 0) | (tokens >= self.vocab.size)]
        if bad.size:
            raise ValueError(f"token id {bad[0]} out of range [0, {self.vocab.size})")
        # every sequence behind its own o sentinels: a position's context
        # is the o padded tokens before it
        order = self.order
        pos = np.arange(len(tokens)) + np.repeat(order * np.arange(1, len(lens) + 1), lens)
        padded = np.full(len(tokens) + order * len(lens), self.vocab.size, np.int64)
        padded[pos] = tokens
        keys = np.zeros(len(tokens), self._key_dtype)
        for back in range(order, 0, -1):
            keys = keys * self._base + padded[pos - back].astype(self._key_dtype)
        self._add(keys, tokens, np.ones(len(tokens), np.int64))
        return self

    def _add_counts(self, counts: dict[tuple[int, ...], dict[int, int]]) -> None:
        """Add explicit {context: {token: count}} counts."""
        keys, tokens, weights = [], [], []
        for ctx, per_tok in counts.items():
            self._check_counts(ctx, per_tok)
            key = self._context_key(ctx)
            for tok, cnt in per_tok.items():
                keys.append(key)
                tokens.append(tok)
                weights.append(cnt)
        self._add(
            np.array(keys, self._key_dtype), np.array(tokens, np.intp), np.array(weights, np.int64)
        )

    def _check_counts(self, ctx: tuple[int, ...], per_tok: dict[int, int]) -> None:
        """Raise ValueError on a context past the order, a bad token or a negative count."""
        if len(ctx) > self.order:
            raise ValueError(f"context of {len(ctx)} tokens exceeds order {self.order}")
        self._check_tokens([*ctx, *per_tok])
        if any(cnt < 0 for cnt in per_tok.values()):
            raise ValueError("negative count")

    def _add(self, keys: np.ndarray, tokens: np.ndarray, weights: np.ndarray) -> None:
        """Add weights[i] to count(keys[i], tokens[i]) and rebuild the
        probability table."""
        vocab_size = self.vocab.size
        n_old = len(self._keys)
        self._keys, rows = np.unique(np.concatenate([self._keys, keys]), return_inverse=True)
        # one row per key, and a last row with no counts that serves
        # every unseen context
        counts = np.zeros((len(self._keys) + 1, vocab_size), np.int64)
        counts[rows[:n_old]] = self._counts[:-1]
        np.add.at(counts.reshape(-1), rows[n_old:] * vocab_size + tokens, weights)
        self._counts = counts
        table = counts + self.alpha
        table /= table.sum(axis=1, keepdims=True)
        table.flags.writeable = False
        self._unseen = table[-1]
        self._dist_of = dict(zip(self._keys.tolist(), table))

    def _context_key(self, context: tuple[int, ...] | list[int]) -> int:
        key = self._empty_key
        for t in context[-self.order :]:
            key = key % self._wrap * self._base + t
        return key

    def _key_context(self, key: int) -> tuple[int, ...]:
        ctx = []
        for _ in range(self.order):
            key, digit = divmod(key, self._base)
            if digit == self.vocab.size:  # sentinels pad only the left
                break
            ctx.append(digit)
        return tuple(reversed(ctx))

    def observed_counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        """The nonzero counts of every observed context, in context order."""
        out = {}
        for key, row in zip(self._keys.tolist(), self._counts):
            toks = np.flatnonzero(row)
            out[self._key_context(key)] = dict(zip(toks.tolist(), row[toks].tolist()))
        return dict(sorted(out.items()))

    def context_dist(self, context: tuple[int, ...]) -> np.ndarray:
        self._check_tokens(context[-self.order :])
        return self._dist_of.get(self._context_key(context), self._unseen)

    def _row_dists(
        self, committed: list[int], ids: list[int], parents: list[int]
    ) -> list[np.ndarray]:
        base, wrap = self._base, self._wrap
        keys = [self._context_key(committed) % wrap * base + ids[0]]
        for r in range(1, len(ids)):
            keys.append(keys[parents[r]] % wrap * base + ids[r])
        dist_of, unseen = self._dist_of, self._unseen
        return [dist_of.get(k, unseen) for k in keys]


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
    tie-break and draws nothing from rng. Any other temperature draws one
    uniform, `rng.random()`, and returns `sample_uniform` of it: the same
    token and the same RNG consumption as
    `rng.choice(len(p), p=tempered(dist, temperature))`."""
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if temperature == 0:
        return int(np.argmax(dist))
    return sample_uniform(dist, temperature, rng.random())


def tempered(dist: np.ndarray, temperature: float) -> np.ndarray:
    """dist ** (1 / temperature), renormalized; dist itself at
    temperature 1. dist is scaled by its maximum first, so the tempered
    sum is at least 1 and cannot underflow to 0."""
    if temperature == 1.0:
        return dist
    scaled = np.power(dist / dist.max(), 1.0 / temperature)
    scaled /= scaled.sum()
    return scaled


# Generator.choice's tolerance on the sum of float64 probabilities
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def tempered_cdf(dist: np.ndarray, temperature: float) -> np.ndarray:
    """The CDF a draw at temperature (> 0) inverts, built as
    `Generator.choice` builds it: the cumulative sums of
    `tempered(dist, temperature)` divided by their last entry. Token i's
    interval is [cdf[i - 1], cdf[i]), with cdf[-1] read as 0. Keeps
    choice's checks, each raising ValueError: dist is 1-D with no
    negative entry, and the tempered dist has no NaN and sums to 1 within
    sqrt(eps)."""
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 1:
        raise ValueError("probabilities must be 1-dimensional")
    if (dist < 0).any():
        raise ValueError("probabilities are not non-negative")
    cdf = tempered(dist, temperature).cumsum()
    total = float(cdf[-1])
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    cdf /= total
    return cdf


def sample_uniform(dist: np.ndarray, temperature: float, u: float) -> int:
    """The token whose interval of `tempered_cdf(dist, temperature)`
    holds u, for temperature > 0 and u in [0, 1): the inverse-CDF draw
    `Generator.choice` makes from one uniform, with its checks."""
    return int(tempered_cdf(dist, temperature).searchsorted(u, side="right"))


class Greedy:
    """The draw rule at temperature 0. A decode builds one rule for its
    drafter and verification. At position pos, `draw(dist, pos)` is the
    token, `key(last, pos)` ranks candidates for it from the last dist
    (smallest first), `path(last, pos, depth)` is the draws at pos ..
    pos + depth - 1 should every later dist equal last, and
    `handoff(dist)` keeps what the next step's drafter needs of the
    bonus's dist.

    Greedy draws the argmax (lowest id on ties) and reads no uniform; its
    key gives the top-k and it drafts no path (one would repeat the
    pending token). Its drafts end at a next-token query that hits at
    full length (stops_at_full_hit): greedy verification emits the same
    tokens whatever the draft holds, and such a hit rarely loses to a
    candidate."""

    stops_at_full_hit = True

    def draw(self, dist: np.ndarray, pos: int) -> int:
        return int(dist.argmax())

    def key(self, last: np.ndarray, pos: int) -> np.ndarray:
        return -last

    def path(self, last: np.ndarray, pos: int, depth: int) -> list[int]:
        return []

    def handoff(self, dist: np.ndarray) -> None:
        pass


GREEDY = Greedy()


class InverseCDF:
    """The draw rule at temperature > 0: the token at pos is
    `sample_uniform` of the uniform at pos, so a seed gives `rng.choice`'s
    tokens in every mode. It builds one tempered CDF per distinct dist
    per verification walk (`tempered_cdf`, which rejects a temperature
    <= 0), and `handoff` keeps the bonus's for the next step's drafter.
    Token j's key is the distance from the uniform at pos to its interval
    [cdf[j - 1], cdf[j]), so the token whose interval holds it comes
    first: the draw itself should the next-next dist equal the last one,
    which shared randomness makes a drafter's best guess at a sample
    (Daliri, Musco and Suresh 2024).

    The rule owns its decode's uniforms: `uniforms[i]` is position
    start + i's, the i-th `rng.random()` draw. It draws lazily, in
    position order and only up to the highest position read
    (`rng.random(n)` returns the values of n single draws), so reading
    ahead, as the drafter does for the positions after the next token,
    changes no value and no later draw. Each value is checked once, as it
    is drawn: one outside [0, 1), or NaN, raises ValueError, and a
    position before start raises IndexError."""

    stops_at_full_hit = False

    def __init__(self, temperature: float, rng: np.random.Generator, start: int):
        self.temperature = temperature
        self.rng = rng
        self.start = start
        self.uniforms: list[float] = []
        # id(dist) -> (dist, its CDF); holding dist keeps its id unique
        self._cdfs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _at(self, pos: int, n: int = 1) -> int:
        """pos's index in uniforms, once positions pos .. pos + n - 1
        are drawn."""
        i = pos - self.start
        if i < 0:
            raise IndexError(f"position {pos} precedes the rule's start {self.start}")
        us = self.uniforms
        if i + n > len(us):
            new = self.rng.random(i + n - len(us)).tolist()
            if not all(0.0 <= u < 1.0 for u in new):
                raise ValueError(f"uniforms must lie in [0, 1), got {new}")
            us.extend(new)
        return i

    def cdf(self, dist: np.ndarray) -> np.ndarray:
        entry = self._cdfs.get(id(dist))
        if entry is None:
            entry = self._cdfs[id(dist)] = (dist, tempered_cdf(dist, self.temperature))
        return entry[1]

    def draw(self, dist: np.ndarray, pos: int) -> int:
        return int(self.cdf(dist).searchsorted(self.uniforms[self._at(pos)], side="right"))

    def handoff(self, dist: np.ndarray) -> None:
        self._cdfs = {id(dist): (dist, self.cdf(dist))}

    def key(self, last: np.ndarray, pos: int) -> np.ndarray:
        cdf, u = self.cdf(last), self.uniforms[self._at(pos)]
        key = np.maximum(u - cdf, 0.0)
        np.maximum(key[1:], cdf[:-1] - u, out=key[1:])
        return key

    def path(self, last: np.ndarray, pos: int, depth: int) -> list[int]:
        i = self._at(pos, depth)
        return self.cdf(last).searchsorted(self.uniforms[i : i + depth], side="right").tolist()


Rule = Greedy | InverseCDF  # a decode's draw rule


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
    for ctx, per_tok in model.observed_counts().items():
        pairs = ",".join(f"{tok}:{cnt}" for tok, cnt in per_tok.items())
        lines.append(f"{' '.join(map(str, ctx))} -> {pairs}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# header keys and their parsers: the vocab, the constructor arguments
# and the training corpus
_HEADER_FIELDS = dict(
    vocab_size=int, eos=int, order=int, alpha=float, seed=int, train_corpus_path=str.strip
)


def load_model_file(path: str | Path) -> MarkovTableModel:
    """Parse a model file.

    Header fields: vocab_size, eos, and optionally order, alpha and seed
    (unset, they take MarkovTableModel's defaults). Then either a
    `train_corpus_path <relative path>` line or a `counts` section with
    one line per context: "ctx_tokens -> token:count,...". A malformed
    number, an unknown or repeated header key, a `counts` line after a
    `train_corpus_path` line, or a counts line with a token id outside
    the vocab, a negative count, a context longer than the order, a
    token it already gave or a context that an earlier line already gave
    raises ValueError naming its path:line.
    """
    path = Path(path)
    header: dict[str, int | float | str] = {}
    model: MarkovTableModel | None = None
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if model is None and line == "counts":
            if "train_corpus_path" in header:
                raise ValueError(f"{path}:{lineno}: counts section after train_corpus_path")
            model = _header_model(path, header)
            continue
        try:
            if model is not None:
                _add_counts_line(model, line, counts)
                continue
            key, _, value = line.partition(" ")
            if not value:
                raise ValueError(f"malformed header line {line!r}")
            if key not in _HEADER_FIELDS:
                raise ValueError(f"unknown header key {key!r}")
            if key in header:
                raise ValueError(f"header key {key!r} repeated")
            header[key] = _HEADER_FIELDS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if model is None:
        model = _header_model(path, header)
    model._add_counts(counts)
    if "train_corpus_path" in header:
        model.train(load_corpus(path.parent / header["train_corpus_path"]).sequences)
    return model


def _header_model(path: Path, header: dict[str, int | float | str]) -> MarkovTableModel:
    """The model the header describes, passing on only the constructor
    arguments the header gives."""
    given = {k: v for k, v in header.items() if k in ("order", "alpha", "seed")}
    try:
        return MarkovTableModel(VocabSpec(header["vocab_size"], header["eos"]), **given)
    except KeyError as exc:
        raise ValueError(f"{path}: missing model header field {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _add_counts_line(
    model: MarkovTableModel, line: str, counts: dict[tuple[int, ...], dict[int, int]]
) -> None:
    """Parse and check one "ctx_tokens -> token:count,..." line into
    counts."""
    ctx_part, arrow, val_part = line.partition("->")
    if not arrow:
        raise ValueError("malformed counts line")
    ctx = tuple(int(t) for t in ctx_part.split())
    per_tok: dict[int, int] = {}
    for pair in val_part.strip().split(","):
        if pair:
            tok, _, cnt = pair.partition(":")
            token = int(tok)
            if token in per_tok:
                raise ValueError(f"counts token {token} repeated")
            per_tok[token] = int(cnt)
    model._check_counts(ctx, per_tok)
    if ctx in counts:
        raise ValueError(f"counts context {' '.join(map(str, ctx)) or '(empty)'} repeated")
    counts[ctx] = per_tok
