"""Draft-tree verification: one walk for every temperature.

Retrieval drafts are deterministic proposals (one-hot q), so speculative
sampling reduces to drawing the target's own token and checking whether
the draft carries it (Leviathan et al. 2023). The draft tree is a token
trie, so the walk holds one row: the row whose token path equals the
emitted tokens so far, the root at first. At each depth it draws one
token x from that row's dist and moves to the row's child carrying x.
When no child carries x, x is the bonus and that dist is the next step's
last logit.

Per row, the rule accepts the target mass of the distinct child tokens,
the most any valid rule can accept (SpecTr, Sun et al. 2023). Greedy
verification draws the argmax. Stochastic verification draws the token
at position pos with `models.sample_uniform` of the decode's uniform for
pos: the inverse-CDF draw `models.sample` makes, on the same dist and
with the same uniform autoregressive decoding would use there, so a seed
gives the same tokens in every mode. Which drafts a step carries never
moves a uniform, even a drafter that reads the next uniform first.
Every token a decode emits is drawn here, the first included (on a
one-row tree under the prompt's last token). A stochastic walk builds
one tempered CDF per distinct dist, so a walk down a chain whose rows
share one dist (as a model's unseen-context row does) builds it once.
The bonus draw's tempered CDF is handed to the next step's drafter,
which orders its candidates on that CDF and drafts the coupled path
from it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .models import Uniforms, tempered_cdf
from .tree import DraftTree

__all__ = [
    "VerifyOutcome",
    "acceptance_prob",
    "residual",
    "verify_greedy",
    "verify_stochastic",
]


@dataclass
class VerifyOutcome:
    """Result of one verification: accepted draft tokens plus the bonus
    token, and the distribution that produced the bonus (retained as the
    next step's last logit). At least one token is always emitted.
    next_cdf is the tempered CDF the bonus was drawn from at temperature
    > 0, None at temperature 0."""

    accepted: list[int]
    bonus: int
    next_dist: np.ndarray
    next_cdf: np.ndarray | None = None


def acceptance_prob(p: np.ndarray, q: np.ndarray, x: int) -> float:
    """Acceptance rate for draft token x proposed from q, verified by p:
    1 when p[x] >= q[x], else p[x] / q[x]."""
    if q[x] <= 0:
        raise ValueError(f"draft token {x} has zero proposal probability")
    if p[x] >= q[x]:
        return 1.0
    return float(p[x] / q[x])


def residual(p: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """Rejection residual norm(max(0, p - q)), or None when it is
    identically zero (p == q; resample from p instead)."""
    r = np.maximum(p - q, 0.0)
    total = r.sum()
    if total <= 0:
        return None
    return r / total


def _walk(
    tree: DraftTree,
    dists: list[np.ndarray],
    draw: Callable[[np.ndarray, int], tuple[int, np.ndarray | None]],
) -> VerifyOutcome:
    """draw(dist, depth) returns the drawn token and the CDF it inverted
    (None for the argmax)."""
    parents = tree.parents
    ids = tree.draft_ids
    row = 0
    accepted = []
    while True:
        d = dists[row]
        x, cdf = draw(d, len(accepted))
        # a child is a later row than its parent, and the trie gives the
        # row at most one child carrying x
        for r in range(row + 1, len(ids)):
            if ids[r] == x and parents[r] == row:
                break
        else:
            return VerifyOutcome(accepted=accepted, bonus=x, next_dist=d, next_cdf=cdf)
        accepted.append(x)
        row = r


def verify_greedy(tree: DraftTree, dists: list[np.ndarray]) -> VerifyOutcome:
    """Accept the longest draft path matching the argmax chain."""
    return _walk(tree, dists, lambda d, depth: (int(d.argmax()), None))


def verify_stochastic(
    tree: DraftTree,
    dists: list[np.ndarray],
    uniforms: Uniforms,
    temperature: float,
) -> VerifyOutcome:
    """Lossless verification of one-hot drafts at a sampling temperature
    (> 0).

    The token at depth d (position tree.past_len + d + 1) is
    `sample_uniform` of that position's uniform in the decode's
    position-keyed stream. The tempered CDF of each distinct dist is
    built once per call.
    """
    first = tree.past_len + 1
    # keyed by id: dists keeps every array alive for the call, so no id
    # is reused
    cdfs: dict[int, np.ndarray] = {}

    def draw(d: np.ndarray, depth: int) -> tuple[int, np.ndarray]:
        # sample_uniform, keeping its CDF
        cdf = cdfs.get(id(d))
        if cdf is None:
            cdf = cdfs[id(d)] = tempered_cdf(d, temperature)
        return int(cdf.searchsorted(uniforms[first + depth], side="right")), cdf

    return _walk(tree, dists, draw)
