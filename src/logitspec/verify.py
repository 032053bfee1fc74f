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
the most any valid rule can accept (SpecTr, Sun et al. 2023). The
decode's draw rule (`models.Greedy`, `models.InverseCDF`) draws the
token at position pos as `rule.draw(dist, pos)`, as autoregressive
decoding does, so a seed gives the same tokens in every mode, and no
draft moves a uniform. The rule checks each uniform as it draws it, so
a value outside [0, 1) raises ValueError here as in the drafter. Every
emitted token is drawn here, the first on a one-row tree under the
prompt's last token. The walk ends with `rule.handoff` of the bonus's
dist, so the rule keeps what the next step's drafter reads of it (at
temperature > 0, the tempered CDF the bonus was drawn from).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import GREEDY, Greedy, InverseCDF, Rule
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
    next step's last logit). At least one token is always emitted."""

    accepted: list[int]
    bonus: int
    next_dist: np.ndarray


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


def _walk(tree: DraftTree, dists: list[np.ndarray], rule: Rule) -> VerifyOutcome:
    parents = tree.parents
    ids = tree.draft_ids
    first = tree.past_len + 1
    row = 0
    accepted = []
    while True:
        d = dists[row]
        x = rule.draw(d, first + len(accepted))
        # a child is a later row than its parent, and the trie gives the
        # row at most one child carrying x
        for r in range(row + 1, len(ids)):
            if ids[r] == x and parents[r] == row:
                break
        else:
            rule.handoff(d)
            return VerifyOutcome(accepted=accepted, bonus=x, next_dist=d)
        accepted.append(x)
        row = r


def verify_greedy(tree: DraftTree, dists: list[np.ndarray], rule: Greedy = GREEDY) -> VerifyOutcome:
    """Accept the longest draft path matching the argmax chain. Both
    entries run the one walk, and each has a name of its own so that a
    tracer wrapping them times verification at either temperature."""
    return _walk(tree, dists, rule)


def verify_stochastic(tree: DraftTree, dists: list[np.ndarray], rule: InverseCDF) -> VerifyOutcome:
    """Lossless verification of one-hot drafts at the rule's temperature
    (> 0)."""
    return _walk(tree, dists, rule)
