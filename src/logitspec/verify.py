"""Draft-tree verification: greedy longest-prefix and lossless stochastic.

Retrieval drafts are deterministic proposals (one-hot q), so the
stochastic acceptance rule reduces to accepting token x with probability
p[x] and, on rejection, zeroing x out of p and renormalizing. Applying
that rule to the children of the current row in row order, and moving
down into the first accepted child, preserves the target distribution
exactly. Both verifiers walk the tree's parent array once, in row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    accepted_seq_index: int | None = None


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


def _one_hot_residual(p: np.ndarray, x: int) -> np.ndarray | None:
    # residual(p, one_hot(x)) without materializing the one-hot vector
    r = p.copy()
    r[x] = 0.0
    total = r.sum()
    if total <= 0:
        return None
    return r / total


def _sequence_index(parents: list[int], row: int) -> int | None:
    """Index, among the root's children, of the one above row (None for
    the root itself)."""
    if row == 0:
        return None
    while parents[row] != 0:
        row = parents[row]
    return parents[1:row].count(0)


def verify_greedy(tree: DraftTree, dists: list[np.ndarray]) -> VerifyOutcome:
    """Accept the longest draft path matching the argmax chain.

    One pass over the parent array in row order: a row is accepted when
    its parent was and its token is the parent's argmax. Each argmax is
    computed once, and only for rows whose children are examined. The
    deepest accepted row wins, ties going to the lowest row (the earliest
    sequence); total rejection still emits the argmax after the pending
    token as bonus.
    """
    parents = tree.parents
    ids = tree.draft_ids
    depth = {0: 0}  # accepted row -> depth
    argmax: dict[int, int] = {}
    best = 0
    for r in range(1, len(parents)):
        p = parents[r]
        if p not in depth:
            continue
        g = argmax.get(p)
        if g is None:
            g = argmax[p] = int(np.argmax(dists[p]))
        if ids[r] != g:
            continue
        depth[r] = depth[p] + 1
        if depth[r] > depth[best]:
            best = r
    bonus = argmax.get(best)
    if bonus is None:
        bonus = int(np.argmax(dists[best]))
    accepted = []
    r = best
    while r > 0:
        accepted.append(ids[r])
        r = parents[r]
    accepted.reverse()
    return VerifyOutcome(
        accepted=accepted,
        bonus=bonus,
        next_dist=dists[best],
        accepted_seq_index=_sequence_index(parents, best),
    )


def verify_stochastic(
    tree: DraftTree, dists: list[np.ndarray], rng: np.random.Generator
) -> VerifyOutcome:
    """Lossless stochastic verification over one-hot draft proposals.

    One pass over the parent array in row order. The walk sits at the
    last accepted row (the root at first) with a working distribution
    starting at that row's dist; each child of that row, in row order, is
    accepted with its current probability, moving the walk to the child,
    or else folded into the residual. The bonus is sampled from the
    working distribution the walk ends with.
    """
    parents = tree.parents
    ids = tree.draft_ids
    node = 0
    work = dists[0]
    accepted = []
    for r in range(1, len(parents)):
        if parents[r] != node:
            continue
        tok = ids[r]
        if rng.random() < work[tok]:
            accepted.append(tok)
            node = r
            work = dists[r]
            continue
        res = _one_hot_residual(work, tok)
        if res is not None:  # None: work is one-hot at tok; keep it
            work = res
    return VerifyOutcome(
        accepted=accepted,
        bonus=int(rng.choice(len(work), p=work)),
        next_dist=work,
        accepted_seq_index=_sequence_index(parents, node),
    )
