"""Draft-tree verification: greedy longest-prefix and lossless stochastic.

Retrieval drafts are deterministic proposals (one-hot q), so the
stochastic acceptance rule reduces to accepting token x with probability
p[x] and, on rejection, zeroing x out of p and renormalizing. Applying
that rule to the children of the current row in row order, and moving
down into the first accepted child, preserves the target distribution
exactly. The renormalized distribution is never needed to test a child:
accepting x with probability p[x] / (unrejected mass) is the same rule,
so the stochastic walk keeps only that mass and the rejected tokens, and
builds one residual for the bonus. Both verifiers walk the tree's parent
array once, in row order.
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
            g = argmax[p] = int(dists[p].argmax())
        if ids[r] != g:
            continue
        depth[r] = depth[p] + 1
        if depth[r] > depth[best]:
            best = r
    bonus = argmax.get(best)
    if bonus is None:
        bonus = int(dists[best].argmax())
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
    last accepted row (the root at first), whose dist d it never copies,
    and keeps the mass of d not yet rejected there (1 on arrival) and the
    rejected tokens. Each child of that row, in row order, draws one
    uniform u and is accepted iff u * remaining < d[x], moving the walk to
    the child; a token already rejected at this row has mass 0. On
    rejection remaining drops by d[x]. The bonus is sampled from the
    residual of d at the row the walk ends at: d with the rejected tokens
    zeroed and renormalized, built once, or d itself when nothing was
    rejected or the residual is empty.
    """
    parents = tree.parents
    ids = tree.draft_ids
    node = 0
    d = dists[0]
    remaining = 1.0
    rejected: list[int] = []
    accepted = []
    for r in range(1, len(parents)):
        if parents[r] != node:
            continue
        tok = ids[r]
        u = rng.random()
        if tok in rejected:
            continue
        p = d.item(tok)
        if u * remaining < p:
            accepted.append(tok)
            node = r
            d = dists[r]
            remaining = 1.0
            rejected = []
            continue
        remaining -= p
        rejected.append(tok)
    if rejected:
        res = d.copy()
        for x in rejected:  # scalar stores beat fancy indexing at these sizes
            res[x] = 0.0
        total = res.sum()
        # decided on the built sum: rounding can leave remaining a tiny
        # positive number when every token with mass was rejected
        if total > 0:
            d = res / total
    return VerifyOutcome(
        accepted=accepted,
        bonus=int(rng.choice(len(d), p=d)),
        next_dist=d,
        accepted_seq_index=_sequence_index(parents, node),
    )
