"""Draft tree: a token trie held as flattened ids and a parent array,
with the attention inputs derived from them.

Row 0 is the pending next token; the draft paths form a trie under it,
so every row's token path (from the root) is unique. `DraftTree.insert`
is the one trie insert: `drafting.build_draft` calls it for each path as
it drafts, and `prepare_attention_inputs` for each sequence of a finished
list. `parents[r]` is the row of row r's parent (-1 for the root), always
an earlier row, so one pass in row order meets every parent before its
children. The reference models and verification read the parents
directly. The dense attention mask (each row sees the past context, its
ancestors and itself) and the position ids (past_len + depth) are derived
from the parents on first access, for mask-consuming backends and debug
dumps. `DraftTree.check` validates the parent array for them and for
`Model.forward_tree`; the mask is built one byte row per tree row, each a
copy of its parent's row with its own column set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "TreeStructureError",
    "DraftTree",
    "prepare_attention_inputs",
    "ancestor_rows",
    "format_tree",
]


class TreeStructureError(ValueError):
    """The parent array or attention mask is not a valid draft tree."""


@dataclass
class DraftTree:
    """Verification payload for one decode step.

    draft_ids[0] is the pending next token; the remaining rows hold the
    trie of the draft paths, one row per distinct token path.
    parents[r] is the row of row r's parent, -1 for the root. queries
    and hits count the retrieval queries the drafter made for this tree
    and those that found a continuation.
    """

    past_len: int
    draft_ids: list[int]
    parents: list[int]
    queries: int = 0
    hits: int = 0
    # (parent row, token) -> row, for the rows insert added
    _rows: dict[tuple[int, int], int] = field(default_factory=dict, repr=False, compare=False)

    @property
    def seq_len(self) -> int:
        return len(self.draft_ids)

    @property
    def draft_count(self) -> int:
        return len(self.draft_ids) - 1

    def insert(self, path: list[int]) -> None:
        """Add path under the root: descend through the rows that already
        carry its prefix, then append a row per token from where it
        diverges, so rows keep the order in which their paths first
        appear. Only rows added by insert are found again, so insert
        grows trees built from their root alone."""
        draft_ids, parents, rows = self.draft_ids, self.parents, self._rows
        row = 0
        for tok in path:
            child = rows.setdefault((row, tok), len(draft_ids))
            if child == len(draft_ids):
                draft_ids.append(tok)
                parents.append(row)
            row = child

    def check(self) -> None:
        """Raise TreeStructureError unless parents is a parent array for
        draft_ids: one entry per row, -1 for row 0 (the root), an earlier
        row for every other row."""
        parents = self.parents
        if len(parents) != len(self.draft_ids):
            raise TreeStructureError("parents length != draft_ids length")
        if not parents or parents[0] != -1:
            raise TreeStructureError(f"row 0 has parents {parents[:1]}, not [-1]")
        for r in range(1, len(parents)):
            if not 0 <= parents[r] < r:
                raise TreeStructureError(f"row {r} has parent {parents[r]}, not an earlier row")

    @cached_property
    def mask(self) -> np.ndarray:
        """(seq_len, past_len + seq_len) int8 visibility: every row sees
        the past context and the root, plus its draft ancestors and
        itself."""
        self.check()
        parents = self.parents
        past = self.past_len
        n = len(parents)
        rows = [bytearray(b"\x01" * (past + 1) + b"\x00" * (n - 1))]
        for r in range(1, n):
            row = rows[parents[r]][:]
            row[past + r] = 1
            rows.append(row)
        return np.ndarray((n, past + n), np.int8, bytearray().join(rows))

    @cached_property
    def position_ids(self) -> np.ndarray:
        """past_len + depth of each row (the root has depth 0)."""
        self.check()
        parents = self.parents
        depth = [0] * len(parents)
        for r in range(1, len(parents)):
            depth[r] = depth[parents[r]] + 1
        return np.array(depth, dtype=np.int64) + self.past_len


def prepare_attention_inputs(
    past_len: int,
    next_token: int,
    sequences: list[list[int]],
) -> DraftTree:
    """Merge draft sequences into a trie under row 0 (the next token),
    one `DraftTree.insert` per sequence. An empty sequence list yields
    the degenerate single-row tree.
    """
    if past_len < 0:
        raise ValueError(f"past_len must be >= 0, got {past_len}")
    tree = DraftTree(past_len, [next_token], [-1])
    for seq in sequences:
        if not seq:
            raise ValueError("draft sequences must be non-empty")
        tree.insert(seq)
    return tree


def ancestor_rows(mask: np.ndarray) -> list[list[int]]:
    """Per-row ancestor path (row indices, root first, self last).

    Validates any tree mask: every row sees the full past plus the root,
    the root sees no draft row, and every other row's draft columns are
    those of its parent plus its own, the parent being the deepest row
    it sees besides itself.
    """
    seq_len, total = mask.shape
    past_len = total - seq_len
    if past_len < 0:
        raise TreeStructureError("mask has fewer columns than rows")
    if not np.all(mask[:, : past_len + 1] == 1):
        raise TreeStructureError("a row does not see the full past context + root")
    if np.any(mask[0, past_len + 1 :]):
        raise TreeStructureError("root row sees a draft column")
    paths: list[list[int]] = [[0]]
    for r in range(1, seq_len):
        path = [0] + (np.flatnonzero(mask[r, past_len + 1 :]) + 1).tolist()
        if path[-1] != r:
            raise TreeStructureError(f"row {r} does not see itself, or sees a later row")
        if path[:-1] != paths[path[-2]]:
            raise TreeStructureError(f"row {r} sees a non-ancestor row")
        paths.append(path)
    return paths


def format_tree(tree: DraftTree) -> str:
    """Debug dump: header line, draft ids, position ids, then the full
    mask as rows of 0/1 characters."""
    lines = [f"{tree.past_len} {tree.seq_len}"]
    lines.append(" ".join(map(str, tree.draft_ids)))
    lines.append(" ".join(map(str, tree.position_ids.tolist())))
    for row in tree.mask:
        lines.append("".join(map(str, row.tolist())))
    return "\n".join(lines)
