from __future__ import annotations

import numpy as np
import pytest

from logitspec import prepare_attention_inputs
from logitspec.tree import DraftTree, TreeStructureError, ancestor_rows, format_tree


def token_path_oracle(past_len: int, seqs: list[list[int]]):
    """Independent trie oracle: the distinct token paths of every
    sequence prefix, in order of first appearance (the root's path is
    empty), and the mask in which a row sees the past, the root and
    every row whose path is a prefix of its own."""
    paths: list[tuple[int, ...]] = [()]
    for seq in seqs:
        for t in range(1, len(seq) + 1):
            if tuple(seq[:t]) not in paths:
                paths.append(tuple(seq[:t]))
    n = len(paths)
    mask = np.zeros((n, past_len + n), dtype=np.int8)
    mask[:, : past_len + 1] = 1
    for r, path in enumerate(paths):
        for c in range(1, n):
            if path[: len(paths[c])] == paths[c]:
                mask[r, past_len + c] = 1
    return paths, mask


def parent_paths(tree) -> list[tuple[int, ...]]:
    """Token path of every row, read from the parent array."""
    paths: list[tuple[int, ...]] = [()]
    for r in range(1, tree.seq_len):
        paths.append(paths[tree.parents[r]] + (tree.draft_ids[r],))
    return paths


def random_sequences(rng, vocab: int) -> list[list[int]]:
    """Draft sequences over a small vocab, with exact duplicates and
    shared prefixes of earlier sequences mixed in."""
    seqs: list[list[int]] = []
    for _ in range(int(rng.integers(0, 6))):
        kind = int(rng.integers(0, 3))
        if seqs and kind == 0:  # an exact duplicate
            seqs.append(list(seqs[int(rng.integers(0, len(seqs)))]))
        elif seqs and kind == 1:  # a prefix of an earlier one, then new tokens
            base = seqs[int(rng.integers(0, len(seqs)))]
            keep = base[: int(rng.integers(1, len(base) + 1))]
            seqs.append(keep + rng.integers(0, vocab, size=rng.integers(0, 3)).tolist())
        else:
            seqs.append(rng.integers(0, vocab, size=rng.integers(1, 5)).tolist())
    return seqs


def test_traced_example_bit_exact():
    tree = prepare_attention_inputs(3, 10, [[11, 12], [13]])
    assert tree.draft_ids == [10, 11, 12, 13]
    assert tree.parents == [-1, 0, 1, 0]
    rows = ["".join(map(str, row.tolist())) for row in tree.mask]
    assert rows == ["1111000", "1111100", "1111110", "1111001"]
    assert tree.position_ids.tolist() == [3, 4, 5, 4]


def test_empty_draft_set_degenerate():
    tree = prepare_attention_inputs(4, 9, [])
    assert tree.draft_ids == [9]
    assert tree.mask.shape == (1, 5)
    assert np.all(tree.mask == 1)
    assert tree.position_ids.tolist() == [4]


def test_single_chain_equals_plain_causal():
    tree = prepare_attention_inputs(0, 1, [[2, 3, 4]])
    np.testing.assert_array_equal(tree.mask, np.tril(np.ones((4, 4), dtype=np.int8)))
    assert tree.position_ids.tolist() == [0, 1, 2, 3]


def test_trie_merges_shared_prefixes_and_duplicates():
    tree = prepare_attention_inputs(3, 10, [[11, 12], [11, 13], [11, 12], [14]])
    assert tree.draft_ids == [10, 11, 12, 13, 14]
    assert tree.parents == [-1, 0, 1, 1, 0]
    rows = ["".join(map(str, row.tolist())) for row in tree.mask]
    assert rows == ["11110000", "11111000", "11111100", "11111010", "11110001"]
    assert tree.position_ids.tolist() == [3, 4, 5, 5, 4]


def test_paths_reject_malformed_mask():
    tree = prepare_attention_inputs(2, 6, [[1], [2]])
    tree.mask[1, 2 + 2] = 1  # row 1 sees row 2's column
    with pytest.raises(TreeStructureError):
        ancestor_rows(tree.mask)
    tree2 = prepare_attention_inputs(2, 6, [[1]])
    tree2.mask[1, 0] = 0  # row no longer sees the full past
    with pytest.raises(TreeStructureError):
        ancestor_rows(tree2.mask)
    tree3 = prepare_attention_inputs(2, 6, [[1, 3], [2]])
    tree3.mask[3, 2 + 2] = 1  # row 3 sees row 2 but not row 2's parent
    with pytest.raises(TreeStructureError):
        ancestor_rows(tree3.mask)
    tree4 = prepare_attention_inputs(2, 6, [[1]])
    tree4.mask[0, 2 + 1] = 1  # the root sees a draft row
    with pytest.raises(TreeStructureError):
        ancestor_rows(tree4.mask)


def test_round_trip_and_mask_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        past_len = int(rng.integers(0, 6))
        vocab = int(rng.integers(1, 5))  # small vocabs make paths collide
        seqs = random_sequences(rng, vocab)
        root = int(rng.integers(0, 32))
        tree = prepare_attention_inputs(past_len, root, seqs)

        paths, mask = token_path_oracle(past_len, seqs)
        # each distinct path gets exactly one row, in first-appearance order
        assert parent_paths(tree) == paths
        assert tree.draft_ids == [root] + [path[-1] for path in paths[1:]]
        assert all(0 <= p < r for r, p in enumerate(tree.parents) if r)
        np.testing.assert_array_equal(tree.mask, mask)
        assert tree.mask.dtype == np.int8
        # position ids: past_len + path length (root depth 0)
        assert tree.position_ids.tolist() == [past_len + len(path) for path in paths]


def test_ancestor_rows_equal_parent_paths_fuzz():
    # any parent array, not only the trie's, gives a mask whose row
    # paths ancestor_rows recovers
    rng = np.random.default_rng(41)
    for case in range(500):
        past_len = int(rng.integers(0, 6))
        if case % 2:
            tree = prepare_attention_inputs(past_len, 0, random_sequences(rng, 3))
        else:
            n = int(rng.integers(1, 12))
            parents = [-1] + [int(rng.integers(0, r)) for r in range(1, n)]
            tree = DraftTree(past_len, [0] * n, parents)
        want = [[0]]
        for r in range(1, tree.seq_len):
            want.append(want[tree.parents[r]] + [r])
        assert ancestor_rows(tree.mask) == want


def test_second_root_rejected_by_mask_and_position_ids():
    # row 1 is a second root
    for attr in ("mask", "position_ids"):
        tree = DraftTree(2, [5, 6, 7], [-1, -1, 0])
        with pytest.raises(TreeStructureError):
            getattr(tree, attr)


def test_later_row_parent_rejected_by_mask_and_position_ids():
    for parents in ([-1, 2, 0], [-1, 0, 2]):  # a later row, or itself
        for attr in ("mask", "position_ids"):
            tree = DraftTree(2, [5, 6, 7], parents)
            with pytest.raises(TreeStructureError):
                getattr(tree, attr)


def test_ancestor_rows_traced_example():
    tree = prepare_attention_inputs(3, 10, [[11, 12], [13]])
    assert ancestor_rows(tree.mask) == [[0], [0, 1], [0, 1, 2], [0, 3]]


def test_format_tree_traced_example():
    tree = prepare_attention_inputs(3, 10, [[11, 12], [13]])
    assert format_tree(tree) == (
        "3 4\n"
        "10 11 12 13\n"
        "3 4 5 4\n"
        "1111000\n"
        "1111100\n"
        "1111110\n"
        "1111001"
    )


def test_rejects_empty_sequence():
    with pytest.raises(ValueError):
        prepare_attention_inputs(0, 1, [[]])
    with pytest.raises(ValueError):
        prepare_attention_inputs(-1, 1, [])
