from __future__ import annotations

import numpy as np
import pytest

from logitspec import prepare_attention_inputs
from logitspec.tree import TreeStructureError, ancestor_rows, format_tree


def brute_force_mask(past_len: int, seq_lens: list[int]) -> np.ndarray:
    """Independent mask builder: block-diagonal of Tril(m_j) with the
    all-visible past + root columns prepended."""
    seq_len = 1 + sum(seq_lens)
    mask = np.zeros((seq_len, past_len + seq_len), dtype=np.int8)
    mask[:, : past_len + 1] = 1
    blocks = [np.tril(np.ones((m, m), dtype=np.int8)) for m in seq_lens]
    r = 1
    for block in blocks:
        m = block.shape[0]
        mask[r : r + m, past_len + r : past_len + r + m] = block
        r += m
    return mask


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


def test_paths_reject_malformed_mask():
    tree = prepare_attention_inputs(2, 6, [[1], [2]])
    tree.mask[1, 2 + 2] = 1  # row 1 sees row 2's column
    with pytest.raises(TreeStructureError):
        ancestor_rows(tree.mask)
    tree2 = prepare_attention_inputs(2, 6, [[1]])
    tree2.mask[1, 0] = 0  # row no longer sees the full past
    with pytest.raises(TreeStructureError):
        ancestor_rows(tree2.mask)


def test_round_trip_and_mask_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        past_len = int(rng.integers(0, 6))
        n_seqs = int(rng.integers(0, 5))
        seqs = [
            rng.integers(0, 32, size=rng.integers(1, 5)).tolist()
            for _ in range(n_seqs)
        ]
        root = int(rng.integers(0, 32))
        tree = prepare_attention_inputs(past_len, root, seqs)

        # parent: the root for a sequence's first token, else the row above
        expected_parents = [-1]
        for seq in seqs:
            expected_parents.append(0)
            for _ in seq[1:]:
                expected_parents.append(len(expected_parents) - 1)
        assert tree.parents == expected_parents
        np.testing.assert_array_equal(
            tree.mask, brute_force_mask(past_len, [len(s) for s in seqs])
        )

        # position ids: past_len + depth within sub-sequence (root depth 0)
        assert tree.position_ids[0] == past_len
        idx = 1
        for seq in seqs:
            for depth in range(1, len(seq) + 1):
                assert tree.position_ids[idx] == past_len + depth
                idx += 1
        # every row sees at least past_len + 1 columns
        assert np.all(tree.mask.sum(axis=1) >= past_len + 1)


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
