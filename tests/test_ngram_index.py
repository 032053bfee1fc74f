from __future__ import annotations

import numpy as np
import pytest

from logitspec import NGramIndex

from conftest import naive_fallback, naive_match

A, B, C, D = 0, 1, 2, 3


def test_build_records_offsets_past_occurrences():
    index = NGramIndex.build([A, B, C, A, B, D], m_max=2)
    # prefix -> next token -> offsets just past each gram occurrence
    assert index.table[(A,)] == {B: [2, 5]}
    assert index.table[()][C] == [3]
    assert index.table[(B,)] == {C: [3], D: [6]}


def test_build_empty_source():
    index = NGramIndex.build([], m_max=3)
    assert index.table == {}


def test_build_single_token_no_continuation():
    index = NGramIndex.build([A], m_max=3)
    assert index.table == {(): {A: [1]}}
    assert not index.match([A], 8)  # offset points past the end


def test_extend_equals_rebuild_simple():
    left = NGramIndex.build([A, B], m_max=2).extend([C])
    right = NGramIndex.build([A, B, C], m_max=2)
    assert left.table == right.table
    assert left.source == right.source


def test_extend_empty_is_noop():
    index = NGramIndex.build([A, B, C], m_max=2)
    before = dict(index.table)
    index.extend([])
    assert index.table == before


def test_extend_random_vs_rebuild_oracle():
    rng = np.random.default_rng(3)
    for _ in range(500):
        chunks = [
            rng.integers(0, 8, size=rng.integers(0, 6)).tolist()
            for _ in range(rng.integers(1, 5))
        ]
        incremental = NGramIndex(m_max=3)
        for chunk in chunks:
            incremental.extend(chunk)
        rebuilt = NGramIndex.build(sum(chunks, []), m_max=3)
        query = rng.integers(0, 8, size=rng.integers(1, 4)).tolist()
        assert incremental.match(query, 4) == rebuilt.match(query, 4)


def test_match_figure_scenario_next_token_only():
    # "the area of the triangle": the=2 area=3 of=4 the=2 triangle=5
    index = NGramIndex.build([2, 3, 4, 2, 5], m_max=2)
    result = index.match([2], 8)
    # most recent occurrence first: "triangle", then "area of the triangle"
    assert result == [[5], [3, 4, 2, 5]]


def test_match_figure_scenario_two_gram():
    index = NGramIndex.build([2, 3, 4, 2, 5], m_max=2)
    assert index.match([2, 3], 8) == [[4, 2, 5]]


def test_match_absent_query():
    index = NGramIndex.build([A, B, C], m_max=2)
    assert index.match([D], 8) == []


def test_match_query_too_long():
    index = NGramIndex.build([A, B, C], m_max=2)
    with pytest.raises(ValueError):
        index.match([A, B, C], 8)


def test_fallback_decrements_m():
    # suffix ends (X, Y, Z) = (1, 2, 3); only (2, 3) occurs earlier
    index = NGramIndex.build([2, 3, 0, 1, 2, 3], m_max=3)
    result, used_m = index.match_with_fallback([1, 2, 3], 3, 8)
    assert used_m == 2
    assert result == [[0, 1, 2, 3]]


def test_fallback_all_misses():
    index = NGramIndex.build([A, A, A], m_max=3)
    result, used_m = index.match_with_fallback([B, C, D], 3, 8)
    assert used_m == 0
    assert not result


def test_fallback_direct_hit_keeps_m_start():
    index = NGramIndex.build([1, 2, 3, 4, 1, 2, 3], m_max=3)
    result, used_m = index.match_with_fallback([0, 1, 2, 3], 3, 8)
    assert used_m == 3
    assert result == [[4, 1, 2, 3]]


def test_oracle_equivalence_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        source = rng.integers(0, 16, size=rng.integers(0, 201)).tolist()
        index = NGramIndex.build(source, m_max=3)
        query = rng.integers(0, 16, size=rng.integers(1, 4)).tolist()
        assert index.match(query, 5) == naive_match(source, query, 5)
        suffix = rng.integers(0, 16, size=rng.integers(3, 8)).tolist()
        got, got_m = index.match_with_fallback(suffix, 3, 5)
        want, want_m = naive_fallback(source, suffix, 3, 5)
        assert (got, got_m) == (want, want_m)


def test_continuations_are_verbatim_substrings():
    rng = np.random.default_rng(5)
    for _ in range(200):
        source = rng.integers(0, 6, size=50).tolist()
        index = NGramIndex.build(source, m_max=2)
        query = rng.integers(0, 6, size=2).tolist()
        for cont in index.match(query, 4, max_matches=10):
            joined = query + cont
            assert any(
                source[i : i + len(joined)] == joined
                for i in range(len(source) - len(joined) + 1)
            )


def test_match_probe_count_bounded():
    # lookup cost must not depend on source length
    for n in (50, 5000):
        index = NGramIndex.build(list(np.random.default_rng(1).integers(0, 4, n)), m_max=3)
        index.probe_count = 0
        index.match([1, 2], 8)
        assert index.probe_count == 1
        index.probe_count = 0
        index.match_with_fallback([0, 1, 2], 3, 8)
        assert index.probe_count <= 3


def naive_candidates(source, suffix, candidates, m_start, length, min_m):
    """Per-candidate oracle: the single continuation of suffix + [cand]
    under fallback from m_start to min_m, or []."""
    out = []
    for cand in candidates:
        conts, _ = naive_fallback(
            source, suffix + [cand], m_start, length, min_m=min_m, max_matches=1
        )
        out.append(conts[0] if conts else [])
    return out


def test_match_candidates_equals_per_candidate_fallback_random():
    rng = np.random.default_rng(29)
    for _ in range(1500):
        m_max = int(rng.integers(1, 6))
        length = int(rng.integers(1, 9))
        vocab = int(rng.integers(2, 9))
        source = rng.integers(0, vocab, size=rng.integers(0, 60)).tolist()
        index = NGramIndex.build(source, m_max=m_max)
        m_start = int(rng.integers(1, m_max + 1))
        min_m = int(rng.integers(1, m_start + 1))
        # len(suffix) == m_start - 1 puts the whole suffix in the query
        suffix = rng.integers(0, vocab, size=rng.integers(m_start - 1, m_start + 3)).tolist()
        # tokens >= vocab never occur in the source
        candidates = rng.integers(0, vocab + 2, size=rng.integers(0, 10)).tolist()

        index.probe_count = 0
        got = list(index.match_candidates(suffix, candidates, m_start, length, min_m))
        batched_probes = index.probe_count
        assert got == naive_candidates(source, suffix, candidates, m_start, length, min_m)

        index.probe_count = 0
        for cand in candidates:
            result, _ = index.match_with_fallback(
                suffix + [cand], m_start, length, min_m=min_m, max_matches=1
            )
            assert got.pop(0) == (result[0] if result else [])
        assert batched_probes == index.probe_count


def test_match_candidates_skips_occurrence_ending_source():
    # (1, 2) occurs twice; its latest occurrence ends the source, so the
    # older one supplies the continuation. 7 never occurs.
    index = NGramIndex.build([1, 2, 5, 6, 1, 2], m_max=2)
    got = list(index.match_candidates([1], [2, 7], m_start=2, length=3, min_m=1))
    assert got == [[5, 6, 1], []]
    # a single occurrence that ends the source falls back to shorter grams
    index = NGramIndex.build([3, 2, 4, 1, 2], m_max=2)
    assert list(index.match_candidates([1], [2], m_start=2, length=2, min_m=1)) == [[4, 1]]
    assert list(index.match_candidates([1], [2], m_start=2, length=2, min_m=2)) == [[]]
    # the next-token query suffix + [cand] follows the same rule: it skips
    # the occurrence ending the source, then falls back to an older
    # occurrence (m 2) or a shorter gram (m 1)
    for source, length, cand, min_m, want, want_m in (
        ([1, 2, 5, 6, 1, 2], 3, 2, 1, [5, 6, 1], 2),
        ([1, 2, 5, 6, 1, 2], 3, 7, 1, [], 0),
        ([3, 2, 4, 1, 2], 2, 2, 1, [4, 1], 1),
        ([3, 2, 4, 1, 2], 2, 2, 2, [], 0),
    ):
        index = NGramIndex.build(source, m_max=2)
        assert list(index.match_candidates([1], [cand], 2, length, min_m)) == [want]
        found, m = index.match_with_fallback([1, cand], 2, length, min_m, max_matches=1)
        assert (found, m) == ([want] if want else [], want_m)


def test_match_candidates_probes_lazily():
    index = NGramIndex.build([0, 1, 2, 3], m_max=3)
    continuations = index.match_candidates([0], [1, 9, 9], m_start=2, length=8, min_m=1)
    assert index.probe_count == 0
    assert next(continuations) == [2, 3]
    assert index.probe_count == 1  # (0, 1) hit at once
    assert next(continuations) == []
    assert index.probe_count == 3  # (0, 9) and (9,) missed
    assert list(index.match_candidates([0], [], m_start=2, length=8)) == []
    assert index.probe_count == 3


def test_entry_points_reject_bad_lengths():
    # the gram lengths tried must satisfy 1 <= min_m <= m_start <=
    # min(m_max, query length); match_candidates's query is suffix +
    # [candidate], and match(query) tries len(query) alone. Every query
    # keeps continuations of at least one token. A rejected call probes
    # nothing.
    index = NGramIndex.build([0, 1, 2, 3], m_max=2)
    for suffix, m_start, min_m in (
        ([0, 1], 3, 1),  # beyond m_max
        ([], 2, 1),  # beyond the query length
        ([0, 1], 2, 0),  # empty gram
        ([0, 1], 1, 2),  # min_m above m_start
        ([0], 2, 0),  # empty gram, though the query (0, 1) hits at m_start
        ([0], 1, 2),  # min_m above m_start, on the query (0, 1)
    ):
        with pytest.raises(ValueError):
            index.match_candidates(suffix, [1], m_start, 8, min_m)
        with pytest.raises(ValueError):
            index.match_with_fallback(suffix + [1], m_start, 8, min_m)
    for query in ([], [0, 1, 2]):  # empty suffix, and a gram beyond m_max
        with pytest.raises(ValueError):
            index.match(query, 8)
        with pytest.raises(ValueError):
            index.match_with_fallback(query, len(query), 8, len(query))
    with pytest.raises(ValueError):  # an empty continuation
        index.match_candidates([0], [1], 2, 0)
    with pytest.raises(ValueError):
        index.match_with_fallback([0, 1], 2, 0)
    with pytest.raises(ValueError):
        index.match([0, 1], 0)
    assert index.probe_count == 0


def test_dump_format():
    index = NGramIndex.build([A, B, A, B], m_max=2)
    lines = index.dump().splitlines()
    assert "0 | 1,3" in lines
    assert "0 1 | 2,4" in lines
    assert "1 0 | 3" in lines


def naive_dump(source: list[int], m_max: int) -> str:
    """Every gram of length 1..m_max in source, sorted, with the offsets
    just past its occurrences in ascending order."""
    grams: dict[tuple[int, ...], list[int]] = {}
    for end in range(1, len(source) + 1):
        for m in range(1, min(m_max, end) + 1):
            grams.setdefault(tuple(source[end - m : end]), []).append(end)
    return "\n".join(
        f"{' '.join(map(str, gram))} | {','.join(map(str, grams[gram]))}"
        for gram in sorted(grams)
    )


def test_dump_lists_every_gram_random():
    rng = np.random.default_rng(43)
    for _ in range(300):
        m_max = int(rng.integers(1, 5))
        source = rng.integers(0, int(rng.integers(1, 12)), size=rng.integers(0, 40)).tolist()
        index = NGramIndex(m_max=m_max)
        for cut in sorted(rng.integers(0, len(source) + 1, size=2).tolist()):
            index.extend(source[len(index.source) : cut])
        index.extend(source[len(index.source) :])
        assert index.dump() == naive_dump(source, m_max)
