"""Hash-table n-gram retrieval over the session's prompt + decoded tokens.

The table is keyed by gram prefix: every prefix of 0..m_max-1 tokens
maps to its successors, each next token to the offsets just past the
occurrences of prefix + (token,). A gram of length 1..m_max is found by
one successor lookup of its prefix and one int lookup of its last token,
regardless of source length. The index grows incrementally as tokens are
decoded; extend() is equivalent to a rebuild as far as match() output is
concerned.

The index holds no continuation length: every query names its own
`length`, the most tokens a continuation keeps, and continuations are
distinct at that length. The drafter passes its draft depth, which
`DraftConfig` owns.

Every query follows one rule, prompt lookup with fallback: try the
longest gram first, then one token shorter down to min_m, and answer
from the first length whose occurrences give a non-empty continuation.
_lookup() is that rule, one probe per gram length tried, over the
successor dicts that _successors() yields. match_with_fallback() (the
next-token query; match() is its single-length case) fetches them
lazily; match_candidates() fetches them once for all of a step's
next-next candidates. Every entry point checks its lengths with
_check_lengths(): 1 <= min_m <= m_start <= min(m_max, query length), and
length >= 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["NGramIndex"]

# the successors of a prefix that never occurs
_NO_SUCCESSORS: dict[int, list[int]] = {}


class NGramIndex:
    """Retrieval model: gram prefix (0..m_max-1 tokens) -> next token ->
    occurrence offsets of the gram."""

    def __init__(self, m_max: int = 3):
        if m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {m_max}")
        self.m_max = m_max
        self.source: list[int] = []
        # offsets in ascending source order; each points just past a gram
        # occurrence, i.e. at the first continuation token
        self.table: dict[tuple[int, ...], dict[int, list[int]]] = {}
        self.probe_count = 0

    @classmethod
    def build(cls, source: list[int], m_max: int = 3) -> "NGramIndex":
        index = cls(m_max=m_max)
        index.extend(source)
        return index

    def extend(self, new_tokens: list[int]) -> "NGramIndex":
        """Index the grams ending at each newly appended position.

        The last m_max - 1 source tokens are kept as one tuple (fewer
        while the source is shorter), and each gram prefix is a slice of
        it, shortest first, so the table's key order is that of a
        rebuild. A dict or list is created only for a new prefix or gram.
        """
        source = self.source
        table = self.table
        keep = self.m_max - 1
        # source[-0:] would be the whole source
        tail = tuple(source[-keep:]) if keep else ()
        for tok in new_tokens:
            source.append(tok)
            end = len(source)
            for start in range(len(tail), -1, -1):
                prefix = tail[start:]
                successors = table.get(prefix)
                if successors is None:
                    table[prefix] = {tok: [end]}
                    continue
                offsets = successors.get(tok)
                if offsets is None:
                    successors[tok] = [end]
                else:
                    offsets.append(end)
            if keep:
                tail = (tail + (tok,))[-keep:]
        return self

    def match(self, query: list[int], length: int, max_matches: int = 2) -> list[list[int]]:
        """Continuations (up to length tokens) after each occurrence of
        query, most recent first, distinct, capped at max_matches."""
        return self.match_with_fallback(query, len(query), length, len(query), max_matches)[0]

    def match_with_fallback(
        self,
        suffix: list[int],
        m_start: int,
        length: int,
        min_m: int = 1,
        max_matches: int = 2,
    ) -> tuple[list[list[int]], int]:
        """Query the last m_start tokens of suffix, shortening the query
        one token at a time down to min_m until something matches.

        Returns the first non-empty result (continuations of up to length
        tokens) and the gram length used, or ([], 0) when every length
        misses.
        """
        self._check_lengths(m_start, min_m, len(suffix), length)
        successors = self._successors(suffix[:-1], m_start, min_m)
        return self._lookup(successors, suffix[-1], length, max_matches)

    def match_candidates(
        self,
        suffix: list[int],
        candidates: Iterable[int],
        m_start: int,
        length: int,
        min_m: int = 1,
    ) -> Iterator[list[int]]:
        """For each candidate token in order, the continuation that
        match_with_fallback(suffix + [cand], m_start, length, min_m,
        max_matches=1) returns, or [] when every gram length misses.

        Every candidate's query shares the head suffix, so the successor
        dicts of all its gram lengths are fetched once, when called, and
        each candidate costs one probe per gram length tried. Candidates
        are probed lazily, so a caller that stops iterating probes no
        further. Do not extend the index while iterating.
        """
        self._check_lengths(m_start, min_m, len(suffix) + 1, length)
        successors = list(self._successors(suffix, m_start, min_m))
        return ((self._lookup(successors, cand, length, 1)[0] or [[]])[0] for cand in candidates)

    def _check_lengths(self, m_start: int, min_m: int, query_len: int, length: int) -> None:
        """Raise ValueError unless 1 <= min_m <= m_start <=
        min(m_max, query_len), so the gram lengths tried fit both the
        index and the query, and length >= 1."""
        if not 1 <= min_m <= m_start <= min(self.m_max, query_len):
            raise ValueError(
                f"need 1 <= min_m {min_m} <= m_start {m_start} <= "
                f"min(m_max {self.m_max}, query length {query_len})"
            )
        if length < 1:
            raise ValueError(f"continuation length must be >= 1, got {length}")

    def _successors(
        self, head: list[int], m_start: int, min_m: int
    ) -> Iterator[tuple[int, dict[int, list[int]]]]:
        """(m, successors of head's last m - 1 tokens) for m from m_start
        down to min_m, each fetched when the caller asks for it."""
        n = len(head)
        for m in range(m_start, min_m - 1, -1):
            yield m, self.table.get(tuple(head[n - m + 1 :]), _NO_SUCCESSORS)

    def _lookup(
        self,
        successors: Iterable[tuple[int, dict[int, list[int]]]],
        token: int,
        length: int,
        max_matches: int,
    ) -> tuple[list[list[int]], int]:
        """The continuations of the first gram length whose successor dict
        gives token a non-empty one, and that length; ([], 0) if none
        does. One probe per length tried."""
        for m, succ in successors:
            self.probe_count += 1
            offsets = succ.get(token)
            if offsets:
                found = self._continuations(offsets, length, max_matches)
                if found:
                    return found, m
        return [], 0

    def _continuations(self, offsets: list[int], length: int, max_matches: int) -> list[list[int]]:
        """Up to max_matches non-empty continuations (up to length tokens)
        after the occurrences at offsets (those of one gram), most recent
        first, distinct at that length."""
        found: list[list[int]] = []
        for off in reversed(offsets):
            cont = self.source[off : off + length]
            if cont and cont not in found:
                found.append(cont)
                if len(found) >= max_matches:
                    break
        return found

    def dump(self) -> str:
        """Debug dump, one gram per line in sorted order:
        "k1 k2 .. km | off1,off2,..."."""
        grams = sorted(
            (prefix + (tok,), offsets)
            for prefix, successors in self.table.items()
            for tok, offsets in successors.items()
        )
        return "\n".join(
            f"{' '.join(map(str, gram))} | {','.join(map(str, offsets))}"
            for gram, offsets in grams
        )
