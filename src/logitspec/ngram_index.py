"""Hash-table n-gram retrieval over the session's prompt + decoded tokens.

Every gram of length 1..m_max is a key mapping to the offsets just past
its occurrences, so a lookup is a bounded number of hash probes
regardless of source length. The index grows incrementally as tokens are
decoded; extend() is equivalent to a rebuild as far as match() output is
concerned.

Every query reads the table through one lookup, _continuations(): one
probe returning the most recent distinct continuations of a gram.
match_with_fallback() serves one suffix (the next-token query), and
match_candidates() serves every next-next candidate of a step in one
call, so its cost is also a bounded number of probes per candidate
regardless of source length.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["NGramIndex"]


class NGramIndex:
    """Retrieval model: key grams (length 1..m_max) -> occurrence offsets."""

    def __init__(self, m_max: int = 3, value_len: int = 8):
        if m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {m_max}")
        if value_len < 1:
            raise ValueError(f"value_len must be >= 1, got {value_len}")
        self.m_max = m_max
        self.value_len = value_len
        self.source: list[int] = []
        # offsets in ascending source order; each points just past a key
        # occurrence, i.e. at the first continuation token
        self.table: dict[tuple[int, ...], list[int]] = {}
        self.probe_count = 0

    @classmethod
    def build(cls, source: list[int], m_max: int = 3, value_len: int = 8) -> "NGramIndex":
        index = cls(m_max=m_max, value_len=value_len)
        index.extend(source)
        return index

    def extend(self, new_tokens: list[int]) -> "NGramIndex":
        """Index the grams ending at each newly appended position."""
        for tok in new_tokens:
            self.source.append(tok)
            end = len(self.source)
            for m in range(1, min(self.m_max, end) + 1):
                key = tuple(self.source[end - m : end])
                self.table.setdefault(key, []).append(end)
        return self

    def match(self, query: list[int], max_matches: int = 2) -> list[list[int]]:
        """Continuations (up to value_len tokens) after each occurrence of
        query, most recent first, distinct, capped at max_matches."""
        if not 1 <= len(query) <= self.m_max:
            raise ValueError(
                f"query length {len(query)} outside [1, {self.m_max}]"
            )
        return self._continuations(tuple(query), max_matches)

    def match_with_fallback(
        self,
        suffix: list[int],
        m_start: int,
        min_m: int = 1,
        max_matches: int = 2,
    ) -> tuple[list[list[int]], int]:
        """Query the last m_start tokens of suffix, shortening the query
        one token at a time down to min_m until something matches.

        Returns the first non-empty result and the gram length used, or
        ([], 0) when every length misses.
        """
        if not 1 <= m_start <= len(suffix):
            raise ValueError(f"m_start {m_start} outside [1, {len(suffix)}]")
        for m in range(m_start, min_m - 1, -1):
            found = self.match(suffix[len(suffix) - m :], max_matches=max_matches)
            if found:
                return found, m
        return [], 0

    def match_candidates(
        self,
        suffix: list[int],
        candidates: Iterable[int],
        m_start: int,
        min_m: int = 1,
    ) -> Iterator[list[int]]:
        """For each candidate token in order, the continuation that
        match_with_fallback(suffix + [cand], m_start, min_m, max_matches=1)
        returns, or [] when every gram length misses.

        The m_start - min_m + 1 query prefixes are built once; each
        candidate then costs one probe of prefix + (cand,) per gram
        length tried. Candidates are probed lazily, so a caller that
        stops iterating probes no further. Do not extend the index while
        iterating.
        """
        if not 1 <= min_m <= m_start <= min(self.m_max, len(suffix) + 1):
            raise ValueError(
                f"need 1 <= min_m {min_m} <= m_start {m_start} <= "
                f"min(m_max {self.m_max}, len(suffix) + 1 = {len(suffix) + 1})"
            )
        prefixes = [
            tuple(suffix[len(suffix) - m + 1 :]) for m in range(m_start, min_m - 1, -1)
        ]

        def first(cand: int) -> list[int]:
            for prefix in prefixes:
                found = self._continuations(prefix + (cand,), 1)
                if found:
                    return found[0]
            return []

        return map(first, candidates)

    def _continuations(self, key: tuple[int, ...], max_matches: int) -> list[list[int]]:
        """One probe: up to max_matches distinct non-empty continuations
        (up to value_len tokens) after the occurrences of key, most recent
        first."""
        self.probe_count += 1
        offsets = self.table.get(key)
        if not offsets:
            return []
        found: list[list[int]] = []
        for off in reversed(offsets):
            cont = self.source[off : off + self.value_len]
            if cont and cont not in found:
                found.append(cont)
                if len(found) >= max_matches:
                    break
        return found

    def dump(self) -> str:
        """Debug dump, one key per line: "k1 k2 .. km | off1,off2,..."."""
        lines = []
        for key in sorted(self.table):
            offs = ",".join(map(str, self.table[key]))
            lines.append(f"{' '.join(map(str, key))} | {offs}")
        return "\n".join(lines)
