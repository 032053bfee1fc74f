"""Hash-table n-gram retrieval over the session's prompt + decoded tokens.

Every gram of length 1..m_max is a key mapping to the offsets just past
its occurrences, so a lookup is a bounded number of hash probes
regardless of source length. The index grows incrementally as tokens are
decoded; extend() is equivalent to a rebuild as far as match() output is
concerned.

Two query paths: match_with_fallback() serves one suffix (the next-token
query), and match_candidates() serves every next-next candidate of a step
in one call, probing each candidate's grams directly, so its cost is also
a bounded number of probes per candidate regardless of source length.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

__all__ = ["NGramIndex", "MatchResult"]


@dataclass
class MatchResult:
    """Continuations following each source occurrence of the query,
    most-recent occurrence first, deduplicated by content."""

    continuations: list[list[int]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.continuations)


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

    def match(self, query: list[int], max_matches: int = 2) -> MatchResult:
        """Continuations (up to value_len tokens) after each occurrence of
        query, most recent first, capped at max_matches."""
        if not 1 <= len(query) <= self.m_max:
            raise ValueError(
                f"query length {len(query)} outside [1, {self.m_max}]"
            )
        self.probe_count += 1
        offsets = self.table.get(tuple(query))
        if not offsets:
            return MatchResult()
        result: list[list[int]] = []
        seen: set[tuple[int, ...]] = set()
        for off in reversed(offsets):
            cont = self.source[off : off + self.value_len]
            if not cont:
                continue
            key = tuple(cont)
            if key in seen:
                continue
            seen.add(key)
            result.append(cont)
            if len(result) >= max_matches:
                break
        return MatchResult(result)

    def match_with_fallback(
        self,
        suffix: list[int],
        m_start: int,
        min_m: int = 1,
        max_matches: int = 2,
    ) -> tuple[MatchResult, int]:
        """Query the last m_start tokens of suffix, shortening the query
        one token at a time down to min_m until something matches.

        Returns the first non-empty result and the gram length used, or
        (empty, 0) when every length misses.
        """
        if not 1 <= m_start <= len(suffix):
            raise ValueError(f"m_start {m_start} outside [1, {len(suffix)}]")
        for m in range(m_start, min_m - 1, -1):
            result = self.match(suffix[len(suffix) - m :], max_matches=max_matches)
            if result:
                return result, m
        return MatchResult(), 0

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
        length tried, counted in probe_count as match() counts them.
        Candidates are probed lazily, so a caller that stops iterating
        probes no further. Do not extend the index while iterating.
        """
        if not 1 <= min_m <= m_start <= min(self.m_max, len(suffix) + 1):
            raise ValueError(
                f"need 1 <= min_m {min_m} <= m_start {m_start} <= "
                f"min(m_max {self.m_max}, len(suffix) + 1 = {len(suffix) + 1})"
            )
        prefixes = [
            tuple(suffix[len(suffix) - m + 1 :]) for m in range(m_start, min_m - 1, -1)
        ]
        return self._candidate_continuations(prefixes, candidates)

    def _candidate_continuations(
        self, prefixes: list[tuple[int, ...]], candidates: Iterable[int]
    ) -> Iterator[list[int]]:
        table, source, value_len = self.table, self.source, self.value_len
        for cand in candidates:
            cont: list[int] = []
            for prefix in prefixes:
                self.probe_count += 1
                offsets = table.get(prefix + (cand,))
                if not offsets:
                    continue
                off = offsets[-1]
                # offsets ascend, so only the latest occurrence can end
                # the source and leave no continuation
                if off == len(source):
                    if len(offsets) == 1:
                        continue
                    off = offsets[-2]
                cont = source[off : off + value_len]
                break
            yield cont

    def dump(self) -> str:
        """Debug dump, one key per line: "k1 k2 .. km | off1,off2,..."."""
        lines = []
        for key in sorted(self.table):
            offs = ",".join(map(str, self.table[key]))
            lines.append(f"{' '.join(map(str, key))} | {offs}")
        return "\n".join(lines)
