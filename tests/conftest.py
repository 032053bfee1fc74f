from __future__ import annotations

import numpy as np
import pytest

from logitspec import MarkovTableModel, ScriptedModel, VocabSpec


def naive_match(
    source: list[int],
    query: list[int],
    length: int,
    max_matches: int = 2,
) -> list[list[int]]:
    """O(mn) sliding-window retrieval oracle: continuations after each
    occurrence of query, most recent first, deduplicated, capped."""
    m = len(query)
    result: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for start in range(len(source) - m, -1, -1):
        if source[start : start + m] != query:
            continue
        cont = source[start + m : start + m + length]
        if not cont or tuple(cont) in seen:
            continue
        seen.add(tuple(cont))
        result.append(cont)
        if len(result) >= max_matches:
            break
    return result


def naive_fallback(
    source: list[int],
    suffix: list[int],
    m_start: int,
    length: int,
    min_m: int = 1,
    max_matches: int = 2,
) -> tuple[list[list[int]], int]:
    for m in range(m_start, min_m - 1, -1):
        result = naive_match(source, suffix[len(suffix) - m :], length, max_matches)
        if result:
            return result, m
    return [], 0


def dist(vocab_size: int, **probs: float) -> np.ndarray:
    """Distribution with named entries t0, t1, ... and zero elsewhere."""
    p = np.zeros(vocab_size)
    for name, value in probs.items():
        p[int(name.lstrip("t"))] = value
    return p


@pytest.fixture
def small_markov() -> MarkovTableModel:
    vocab = VocabSpec(8, 7)
    corpus = [[1, 2, 3, 1, 2, 3, 4, 1, 2, 3], [2, 3, 4, 2, 3, 4]]
    return MarkovTableModel(vocab, order=2, alpha=0.1, seed=1).train(corpus)


def uniform_scripted(vocab_size: int = 4, eos: int | None = None) -> ScriptedModel:
    vocab = VocabSpec(vocab_size, eos if eos is not None else vocab_size - 1)
    return ScriptedModel(vocab, {}, np.full(vocab_size, 1.0 / vocab_size))


class ListRng:
    """Stand-in for a np.random.Generator: `random(n)` hands out the next
    n of the given values, in order, and raises IndexError past them."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def random(self, n: int) -> np.ndarray:
        if self.drawn + n > len(self.values):
            raise IndexError(f"ListRng holds {len(self.values)} values, {self.drawn + n} asked")
        block = self.values[self.drawn : self.drawn + n]
        self.drawn += n
        return np.array(block)
