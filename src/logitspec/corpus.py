"""Token corpora: file IO and deterministic synthetic generation.

Corpus files hold one prompt per line as space-separated decimal token
ids. The generator controls how much verbatim phrase repetition a corpus
contains, which is what gives the retrieval index something to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Corpus", "load_corpus", "save_corpus", "gen_corpus"]


@dataclass
class Corpus:
    sequences: list[list[int]]


def load_corpus(path: str | Path) -> Corpus:
    path = Path(path)
    sequences = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            sequences.append([int(t) for t in line.split()])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer token") from exc
    return Corpus(sequences)


def save_corpus(path: str | Path, corpus: Corpus) -> None:
    text = "\n".join(" ".join(map(str, seq)) for seq in corpus.sequences)
    Path(path).write_text(text + "\n", encoding="utf-8")


def gen_corpus(
    seed: int,
    vocab_size: int,
    count: int,
    length: int,
    repetitiveness: float,
) -> Corpus:
    """Deterministic synthetic prompts.

    repetitiveness 0 draws independent uniform tokens; 1 tiles a single
    phrase per prompt; in between, each emission repeats a verbatim
    phrase from the prompt's own history with that probability.
    """
    for name, value in (("vocab_size", vocab_size), ("count", count), ("length", length)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 0.0 <= repetitiveness <= 1.0:
        raise ValueError(f"repetitiveness must be in [0, 1], got {repetitiveness}")
    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(count):
        if repetitiveness >= 1.0:
            phrase = rng.integers(0, vocab_size, size=min(8, length)).tolist()
            seq = (phrase * (length // len(phrase) + 1))[:length]
            sequences.append(seq)
            continue
        seq: list[int] = []
        while len(seq) < length:
            if len(seq) >= 8 and rng.random() < repetitiveness:
                span = int(rng.integers(3, 7))
                start = int(rng.integers(0, len(seq) - span + 1))
                seq.extend(seq[start : start + span])
            else:
                seq.append(int(rng.integers(0, vocab_size)))
        sequences.append(seq[:length])
    return Corpus(sequences)
