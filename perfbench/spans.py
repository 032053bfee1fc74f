"""Outside-in layer tracing: spans recorded by wrapping library functions.

`Tracer.installed()` replaces the public functions of each layer with
wrappers that record a span (name, start, end, parent) per call and
restores the originals on exit. Nothing in `logitspec` is modified on
disk; untraced runs execute the library exactly as users do.
"""

from __future__ import annotations

import contextlib
import gzip
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

from logitspec import drafting, engine, models, ngram_index

DECODE = "engine.decode"

# (owner, attribute, span name): engine's own imports are patched in the
# engine namespace, the rest where their callers look them up
PATCHES = (
    (engine, "decode", DECODE),
    (engine, "build_draft", "drafting.build_draft"),
    (engine, "prepare_attention_inputs", "tree.prepare_attention_inputs"),
    (engine, "verify_greedy", "verify"),
    (engine, "verify_stochastic", "verify"),
    (engine, "speculate_next_next", "drafting.speculate_next_next"),
    (engine, "sample", "models.sample"),
    (drafting, "speculate_next_next", "drafting.speculate_next_next"),
    (models, "ancestor_rows", "tree.ancestor_rows"),
    (ngram_index.NGramIndex, "extend", "ngram_index.extend"),
    (ngram_index.NGramIndex, "match_with_fallback", "ngram_index.match_with_fallback"),
    (models.Model, "forward", "models.forward"),
    (models.Model, "forward_tree", "models.forward_tree"),
)


@dataclass(slots=True)
class Span:
    name: str
    trace: int
    id: int
    parent: int | None
    start: int
    end: int


class Tracer:
    """In-memory span recorder for one process.

    Every top-level span (a `decode` call) starts a new trace id, shared
    by all its child spans. Counts that only the wrapped calls can see
    are summed as they happen: `probes` from each decode's
    `NGramIndex.probe_count`, and `hits` / `queries` from the `DraftSet`s
    that `build_draft` returns.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace = -1
        self.probes = self.hits = self.queries = 0
        self._stack: list[int] = []
        self._index: ngram_index.NGramIndex | None = None

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                self.trace += 1
            span = Span(name, self.trace, len(spans), stack[-1] if stack else None, 0, 0)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            self._count(name, args, out)
            return out

        return wrapper

    def _count(self, name: str, args: tuple, out) -> None:
        if name == "ngram_index.extend":
            self._index = args[0]
        elif name == "drafting.build_draft":
            self.hits += out.hits
            self.queries += out.queries
        elif name == DECODE and self._index is not None:
            self.probes += self._index.probe_count
            self._index = None

    @contextlib.contextmanager
    def installed(self):
        """Patch every function in PATCHES for the duration of the block."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PATCHES]
        try:
            for owner, attr, name in PATCHES:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self._stack.clear()

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip):
        trace, id, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("trace\tid\tparent\tname\tstart_ns\tend_ns\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                f.write(f"{s.trace}\t{s.id}\t{parent}\t{s.name}\t{s.start}\t{s.end}\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) per span id: its duration minus the part of its
    interval that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        reach = s.start  # children are merged in start order
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.end - s.start - covered
    return out
