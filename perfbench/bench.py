"""Timed decode passes, output checks and metric computation.

Load model: one process, one thread, closed loop. A single caller
decodes the workload's prompts back to back, one (prompt, mode) decode
at a time. A round decodes each of the run's corpora once in every
mode; each pass trains a fresh model, so every pass starts from a cold
distribution cache as a `logitspec-bench run` does. Rounds repeat while
another one fits in the time budget.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

from logitspec import engine
from logitspec.cli import prompt_seed
from logitspec.corpus import gen_corpus
from logitspec.engine import MODES, DecodeConfig, DecodeResult
from logitspec.models import MarkovTableModel, VocabSpec

from spans import DECODE, Tracer, self_times
from workloads import (
    CORPUS_PROMPTS,
    EOS,
    MODEL_ALPHA,
    MODEL_ORDER,
    PROMPT_LEN,
    VOCAB_SIZE,
    Workload,
)

SPECULATIVE = ("last_logit", "retrieval_only", "logitspec")
RETRIEVAL = ("retrieval_only", "logitspec")

# decode time each mode gets per corpus and round, in whole passes: the
# fast modes repeat their pass, so short timings are not single samples
MIN_PASS_S = 0.6

# per-layer metrics: (span name, modes that call it)
LAYER_TIMES = {
    "tree.prepare_attention_inputs": MODES,
    "tree.ancestor_rows": MODES,
    "models.forward": MODES,
    "models.forward_tree": MODES,
    "models.sample": MODES,
    "ngram_index.match_with_fallback": RETRIEVAL,
    "ngram_index.extend": RETRIEVAL,
    "drafting.build_draft": RETRIEVAL,
    "drafting.speculate_next_next": SPECULATIVE,  # retrieval_only: with top_k=0
    "verify": MODES,
}


@dataclass
class Setup:
    model: MarkovTableModel
    prompts: list[list[int]]
    gen_corpus_s: float
    train_s: float

    @property
    def seconds(self) -> float:
        return self.gen_corpus_s + self.train_s


def setup(workload: Workload, seed: int) -> Setup:
    """Generate the corpus and train the model, timing each part."""
    t0 = perf_counter()
    corpus = gen_corpus(
        seed=seed,
        vocab_size=VOCAB_SIZE,
        count=CORPUS_PROMPTS,
        length=PROMPT_LEN,
        repetitiveness=workload.repetitiveness,
    )
    t1 = perf_counter()
    model = MarkovTableModel(
        VocabSpec(VOCAB_SIZE, EOS), order=MODEL_ORDER, alpha=MODEL_ALPHA, seed=seed
    ).train(corpus.sequences)
    t2 = perf_counter()
    return Setup(model, corpus.sequences[: workload.prompts], t1 - t0, t2 - t1)


@dataclass
class Pass:
    """One mode decoding every prompt of the workload once."""

    mode: str
    results: list[DecodeResult | None]  # None where decode raised
    errors: list[str]
    decode_s: float  # wall time of all decode() calls
    # one entry per gap between consecutive tree_observer calls:
    # (gap in ms, past_len of the step's tree)
    gaps: list[tuple[float, int]]
    mask_bytes: int  # summed over the tree of every step

    @property
    def tokens(self) -> int:
        return sum(r.metrics.tokens for r in self.results if r is not None)

    @property
    def decode_steps(self) -> int:
        return sum(r.metrics.steps for r in self.results if r is not None)


def run_pass(
    workload: Workload,
    seed: int,
    mode: str,
    model: MarkovTableModel,
    prompts: list[list[int]],
) -> Pass:
    """Decode every prompt once in `mode`."""
    results: list[DecodeResult | None] = []
    errors: list[str] = []
    gaps: list[tuple[float, int]] = []
    mask_bytes = 0
    decode_ns = 0
    for i, prompt in enumerate(prompts):
        cfg = DecodeConfig(
            mode=mode,
            max_new_tokens=workload.max_new_tokens,
            temperature=workload.temperature,
            seed=prompt_seed(seed, i),
        )
        calls: list[tuple[int, int, int]] = []
        append = calls.append

        def observe(tree):
            append((perf_counter_ns(), tree.past_len, tree.mask.nbytes))

        t0 = perf_counter_ns()
        try:
            result = engine.decode(model, prompt, cfg, tree_observer=observe)
        except Exception as exc:  # a raising decode is a failed op
            result = None
            errors.append(f"{mode} prompt {i}: {type(exc).__name__}: {exc}")
        decode_ns += perf_counter_ns() - t0
        results.append(result)
        for (t_a, past, _), (t_b, _, _) in zip(calls, calls[1:]):
            gaps.append(((t_b - t_a) / 1e6, past))
        mask_bytes += sum(c[2] for c in calls)
    return Pass(mode, results, errors, decode_ns / 1e9, gaps, mask_bytes)


def contract_error(workload: Workload, tokens: list[int]) -> str | None:
    """Why an output breaks the decode contract, or None."""
    if not tokens:
        return "no tokens"
    if len(tokens) > workload.max_new_tokens:
        return f"{len(tokens)} tokens > max_new_tokens {workload.max_new_tokens}"
    if EOS in tokens[:-1]:
        return "tokens after eos"
    if any(not 0 <= t < VOCAB_SIZE for t in tokens):
        return "token id outside the vocab"
    return None


class Checker:
    """Counts ops per mode and checks each decode's output.

    Every output must keep the decode contract and equal the tokens of
    the first pass of the same mode on the same corpus (same decode
    seeds). On greedy workloads every mode must also emit the tokens of
    the autoregressive pass on that corpus, so that pass is checked first.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first: dict[tuple[str, int], list[list[int] | None]] = {}
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.messages: list[str] = []

    def check(self, p: Pass, corpus: int = 0) -> None:
        tokens = [r.tokens if r else None for r in p.results]
        expected = self.first.setdefault((p.mode, corpus), tokens)
        reference = None
        if self.workload.greedy:
            reference = self.first.get(("autoregressive", corpus))
            if reference is None:
                raise ValueError("check the autoregressive pass of a corpus first")
        self.messages.extend(p.errors)
        for i, r in enumerate(p.results):
            self.attempted[p.mode] += 1
            if r is None:
                self.failed[p.mode] += 1
                continue
            why = contract_error(self.workload, r.tokens)
            if why is None and reference is not None and r.tokens != reference[i]:
                why = "tokens differ from autoregressive"
            if why is None and r.tokens != expected[i]:
                why = "tokens differ from an earlier pass with the same seed"
            if why is not None:
                self.failed[p.mode] += 1
                self.messages.append(f"{p.mode} corpus {corpus} prompt {i}: {why}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


@dataclass
class Run:
    """Everything one benchmark run measured."""

    workload: Workload
    corpus_seeds: list[int]
    setups: list[Setup] = field(default_factory=list)
    # (mode, corpus index) -> its untraced passes, over all rounds
    passes: dict[tuple[str, int], list[Pass]] = field(default_factory=lambda: defaultdict(list))
    traced: dict[str, list[Pass]] = field(default_factory=lambda: defaultdict(list))
    layer_ns: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    traced_decode_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    probes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    hits: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    queries: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    rounds: int = 0
    tracer: Tracer | None = None
    checker: Checker | None = None

    def mode_passes(self, mode: str) -> list[Pass]:
        return [p for j in range(len(self.corpus_seeds)) for p in self.passes[(mode, j)]]


def corpus_seeds(workload: Workload, seed: int) -> list[int]:
    """The corpora a run decodes: workload seed s covers corpus seeds
    s*corpora .. s*corpora + corpora - 1, so seed 0 starts at corpus 0."""
    return [seed * workload.corpora + j for j in range(workload.corpora)]


def warm_up(workload: Workload, seed: int) -> None:
    """Run every mode briefly so first-call costs stay out of the timed
    passes."""
    s = setup(workload, seed)
    short = dataclasses.replace(workload, max_new_tokens=min(16, workload.max_new_tokens))
    for mode in MODES:
        run_pass(short, seed, mode, s.model, s.prompts[:2])


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Run rounds until `seconds` is spent (at least one round).

    A round decodes every corpus of the run in every mode, repeating a
    mode's pass until it has taken MIN_PASS_S; the mode order rotates by
    one for each (round, corpus). With `trace`, the untraced passes of a
    mode are followed by one traced pass on a fresh model, whose tokens
    must equal the untraced ones.
    """
    seeds = corpus_seeds(workload, seed)
    run = Run(workload, seeds)
    run.checker = Checker(workload)
    if trace:
        run.tracer = Tracer()
    warm_up(workload, seeds[0])
    deadline = perf_counter() + seconds
    longest = 0.0
    while True:
        start = perf_counter()
        for j, cseed in enumerate(seeds):
            rot = (run.rounds * len(seeds) + j) % len(MODES)
            untraced, traced = defaultdict(list), {}
            for mode in MODES[rot:] + MODES[:rot]:
                spent = 0.0
                while spent < MIN_PASS_S:
                    s = _fresh(run, cseed)
                    untraced[mode].append(run_pass(workload, cseed, mode, s.model, s.prompts))
                    spent += untraced[mode][-1].decode_s
                if trace:
                    traced[mode] = _traced_pass(run, cseed, mode)
            for mode in MODES:  # autoregressive first: the greedy reference
                for p in untraced[mode]:
                    run.checker.check(p, j)
                    run.passes[(mode, j)].append(p)
                if trace:
                    run.checker.check(traced[mode], j)
                    run.traced[mode].append(traced[mode])
        run.rounds += 1
        longest = max(longest, perf_counter() - start)
        if perf_counter() + longest > deadline:
            return run


def _fresh(run: Run, cseed: int) -> Setup:
    s = setup(run.workload, cseed)
    run.setups.append(s)
    # keep the results and spans gathered so far out of the collector's
    # reach, so a pass pays the garbage collection of a fresh process
    gc.collect()
    gc.freeze()
    return s


def _traced_pass(run: Run, cseed: int, mode: str) -> Pass:
    s = _fresh(run, cseed)
    tracer = run.tracer
    first_span = len(tracer.spans)
    counts = (tracer.probes, tracer.hits, tracer.queries)
    with tracer.installed():
        p = run_pass(run.workload, cseed, mode, s.model, s.prompts)
    run.probes[mode] += tracer.probes - counts[0]
    run.hits[mode] += tracer.hits - counts[1]
    run.queries[mode] += tracer.queries - counts[2]
    spans = tracer.spans[first_span:]
    selfs = self_times(spans)
    for span in spans:
        if span.name == DECODE:
            run.traced_decode_ns[mode] += span.end - span.start
        run.layer_ns[(mode, span.name)] += selfs[span.id]
    return p


def _steps(passes: list[Pass]) -> int:
    return sum(p.decode_steps for p in passes)


def _tokens(passes: list[Pass]) -> int:
    return sum(p.tokens for p in passes)


def _records(passes: list[Pass]):
    return [rec for p in passes for r in p.results if r is not None for rec in r.step_records]


def tok_s(run: Run, mode: str) -> float:
    """Tokens emitted over the wall time of the decode() calls, summed
    over the run's corpora; each corpus's time is its median pass."""
    tokens = seconds = 0.0
    for j in range(len(run.corpus_seeds)):
        passes = run.passes[(mode, j)]
        tokens += passes[0].tokens
        seconds += statistics.median(p.decode_s for p in passes)
    return tokens / seconds


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics: name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(s.seconds for s in run.setups), "s")
    }
    rates = {mode: tok_s(run, mode) for mode in MODES}
    for mode in MODES:
        m[f"tok_s.{mode}"] = (rates[mode], "tok/s")
    for mode in SPECULATIVE:
        m[f"speedup.{mode}"] = (rates[mode] / rates["autoregressive"], "x")
    for mode in MODES:
        p99s = [np.percentile([g for g, _ in p.gaps], 99) for p in run.mode_passes(mode)]
        m[f"step_ms.p99.{mode}"] = (float(statistics.median(p99s)), "ms")
    for mode in SPECULATIVE:
        first = [run.passes[(mode, j)][0] for j in range(len(run.corpus_seeds))]
        m[f"mat.{mode}"] = (_tokens(first) / _steps(first), "tok/step")
    return m


def step_samples(run: Run) -> dict[str, tuple[int, int]]:
    """(step gaps, passes) behind each step_ms.p99 value: the median
    over passes of each pass's 99th percentile."""
    return {
        mode: (sum(len(p.gaps) for p in run.mode_passes(mode)), len(run.mode_passes(mode)))
        for mode in MODES
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run: name -> (value, unit).

    Times are self times (span time minus child spans) summed over the
    traced passes, per decode step. Step times, mask sizes and counts
    from the engine's step records come from the untraced passes; probe
    and query counts from the traced calls.
    """
    w = run.workload
    m: dict[str, tuple[float, str]] = {}
    for name, modes in LAYER_TIMES.items():
        for mode in modes:
            ms = run.layer_ns[(mode, name)] / 1e6 / _steps(run.traced[mode])
            m[f"{name}.ms_per_step.{mode}"] = (ms, "ms/step")
    for mode in MODES:
        passes = run.mode_passes(mode)
        traced = run.traced[mode]
        records = _records(passes)
        gaps = [g for p in passes for g, _ in p.gaps]
        short = [g for p in passes for g, past in p.gaps if past < w.growth_short]
        long = [g for p in passes for g, past in p.gaps if past >= w.growth_long]
        m[f"tree.mask_bytes_per_step.{mode}"] = (
            sum(p.mask_bytes for p in passes) / _steps(passes),
            "B/step",
        )
        m[f"models.forward_tree.rows_per_step.{mode}"] = (
            sum(rec.phase_counters["forward"] for rec in records) / len(records),
            "rows/step",
        )
        m[f"engine.self_ms_per_step.{mode}"] = (
            run.layer_ns[(mode, DECODE)] / 1e6 / _steps(traced),
            "ms/step",
        )
        m[f"engine.step_ms.p50.{mode}"] = (statistics.median(gaps), "ms")
        m[f"engine.step_growth.{mode}"] = (
            statistics.median(long) / statistics.median(short),
            "x",
        )
        m[f"trace.overhead_ms_per_step.{mode}"] = (
            sum(p.decode_s for p in traced) * 1e3 / _steps(traced)
            - sum(p.decode_s for p in passes) * 1e3 / _steps(passes),
            "ms/step",
        )
    for mode in RETRIEVAL:
        m[f"ngram_index.probes_per_step.{mode}"] = (
            run.probes[mode] / _steps(run.traced[mode]),
            "probes/step",
        )
        m[f"ngram_index.query_hit_rate.{mode}"] = (
            run.hits[mode] / run.queries[mode],
            "ratio",
        )
    for mode in SPECULATIVE:
        records = _records(run.mode_passes(mode))
        drafted = sum(rec.draft_size for rec in records)
        m[f"drafting.draft_tokens_per_step.{mode}"] = (drafted / len(records), "tok/step")
        m[f"verify.accept_ratio.{mode}"] = (
            sum(rec.accepted_len for rec in records) / drafted,
            "ratio",
        )
    m["corpus.gen_corpus.ms"] = (
        statistics.median(s.gen_corpus_s for s in run.setups) * 1e3,
        "ms",
    )
    m["models.train.ms"] = (statistics.median(s.train_s for s in run.setups) * 1e3, "ms")
    return m
