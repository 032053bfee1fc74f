"""The benchmark's tracer (perfbench/spans.py) wraps library functions
by name. Installing and removing it here makes a library change that
deletes or renames a wrapped name fail the unit tests, instead of
crashing traced benchmark runs. Decoding under it checks that the decode
path still calls the wrapped names, so no per-layer span goes silent.
A tiny traced benchmark run checks what perfbench/bench.py reads of
`DecodeResult`, `StepRecord` and `DraftTree`."""

from __future__ import annotations

import dataclasses
import gc
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from logitspec import DecodeConfig, MarkovTableModel, VocabSpec, engine
from logitspec.corpus import gen_corpus
from logitspec.engine import MODES

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_name(spans):
    before = [owner.__dict__[attr] for owner, attr, _ in spans.PATCHES]
    with spans.Tracer().installed():
        wrapped = [owner.__dict__[attr] for owner, attr, _ in spans.PATCHES]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [owner.__dict__[attr] for owner, attr, _ in spans.PATCHES] == before


@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("mode", MODES)
def test_traced_decodes_record_every_layer_span(spans, mode, temperature):
    corpus = gen_corpus(seed=3, vocab_size=32, count=4, length=24, repetitiveness=0.6)
    model = MarkovTableModel(VocabSpec(32, 31), order=2, alpha=0.1).train(corpus.sequences)
    tracer = spans.Tracer()
    with tracer.installed():
        for seed, prompt in enumerate(corpus.sequences):
            cfg = DecodeConfig(mode=mode, max_new_tokens=48, temperature=temperature, seed=seed)
            # through the module attribute, as the benchmark calls it
            engine.decode(model, prompt, cfg)
    want = {"engine.decode", "verify", "models.forward", "models.forward_tree"}
    if mode in ("retrieval_only", "logitspec"):
        want |= {"drafting.build_draft", "ngram_index.extend", "ngram_index.match_with_fallback"}
    if mode != "autoregressive":
        # retrieval_only ranks no candidate, but still asks for none
        want.add("drafting.speculate_next_next")
    assert want <= {s.name for s in tracer.spans}


@pytest.fixture
def bench(monkeypatch):
    """perfbench/bench.py imported as the benchmark imports it, with
    single-pass rounds; its modules leave sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    before = set(sys.modules)
    module = importlib.import_module("bench")
    monkeypatch.setattr(module, "MIN_PASS_S", 1e-9)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_reads_every_gated_metric(bench, workload):
    from workloads import WORKLOADS

    w = dataclasses.replace(
        WORKLOADS[workload], corpora=1, prompts=2, max_new_tokens=24,
        growth_short=40, growth_long=40,
    )
    try:
        run = bench.measure(w, 0, seconds=0, trace=True)
        metrics = {**bench.end_to_end(run), **bench.per_layer(run)}
    finally:
        gc.unfreeze()  # measure freezes the collector
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert math.isfinite(metrics[m["name"]][0]), m["name"]
    assert run.checker.total_failed == 0
