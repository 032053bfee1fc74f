"""Tracing: self-time arithmetic, patching, and agreement with untraced runs."""

from __future__ import annotations

import dataclasses

import pytest

import bench
from logitspec import engine
from logitspec.engine import MODES
from spans import DECODE, PATCHES, Span, Tracer, self_times
from workloads import WORKLOADS

SMALL = {
    name: dataclasses.replace(
        w, corpora=2, prompts=3, max_new_tokens=40, growth_short=48, growth_long=56
    )
    for name, w in WORKLOADS.items()
}


def test_self_times_on_nested_spans():
    spans = [
        Span("root", 0, 0, None, 0, 100),
        Span("a", 0, 1, 0, 10, 40),
        Span("a.inner", 0, 2, 1, 20, 30),
        Span("b", 0, 3, 0, 50, 60),
        Span("c", 0, 4, 0, 55, 70),  # overlaps b: the union is counted once
        Span("d", 0, 5, 0, 90, 120),  # runs past the root: clipped to it
    ]
    assert self_times(spans) == {0: 100 - 30 - 20 - 10, 1: 20, 2: 10, 3: 10, 4: 15, 5: 30}


def test_every_wrapped_layer_is_reported():
    assert set(bench.LAYER_TIMES) == {name for _, _, name in PATCHES} - {DECODE}


def test_installed_restores_originals_after_an_error():
    before = [owner.__dict__[attr] for owner, attr, _ in PATCHES]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert engine.decode is not before[0]
            raise RuntimeError
    assert [owner.__dict__[attr] for owner, attr, _ in PATCHES] == before


@pytest.mark.parametrize("name", ["repeat-greedy", "novel-sampled"])
def test_traced_tokens_equal_untraced(name):
    w = SMALL[name]
    tracer = Tracer()
    for mode in MODES:
        s = bench.setup(w, 3)
        plain = bench.run_pass(w, 3, mode, s.model, s.prompts)
        s = bench.setup(w, 3)
        with tracer.installed():
            traced = bench.run_pass(w, 3, mode, s.model, s.prompts)
        assert [r.tokens for r in traced.results] == [r.tokens for r in plain.results], mode
    assert {s.name for s in tracer.spans} == {name for _, _, name in PATCHES}


@pytest.fixture(scope="module")
def traced_run():
    return bench.measure(SMALL["novel-sampled"], 5, seconds=0.01, trace=True)


def test_layer_self_times_add_up_to_each_decode(traced_run):
    spans = traced_run.tracer.spans
    selfs = self_times(spans)
    by_trace: dict[int, int] = {}
    for s in spans:
        by_trace[s.trace] = by_trace.get(s.trace, 0) + selfs[s.id]
    decodes = [s for s in spans if s.name == DECODE]
    w = SMALL["novel-sampled"]
    assert len(decodes) == len(by_trace) == len(MODES) * w.corpora * w.prompts * traced_run.rounds
    for d in decodes:
        assert by_trace[d.trace] == d.end - d.start


def test_reported_layer_metrics_add_up_to_decode_time(traced_run):
    layers = bench.per_layer(traced_run)
    for mode in MODES:
        steps = sum(p.decode_steps for p in traced_run.traced[mode])
        decode_ms = traced_run.traced_decode_ns[mode] / 1e6 / steps
        parts = [v for k, (v, _) in layers.items() if ".ms_per_step." in k and k.endswith("." + mode)]
        parts.append(layers[f"engine.self_ms_per_step.{mode}"][0])
        assert sum(parts) == pytest.approx(decode_ms, rel=1e-9), mode


def test_tracing_overhead_is_reported_per_mode(traced_run):
    layers = bench.per_layer(traced_run)
    for mode in MODES:
        value, unit = layers[f"trace.overhead_ms_per_step.{mode}"]
        assert unit == "ms/step"
        assert value == value  # not NaN
