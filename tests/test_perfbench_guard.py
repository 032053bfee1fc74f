"""The benchmark's tracer (perfbench/spans.py) wraps library functions
by name. Installing and removing it here makes a library change that
deletes or renames a wrapped name fail the unit tests, instead of
crashing traced benchmark runs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    before = [owner.__dict__[attr] for owner, attr, _ in spans.PATCHES]
    with spans.Tracer().installed():
        wrapped = [owner.__dict__[attr] for owner, attr, _ in spans.PATCHES]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [owner.__dict__[attr] for owner, attr, _ in spans.PATCHES] == before
