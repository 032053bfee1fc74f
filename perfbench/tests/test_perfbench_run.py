"""Benchmark outputs: metric names, output checks, CLI agreement, and the
refusal to run without a source tree."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench
from conftest import BENCH, ROOT
from logitspec.cli import main as cli_main
from logitspec.corpus import Corpus, save_corpus
from logitspec.engine import MODES
from logitspec.models import save_model_file
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_metric_names_and_units_match_benchmark_json():
    w = dataclasses.replace(WORKLOADS["novel-sampled"], corpora=2, prompts=4, max_new_tokens=48,
                            growth_short=48, growth_long=64)
    run = bench.measure(w, 1, seconds=0.01, trace=True)
    assert {k: u for k, (_, u) in bench.end_to_end(run).items()} == _names("end_to_end")
    assert {k: u for k, (_, u) in bench.per_layer(run).items()} == _names("per_layer")
    assert all(WORKLOADS[x["name"]].why == x["why"] for x in SPEC["workloads"])
    assert run.checker.total_failed == 0
    # every untraced and traced pass is 4 ops; each (mode, corpus) has
    # at least one untraced and exactly one traced pass per round
    passes = sum(map(len, run.passes.values())) + sum(map(len, run.traced.values()))
    assert run.checker.total_attempted == 4 * passes
    assert all(len(ps) >= run.rounds for ps in run.passes.values())
    assert all(len(ps) == 2 * run.rounds for ps in run.traced.values())
    assert run.corpus_seeds == [2, 3]


def test_contract_errors():
    w = WORKLOADS["novel-sampled"]
    assert bench.contract_error(w, [1, 2, 63]) is None
    assert "max_new_tokens" in bench.contract_error(w, [1] * 129)
    assert "eos" in bench.contract_error(w, [1, 63, 2])
    assert "vocab" in bench.contract_error(w, [1, 64])


def test_checker_counts_raising_and_mismatching_decodes():
    w = dataclasses.replace(WORKLOADS["repeat-greedy"], prompts=2, max_new_tokens=16)
    s = bench.setup(w, 0)
    checker = bench.Checker(w)
    with pytest.raises(ValueError):
        checker.check(bench.run_pass(w, 0, "logitspec", s.model, s.prompts))
    checker = bench.Checker(w)
    checker.check(bench.run_pass(w, 0, "autoregressive", s.model, s.prompts))
    checker.check(bench.run_pass(w, 0, "logitspec", s.model, s.prompts))
    assert (checker.attempted["logitspec"], checker.failed["logitspec"]) == (2, 0)

    bad = bench.run_pass(w, 0, "logitspec", s.model, [s.prompts[0], [999]])
    assert bad.results[1] is None and "ValueError" in bad.errors[0]
    checker.check(bad)
    assert (checker.attempted["logitspec"], checker.failed["logitspec"]) == (4, 1)

    wrong = bench.run_pass(w, 0, "retrieval_only", s.model, s.prompts[::-1])
    checker.check(wrong)
    assert checker.failed["retrieval_only"] == 2
    assert "differ from autoregressive" in checker.messages[-1]


def test_counts_agree_with_cli_report(tmp_path):
    """At workload seed 0 the benchmark's per-mode steps, tokens and MAT
    equal the `logitspec-bench run` JSON report on the same files."""
    w = WORKLOADS["repeat-greedy"]
    s = bench.setup(w, 0)
    save_corpus(tmp_path / "corpus.txt", Corpus(s.prompts))
    save_model_file(tmp_path / "model.txt", s.model)
    code = cli_main([
        "run", "--model", str(tmp_path / "model.txt"), "--corpus", str(tmp_path / "corpus.txt"),
        "--mode", ",".join(MODES), "--max-new-tokens", str(w.max_new_tokens),
        "--temperature", str(w.temperature), "--seed", "0",
        "--json-out", str(tmp_path / "report.json"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())["modes"]
    mats = {}
    for mode in MODES:
        p = bench.run_pass(w, 0, mode, bench.setup(w, 0).model, s.prompts)
        ours = {"steps": p.decode_steps, "tokens": p.tokens, "mat": p.tokens / p.decode_steps}
        assert ours == {k: report[mode][k] for k in ours}, mode
        mats[mode] = round(ours["mat"], 3)
    assert mats == {
        "autoregressive": 1.0, "last_logit": 1.471, "retrieval_only": 4.658, "logitspec": 4.698
    }


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "repeat-greedy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "no logitspec source tree" in proc.stderr


@pytest.mark.parametrize("args", [["--workload", "nope"], ["--seed", "-1"], ["--seconds", "0"]])
def test_rejects_bad_arguments(args):
    base = {"--workload": "repeat-greedy", "--seed": "0", "--seconds": "1"}
    base.update(dict(zip(args[::2], args[1::2])))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *[x for kv in base.items() for x in kv]],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout
