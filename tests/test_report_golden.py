"""Golden digests of `run` output: the report JSON bytes and the
`--dump-tree` text. A refactor of the engine's metrics or of the report
must leave both unchanged. Paths are relative (the report embeds the
model and corpus paths), so each case runs in its own directory.

The T1 report digest was re-recorded when stochastic verification became
one `sample` draw per emitted token: both modes now emit
autoregressive's tokens (140 per mode instead of 175 and 163), so their
rows and aggregates moved. Its first tree, and so the dump, did not.

Both report digests were re-recorded when the draft tree became a token
trie (one row per distinct token path): only `phase_counters.forward`
moved, the tree rows evaluated (T0: logitspec 476 -> 421, retrieval_only
322 -> 271; T1: logitspec 2054 -> 1976). T0 cfbcb634...87058f ->
d1189cb3...47af0d4, T1 e69f0346...51c8f -> 1ff88905...44ffa8. Both
dumps are unchanged."""

from __future__ import annotations

import hashlib

import pytest

from logitspec.cli import main

# case -> (report sha256, --dump-tree stdout sha256)
GOLDEN = {
    "T0-all-modes-compare": (
        "d1189cb365aea20772ad6193733f21a06690c033dc32b4f2a1b21356f47af0d4",
        "1563f70dce0edce22f5f275a963f86511165941bd7d4ca82cb3d4d38af77f9d9",
    ),
    "T1-logitspec-last_logit": (
        "1ff889058c07aa7dbb74259f06f688483f7ae1e6c4fa55da2de044657244ffa8",
        "cd2c3035432595f90f37279170507500501c6b710c8f02c6880a7d5c96c49253",
    ),
}

ARGS = {
    "T0-all-modes-compare": [
        "--mode", "logitspec,retrieval_only,last_logit,autoregressive", "--compare",
    ],
    "T1-logitspec-last_logit": ["--mode", "logitspec,last_logit", "--temperature", "1"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_and_dump_tree_bytes(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    assert main([
        "gen-corpus", "--out", "corpus.txt", "--seed", "7", "--vocab", "32",
        "--count", "8", "--length", "24", "--repetitiveness", "0.7",
    ]) == 0
    assert main([
        "gen-model", "--out", "model.txt", "--corpus", "corpus.txt", "--vocab", "32",
        "--seed", "7",
    ]) == 0
    capsys.readouterr()
    assert main([
        "run", "--model", "model.txt", "--corpus", "corpus.txt", "--max-new-tokens", "32",
        "--json-out", "report.json", "--dump-tree", *ARGS[case],
    ]) == 0
    report = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    dump = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (report, dump) == GOLDEN[case]
