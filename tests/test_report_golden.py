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
dumps are unchanged.

All four digests were re-recorded when a next-token continuation that
runs into the source end began repeating its period up to value_len
tokens. Tokens did not move. At T0 the retrieval modes need fewer steps
(MAT: logitspec 3.696 -> 5.484, retrieval_only 3.617 -> 5.312); at T1
logitspec keeps its 95 steps and evaluates more tree rows (forward 1976
-> 2050). Each dump's first logitspec tree grew. Reports: T0
d1189cb3...47af0d4 -> 907a30c1...a8ff0d4, T1 1ff88905...44ffa8 ->
3da56d18...bcbc709. Dumps: T0 1563f70d...af77f9d9 -> 7d3e56cd...c10ec88f,
T1 cd2c3035...c49253 -> 45e436b2...d78398d2.

Both T1 digests were re-recorded when, at T>0, the drafter began
ordering next-next candidates by the distance from the next-next
position's uniform to their intervals of the tempered last-logit CDF.
No token moved. logitspec needs fewer steps (95 -> 73, MAT 1.474 ->
1.918) and evaluates fewer tree rows (forward 2050 -> 1561). last_logit's
rows did not move: on a 32-token vocab its 60 candidates are every
token but the pending one, in whatever order. The dump's first logitspec tree keeps its
next-token rows and lists its candidates in the new order (3 0 1 2 4 5
6 ... -> 6 5 4 3 2 1 0 ...). Report 3da56d18...bcbc709 ->
09e060d1...7529d9ea, dump 45e436b2...d78398d2 -> 380d003b...a0b04bf.

The T0 report digest was re-recorded when the next-token draft depth
became a per-session budget that grows from 8 toward 16 after steps
that accept the whole depth. No token moved. The retrieval modes need
fewer steps (logitspec 31 -> 26, MAT 5.484 -> 6.538; retrieval_only 32
-> 27, MAT 5.313 -> 6.296) and evaluate fewer tree rows (forward:
logitspec 465 -> 454, retrieval_only 323 -> 312). Report
907a30c1...a8ff0d4 -> 45aa4e4d...5236697. The first tree is drafted at
the floor, so both dumps are unchanged, and so is the T1 report.

Both T1 digests were re-recorded when, at T>0, logitspec began drafting
the coupled path: the tokens the tempered last-logit CDF draws with the
uniforms of the next depth positions. No token moved. logitspec needs
fewer steps (73 -> 28, MAT 1.918 -> 5.0) and evaluates fewer tree rows
(forward 1561 -> 815); last_logit's rows did not move. The dump's first
logitspec tree gains the path's rows between its next-token rows and
its candidate rows (33 -> 40 rows). Report 09e060d1...7529d9ea ->
54d9190e...8c603088, dump 380d003b...a0b04bf -> 5c229078...c8382be0a.
The T0 report and dump are unchanged.

Both report digests were re-recorded when `capacity` became the draft-row
budget of every mode and `last_logit_k` was deleted: each report's
`config` block lost its `"last_logit_k": 60,` line and no other byte
moved (at the default capacity last_logit still drafts 60 candidates).
T0 45aa4e4d...5236697 -> 4384f6ab...11ae0bd, T1 54d9190e...8c603088 ->
613aa946...6ac41a. Both dumps are unchanged."""

from __future__ import annotations

import hashlib

import pytest

from logitspec.cli import main

# case -> (report sha256, --dump-tree stdout sha256)
GOLDEN = {
    "T0-all-modes-compare": (
        "4384f6ab01ffeeb6e2a5129960b095f74a5503da273dd3bb494cda8f811ae0bd",
        "7d3e56cde4777abb33074d42590cc90464174ca7f527ac045e89e6abc10ec88f",
    ),
    "T1-logitspec-last_logit": (
        "613aa946e381c6c2b28350d2100a7361022b7bb1c9c3fafec288f2c9736ac41a",
        "5c229078dfcb9f284d1c9ec816b301c6b63557bce32fd64ef6944d5c8382be0a",
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
