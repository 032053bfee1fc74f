from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logitspec
from logitspec.cli import main
from logitspec.corpus import gen_corpus, load_corpus


@pytest.fixture
def bench_files(tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    model_path = tmp_path / "model.txt"
    assert main([
        "gen-corpus", "--out", str(corpus_path),
        "--seed", "7", "--vocab", "32", "--count", "8", "--length", "24",
        "--repetitiveness", "0.7",
    ]) == 0
    assert main([
        "gen-model", "--out", str(model_path), "--corpus", str(corpus_path),
        "--vocab", "32", "--order", "2", "--alpha", "0.1", "--seed", "7",
    ]) == 0
    return model_path, corpus_path


def run_report(tmp_path, model, corpus, *extra):
    out = tmp_path / "report.json"
    code = main([
        "run", "--model", str(model), "--corpus", str(corpus),
        "--max-new-tokens", "32", "--json-out", str(out), *extra,
    ])
    return code, out


def test_gen_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        main(["gen-corpus", "--out", str(path), "--seed", "3", "--vocab", "16",
              "--count", "5", "--length", "20", "--repetitiveness", "0.5"])
    assert a.read_bytes() == b.read_bytes()


def test_gen_corpus_full_repetition():
    corpus = gen_corpus(seed=1, vocab_size=16, count=3, length=24, repetitiveness=1.0)
    for seq in corpus.sequences:
        phrase = seq[:8]
        assert seq == (phrase * 3)


def test_gen_corpus_no_repetition_bigram_baseline():
    corpus = gen_corpus(seed=2, vocab_size=64, count=20, length=40, repetitiveness=0.0)
    dup = 0
    pairs = 0
    for seq in corpus.sequences:
        bigrams = list(zip(seq, seq[1:]))
        pairs += len(bigrams)
        dup += len(bigrams) - len(set(bigrams))
    # expected collisions per prompt ~ C(39,2)/64^2 ~ 0.18; allow slack
    assert dup / len(corpus.sequences) < 2.0


def test_run_autoregressive_mat_is_one(tmp_path, bench_files):
    model, corpus = bench_files
    code, out = run_report(tmp_path, model, corpus, "--mode", "autoregressive")
    assert code == 0
    report = json.loads(out.read_text())
    assert report["modes"]["autoregressive"]["mat"] == 1.0


def test_run_compare_lossless(tmp_path, bench_files):
    model, corpus = bench_files
    code, out = run_report(
        tmp_path, model, corpus, "--mode", "logitspec,retrieval_only,last_logit", "--compare"
    )
    assert code == 0
    report = json.loads(out.read_text())
    for mode in ("logitspec", "retrieval_only", "last_logit"):
        assert report["modes"][mode]["losslessness"] == {"checked": True, "mismatches": 0}


def test_run_compare_sampled_all_modes(tmp_path, bench_files):
    # a seed gives every mode autoregressive's tokens at T > 0 too
    model, corpus = bench_files
    code, out = run_report(
        tmp_path, model, corpus,
        "--mode", "logitspec,retrieval_only,last_logit,autoregressive",
        "--compare", "--temperature", "1",
    )
    assert code == 0
    report = json.loads(out.read_text())
    for mode in ("logitspec", "retrieval_only", "last_logit", "autoregressive"):
        assert report["modes"][mode]["losslessness"] == {"checked": True, "mismatches": 0}


def test_run_tiny_temperature(tmp_path, bench_files):
    # tempering at T = 0.002 raises every probability to the power 500
    model, corpus = bench_files
    code, out = run_report(tmp_path, model, corpus, "--mode", "logitspec", "--temperature", "0.002")
    assert code == 0
    assert json.loads(out.read_text())["modes"]["logitspec"]["tokens"] > 0


def test_run_report_byte_identical(tmp_path, bench_files):
    model, corpus = bench_files
    _, out1 = run_report(tmp_path, model, corpus, "--mode", "logitspec")
    text1 = out1.read_bytes()
    _, out2 = run_report(tmp_path, model, corpus, "--mode", "logitspec")
    assert text1 == out2.read_bytes()


def test_run_retrieval_rate_ordering(tmp_path):
    # needs decode runs long enough for the early index-warmup misses to
    # stop dominating the per-step rate
    corpus = tmp_path / "rep.txt"
    model = tmp_path / "rep_model.txt"
    main(["gen-corpus", "--out", str(corpus), "--seed", "5", "--vocab", "64",
          "--count", "20", "--length", "32", "--repetitiveness", "0.7"])
    main(["gen-model", "--out", str(model), "--corpus", str(corpus), "--vocab", "64"])
    out = tmp_path / "report.json"
    code = main([
        "run", "--model", str(model), "--corpus", str(corpus),
        "--max-new-tokens", "128", "--json-out", str(out),
        "--mode", "logitspec,retrieval_only",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    # the strict >= holds over many seeds (see the acceptance suite); a
    # single corpus can land within one step of a tie, hence the slack
    assert (
        report["modes"]["logitspec"]["retrieval_success_rate"]
        >= report["modes"]["retrieval_only"]["retrieval_success_rate"] - 0.005
    )


def test_check_report_roundtrip_and_tamper(tmp_path, bench_files, capsys):
    model, corpus = bench_files
    _, out = run_report(tmp_path, model, corpus, "--mode", "logitspec")
    assert main(["check-report", str(out)]) == 0
    report = json.loads(out.read_text())
    report["modes"]["logitspec"]["tokens"] += 1
    out.write_text(json.dumps(report))
    assert main(["check-report", str(out)]) == 1


def test_check_report_tampered_phase_counters(tmp_path, bench_files, capsys):
    model, corpus = bench_files
    _, out = run_report(tmp_path, model, corpus, "--mode", "logitspec")
    report = json.loads(out.read_text())
    report["modes"]["logitspec"]["phase_counters"]["forward"] += 1
    out.write_text(json.dumps(report))
    assert main(["check-report", str(out)]) == 1
    assert "logitspec.phase_counters" in capsys.readouterr().err


def test_check_report_truncated_rank_cdf(tmp_path, bench_files, capsys):
    model, corpus = bench_files
    _, out = run_report(tmp_path, model, corpus, "--mode", "retrieval_only,autoregressive")
    assert main(["check-report", str(out)]) == 0
    report = json.loads(out.read_text())
    modes = report["modes"]
    modes["retrieval_only"]["rank_cdf"] = modes["retrieval_only"]["rank_cdf"][:2]
    modes["autoregressive"]["rank_cdf"] = []
    out.write_text(json.dumps(report))
    assert main(["check-report", str(out)]) == 1
    err = capsys.readouterr().err
    assert "retrieval_only.rank_cdf" in err
    assert "autoregressive.rank_cdf" in err


@pytest.mark.parametrize(
    "extra", [(), ("--dump-tree", "--json-out", "report.json")], ids=["report", "dump-tree"]
)
def test_run_into_closed_pipe_exits_141(tmp_path, bench_files, extra):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails; the shell convention for that is 128 + SIGPIPE
    model, corpus = bench_files
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(logitspec.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "logitspec.cli", "run", "--model", str(model),
             "--corpus", str(corpus), "--max-new-tokens", "8", *extra],
            stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr


def test_run_parse_failure_exit_2(tmp_path):
    bad_model = tmp_path / "bad.txt"
    bad_model.write_text("vocab_size nonsense\n")
    corpus = tmp_path / "c.txt"
    corpus.write_text("1 2 3\n")
    assert main(["run", "--model", str(bad_model), "--corpus", str(corpus)]) == 2
    assert main(["run", "--model", str(tmp_path / "missing"), "--corpus", str(corpus)]) == 2


@pytest.mark.parametrize(
    "line", ["1 2 -> -1:5", "1 -> 9:1", "2 3 -> 4:-3", "1 2 3 -> 4:1", "1 x -> 2:1", "1 -> 2:1.5"]
)
def test_run_invalid_model_counts_exit_2(tmp_path, capsys, line):
    model = tmp_path / "model.txt"
    model.write_text(f"vocab_size 8\neos 7\norder 2\ncounts\n{line}\n")
    corpus = tmp_path / "c.txt"
    corpus.write_text("1 2 3\n")
    assert main(["run", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {model}:5: ")


@pytest.mark.parametrize(
    "text, where",
    [
        ("vocab_size 8\neos 7\nalpah 0.5\ncounts\n", ":3: unknown header key 'alpah'"),
        ("vocab_size 8\neos 7\ncounts\n1 -> 2:1\n1 -> 3:4\n", ":5: counts context 1 repeated"),
    ],
    ids=["unknown-header-key", "repeated-context"],
)
def test_run_model_file_typo_or_repeat_exit_2(tmp_path, capsys, text, where):
    model = tmp_path / "model.txt"
    model.write_text(text)
    corpus = tmp_path / "c.txt"
    corpus.write_text("1 2 3\n")
    assert main(["run", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {model}{where}")


@pytest.mark.parametrize(
    "header, where",
    [
        ("vocab_size 64.0\neos 7\n", ":1: invalid literal"),
        ("vocab_size 8\neos 7\nalpha nan\n", ": alpha must be finite"),
        ("vocab_size 8\neos 7\nalpha inf\n", ": alpha must be finite"),
    ],
    ids=["vocab_size-not-int", "alpha-nan", "alpha-inf"],
)
def test_run_invalid_model_header_exit_2(tmp_path, capsys, header, where):
    model = tmp_path / "model.txt"
    model.write_text(f"{header}counts\n1 -> 2:1\n")
    corpus = tmp_path / "c.txt"
    corpus.write_text("1 2 3\n")
    for temperature in ("0", "1"):
        assert main(["run", "--model", str(model), "--corpus", str(corpus),
                     "--temperature", temperature]) == 2
        assert capsys.readouterr().err.startswith(f"error: {model}{where}")


@pytest.mark.parametrize(
    "command",
    [
        ["gen-corpus", "--vocab", "0"],
        ["gen-corpus", "--count", "-1"],
        ["gen-corpus", "--length", "0"],
        ["gen-corpus", "--repetitiveness", "2"],
        ["gen-model", "--vocab", "1"],
        ["gen-model", "--order", "0"],
        ["gen-model", "--alpha", "0"],
        ["gen-model", "--alpha", "nan"],
        ["gen-model", "--alpha", "inf"],
        ["gen-model", "--vocab", "8"],  # the corpus holds tokens >= 8
    ],
    ids=lambda command: " ".join(command),
)
def test_gen_bad_input_exit_2(tmp_path, bench_files, capsys, command):
    _, corpus = bench_files
    out = tmp_path / "out.txt"
    extra = ["--corpus", str(corpus)] if command[0] == "gen-model" else []
    capsys.readouterr()
    assert main([*command, "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_out_of_vocab_prompt_exit_2(tmp_path, bench_files):
    model, _ = bench_files
    corpus = tmp_path / "big.txt"
    corpus.write_text("1 2 9999\n")
    assert main(["run", "--model", str(model), "--corpus", str(corpus)]) == 2


def test_run_unknown_mode_exit_2(tmp_path, bench_files):
    model, corpus = bench_files
    assert main(["run", "--model", str(model), "--corpus", str(corpus),
                 "--mode", "bogus"]) == 2


@pytest.mark.parametrize(
    "option",
    [
        ("--capacity", "0"),
        ("--m-start", "0"),
        ("--top-k", "-1"),
        ("--max-new-tokens", "0"),
        ("--temperature", "-1"),
        ("--temperature", "nan"),
        ("--temperature", "inf"),
        ("--last-logit-k", "-3"),
    ],
    ids=lambda option: " ".join(option),
)
def test_run_out_of_range_option_exit_2(tmp_path, bench_files, capsys, option):
    # exit 1 belongs to check-report; a bad option is bad input
    model, corpus = bench_files
    code, out = run_report(tmp_path, model, corpus, "--mode", "logitspec", *option)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_dump_tree_format(tmp_path, bench_files, capsys):
    model, corpus = bench_files
    code, _ = run_report(tmp_path, model, corpus, "--mode", "logitspec", "--dump-tree")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    past_len, seq_len = map(int, lines[0].split())
    prompts = load_corpus(corpus)
    assert past_len == len(prompts.sequences[0])
    assert len(lines[1].split()) == seq_len
    assert len(lines[2].split()) == seq_len
    mask_rows = lines[3 : 3 + seq_len]
    assert all(set(row) <= {"0", "1"} for row in mask_rows)
    assert len(mask_rows[0]) == past_len + seq_len


@pytest.mark.parametrize("modes", ["logitspec", "logitspec,autoregressive"])
def test_dump_tree_same_with_compare(tmp_path, bench_files, capsys, modes):
    # the --compare baseline runs first, but the dump is the first
    # listed mode's tree
    model, corpus = bench_files
    dumps = []
    for extra in ((), ("--compare",)):
        code, _ = run_report(tmp_path, model, corpus, "--mode", modes, "--dump-tree", *extra)
        assert code == 0
        dumps.append(capsys.readouterr().out.splitlines())
    assert dumps[0] == dumps[1]
    assert int(dumps[0][0].split()[1]) > 1


def test_dump_tree_autoregressive_first_with_compare(tmp_path, bench_files, capsys):
    # listed first, autoregressive reuses the baseline run, which dumps once
    model, corpus = bench_files
    code, _ = run_report(
        tmp_path, model, corpus, "--mode", "autoregressive,logitspec", "--dump-tree", "--compare"
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[1] == "1"
    assert sum(1 for line in lines if len(line.split()) == 2) == 1


def test_run_empty_corpus_exit_2(tmp_path, bench_files, capsys):
    model, _ = bench_files
    corpus = tmp_path / "empty.txt"
    corpus.write_text("\n")
    code, out = run_report(tmp_path, model, corpus, "--mode", "logitspec")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_no_mode_exit_2(tmp_path, bench_files, capsys):
    model, corpus = bench_files
    code, out = run_report(tmp_path, model, corpus, "--mode", ",")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "report",
    [
        {},
        {"modes": {}},
        {"modes": {"logitspec": {"per_prompt": []}}},
        {"modes": {"logitspec": {"per_prompt": [{"steps": 0, "tokens": 0,
                                                 "retrieval_hit_steps": 0}]}}},
    ],
    ids=["no-modes-key", "empty-modes", "no-prompts", "zero-steps"],
)
def test_check_report_malformed_exit_2(tmp_path, capsys, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["check-report", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_dump_index_output(tmp_path, bench_files, capsys):
    model, corpus = bench_files
    code, _ = run_report(tmp_path, model, corpus, "--mode", "logitspec", "--dump-index")
    assert code == 0
    out = capsys.readouterr().out
    assert " | " in out.splitlines()[0]
