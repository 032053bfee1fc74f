"""Benchmark harness CLI.

Subcommands:
  run          decode a corpus across modes, emit a JSON report
  gen-corpus   write a deterministic synthetic token corpus
  gen-model    train a Markov model on a corpus and write the model file
  check-report verify that a report's aggregates match its per-prompt rows

Exit codes for run, gen-corpus and gen-model: 0 success, 2 bad input
(unreadable or invalid file, empty corpus, token outside the vocab, an
unknown, missing or repeated mode, --dump-index under a first mode that
does not retrieve, or out-of-range option), 3 losslessness mismatch
under run --compare.
check-report: 0 consistent, 1 mismatch, 2 unreadable or malformed report.
Any command: 141 when stdout closes early (e.g. piped into head).

run checks every input and opens --json-out (truncating it) before its
first decode, so bad input costs no decode; it decodes each distinct
mode once, the autoregressive --compare baseline included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from itertools import accumulate

from . import __version__
from .corpus import gen_corpus, load_corpus, save_corpus
from .drafting import DraftConfig
from .engine import PHASES, RETRIEVAL_MODES, DecodeConfig, DecodeResult, decode
from .models import MarkovTableModel, VocabSpec, load_model_file, save_model_file
from .ngram_index import NGramIndex
from .tree import DraftTree, format_tree

# spread per-prompt seeds apart so decode rngs never overlap
PROMPT_SEED_STRIDE = 1_000_003

# rank buckets for the next-next-token statistic, name -> exclusive bound:
# a step's bucket is the first whose bound exceeds the realized token's
# 0-based rank among all V last-logit tokens, pending token included (a
# candidate's rank skips it); "rest" lies past the default capacity, 60
RANK_BUCKETS = {
    "1": 1, "2": 2, "4": 4, "8": 8, "16": 16, "32": 32, "60": 60, "rest": math.inf,
}


def prompt_seed(base_seed: int, prompt_index: int) -> int:
    return base_seed * PROMPT_SEED_STRIDE + prompt_index


def _bad_input(message: str) -> int:
    """Report bad input on stderr and give its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logitspec-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    # every run knob defaults to DecodeConfig's (and its DraftConfig's) value
    defaults = DecodeConfig()
    run = sub.add_parser("run", help="decode a corpus and report metrics")
    run.add_argument("--model", required=True)
    run.add_argument("--corpus", required=True)
    run.add_argument("--mode", default=defaults.mode, help="comma-separated list of modes")
    run.add_argument("--max-new-tokens", type=int, default=defaults.max_new_tokens)
    run.add_argument("--temperature", type=float, default=defaults.temperature)
    run.add_argument("--seed", type=int, default=defaults.seed)
    run.add_argument("--top-k", type=int, default=defaults.draft.top_k)
    run.add_argument(
        "--capacity",
        type=int,
        default=defaults.draft.capacity,
        help="most draft rows per step",
    )
    run.add_argument("--m-start", type=int, default=defaults.draft.m_start)
    run.add_argument("--json-out", default=None, help="report path (default: stdout)")
    run.add_argument(
        "--compare",
        action="store_true",
        help="assert each mode's tokens equal autoregressive decoding's (any temperature)",
    )
    run.add_argument(
        "--dump-tree",
        action="store_true",
        help="print the first draft tree of the first prompt and mode",
    )
    run.add_argument(
        "--dump-index",
        action="store_true",
        help="print the final retrieval index of the first prompt and mode "
        f"(the first mode must be one of {', '.join(RETRIEVAL_MODES)})",
    )

    gen = sub.add_parser("gen-corpus", help="write a synthetic token corpus")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--vocab", type=int, default=64)
    gen.add_argument("--count", type=int, default=40)
    gen.add_argument("--length", type=int, default=32)
    gen.add_argument("--repetitiveness", type=float, default=0.5)

    genm = sub.add_parser("gen-model", help="train a Markov model on a corpus")
    genm.add_argument("--out", required=True)
    genm.add_argument("--corpus", required=True)
    genm.add_argument("--vocab", type=int, default=64)
    genm.add_argument("--eos", type=int, default=None, help="default: vocab-1")
    # unset, these take MarkovTableModel's defaults
    genm.add_argument("--order", type=int, default=argparse.SUPPRESS)
    genm.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    genm.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    check = sub.add_parser("check-report", help="verify report aggregates")
    check.add_argument("report")

    return parser


def prompt_row(prompt_index: int, result: DecodeResult) -> dict:
    """A decode's per-prompt report row: its totals, its MAT (tokens per
    step), its steps counted per `RANK_BUCKETS` bucket and its summed
    `StepRecord.phase_counters`."""
    rank_counts = dict.fromkeys(RANK_BUCKETS, 0)
    for rec in result.step_records:
        bucket = next(b for b, bound in RANK_BUCKETS.items() if rec.next_next_rank < bound)
        rank_counts[bucket] += 1
    metrics = result.metrics
    counters = [rec.phase_counters for rec in result.step_records]
    return {
        "prompt_index": prompt_index,
        **asdict(metrics),
        "mat": metrics.tokens / metrics.steps,
        "rank_counts": rank_counts,
        "phase_counters": {p: sum(c[p] for c in counters) for p in PHASES},
    }


def _summary(rows: list[dict]) -> dict:
    """A mode's aggregates, derived from its per-prompt rows alone.

    rank_cdf's entry for bucket b is the share of steps ranked below b's
    bound."""
    steps = sum(r["steps"] for r in rows)
    tokens = sum(r["tokens"] for r in rows)
    cdf = accumulate(sum(r["rank_counts"][b] for r in rows) for b in RANK_BUCKETS)
    return {
        "prompts": len(rows),
        "steps": steps,
        "tokens": tokens,
        "mat": tokens / steps,
        "retrieval_success_rate": sum(r["retrieval_hit_steps"] for r in rows) / steps,
        "rank_cdf": [[b, count / steps] for b, count in zip(RANK_BUCKETS, cdf)],
        "phase_counters": {p: sum(r["phase_counters"][p] for r in rows) for p in PHASES},
    }


def _mode_report(results: list[DecodeResult]) -> dict:
    rows = [prompt_row(i, r) for i, r in enumerate(results)]
    return {
        **_summary(rows),
        "losslessness": {"checked": False, "mismatches": 0},
        "per_prompt": rows,
    }


def _first_divergence(a: list[int], b: list[int]) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        model = load_model_file(args.model)
        corpus = load_corpus(args.corpus)
    except (OSError, ValueError) as exc:
        return _bad_input(str(exc))
    if not corpus.sequences:
        return _bad_input(f"corpus {args.corpus} has no prompts")
    modes = [m.strip() for m in args.mode.split(",") if m.strip()]
    if not modes:
        return _bad_input(f"--mode {args.mode!r} names no mode")
    for i, mode in enumerate(modes):
        if mode in modes[:i]:
            return _bad_input(f"mode {mode!r} listed twice")
    for i, seq in enumerate(corpus.sequences):
        for tok in seq:
            if not 0 <= tok < model.vocab.size:
                return _bad_input(f"prompt {i} token {tok} out of vocab")

    # one config per decoded mode; the --compare baseline decodes first
    try:
        draft = DraftConfig(top_k=args.top_k, capacity=args.capacity, m_start=args.m_start)
        configs = {
            mode: DecodeConfig(
                mode=mode,
                max_new_tokens=args.max_new_tokens,
                temperature=args.temperature,
                seed=args.seed,
                draft=draft,
            )
            for mode in dict.fromkeys((["autoregressive"] if args.compare else []) + modes)
        }
    except ValueError as exc:
        return _bad_input(str(exc))
    if args.dump_index and modes[0] not in RETRIEVAL_MODES:
        return _bad_input(f"--dump-index needs a first mode in {RETRIEVAL_MODES}, got {modes[0]!r}")
    # the report's config: the inputs plus the decode settings, flat
    config = asdict(configs[modes[0]])
    config.update(config.pop("draft"), model=args.model, corpus=args.corpus, modes=modes)
    del config["mode"]
    report = {"tool_version": __version__, "config": config, "modes": {}}

    # open the report before decoding, so an unwritable path costs no work
    try:
        out = open(args.json_out, "w", encoding="utf-8") if args.json_out else None
    except OSError as exc:
        return _bad_input(str(exc))
    try:
        # each distinct mode decodes once; the first listed mode's run
        # prints the dumps
        decoded: dict[str, list[DecodeResult]] = {}
        for mode, mode_cfg in configs.items():
            dump = mode == modes[0]
            decoded[mode] = []
            for i, seq in enumerate(corpus.sequences):
                cfg = replace(mode_cfg, seed=prompt_seed(args.seed, i))
                trees: list[DraftTree] = []
                observer = trees.append if args.dump_tree and dump and i == 0 else None
                decoded[mode].append(decode(model, seq, cfg, tree_observer=observer))
                if trees:
                    print(format_tree(trees[0]))
            if args.dump_index and dump:
                index = NGramIndex.build(
                    corpus.sequences[0] + decoded[mode][0].tokens, m_max=mode_cfg.draft.m_start
                )
                print(index.dump())

        exit_code = 0
        for mode in modes:
            results = decoded[mode]
            mode_report = _mode_report(results)
            if args.compare:
                mismatches = 0
                for i, (r, base) in enumerate(zip(results, decoded["autoregressive"])):
                    if r.tokens != base.tokens:
                        mismatches += 1
                        pos = _first_divergence(r.tokens, base.tokens)
                        print(
                            f"losslessness mismatch: mode={mode} prompt={i} "
                            f"first divergence at position {pos}",
                            file=sys.stderr,
                        )
                mode_report["losslessness"] = {"checked": True, "mismatches": mismatches}
                if mismatches:
                    exit_code = 3
            report["modes"][mode] = mode_report

        text = json.dumps(report, indent=2, sort_keys=True)
        if out is None:
            print(text)
            return exit_code
        try:
            with out:
                out.write(text + "\n")
        except OSError as exc:
            return _bad_input(str(exc))
        return exit_code
    finally:
        if out is not None:  # closed already unless something above raised
            out.close()


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    try:
        corpus = gen_corpus(
            seed=args.seed,
            vocab_size=args.vocab,
            count=args.count,
            length=args.length,
            repetitiveness=args.repetitiveness,
        )
        save_corpus(args.out, corpus)
    except (OSError, ValueError) as exc:
        return _bad_input(str(exc))
    return 0


def _cmd_gen_model(args: argparse.Namespace) -> int:
    eos = args.eos if args.eos is not None else args.vocab - 1
    given = {k: v for k, v in vars(args).items() if k in ("order", "alpha", "seed")}
    try:
        corpus = load_corpus(args.corpus)
        model = MarkovTableModel(VocabSpec(args.vocab, eos), **given)
        model.train(corpus.sequences)
        save_model_file(args.out, model)
    except (OSError, ValueError) as exc:
        return _bad_input(str(exc))
    return 0


def _cmd_check_report(args: argparse.Namespace) -> int:
    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
        failures = _report_failures(report)
    except (OSError, ValueError) as exc:
        return _bad_input(str(exc))
    except (KeyError, TypeError, AttributeError) as exc:
        return _bad_input(f"malformed report: {exc!r}")
    if failures:
        for msg in failures:
            print(f"check failed: {msg}", file=sys.stderr)
        return 1
    print("report aggregates consistent")
    return 0


def _report_failures(report: dict) -> list[str]:
    """Each aggregate of the report that its per-prompt rows contradict.

    Raises ValueError when the report has no modes or a mode has no
    steps; `run` never writes either.
    """
    if not report["modes"]:
        raise ValueError("report has no modes")
    failures = []
    for mode, data in report["modes"].items():
        rows = data["per_prompt"]
        if sum(r["steps"] for r in rows) == 0:
            raise ValueError(f"mode {mode!r} has no steps")
        for key, expected in _summary(rows).items():
            if data[key] != expected:
                failures.append(f"{mode}.{key}: report {data[key]} != recomputed {expected}")
    return failures


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "gen-corpus": _cmd_gen_corpus,
        "gen-model": _cmd_gen_model,
        "check-report": _cmd_check_report,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send what is still
        # buffered to devnull so the flush at exit cannot raise again,
        # and exit like a process killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
