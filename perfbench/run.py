"""logitspec benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload repeat-greedy --seed 0 --seconds 36 --trace 0

Prints one line per metric (name, value, unit), the ops attempted and
failed per mode, and as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
The traced run also writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_library() -> None:
    """Put the checkout's own source tree first on the import path and
    make sure that is where logitspec comes from."""
    if not (SRC / "logitspec" / "__init__.py").is_file():
        sys.exit(f"error: no logitspec source tree at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import logitspec

    if Path(logitspec.__file__).resolve().parent != SRC / "logitspec":
        sys.exit(f"error: logitspec imported from {logitspec.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_library()
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run = bench.measure(workload, args.seed, args.seconds, trace=bool(args.trace))

    e2e = bench.end_to_end(run)
    layers = bench.per_layer(run) if args.trace else {}
    samples = bench.step_samples(run)
    print(
        f"# workload {workload.name} seed {args.seed} corpora {len(run.corpus_seeds)} "
        f"rounds {run.rounds} trace {args.trace}"
    )
    for name, (value, unit) in {**e2e, **layers}.items():
        extra = ""
        if name.startswith("step_ms.p99."):
            gaps, passes = samples[name.rsplit(".", 1)[1]]
            extra = f"  (median of {passes} per-pass p99s over {gaps} steps)"
        print(f"{name} {value:.6g} {unit}{extra}")
    for j, cseed in enumerate(run.corpus_seeds):
        mats = " ".join(
            f"{mode} {p.tokens / p.decode_steps:.3f}"
            for mode in bench.SPECULATIVE
            for p in run.passes[(mode, j)][:1]
        )
        print(f"# corpus seed {cseed}: mat {mats}")
    checker = run.checker
    for mode in checker.attempted:
        print(f"ops.{mode} attempted {checker.attempted[mode]} failed {checker.failed[mode]}")
    for msg in checker.messages[:20]:
        print(f"FAILED {msg}")
    if run.tracer is not None:
        out = HERE / "out" / f"spans.{workload.name}.seed{args.seed}.tsv.gz"
        run.tracer.write(out)
        print(f"# {len(run.tracer.spans)} spans written to {out.relative_to(ROOT)}")

    metrics = layers if args.trace else e2e
    report = {
        "correct": checker.total_failed == 0,
        "attempted": checker.total_attempted,
        "failed": checker.total_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
