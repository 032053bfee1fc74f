"""Run the benchmark once per seed and summarise each end-to-end
metric's spread.

    python3 perfbench/spread.py --workload repeat-greedy --seeds 0-9

For each metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance
between the quartiles as a share of the median, beside the metric's bound
from BENCHMARK.json. --out writes the summary as JSON. Runs are made one
after another, each a child process that is waited for."""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(reports: list[dict]) -> dict[str, dict]:
    out = {}
    for name in reports[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in reports]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": reports[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values)),
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    reports = []
    for seed in _seeds(args.seeds):
        report = run_once(args.workload, seed, seconds)
        if not report["correct"]:
            print(f"seed {seed}: {report['failed']} of {report['attempted']} ops failed")
        reports.append(report)
    summary = summarise(reports)
    for name, s in summary.items():
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            mark = f"  bound {bound:.2f}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
        print(
            f"{name:48s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
            f"spread {s['spread']:.4f}{mark}"
        )
    if args.out:
        result = {
            "workload": args.workload,
            "seeds": _seeds(args.seeds),
            "seconds": seconds,
            "failed": sum(r["failed"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "metrics": summary,
        }
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
