"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]
        [--label NAME] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json.

Runs are sequential.  For each metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the interquartile range as a share of the
median, which is how BENCHMARK.json's bounds were set.  The raw results,
with each run's environment and round lines, are kept in
perfbench/out/spread/<label>.json so that two sets can be compared later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(runs: list[dict]) -> dict:
    table = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        table[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
        }
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--label", default=None)
    args = parser.parse_args()
    label = args.label or f"{args.workload}-trace{args.trace}"
    if args.seconds is None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        args.seconds = str(spec["run_seconds"])

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "result": result, "log": lines[:-1]})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    table = summarize(runs)
    for name, row in table.items():
        print(f"{name:52s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
              f"q3 {row['q3']:.6g}  iqr/median {row['iqr_share']:.2%}")
    out = HERE / "out" / "spread" / f"{label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
