"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload scan --seeds 1-10

Runs `run.py --trace 0` once per seed for BENCHMARK.json's run_seconds, one
run at a time, and prints for each metric the median and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the bound in BENCHMARK.json.  Also reports whether every run
was correct and how many jobs failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:12s} median {median:.4g}  spread {(q3 - q1) / median:.3f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
