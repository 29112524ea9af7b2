"""Spread of the benchmark's end-to-end metrics over seeds.

    python3 bench/steadiness.py --workload tall --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one after another, for the
``run_seconds`` of ``BENCHMARK.json``, and prints for each metric the median
and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound in ``BENCHMARK.json`` and a third of it. Every seed's result line
is appended to ``bench/out/steadiness-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    log = BENCH / "out" / f"steadiness-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        limit = f"bound {bound:.2f} (third {bound / 3:.3f})" if bound else ""
        print(f"{name:40s} median {median:12.6g}  iqr/median {spread:.4f}  {limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
