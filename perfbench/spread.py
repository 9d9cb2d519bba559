"""Run one workload several times, one seed each, and print each metric's spread.

    python3 perfbench/spread.py --workload renewal-curves --runs 10 --first-seed 1

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, next to the metric's bound from BENCHMARK.json; it also
prints the failed share of each run.  The run length defaults to
BENCHMARK.json's ``run_seconds``.  Raw results go to
``perfbench/_out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for k in range(args.runs):
        seed = args.first_seed + k
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        runs.append(res)
        values = ", ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items() if bounds.get(n) is not None)
        print(f"seed {seed}: correct={res['correct']} failed {res['failed']}/{res['attempted']} {values}", flush=True)

    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    with open(os.path.join(HERE, "_out", f"spread-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump(runs, f, indent=1)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed shares: {shares}")
    print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
