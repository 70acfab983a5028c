"""Run-to-run spread of the benchmark, as the acceptance check computes it.

    python3 ubench/spread.py --workload uq1-sample --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (one after another, from the repository root)
and prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of that median,
next to the metric's bound in ``BENCHMARK.json``. Also prints each run's
wall time, which the run budget has to cover.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr[-3000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: {wall:.1f} s wall, correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            flush=True,
        )
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':40s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:12.5g} {spread:10.3f} {bounds.get(name) or '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
