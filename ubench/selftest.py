"""Self-test of the benchmark.

    python3 ubench/selftest.py

1. The DuckDB checks accept a right answer and reject wrong ones (a row
   outside the union, a short sample, wrong atoms, wrong estimated sizes),
   on hand-made relations.
2. Each workload's schedule runs once for a second, untraced and traced: the result line carries exactly the metrics of ``BENCHMARK.json``
   with their units, every call was checked, and every trace target exists.
3. Without the program's sources next to it, the benchmark exits non-zero
   and prints no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pandas as pd

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_truth() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.histogram_union import build_estimate
    from repro.core.join_spec import Relation, chain
    from truth import Truth

    r = pd.DataFrame({"a": [1, 2, 3], "x": ["p", "q", "r"]})
    s0 = pd.DataFrame({"b": [1, 2], "y": [10.5, 20.5]})
    s1 = pd.DataFrame({"b": [2, 3], "y": [20.5, 30.5]})
    rel_r = Relation("r", r)
    joins = [
        chain("j0", [rel_r, Relation("s0", s0)], [("a", "b")]),
        chain("j1", [rel_r, Relation("s1", s1)], [("a", "b")]),
    ]
    truth = Truth(joins, {"r": r, "s0": s0, "s1": s1})
    try:
        want = {frozenset({"j0"}): 1, frozenset({"j0", "j1"}): 1, frozenset({"j1"}): 1}
        assert truth.atoms == want, truth.atoms
        assert truth.ratios == {"j0": 2 / 3, "j1": 2 / 3}, truth.ratios
        good = pd.DataFrame({"a": [1, 3, 2], "x": ["p", "r", "q"], "b": [1, 3, 2], "y": [10.5, 30.5, 20.5]})
        assert truth.check_sample(good, 3) is None
        assert truth.check_sample(good, 4) is not None  # short sample
        outside = good.copy()
        outside.loc[0, "y"] = 99.0
        assert "1 of 3 rows" in truth.check_sample(outside, 3)
        assert truth.check_atoms(want) is None
        assert truth.check_atoms({**want, frozenset({"j1"}): 2}) is not None
        assert truth.ratio_error({"j0": 2 / 3, "j1": 1 / 3}) == (1 / 3) / 2

        def est(method, s0, s1):
            return build_estimate(method, ["j0", "j1"], {"j0": s0, "j1": s1}, {frozenset({"j0", "j1"}): 1.0})

        assert truth.check_estimate(est("hist-ew", 2.0, 2.0)) is None
        assert truth.check_estimate(est("hist-ew", 2.0, 3.0)) is not None  # EW is exact
        assert truth.check_estimate(est("hist-eo", 5.0, 2.0)) is None
        assert truth.check_estimate(est("hist-eo", 1.0, 2.0)) is not None  # below the truth
        assert truth.check_estimate(est("rw", 2.5, 1.7)) is None
        assert truth.check_estimate(est("rw", float("nan"), 1.7)) is not None
        assert truth.check_estimate(est("rw", 0.0, 1.7)) is not None
    finally:
        truth.close()
    print("truth checks: ok")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return subprocess.run(
        spec["command"] + list(args), cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = run(ROOT, *args)
            assert proc.returncode == 0, proc.stderr[-3000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 3, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in metrics}, got
            record = json.loads(
                (ROOT / ".ubench_out" / f"{w['name']}-seed7-trace{trace}.json").read_text()
            )
            n_calls = sum(o["calls"] for o in record["ops"].values())
            assert record["checked_calls"] >= n_calls + 3, record["checked_calls"]
            assert record["trace_targets_missing"] == [], record["trace_targets_missing"]
            print(f"{w['name']} trace={trace}: ok ({result['attempted']} calls)")


def check_without_program() -> None:
    bare = ROOT / ".ubench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "--workload", "uq1-sample", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare)
    print("without the program: exits", proc.returncode)


if __name__ == "__main__":
    check_truth()
    check_without_program()
    check_runs()
    print("selftest: ok")
