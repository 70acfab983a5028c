"""Closed-loop benchmark of the union-of-joins sampler on local Spark.

    python3 ubench/run.py --workload uq1-sample --seed 1 --seconds 16 --trace 0

Runs from the repository root. It builds the workload from ``--seed`` (data
and call seeds), sets it up once, warms it up with two untimed calls of each
timed op (both count as set-up), then calls the workload's three ops in turn,
back to back, for ``--seconds`` seconds. Every result is checked against DuckDB
(see ``truth.py``). The last line of standard output is the result JSON:
with ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics, read from spans around the public
functions (``spans.py``). A full run record (versions, seeds, per-op call
counts, the whole layer table) is written under ``.ubench_out/``.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

from spans import OP_COUNTS, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".ubench_out"

CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150  # the run must exit within 180 s, Spark stopped
SHUFFLE_PARTITIONS = CORES  # data fits a few partitions; 64 only adds tasks
WARMUP_PASSES = 2  # after one call of each op, the next calls still ran 10-30% slower
# Spark keeps 100 compiled plans by default; the ops of one cycle compile more,
# so each op recompiled its plans once per cycle and its first call ran ~1.5x slower
CODEGEN_CACHE = 2000

SETUP_LAYERS = ("workloads.build", "walker.plan", "membership.build")
# Layers that run on every workload: all their quantities go into the traced
# result. Of the others (join_sampler, union_sampler, online_union, splitting,
# exact) only counts and shares do, as their times would read 0 on every run
# of a workload that does not call them; the run record has all quantities.
EVERY_WORKLOAD = {
    *SETUP_LAYERS,
    "walker.run_walks",
    "membership.probe",
    "stats",
    "histogram_union.auto_histogram_warmup",
    "randomwalk_union.randomwalk_warmup",
    "randomwalk_union.estimate_from_state",
}


class DeadlineExceeded(Exception):
    pass


@dataclass
class Call:
    op: object
    phase: str
    dt: float
    jobs: int
    cpu: float = math.nan
    result: object = None
    error: str | None = None
    traced: bool = False


def start_spark():
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # spark-submit's own JVM
    java_opts = " ".join(
        [
            f"-Djava.io.tmpdir={tmp}",
            f"-Xms{DRIVER_MEMORY}",  # a fixed heap: its growth varied from run to run
            "-XX:-UsePerfData",  # no /tmp/hsperfdata files
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
        ]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        shlex.quote(a)
        for a in [
            "--master", f"local[{CORES}]",
            "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", java_opts,
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", f"spark.local.dir={tmp}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("ubench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.codegen.cache.maxEntries", str(CODEGEN_CACHE))
        .config("spark.sql.warehouse.dir", str(OUT / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the gateway JVM (and its workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        proc = gateway.proc
        gateway.shutdown()
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


def cpu_seconds() -> float:
    """CPU time (user + system) used so far by this process and every process
    under it: the Spark JVM and its Python workers, live or exited."""
    procs = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:  # the process ended
                continue
            # fields[1] is the parent; [11:15] utime, stime, cutime, cstime
            procs[int(d)] = (int(fields[1]), sum(map(int, fields[11:15])))
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in procs.items():
        children.setdefault(ppid, []).append(pid)
    ticks, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        ticks += procs.get(pid, (0, 0))[1]
        todo += children.get(pid, [])
    return ticks / os.sysconf("SC_CLK_TCK")


def drain(sc) -> None:
    """Wait until job events have reached the status tracker."""
    sc._jsc.sc().listenerBus().waitUntilEmpty(30_000)


class Runner:
    def __init__(self, sc, tracer):
        self.sc = sc
        self.tracer = tracer
        self.calls: list[Call] = []
        self._n = 0

    def call(self, op, seed: int, phase: str) -> Call:
        """Run one public call in its own job group, under a timeout.

        A call that raises, times out or (later) fails its check is a failed
        op; it is never retried."""
        self._n += 1
        group = f"ubench-op-{self._n}"
        gc.collect()  # garbage of the previous call is not this call's cost
        box: dict = {}

        def target():
            self.sc.setJobGroup(group, op.name)
            try:
                with self.tracer.span(op.layer, group=group) as sp:
                    box["span"] = sp
                    box["result"] = op.call(seed)
                    if sp is not None and op.layer in OP_COUNTS:
                        OP_COUNTS[op.layer](sp, box["result"])
            except Exception as e:  # noqa: BLE001 — reported as a failed op
                box["error"] = f"{type(e).__name__}: {e}"[:500]

        th = threading.Thread(target=target, name=group, daemon=True)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        th.start()
        th.join(OP_TIMEOUT_S)
        dt = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if th.is_alive():
            self.sc.cancelJobGroup(group)
            c = Call(op, phase, dt, 0, cpu, error=f"timed out after {OP_TIMEOUT_S:.0f} s", traced=self.tracer.enabled)
        else:
            drain(self.sc)
            jobs = len(self.sc.statusTracker().getJobIdsForGroup(group))
            if box.get("span") is not None:  # traced: child spans ran their own groups
                self.tracer.resolve()
                jobs = box["span"].jobs
            c = Call(op, phase, dt, jobs, cpu, box.get("result"), box.get("error"), self.tracer.enabled)
        self.calls.append(c)
        return c


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 calls beyond
    it, or None when there are too few calls for one above the median."""
    n = len(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            qs = statistics.quantiles(values, n=1000, method="inclusive")
            return pct, qs[round(pct * 10) - 1]
    return None


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per-layer quantities: set-up layers over the set-up, every other layer
    summed over the warm-up and the traced cycles and divided by the number
    of public calls made there."""
    from schedule import ONLINE, SAMPLE

    setup = [s for s in spans if s.phase == "setup"]
    rest = [s for s in spans if s.phase != "setup"]
    n_public = max(1, sum(1 for s in rest if s.parent is None))

    def of(layer, pool):
        return [s for s in pool if s.layer == layer]

    def under(sp, layer):
        p = sp.parent
        while p is not None and p.layer != layer:
            p = p.parent
        return p is not None

    def ratio(a, b):
        return a / b if b else 0.0

    t: dict[str, dict[str, float]] = {}
    for layer in SETUP_LAYERS:
        ss = of(layer, setup)
        t[layer] = {"s": sum(s.dur for s in ss), "jobs": sum(s.jobs for s in ss)}

    walks = of("walker.run_walks", rest)
    n_walks = sum(s.counts.get("walks", 0) for s in walks)
    t["walker.run_walks"] = {
        "calls": len(walks) / n_public,
        "s": sum(s.dur for s in walks) / n_public,
        "jobs": sum(s.jobs for s in walks) / n_public,
        "walks": n_walks / n_public,
        "dead_frac": ratio(sum(s.counts.get("dead", 0) for s in walks), n_walks),
        "s_per_job": ratio(sum(s.dur for s in walks), sum(s.jobs for s in walks)),
    }
    probes = of("membership.probe", rest)
    t["membership.probe"] = {
        "calls": len(probes) / n_public,
        "s": sum(s.dur for s in probes) / n_public,
        "rows": sum(s.counts.get("rows", 0) for s in probes) / n_public,
        "jobs": sum(s.jobs for s in probes) / n_public,
    }
    stats = of("stats", rest)
    t["stats"] = {
        "calls": len(stats) / n_public,
        "s": sum(s.dur for s in stats) / n_public,
        "jobs": sum(s.jobs for s in stats) / n_public,
    }
    for layer in (
        "histogram_union.auto_histogram_warmup",
        "splitting.split_view_sets",
        "exact.full_join_union",
        "randomwalk_union.randomwalk_warmup",
    ):
        ss = of(layer, rest)
        t[layer] = {
            "s": sum(s.dur for s in ss) / n_public,
            "jobs": sum(s.jobs for s in ss) / n_public,
            "self_s": sum(s.self_s for s in ss) / n_public,
        }
    t["randomwalk_union.randomwalk_warmup"]["walks"] = (
        sum(s.counts.get("walks", 0) for s in walks if under(s, "randomwalk_union.randomwalk_warmup"))
        / n_public
    )
    efs = of("randomwalk_union.estimate_from_state", rest)
    t["randomwalk_union.estimate_from_state"] = {
        "calls": len(efs) / n_public,
        "s": sum(s.dur for s in efs) / n_public,
    }
    sj = of("join_sampler.sample_join", rest)
    sj_walks = sum(s.counts.get("walks", 0) for s in walks if under(s, "join_sampler.sample_join"))
    t["join_sampler.sample_join"] = {
        "calls": len(sj) / n_public,
        "s": sum(s.dur for s in sj) / n_public,
        "walks": sj_walks / n_public,
        "accept_ratio": ratio(sum(s.counts.get("rows", 0) for s in sj), sj_walks),
    }
    us = of(SAMPLE, rest)
    t[SAMPLE] = {
        "self_s": sum(s.self_s for s in us) / n_public,
        "join_calls_per_op": ratio(sum(1 for s in sj if under(s, SAMPLE)), len(us)),
        "cover_accept_ratio": ratio(
            sum(s.counts.get("samples", 0) for s in us),
            sum(s.counts.get("drawn", 0) for s in us),
        ),
    }
    on = of(ONLINE, rest)
    on_s = sum(s.dur for s in on)
    t[ONLINE] = {
        "calls": len(on) / n_public,
        "self_s": sum(s.self_s for s in on) / n_public,
        "reuse_s": sum(s.counts.get("reuse_s", 0) for s in on) / n_public,
        "regular_s": sum(s.counts.get("regular_s", 0) for s in on) / n_public,
        # the same three as shares of the online calls' time
        "self_share": ratio(sum(s.self_s for s in on), on_s),
        "reuse_share": ratio(sum(s.counts.get("reuse_s", 0) for s in on), on_s),
        "regular_share": ratio(sum(s.counts.get("regular_s", 0) for s in on), on_s),
        **{
            q: ratio(sum(s.counts.get(q, 0) for s in on), len(on))  # per online call
            for q in ("reuse_accepted", "regular_accepted", "backtracks", "backtrack_rejected")
        },
    }
    return t


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(spark, spec, args) -> tuple[dict, dict]:
    import numpy as np
    from repro.experiments.tables import prewarm
    from schedule import HIST, RW, SAMPLE, SF
    from truth import Truth

    sc = spark.sparkContext
    rng = np.random.default_rng(args.seed)
    tracer = Tracer(sc)
    undo, missing = instrument(tracer) if args.trace else (None, [])
    tracer.enabled = bool(args.trace)
    runner = Runner(sc, tracer)
    try:
        # ---- set-up: build the inputs and the program's indexes
        t0 = time.perf_counter()
        with tracer.span("workloads.build"):
            w = spec.build(spark, args.seed)
        prewarm(w.uctx)
        build_s = time.perf_counter() - t0
        if tracer.enabled:
            drain(sc)
            tracer.resolve()

        # ---- warm-up: prep calls and untimed passes over the timed ops
        tracer.phase = "warmup"
        t0 = time.perf_counter()
        prepared = {}
        for op in spec.prep(w):
            c = runner.call(op, int(rng.integers(2**31)), "prep")
            if c.error:
                raise RuntimeError(f"{op.name} failed in set-up: {c.error}")
            prepared[op.name] = c.result
        ops = spec.ops(w, prepared)
        for op in ops * WARMUP_PASSES:
            c = runner.call(op, int(rng.integers(2**31)), "warmup")
            if c.error:
                raise RuntimeError(f"{op.name} failed in warm-up: {c.error}")
        warmup_s = time.perf_counter() - t0
        setup_s = build_s + warmup_s

        # ---- timed loop: the ops in turn until --seconds have passed, after
        # at least two whole cycles (a traced run traces every other call of
        # each op, to measure the overhead)
        tracer.phase = "loop"
        cycle = [op for op in ops for _ in range(op.repeat)]
        min_calls = 2 * len(cycle)
        n_calls = dict.fromkeys(ops, 0)
        t_loop = time.perf_counter()
        for i in itertools.count(1):
            op = cycle[(i - 1) % len(cycle)]
            tracer.enabled = bool(args.trace) and n_calls[op] % 2 == 0
            n_calls[op] += 1
            c = runner.call(op, int(rng.integers(2**31)), "loop")
            if c.error and c.error.startswith("timed out"):
                break  # the session may still be busy: end the run
            if i >= min_calls and time.perf_counter() - t_loop >= args.seconds:
                break
        loop_s = time.perf_counter() - t_loop
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer.enabled = False
    finally:
        if undo is not None:
            undo()

    # ---- correctness: DuckDB over the same relations, after the measurement
    frames = {}
    for j in w.joins:
        for r in j.relations():
            if r.name not in frames:
                frames[r.name] = r.df.select(*r.cols).toPandas()
    truth = Truth(w.joins, frames, temp_dir=str(OUT / "tmp"))
    try:
        errs: dict[str, list[float]] = {"hist-eo": [], "rw": []}
        checked = 0
        for c in runner.calls:
            if c.error is None:
                c.error = c.op.check(c.result, truth)
                checked += 1
            est = c.op.estimate(c.result) if c.error is None and c.op.estimate else None
            if est is not None and est.method in errs:
                errs[est.method].append(truth.ratio_error(est.ratios))
    finally:
        truth.close()

    timed = [c for c in runner.calls if c.phase == "loop"]
    failed = [c for c in timed if c.error]
    bad_untimed = [c for c in runner.calls if c.phase != "loop" and c.error]
    per_op = {}
    for i, op in enumerate(ops, 1):
        cs = [c for c in timed if c.op is op]
        plain = [c.dt for c in cs if not c.traced]
        per_op[op.name] = {
            "slot": f"op{i}",
            "calls": len(cs),
            "dts": [round(c.dt, 4) for c in cs],
            "p50_s": statistics.median(plain) if plain else math.nan,
            # median CPU seconds of the untraced calls, JVM and workers included
            "cpu_s": statistics.median(c.cpu for c in cs if not c.traced) if plain else math.nan,
            "cpus": [round(c.cpu, 2) for c in cs],
            "tail": tail(plain),
            "jobs": sorted({c.jobs for c in cs}),
            "errors": [c.error for c in cs if c.error],
        }
    samples = sum(
        len(c.result.samples) for c in timed if c.error is None and hasattr(c.result, "samples")
    )
    sample_s = sum(c.dt for c in timed if c.op.layer == SAMPLE)

    if args.trace:
        table = layer_table(tracer.spans)
        traced = [c for c in timed if c.traced]
        untraced = [c for c in timed if not c.traced]

        def cycle_median(cs):
            return sum(statistics.median([c.dt for c in cs if c.op is op]) for op in ops)

        overhead = cycle_median(traced) / cycle_median(untraced) - 1 if untraced else math.nan
        metrics = {
            f"{layer}.{q}": (v, unit(q))
            for layer, qs in table.items()
            for q, v in qs.items()
            if layer in EVERY_WORKLOAD or unit(q) != "s"
        }
        metrics["trace.overhead_frac"] = (overhead, "frac")
        # Wall-clock latency, from the untraced calls. It follows the load
        # other tenants put on the host (20-40% for minutes at a time), so
        # the gated end-to-end cost of an op is its CPU time instead.
        for o in per_op.values():
            metrics[f"{o['slot']}.p50_s"] = (o["p50_s"], "s")
        # Estimate quality: exact per seed, but it varies with the data too
        # much across seeds to carry an end-to-end bound.
        for kind, layer in (("hist-eo", HIST), ("rw", RW)):
            metrics[f"{layer}.ratio_err"] = (statistics.fmean(errs[kind]), "frac")
    else:
        table = None
        metrics = {"setup_s": (setup_s, "s")}
        for o in per_op.values():
            metrics[f"{o['slot']}.cpu_s"] = (o["cpu_s"], "s")
        # each op weighs the same, whatever its share of the calls
        metrics["jobs_per_op"] = (
            statistics.fmean(
                statistics.fmean(c.jobs for c in timed if c.op is op)
                for op in ops
                if any(c.op is op for c in timed)
            ),
            "count",
        )
        metrics["driver_rss_mb"] = (rss_mb, "MB")
        metrics["ok_frac"] = (1 - len(failed) / len(timed), "frac")

    correct = not failed and not bad_untimed and checked == len(runner.calls)
    result = {
        "correct": correct,
        "attempted": len(timed),
        "failed": len(failed),
        # a metric without a value (an op that never completed) reads null
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }
    record = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sf": SF,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "spark_master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "versions": {
            "python": platform.python_version(),
            **{m: version(m) for m in ("pyspark", "numpy", "pandas", "pyarrow", "duckdb")},
        },
        "build_s": build_s,
        "warmup_s": warmup_s,
        "loop_s": loop_s,
        "cycles": sum(n_calls.values()) / len(cycle),
        "checked_calls": checked,
        "trace_targets_missing": missing,
        "untimed_failures": [f"{c.op.name}: {c.error}" for c in bad_untimed],
        "ops": per_op,
        "samples_per_s": samples / sample_s if sample_s else None,
        "ratio_errors": errs,
        "layers": table,
        "result": result,
    }
    return result, record


def unit(quantity: str) -> str:
    if quantity in ("s", "self_s", "reuse_s", "regular_s", "s_per_job"):
        return "s"
    if quantity.endswith(("_frac", "_ratio", "_share")):
        return "frac"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ubench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from schedule import SPECS

    if args.workload not in SPECS:
        print(f"ubench: unknown workload {args.workload}; known: {sorted(SPECS)}", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    spark = start_spark()
    try:
        result, record = run(spark, SPECS[args.workload], args)
    finally:
        stop_spark(spark)
        signal.alarm(0)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    for op, o in record["ops"].items():
        print(
            f"{o['slot']} {op}: {o['calls']} calls, p50 {o['p50_s']:.4f} s, cpu {o['cpu_s']:.3f} s, "
            f"jobs {o['jobs']}, tail {o['tail']}, errors {len(o['errors'])}",
            file=sys.stderr,
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
