"""Outside-in spans around the public functions of ``repro``.

:func:`instrument` wraps each function under its trace layer name, patching
the name where its caller looks it up (``join_sampler.run_walks``,
``union_sampler.sample_join``, ...), so no file under ``src/`` changes. A
layer without a public function is timed at its nearest public caller: the
memoised degree lookups of ``split._deg`` show up as ``stats`` spans around
``max_degree``/``avg_degree``.

Every span runs its Spark jobs under a job group of its own, so its job count
is read exactly from ``statusTracker().getJobIdsForGroup``. Spans carry their
parent; a span's self time is its duration minus that of its child spans. A
call into a layer from inside the same layer (``ChainStatsView.m`` calling
``max_degree``) is folded into the outer span.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    layer: str
    parent: "Span | None"
    group: str
    phase: str
    dur: float = 0.0
    child_s: float = 0.0
    jobs: int = 0  # inclusive of child spans, set by Tracer.resolve
    child_jobs: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Records spans of one thread of calls at a time; off until enabled."""

    def __init__(self, sc):
        self.sc = sc
        self.enabled = False
        self.phase = "setup"
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._unresolved: list[Span] = []
        self._n = 0

    @contextmanager
    def span(self, layer: str, group: str | None = None):
        if not self.enabled or any(s.layer == layer for s in self._stack):
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        self._n += 1
        sp = Span(layer, parent, group or f"ubench-span-{self._n}", self.phase)
        self.sc.setJobGroup(sp.group, layer)
        self._stack.append(sp)
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.dur = time.perf_counter() - t0
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.dur
                self.sc.setJobGroup(parent.group, parent.layer)
            self.spans.append(sp)
            self._unresolved.append(sp)

    def resolve(self) -> None:
        """Read the job count of every finished span (children finish first)."""
        tracker = self.sc.statusTracker()
        for sp in self._unresolved:
            sp.jobs = len(tracker.getJobIdsForGroup(sp.group)) + sp.child_jobs
            if sp.parent is not None:
                sp.parent.child_jobs += sp.jobs
        self._unresolved.clear()


def _walk_counts(sp, result) -> None:
    sp.counts["walks"] = result.n_walks
    sp.counts["dead"] = result.n_failed


def _row_counts(sp, result) -> None:
    sp.counts["rows"] = len(result)


def _union_counts(sp, result) -> None:
    sp.counts["samples"] = len(result.samples)
    sp.counts["drawn"] = result.n_drawn


def _online_counts(sp, result) -> None:
    sp.counts.update(result.counts)  # reuse_accepted, regular_accepted
    sp.counts["reuse_s"] = result.timings["reuse"]
    sp.counts["regular_s"] = result.timings["regular"]
    sp.counts["backtracks"] = result.n_backtracks
    sp.counts["backtrack_rejected"] = result.n_backtrack_rejected


# Counts read off the result of a public call the benchmark makes itself.
OP_COUNTS = {
    "union_sampler.set_union_sample": _union_counts,
    "online_union.online_union_sample": _online_counts,
}


# (module, attribute path, layer, counts hook). Each name is patched where its
# caller looks it up. ChainStatsView.m needs no wrapper of its own: its
# degrees come from the wrapped max_degree/avg_degree.
PATCHES = [
    # JoinContext.plan imports walker._walk_plan on each access; a cached
    # plan is a span of ~0 s and 0 jobs.
    ("repro.core.walker", "_walk_plan", "walker.plan", None),
    ("repro.core.membership", "MembershipIndex.__init__", "membership.build", None),
    ("repro.core.membership", "MembershipIndex.matrix", "membership.probe", _row_counts),
    ("repro.core.join_sampler", "run_walks", "walker.run_walks", _walk_counts),
    ("repro.core.union_sampler", "sample_join", "join_sampler.sample_join", _row_counts),
    ("repro.core.online_union", "sample_join", "join_sampler.sample_join", _row_counts),
    ("repro.core.online_union", "auto_histogram_warmup", "histogram_union.auto_histogram_warmup", None),
    ("repro.core.online_union", "randomwalk_warmup", "randomwalk_union.randomwalk_warmup", None),
    ("repro.core.randomwalk_union", "estimate_from_state", "randomwalk_union.estimate_from_state", None),
    ("repro.core.online_union", "estimate_from_state", "randomwalk_union.estimate_from_state", None),
    ("repro.splitting.split", "split_view_sets", "splitting.split_view_sets", None),
    ("repro.core.histogram_union", "ChainStatsView.pair_series", "stats", None),
    ("repro.core.histogram_union", "max_degree", "stats", None),
    ("repro.core.histogram_union", "avg_degree", "stats", None),
    ("repro.splitting.split", "max_degree", "stats", None),
    ("repro.splitting.split", "avg_degree", "stats", None),
]


def instrument(tracer: Tracer):
    """Install the wrappers. Returns a callable that removes them and the
    targets that no longer exist in the program (their layers read 0)."""
    originals, missing = [], []
    for module, path, layer, on_result in PATCHES:
        *owner_path, name = path.split(".")
        try:
            owner = importlib.import_module(module)
            for part in owner_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}.{path}")
            continue
        originals.append((owner, name, orig))
        setattr(owner, name, _wrap(tracer, orig, layer, on_result))

    def undo() -> None:
        for owner, name, orig in reversed(originals):
            setattr(owner, name, orig)

    return undo, missing


def _wrap(tracer: Tracer, fn, layer: str, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer) as sp:
            result = fn(*args, **kwargs)
            if sp is not None and on_result is not None:
                on_result(sp, result)
            return result

    return wrapper
