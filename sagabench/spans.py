"""In-memory span tracer for the traced benchmark run.

A span records its name, start, end, parent span and the number of Spark
jobs submitted while it was open (from the DAG scheduler's job counter).
Spans stay in memory and are written to one JSON file when the run ends.

``Tracer.wrap`` replaces a program function at the name under which its
caller imports it (``repro.core.construction.fuse`` rather than
``repro.core.fusion.fuse``), so the program itself carries no tracing.
Spark plans are lazy: a function that returns a DataFrame often only
builds a plan, and the work runs when a caller checkpoints it.  Wrappers
therefore tag the returned DataFrame, and the traced
``DataFrame.localCheckpoint`` charges that checkpoint to a span named
``<tag>.checkpoint``.  Row counts that need an extra Spark job run in
``trace.count`` spans; their time and jobs are tracing overhead and are
taken out of every enclosing span.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

TAG = "_sagabench_tag"
OVERHEAD = "trace.count"


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, spark=None, *, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        # the DAG scheduler's job-id counter moves when a job is submitted;
        # the status tracker is fed by the listener bus and lags behind
        self._scheduler = spark.sparkContext._jsc.sc().dagScheduler() if spark is not None else None
        self._undo: list[tuple[object, str, object]] = []
        #: per-name latencies of leaf operations too many to keep as spans
        self.leaves: dict[str, list[float]] = {}
        #: seconds spent in tracer bookkeeping and overhead counts
        self.overhead_s = 0.0
        self._net: dict[int, tuple[float, float, float]] | None = None

    # -- recording -----------------------------------------------------------
    def jobs_launched(self) -> int:
        """Spark jobs submitted so far in this context."""
        return 0 if self._scheduler is None else int(self._scheduler.nextJobId())

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {"counts": {}}
            return
        t_in = time.perf_counter()
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        j0 = self.jobs_launched()
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - t_in
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["jobs"] = self.jobs_launched() - j0
            self._stack.pop()
            self._net = None
            self.overhead_s += time.perf_counter() - rec["end"]

    def leaf(self, name: str, seconds: float) -> None:
        t0 = time.perf_counter()
        self.leaves.setdefault(name, []).append(seconds)
        self.overhead_s += time.perf_counter() - t0

    def count(self, rec: dict, key: str, df) -> int:
        """Add ``df.count()`` to ``rec['counts'][key]``, as tracing overhead."""
        t0 = time.perf_counter()
        with self.span(OVERHEAD):
            n = df.count()
        rec["counts"][key] = rec["counts"].get(key, 0) + n
        self.overhead_s += time.perf_counter() - t0
        return n

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, tag: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``tag`` marks a returned DataFrame so its checkpoint is charged to
        ``name``; ``after(tracer, rec, result, args, kwargs)`` records counts
        once the span has closed.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                out = orig(*args, **kwargs)
            if tag:
                tag_df(out, name)
            if after is not None:
                after(tracer, rec, out, args, kwargs)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reports -------------------------------------------------------------
    def _net_times(self) -> dict[int, tuple[float, float, float]]:
        """span id → (seconds, jobs, self seconds), overhead taken out.

        Children are recorded after their parents, so one reverse pass
        accumulates every subtree."""
        if self._net is not None:
            return self._net
        over_s: dict[int, float] = {}
        over_j: dict[int, float] = {}
        kids_s: dict[int, float] = {}
        net: dict[int, tuple[float, float, float]] = {}
        for s in reversed(self.spans):
            sid, dur = s["id"], s["end"] - s["start"]
            if s["name"] == OVERHEAD:
                o_s, o_j = dur, s["jobs"]
            else:
                o_s, o_j = over_s.get(sid, 0.0), over_j.get(sid, 0)
                n_s = dur - o_s
                net[sid] = (n_s, s["jobs"] - o_j, n_s - kids_s.get(sid, 0.0))
            p = s["parent"]
            if p is not None:
                over_s[p] = over_s.get(p, 0.0) + o_s
                over_j[p] = over_j.get(p, 0) + o_j
                if s["name"] != OVERHEAD:
                    kids_s[p] = kids_s.get(p, 0.0) + net[sid][0]
        self._net = net
        return net

    def find(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, *names: str, key: str = "s") -> float:
        """Summed seconds (``key='s'``) or Spark jobs (``key='jobs'``)."""
        net = self._net_times()
        col = 0 if key == "s" else 1
        return sum(net[s["id"]][col] for n in names for s in self.find(n))

    def self_time(self, rec: dict) -> float:
        return self._net_times()[rec["id"]][2]

    def total_count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.find(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        net = self._net_times()
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = []
        for s in self.spans:
            row = {**s, "start": s["start"] - t0, "end": s["end"] - t0}
            if s["id"] in net:
                row["net_s"], row["net_jobs"], row["self_s"] = net[s["id"]]
            rows.append(row)
        leaves = {k: {"n": len(v), "total_s": sum(v)} for k, v in self.leaves.items()}
        path.write_text(json.dumps(
            {"spans": rows, "leaves": leaves, "overhead_s": self.overhead_s}))


def tag_df(obj, name: str) -> None:
    """Mark a DataFrame, or the frames of a known result object, so that
    its later checkpoint is charged to span ``name``."""
    if obj is None:
        return
    if hasattr(obj, "localCheckpoint"):
        setattr(obj, TAG, name)
    elif hasattr(obj, "link_map"):  # linking.LinkResult
        setattr(obj.link_map, TAG, name)
    elif hasattr(obj, "added"):  # delta.Delta
        for part in (obj.added, obj.updated, obj.deleted):
            setattr(part, TAG, name)


def install_checkpoint_hook(tracer: Tracer, *, count: dict | None = None) -> None:
    """Charge a tagged DataFrame's checkpoint to ``<tag>.checkpoint``.

    ``count`` maps a tag to a function of the checkpointed frame whose row
    count is recorded on the checkpoint span as ``rows``."""
    count = count or {}
    from pyspark.sql import SparkSession

    # the concrete class (pyspark.sql.classic) overrides the base method
    cls = type(SparkSession.getActiveSession().range(1))
    orig = cls.localCheckpoint

    def local_checkpoint(self, *args, **kwargs):
        name = getattr(self, TAG, None)
        if name is None:
            return orig(self, *args, **kwargs)
        with tracer.span(f"{name}.checkpoint") as rec:
            out = orig(self, *args, **kwargs)
        if name in count:
            tracer.count(rec, "rows", count[name](out))
        return out

    cls.localCheckpoint = local_checkpoint
    tracer._undo.append((cls, "localCheckpoint", orig))
