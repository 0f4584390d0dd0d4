"""``construct`` workload: Saga's Spark construction path, end to end.

Onboarding: every source of the fleet onboards its full tick-0 snapshot in
one ``consume_tick`` of Added payloads into an empty KG, then
``ViewManager.materialize`` builds the whole ``standard_catalog()``.

Ticks: each timed tick ingests every source's next snapshot, deltas it
against the snapshot consumed before, consumes the delta, stages and
publishes the fused KG as an ``ingest`` op, lets the
``AnalyticsStoreAgent`` replay it, and refreshes ``entity_features`` (with
the tick's changed KG ids) and ``nerd_entity_view`` over the store's
newest version.

The program receives only what ``repro.kgdata`` generates from the seed.
"""
from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import checks
from proc import alive, cpu_seconds, descendants

N_ENTITIES = 250
#: sources of the tick-0 fleet that onboard (wiki, musicdb: all 8 types)
N_SOURCES = 2
#: timed incremental ticks per run, whatever ``--seconds`` says: every run
#: times the same inputs
TICKS = 1
#: the generator's timeline length (5% of entities are born per tick)
N_TICKS = 12
WARM_ROUNDS = 1
SPARK_CORES = 2
SHUFFLE_PARTITIONS = 2
JVM_MEMORY = "1g"


# --------------------------------------------------------------------------
# Spark session
# --------------------------------------------------------------------------

class Spark:
    """A local Spark session whose JVM and Python workers are stopped and
    waited for in ``stop``; all scratch files live under ``work``."""

    def __init__(self, work: Path, src: Path):
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
        )
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master local[{SPARK_CORES}] --driver-memory {JVM_MEMORY} "
            # compiler threads stay alive, so their CPU can be left out; no
            # perf-data file in the system temp directory
            f"--driver-java-options '-Djava.io.tmpdir={tmp} "
            "-XX:-UseDynamicNumberOfCompilerThreads -XX:-UsePerfData' "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "pyspark-shell"
        )
        from pyspark.sql import SparkSession

        self.session = (
            SparkSession.builder.appName("sagabench")
            .config("spark.local.dir", str(work / "spark-local"))
            .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
            .config("spark.default.parallelism", str(SHUFFLE_PARTITIONS))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", "-1")
            .config("spark.ui.showConsoleProgress", "false")
            # compiling generated code costs more than it saves at this
            # data size, and most of it would land in the first timed run
            .config("spark.sql.codegen.wholeStage", "false")
            .config("spark.sql.codegen.factoryMode", "NO_CODEGEN")
            # adaptive execution re-plans and submits every shuffle stage as
            # its own job; with a few hundred rows that is all overhead
            .config("spark.sql.adaptive.enabled", "false")
            .getOrCreate()
        )
        self.session.sparkContext.setLogLevel("ERROR")
        self.jvm_pid = int(self.session.sparkContext._jvm.ProcessHandle.current().pid())

    def stop(self) -> None:
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        kids = descendants(self.jvm_pid)
        self.session.stop()
        proc = getattr(gateway, "proc", None)
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway JVM exits on EOF
            proc.wait(timeout=60)
        deadline = time.time() + 30
        while kids and time.time() < deadline:
            kids = [p for p in kids if alive(p)]
            time.sleep(0.1)


def warm_up(spark, work: Path) -> None:
    """Pay JIT and Python-worker start-up before the first timed operation,
    with the kinds of Spark work construction does (shuffled joins and
    aggregations, arrays, pandas UDFs, pandas round trips, checkpoints,
    parquet), on a small frame of the benchmark's own."""
    from pyspark.sql import functions as F

    df = spark.range(2000).select(
        F.concat(F.lit("k"), (F.col("id") % 97).cast("string")).alias("k"),
        (F.col("id") % 13).cast("string").alias("v"),
        F.rand(7).alias("x"),
    )
    for _ in range(WARM_ROUNDS):
        agg = df.groupBy("k").agg(F.collect_set("v").alias("vs"), F.sum("x").alias("sx"))
        j = df.join(agg, "k").select("k", F.explode("vs").alias("v2"), "x", "sx")
        j = j.join(df.select("k", F.col("v").alias("v2")), ["k", "v2"], "left_anti")
        j.localCheckpoint(eager=True).count()
        pdf = agg.select("k", F.array_sort("vs").alias("vs")).toPandas()
        spark.createDataFrame(pdf[["k"]]).mapInPandas(lambda it: it, "k string").count()
        agg.write.mode("overwrite").parquet(str(work / "warm"))
        spark.read.parquet(str(work / "warm")).count()


# --------------------------------------------------------------------------
# pipeline steps (each a public entry point of the program)
# --------------------------------------------------------------------------

def fleet():
    from repro.kgdata.sources import default_sources

    return [cfg for cfg in default_sources() if cfg.onboard_tick == 0][:N_SOURCES]


def raw_snapshots(uni, seed: int, tick: int, n_ticks: int = N_TICKS) -> dict:
    from repro.kgdata.sources import source_snapshot

    return {
        cfg.name: (cfg, source_snapshot(uni, cfg, tick, seed=seed, n_ticks=n_ticks))
        for cfg in fleet()
    }


def ingest_all(spark, raws: dict, tracer) -> dict:
    """Source ingestion, materialized: name → (cfg, triples, volatile, raw)."""
    from repro.core.ingestion import IngestionPipeline

    out = {}
    for name, (cfg, raw) in raws.items():
        with tracer.span("ingestion") as rec:
            triples, vol = IngestionPipeline(spark, cfg).run(raw)
            triples = triples.localCheckpoint(eager=True)
        if tracer.enabled:
            tracer.count(rec, "rows_out", triples)
        out[name] = (cfg, triples, vol, raw)
    return out


def _delta(prev, cur, tracer):
    from repro.core.delta import compute_delta
    from spans import tag_df

    with tracer.span("delta"):
        d = compute_delta(prev, cur)
    if tracer.enabled and prev is not None:
        tag_df(d, "delta")
    return d


def onboard_kg(spark, pipe, snaps: dict, tracer):
    from repro.core.construction import SourcePayload, empty_kg

    payloads = [
        SourcePayload(cfg, _delta(None, triples, tracer), vol)
        for cfg, triples, vol, _ in snaps.values()
    ]
    return pipe.consume_tick(empty_kg(spark), payloads)


def tick_kg(spark, pipe, kg, prev: dict, cur: dict, tracer):
    """Consume one tick's deltas; returns (new KG, changed KG ids)."""
    from pyspark.sql import functions as F

    from repro.core.construction import SourcePayload

    payloads = [
        SourcePayload(cfg, _delta(prev[name][1], triples, tracer), vol)
        for name, (cfg, triples, vol, _) in cur.items()
    ]
    new = pipe.consume_tick(kg, payloads)
    touched = None
    for p in payloads:
        ids = p.delta.added.select("subject").unionByName(p.delta.updated.select("subject"))
        part = ids.join(new.links, "subject").select("kg_subject").unionByName(
            p.delta.deleted.join(kg.links, "subject").select("kg_subject")
        )
        touched = part if touched is None else touched.unionByName(part)
    changed = touched.select(F.col("kg_subject").alias("subject")).distinct()
    return new, changed


# --------------------------------------------------------------------------
# the workload
# --------------------------------------------------------------------------

def run(seed: int, traced: bool, clock, work: Path, src: Path):
    """Returns (result, tracer); the Spark JVM has ended when it returns."""
    sp = Spark(work, src)
    try:
        from spans import Tracer

        spark = sp.session
        tracer = Tracer(spark, enabled=traced)
        warm_up(spark, work)
        res = _construct(spark, sp.jvm_pid, seed, tracer, clock, work)
        tracer.restore()
        return res, tracer
    finally:
        sp.stop()


def _construct(spark, jvm_pid, seed, tracer, clock, work: Path) -> dict:
    from repro.core.construction import ConstructionPipeline
    from repro.engine.log import GraphEngine
    from repro.engine.store import AnalyticsStore, AnalyticsStoreAgent
    from repro.engine.views import ViewManager, standard_catalog
    from repro.kgdata.universe import make_universe

    uni = make_universe(n_entities=N_ENTITIES, seed=seed, n_ticks=N_TICKS)
    raws = raw_snapshots(uni, seed, 0)
    pipe = ConstructionPipeline(spark)
    engine = GraphEngine(work / "engine")
    store = AnalyticsStore(spark, work / "store")
    engine.register(AnalyticsStoreAgent(store))
    cat = standard_catalog()
    if tracer.enabled:
        import layers

        layers.install(tracer)
        layers.trace_catalog(tracer, cat)
    vm = ViewManager(spark, cat)
    seen: dict[str, set[str]] = {}

    def now():
        return time.perf_counter(), cpu_seconds(jvm_pid)

    # -- onboarding: raw tick-0 snapshots to the fused KG and the full catalog
    setup_s = clock()
    m0 = now()
    snaps = ingest_all(spark, raws, tracer)
    kg = onboard_kg(spark, pipe, snaps, tracer)
    m1 = now()
    views = vm.materialize(kg.all_triples(), cat.names())
    m2 = now()
    errors = checks.views(kg.all_triples(), views)
    errors += checks.construction(snaps, kg, {})
    heap = [live_heap_mb(spark)]

    # -- incremental ticks, each to a fresh store version and fresh views
    ticks, lags = [], []  # (tick wall, fresh wall, tick cpu, fresh cpu)
    before = None
    for tick in range(1, TICKS + 1):
        nxt = raw_snapshots(uni, seed, tick)
        for name, (_cfg, _t, _v, raw) in snaps.items():
            seen.setdefault(name, set()).update(raw.entities["id"])
        t0 = now()
        cur = ingest_all(spark, nxt, tracer)
        new, changed = tick_kg(spark, pipe, kg, snaps, cur, tracer)
        t1 = now()
        with tracer.span("engine.stage"):
            path = _stage(new, work, tick)
        lsn = engine.publish({"kind": "ingest", "payload_path": path})
        lags.append(lsn - engine.freshness(AnalyticsStoreAgent.name))
        engine.run_agents()
        base = store.read_version()
        vm.update(base, "entity_features", changed)
        vm.update(base, "nerd_entity_view", changed)
        t2 = now()
        ticks.append((t1[0] - t0[0], t2[0] - t0[0], t1[1] - t0[1], t2[1] - t0[1]))
        before = checks.tick_start(snaps, kg)
        kg, snaps = new, cur

    errors += checks.construction(snaps, kg, seen, before)
    errors += checks.store(store, kg, engine, lsn)
    heap.append(live_heap_mb(spark))

    tick_s, fresh_s, tick_cpu, fresh_cpu = (statistics.median(x) for x in zip(*ticks))
    return {
        "attempted": 2 + len(ticks),
        "failed": 0,
        "errors": errors,
        "timed_s": m2[0] - m0[0] + sum(t[1] for t in ticks),
        "lag_lsn": lags,
        "e2e": {
            "setup_s": setup_s,
            # whole-run windows: a single tick (17-25 s of wall time) is too
            # short to average over the host's slow and fast seconds
            "op_cpu_ms": (m1[1] - m0[1] + sum(t[2] for t in ticks)) * 1e3,
            "fresh_cpu_ms": (m2[1] - m0[1] + sum(t[3] for t in ticks)) * 1e3,
            "peak_mem_mb": max(heap),
        },
        "layers": {"onboard.cpu_s": m1[1] - m0[1], "views.cpu_s": m2[1] - m1[1],
                   "tick.cpu_s": tick_cpu, "fresh.cpu_s": fresh_cpu},
        "named": {
            "onboard_s": m1[0] - m0[0], "views_s": m2[0] - m1[0],
            "tick_s": tick_s, "fresh_s": fresh_s,
            "onboard_cpu_s": m1[1] - m0[1], "views_cpu_s": m2[1] - m1[1],
            "tick_cpu_s": tick_cpu,
            "fresh_cpu_s": fresh_cpu, "ticks": len(ticks),
            "heap_onboard_mb": heap[0], "heap_tick_mb": heap[1],
        },
    }


def live_heap_mb(spark) -> float:
    """MB of JVM heap in use after a full collection: what the driver keeps
    (cached and checkpointed blocks, plans, Spark's job bookkeeping), not
    garbage waiting to be collected.

    The smaller of two readings half a second apart: a single one read
    17 MB high in 2 of 18 runs, from objects that Spark's background
    threads (listener bus, context cleaner) had not yet let go of."""
    import gc

    sc = spark.sparkContext
    bean = sc._jvm.java.lang.management.ManagementFactory.getMemoryMXBean()
    used = []
    for _ in range(2):
        gc.collect()  # Python proxies of unreachable JVM objects are released first
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        bean.gc()
        used.append(bean.getHeapMemoryUsage().getUsed() / 2**20)
        time.sleep(0.5)
    return min(used)


def _stage(kg, work: Path, tick: int) -> str:
    path = work / "staging" / f"t{tick:04d}"
    kg.all_triples().write.parquet(str(path))
    return str(path)
