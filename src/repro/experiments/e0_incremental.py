"""E0 — §2.4 supporting experiment: delta-based incremental construction
vs full batch reconstruction.

The paper's hybrid design exists so that continuous small changes do not
pay full-reconstruction cost.  We onboard a source fleet at tick 0 (full
*Added* payloads), then measure one incremental tick (typically a few
percent of entities changed) against rebuilding the KG from scratch over
the tick-1 snapshots.  No paper-reported number exists for this table; it
validates the design claim and records the measured speedup.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core.construction import ConstructionPipeline, SourcePayload, empty_kg
from repro.core.delta import compute_delta
from repro.core.ingestion import IngestionPipeline
from repro.experiments.common import table
from repro.kgdata.sources import default_sources, source_snapshot
from repro.kgdata.universe import make_universe

PAPER = {"note": "design claim (§2.4); no absolute number reported"}


def run(
    spark: SparkSession,
    *,
    n_entities: int = 250,
    n_sources: int = 3,
    seed: int = 7,
    obr: bool = False,
) -> dict:
    n_ticks = 8
    uni = make_universe(n_entities=n_entities, seed=seed, n_ticks=n_ticks)
    sources = default_sources(saga_tick=99)[:n_sources]  # all onboard at tick 0
    pipe = ConstructionPipeline(spark, obr_enabled=obr)

    def snapshots(tick):
        out = {}
        for cfg in sources:
            triples, vol = IngestionPipeline(spark, cfg).run(
                source_snapshot(uni, cfg, tick, seed=seed, n_ticks=n_ticks)
            )
            out[cfg.name] = (triples.localCheckpoint(eager=True), vol)
        return out

    snap0, snap1 = snapshots(0), snapshots(1)

    # -- batch era: onboard everything at tick 0
    kg = empty_kg(spark)
    payloads0 = [
        SourcePayload(cfg, compute_delta(None, snap0[cfg.name][0]), snap0[cfg.name][1])
        for cfg in sources
    ]
    t0 = time.perf_counter()
    kg = pipe.consume_tick(kg, payloads0)
    bootstrap_s = time.perf_counter() - t0

    # -- incremental tick: consume only deltas vs tick-0 snapshots
    payloads1 = [
        SourcePayload(
            cfg,
            compute_delta(snap0[cfg.name][0], snap1[cfg.name][0]),
            snap1[cfg.name][1],
        )
        for cfg in sources
    ]
    deltas = [p.delta.counts() for p in payloads1]
    t0 = time.perf_counter()
    kg_inc = pipe.consume_tick(kg, payloads1)
    incremental_s = time.perf_counter() - t0

    # -- full rebuild over the tick-1 snapshots (no delta reuse)
    payloads_full = [
        SourcePayload(cfg, compute_delta(None, snap1[cfg.name][0]), snap1[cfg.name][1])
        for cfg in sources
    ]
    t0 = time.perf_counter()
    kg_full = pipe.consume_tick(empty_kg(spark), payloads_full)
    rebuild_s = time.perf_counter() - t0

    changed = sum(d["added_entities"] + d["updated_entities"] + d["deleted_entities"] for d in deltas)
    return {
        "paper": PAPER,
        "bootstrap_s": round(bootstrap_s, 1),
        "incremental_s": round(incremental_s, 1),
        "full_rebuild_s": round(rebuild_s, 1),
        "speedup": round(rebuild_s / incremental_s, 2),
        "changed_entities": changed,
        "kg_incremental_counts": kg_inc.counts(),
        "kg_rebuild_counts": kg_full.counts(),
    }


def format_rows(result: dict) -> str:
    body = table(
        ["mode", "seconds"],
        [
            ["bootstrap (tick 0 onboarding)", result["bootstrap_s"]],
            ["incremental tick (delta only)", result["incremental_s"]],
            ["full rebuild of tick-1 state", result["full_rebuild_s"]],
        ],
    )
    return (
        "E0 (§2.4) — incremental vs full-batch construction "
        f'({result["changed_entities"]} changed entities in the delta)\n'
        f"{body}\n"
        f'incremental speedup over rebuild: {result["speedup"]}x\n'
    )
