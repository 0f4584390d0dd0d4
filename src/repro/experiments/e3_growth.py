"""E3 — Fig 12: relative growth of the KG under continuous construction.

Paper numbers: 33× growth in facts and 6.5× in unique entities since the
initial 2018 measurement, with an inflection when Saga was introduced
(self-serve onboarding + delta-based continuous construction).

The harness replays a provider timeline: ``n_legacy`` sources publish from
tick 0; after ``saga_tick`` the remaining providers onboard at one per
tick (the low-effort onboarding of §1 req. 5).  Each tick every provider's
snapshot is ingested, delta'd against the previously consumed snapshot,
and consumed by the hybrid batch-incremental construction pipeline; we
record cumulative facts/entities relative to the first measurement.
Facts must grow much faster than entities — linking deduplicates entity
identities across sources while every source contributes fact provenance.
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
from repro.sparktune import tune

PAPER = {
    "facts_growth": 33.0,
    "entities_growth": 6.5,
    "note": "relative growth since 2018; dashed line = Saga introduction",
}


def run(
    spark: SparkSession,
    *,
    n_entities: int = 300,
    n_ticks: int = 8,
    saga_tick: int = 3,
    n_sources: int = 8,
    seed: int = 7,
    obr: bool = True,
) -> dict:
    tune(spark)
    uni = make_universe(n_entities=n_entities, seed=seed, n_ticks=n_ticks)
    sources = default_sources(saga_tick=saga_tick)[:n_sources]
    pipe = ConstructionPipeline(spark, obr_enabled=obr)
    kg = empty_kg(spark)
    prev: dict[str, object] = {}
    timeline = []
    t_start = time.perf_counter()
    for tick in range(n_ticks):
        payloads = []
        for cfg in sources:
            snap = source_snapshot(uni, cfg, tick, seed=seed, n_ticks=n_ticks)
            triples, vol = IngestionPipeline(spark, cfg).run(snap)
            triples = triples.localCheckpoint(eager=True)
            delta = compute_delta(prev.get(cfg.name), triples)
            prev[cfg.name] = triples
            payloads.append(SourcePayload(cfg, delta, vol))
        kg = pipe.consume_tick(kg, payloads)
        c = kg.counts()
        timeline.append({"tick": tick, **c, "elapsed_s": round(time.perf_counter() - t_start, 1)})

    base = timeline[0]
    for row in timeline:
        row["facts_rel"] = round(row["facts"] / max(1, base["facts"]), 2)
        row["entities_rel"] = round(row["entities"] / max(1, base["entities"]), 2)
    last = timeline[-1]
    return {
        "paper": PAPER,
        "timeline": timeline,
        "saga_tick": saga_tick,
        "facts_growth": last["facts_rel"],
        "entities_growth": last["entities_rel"],
        "kg": kg,
        "universe": uni,
        "sources": sources,
    }


def linking_quality(result: dict, *, tick: int | None = None) -> dict:
    """Ground-truth linking metrics over the final KG state (the accuracy
    the paper could not publish for proprietary feeds)."""
    kg = result["kg"]
    uni = result["universe"]
    links = kg.links.toPandas()
    truth = {}
    n_ticks = max(t["tick"] for t in result["timeline"]) + 1
    for cfg in result["sources"]:
        snap = source_snapshot(uni, cfg, tick if tick is not None else n_ticks - 1, n_ticks=n_ticks)
        if snap.truth is None or snap.truth.empty:
            continue
        for r in snap.truth.itertuples(index=False):
            truth[r.id] = r.eid
    links["true_eid"] = links.subject.map(truth)
    valid = links.dropna(subset=["true_eid"])
    mixed = int((valid.groupby("kg_subject").true_eid.nunique() > 1).sum())
    split = int((valid.groupby("true_eid").kg_subject.nunique() > 1).sum())
    return {
        "linked_records": len(valid),
        "clusters": valid.kg_subject.nunique(),
        "clusters_with_mixed_truth": mixed,
        "entities_split_across_ids": split,
    }


def format_rows(result: dict) -> str:
    rows = [
        [
            t["tick"],
            "saga" if t["tick"] >= result["saga_tick"] else "legacy",
            t["facts"],
            t["entities"],
            f'{t["facts_rel"]}x',
            f'{t["entities_rel"]}x',
        ]
        for t in result["timeline"]
    ]
    body = table(["tick", "era", "facts", "entities", "facts_rel", "entities_rel"], rows)
    return (
        "E3 (Fig 12) — relative KG growth under continuous construction\n"
        f"{body}\n"
        f'measured: facts {result["facts_growth"]}x, entities '
        f'{result["entities_growth"]}x since tick 0   '
        "(paper: 33x facts, 6.5x entities since 2018; facts outgrow entities)\n"
    )
