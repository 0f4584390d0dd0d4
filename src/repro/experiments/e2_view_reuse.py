"""E2 — §3.2 inline claim: utilizing view dependencies to reuse common
views gave a 26% run-time improvement in a production view dependency
graph.

We materialize the Fig 7 consumers — ranked entity index, entity
neighborhood, and the NERD entity view, which all depend on the shared
``entity_features`` view (degrees + identities + PageRank) — once with the
View Manager's dependency-aware reuse and once with each consumer
recomputing its ancestor chain privately (the legacy one-pipeline-per-
consumer deployment).
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.engine.views import ViewManager, standard_catalog
from repro.experiments.common import kg_from_universe
from repro.kgdata.universe import make_universe

PAPER = {"runtime_improvement_pct": 26.0}

TARGETS = ["ranked_entity_index", "entity_neighborhood", "nerd_entity_view"]


def run(spark: SparkSession, *, n_entities: int = 2500, seed: int = 7, reps: int = 2) -> dict:
    uni = make_universe(n_entities=n_entities, seed=seed)
    base = kg_from_universe(spark, uni).localCheckpoint(eager=True)
    base.count()
    catalog = standard_catalog()

    def once(reuse: bool) -> float:
        mgr = ViewManager(spark, catalog)
        t0 = time.perf_counter()
        mgr.materialize(base, TARGETS, reuse=reuse)
        return time.perf_counter() - t0

    once(True)  # warm-up
    t_reuse = min(once(True) for _ in range(reps))
    t_noreuse = min(once(False) for _ in range(reps))
    return {
        "paper": PAPER,
        "with_reuse_s": round(t_reuse, 2),
        "without_reuse_s": round(t_noreuse, 2),
        "improvement_pct": round(100.0 * (1 - t_reuse / t_noreuse), 1),
        "targets": TARGETS,
        "n_entities": n_entities,
    }


def format_rows(result: dict) -> str:
    return (
        "E2 (§3.2) — view-dependency reuse in the Fig 7 DAG\n"
        f'without reuse: {result["without_reuse_s"]}s   '
        f'with reuse: {result["with_reuse_s"]}s   '
        f'improvement: {result["improvement_pct"]}%   (paper: 26%)\n'
    )
