"""E1 — Fig 8: schematized entity-view computation, Graph Engine analytics
store vs legacy Spark jobs.

Paper numbers: average ≈5× speedup, best ≈14×, worst (Songs) +5%; no view
regressed; the legacy system used ~10× the hardware.

Our contrast isolates the same effect inside one Spark runtime: the
optimized path computes each wide entity view with a *single* grouped
aggregation over extended triples (one-hop facts inline), while the legacy
path assembles it with one shuffling join per predicate over plain RDF
triples (two chained joins per composite column).  Join-heavy views
(person/artist/movie: many predicates + composite relationships) should
gain the most; songs (few predicates, no composites) the least.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core import schema as S
from repro.engine.legacy_views import legacy_schematized_entity_view, plain_triples
from repro.engine.views import schematized_entity_view
from repro.experiments.common import kg_from_universe, table
from repro.kgdata.universe import make_universe

PAPER = {
    "avg_speedup": 5.0,
    "best_speedup": 14.0,
    "worst_gain_pct": 5.0,
    "note": "legacy used ~10x hardware; figure reports per-entity-type gains",
}

#: view order roughly mirrors Fig 8's x-axis (entity types)
VIEW_TYPES = ["person", "artist", "movie", "album", "team", "org", "city", "song"]


def _evaluate(df) -> None:
    """Fully materialize a view.

    ``count()`` would let Catalyst prune the aggregate columns and remove
    the legacy path's left joins outright (unique-key join elimination),
    timing nothing; the noop sink forces every column of every row.
    """
    df.write.format("noop").mode("overwrite").save()


def _time(fn, *, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(spark: SparkSession, *, n_entities: int = 4000, seed: int = 7, reps: int = 3) -> dict:
    uni = make_universe(n_entities=n_entities, seed=seed)
    extended = kg_from_universe(spark, uni).localCheckpoint(eager=True)
    plain = plain_triples(extended).localCheckpoint(eager=True)
    extended.count(), plain.count()  # warm both inputs

    per_view = []
    for etype in VIEW_TYPES:
        # warm-up evaluation of both plans once before timing
        _evaluate(schematized_entity_view(extended, etype))
        _evaluate(legacy_schematized_entity_view(plain, etype))
        t_opt = _time(lambda: _evaluate(schematized_entity_view(extended, etype)), reps=reps)
        t_leg = _time(lambda: _evaluate(legacy_schematized_entity_view(plain, etype)), reps=reps)
        per_view.append(
            {
                "view": etype,
                "optimized_s": round(t_opt, 3),
                "legacy_s": round(t_leg, 3),
                "speedup": round(t_leg / t_opt, 2),
            }
        )
    speedups = [v["speedup"] for v in per_view]
    return {
        "paper": PAPER,
        "per_view": per_view,
        "avg_speedup": round(sum(speedups) / len(speedups), 2),
        "best_speedup": max(speedups),
        "worst_speedup": min(speedups),
        "n_entities": n_entities,
    }


def format_rows(result: dict) -> str:
    rows = [
        [v["view"], v["legacy_s"], v["optimized_s"], f'{v["speedup"]}x']
        for v in result["per_view"]
    ]
    body = table(["view", "legacy_s", "analytics_store_s", "speedup"], rows)
    return (
        "E1 (Fig 8) — view computation: analytics store vs legacy Spark jobs\n"
        f"{body}\n"
        f'measured: avg {result["avg_speedup"]}x, best {result["best_speedup"]}x, '
        f'worst {result["worst_speedup"]}x   '
        f'(paper: avg ~5x, best ~14x, worst +5% [Songs]; no regressions)\n'
    )
