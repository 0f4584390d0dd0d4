"""Resolution (§2.3 Linking step 5): signed linkage graph → entity clusters.

High-confidence match probabilities become +1 edges, high-confidence
non-matches −1 edges.  The signed edges are collected into Python and a
greedy pivot correlation clustering runs over them, honoring −edges and
the invariant that a cluster contains **at most one KG entity**.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, functions as F, types as T

from repro.core.schema import is_kg_id
from repro.sparktune import small_frame

CLUSTER_SCHEMA = T.StructType(
    [
        T.StructField("subject", T.StringType(), False),
        T.StructField("cluster", T.StringType(), False),
    ]
)


def signed_edges(scored: DataFrame, *, hi: float, lo: float) -> DataFrame:
    """(a, b, sign) from calibrated probabilities: +1 ≥ hi, −1 ≤ lo."""
    return (
        scored.withColumn(
            "sign",
            F.when(F.col("prob") >= hi, F.lit(1))
            .when(F.col("prob") <= lo, F.lit(-1))
            .otherwise(F.lit(0)),
        )
        .filter(F.col("sign") != 0)
        .select("a", "b", "sign")
    )


def _pivot_cluster(nodes: pd.DataFrame, edges: pd.DataFrame) -> pd.DataFrame:
    """Greedy pivot correlation clustering of ``nodes`` over signed ``edges``.

    Ordering is deterministic: KG entities pivot first (so source entities
    attach to the existing graph entity when possible), then lexicographic.
    A node joins the pivot's cluster iff a +edge connects them, no −edge
    forbids it, and the ≤1-KG-entity-per-cluster invariant holds.
    """
    names = sorted(nodes["subject"].tolist(), key=lambda s: (not is_kg_id(s), s))
    pos: dict[str, set[str]] = {}
    neg: dict[str, set[str]] = {}
    for r in edges.itertuples(index=False):
        d = pos if r.sign > 0 else neg
        d.setdefault(r.a, set()).add(r.b)
        d.setdefault(r.b, set()).add(r.a)
    assigned: dict[str, str] = {}
    for pivot in names:
        if pivot in assigned:
            continue
        assigned[pivot] = pivot
        pivot_is_kg = is_kg_id(pivot)
        for u in sorted(pos.get(pivot, ())):
            if u in assigned:
                continue
            if u in neg.get(pivot, ()):
                continue
            if pivot_is_kg and is_kg_id(u):
                continue  # at most one graph entity per cluster (§2.3)
            assigned[u] = pivot
    return pd.DataFrame(
        {"subject": list(assigned), "cluster": [assigned[s] for s in assigned]}
    )


def cluster_entities(scored: DataFrame, *, hi: float, lo: float) -> DataFrame:
    """(subject, cluster) for every node of the signed linkage graph.

    Nodes untouched by any +edge do not appear — callers treat absent
    subjects as singleton clusters of themselves.

    The signed edges — orders of magnitude fewer than the blocked pair
    set — are collected and resolved in Python by one greedy pivot pass
    over every node with a +edge.  A pivot only attaches its
    +neighbours, so the pass clusters each +connected component on its
    own.  Matching, the quadratic stage, stays distributed.
    """
    edges = signed_edges(scored, hi=hi, lo=lo).localCheckpoint(eager=True)
    pdf = edges.toPandas()
    pos = pdf[pdf.sign > 0]
    nodes = pd.DataFrame({"subject": pd.unique(pd.concat([pos.a, pos.b]))})
    return small_frame(edges.sparkSession, CLUSTER_SCHEMA, _pivot_cluster(nodes, pdf))
