"""Shared experiment utilities: ground-truth KG materialization and
table formatting."""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import schema as S
from repro.kgdata.universe import Universe


def kg_from_universe(
    spark: SparkSession, uni: Universe, *, n_sources: int = 3, seed: int = 3
) -> DataFrame:
    """Materialize the ground-truth universe as a fused KG (extended
    triples with provenance arrays) — the direct input for engine/view/ML
    experiments that do not themselves measure construction.

    Subjects use the KG namespace ``kg:<eid>``; entity-valued objects are
    resolved KG ids (as post-OBR); provenance simulates ``n_sources``
    contributing sources per fact.
    """
    g = np.random.default_rng(seed)
    rows: list[tuple] = []

    def prov() -> tuple[list[str], list[float]]:
        k = int(g.integers(1, n_sources + 1))
        srcs = sorted(g.choice([f"src{i}" for i in range(n_sources)], size=k, replace=False))
        return list(srcs), [round(0.7 + 0.3 * g.random(), 3) for _ in srcs]

    def add(subj, pred, obj, r_id=None, r_pred=None):
        ss, tt = prov()
        conf = 1.0 - float(np.prod([1 - t for t in tt]))
        rows.append((subj, pred, r_id, r_pred, str(obj), S.DEFAULT_LOCALE, ss, tt, conf))

    for eid, etype, name in zip(uni.entities.eid, uni.entities.type, uni.entities.name):
        subj = f"kg:{int(eid)}"
        add(subj, S.TYPE_PRED, etype)
        add(subj, S.NAME_PRED, name)
        for al in uni.aliases_of(int(eid))[1:]:
            add(subj, S.ALIAS_PRED, al)
    for eid, pred, obj, obj_eid in zip(
        uni.attrs.eid, uni.attrs.predicate, uni.attrs.obj, uni.attrs.obj_eid
    ):
        subj = f"kg:{int(eid)}"
        if pd.notna(obj_eid):
            add(subj, pred, f"kg:{int(obj_eid)}")
        else:
            add(subj, pred, obj)
    for eid, pred, r_idx, r_pred, obj, obj_eid in zip(
        uni.rels.eid, uni.rels.predicate, uni.rels.r_idx,
        uni.rels.r_predicate, uni.rels.obj, uni.rels.obj_eid,
    ):
        subj = f"kg:{int(eid)}"
        r_id = f"{subj}#{pred}#{int(r_idx)}"
        val = f"kg:{int(obj_eid)}" if pd.notna(obj_eid) else obj
        add(subj, pred, val, r_id=r_id, r_pred=r_pred)
    pdf = pd.DataFrame(
        rows,
        columns=[
            "subject", "predicate", "r_id", "r_predicate", "obj",
            "locale", "sources", "trust", "confidence",
        ],
    )
    return spark.createDataFrame(pdf, schema=S.KG_TRIPLE_SCHEMA)


def table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width ASCII table (printed into bench/test output files)."""
    cols = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    def fmt(r):
        return "  ".join(str(c).ljust(w) for c, w in zip(r, widths))
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows])
