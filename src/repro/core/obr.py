"""Object Resolution (§2.3): map string-literal objects of entity-valued
predicates onto KG entity identifiers using the NERD stack (§5.2).

The distinct literal values of resolvable slots are collected (they are a
small set relative to the triple payload), disambiguated on the driver via
the NERD index with ontology type hints, and mapped back into the payload
with a broadcast join — the batch-deployment shape of Fig 10 at
reproduction scale.  Unresolved literals stay literal; OBR never destroys
information.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, functions as F

from repro.core import schema as S
from repro.ml.nerd import EntityRecord, NERDIndex, NERD_CONFIG
from repro.sparktune import small_frame


def build_resolver(kg_records: DataFrame) -> NERDIndex | None:
    """NERD index over the KG's match records (None when the KG is empty).

    ``kg_records`` is ``match_records`` of the claims ledger (or of the
    fused triples, which give the same records): one row per entity with
    its surface forms and type, all that OBR's disambiguation reads (it
    passes no mention context, so neighbours and descriptions would go
    unused).
    """
    rows = kg_records.select("subject", "aliases", "etype").collect()
    if not rows:
        return None
    return NERDIndex(
        [EntityRecord(r.subject, r.aliases, [r.etype] if r.etype else []) for r in rows]
    )


def resolve_objects(
    src_triples: DataFrame,
    resolver: NERDIndex | None,
    *,
    threshold: float = 0.7,
) -> DataFrame:
    """Rewrite resolvable objects to KG ids where NERD is confident.

    Resolvable slots: simple facts whose predicate is entity-valued in the
    ontology, and composite facts whose ``r_predicate`` is (e.g. the
    ``school`` of an ``educated_at`` node).  The ontology target type is
    passed to NERD as a hint (the high-precision Fig 14b configuration).
    """
    if resolver is None:
        return src_triples
    slot = F.coalesce("r_predicate", "predicate")
    resolvable = list(S.REF_TARGET_TYPE)
    todo = (
        src_triples.filter(slot.isin(resolvable))
        .select(slot.alias("slot"), "obj")
        .distinct()
        .toPandas()
    )
    if todo.empty:
        return src_triples
    rows = []
    for r in todo.itertuples(index=False):
        pred = resolver.disambiguate(
            r.obj, type_hint=S.REF_TARGET_TYPE[r.slot], config=NERD_CONFIG
        )
        if pred.entity_id is not None and pred.confidence >= threshold:
            rows.append((r.slot, r.obj, pred.entity_id))
    if not rows:
        return src_triples
    mapping = small_frame(
        src_triples.sparkSession,
        "slot string, obj string, resolved string",
        pd.DataFrame(rows, columns=["slot", "obj", "resolved"]),
    )
    out = (
        src_triples.withColumn("slot", slot)
        .join(F.broadcast(mapping), ["slot", "obj"], "left")
        .withColumn("obj", F.coalesce("resolved", "obj"))
        .drop("slot", "resolved")
    )
    return out
