"""Fusion (§2.3): merge a linked source payload into the KG.

Simple facts fuse via a provenance-level outer join: the KG's
``sources``/``trust`` arrays are exploded to long form, combined with the
incoming payload (new assertions from the same source win), and
re-aggregated — either updating the provenance of an existing fact or
adding a new one.  Composite facts first go through *relationship-node
alignment*: a source relationship node merges with the KG node sharing
sufficient fact intersection, otherwise it is added as a new node.
``truth_discovery`` then refines per-fact confidence for conflicting
functional predicates by iterating source-reliability estimation (the
Dong/Rekatsinas line of work the paper cites).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, functions as F

from repro.core import schema as S

#: minimum fraction of a source relationship node's facts that must already
#: exist in a KG relationship node for the two to be deemed the same node.
REL_MERGE_THRESHOLD = 0.5


# --------------------------------------------------------------------------
# provenance long <-> array representations
# --------------------------------------------------------------------------

def to_long(kg_triples: DataFrame) -> DataFrame:
    """Explode fused triples to one row per (fact, source)."""
    return kg_triples.select(
        *S.FACT_KEY,
        F.explode(F.arrays_zip("sources", "trust")).alias("prov"),
    ).select(
        *S.FACT_KEY,
        F.col("prov.sources").alias("source"),
        F.col("prov.trust").alias("trust"),
    )


def to_kg(long: DataFrame) -> DataFrame:
    """Aggregate long provenance back to the KG array representation.

    Confidence is the independent-corroboration score
    ``1 − Π (1 − trust_i)`` (refined later by :func:`truth_discovery`).
    """
    return (
        long.groupBy(*S.FACT_KEY)
        .agg(
            F.array_sort(
                F.collect_list(F.struct("source", "trust"))
            ).alias("prov")
        )
        .select(
            *S.FACT_KEY,
            F.transform("prov", lambda x: x.source).alias("sources"),
            F.transform("prov", lambda x: x.trust).alias("trust"),
            (
                F.lit(1.0)
                - F.aggregate(
                    "prov",
                    F.lit(1.0),
                    lambda acc, x: acc * (F.lit(1.0) - x.trust),
                )
            ).alias("confidence"),
        )
    )


# --------------------------------------------------------------------------
# composite relationship-node alignment
# --------------------------------------------------------------------------

def align_relationship_nodes(src: DataFrame, kg_triples: DataFrame) -> DataFrame:
    """Remap source ``r_id``s onto KG ``r_id``s when the nodes are similar.

    Two relationship nodes are the same node when ≥ ``REL_MERGE_THRESHOLD``
    of the source node's (r_predicate, obj) facts already exist in the KG
    node (same subject + predicate).  Unmatched nodes keep their source
    ``r_id`` and become new relationship nodes (§2.3 Fusion).
    """
    src_comp = src.filter(F.col("r_id").isNotNull())
    if src_comp.isEmpty():
        return src
    kg_comp = kg_triples.filter(F.col("r_id").isNotNull()).select(
        "subject",
        "predicate",
        F.col("r_id").alias("kg_r_id"),
        "r_predicate",
        "obj",
    )
    overlap = (
        src_comp.join(kg_comp, ["subject", "predicate", "r_predicate", "obj"])
        .groupBy("subject", "predicate", "r_id", "kg_r_id")
        .agg(F.count("*").alias("n_shared"))
    )
    sizes = src_comp.groupBy("subject", "predicate", "r_id").agg(
        F.count("*").alias("n_src")
    )
    best = (
        overlap.join(sizes, ["subject", "predicate", "r_id"])
        .withColumn("ratio", F.col("n_shared") / F.col("n_src"))
        .filter(F.col("ratio") >= REL_MERGE_THRESHOLD)
        .groupBy("subject", "predicate", "r_id")
        .agg(F.min(F.struct(F.negate("ratio"), "kg_r_id")).alias("pick"))
        .select("subject", "predicate", "r_id", F.col("pick.kg_r_id").alias("mapped"))
    )
    remapped = (
        src.join(best, ["subject", "predicate", "r_id"], "left")
        .withColumn("r_id", F.coalesce("mapped", "r_id"))
        .drop("mapped")
    )
    return remapped


# --------------------------------------------------------------------------
# fuse / retract
# --------------------------------------------------------------------------

def fuse(kg_triples: DataFrame, src: DataFrame) -> DataFrame:
    """Fuse one linked source payload (single-source extended triples whose
    subjects are KG ids) into the KG — non-destructive: existing facts keep
    their other sources; re-assertions by the same source win over its own
    stale trust value."""
    src = align_relationship_nodes(src, kg_triples)
    incoming = src.select(*S.FACT_KEY, "source", "trust").withColumn(
        "is_new", F.lit(1)
    )
    existing = to_long(kg_triples).withColumn("is_new", F.lit(0))
    merged = (
        incoming.unionByName(existing)
        .groupBy(*S.FACT_KEY, "source")
        .agg(F.max(F.struct("is_new", "trust")).alias("w"))
        .select(*S.FACT_KEY, "source", F.col("w.trust").alias("trust"))
    )
    return to_kg(merged)


def retract_source(
    kg_triples: DataFrame, source: str, kg_subjects: DataFrame
) -> DataFrame:
    """Remove one source's provenance from the facts of given KG entities.

    Facts whose provenance becomes empty are dropped (on-demand deletion /
    license compliance, §1 req. 2).  ``kg_subjects`` is a single-column
    (``kg_subject``) frame.
    """
    long = to_long(kg_triples)
    targets = kg_subjects.select(F.col("kg_subject").alias("subject")).distinct()
    hit = long.join(targets, "subject", "left_semi").filter(
        F.col("source") != source
    )
    miss = long.join(targets, "subject", "left_anti")
    return to_kg(hit.unionByName(miss))


# --------------------------------------------------------------------------
# truth discovery / source reliability
# --------------------------------------------------------------------------

def _reliability(kg_triples: DataFrame, iters: int) -> tuple[DataFrame, DataFrame, DataFrame]:
    """The truth-discovery loop, as lazy plans:
    ``(claims, claim scores, source weights)`` after ``iters`` rounds.

    claim score  = Σ weight(supporting sources) / Σ weight(all sources
                   asserting *any* value for that (subject, predicate));
    source weight = mean claim score of the source's claims,
    initialized from declared trust.
    """
    func = list(S.FUNCTIONAL_PREDS)
    claims = to_long(
        kg_triples.filter(F.col("r_id").isNull() & F.col("predicate").isin(func))
    ).select("subject", "predicate", "obj", "source", "trust")
    weights = claims.groupBy("source").agg(F.avg("trust").alias("weight"))
    scored = None
    for _ in range(iters):
        w = claims.join(weights, "source")
        support = w.groupBy("subject", "predicate", "obj").agg(
            F.sum("weight").alias("w_support")
        )
        total = w.groupBy("subject", "predicate").agg(F.sum("weight").alias("w_total"))
        scored = support.join(total, ["subject", "predicate"]).withColumn(
            "claim_score", F.col("w_support") / F.col("w_total")
        )
        weights = (
            claims.join(scored, ["subject", "predicate", "obj"])
            .groupBy("source")
            .agg(F.avg("claim_score").alias("weight"))
        )
    return claims, scored, weights


def truth_discovery(kg_triples: DataFrame, *, iters: int = 2) -> DataFrame:
    """Refine confidence of functional-predicate facts by iterating
    source-reliability estimation (§2.3 Fusion): each fact with a claim
    score from :func:`_reliability` takes it as its confidence.
    Non-functional facts keep their corroboration confidence.
    """
    claims, scored, _ = _reliability(kg_triples, iters)
    if claims.isEmpty():
        return kg_triples
    final = scored.select("subject", "predicate", "obj", "claim_score")
    return (
        kg_triples.join(final, ["subject", "predicate", "obj"], "left")
        .withColumn(
            "confidence",
            F.when(
                F.col("r_id").isNull() & F.col("claim_score").isNotNull(),
                F.col("claim_score"),
            ).otherwise(F.col("confidence")),
        )
        .drop("claim_score")
    )


def source_reliability(kg_triples: DataFrame, *, iters: int = 3) -> DataFrame:
    """(source, weight) — the reliability estimates truth discovery infers."""
    _, _, weights = _reliability(kg_triples, iters)
    return weights
