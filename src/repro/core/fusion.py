"""Fusion (§2.3): the fused KG derived from a record-scoped claims ledger.

The ledger holds one row per (fact, source, source record, trust), in the
KG namespace.  A source payload replaces the ledger rows of its records
(:func:`retract_source`, then :func:`fuse`), and :func:`to_kg` aggregates
the ledger into fused triples whose ``sources``/``trust`` arrays carry one
entry per asserting source.  Composite facts first go through
*relationship-node alignment*: a source relationship node merges with the
KG node sharing sufficient fact intersection, otherwise it is added as a
new node.  ``truth_discovery`` then refines per-fact confidence for
conflicting functional predicates by iterating source-reliability
estimation (the Dong/Rekatsinas line of work the paper cites).
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


def to_kg(claims: DataFrame) -> DataFrame:
    """Aggregate claims (long provenance or the ledger) to the KG array
    representation, one (source, trust) entry per fact and source: a
    source asserting a fact through several records counts once, at its
    highest trust.

    Confidence is the independent-corroboration score
    ``1 − Π (1 − trust_i)`` (refined later by :func:`truth_discovery`).
    """
    return (
        claims.groupBy(*S.FACT_KEY, "source")
        .agg(F.max("trust").alias("trust"))
        .groupBy(*S.FACT_KEY)
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

def align_relationship_nodes(src: DataFrame, kg: DataFrame) -> DataFrame:
    """Remap source ``r_id``s onto KG ``r_id``s when the nodes are similar.

    Two relationship nodes are the same node when ≥ ``REL_MERGE_THRESHOLD``
    of the source node's (r_predicate, obj) facts already exist in the KG
    node (same subject + predicate).  Unmatched nodes keep their source
    ``r_id`` and become new relationship nodes (§2.3 Fusion).  ``kg`` is
    the fused KG or the ledger; a fact counts once however many claims
    assert it.
    """
    src_comp = src.filter(F.col("r_id").isNotNull())
    kg_comp = (
        kg.filter(F.col("r_id").isNotNull())
        .select(*S.FACT_KEY)
        .distinct()
        .select("subject", "predicate", F.col("r_id").alias("kg_r_id"), "r_predicate", "obj")
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
# the claims ledger
# --------------------------------------------------------------------------

def retract_source(ledger: DataFrame, source: str, records: DataFrame) -> DataFrame:
    """Drop the claims ``source`` made through ``records`` (a ``subject``
    column of source-namespace record ids).  A fact no other claim asserts
    leaves the fused KG (on-demand deletion / license compliance, §1
    req. 2); other records of the source keep their claims, also on the
    same KG entity."""
    gone = records.select(
        F.lit(source).alias("source"), F.col("subject").alias("record")
    )
    return ledger.join(gone, ["source", "record"], "left_anti")


def fuse(ledger: DataFrame, claims: DataFrame) -> DataFrame:
    """Add one linked source payload's claims (ledger rows whose subjects
    are KG ids) to the ledger, non-destructively: other sources' claims on
    the same facts stay, and :func:`to_kg` derives the fused triples."""
    aligned = align_relationship_nodes(claims, ledger)
    return ledger.unionByName(aligned.select(*ledger.columns))


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
    _, scored, _ = _reliability(kg_triples, iters)
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
