"""Linking (§2.3): in-source deduplication + subject linking in one pass.

The source payload (which may contain duplicates) is combined with the
per-type KG view into one record set; blocking → pair generation →
matching → correlation clustering then produce entity clusters.  Every
cluster maps to either the single KG entity it contains or a freshly
minted deterministic KG id; ``same_as`` facts record the decisions for
provenance (§2.3 step 5).

Entity types are processed in one Spark DAG: block keys are namespaced by
type and per-type matching models are applied via a piecewise scoring
expression, so "per-type pipelines" run as parallel partitions of a single
job rather than sequential driver loops.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, functions as F

from repro.core import schema as S
from repro.core.blocking import candidate_pairs
from repro.core.clustering import cluster_entities
from repro.core.matching import (
    MODELS_BY_TYPE,
    DEFAULT_MODEL,
    featurize_pairs,
    match_records,
)

#: global signed-edge cutoffs (per-model calibrated probabilities)
HI, LO = 0.9, 0.3


@dataclass
class LinkResult:
    """Outcome of linking one source payload against the KG.

    ``link_map``: (subject, kg_subject) for *every* source entity in the
    payload.  ``same_as``: extended triples recording the linkage.
    """

    link_map: DataFrame
    same_as: DataFrame


def score_by_type(features: DataFrame) -> DataFrame:
    """Apply the per-entity-type matching model as one piecewise column."""
    z = DEFAULT_MODEL.z(F.col)
    expr = None
    for etype, model in MODELS_BY_TYPE.items():
        branch = (F.col("etype") == etype, model.z(F.col))
        expr = F.when(*branch) if expr is None else expr.when(*branch)
    z = expr.otherwise(z) if expr is not None else z
    return features.withColumn("prob", F.lit(1.0) / (F.lit(1.0) + F.exp(-z)))


def link_source(
    source_triples: DataFrame,
    kg_records: DataFrame,
    *,
    source_name: str,
    trust: float,
    learned=None,
) -> LinkResult:
    """Link one source payload against the current KG.

    ``kg_records`` is ``match_records(kg_triples)`` — computed once per
    construction tick by the caller and shared across the parallel source
    pipelines (§2.4 inter-source parallelism).
    """
    src_records = match_records(source_triples)
    combined = src_records.unionByName(kg_records).localCheckpoint(eager=True)

    pairs = candidate_pairs(combined).filter(
        ~(F.col("a").startswith("kg:") & F.col("b").startswith("kg:"))
    )
    feats = featurize_pairs(pairs, combined, learned=learned)
    etype_of = combined.select(F.col("subject").alias("a"), "etype")
    scored = score_by_type(feats.join(etype_of, "a", "left"))

    clusters = cluster_entities(scored, hi=HI, lo=LO).localCheckpoint(eager=True)

    kg_member = (
        clusters.filter(F.col("subject").startswith("kg:"))
        .groupBy("cluster")
        .agg(F.min("subject").alias("kg_subject"))
    )
    src_rep = (
        clusters.filter(~F.col("subject").startswith("kg:"))
        .groupBy("cluster")
        .agg(F.min("subject").alias("rep"))
    )
    target = src_rep.join(kg_member, "cluster", "left").select(
        "cluster",
        F.coalesce("kg_subject", F.concat(F.lit("kg:"), F.col("rep"))).alias(
            "kg_subject"
        ),
    )
    linked = (
        clusters.filter(~F.col("subject").startswith("kg:"))
        .join(target, "cluster")
        .select("subject", "kg_subject")
    )
    singletons = (
        src_records.select("subject")
        .join(clusters.select("subject"), "subject", "left_anti")
        .withColumn("kg_subject", F.concat(F.lit("kg:"), F.col("subject")))
    )
    link_map = linked.unionByName(singletons)

    same_as = link_map.select(
        F.col("kg_subject").alias("subject"),
        F.lit(S.SAME_AS_PRED).alias("predicate"),
        F.lit(None).cast("string").alias("r_id"),
        F.lit(None).cast("string").alias("r_predicate"),
        F.col("subject").alias("obj"),
        F.lit(S.DEFAULT_LOCALE).alias("locale"),
        F.lit(source_name).alias("source"),
        F.lit(float(trust)).alias("trust"),
    )
    return LinkResult(link_map=link_map, same_as=same_as)
