"""Delta computation (§2.2, §2.4): eager change detection between the last
source snapshot consumed by the KG and the provider's current snapshot.

Entities are fingerprinted by an order-independent hash of their stable
facts; a full outer join of fingerprints splits the payload into the
*Added / Deleted / Updated* partitions the construction pipeline consumes.
Volatile predicates are excluded by construction (they are published as a
separate full dump and fused by partition overwrite).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, functions as F

from repro.sparktune import small_frame


@dataclass
class Delta:
    """Partitioned source payload.

    ``added``/``updated`` carry full extended-triple payloads for the
    affected entities; ``deleted`` carries only the source-namespace ids
    (their facts are retired from the KG by provenance removal).
    """

    added: DataFrame
    updated: DataFrame
    deleted: DataFrame  # single column: subject

    def counts(self) -> dict[str, int]:
        return {
            "added_entities": self.added.select("subject").distinct().count(),
            "updated_entities": self.updated.select("subject").distinct().count(),
            "deleted_entities": self.deleted.count(),
        }


def entity_fingerprints(triples: DataFrame) -> DataFrame:
    """(subject, fingerprint): order-independent hash of an entity's facts.

    Per-fact hashes are reduced mod 2³² before summing so the aggregate
    stays inside a long under ANSI arithmetic (Spark 4 default).
    """
    return triples.groupBy("subject").agg(
        F.sum(
            F.pmod(
                F.xxhash64("predicate", "r_id", "r_predicate", "obj", "locale"),
                F.lit(2**32),
            )
        ).alias("fingerprint")
    )


def compute_delta(prev: DataFrame | None, cur: DataFrame) -> Delta:
    """Split ``cur`` against ``prev`` into Added/Deleted/Updated partitions.

    ``prev=None`` models onboarding a brand-new source: a full *Added*
    payload with empty *Deleted*/*Updated* (§2.4).
    """
    if prev is None:
        empty_ids = small_frame(cur.sparkSession, "subject string")
        return Delta(added=cur, updated=cur.limit(0), deleted=empty_ids)

    fp_prev = entity_fingerprints(prev).withColumnRenamed("fingerprint", "fp_prev")
    fp_cur = entity_fingerprints(cur).withColumnRenamed("fingerprint", "fp_cur")
    j = fp_prev.join(fp_cur, "subject", "full_outer")

    added_ids = j.filter(F.col("fp_prev").isNull()).select("subject")
    deleted_ids = j.filter(F.col("fp_cur").isNull()).select("subject")
    updated_ids = j.filter(
        F.col("fp_prev").isNotNull()
        & F.col("fp_cur").isNotNull()
        & (F.col("fp_prev") != F.col("fp_cur"))
    ).select("subject")

    return Delta(
        added=cur.join(added_ids, "subject", "left_semi"),
        updated=cur.join(updated_ids, "subject", "left_semi"),
        deleted=deleted_ids,
    )
