"""Hybrid batch-incremental knowledge construction (§2.4, Fig 5).

``ConstructionPipeline.consume_tick`` drives one construction round:
every source's delta payload is processed through its own pipeline
(Added → full linking; Updated → link lookup), fusion is the
synchronization point (source payloads fuse one at a time), and volatile
predicates fuse last via per-source partition overwrite — exactly the
paper's parallelization structure.  Onboarding a brand-new source is a
full *Added* payload (``compute_delta(None, ...)``).

A payload replaces the claims of its records, whatever their kind, in the
record-scoped claims ledger (:mod:`repro.core.fusion`); the link map is
read from the ledger, and the fused triples are derived from it once, when
the tick closes.  The state that a payload changes is locally
checkpointed, so the incremental loop does not accumulate Spark lineage.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core import schema as S
from repro.core.delta import Delta
from repro.core.fusion import fuse, retract_source, to_kg, truth_discovery
from repro.core.linking import link_source, same_as_facts
from repro.core.matching import match_records
from repro.core.obr import build_resolver, resolve_objects
from repro.sparktune import small_frame, tune

LEDGER_SCHEMA = (
    "subject string, predicate string, r_id string, r_predicate string, "
    "obj string, locale string, source string, record string, trust double"
)


@dataclass
class KnowledgeGraph:
    """Construction state: the claims ledger (one row per KG-namespace fact,
    source, source record and trust, after OBR and relationship-node
    alignment), the fused stable triples derived from it, and per-source
    volatile partitions.  Mid-tick, after a payload has changed the ledger,
    ``triples`` are still the tick-start triples; ``consume_tick`` derives
    them again when the tick closes."""

    triples: DataFrame
    volatile: dict[str, DataFrame]
    ledger: DataFrame

    @property
    def links(self) -> DataFrame:
        """The link map (source-namespace subject → KG id): each record's
        ``same_as`` claim."""
        return self.ledger.filter(F.col("predicate") == S.SAME_AS_PRED).select(
            F.col("record").alias("subject"), F.col("subject").alias("kg_subject")
        )

    def all_triples(self) -> DataFrame:
        """Stable KG plus volatile partitions, in the fused schema."""
        out = self.triples
        for vol in self.volatile.values():
            out = out.unionByName(
                vol.select(
                    *S.FACT_KEY,
                    F.array("source").alias("sources"),
                    F.array("trust").alias("trust"),
                    F.col("trust").alias("confidence"),
                )
            )
        return out

    def counts(self) -> dict[str, int]:
        t = self.all_triples()
        return {
            "facts": t.count(),
            "entities": t.filter(F.col("predicate") == S.TYPE_PRED)
            .select("subject")
            .distinct()
            .count(),
        }


def empty_kg(spark: SparkSession) -> KnowledgeGraph:
    return KnowledgeGraph(
        triples=small_frame(spark, S.KG_TRIPLE_SCHEMA),
        volatile={},
        ledger=small_frame(spark, LEDGER_SCHEMA),
    )


@dataclass
class SourcePayload:
    """One source's tick input: its config, stable delta, volatile dump."""

    cfg: object  # SourceConfig
    delta: Delta
    volatile: DataFrame | None = None


class ConstructionPipeline:
    """Continuously-running delta-based construction (§2.4)."""

    def __init__(self, spark: SparkSession, *, obr_enabled: bool = True):
        self.spark = tune(spark, shuffle_partitions=None)
        self.obr_enabled = obr_enabled

    # -- per-source pipeline ------------------------------------------------
    def consume_source(
        self, kg: KnowledgeGraph, payload: SourcePayload, kg_records: DataFrame
    ) -> KnowledgeGraph:
        """Replace one source's claims (``same_as`` links included) for the
        records of its Added, Updated and Deleted payloads in the ledger.

        Added records are linked, and reference literals resolved (OBR),
        against ``kg_records``: the ledger's match records before this
        payload.  Updated records keep the KG ids the link map gave them;
        Deleted records only lose their claims.  Each delta partition is
        materialized once (eager local checkpoint) before reuse: with
        per-action scheduling cost dominating at reproduction scale,
        repeated lineage re-evaluation — not data volume — is what would
        blow up construction time.
        """
        cfg, delta = payload.cfg, payload.delta
        added = delta.added.localCheckpoint(eager=True)
        updated = delta.updated.localCheckpoint(eager=True)
        deleted = delta.deleted.localCheckpoint(eager=True)
        records = (
            added.select("subject").unionByName(updated.select("subject")).unionByName(deleted)
        )

        rec_links = (
            updated.select("subject")
            .distinct()
            .join(kg.links, "subject", "left")
            # robustness: an updated entity missing from the link map is
            # minted a deterministic new id (its Add was never consumed)
            .withColumn(
                "kg_subject",
                F.coalesce("kg_subject", F.concat(F.lit("kg:"), F.col("subject"))),
            )
        )
        if not added.isEmpty():
            rec_links = rec_links.unionByName(link_source(added, kg_records))
        # checkpointed: used three times below, and with this lineage left
        # in, the claims plan (which joins ``updated`` with a frame derived
        # from it) fails to bind an attribute (``key not found``)
        rec_links = rec_links.localCheckpoint(eager=True)

        # the records' claims in the KG namespace, each with its same_as fact
        claims = (
            added.unionByName(updated)
            .join(rec_links, "subject")
            .select(
                F.col("kg_subject").alias("subject"),
                *S.FACT_KEY[1:],
                "source",
                F.col("subject").alias("record"),
                "trust",
            )
            .unionByName(
                same_as_facts(rec_links, source_name=cfg.name, trust=cfg.trust)
                .withColumn("record", F.col("obj"))
            )
        )
        # Object Resolution on the incoming payload (§2.3)
        if self.obr_enabled:
            claims = resolve_objects(claims, build_resolver(kg_records))
        ledger = fuse(retract_source(kg.ledger, cfg.name, records), claims)
        ledger = ledger.localCheckpoint(eager=True)

        # -- volatile partition overwrite (§2.4): cheap fusion path
        out = replace(kg, ledger=ledger, volatile=dict(kg.volatile))
        if payload.volatile is not None:
            out.volatile[cfg.name] = (
                payload.volatile.join(out.links, "subject")
                .drop("subject")
                .withColumnRenamed("kg_subject", "subject")
                .select(*S.FACT_KEY, "source", "trust")
                .localCheckpoint(eager=True)
            )
        return out

    # -- one construction round over all sources ----------------------------
    def consume_tick(
        self, kg: KnowledgeGraph, payloads: list[SourcePayload]
    ) -> KnowledgeGraph:
        """Consume every source's delta; fusion is the sync point (Fig 5).

        Source payloads change the ledger one at a time (the paper fuses
        "source payloads one at a time"), and each payload's linking and
        OBR read one view of it: the match records of the ledger as the
        previous payloads left it.  So two sources onboarding the same new
        entity in one tick still deduplicate, and a reference in a later
        payload resolves to an entity an earlier payload brought in.  The
        match records are the same as those of the fused triples:
        :func:`to_kg` only groups the ledger by fact.  The tick closes
        with the one derivation of the fused triples, refined by truth
        discovery and checkpointed.
        """
        for payload in payloads:
            kg_records = match_records(kg.ledger).localCheckpoint(eager=True)
            kg = self.consume_source(kg, payload, kg_records)
        refined = truth_discovery(to_kg(kg.ledger)).localCheckpoint(eager=True)
        return replace(kg, triples=refined)
