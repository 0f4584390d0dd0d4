"""Hybrid batch-incremental knowledge construction (§2.4, Fig 5).

``ConstructionPipeline.consume_tick`` drives one construction round:
every source's delta payload is processed through its own pipeline
(Added → full linking; Updated/Deleted → link lookup only), fusion is the
synchronization point (source payloads fuse one at a time), and volatile
predicates fuse last via per-source partition overwrite — exactly the
paper's parallelization structure.  Onboarding a brand-new source is a
full *Added* payload (``compute_delta(None, ...)``).

State (:class:`KnowledgeGraph`) is locally checkpointed after each tick so
the incremental loop does not accumulate Spark lineage.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core import schema as S
from repro.core.delta import Delta
from repro.core.fusion import fuse, retract_source, truth_discovery
from repro.core.linking import link_source
from repro.core.matching import match_records
from repro.core.obr import build_resolver, resolve_objects
from repro.sparktune import small_frame, tune

LINK_SCHEMA = "subject string, kg_subject string"


@dataclass
class KnowledgeGraph:
    """Construction state: fused stable triples, the persistent link map
    (source-namespace subject → KG id), and per-source volatile partitions."""

    triples: DataFrame
    links: DataFrame
    volatile: dict[str, DataFrame]

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
        links=small_frame(spark, LINK_SCHEMA),
        volatile={},
    )


@dataclass
class SourcePayload:
    """One source's tick input: its config, stable delta, volatile dump."""

    cfg: object  # SourceConfig
    delta: Delta
    volatile: DataFrame | None = None


class ConstructionPipeline:
    """Continuously-running delta-based construction (§2.4)."""

    def __init__(
        self,
        spark: SparkSession,
        *,
        learned=None,
        obr_enabled: bool = True,
    ):
        self.spark = tune(spark, shuffle_partitions=None)
        self.learned = learned
        self.obr_enabled = obr_enabled

    # -- per-source pipeline ------------------------------------------------
    def consume_source(
        self,
        kg: KnowledgeGraph,
        payload: SourcePayload,
        kg_records: DataFrame,
        resolver=None,
    ) -> KnowledgeGraph:
        """Process one source's Added/Updated/Deleted payloads and fuse.

        Each expensive payload is materialized exactly once (eager local
        checkpoint) before reuse: with per-action scheduling cost dominating
        at reproduction scale, repeated lineage re-evaluation — not data
        volume — is what would blow up construction time.
        """
        cfg, delta = payload.cfg, payload.delta
        src_name = cfg.name

        added = delta.added.localCheckpoint(eager=True)
        updated = delta.updated.localCheckpoint(eager=True)
        deleted = delta.deleted.localCheckpoint(eager=True)
        n_added, n_updated, n_deleted = added.count(), updated.count(), deleted.count()

        # -- Added: full linking against the KG view (all pipeline stages)
        add_links = None
        if n_added:
            res = link_source(
                added,
                kg_records,
                source_name=src_name,
                trust=cfg.trust,
            )
            add_links = res.link_map.localCheckpoint(eager=True)
            add_same_as = res.same_as

        # -- Updated/Deleted: entities were previously linked — lookup only
        upd_links = (
            updated.select("subject")
            .distinct()
            .join(kg.links, "subject", "left")
            # robustness: an updated entity missing from the link map is
            # minted a deterministic new id (its Add was never consumed)
            .withColumn(
                "kg_subject",
                F.coalesce("kg_subject", F.concat(F.lit("kg:"), F.col("subject"))),
            )
            .localCheckpoint(eager=True)
        )
        del_targets = deleted.join(kg.links, "subject").select("kg_subject")

        # -- retire this source's assertions about deleted + updated entities
        triples = kg.triples
        if n_deleted or n_updated:
            targets = del_targets.unionByName(upd_links.select("kg_subject"))
            triples = retract_source(triples, src_name, targets)

        # -- rewrite payload subjects into the KG namespace
        def rewrite(payload_triples: DataFrame, links: DataFrame) -> DataFrame:
            return (
                payload_triples.join(links, "subject")
                .drop("subject")
                .withColumnRenamed("kg_subject", "subject")
                .select(*S.FACT_KEY, "source", "trust")
            )

        to_fuse = []
        if add_links is not None:
            to_fuse.append(rewrite(added, add_links))
            to_fuse.append(add_same_as.select(*S.FACT_KEY, "source", "trust"))
        if n_updated:
            to_fuse.append(rewrite(updated, upd_links))
        new_links = kg.links
        if n_deleted:
            new_links = new_links.join(deleted, "subject", "left_anti")
        if add_links is not None:
            new_links = new_links.unionByName(add_links).dropDuplicates(["subject"])

        if to_fuse:
            incoming = to_fuse[0]
            for df in to_fuse[1:]:
                incoming = incoming.unionByName(df)
            # Object Resolution on the incoming payload (§2.3)
            if self.obr_enabled:
                incoming = resolve_objects(incoming, resolver)
            triples = fuse(triples, incoming)

        # -- volatile partition overwrite (§2.4): cheap fusion path
        volatile = dict(kg.volatile)
        if payload.volatile is not None:
            volatile[src_name] = (
                payload.volatile.join(new_links, "subject")
                .drop("subject")
                .withColumnRenamed("kg_subject", "subject")
                .select(*S.FACT_KEY, "source", "trust")
            )

        return KnowledgeGraph(triples=triples, links=new_links, volatile=volatile)

    # -- one construction round over all sources ----------------------------
    def consume_tick(
        self, kg: KnowledgeGraph, payloads: list[SourcePayload]
    ) -> KnowledgeGraph:
        """Consume every source's delta; fusion is the sync point (Fig 5).

        The per-type KG view for linking is refreshed after each fusion so
        that two sources onboarding the same new entity in one tick still
        deduplicate (the paper fuses "source payloads one at a time").  The
        OBR resolver is built once per tick from the tick-start KG — new
        entities land in the resolver at the next tick, mirroring the
        freshness semantics of an engine-maintained NERD view (§5.2).
        Truth discovery closes the tick; only the triples it refines are
        checkpointed again.
        """
        resolver = build_resolver(kg.triples, learned=self.learned) if self.obr_enabled else None
        for payload in payloads:
            kg_records = match_records(kg.triples).localCheckpoint(eager=True)
            kg = self.consume_source(kg, payload, kg_records, resolver)
            kg = self._materialize(kg)
        refined = truth_discovery(kg.triples).localCheckpoint(eager=True)
        return replace(kg, triples=refined)

    def _materialize(self, kg: KnowledgeGraph) -> KnowledgeGraph:
        """Truncate lineage so tick-over-tick iteration stays bounded."""
        return KnowledgeGraph(
            triples=kg.triples.localCheckpoint(eager=True),
            links=kg.links.localCheckpoint(eager=True),
            volatile={
                k: v.localCheckpoint(eager=True) for k, v in kg.volatile.items()
            },
        )
