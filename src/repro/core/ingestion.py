"""Source ingestion (§2.2): import → entity transform → ontology alignment
via Predicate Generation Functions (PGFs) → export as extended triples.

The pipeline is config-driven: a :class:`repro.kgdata.sources.SourceConfig`
declares the provider's column vocabulary; :func:`pgfs_for` derives the
alignment constructs (rename / combine) that populate the KG-ontology
schema.  All dataset-shaped work is Spark DataFrame transformations.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F, types as T

from repro.core import schema as S
from repro.kgdata.sources import SourceConfig, SourceSnapshot
from repro.sparktune import small_frame


class IntegrityError(ValueError):
    """Raised when a provider payload violates the Data Transformer
    integrity constraints (§2.2): duplicate/missing ids, empty predicate
    names, or predicates absent from the declared source schema."""


# --------------------------------------------------------------------------
# Predicate Generation Functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PGF:
    """One alignment construct mapping source columns → a KG predicate.

    ``kind='rename'`` maps one source column to ``target`` unchanged;
    ``kind='combine'`` concatenates several source columns with ``sep``
    (the paper's ``<title, sequel_number> → full_title`` example).
    """

    kind: str
    source_cols: tuple[str, ...]
    target: str
    sep: str = ": "

    def expr(self):
        if self.kind == "rename":
            return F.col(self.source_cols[0])
        if self.kind == "combine":
            return F.concat_ws(self.sep, *[F.col(c) for c in self.source_cols])
        raise ValueError(f"unknown PGF kind {self.kind!r}")


def pgfs_for(cfg: SourceConfig) -> list[PGF]:
    """Derive the PGF configuration for a provider.

    In production this is hand-written config; here it is the inverse of
    the provider's ``column_map``, plus a combine-PGF when the provider
    splits ``full_title``.
    """
    preds: set[str] = {S.NAME_PRED, S.TYPE_PRED}
    for t in cfg.types:
        preds.update(S.all_predicates(t))
    out: list[PGF] = []
    for p in sorted(preds):
        if p == "full_title" and cfg.split_full_title:
            out.append(PGF("combine", (cfg.col("title"), cfg.col("subtitle")), p))
        else:
            out.append(PGF("rename", (cfg.col(p),), p))
    return out


# --------------------------------------------------------------------------
# Pipeline stages
# --------------------------------------------------------------------------

class IngestionPipeline:
    """One provider's pluggable ingestion pipeline (Fig 3).

    ``run`` executes import → transform → align → export and returns the
    stable extended-triples payload plus the volatile full dump.
    """

    def __init__(self, spark: SparkSession, cfg: SourceConfig):
        self.spark = spark
        self.cfg = cfg
        self.pgfs = pgfs_for(cfg)

    # -- Import: raw artifacts → unified row dataset ---------------------
    def import_snapshot(self, snap: SourceSnapshot) -> DataFrame:
        """Read the provider's raw artifacts into a unified wide dataset.

        Importers normalize upstream heterogeneity; this one joins the
        entity artifact with nothing else (rels/popularity are exported
        separately), and forces every column to string so downstream
        stages see one representation regardless of upstream typing.
        """
        return self._pdf_to_sdf(snap.entities)

    def _pdf_to_sdf(self, pdf: pd.DataFrame) -> DataFrame:
        if pdf.empty:
            return small_frame(self.spark, "id string")
        pdf = pdf.astype(object).where(pd.notna(pdf), None)
        pdf = pdf.map(lambda v: None if v is None else str(v))
        schema = T.StructType(
            [T.StructField(c, T.StringType(), True) for c in pdf.columns]
        )
        return small_frame(self.spark, schema, pdf)

    # -- Entity Transform: entity-centric view + integrity checks --------
    def entity_transform(self, rows: DataFrame) -> DataFrame:
        """Produce the entity-centric view and enforce §2.2 invariants."""
        if "id" not in rows.columns:
            raise IntegrityError(f"{self.cfg.name}: payload has no ID predicate")
        if len(rows.columns) != len(set(rows.columns)):
            dupes = sorted({c for c in rows.columns if rows.columns.count(c) > 1})
            raise IntegrityError(f"{self.cfg.name}: duplicate predicate names {dupes}")
        if any(not c or not c.strip() for c in rows.columns):
            raise IntegrityError(f"{self.cfg.name}: empty predicate name")
        # one action: per-id record counts give both the null-id records
        # and up to five duplicated ids
        n_null, dup = (
            rows.groupBy("id")
            .count()
            .agg(
                F.sum(F.when(F.col("id").isNull(), F.col("count"))),
                F.slice(
                    F.array_sort(F.collect_list(
                        F.when(F.col("count") > 1, F.col("id"))
                    )),
                    1,
                    5,
                ),
            )
            .first()
        )
        if n_null:
            raise IntegrityError(f"{self.cfg.name}: {n_null} records without ID")
        if dup:
            raise IntegrityError(
                f"{self.cfg.name}: non-unique entity IDs, e.g. {dup}"
            )
        return rows

    # -- Ontology Alignment: PGFs populate the KG-ontology schema --------
    def align(self, entities: DataFrame) -> DataFrame:
        """Apply PGFs; output columns are KG-ontology predicates.

        Subjects stay in the source namespace (linking assigns KG ids
        later, §2.2); missing source columns yield null predicates, which
        the export stage drops.
        """
        cols = [F.col("id")]
        present = set(entities.columns)
        for pgf in self.pgfs:
            if all(c in present for c in pgf.source_cols):
                cols.append(pgf.expr().alias(pgf.target))
            else:
                cols.append(F.lit(None).cast("string").alias(pgf.target))
        out = entities.select(*cols)
        # combine-PGFs on all-null inputs produce '' — normalize to null
        return out.select(
            "id",
            *[
                F.when(F.col(c) == "", None).otherwise(F.col(c)).alias(c)
                for c in out.columns
                if c != "id"
            ],
        )

    # -- Export: extended triples in the KG-ontology schema --------------
    def export_triples(self, aligned: DataFrame, rels: DataFrame) -> DataFrame:
        """Unpivot aligned entities + composite rels into extended triples.

        Composite relationship rows get a deterministic ``r_id`` in the
        source namespace (``<id>#<predicate>#<idx>``) — the triplication
        that spares knowledge construction a self-join (§2.4 Lightweight
        Ingestion).
        """
        pred_cols = [c for c in aligned.columns if c != "id"]
        pairs = ", ".join(f"'{c}', `{c}`" for c in pred_cols)
        flat = (
            aligned.select(
                F.col("id").alias("subject"),
                F.expr(f"stack({len(pred_cols)}, {pairs}) as (predicate, obj)"),
            )
            .filter(F.col("obj").isNotNull())
            .select(
                "subject",
                "predicate",
                F.lit(None).cast("string").alias("r_id"),
                F.lit(None).cast("string").alias("r_predicate"),
                "obj",
            )
        )
        if "predicate" in rels.columns:
            comp = rels.select(
                F.col("id").alias("subject"),
                F.col("predicate"),
                F.concat_ws("#", "id", "predicate", "r_idx").alias("r_id"),
                F.col("r_predicate"),
                F.col("obj").cast("string").alias("obj"),
            )
        else:  # provider publishes no composite relationships at all
            comp = small_frame(
                self.spark,
                "subject string, predicate string, r_id string, "
                "r_predicate string, obj string",
            )
        return (
            flat.unionByName(comp)
            .withColumn("locale", F.lit(S.DEFAULT_LOCALE))
            .withColumn("source", F.lit(self.cfg.name))
            .withColumn("trust", F.lit(float(self.cfg.trust)))
        )

    def run(self, snap: SourceSnapshot) -> tuple[DataFrame, DataFrame]:
        """Full pipeline → (stable extended triples, volatile triples)."""
        rows = self.import_snapshot(snap)
        if snap.entities.empty:
            empty = small_frame(self.spark, S.SOURCE_TRIPLE_SCHEMA)
            return empty, empty
        entities = self.entity_transform(rows)
        aligned = self.align(entities)
        rels = self._pdf_to_sdf(snap.rels)
        triples = self.export_triples(aligned, rels)
        volatile = (
            self._pdf_to_sdf(snap.popularity)
            .select(
                F.col("id").alias("subject"),
                F.lit("popularity").alias("predicate"),
                F.lit(None).cast("string").alias("r_id"),
                F.lit(None).cast("string").alias("r_predicate"),
                F.col("popularity").alias("obj"),
                F.lit(S.DEFAULT_LOCALE).alias("locale"),
                F.lit(self.cfg.name).alias("source"),
                F.lit(float(self.cfg.trust)).alias("trust"),
            )
        )
        return triples, volatile
