"""Analytics store (§3.1.1): the read-optimized relational warehouse that
holds the KG's extended triples.

Implemented over the local filesystem as versioned parquet snapshots; a
staged KG (``KnowledgeGraph.all_triples``) already carries the per-source
volatile partitions.  ``AnalyticsStoreAgent`` is the orchestration agent
that replays ingest operations from the shared log into the store; updates
are batched (one version per ingest op), matching the paper's "updates to
the engine are batched for performance".
"""
from __future__ import annotations

from pathlib import Path

from pyspark.sql import DataFrame, SparkSession

from repro.engine.log import OrchestrationAgent


class AnalyticsStore:
    """Versioned extended-triples warehouse over parquet."""

    def __init__(self, spark: SparkSession, root: str | Path):
        self.spark = spark
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- writes (driven by the orchestration agent) ----------------------
    def write_version(self, triples: DataFrame, version: int) -> None:
        triples.write.mode("overwrite").parquet(str(self.root / f"v{version:06d}"))

    # -- reads ------------------------------------------------------------
    def versions(self) -> list[int]:
        return sorted(
            int(p.name[1:7])
            for p in self.root.iterdir()
            if p.is_dir() and p.name.startswith("v")
        )

    def read_version(self, version: int | None = None) -> DataFrame:
        """Latest (or given) KG version."""
        vs = self.versions()
        if not vs:
            raise FileNotFoundError(f"no KG versions in {self.root}")
        v = version if version is not None else vs[-1]
        return self.spark.read.parquet(str(self.root / f"v{v:06d}"))


class AnalyticsStoreAgent(OrchestrationAgent):
    """Replays ``ingest`` ops (staged parquet payloads) into the store."""

    name = "analytics"

    def __init__(self, store: AnalyticsStore):
        self.store = store

    def apply(self, op: dict) -> None:
        if op.get("kind") != "ingest":
            return
        df = self.store.spark.read.parquet(op["payload_path"])
        self.store.write_version(df, op["lsn"])
