#!/usr/bin/env python
"""spark-submit entrypoint — end-to-end continuous KG construction.

Replays a provider timeline through ingestion → delta → linking → OBR →
fusion, publishes each tick's KG to the Graph Engine's operation log, lets
the orchestration agents replay it into the analytics store, and prints
per-tick KG sizes, ground-truth linking quality and per-store freshness.

Run: ``spark-submit jobs/build_kg.py [workdir]`` (default ``/tmp/saga_kg``).
"""
import sys
import tempfile

from pyspark.sql import SparkSession

from repro.engine.log import GraphEngine
from repro.engine.store import AnalyticsStore, AnalyticsStoreAgent
from repro.experiments import e3_growth
from repro.sparktune import tune


def main() -> None:
    workdir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="saga_kg_")
    spark = tune(
        SparkSession.builder.appName("build_kg")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    result = e3_growth.run(spark, n_entities=250, n_ticks=4, n_sources=4)
    print(e3_growth.format_rows(result))
    print("linking quality:", e3_growth.linking_quality(result))

    # publish the final KG through the engine's log → analytics store
    engine = GraphEngine(workdir)
    store = AnalyticsStore(spark, f"{workdir}/analytics")
    engine.register(AnalyticsStoreAgent(store))
    payload = f"{workdir}/staged_kg"
    result["kg"].all_triples().write.mode("overwrite").parquet(payload)
    lsn = engine.publish({"kind": "ingest", "payload_path": payload})
    engine.run_agents()
    print(f"published KG at LSN {lsn}; analytics freshness = "
          f"{engine.freshness('analytics')}; rows = {store.read_version().count()}")
    print(f"workdir: {workdir}")


if __name__ == "__main__":
    main()
