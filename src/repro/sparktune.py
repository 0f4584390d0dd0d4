"""Runtime Spark tuning for reproduction-scale workloads.

Three facts dominate performance here: (1) per-action scheduling overhead
(~0.3–3 s in this sandbox) dwarfs data movement, so pipelines minimize
actions and truncate lineage eagerly; (2) plans built on (local-)
checkpointed RDDs get ``defaultSizeInBytes = Long.MaxValue`` statistics,
whose products across joins become huge BigIntegers that stall Catalyst's
size-only stats estimation for tens of seconds; (3) a frame built by
``createDataFrame(<python list>)`` is a Python RDD, and every evaluation of
a plan over it starts a ``pyspark.daemon`` worker.  An eager
``localCheckpoint`` of a two-column frame cost a median 600 ms of CPU
(JVM plus workers) when built from a list, empty or of 50 rows, against
50 ms from an empty RDD and 80 ms from 50 pandas rows sent through Arrow
(20 evaluations each, local[2], 4 vCPUs).  ``tune(spark)`` sets the
runtime-settable confs that avoid (1)–(3); it is idempotent and called by
pipelines, jobs and tests.  :func:`small_frame` builds the small local
frames of the construction path without a Python RDD.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, types as T


def tune(spark: SparkSession, *, shuffle_partitions: int | None = 8) -> SparkSession:
    """Apply reproduction-scale session settings (idempotent)."""
    spark.conf.set("spark.sql.defaultSizeInBytes", str(32 * 1024 * 1024))
    spark.conf.set("spark.sql.execution.arrow.pyspark.enabled", "true")
    if shuffle_partitions is not None:
        spark.conf.set("spark.sql.shuffle.partitions", str(shuffle_partitions))
    return spark


def small_frame(
    spark: SparkSession, schema: T.StructType | str, rows: pd.DataFrame | None = None
) -> DataFrame:
    """A small local frame of ``rows`` (none when omitted) that no Python
    worker evaluates: rows go through Arrow (``tune`` enables it), and an
    empty frame is an empty RDD, which has no partition to run."""
    if rows is None or rows.empty:
        return spark.createDataFrame(spark.sparkContext.emptyRDD(), schema)
    return spark.createDataFrame(rows, schema=schema)
