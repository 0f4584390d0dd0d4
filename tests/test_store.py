"""Spark tests for the analytics store + its orchestration agent (§3.1.1)."""
import pytest

from repro.engine.log import GraphEngine
from repro.engine.store import AnalyticsStore, AnalyticsStoreAgent


@pytest.fixture()
def store(tuned_spark, tmp_path):
    return AnalyticsStore(tuned_spark, tmp_path / "analytics")


class TestVersioning:
    def test_write_read_roundtrip(self, store, small_kg):
        store.write_version(small_kg, 1)
        assert store.read_version(1).count() == small_kg.count()

    def test_latest_version_wins(self, store, small_kg):
        store.write_version(small_kg.limit(10), 1)
        store.write_version(small_kg.limit(25), 2)
        assert store.versions() == [1, 2]
        assert store.read_version().count() == 25

    def test_old_versions_remain_queryable(self, store, small_kg):
        store.write_version(small_kg.limit(10), 1)
        store.write_version(small_kg.limit(25), 2)
        assert store.read_version(1).count() == 10

    def test_missing_store_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.read_version()


class TestAgent:
    def test_ingest_op_lands_in_store(self, tuned_spark, tmp_path, small_kg):
        eng = GraphEngine(tmp_path / "engine")
        store = AnalyticsStore(tuned_spark, tmp_path / "analytics")
        eng.register(AnalyticsStoreAgent(store))
        staged = str(tmp_path / "staged")
        small_kg.limit(30).write.mode("overwrite").parquet(staged)
        lsn = eng.publish({"kind": "ingest", "payload_path": staged})
        eng.run_agents()
        assert eng.freshness("analytics") == lsn
        assert store.read_version().count() == 30

    def test_non_ingest_ops_ignored(self, tuned_spark, tmp_path):
        eng = GraphEngine(tmp_path / "engine")
        store = AnalyticsStore(tuned_spark, tmp_path / "analytics")
        eng.register(AnalyticsStoreAgent(store))
        eng.publish({"kind": "compact"})
        eng.run_agents()
        assert store.versions() == []
