"""Tests for resolution: signed edges, correlation clustering with the
≤1-KG-entity invariant (§2.3 step 5)."""
import pandas as pd
import pytest

from repro.core.clustering import (
    _pivot_cluster,
    cluster_entities,
    signed_edges,
)


def _edges_df(spark, rows):
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["a", "b", "prob"])
    ).withColumnRenamed("prob", "prob")


class TestSignedEdges:
    def test_thresholds(self, tuned_spark):
        scored = _edges_df(
            tuned_spark, [("a", "b", 0.95), ("a", "c", 0.05), ("b", "c", 0.5)]
        )
        got = {(r.a, r.b): r.sign for r in signed_edges(scored, hi=0.8, lo=0.3).collect()}
        assert got == {("a", "b"): 1, ("a", "c"): -1}


class TestPivotCluster:
    def _run(self, nodes, edges):
        nd = pd.DataFrame({"subject": nodes})
        ed = pd.DataFrame(edges, columns=["a", "b", "sign"])
        out = _pivot_cluster(nd, ed)
        return dict(zip(out.subject, out.cluster))

    def test_positive_edge_merges(self):
        got = self._run(["x", "y"], [("x", "y", 1)])
        assert got["x"] == got["y"]

    def test_negative_edge_blocks_merge(self):
        got = self._run(["x", "y"], [("x", "y", 1), ("x", "y", -1)])
        assert got["x"] != got["y"]

    def test_kg_entity_pivots_first(self):
        got = self._run(["src:b", "kg:a"], [("kg:a", "src:b", 1)])
        assert got["src:b"] == "kg:a"

    def test_two_kg_entities_never_merge(self):
        got = self._run(["kg:a", "kg:b", "s:1"], [("kg:a", "kg:b", 1), ("kg:a", "s:1", 1)])
        assert got["kg:a"] != got["kg:b"]
        assert got["s:1"] == got["kg:a"]

    def test_transitive_chain_without_pivot_edge_splits(self):
        # pivot clustering only attaches direct neighbours of the pivot
        got = self._run(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        assert got["a"] == got["b"]
        assert got["c"] != got["a"]

    def test_deterministic_ordering(self):
        r1 = self._run(["s:2", "s:1", "s:3"], [("s:1", "s:2", 1), ("s:1", "s:3", 1)])
        r2 = self._run(["s:3", "s:2", "s:1"], [("s:1", "s:3", 1), ("s:1", "s:2", 1)])
        assert r1 == r2

    def test_negative_only_component_stays_singletons(self):
        got = self._run(["x", "y"], [("x", "y", -1)])
        assert got["x"] != got["y"]


class TestClusterEntities:
    @pytest.fixture(scope="class")
    def scored(self, tuned_spark):
        rows = [
            ("kg:1", "s:a", 0.95), ("kg:1", "s:b", 0.9),  # both match KG entity
            ("s:c", "s:d", 0.9), ("s:c", "s:e", 0.02),     # new cluster + neg
            ("s:f", "s:g", 0.5),                            # uncertain: no edge
            ("s:a", "s:d", 0.02),                           # neg across components
        ]
        return tuned_spark.createDataFrame(
            pd.DataFrame(rows, columns=["a", "b", "prob"])
        )

    # Resolution runs locally: the signed edges are collected and clustered
    # in Python.  The "local" id keeps the test's established name.
    @pytest.mark.parametrize("path", ["local"])
    def test_clusters(self, scored, path):
        got = {
            r.subject: r.cluster
            for r in cluster_entities(scored, hi=0.8, lo=0.3).collect()
        }
        assert got["s:a"] == got["kg:1"] == got["s:b"] == "kg:1"
        assert got["s:c"] == got["s:d"]
        assert "s:f" not in got and "s:g" not in got  # uncertain → absent
        assert "s:e" not in got  # only a −edge: singleton of itself → absent
