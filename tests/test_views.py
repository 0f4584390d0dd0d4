"""Spark tests for the view catalog/manager and the standard view library
(§3.2) — including optimized-vs-legacy schematized-view equality (E1's
correctness precondition) checked per entity type."""
import pytest
from pyspark.sql import functions as F

from repro.core import schema as S
from repro.engine.legacy_views import legacy_schematized_entity_view, plain_triples
from repro.engine.views import (
    ViewCatalog,
    ViewDefinition,
    ViewManager,
    schematized_entity_view,
    standard_catalog,
)
from repro.oracle import assert_equivalent


class TestCatalog:
    def test_topo_order_resolves_deps(self):
        cat = standard_catalog()
        order = cat.topo_order(["ranked_entity_index"])
        assert order.index("entity_features") < order.index("ranked_entity_index")

    def test_unknown_dep_rejected(self):
        cat = ViewCatalog()
        with pytest.raises(KeyError):
            cat.register(ViewDefinition("v", lambda b, d: b, deps=("ghost",)))

    def test_cycle_detected(self):
        cat = ViewCatalog()
        cat.register(ViewDefinition("a", lambda b, d: b))
        cat.register(ViewDefinition("b", lambda b, d: b, deps=("a",)))
        # force a cycle by mutating the private map (cannot be registered)
        object.__setattr__(cat.get("a"), "deps", ("b",))
        with pytest.raises(ValueError, match="cyclic"):
            cat.topo_order(["b"])

    def test_standard_catalog_has_fig7_views(self):
        names = standard_catalog().names()
        for v in ("entity_features", "ranked_entity_index", "entity_neighborhood",
                  "nerd_entity_view", "embedding_input"):
            assert v in names
        assert f"entity_view_song" in names


class TestViewManager:
    @pytest.fixture(scope="class")
    def mgr(self, tuned_spark):
        return ViewManager(tuned_spark, standard_catalog())

    def test_materialize_targets(self, mgr, small_kg):
        out = mgr.materialize(small_kg, ["ranked_entity_index"])
        assert out["ranked_entity_index"].count() > 0

    def test_reuse_and_noreuse_agree(self, mgr, small_kg):
        a = mgr.materialize(small_kg, ["entity_neighborhood"], reuse=True)
        b = mgr.materialize(small_kg, ["entity_neighborhood"], reuse=False)
        va = a["entity_neighborhood"].orderBy("subject", "predicate", "neighbor")
        vb = b["entity_neighborhood"].orderBy("subject", "predicate", "neighbor")
        assert va.collect() == vb.collect()

    def test_incremental_update_matches_full_recompute(self, tuned_spark, small_kg):
        def fact(s, p, o):
            return (s, p, None, None, o, "en", ["s1"], [0.9], 0.9)

        people = [fact(f"kg:{i}", "type", "person") for i in range(3)]
        before = tuned_spark.createDataFrame(
            people + [fact("kg:2", "spouse", "kg:0")], S.KG_TRIPLE_SCHEMA)
        cases = [
            (small_kg, small_kg, small_kg.select("subject").distinct().limit(20)),
            # kg:0 gains an edge to kg:1, which did not change: kg:1's
            # in_degree and every entity's normalized importance move too
            (before, before.unionByName(tuned_spark.createDataFrame(
                [fact("kg:0", "spouse", "kg:1")], S.KG_TRIPLE_SCHEMA)),
             tuned_spark.createDataFrame([("kg:0",)], "subject string")),
        ]

        def rows(df, cols):
            return sorted(tuple(round(v, 12) if isinstance(v, float) else v for v in r)
                          for r in df.select(*cols).collect())

        for base, after, changed in cases:
            mgr = ViewManager(tuned_spark, standard_catalog())
            mgr.materialize(base, ["entity_features"])
            updated = mgr.update(after, "entity_features", changed)
            full = standard_catalog().get("entity_features").create(after, {})
            assert rows(updated, full.columns) == rows(full, full.columns)

    def test_full_recompute_fallback_for_views_without_update(self, tuned_spark, small_kg):
        mgr = ViewManager(tuned_spark, standard_catalog())
        mgr.materialize(small_kg, ["embedding_input"])
        changed = small_kg.select("subject").distinct().limit(5)
        out = mgr.update(small_kg, "embedding_input", changed)
        assert out.count() > 0

    def test_update_reads_the_maintained_dependency(self, tuned_spark, small_kg):
        # the catalog is built before 20 entities arrive; the tick then
        # maintains entity_features and refreshes nerd_entity_view over it
        changed = small_kg.select("subject").distinct().orderBy("subject").limit(20)
        before = small_kg.join(changed, "subject", "left_anti")
        mgr = ViewManager(tuned_spark, standard_catalog())
        mgr.materialize(before, ["entity_features", "nerd_entity_view"])
        feats = mgr.update(small_kg, "entity_features", changed)
        nerd = mgr.update(small_kg, "nerd_entity_view", changed)
        assert mgr.materialized["entity_features"] is feats
        want = {r.subject: r.importance for r in feats.collect()}
        got = {r.subject: r.importance for r in nerd.collect()}
        assert got == {s: want.get(s, 0.0) for s in got}


class TestStandardViews:
    def test_ranked_entity_index_sorted_by_importance(self, tuned_spark, small_kg):
        mgr = ViewManager(tuned_spark, standard_catalog())
        view = mgr.materialize(small_kg, ["ranked_entity_index"])["ranked_entity_index"]
        imps = [r.importance for r in view.limit(200).collect()]
        assert imps == sorted(imps, reverse=True)

    def test_embedding_input_filters_metadata(self, tuned_spark, small_kg):
        mgr = ViewManager(tuned_spark, standard_catalog())
        view = mgr.materialize(small_kg, ["embedding_input"])["embedding_input"]
        rels = {r.rel for r in view.select("rel").distinct().collect()}
        assert S.SAME_AS_PRED not in rels and "popularity" not in rels
        bad = view.filter(~F.col("tail").startswith("kg:")).count()
        assert bad == 0

    def test_nerd_view_summarizes_neighbors(self, tuned_spark, small_kg, uni):
        mgr = ViewManager(tuned_spark, standard_catalog())
        view = mgr.materialize(small_kg, ["nerd_entity_view"])["nerd_entity_view"]
        eid = next(e for e in uni.entities.eid if uni.neighbors_of(int(e)))
        row = view.filter(F.col("subject") == f"kg:{int(eid)}").first()
        nbr_names = {uni.name_of(n) for n in uni.neighbors_of(int(eid))}
        assert nbr_names <= set(row.neighbor_names)
        assert uni.type_of(int(eid)) in row.types


class TestSchematizedViews:
    @pytest.fixture(scope="class")
    def plain(self, small_kg):
        return plain_triples(small_kg).localCheckpoint(eager=True)

    @pytest.mark.parametrize("etype", sorted(S.ONTOLOGY))
    def test_optimized_equals_legacy(self, small_kg, plain, etype):
        opt = schematized_entity_view(small_kg, etype)
        leg = legacy_schematized_entity_view(plain, etype)
        assert sorted(opt.columns) == sorted(leg.columns)
        cols = sorted(opt.columns)
        a = [tuple(r) for r in opt.select(*[f"`{c}`" for c in cols]).orderBy("subject").collect()]
        b = [tuple(r) for r in leg.select(*[f"`{c}`" for c in cols]).orderBy("subject").collect()]
        assert a == b

    def test_composite_columns_present(self, small_kg):
        view = schematized_entity_view(small_kg, "person")
        assert "educated_at.school" in view.columns
        assert "educated_at.degree" in view.columns

    def test_view_matches_oracle_pivot(self, small_kg):
        """Wide person view vs a DuckDB pivot over the same triples."""
        got = schematized_entity_view(small_kg, "person").select(
            "subject", "birthdate", "occupation"
        )
        sql = """
            SELECT subject,
                   min(CASE WHEN predicate='birthdate' AND r_id IS NULL THEN obj END) AS birthdate,
                   min(CASE WHEN predicate='occupation' AND r_id IS NULL THEN obj END) AS occupation
            FROM kg
            WHERE subject IN (SELECT subject FROM kg WHERE predicate='type' AND obj='person')
            GROUP BY subject
        """
        assert_equivalent(
            got, sql, kg=small_kg.select("subject", "predicate", "r_id", "obj")
        )
