"""Spark tests for fusion (§2.3): the claims ledger (fuse, record-scoped
retraction, fused triples derived with ``to_kg``), relationship-node
alignment, truth discovery — with a DuckDB oracle check on the outer-join
semantics of simple-fact fusion, and the oracle's own checks that it fails
on a wrong result."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import schema as S
from repro.core.construction import LEDGER_SCHEMA
from repro.core.fusion import (
    align_relationship_nodes,
    fuse,
    retract_source,
    source_reliability,
    to_kg,
    to_long,
    truth_discovery,
)
from repro.oracle import assert_equivalent


def _kg(spark, rows):
    pdf = pd.DataFrame(
        rows,
        columns=["subject", "predicate", "r_id", "r_predicate", "obj",
                 "locale", "sources", "trust", "confidence"],
    )
    return spark.createDataFrame(pdf, schema=S.KG_TRIPLE_SCHEMA)


def _claims(spark, rows):
    """Ledger rows: a fact, the source and source record asserting it, trust."""
    pdf = pd.DataFrame(
        rows,
        columns=["subject", "predicate", "r_id", "r_predicate", "obj",
                 "locale", "source", "record", "trust"],
    )
    return spark.createDataFrame(pdf, schema=LEDGER_SCHEMA)


def _records(spark, *ids):
    return spark.createDataFrame(pd.DataFrame({"subject": list(ids)}), "subject string")


@pytest.fixture()
def base_kg(tuned_spark):
    return _kg(
        tuned_spark,
        [
            ("kg:1", "name", None, None, "J. Smith", "en", ["s1", "s2"], [0.9, 0.8], 0.98),
            ("kg:1", "birthdate", None, None, "1970-01-01", "en", ["s1"], [0.9], 0.9),
            ("kg:1", "educated_at", "r1", "school", "UW", "en", ["s2"], [0.8], 0.8),
            ("kg:1", "educated_at", "r1", "degree", "PhD", "en", ["s2"], [0.8], 0.8),
            ("kg:2", "name", None, None, "Fairview", "en", ["s1"], [0.9], 0.9),
        ],
    )


@pytest.fixture()
def base_ledger(tuned_spark):
    """The claims behind ``base_kg``: record s1:a asserts kg:1's name and
    birthdate, s2:a its name and educated_at node, s1:b kg:2's name."""
    return _claims(
        tuned_spark,
        [
            ("kg:1", "name", None, None, "J. Smith", "en", "s1", "s1:a", 0.9),
            ("kg:1", "name", None, None, "J. Smith", "en", "s2", "s2:a", 0.8),
            ("kg:1", "birthdate", None, None, "1970-01-01", "en", "s1", "s1:a", 0.9),
            ("kg:1", "educated_at", "r1", "school", "UW", "en", "s2", "s2:a", 0.8),
            ("kg:1", "educated_at", "r1", "degree", "PhD", "en", "s2", "s2:a", 0.8),
            ("kg:2", "name", None, None, "Fairview", "en", "s1", "s1:b", 0.9),
        ],
    )


def _fused(ledger):
    return sorted(tuple(r) for r in to_kg(ledger).collect())


class TestLongRoundtrip:
    def test_ledger_derives_the_fused_kg(self, base_ledger, base_kg):
        assert _fused(base_ledger) == sorted(tuple(r) for r in base_kg.collect())

    def test_one_entry_per_fact_and_source(self, tuned_spark, base_ledger):
        # a second s1 record asserting the same name counts once
        extra = _claims(tuned_spark, [("kg:1", "name", None, None, "J. Smith", "en", "s1", "s1:c", 0.9)])
        assert _fused(base_ledger.unionByName(extra)) == _fused(base_ledger)

    def test_to_long_explodes_provenance(self, base_kg):
        long = to_long(base_kg)
        assert long.count() == 6  # 2+1+1+1+1 provenance rows

    def test_roundtrip_preserves_facts(self, base_kg):
        back = to_kg(to_long(base_kg))
        assert back.count() == base_kg.count()
        row = back.filter(F.col("predicate") == "name").filter(F.col("subject") == "kg:1").first()
        assert row.sources == ["s1", "s2"]
        assert row.confidence == pytest.approx(1 - 0.1 * 0.2)


class TestFuseSimpleFacts:
    def test_new_fact_added(self, tuned_spark, base_ledger):
        src = _claims(tuned_spark, [("kg:1", "occupation", None, None, "singer", "en", "s3", "s3:a", 0.7)])
        out = to_kg(fuse(base_ledger, src))
        row = out.filter(F.col("predicate") == "occupation").first()
        assert row.sources == ["s3"] and row.confidence == pytest.approx(0.7)

    def test_existing_fact_gains_provenance(self, tuned_spark, base_ledger):
        src = _claims(tuned_spark, [("kg:1", "birthdate", None, None, "1970-01-01", "en", "s3", "s3:a", 0.7)])
        out = to_kg(fuse(base_ledger, src))
        row = out.filter(F.col("predicate") == "birthdate").first()
        assert row.sources == ["s1", "s3"]
        assert row.confidence == pytest.approx(1 - 0.1 * 0.3)

    def test_reassertion_by_same_source_updates_trust(self, tuned_spark, base_ledger):
        # the record that made the claim is replaced: retracted, then fused again
        src = _claims(tuned_spark, [("kg:1", "birthdate", None, None, "1970-01-01", "en", "s1", "s1:a", 0.5)])
        retracted = retract_source(base_ledger, "s1", _records(tuned_spark, "s1:a"))
        out = to_kg(fuse(retracted, src))
        row = out.filter(F.col("predicate") == "birthdate").first()
        assert row.sources == ["s1"] and row.trust == [0.5]

    def test_conflicting_value_is_kept_nondestructively(self, tuned_spark, base_ledger):
        src = _claims(tuned_spark, [("kg:1", "birthdate", None, None, "1971-02-02", "en", "s3", "s3:a", 0.7)])
        out = to_kg(fuse(base_ledger, src))
        vals = {r.obj for r in out.filter(F.col("predicate") == "birthdate").collect()}
        assert vals == {"1970-01-01", "1971-02-02"}

    def test_untouched_facts_survive(self, tuned_spark, base_ledger, base_kg):
        src = _claims(tuned_spark, [("kg:1", "occupation", None, None, "singer", "en", "s3", "s3:a", 0.7)])
        out = to_kg(fuse(base_ledger, src))
        assert out.count() == base_kg.count() + 1

    def test_fusion_matches_oracle_outer_join(self, tuned_spark, base_ledger, base_kg):
        """Fused fact set == SQL full outer join of KG and source facts."""
        src = _claims(
            tuned_spark,
            [
                ("kg:1", "occupation", None, None, "singer", "en", "s3", "s3:a", 0.7),
                ("kg:1", "birthdate", None, None, "1970-01-01", "en", "s3", "s3:a", 0.7),
            ],
        )
        got = to_kg(fuse(base_ledger, src)).select("subject", "predicate", "obj")
        sql = """
            SELECT DISTINCT COALESCE(k.subject, s.subject) AS subject,
                   COALESCE(k.predicate, s.predicate) AS predicate,
                   COALESCE(k.obj, s.obj) AS obj
            FROM kg k FULL OUTER JOIN src s
              ON k.subject = s.subject AND k.predicate = s.predicate
             AND k.obj = s.obj
             AND COALESCE(k.r_id,'') = COALESCE(s.r_id,'')
             AND COALESCE(k.r_predicate,'') = COALESCE(s.r_predicate,'')
        """
        assert_equivalent(
            got, sql,
            kg=base_kg.select("subject", "predicate", "r_id", "r_predicate", "obj"),
            src=src.select("subject", "predicate", "r_id", "r_predicate", "obj"),
        )


class TestOracle:
    """``repro.oracle`` itself must fail on a wrong result or wrong columns."""

    @pytest.fixture()
    def facts(self, base_kg):
        return base_kg.select("subject", "predicate", "obj", "confidence")

    def test_oracle_catches_wrong_result(self, facts):
        wrong = facts.groupBy("subject").agg(
            (F.sum("confidence") + 1).alias("total")
        )
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT subject, sum(confidence) AS total FROM facts GROUP BY 1",
                facts=facts,
            )

    def test_oracle_catches_column_mismatch(self, facts):
        got = facts.groupBy("subject").agg(F.count("*").alias("cnt"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got,
                "SELECT subject, count(*) AS n FROM facts GROUP BY 1",
                facts=facts,
            )


class TestRelationshipNodes:
    def test_similar_node_merges(self, tuned_spark, base_ledger):
        src = _claims(
            tuned_spark,
            [
                ("kg:1", "educated_at", "x9", "school", "UW", "en", "s3", "s3:a", 0.7),
                ("kg:1", "educated_at", "x9", "year", "2005", "en", "s3", "s3:a", 0.7),
            ],
        )
        out = align_relationship_nodes(src, base_ledger)
        assert {r.r_id for r in out.collect()} == {"r1"}

    def test_dissimilar_node_stays_new(self, tuned_spark, base_ledger):
        src = _claims(
            tuned_spark,
            [
                ("kg:1", "educated_at", "x9", "school", "MIT", "en", "s3", "s3:a", 0.7),
                ("kg:1", "educated_at", "x9", "degree", "BSc", "en", "s3", "s3:a", 0.7),
            ],
        )
        out = align_relationship_nodes(src, base_ledger)
        assert {r.r_id for r in out.collect()} == {"x9"}

    def test_fused_merge_updates_provenance_of_rel_fact(self, tuned_spark, base_ledger):
        src = _claims(
            tuned_spark,
            [
                ("kg:1", "educated_at", "x9", "school", "UW", "en", "s3", "s3:a", 0.7),
                ("kg:1", "educated_at", "x9", "degree", "PhD", "en", "s3", "s3:a", 0.7),
            ],
        )
        out = to_kg(fuse(base_ledger, src))
        row = out.filter((F.col("r_predicate") == "school")).first()
        assert row.r_id == "r1" and row.sources == ["s2", "s3"]


class TestRetraction:
    def test_source_removed_from_provenance(self, tuned_spark, base_ledger):
        out = to_kg(retract_source(base_ledger, "s2", _records(tuned_spark, "s2:a")))
        name = out.filter((F.col("predicate") == "name") & (F.col("subject") == "kg:1")).first()
        assert name.sources == ["s1"]

    def test_orphaned_facts_dropped(self, tuned_spark, base_ledger):
        out = to_kg(retract_source(base_ledger, "s2", _records(tuned_spark, "s2:a")))
        assert out.filter(F.col("r_id").isNotNull()).count() == 0  # s2-only facts gone

    def test_other_entities_untouched(self, tuned_spark, base_ledger):
        out = to_kg(retract_source(base_ledger, "s1", _records(tuned_spark, "s1:a")))
        assert out.filter(F.col("subject") == "kg:2").count() == 1

    def test_sibling_record_keeps_its_claims(self, tuned_spark, base_ledger):
        # s1:c is a second s1 record on kg:1; retracting s1:a leaves its claim
        sibling = _claims(tuned_spark, [("kg:1", "occupation", None, None, "singer", "en", "s1", "s1:c", 0.9)])
        out = to_kg(retract_source(base_ledger.unionByName(sibling), "s1", _records(tuned_spark, "s1:a")))
        facts = {(r.predicate, tuple(r.sources)) for r in out.filter(F.col("subject") == "kg:1").collect()}
        assert ("occupation", ("s1",)) in facts and ("birthdate", ("s1",)) not in facts


class TestTruthDiscovery:
    @pytest.fixture()
    def conflicted(self, tuned_spark):
        # three sources agree, one (s_bad) habitually disagrees
        rows = []
        for i in range(6):
            rows.append((f"kg:{i}", "birthdate", None, None, "GOOD", "en",
                         ["s1", "s2", "s3"], [0.8, 0.8, 0.8], 0.9))
            rows.append((f"kg:{i}", "birthdate", None, None, "BAD", "en",
                         ["s_bad"], [0.8], 0.8))
        return _kg(tuned_spark, rows)

    def test_consensus_value_outranks_outlier(self, conflicted):
        out = truth_discovery(conflicted, iters=3)
        good = out.filter(F.col("obj") == "GOOD").select("confidence").first()[0]
        bad = out.filter(F.col("obj") == "BAD").select("confidence").first()[0]
        assert good > 0.75 > bad

    def test_source_reliability_learns_bad_source(self, conflicted):
        w = {r.source: r.weight for r in source_reliability(conflicted, iters=3).collect()}
        assert w["s_bad"] < w["s1"]

    def test_leaves_no_cached_frame(self, tuned_spark, conflicted):
        cache = tuned_spark._jsparkSession.sharedState().cacheManager()
        before = cache.numCachedEntries()
        truth_discovery(conflicted).localCheckpoint(eager=True)
        assert cache.numCachedEntries() <= before

    def test_non_functional_facts_unchanged(self, tuned_spark, base_kg):
        out = truth_discovery(base_kg, iters=2)
        name = out.filter((F.col("predicate") == "name") & (F.col("subject") == "kg:1")).first()
        assert name.confidence == pytest.approx(1 - 0.1 * 0.2)
