"""Tests for match records, pair featurization and matching models (§2.3)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.blocking import candidate_pairs
from repro.core.ingestion import IngestionPipeline
from repro.core.linking import score_by_type
from repro.core.matching import (
    DEFAULT_MODEL,
    MATCH_RECORD_SCHEMA,
    MatchingModel,
    _attr_features,
    _name_similarity,
    featurize_pairs,
    match_records,
    model_for,
)
from repro.kgdata.sources import SourceConfig, default_sources, source_snapshot


class TestNameSimilarity:
    @pytest.mark.parametrize(
        "a,b,lo",
        [
            (["Robert Ashton"], ["Robert Ashton"], 1.0),
            (["Robert Ashton"], ["Robrt Ashton"], 0.9),
            (["The Fairview"], ["Fairview"], 0.95),   # containment boost
            (["Bob Ashton", "Robert Ashton"], ["Robert Ashton"], 1.0),
        ],
    )
    def test_high_similarity_cases(self, a, b, lo):
        assert _name_similarity(a, b) >= lo

    @pytest.mark.parametrize(
        "a,b,hi",
        [
            (["Robert Ashton"], ["Winter Story"], 0.45),
            (["abc"], ["xyz"], 0.4),
        ],
    )
    def test_low_similarity_cases(self, a, b, hi):
        assert _name_similarity(a, b) <= hi

    def test_symmetric(self):
        a, b = ["Robert Ashton"], ["Bob Ashton"]
        assert _name_similarity(a, b) == pytest.approx(_name_similarity(b, a))


class TestAttrFeatures:
    @pytest.mark.parametrize(
        "a,b,sim,conf",
        [
            ({"x": "1", "y": "2"}, {"x": "1", "y": "2"}, 1.0, 0.0),
            ({"x": "1", "y": "2"}, {"x": "1", "y": "3"}, 0.5, 0.5),
            ({"x": "1"}, {"x": "2"}, 0.0, 1.0),
            ({}, {"x": "1"}, 0.5, 0.0),       # no shared preds → neutral
            ({"x": "A b"}, {"x": "a  B"}, 1.0, 0.0),  # normalized compare
        ],
    )
    def test_agreement_and_conflict(self, a, b, sim, conf):
        assert _attr_features(a, b) == (pytest.approx(sim), pytest.approx(conf))


class TestMatchingModel:
    def test_same_entity_profile_scores_high(self):
        assert DEFAULT_MODEL.prob_one(0.95, 0.8, 0.2) > 0.9

    def test_same_name_conflicting_attrs_scores_mid(self):
        p = DEFAULT_MODEL.prob_one(1.0, 0.1, 0.9)
        assert 0.2 < p < 0.8  # ambiguous family: no confident edge

    def test_different_entities_score_low(self):
        assert DEFAULT_MODEL.prob_one(0.3, 0.5, 0.5) < 0.1

    def test_monotone_in_name_sim(self):
        lo = DEFAULT_MODEL.prob_one(0.5, 0.5, 0.0)
        hi = DEFAULT_MODEL.prob_one(0.9, 0.5, 0.0)
        assert hi > lo

    def test_conflict_penalizes(self):
        clean = DEFAULT_MODEL.prob_one(1.0, 1.0, 0.0)
        dirty = DEFAULT_MODEL.prob_one(1.0, 0.0, 1.0)
        assert clean > dirty

    def test_per_type_registry(self):
        assert model_for("song") is not DEFAULT_MODEL
        assert model_for("city") is DEFAULT_MODEL

    def test_title_types_are_stricter(self):
        generic = DEFAULT_MODEL.prob_one(0.9, 0.5, 0.0)
        strict = model_for("song").prob_one(0.9, 0.5, 0.0)
        assert strict < generic

    def test_spark_scoring_matches_scalar_model(self, tuned_spark):
        # linking's piecewise column applies each type's model: same logit
        rows = [("song", 0.9, 0.5, 0.0), ("movie", 0.7, 0.2, 0.6),
                ("person", 0.9, 0.5, 0.0), (None, 0.4, 1.0, 0.0)]
        feats = tuned_spark.createDataFrame(
            rows, "etype string, name_sim double, attr_sim double, attr_conflict double"
        )
        for r in score_by_type(feats).collect():
            want = model_for(r.etype).prob_one(r.name_sim, r.attr_sim, r.attr_conflict)
            assert r.prob == pytest.approx(want, rel=1e-12)


class TestMatchRecords:
    @pytest.fixture(scope="class")
    def records(self, tuned_spark, small_kg):
        return match_records(small_kg).localCheckpoint(eager=True)

    def test_one_record_per_entity(self, records, small_kg):
        assert records.count() == small_kg.select("subject").distinct().count()

    def test_aliases_accumulate_names(self, records, uni):
        eid = next(
            int(e) for e in uni.entities.eid if len(uni.aliases_of(int(e))) > 1
        )
        row = records.filter(F.col("subject") == f"kg:{eid}").first()
        assert set(uni.aliases_of(eid)) <= set(row.aliases)

    def test_etype_populated(self, records, uni):
        row = records.filter(F.col("subject") == "kg:0").first()
        assert row.etype == uni.type_of(0)

    def test_attrs_exclude_names_and_volatile(self, records):
        for row in records.limit(30).collect():
            assert "name" not in row.attrs
            assert "alias" not in row.attrs
            assert "popularity" not in row.attrs


class TestFeaturizePairs:
    def test_features_computed_per_pair(self, tuned_spark):
        recs = tuned_spark.createDataFrame(
            pd.DataFrame(
                {
                    "subject": ["x", "y", "z"],
                    "etype": ["person"] * 3,
                    "aliases": [["Robert Ashton"], ["Robrt Ashton"], ["Winter Story"]],
                    "attrs": [{"birthdate": "1970"}, {"birthdate": "1970"}, {}],
                }
            ),
            schema=MATCH_RECORD_SCHEMA,
        )
        pairs = tuned_spark.createDataFrame(
            pd.DataFrame({"a": ["x", "x"], "b": ["y", "z"]})
        )
        feats = {(r.a, r.b): r for r in featurize_pairs(pairs, recs).collect()}
        assert feats[("x", "y")].name_sim > 0.85
        assert feats[("x", "y")].attr_sim == 1.0
        assert feats[("x", "z")].name_sim < 0.5


def _features(pairs, records):
    return {
        (r.a, r.b): (r.name_sim, r.attr_sim, r.attr_conflict)
        for r in featurize_pairs(pairs, records).collect()
    }


def _reference(pairs, records):
    recs = {r.subject: r for r in records.collect()}
    out = {}
    for p in pairs.collect():
        ra, rb = recs[p.a], recs[p.b]
        out[(p.a, p.b)] = (
            _name_similarity(list(ra.aliases), list(rb.aliases)),
            *_attr_features(dict(ra.attrs), dict(rb.attrs)),
        )
    return out


class TestNativeFeaturizer:
    """The column featurizer equals the scalar reference exactly."""

    CFG = SourceConfig("featsrc", ("person", "artist", "song", "city"),
                       coverage=0.8, dup_prob=0.25, typo_prob=0.2)

    @pytest.fixture(scope="class")
    def source_records(self, tuned_spark, uni):
        snap = source_snapshot(uni, self.CFG, 0)
        triples, _ = IngestionPipeline(tuned_spark, self.CFG).run(snap)
        return match_records(triples).localCheckpoint(eager=True)

    def test_candidate_pairs_of_source_records(self, source_records):
        pairs = candidate_pairs(source_records).localCheckpoint(eager=True)
        want = _reference(pairs, source_records)
        assert len(want) > 50
        assert _features(pairs, source_records) == want

    def test_candidate_pairs_against_fused_kg(self, source_records, small_kg):
        # as in linking: source ∪ KG records, KG–KG pairs dropped, so one
        # side's attributes hold resolved ``kg:`` ids, the other raw names
        combined = source_records.unionByName(match_records(small_kg)).localCheckpoint(
            eager=True
        )
        pairs = candidate_pairs(combined).filter(
            ~(F.col("a").startswith("kg:") & F.col("b").startswith("kg:"))
        ).localCheckpoint(eager=True)
        want = _reference(pairs, combined)
        assert len(want) > 200
        assert any(s.startswith("kg:") for pair in want for s in pair)
        assert _features(pairs, combined) == want

    EDGE_RECORDS = [
        ("none", "person", [], {}),
        ("many", "person", [f"Name {i}" for i in range(6)] + ["Ab", "Name 7", "Name 8"],
         {"x": "1"}),
        ("one", "person", ["A"], {"x": "1 "}),
        ("two", "person", ["Ab"], {"x": " 1"}),
        ("ab_ws", "person", ["  a\tb\x1c "], {"x": "kg:3"}),
        ("blank", "person", ["   "], {"x": "kg:3"}),
        ("fair", "city", ["The  Fairview", "Fair"], {"country": "US", "tz": "kg:9"}),
        ("fair2", "city", ["fairview"], {"country": "us", "tz": "UTC-5"}),
        ("robert", "person", ["Robert\nAshton", "Bob Ashton"], {"birthdate": "1970"}),
        ("robrt", "person", ["ROBRT ASHTON"], {"birthdate": "1971", "x": "kg:1"}),
    ]

    def test_edge_cases(self, tuned_spark):
        recs = tuned_spark.createDataFrame(
            pd.DataFrame(self.EDGE_RECORDS, columns=["subject", "etype", "aliases", "attrs"]),
            schema=MATCH_RECORD_SCHEMA,
        )
        names = [r[0] for r in self.EDGE_RECORDS]
        pairs = tuned_spark.createDataFrame(
            pd.DataFrame([(a, b) for a in names for b in names], columns=["a", "b"])
        )
        want = _reference(pairs, recs)
        assert want[("many", "two")][0] < 1.0  # "Ab" is the 7th alias: past the cap
        assert want[("one", "two")][0] > 0.0    # 1–2 chars: padded 3-grams meet
        assert want[("fair", "fair2")][0] == 0.95  # containment
        assert want[("ab_ws", "blank")][1:] == (1.0, 0.0)
        assert want[("none", "many")] == (0.0, 0.5, 0.0)
        assert _features(pairs, recs) == want

    def test_casefold_divergence_is_beyond_ascii(self, tuned_spark):
        # Spark's ``lower`` keeps "ß" where ``casefold`` gives "ss"
        recs = tuned_spark.createDataFrame(
            pd.DataFrame([("a", "city", ["Straße"], {}), ("b", "city", ["STRASSE"], {})],
                         columns=["subject", "etype", "aliases", "attrs"]),
            schema=MATCH_RECORD_SCHEMA,
        )
        pairs = tuned_spark.createDataFrame(pd.DataFrame({"a": ["a"], "b": ["b"]}))
        assert _reference(pairs, recs)[("a", "b")][0] == 1.0
        assert _features(pairs, recs)[("a", "b")][0] < 1.0

    def test_generated_inputs_are_ascii(self, tuned_spark, uni):
        # so ``lower`` and ``casefold`` agree on every input the pipeline sees
        assert all(s.isascii() for s in uni.aliases.alias)
        fleet = default_sources()
        ingested = [IngestionPipeline(tuned_spark, cfg).run(source_snapshot(uni, cfg, 8))[0]
                    for cfg in fleet]
        triples = ingested[0]
        for t in ingested[1:]:
            triples = triples.unionByName(t)
        assert triples.select("source").distinct().count() == len(fleet)
        assert triples.filter(F.col("obj").rlike("[^\\x00-\\x7f]")).count() == 0
