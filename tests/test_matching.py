"""Tests for match records, pair featurization and matching models (§2.3)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.matching import (
    DEFAULT_MODEL,
    MatchingModel,
    _attr_features,
    _name_similarity,
    featurize_pairs,
    match_records,
    model_for,
)
from repro.core.linking import score_by_type


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

    def test_learned_similarity_hook(self):
        class Fake:
            def similarity(self, a, b):
                return 0.99

        assert _name_similarity(["abc"], ["xyz"], learned=Fake()) >= 0.99


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
            )
        )
        pairs = tuned_spark.createDataFrame(
            pd.DataFrame({"a": ["x", "x"], "b": ["y", "z"]})
        )
        feats = {(r.a, r.b): r for r in featurize_pairs(pairs, recs).collect()}
        assert feats[("x", "y")].name_sim > 0.85
        assert feats[("x", "y")].attr_sim == 1.0
        assert feats[("x", "z")].name_sim < 0.5
