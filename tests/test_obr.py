"""Spark tests for Object Resolution (§2.3) over the NERD stack."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import schema as S
from repro.core.matching import match_records
from repro.core.obr import build_resolver, resolve_objects


@pytest.fixture(scope="module")
def resolver(small_kg):
    return build_resolver(match_records(small_kg))


def _payload(spark, rows):
    pdf = pd.DataFrame(
        rows,
        columns=["subject", "predicate", "r_id", "r_predicate", "obj",
                 "locale", "source", "trust"],
    )
    return spark.createDataFrame(pdf, schema=S.SOURCE_TRIPLE_SCHEMA)


class TestResolver:
    def test_empty_kg_yields_no_resolver(self, tuned_spark):
        empty = tuned_spark.createDataFrame([], S.KG_TRIPLE_SCHEMA)
        assert build_resolver(match_records(empty)) is None

    def test_resolver_indexes_all_entities(self, resolver, uni):
        assert len(resolver.records) == len(uni.entities)

    def test_records_carry_the_kg_names_and_types(self, resolver, small_kg):
        """Each entity's names are its sorted ``name``/``alias`` objects and
        its types the set of its ``type`` objects."""
        kg = small_kg.select("subject", "predicate", "obj").toPandas()
        names = {
            subj: sorted(set(objs))
            for subj, objs in kg[kg.predicate.isin([S.NAME_PRED, S.ALIAS_PRED])]
            .groupby("subject")["obj"]
        }
        types = {
            subj: set(objs)
            for subj, objs in kg[kg.predicate == S.TYPE_PRED].groupby("subject")["obj"]
        }
        assert set(resolver.records) == set(names)
        for subj, rec in resolver.records.items():
            assert rec.names == names[subj]
            assert set(rec.types) == types.get(subj, set())


class TestResolveObjects:
    def test_ref_object_resolved_to_kg_id(self, tuned_spark, resolver, uni):
        city = uni.entities[uni.entities.type == "city"].iloc[0]
        src = _payload(
            tuned_spark,
            [("s:1", "birthplace", None, None, city["name"], "en", "s", 0.9)],
        )
        out = resolve_objects(src, resolver).first()
        assert out.obj == f"kg:{int(city.eid)}"

    def test_composite_school_resolved(self, tuned_spark, resolver, uni):
        org = uni.entities[uni.entities.type == "org"].iloc[0]
        src = _payload(
            tuned_spark,
            [("s:1", "educated_at", "s:1#e#0", "school", org["name"], "en", "s", 0.9)],
        )
        out = resolve_objects(src, resolver).first()
        assert out.obj == f"kg:{int(org.eid)}"

    def test_literal_predicates_untouched(self, tuned_spark, resolver, uni):
        city = uni.entities[uni.entities.type == "city"].iloc[0]
        src = _payload(
            tuned_spark,
            [("s:1", "name", None, None, city["name"], "en", "s", 0.9)],
        )
        out = resolve_objects(src, resolver).first()
        assert out.obj == city["name"]  # 'name' is not a ref predicate

    def test_unresolvable_mention_stays_literal(self, tuned_spark, resolver):
        src = _payload(
            tuned_spark,
            [("s:1", "birthplace", None, None, "Zzyqx Prime", "en", "s", 0.9)],
        )
        out = resolve_objects(src, resolver).first()
        assert out.obj == "Zzyqx Prime"

    def test_type_hint_prevents_cross_type_resolution(self, tuned_spark, resolver, uni):
        """A city name shared with a movie must resolve to the *city* for
        the birthplace predicate (Fig 14b's precision mechanism)."""
        fam = next(
            (f for f in uni.ambiguous_families
             if {uni.type_of(e) for e in f} >= {"city"}
             and len({uni.type_of(e) for e in f}) > 1),
            None,
        )
        if fam is None:
            pytest.skip("no cross-type city family")
        city = next(e for e in fam if uni.type_of(e) == "city")
        src = _payload(
            tuned_spark,
            [("s:1", "birthplace", None, None, uni.name_of(city), "en", "s", 0.9)],
        )
        out = resolve_objects(src, resolver).first()
        assert out.obj == f"kg:{city}"

    def test_none_resolver_is_identity(self, tuned_spark):
        src = _payload(
            tuned_spark, [("s:1", "birthplace", None, None, "X", "en", "s", 0.9)]
        )
        assert resolve_objects(src, None) is src

    def test_schema_preserved(self, tuned_spark, resolver, uni):
        city = uni.entities[uni.entities.type == "city"].iloc[0]
        src = _payload(
            tuned_spark,
            [("s:1", "birthplace", None, None, city["name"], "en", "s", 0.9)],
        )
        out = resolve_objects(src, resolver)
        assert set(out.columns) == set(src.columns)
