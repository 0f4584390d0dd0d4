"""Matching models (§2.3 Linking step 4).

``match_records`` pivots extended triples into per-entity match records
(surface forms + functional attributes).  ``featurize_pairs`` scores
candidate pairs with the similarity library's measures, written as Spark
built-in column expressions (``levenshtein``, padded 3-gram arrays with
``array_intersect``/``array_union``, containment, higher-order functions
over the aliases and attribute maps), so featurization runs in the JVM and
starts no Python worker.  The scalar ``_name_similarity`` and
``_attr_features`` are the reference the columns are tested against.
``MatchingModel`` turns features into a calibrated match probability.
Models are config-driven and per-entity-type, as in the paper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from pyspark.sql import Column, DataFrame, functions as F, types as T

from repro.core import schema as S
from repro.ml import simfns

#: predicates excluded from the attribute-agreement features
_NON_ATTR = {S.NAME_PRED, S.ALIAS_PRED, S.TYPE_PRED, S.SAME_AS_PRED} | set(
    S.VOLATILE_PREDS
)

MATCH_RECORD_SCHEMA = T.StructType(
    [
        T.StructField("subject", T.StringType(), False),
        T.StructField("etype", T.StringType(), True),
        T.StructField("aliases", T.ArrayType(T.StringType()), False),
        T.StructField("attrs", T.MapType(T.StringType(), T.StringType()), False),
    ]
)


def match_records(triples: DataFrame) -> DataFrame:
    """Pivot extended triples into per-entity match records.

    One row per subject with its entity type, every surface form seen for
    it (name + alias objects — a KG entity accumulates variants from all
    fused sources), and a map of simple-fact attributes (first value per
    predicate, deterministic by ``min``).
    """
    names = (
        triples.filter(F.col("predicate").isin(S.NAME_PRED, S.ALIAS_PRED))
        .groupBy("subject")
        .agg(F.array_sort(F.collect_set("obj")).alias("aliases"))
    )
    etype = (
        triples.filter(F.col("predicate") == S.TYPE_PRED)
        .groupBy("subject")
        .agg(F.min("obj").alias("etype"))
    )
    attrs = (
        triples.filter(
            F.col("r_id").isNull() & ~F.col("predicate").isin(*_NON_ATTR)
        )
        .groupBy("subject", "predicate")
        .agg(F.min("obj").alias("obj"))
        .groupBy("subject")
        .agg(
            F.map_from_entries(
                F.collect_list(F.struct("predicate", "obj"))
            ).alias("attrs")
        )
    )
    return (
        names.join(etype, "subject", "left")
        .join(attrs, "subject", "left")
        .withColumn("attrs", F.coalesce("attrs", F.map_from_arrays(
            F.array().cast("array<string>"), F.array().cast("array<string>"))))
    )


#: surface forms per record that name similarity compares
_ALIAS_CAP = 6


def _name_similarity(
    aliases_a: list[str], aliases_b: list[str], cap: int = _ALIAS_CAP
) -> float:
    """Best surface-form similarity across the two alias sets.

    Max of edit similarity, q-gram Jaccard and a containment boost
    ("The Fairview" ⊃ "Fairview").  The scalar reference of
    ``featurize_pairs``' ``name_sim`` column.
    """
    best = 0.0
    for x in aliases_a[:cap]:
        nx = simfns.normalize(x)
        for y in aliases_b[:cap]:
            ny = simfns.normalize(y)
            s = max(simfns.levenshtein_sim(x, y), simfns.jaccard_qgram(x, y))
            if nx and ny and (nx in ny or ny in nx):
                s = max(s, 0.95)
            best = max(best, s)
            if best >= 1.0:
                return 1.0
    return best


def _attr_features(attrs_a: dict, attrs_b: dict) -> tuple[float, float]:
    """(agreement, conflict) over shared attribute predicates.

    No shared predicates → neutral (0.5, 0.0): absence of evidence is not
    evidence of mismatch for sparse providers.  Predicates whose value is a
    KG reference on exactly one side are skipped: a pre-OBR source payload
    holds raw names where the KG holds resolved ids, and that namespace
    difference is not a factual conflict.  The scalar reference of
    ``featurize_pairs``' ``attr_sim``/``attr_conflict`` columns.
    """
    shared = []
    for k in set(attrs_a) & set(attrs_b):
        va, vb = str(attrs_a[k]), str(attrs_b[k])
        if va.startswith("kg:") != vb.startswith("kg:"):
            continue
        shared.append((va, vb))
    if not shared:
        return 0.5, 0.0
    agree = sum(simfns.normalize(a) == simfns.normalize(b) for a, b in shared)
    return agree / len(shared), (len(shared) - agree) / len(shared)


#: whitespace as ``str.split()`` sees it: Unicode White_Space plus the
#: ASCII information separators U+001C–U+001F
_WHITESPACE = r"(?U)[\s\x{1c}-\x{1f}]+"


def _normalize(s: Column) -> Column:
    """``simfns.normalize`` as a column.  Spark's ``lower`` equals
    ``casefold`` on ASCII; beyond it they differ ("Straße")."""
    return F.trim(F.regexp_replace(F.lower(s), _WHITESPACE, " "))


def _surface_forms(aliases: Column, cap: int = _ALIAS_CAP) -> Column:
    """The first ``cap`` aliases, each as (normalized form, its length, its
    padded 3-gram set), computed once per record rather than per pair."""

    def form(alias: Column) -> Column:
        n = _normalize(alias)
        padded = F.concat(F.lit("^"), n, F.lit("$"))
        last = F.greatest(F.length(padded) - 2, F.lit(1))
        grams = F.array_distinct(
            F.transform(F.sequence(F.lit(1), last), lambda i: padded.substr(i, F.lit(3)))
        )
        return F.struct(n.alias("n"), F.length(n).alias("len"), grams.alias("grams"))

    return F.transform(F.slice(aliases, 1, cap), form)


def _form_similarity(x: Column, y: Column) -> Column:
    """One alias pair's score in ``_name_similarity``: max of edit
    similarity and q-gram Jaccard, lifted to 0.95 on containment."""
    longest = F.greatest(x.len, y.len)
    edit = F.when(longest == 0, F.lit(1.0)).otherwise(
        F.lit(1.0) - F.levenshtein(x.n, y.n) / longest
    )
    jaccard = F.size(F.array_intersect(x.grams, y.grams)) / F.size(
        F.array_union(x.grams, y.grams)
    )
    s = F.greatest(edit, jaccard)
    contained = (x.len > 0) & (y.len > 0) & (y.n.contains(x.n) | x.n.contains(y.n))
    return F.when(contained, F.greatest(s, F.lit(0.95))).otherwise(s)


def _name_sim(forms_a: Column, forms_b: Column) -> Column:
    """``_name_similarity``: the best score over all surface-form pairs."""
    scores = F.flatten(
        F.transform(forms_a, lambda x: F.transform(forms_b, lambda y: _form_similarity(x, y)))
    )
    return F.coalesce(F.array_max(scores), F.lit(0.0))


def _attr_sims(attrs_a: Column, attrs_b: Column) -> tuple[Column, Column]:
    """``_attr_features``: (agreement, conflict) over shared predicates."""
    shared = F.filter(
        F.array_intersect(F.map_keys(attrs_a), F.map_keys(attrs_b)),
        lambda k: F.element_at(attrs_a, k).startswith("kg:")
        == F.element_at(attrs_b, k).startswith("kg:"),
    )
    n = F.size(shared)
    agree = F.size(
        F.filter(
            shared,
            lambda k: _normalize(F.element_at(attrs_a, k))
            == _normalize(F.element_at(attrs_b, k)),
        )
    )
    return (
        F.when(n == 0, F.lit(0.5)).otherwise(agree / n),
        F.when(n == 0, F.lit(0.0)).otherwise((n - agree) / n),
    )


def featurize_pairs(pairs: DataFrame, records: DataFrame) -> DataFrame:
    """Join pair endpoints to their match records and compute features.

    Built-in column expressions only, equal to ``_name_similarity`` and
    ``_attr_features`` on every ASCII input, so no Python worker runs.
    """

    def side(s: str) -> DataFrame:
        return records.select(
            F.col("subject").alias(s),
            _surface_forms(F.col("aliases")).alias(f"forms_{s}"),
            F.col("attrs").alias(f"attrs_{s}"),
        )

    joined = pairs.join(side("a"), "a").join(side("b"), "b")
    attr_sim, attr_conflict = _attr_sims(F.col("attrs_a"), F.col("attrs_b"))
    return joined.select(
        "a",
        "b",
        _name_sim(F.col("forms_a"), F.col("forms_b")).alias("name_sim"),
        attr_sim.alias("attr_sim"),
        attr_conflict.alias("attr_conflict"),
    )


@dataclass(frozen=True)
class MatchingModel:
    """Calibrated logistic matching model (per entity type, config-driven).

    ``prob = sigmoid(bias + Σ w_f · feature_f)``.  The signed-graph cutoffs
    for correlation clustering are ``linking.HI``/``linking.LO``.
    """

    bias: float = -5.0
    weights: dict[str, float] = field(
        default_factory=lambda: {
            "name_sim": 7.0,
            "attr_sim": 2.5,
            "attr_conflict": -3.5,
        },
        hash=False,
    )

    def z(self, feature: Callable[[str], Any]) -> Any:
        """The logit ``bias + Σ w_f · feature_f``, summed in weights order.

        ``feature(name)`` gives a float (scalar scoring) or a Spark Column
        (``linking.score_by_type``); both evaluate the same expression.
        """
        z = self.bias
        for name, w in self.weights.items():
            z = z + w * feature(name)
        return z

    def prob_one(self, name_sim: float, attr_sim: float, attr_conflict: float) -> float:
        """Scalar scoring (for unit tests / calibration inspection)."""
        feats = {"name_sim": name_sim, "attr_sim": attr_sim, "attr_conflict": attr_conflict}
        return 1.0 / (1.0 + math.exp(-self.z(feats.__getitem__)))


#: default per-type model registry; unlisted types use DEFAULT_MODEL.
DEFAULT_MODEL = MatchingModel()
MODELS_BY_TYPE: dict[str, MatchingModel] = {
    # titles collide more often by chance → demand more attribute agreement
    "song": MatchingModel(bias=-5.5, weights={"name_sim": 7.0, "attr_sim": 2.5, "attr_conflict": -4.0}),
    "movie": MatchingModel(bias=-5.5, weights={"name_sim": 7.0, "attr_sim": 2.5, "attr_conflict": -4.0}),
}


def model_for(etype: str) -> MatchingModel:
    return MODELS_BY_TYPE.get(etype, DEFAULT_MODEL)
