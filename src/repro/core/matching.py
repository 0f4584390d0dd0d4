"""Matching models (§2.3 Linking step 4).

``match_records`` pivots extended triples into per-entity match records
(surface forms + functional attributes).  ``featurize_pairs`` scores
candidate pairs with the similarity library (optionally augmented by a
learned :class:`repro.ml.neural_sim.NeuralStringSim`), and
``MatchingModel`` turns features into a calibrated match probability.
Models are config-driven and per-entity-type, as in the paper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, functions as F, types as T

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

PAIR_FEATURE_SCHEMA = T.StructType(
    [
        T.StructField("a", T.StringType(), False),
        T.StructField("b", T.StringType(), False),
        T.StructField("name_sim", T.DoubleType(), False),
        T.StructField("attr_sim", T.DoubleType(), False),
        T.StructField("attr_conflict", T.DoubleType(), False),
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


def _name_similarity(
    aliases_a: list[str], aliases_b: list[str], learned=None, cap: int = 6
) -> float:
    """Best surface-form similarity across the two alias sets.

    Deterministic component: max of edit similarity, q-gram Jaccard and a
    containment boost ("The Fairview" ⊃ "Fairview").  When a learned
    similarity function is supplied it contributes too (§5.1: learned sims
    featurize matching models out-of-the-box).
    """
    best = 0.0
    for x in aliases_a[:cap]:
        nx = simfns.normalize(x)
        for y in aliases_b[:cap]:
            ny = simfns.normalize(y)
            s = max(simfns.levenshtein_sim(x, y), simfns.jaccard_qgram(x, y))
            if nx and ny and (nx in ny or ny in nx):
                s = max(s, 0.95)
            if learned is not None:
                s = max(s, learned.similarity(x, y))
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
    difference is not a factual conflict.
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


def featurize_pairs(
    pairs: DataFrame, records: DataFrame, *, learned=None
) -> DataFrame:
    """Join pair endpoints to their match records and compute features."""
    ra = records.select(
        F.col("subject").alias("a"),
        F.col("aliases").alias("aliases_a"),
        F.col("attrs").alias("attrs_a"),
    )
    rb = records.select(
        F.col("subject").alias("b"),
        F.col("aliases").alias("aliases_b"),
        F.col("attrs").alias("attrs_b"),
    )
    joined = pairs.join(ra, "a").join(rb, "b")

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            rows = []
            for r in pdf.itertuples(index=False):
                ns = _name_similarity(list(r.aliases_a), list(r.aliases_b), learned)
                asim, acon = _attr_features(dict(r.attrs_a), dict(r.attrs_b))
                rows.append((r.a, r.b, ns, asim, acon))
            yield pd.DataFrame(
                rows, columns=["a", "b", "name_sim", "attr_sim", "attr_conflict"]
            )

    return joined.mapInPandas(compute, schema=PAIR_FEATURE_SCHEMA)


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
