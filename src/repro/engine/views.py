"""KG views (§3.2): view catalog, dependency DAG, View Manager, and the
standard view library used by production scenarios (Fig 7).

A view is *any* transformation of the graph (sub-graphs, schematized
relational views, aggregates, iterative algorithms).  Definitions are
scripted against the engine's native API (here: DataFrame transforms),
registered in a central catalog with their dependencies, and materialized
by the View Manager.  Sharing common ancestor views across consumers is
the multi-query optimization measured in E2 (the paper reports a 26%
runtime improvement from reuse); ``materialize(..., reuse=False)``
recomputes shared ancestors per consumer to reproduce the baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core import schema as S
from repro.engine.importance import importance_view

#: predicates that are metadata rather than knowledge (filtered from
#: embedding-training input, §5.3)
_METADATA_PREDS = [S.SAME_AS_PRED, *S.VOLATILE_PREDS]


@dataclass(frozen=True)
class ViewDefinition:
    """One registered view: ``create`` receives the base KG and the
    materialized dependency views."""

    name: str
    create: Callable[[DataFrame, dict[str, DataFrame]], DataFrame]
    deps: tuple[str, ...] = ()


class ViewCatalog:
    """Central catalog of view definitions + dependency edges."""

    def __init__(self) -> None:
        self._defs: dict[str, ViewDefinition] = {}

    def register(self, vdef: ViewDefinition) -> None:
        for d in vdef.deps:
            if d not in self._defs:
                raise KeyError(f"view {vdef.name!r} depends on unknown view {d!r}")
        self._defs[vdef.name] = vdef

    def get(self, name: str) -> ViewDefinition:
        return self._defs[name]

    def names(self) -> list[str]:
        return sorted(self._defs)

    def topo_order(self, targets: list[str]) -> list[str]:
        """Dependency-closed topological order covering ``targets``."""
        order: list[str] = []
        seen: set[str] = set()
        onpath: set[str] = set()

        def visit(n: str) -> None:
            if n in seen:
                return
            if n in onpath:
                raise ValueError(f"cyclic view dependency through {n!r}")
            onpath.add(n)
            for d in self.get(n).deps:
                visit(d)
            onpath.discard(n)
            seen.add(n)
            order.append(n)

        for t in targets:
            visit(t)
        return order


class ViewManager:
    """Materializes registered views and refreshes them per tick."""

    def __init__(self, spark: SparkSession, catalog: ViewCatalog):
        self.spark = spark
        self.catalog = catalog
        self.materialized: dict[str, DataFrame] = {}

    def materialize(
        self, base: DataFrame, targets: list[str], *, reuse: bool = True
    ) -> dict[str, DataFrame]:
        """Compute ``targets`` over KG ``base``.

        ``reuse=True`` computes the dependency closure once in topological
        order (shared ancestors materialized a single time).  ``reuse=False``
        models the legacy one-pipeline-per-consumer deployment: each target
        recomputes its entire ancestor chain privately (E2 baseline).
        """
        out: dict[str, DataFrame] = {}
        for group in [targets] if reuse else [[t] for t in targets]:
            done: dict[str, DataFrame] = {}
            for name in self.catalog.topo_order(group):
                vdef = self.catalog.get(name)
                inputs = {d: done[d] for d in vdef.deps}
                done[name] = vdef.create(base, inputs).localCheckpoint(eager=True)
            out.update((t, done[t]) for t in group)
        self.materialized.update(out)
        return out

    def update(
        self, base: DataFrame, name: str, changed_ids: DataFrame
    ) -> DataFrame:
        """Refresh one materialized view over the new ``base``.

        Dependencies are read from their maintained copies; only one that
        was never materialized is computed (with its own dependencies).
        The view itself is recomputed in full: an incremental procedure
        over ``changed_ids`` (the tick's changed entity ids) must equal a
        full materialize, and none has yet been measured to be cheaper.
        """
        vdef = self.catalog.get(name)
        self.materialize(base, [d for d in vdef.deps if d not in self.materialized])
        deps = {d: self.materialized[d] for d in vdef.deps}
        new = vdef.create(base, deps).localCheckpoint(eager=True)
        self.materialized[name] = new
        return new


# --------------------------------------------------------------------------
# Standard view library (Fig 7 + §5 consumers)
# --------------------------------------------------------------------------

def _entity_names(base: DataFrame) -> DataFrame:
    return (
        base.filter(F.col("predicate").isin(S.NAME_PRED, S.ALIAS_PRED))
        .groupBy("subject")
        .agg(F.array_sort(F.collect_set("obj")).alias("names"))
    )


def _v_entity_features(base: DataFrame, deps: dict) -> DataFrame:
    """Per-entity structural features (degrees, identities, PageRank)."""
    return importance_view(base)


def _v_ranked_entity_index(base: DataFrame, deps: dict) -> DataFrame:
    """Textual references + scoring features → indexible ranked entities."""
    feats = deps["entity_features"]
    return (
        _entity_names(base)
        .select("subject", F.explode("names").alias("text"))
        .join(feats.select("subject", "importance"), "subject", "left")
        .fillna(0.0, subset=["importance"])
        .orderBy(F.desc("importance"), "subject", "text")
    )


def _v_entity_neighborhood(base: DataFrame, deps: dict) -> DataFrame:
    """Edges enriched with endpoint features (graph-embedding input)."""
    feats = deps["entity_features"].select("subject", "importance")
    edges = (
        base.filter(F.col("obj").startswith("kg:"))
        .select("subject", "predicate", F.col("obj").alias("neighbor"))
        .distinct()
    )
    return (
        edges.join(feats, "subject", "left")
        .withColumnRenamed("importance", "subject_importance")
        .join(
            feats.select(
                F.col("subject").alias("neighbor"),
                F.col("importance").alias("neighbor_importance"),
            ),
            "neighbor",
            "left",
        )
        .fillna(0.0, subset=["subject_importance", "neighbor_importance"])
    )


def _v_embedding_input(base: DataFrame, deps: dict) -> DataFrame:
    """Facts describing entity relationships only (KGE training, §5.3)."""
    return (
        base.filter(
            F.col("obj").startswith("kg:")
            & ~F.col("predicate").isin(_METADATA_PREDS)
        )
        .select(
            F.col("subject").alias("head"),
            F.coalesce("r_predicate", "predicate").alias("rel"),
            F.col("obj").alias("tail"),
        )
        .distinct()
    )


def _v_nerd_entity_view(base: DataFrame, deps: dict) -> DataFrame:
    """Per-entity summary powering NERD (§5.2): names, types, neighbor
    names/types, importance."""
    names = _entity_names(base)
    types = (
        base.filter(F.col("predicate") == S.TYPE_PRED)
        .groupBy("subject")
        .agg(F.array_sort(F.collect_set("obj")).alias("types"))
    )
    edges = (
        base.filter(F.col("obj").startswith("kg:"))
        .select("subject", F.col("obj").alias("neighbor"))
        .distinct()
    )
    nbr = (
        edges.join(
            names.select(
                F.col("subject").alias("neighbor"), F.col("names").alias("nnames")
            ),
            "neighbor",
        )
        .join(
            types.select(
                F.col("subject").alias("neighbor"), F.col("types").alias("ntypes")
            ),
            "neighbor",
            "left",
        )
        .groupBy("subject")
        .agg(
            F.array_sort(F.flatten(F.collect_list("nnames"))).alias("neighbor_names"),
            F.array_sort(
                F.flatten(F.collect_list(F.coalesce("ntypes", F.array())))
            ).alias("neighbor_types"),
        )
    )
    feats = deps["entity_features"].select("subject", "importance")
    return (
        names.join(types, "subject", "left")
        .join(nbr, "subject", "left")
        .join(feats, "subject", "left")
        .select(
            "subject",
            "names",
            F.coalesce("types", F.array()).alias("types"),
            F.coalesce("neighbor_names", F.array()).alias("neighbor_names"),
            F.coalesce("neighbor_types", F.array()).alias("neighbor_types"),
            F.coalesce("importance", F.lit(0.0)).alias("importance"),
        )
    )


def schematized_entity_view(
    base: DataFrame, etype: str, *, predicates: list[str] | None = None
) -> DataFrame:
    """Optimized schematized view of one entity type (Fig 8 fast path).

    Extended triples carry one-hop relationship facts inline, so the whole
    wide view is a *single* grouped aggregation — no per-predicate
    self-joins.  Composite columns are named ``<predicate>.<r_predicate>``
    (the ``educated_at.school`` style of §2.1).
    """
    preds = predicates or S.all_predicates(etype)
    comp = S.COMPOSITE_RELS.get(etype, {})
    subjects = base.filter(
        (F.col("predicate") == S.TYPE_PRED) & (F.col("obj") == etype)
    ).select("subject")
    scoped = base.join(subjects, "subject", "left_semi")
    aggs = [
        F.min(F.when(F.col("predicate") == S.NAME_PRED, F.col("obj"))).alias("name")
    ]
    for p in preds:
        aggs.append(
            F.min(
                F.when(
                    (F.col("predicate") == p) & F.col("r_id").isNull(), F.col("obj")
                )
            ).alias(p)
        )
    for cpred, rpreds in comp.items():
        for rp in rpreds:
            aggs.append(
                F.min(
                    F.when(
                        (F.col("predicate") == cpred)
                        & (F.col("r_predicate") == rp),
                        F.col("obj"),
                    )
                ).alias(f"{cpred}.{rp}")
            )
    return scoped.groupBy("subject").agg(*aggs)


def standard_catalog() -> ViewCatalog:
    """The production view DAG of Fig 7 plus §5 consumer views."""
    cat = ViewCatalog()
    cat.register(ViewDefinition("entity_features", _v_entity_features))
    cat.register(
        ViewDefinition(
            "ranked_entity_index", _v_ranked_entity_index, deps=("entity_features",)
        )
    )
    cat.register(
        ViewDefinition(
            "entity_neighborhood", _v_entity_neighborhood, deps=("entity_features",)
        )
    )
    cat.register(ViewDefinition("embedding_input", _v_embedding_input))
    cat.register(
        ViewDefinition(
            "nerd_entity_view", _v_nerd_entity_view, deps=("entity_features",)
        )
    )
    for etype in S.ONTOLOGY:
        cat.register(
            ViewDefinition(
                f"entity_view_{etype}",
                lambda base, deps, t=etype: schematized_entity_view(base, t),
            )
        )
    return cat
