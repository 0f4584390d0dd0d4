"""Per-layer metrics of the traced run: which program functions are wrapped,
under which span names, and how spans become the metrics that
``BENCHMARK.json`` lists under ``per_layer``.

Layer names follow the program's modules.  Each wrapper sits at the name
under which the caller imports the function, so the call made by
``ConstructionPipeline`` is the one traced.
"""
from __future__ import annotations

import inspect
import statistics
from dataclasses import replace

from spans import Tracer, install_checkpoint_hook, tag_df

VIEWS = [
    "embedding_input", "entity_features", "entity_neighborhood", "nerd_entity_view",
    "ranked_entity_index",
    *(f"entity_view_{t}" for t in
      ("album", "artist", "city", "movie", "org", "person", "song", "team")),
]

#: name → unit, in the order BENCHMARK.json lists them
METRICS: dict[str, str] = {
    "ingestion.s": "s", "ingestion.jobs": "count", "ingestion.rows_out": "count",
    "delta.s": "s", "delta.jobs": "count", "delta.changed_entities": "count",
    "matching.kg_records.s": "s", "matching.kg_records.jobs": "count",
    "matching.kg_records.calls": "count",
    "linking.s": "s", "linking.jobs": "count", "linking.records_in": "count",
    "blocking.pairs": "count",
    "clustering.s": "s", "clustering.jobs": "count", "clustering.signed_edges": "count",
    "clustering.signed_share": "ratio",
    "obr.resolver.s": "s", "obr.resolve.s": "s", "obr.literals": "count",
    "obr.resolved": "count", "obr.resolved_share": "ratio",
    "fusion.fuse.s": "s", "fusion.fuse.jobs": "count",
    "fusion.retract.s": "s", "fusion.retract.jobs": "count",
    "fusion.truth_discovery.s": "s", "fusion.truth_discovery.jobs": "count",
    "onboard.cpu_s": "s", "views.cpu_s": "s", "tick.cpu_s": "s", "fresh.cpu_s": "s",
    "construction.tick.s": "s", "construction.tick.jobs": "count",
    "construction.self_s": "s", "spark.jobs_per_tick": "count",
    "engine.stage.s": "s", "engine.publish.s": "s", "engine.agents.s": "s",
    "store.bytes_written": "bytes", "engine.lag_lsn": "count",
    **{f"views.{v}.{k}": u for v in VIEWS for k, u in (("s", "s"), ("jobs", "count"))},
    "views.update.s": "s", "views.update.jobs": "count", "views.nerd.s": "s",
    "live.load.s": "s", "live.apply.us": "us", "live.kv_docs": "count",
    "live.postings": "count",
    "kgq.p50_us": "us", "kgq.qps": "1/s",
    "kgq.lookup.us": "us", "kgq.hop1.us": "us", "kgq.hop2.us": "us", "kgq.op.us": "us",
    "intents.us": "us", "kgq.p99_us": "us", "kgq.requests": "count",
    "kgq.cache_hit_share": "ratio", "kgq.stale": "count",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def install(tracer: Tracer) -> None:
    """Wrap the construction, engine and view entry points."""
    import repro.core.clustering as clustering
    import repro.core.construction as construction
    import repro.core.linking as linking
    from repro.engine.log import GraphEngine
    from repro.engine.store import AnalyticsStore
    from repro.engine.views import ViewManager
    from repro.ml.nerd import NERDIndex

    install_checkpoint_hook(tracer, count={
        "clustering.edges": lambda df: df,
        "delta": lambda df: df.select("subject").distinct(),
    })
    w = tracer.wrap
    w(construction.ConstructionPipeline, "consume_tick", "construction.tick")
    w(construction.ConstructionPipeline, "consume_source", "construction.source")
    w(construction, "match_records", "matching.kg_records", tag=True)

    def link_counts(tr, rec, _out, args, kwargs):
        source_triples, kg_records = args[0], args[1]
        tr.count(rec, "records_in", source_triples.select("subject").distinct())
        tr.count(rec, "records_in", kg_records)

    w(construction, "link_source", "linking", tag=True, after=link_counts)
    w(linking, "candidate_pairs", "blocking",
      after=lambda tr, rec, out, a, k: tr.count(rec, "pairs", out))
    w(linking, "cluster_entities", "clustering", tag=True)
    w(clustering, "signed_edges", "clustering.edges", tag=True)
    w(construction, "build_resolver", "obr.resolver")

    # OBR disambiguates each distinct literal of a resolvable slot once, on
    # the Python process; counting those calls needs no Spark job
    threshold = inspect.signature(construction.resolve_objects).parameters["threshold"].default
    obr = {"literals": 0, "resolved": 0}

    def count_disambiguation(tr, rec, pred, args, kwargs):
        obr["literals"] += 1
        obr["resolved"] += pred.entity_id is not None and pred.confidence >= threshold

    def obr_counts(tr, rec, out, args, kwargs):
        rec["counts"].update(obr)
        obr.update(literals=0, resolved=0)

    w(NERDIndex, "disambiguate", "obr.disambiguate", after=count_disambiguation)
    w(construction, "resolve_objects", "obr.resolve", after=obr_counts)
    w(construction, "fuse", "fusion.fuse", tag=True)
    w(construction, "retract_source", "fusion.retract", tag=True)
    w(construction, "truth_discovery", "fusion.truth_discovery", tag=True)
    w(GraphEngine, "publish", "engine.publish")
    w(GraphEngine, "run_agents", "engine.agents")

    def bytes_written(tr, rec, _out, args, kwargs):
        root = args[0].root / f"v{args[2] if len(args) > 2 else kwargs['version']:06d}"
        rec["counts"]["bytes"] = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())

    w(AnalyticsStore, "write_version", "store.write", after=bytes_written)
    w(ViewManager, "materialize", "views.materialize")

    def view_name(tr, rec, _out, args, kwargs):
        rec["counts"]["view"] = args[2] if len(args) > 2 else kwargs["name"]

    w(ViewManager, "update", "views.update", after=view_name)


def trace_catalog(tracer: Tracer, catalog) -> None:
    """Give every view of ``catalog`` its own span and checkpoint tag."""
    for name in catalog.names():
        vdef = catalog.get(name)

        def create(base, deps, _f=vdef.create, _n=name):
            with tracer.span(f"views.{_n}"):
                out = _f(base, deps)
            tag_df(out, f"views.{_n}")
            return out

        catalog.register(replace(vdef, create=create))


def metrics(tracer: Tracer, result: dict, timed_s: float) -> dict[str, float]:
    """Every per-layer metric; layers the workload does not run read 0."""
    t = tracer
    out = dict.fromkeys(METRICS, 0.0)

    def both(prefix, *names):
        names = names or (prefix,)
        spans = [*names, *(f"{n}.checkpoint" for n in names)]
        out[f"{prefix}.s"] = t.total(*spans)
        out[f"{prefix}.jobs"] = t.total(*spans, key="jobs")

    both("ingestion")
    out["ingestion.rows_out"] = t.total_count("ingestion", "rows_out")
    both("delta")
    out["delta.changed_entities"] = t.total_count("delta.checkpoint", "rows")
    both("matching.kg_records")
    out["matching.kg_records.calls"] = len(t.find("matching.kg_records"))
    both("linking")
    out["linking.records_in"] = t.total_count("linking", "records_in")
    out["blocking.pairs"] = t.total_count("blocking", "pairs")
    both("clustering", "clustering")
    edges = t.total_count("clustering.edges.checkpoint", "rows")
    out["clustering.signed_edges"] = edges
    out["clustering.signed_share"] = edges / out["blocking.pairs"] if out["blocking.pairs"] else 0.0
    out["obr.resolver.s"] = t.total("obr.resolver")
    out["obr.resolve.s"] = t.total("obr.resolve")
    out["obr.literals"] = t.total_count("obr.resolve", "literals")
    out["obr.resolved"] = t.total_count("obr.resolve", "resolved")
    out["obr.resolved_share"] = (out["obr.resolved"] / out["obr.literals"]
                                 if out["obr.literals"] else 0.0)
    both("fusion.fuse")
    both("fusion.retract")
    both("fusion.truth_discovery")
    ticks = t.find("construction.tick")
    out["construction.tick.s"] = t.total("construction.tick")
    out["construction.tick.jobs"] = t.total("construction.tick", key="jobs")
    out["construction.self_s"] = sum(
        t.self_time(s) for s in t.spans if s["name"] in ("construction.tick", "construction.source"))
    out["spark.jobs_per_tick"] = out["construction.tick.jobs"] / len(ticks) if ticks else 0.0
    out["engine.stage.s"] = t.total("engine.stage")
    out["engine.publish.s"] = t.total("engine.publish")
    out["engine.agents.s"] = t.total("engine.agents")
    out["store.bytes_written"] = t.total_count("store.write", "bytes")
    if result.get("lag_lsn"):
        out["engine.lag_lsn"] = statistics.median(result["lag_lsn"])
    for v in VIEWS:
        both(f"views.{v}")
    updates = t.find("views.update")
    out["views.update.s"] = t.total("views.update")
    out["views.update.jobs"] = t.total("views.update", key="jobs")
    out["views.nerd.s"] = sum(s["end"] - s["start"] for s in updates
                              if s["counts"].get("view") == "nerd_entity_view")
    out.update(result.get("layers", {}))
    out["trace.overhead_s"] = t.overhead_s
    out["trace.overhead_share"] = t.overhead_s / timed_s if timed_s else 0.0
    return out
