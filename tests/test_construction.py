"""Integration tests: hybrid batch-incremental construction (§2.4, Fig 5).

Drives the full pipeline over a multi-tick provider timeline and checks
state transitions (adds, updates, deletes, volatile overwrite) plus
ground-truth linking quality of the resulting KG.
"""
import pandas as pd
import pytest
from pyspark.sql import SparkSession, functions as F

from repro.core import schema as S
from repro.core.construction import ConstructionPipeline, SourcePayload, empty_kg
from repro.core.delta import compute_delta
from repro.core.ingestion import IngestionPipeline
from repro.core.matching import match_records
from repro.kgdata.sources import SourceConfig, source_snapshot

SOURCES = [
    SourceConfig("alpha", ("person", "city", "org"), coverage=0.7, trust=0.9,
                 delete_prob=0.2, update_prob=0.5),
    SourceConfig("beta", ("person", "city"), coverage=0.6, trust=0.8,
                 column_map={"name": "label"}),
]
N_TICKS = 4


@pytest.fixture(scope="module")
def history(tuned_spark, uni):
    """Construct over 3 ticks; returns per-tick KG states + snapshots, and
    the session's cached-frame count before the first tick and after each."""
    pipe = ConstructionPipeline(tuned_spark, obr_enabled=True)
    kg = empty_kg(tuned_spark)
    prev, states, snaps = {}, [], []
    cache = tuned_spark._jsparkSession.sharedState().cacheManager()
    cached = [cache.numCachedEntries()]
    for tick in (0, 2, 3):
        payloads, tick_snaps = [], {}
        for cfg in SOURCES:
            snap = source_snapshot(uni, cfg, tick, n_ticks=N_TICKS)
            triples, vol = IngestionPipeline(tuned_spark, cfg).run(snap)
            triples = triples.localCheckpoint(eager=True)
            payloads.append(SourcePayload(cfg, compute_delta(prev.get(cfg.name), triples), vol))
            prev[cfg.name] = triples
            tick_snaps[cfg.name] = snap
        kg = pipe.consume_tick(kg, payloads)
        states.append(kg)
        snaps.append(tick_snaps)
        cached.append(cache.numCachedEntries())
    return states, snaps, cached


class TestStateEvolution:
    def test_kg_populated_at_bootstrap(self, history):
        states, _, _ = history
        c = states[0].counts()
        assert c["facts"] > 200 and c["entities"] > 30

    def test_facts_grow_over_time(self, history):
        states, _, _ = history
        assert states[-1].counts()["facts"] >= states[0].counts()["facts"]

    def test_every_link_target_exists_in_kg(self, history):
        states, _, _ = history
        kg = states[-1]
        targets = kg.links.select(F.col("kg_subject").alias("subject")).distinct()
        subjects = kg.triples.select("subject").distinct()
        missing = targets.join(subjects, "subject", "left_anti").count()
        assert missing == 0

    def test_deleted_entities_lose_source_provenance(self, history, tuned_spark):
        states, snaps, _ = history
        gone = set(snaps[0]["alpha"].entities.id) - set(snaps[-1]["alpha"].entities.id)
        if not gone:
            pytest.skip("no deletions in this window")
        kg = states[-1]
        long = kg.triples.select(
            "subject", "predicate", "obj", F.explode("sources").alias("source")
        ).filter(F.col("source") == "alpha")
        links0 = {r.subject: r.kg_subject for r in states[0].links.collect()}
        current = set(snaps[-1]["alpha"].entities.id)
        kept = {r.kg_subject for r in kg.links.collect() if r.subject in current}
        for g in sorted(gone)[:5]:
            kg_id = links0.get(g)
            if kg_id is None:
                continue
            alpha = {(r.predicate, r.obj) for r in long.filter(F.col("subject") == kg_id).collect()}
            if kg_id not in kept:
                assert not alpha, f"{g} ({kg_id}) still carries alpha provenance"
                continue
            # a current alpha record shares the KG id and keeps its claims;
            # what only the deleted record asserted is gone
            rows = kg.ledger.filter(
                (F.col("subject") == kg_id) & (F.col("source") == "alpha")
            ).collect()
            assert g not in {r.record for r in rows}
            assert (S.SAME_AS_PRED, g) not in alpha
            assert alpha <= {(r.predicate, r.obj) for r in rows}

    def test_updates_reflected_in_kg(self, history):
        states, snaps, _ = history
        # find an entity whose alpha payload changed between tick 0 and 3
        s0 = snaps[0]["alpha"].entities.set_index("id")
        s3 = snaps[-1]["alpha"].entities.set_index("id")
        common = s0.index.intersection(s3.index)
        changed = None
        for i in common:
            for col in s0.columns:
                v0, v3 = s0.loc[i, col], s3.loc[i, col]
                if pd.notna(v0) and pd.notna(v3) and "~r" in str(v3) and v0 != v3:
                    changed = (i, col, str(v3))
                    break
            if changed:
                break
        if not changed:
            pytest.skip("no revision in window")
        rec_id, col, new_val = changed
        links = {r.subject: r.kg_subject for r in states[-1].links.collect()}
        kg_id = links[rec_id]
        objs = {
            r.obj
            for r in states[-1].triples.filter(F.col("subject") == kg_id).collect()
        }
        assert new_val in objs

    def test_ticks_leave_no_cached_frames(self, history):
        # state is kept by local checkpoints; a persist() per tick would leak
        _, _, cached = history
        assert cached == [cached[0]] * len(cached)

    def test_volatile_partition_overwritten_per_tick(self, history):
        states, _, _ = history
        assert "alpha" in states[-1].volatile
        vols = states[-1].volatile["alpha"]
        assert vols.select("predicate").distinct().first().predicate == "popularity"
        # exactly one value per entity (partition overwrite, not append)
        dup = vols.groupBy("subject").count().filter(F.col("count") > 1).count()
        assert dup == 0

    def test_same_as_provenance_recorded(self, history):
        states, _, _ = history
        n = states[-1].triples.filter(F.col("predicate") == S.SAME_AS_PRED).count()
        assert n > 0

    def test_obr_resolved_some_refs(self, history):
        states, _, _ = history
        resolved = states[-1].triples.filter(
            F.col("predicate").isin(list(S.REF_TARGET_TYPE))
            & F.col("obj").startswith("kg:")
            & F.col("r_id").isNull()
        ).count()
        assert resolved > 0

    @pytest.mark.parametrize("state", [0, -1], ids=["onboarding", "after_ticks"])
    def test_ledger_gives_the_fused_kgs_match_records(self, history, state):
        """Linking and OBR read ``match_records(kg.ledger)``: the records are
        those of the fused triples, which only group the ledger by fact."""
        states, _, _ = history
        kg = states[state]

        def rows(triples):
            return sorted(
                (r.subject, r.etype, tuple(r.aliases), tuple(sorted(r.attrs.items())))
                for r in match_records(triples).collect()
            )

        assert rows(kg.ledger) == rows(kg.triples)


def _source_frame(spark, cfg, facts):
    """A source's ingested triples, from (subject, predicate, obj) facts."""
    rows = [(s, p, None, None, o, S.DEFAULT_LOCALE, cfg.name, cfg.trust) for s, p, o in facts]
    pdf = pd.DataFrame(rows, columns=S.SOURCE_TRIPLE_SCHEMA.fieldNames())
    return spark.createDataFrame(pdf, schema=S.SOURCE_TRIPLE_SCHEMA).localCheckpoint(eager=True)


class TestOnboardingObr:
    """Two sources onboard in one tick: a reference literal of the second
    payload resolves to an entity that only the first payload carries."""

    GEO = SourceConfig("geo", ("city",), trust=0.9)
    BIO = SourceConfig("bio", ("person",), trust=0.8)

    def test_second_payload_resolves_against_the_first(self, tuned_spark):
        geo = _source_frame(tuned_spark, self.GEO, [
            ("geo:1", "type", "city"), ("geo:1", "name", "Quillhaven Harbour"),
        ])
        bio = _source_frame(tuned_spark, self.BIO, [
            ("bio:1", "type", "person"), ("bio:1", "name", "Orla Penhallow"),
            ("bio:1", "birthplace", "Quillhaven Harbour"),
        ])
        kg = ConstructionPipeline(tuned_spark).consume_tick(empty_kg(tuned_spark), [
            SourcePayload(self.GEO, compute_delta(None, geo)),
            SourcePayload(self.BIO, compute_delta(None, bio)),
        ])
        links = {r.subject: r.kg_subject for r in kg.links.collect()}
        births = {r.obj for r in kg.triples.filter(
            (F.col("subject") == links["bio:1"]) & (F.col("predicate") == "birthplace")
        ).collect()}
        assert births == {links["geo:1"]}


class TestSiblingRecords:
    """Two records of one source linked to one KG id: updating one of them,
    or deleting it, leaves the other record's assertions in the fused KG."""

    CFG = SourceConfig("solo", ("person",), trust=0.9)
    FACTS = [
        ("solo:1", "type", "person"), ("solo:1", "name", "Ada Lovelace"),
        ("solo:1", "birthdate", "1815-12-10"), ("solo:1", "occupation", "mathematician"),
        ("solo:2", "type", "person"), ("solo:2", "name", "Ada Lovelace"),
        ("solo:2", "birthdate", "1815-12-10"), ("solo:2", "alias", "Augusta Ada King"),
    ]

    @pytest.fixture(scope="class")
    def onboarded(self, tuned_spark):
        pipe = ConstructionPipeline(tuned_spark)
        snap = _source_frame(tuned_spark, self.CFG, self.FACTS)
        kg = pipe.consume_tick(
            empty_kg(tuned_spark), [SourcePayload(self.CFG, compute_delta(None, snap))]
        )
        links = {r.subject: r.kg_subject for r in kg.links.collect()}
        assert links["solo:1"] == links["solo:2"], links  # the case needs one KG id
        return pipe, snap, kg, links["solo:1"]

    def _tick(self, spark, onboarded, facts):
        pipe, snap, kg, kg_id = onboarded
        delta = compute_delta(snap, _source_frame(spark, self.CFG, facts))
        new = pipe.consume_tick(kg, [SourcePayload(self.CFG, delta)])
        return {(r.predicate, r.obj) for r in new.triples.filter(
            (F.col("subject") == kg_id) & F.array_contains("sources", self.CFG.name)
        ).collect()}

    def test_updating_a_sibling_keeps_the_other_records_facts(self, tuned_spark, onboarded):
        facts = [f if f != ("solo:2", "birthdate", "1815-12-10") else ("solo:2", "birthdate", "1815-12-11")
                 for f in self.FACTS]
        have = self._tick(tuned_spark, onboarded, facts)
        assert {("occupation", "mathematician"), ("birthdate", "1815-12-10"),
                (S.SAME_AS_PRED, "solo:1")} <= have
        # the updated record keeps its new facts and its same_as fact
        assert {("birthdate", "1815-12-11"), (S.SAME_AS_PRED, "solo:2")} <= have

    def test_deleting_a_sibling_keeps_the_other_records_facts(self, tuned_spark, onboarded):
        have = self._tick(tuned_spark, onboarded, [f for f in self.FACTS if f[0] == "solo:1"])
        assert {("occupation", "mathematician"), ("birthdate", "1815-12-10"),
                (S.SAME_AS_PRED, "solo:1")} <= have
        # what only the deleted record asserted is gone
        assert not {("alias", "Augusta Ada King"), (S.SAME_AS_PRED, "solo:2")} & have


class TestLinkingQuality:
    def test_cross_source_dedup(self, history, uni):
        """Two sources covering the same entity must converge on one KG id."""
        states, snaps, _ = history
        links = states[-1].links.toPandas()
        truth = {}
        for src in SOURCES:
            for r in snaps[-1][src.name].truth.itertuples(index=False):
                truth[r.id] = r.eid
        links["true_eid"] = links.subject.map(truth)
        valid = links.dropna(subset=["true_eid"])
        both = valid.groupby("true_eid").agg(
            n_src=("subject", lambda s: len({x.split(":")[0] for x in s})),
            n_kg=("kg_subject", "nunique"),
        )
        multi = both[both.n_src > 1]
        assert len(multi) > 5
        assert (multi.n_kg == 1).mean() > 0.8

    def test_cluster_purity(self, history):
        states, snaps, _ = history
        links = states[-1].links.toPandas()
        truth = {}
        for src in SOURCES:
            for r in snaps[-1][src.name].truth.itertuples(index=False):
                truth[r.id] = r.eid
        links["true_eid"] = links.subject.map(truth)
        valid = links.dropna(subset=["true_eid"])
        mixed = (valid.groupby("kg_subject").true_eid.nunique() > 1).sum()
        assert mixed / valid.kg_subject.nunique() < 0.05


class TestNoPythonWorkers:
    """Construction runs in the JVM: no frame is built from a Python list
    (a Python RDD) and no plan evaluates Python code."""

    #: physical operators that run Python workers (MapInPandas,
    #: ArrowEvalPython, BatchEvalPython, FlatMapGroupsInPandas, ...)
    PYTHON_OPERATORS = ("InPandas", "InArrow", "EvalPython")

    @pytest.fixture(scope="class")
    def traced(self, tuned_spark, uni):
        """Onboarding plus one tick; returns what ``createDataFrame`` was
        given and the physical plans of every SQL execution they ran."""
        given = []
        create = SparkSession.createDataFrame

        def spy(session, data, *args, **kwargs):
            given.append(type(data).__name__)
            return create(session, data, *args, **kwargs)

        jsc = tuned_spark.sparkContext._jsc.sc()
        store = tuned_spark._jsparkSession.sharedState().statusStore()

        def executions():
            jsc.listenerBus().waitUntilEmpty()
            seq = store.executionsList()
            return [seq.apply(i) for i in range(seq.size())]

        start = max((e.executionId() for e in executions()), default=-1)
        fallback = "spark.sql.execution.arrow.pyspark.fallback.enabled"
        old = tuned_spark.conf.get(fallback)
        # an Arrow conversion that fails must fail here, not quietly fall
        # back to a Python RDD
        tuned_spark.conf.set(fallback, "false")
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(SparkSession, "createDataFrame", spy)
                pipe = ConstructionPipeline(tuned_spark)
                kg, prev = empty_kg(tuned_spark), {}
                for tick in (0, 1):
                    payloads = []
                    for cfg in SOURCES:
                        snap = source_snapshot(uni, cfg, tick, n_ticks=N_TICKS)
                        triples, vol = IngestionPipeline(tuned_spark, cfg).run(snap)
                        triples = triples.localCheckpoint(eager=True)
                        delta = compute_delta(prev.get(cfg.name), triples)
                        payloads.append(SourcePayload(cfg, delta, vol))
                        prev[cfg.name] = triples
                    kg = pipe.consume_tick(kg, payloads)
        finally:
            tuned_spark.conf.set(fallback, old)
        plans = [e.physicalPlanDescription() for e in executions()
                 if e.executionId() > start]
        return given, plans

    def test_no_frame_from_a_python_list(self, traced):
        given, _ = traced
        assert given and "list" not in given

    def test_no_plan_runs_python(self, traced):
        _, plans = traced
        assert len(plans) > 20
        bad = [p for p in plans if any(op in p for op in self.PYTHON_OPERATORS)]
        assert not bad, bad[0]
