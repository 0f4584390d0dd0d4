"""Spark tests for the linking pipeline (§2.3): in-source dedup + subject
linking against the KG view, with ground-truth verification."""
import pytest
from pyspark.sql import functions as F

from repro.core import schema as S
from repro.core.ingestion import IngestionPipeline
from repro.core.linking import link_source, same_as_facts
from repro.core.matching import match_records
from repro.kgdata.sources import SourceConfig, source_snapshot

CFG = SourceConfig("linksrc", ("person", "city", "org"), coverage=0.8, dup_prob=0.25)


@pytest.fixture(scope="module")
def linked(tuned_spark, uni, small_kg):
    snap = source_snapshot(uni, CFG, 0)
    triples, _ = IngestionPipeline(tuned_spark, CFG).run(snap)
    triples = triples.localCheckpoint(eager=True)
    kg_records = match_records(small_kg).localCheckpoint(eager=True)
    link_map = link_source(triples, kg_records).localCheckpoint(eager=True)
    return snap, triples, link_map


class TestCoverage:
    def test_every_source_entity_linked(self, linked):
        snap, triples, link_map = linked
        n_src = triples.select("subject").distinct().count()
        assert link_map.count() == n_src
        assert link_map.select("subject").distinct().count() == n_src

    def test_all_targets_in_kg_namespace(self, linked):
        _, _, link_map = linked
        bad = link_map.filter(~F.col("kg_subject").startswith("kg:")).count()
        assert bad == 0


class TestAccuracy:
    """Ground-truth checks — the KG here *is* the universe, so the correct
    link for source entity of eid e is kg:<e>."""

    @pytest.fixture(scope="class")
    def eval_frame(self, linked):
        snap, _, link_map = linked
        truth = dict(zip(snap.truth.id, snap.truth.eid))
        pdf = link_map.toPandas()
        pdf["expected"] = pdf.subject.map(lambda s: f"kg:{truth[s]}")
        return pdf

    def test_subject_linking_recall(self, eval_frame):
        """Most source entities must be linked to their true KG entity."""
        acc = (eval_frame.kg_subject == eval_frame.expected).mean()
        assert acc > 0.9, f"linking accuracy {acc:.3f}"

    def test_no_wrong_merges(self, eval_frame):
        """Source records assigned to some KG entity must be that entity
        (precision of accepted links)."""
        to_kg = eval_frame[eval_frame.kg_subject.isin(set(eval_frame.expected))]
        prec = (to_kg.kg_subject == to_kg.expected).mean()
        assert prec > 0.97, f"linking precision {prec:.3f}"

    def test_in_source_duplicates_deduplicated(self, eval_frame):
        dups = eval_frame[eval_frame.subject.str.contains(":d")]
        assert len(dups) > 0
        originals = eval_frame.set_index("subject").kg_subject
        same = [
            originals[d.subject] == originals.get(d.subject.replace(":d", ":"))
            for d in dups.itertuples()
        ]
        assert sum(same) / len(same) > 0.85


class TestSameAs:
    @pytest.fixture(scope="class")
    def same_as(self, linked):
        _, _, link_map = linked
        return same_as_facts(link_map, source_name=CFG.name, trust=CFG.trust)

    def test_same_as_records_every_link(self, linked, same_as):
        _, _, link_map = linked
        assert same_as.count() == link_map.count()
        row = same_as.first()
        assert row.predicate == S.SAME_AS_PRED
        assert row.source == CFG.name and row.trust == CFG.trust

    def test_same_as_subject_is_kg_object_is_source(self, same_as):
        bad = same_as.filter(
            ~F.col("subject").startswith("kg:") | F.col("obj").startswith("kg:")
        ).count()
        assert bad == 0
