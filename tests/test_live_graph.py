"""Unit tests for live graph construction and curation (§4.1, §4.3)."""
import pytest

from repro.live.construction import LiveEvent, LiveGraph, stable_records_from_universe


@pytest.fixture()
def graph(uni):
    g = LiveGraph()
    g.load_stable(stable_records_from_universe(uni))
    return g


class TestStableLoad:
    def test_every_entity_served(self, graph, uni):
        assert len(graph.kv) == len(uni.entities)

    def test_every_document_reads_back(self, graph, uni):
        for r in stable_records_from_universe(uni):
            doc = graph.get(r["id"])
            assert (doc["id"], doc["names"], doc["types"]) == (r["id"], r["names"], r["types"])
            assert doc["facts"] == r["facts"] and doc["neighbors"] == r["neighbors"]

    def test_get_missing_is_none(self, graph):
        assert graph.get("nope") is None
        assert graph.facts_of("nope", "name") == []

    def test_find_by_name(self, graph, uni):
        eid = int(uni.entities.eid.iloc[0])
        assert str(eid) in graph.find(uni.name_of(eid))

    def test_find_by_alias(self, graph, uni):
        for eid in uni.entities.eid[:80]:
            aliases = uni.aliases_of(int(eid))
            if len(aliases) > 1:
                assert str(int(eid)) in graph.find(aliases[1])
                return
        pytest.skip("no multi-alias entity in slice")

    def test_facts_served(self, graph, uni):
        row = uni.attrs.iloc[0]
        assert str(row.obj) in [str(v) for v in graph.facts_of(str(int(row.eid)), row.predicate)]


class TestStreaming:
    def test_live_fact_upsert_creates_entity(self, graph):
        graph.apply(LiveEvent("live_fact", "game:1", "score", "3-2",
                              name="Cup Final", etype="game"))
        assert graph.facts_of("game:1", "score") == ["3-2"]
        assert "game:1" in graph.find("cup final")

    def test_live_entity_document_matches_stable_shape(self, graph, uni):
        graph.apply(LiveEvent("live_fact", "game:1", "score", "3-2",
                              name="Cup Final", etype="game"))
        stable = graph.get(str(int(uni.entities.eid.iloc[0])))
        live = graph.get("game:1")
        assert set(live) == set(stable)
        assert (live["names"], live["types"]) == (["Cup Final"], ["game"])

    def test_live_fact_update_in_place(self, graph):
        graph.apply(LiveEvent("live_fact", "game:1", "score", "0-0",
                              name="Cup Final", etype="game"))
        graph.apply(LiveEvent("live_fact", "game:1", "score", "1-0"))
        assert graph.facts_of("game:1", "score") == ["1-0"]

    def test_live_shadow_stable(self, graph, uni):
        eid = str(int(uni.entities.eid.iloc[0]))
        pred = uni.attrs[uni.attrs.eid == int(eid)].predicate.iloc[0]
        graph.apply(LiveEvent("live_fact", eid, pred, "LIVE!"))
        assert graph.facts_of(eid, pred) == ["LIVE!"]

    def test_reference_resolution_links_stable_entity(self, graph, uni):
        team = uni.entities[uni.entities.type == "team"].iloc[0]
        graph.apply(
            LiveEvent("live_fact", "game:9", "score", "2-2",
                      name="match", etype="game",
                      refs={"home_team": team["name"]})
        )
        assert str(int(team.eid)) in graph.neighbors_of("game:9", "home_team")

    def test_unknown_event_kind_raises(self, graph):
        with pytest.raises(ValueError):
            graph.apply(LiveEvent("mystery", "x"))


class TestCuration:
    def test_block_suppresses_fact(self, graph, uni):
        row = uni.attrs.iloc[0]
        eid = str(int(row.eid))
        graph.apply(LiveEvent("curation", eid, row.predicate, action="block"))
        assert graph.facts_of(eid, row.predicate) == []

    def test_edit_hot_fixes_fact(self, graph, uni):
        row = uni.attrs.iloc[0]
        eid = str(int(row.eid))
        graph.apply(LiveEvent("curation", eid, row.predicate,
                              value="corrected", action="edit"))
        assert graph.facts_of(eid, row.predicate) == ["corrected"]

    def test_curation_of_unknown_entity_is_ignored(self, graph):
        graph.apply(LiveEvent("curation", "nope", "p", action="block"))
        assert graph.get("nope") is None

    def test_unknown_action_raises(self, graph):
        with pytest.raises(ValueError):
            graph.apply(LiveEvent("curation", "e1", "p", action="zap"))
