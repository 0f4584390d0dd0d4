"""Unit tests for intent handling and multi-turn context (§4.2)."""
import pytest

from repro.live.construction import LiveGraph, stable_records_from_universe
from repro.live.intents import IntentHandler
from repro.live.kgq import LiveQueryEngine


@pytest.fixture()
def handler(uni):
    g = LiveGraph()
    g.load_stable(stable_records_from_universe(uni))
    return IntentHandler(g, LiveQueryEngine(g))


def _person_with(uni, pred):
    rows = uni.attrs[(uni.attrs.predicate == pred) & uni.attrs.obj_eid.notna()]
    merged = rows.merge(uni.entities[["eid", "type"]], on="eid")
    merged = merged[merged.type == "person"]
    # unique-named subjects only, so FIND binds deterministically
    for r in merged.itertuples():
        name = uni.name_of(int(r.eid))
        if (uni.entities.name == name).sum() == 1:
            return r
    return None


class TestIntentRouting:
    def test_spouse_of(self, handler, uni):
        row = _person_with(uni, "spouse")
        assert row is not None
        turn = handler.process(f"Who is {uni.name_of(int(row.eid))} married to?")
        assert turn.intent and turn.intent.name == "SpouseOf"
        assert str(int(row.obj_eid)) in [a.entity_id for a in turn.answers]

    def test_birthplace(self, handler, uni):
        row = _person_with(uni, "birthplace")
        assert row is not None
        turn = handler.process(f"Where is {uni.name_of(int(row.eid))} from?")
        assert turn.intent.name == "Birthplace"
        assert str(int(row.obj_eid)) in [a.entity_id for a in turn.answers]

    def test_age_of_returns_birthdate_fact(self, handler, uni):
        row = _person_with(uni, "birthplace")
        eid = int(row.eid)
        bd = uni.attrs[(uni.attrs.eid == eid) & (uni.attrs.predicate == "birthdate")]
        turn = handler.process(f"How old is {uni.name_of(eid)}?")
        assert turn.intent.name == "AgeOf"
        if len(bd):
            assert turn.answers[0].values["birthdate"] == [bd.obj.iloc[0]]

    def test_semantic_routing_where_is(self, handler, uni):
        """Same intent, different graph query by entity type (the paper's
        HeadOfState example): WhereIs(team) → home_city."""
        teams = uni.attrs[(uni.attrs.predicate == "home_city") & uni.attrs.obj_eid.notna()]
        for r in teams.itertuples():
            name = uni.name_of(int(r.eid))
            if (uni.entities.name == name).sum() == 1:
                turn = handler.process(f"Where are the {name}?")
                assert turn.intent.name == "WhereIs"
                assert str(int(r.obj_eid)) in [a.entity_id for a in turn.answers]
                return
        pytest.skip("no uniquely-named team with home_city")

    def test_unparseable_utterance_yields_no_intent(self, handler):
        turn = handler.process("please render the weekly report")
        assert turn.intent is None and turn.answers == []


class TestContext:
    def test_paper_example_sequence(self, handler, uni):
        """The §4.2 example: spouse → 'how about X' → 'where is she from'."""
        r1 = _person_with(uni, "spouse")
        assert r1 is not None
        # find a second person whose spouse has a birthplace
        bp_subjects = set(
            uni.attrs[(uni.attrs.predicate == "birthplace") & uni.attrs.obj_eid.notna()].eid
        )
        r2 = None
        rows = uni.attrs[(uni.attrs.predicate == "spouse") & uni.attrs.obj_eid.notna()]
        for r in rows.itertuples():
            nm = uni.name_of(int(r.eid))
            if (
                int(r.eid) != int(r1.eid)
                and int(r.obj_eid) in bp_subjects
                and (uni.entities.name == nm).sum() == 1
            ):
                r2 = r
                break
        if r2 is None:
            pytest.skip("world lacks a spouse-with-birthplace second person")

        t1 = handler.process(f"Who is {uni.name_of(int(r1.eid))} married to?")
        assert t1.intent.name == "SpouseOf"

        t2 = handler.process(f"How about {uni.name_of(int(r2.eid))}?")
        assert t2.intent.name == "SpouseOf"  # intent pulled from context
        spouse = str(int(r2.obj_eid))
        assert spouse in [a.entity_id for a in t2.answers]

        t3 = handler.process("Where is she from?")
        assert t3.intent.name == "Birthplace"
        assert t3.intent.arg == spouse  # argument bound from previous answer

    def test_followup_without_context_is_noop(self, handler):
        turn = handler.process("How about Tom Hanks?")
        assert turn.intent is None

    def test_pronoun_without_context_is_noop(self, handler):
        turn = handler.process("Where is she from?")
        assert turn.intent is None
