"""Each output check passes on a small consistent state and fails when one
output is corrupted: a fact dropped, a confidence shifted, a link moved, a
KGQ answer altered, a store write skipped.

    python3 -m pytest sagabench/test_checks.py -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402

FUNCTIONAL = {"birthdate"}


def fact(subject, predicate, obj, sources, trust, confidence, r_id=None, r_predicate=None):
    return dict(subject=subject, predicate=predicate, r_id=r_id, r_predicate=r_predicate,
                obj=obj, locale="en", sources=sources, trust=trust, confidence=confidence)


@pytest.fixture()
def state():
    """Two sources; s1:1 and s2:1 are one entity, s1:2 another."""
    ingested = pd.DataFrame(
        [("s1:1", "name", "Ann", "s1", 0.8), ("s1:1", "birthdate", "1990", "s1", 0.8),
         ("s1:2", "name", "Bob", "s1", 0.8), ("s1:2", "genre", "rock", "s1", 0.8),
         ("s2:1", "name", "Ann", "s2", 0.9), ("s2:1", "birthdate", "1991", "s2", 0.9)],
        columns=["subject", "predicate", "obj", "source", "trust"],
    )
    links = pd.DataFrame(
        [("s1:1", "kg:s1:1"), ("s1:2", "kg:s1:2"), ("s2:1", "kg:s1:1")],
        columns=["subject", "kg_subject"],
    )
    kg = pd.DataFrame([
        fact("kg:s1:1", "name", "Ann", ["s1", "s2"], [0.8, 0.9], 1 - 0.2 * 0.1),
        fact("kg:s1:1", "birthdate", "1990", ["s1"], [0.8], 0.8 / 1.7),
        fact("kg:s1:1", "birthdate", "1991", ["s2"], [0.9], 0.9 / 1.7),
        fact("kg:s1:1", "same_as", "s1:1", ["s1"], [0.8], 0.8),
        fact("kg:s1:2", "name", "Bob", ["s1"], [0.8], 0.8),
        fact("kg:s1:2", "genre", "rock", ["s1"], [0.8], 0.8),
        fact("kg:s1:2", "spouse", "kg:s1:1", ["s1"], [0.8], 0.8),
        fact("kg:s1:2", "educated_at", "Uni", ["s1"], [0.8], 0.8, "r1", "school"),
    ])
    truth = pd.DataFrame([("s1:1", 1), ("s1:2", 2), ("s2:1", 1)], columns=["id", "eid"])
    ingested = pd.concat([ingested, pd.DataFrame(
        [("s1:2", "spouse", "Ann", "s1", 0.8), ("s1:2", "educated_at", "Uni", "s1", 0.8)],
        columns=ingested.columns)], ignore_index=True)
    return {"ingested": ingested, "links": links, "kg": kg, "truth": truth}


def assertions(st, source="s1"):
    ing = st["ingested"][st["ingested"].source == source]
    return checks.check_assertions(st["kg"], ing, st["links"], source)


def test_consistent_state_passes(state):
    assert assertions(state, "s1") == []
    assert assertions(state, "s2") == []
    assert checks.check_links(state["links"], {"s1:1", "s1:2", "s2:1"}, {"s1:9"}) == []
    assert checks.check_confidence(state["kg"], FUNCTIONAL) == []
    assert checks.check_truth_discovery(state["kg"], FUNCTIONAL) == []
    assert checks.check_clusters(state["links"], state["truth"]) == []
    assert checks.check_store(8, 8, 3, 3) == []


def test_dropped_fact_fails(state):
    state["kg"] = state["kg"][state["kg"].predicate != "genre"]
    assert assertions(state, "s1")


def test_fact_from_wrong_source_fails(state):
    kg = state["kg"]
    kg.at[kg.index[kg.predicate == "genre"][0], "sources"] = ["s2"]
    assert assertions(state, "s1")
    assert assertions(state, "s2")


def test_shifted_confidence_fails(state):
    state["kg"].loc[state["kg"].predicate == "name", "confidence"] -= 1e-6
    assert checks.check_confidence(state["kg"], FUNCTIONAL)


def test_shifted_truth_discovery_confidence_fails(state):
    kg = state["kg"]
    kg.loc[(kg.predicate == "birthdate") & (kg.obj == "1990"), "confidence"] += 0.01
    assert checks.check_truth_discovery(kg, FUNCTIONAL)


def test_moved_link_fails(state):
    links = state["links"]
    links.loc[links.subject == "s1:2", "kg_subject"] = "kg:s1:1"
    assert checks.check_clusters(links, state["truth"])
    assert assertions(state, "s1")


def test_unlinked_duplicate_or_deleted_link_fails(state):
    links = state["links"]
    assert checks.check_links(links[links.subject != "s1:2"], {"s1:1", "s1:2", "s2:1"}, set())
    doubled = pd.concat([links, pd.DataFrame([("s1:2", "kg:x")], columns=links.columns)])
    assert checks.check_links(doubled, {"s1:1", "s1:2", "s2:1"}, set())
    assert checks.check_links(links, {"s1:1", "s2:1"}, {"s1:2"})


def test_retraction_of_a_changed_sibling_record_is_exempt_only_there(state):
    # s1:3 is a second s1 record of kg:s1:2; it changes in the tick and
    # s1:2 does not, so s1:2's assertions on kg:s1:2 may go missing
    ing = state["ingested"]
    prev = pd.concat([ing, pd.DataFrame([("s1:3", "name", "Bob", "s1", 0.8)],
                                        columns=ing.columns)], ignore_index=True)
    cur = prev.copy()
    cur.loc[cur.subject == "s1:3", "obj"] = "Bobby"
    links = pd.concat([state["links"], pd.DataFrame([("s1:3", "kg:s1:2")],
                                                    columns=["subject", "kg_subject"])])
    for df in (prev, cur):
        df["r_id"] = df["r_predicate"] = None
        df["locale"] = "en"
    shared = checks.shared_retractions(prev, cur, links, links)
    assert shared == {"kg:s1:2"}
    assert checks.shared_retractions(prev, prev, links, links) == frozenset()
    gone = checks.shared_retractions(prev, prev[prev.subject != "s1:3"], links, links)
    assert gone == {"kg:s1:2"}

    kg = state["kg"]
    s1 = state["ingested"][state["ingested"].source == "s1"]
    lost = kg[kg.predicate != "genre"]
    assert checks.check_assertions(lost, s1, state["links"], "s1", shared) == []
    assert checks.check_assertions(lost, s1, state["links"], "s1")
    other = kg[kg.predicate != "birthdate"]
    assert checks.check_assertions(other, s1, state["links"], "s1", shared)
    extra = pd.concat([kg, pd.DataFrame([fact("kg:s1:2", "label", "x", ["s1"], [0.8], 0.8)])])
    assert checks.check_assertions(extra, s1, state["links"], "s1", shared)


def test_skipped_store_write_fails():
    assert checks.check_store(7, 8, 3, 3)
    assert checks.check_store(8, 8, 2, 3)


# -- views -------------------------------------------------------------------

def base_frame():
    return pd.DataFrame([
        fact("kg:1", "type", "person", ["a"], [0.8], 0.8),
        fact("kg:1", "name", "Ann", ["a", "b"], [0.8, 0.9], 0.98),
        fact("kg:1", "birthdate", "1990", ["a"], [0.8], 0.8),
        fact("kg:1", "spouse", "kg:2", ["b"], [0.9], 0.9),
        fact("kg:1", "educated_at", "Uni", ["a"], [0.8], 0.8, "r1", "school"),
        fact("kg:2", "type", "person", ["b"], [0.9], 0.9),
        fact("kg:2", "name", "Bob", ["b"], [0.9], 0.9),
        fact("kg:2", "spouse", "kg:1", ["b"], [0.9], 0.9),
        fact("kg:3", "type", "city", ["a"], [0.8], 0.8),
    ])


def person_view():
    return pd.DataFrame({
        "subject": ["kg:1", "kg:2"], "name": ["Ann", "Bob"], "birthdate": ["1990", None],
        "spouse": ["kg:2", "kg:1"], "educated_at.school": ["Uni", None],
    })


def features():
    return pd.DataFrame({
        "subject": ["kg:1", "kg:2", "kg:3"], "out_degree": [1, 1, 0],
        "in_degree": [1, 1, 0], "n_identities": [2, 1, 1],
        "pagerank": [0.45, 0.45, 0.05],
    })


def schematized(view):
    return checks.check_schematized(view, base_frame(), "person", ["birthdate", "spouse"],
                                    {"educated_at": ["school"]})


def test_views_pass_on_consistent_state():
    assert schematized(person_view()) == []
    assert checks.check_degrees(features(), base_frame()) == []
    assert checks.check_pagerank(features()) == []


def test_altered_view_value_fails():
    v = person_view()
    v.loc[0, "birthdate"] = "1991"
    assert schematized(v)
    assert schematized(person_view().iloc[:1])


def test_altered_degree_or_pagerank_fails():
    f = features()
    f.loc[2, "in_degree"] = 1
    assert checks.check_degrees(f, base_frame())
    f = features()
    f.loc[0, "pagerank"] = 0.6
    assert checks.check_pagerank(f)


# -- serving -------------------------------------------------------------------

RECORDS = [
    {"id": "kg:1", "names": ["Ann Lee"], "types": ["person"],
     "facts": {"birthdate": ["1990"], "birthplace": ["Oslo"]},
     "neighbors": {"birthplace": ["kg:3"], "spouse": ["kg:2"]}},
    {"id": "kg:2", "names": ["Bob Lee", "Bobby Lee"], "types": ["person"],
     "facts": {"birthdate": ["1980"]}, "neighbors": {"birthplace": ["kg:3"]}},
    {"id": "kg:3", "names": ["Oslo"], "types": ["city"],
     "facts": {"country": ["NO"]}, "neighbors": {}},
]
QUERIES = [
    ('FIND "Ann Lee" RETURN name,birthdate', dict(find="Ann Lee", returns=("name", "birthdate"))),
    ('FIND "Lee" TYPE person RETURN name', dict(find="Lee", etype="person")),
    ('FIND "Ann Lee" FOLLOW spouse.birthplace RETURN name,country',
     dict(find="Ann Lee", follow=("spouse", "birthplace"), returns=("name", "country"))),
    ('FIND "Nobody Lee" RETURN name', dict(find="Nobody Lee")),
]


def test_reference_matches_engine_and_catches_altered_answer():
    from repro.live.construction import LiveEvent, LiveGraph
    from repro.live.kgq import LiveQueryEngine

    graph = LiveGraph()
    graph.load_stable(RECORDS)
    ref = serving.ReferenceGraph(RECORDS)
    for ev in (LiveEvent("curation", "kg:3", predicate="country", value="SE", action="edit"),
               LiveEvent("curation", "kg:1", predicate="spouse", action="block")):
        graph.apply(ev)
        ref.apply(ev)
    for text, q in QUERIES:
        got = serving.canon(LiveQueryEngine(graph).execute(text))
        want = ref.query(**q)
        assert serving.verdict(got, want, None, 0) == "ok", text
        if got:
            altered = [(got[0][0], {**got[0][1], "name": ["Someone Else"]})] + got[1:]
            assert serving.verdict(altered, want, None, 0) == "incorrect"


def test_stale_answer_needs_a_write_since_the_last_request():
    old = [("kg:1", {"name": ["Ann Lee"], "birthdate": ["1990"]})]
    new = [("kg:1", {"name": ["Ann Lee"], "birthdate": ["1991"]})]
    assert serving.verdict(old, new, (old, 0, None), 1) == "stale"
    assert serving.verdict(old, new, (old, 1, None), 1) == "incorrect"
    assert serving.verdict(new, new, (old, 0, None), 1) == "ok"


def test_stale_probe_reads_fail_while_the_cache_is_not_invalidated():
    from repro.live.construction import LiveGraph
    from repro.live.kgq import LiveQueryEngine

    graph = LiveGraph()
    graph.load_stable(serving.PROBE_RECORDS)
    ref = serving.ReferenceGraph(serving.PROBE_RECORDS)
    engine = LiveQueryEngine(graph)
    last = {q: (serving.canon(engine.execute(q)), 0, None)
            for q in (serving.PROBE_Q0, serving.PROBE_Q1)}
    writes = 0
    verdicts = []
    for op in serving.probe_round(0):
        if op.kind == "write":
            graph.apply(op.ev)
            ref.apply(op.ev)
            writes += 1
            continue
        got = serving.canon(engine.execute(op.text))
        verdicts.append(serving.verdict(got, ref.query(**op.ref[1]), last[op.text], writes))
    # with a cache that is invalidated on writes every verdict is "ok"
    assert set(verdicts) <= {"stale", "ok"}


# -- BENCHMARK.json --------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS.items())
    assert [w["name"] for w in spec["workloads"]] == ["construct", "serving"]
