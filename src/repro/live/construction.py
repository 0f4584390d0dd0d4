"""Live Graph construction (§4.1) and curation (§4.3).

The live KG is the union of a *view of the stable graph* with real-time
streaming sources (sports scores, stock prices, flights).  Live entities
are uniquely identifiable across sources (no linking/fusion needed), but
their *references* to stable entities (teams, venues, cities) are text
mentions, resolved at ingest through the inverted index.  Curations
arrive as just another streaming source and *hot fix* the documents
directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.live.index import InvertedIndex


@dataclass
class LiveEvent:
    """One streaming update.

    ``kind='live_fact'``: upsert ``predicate=value`` on a (possibly new)
    live entity; ``refs`` maps reference predicates to *text mentions* of
    stable entities, resolved at ingest.
    ``kind='curation'``: human curation — ``action='block'`` quarantines a
    fact, ``action='edit'`` replaces its value (§4.3).
    """

    kind: str
    entity_id: str
    predicate: str = ""
    value: object = None
    name: str | None = None
    etype: str | None = None
    refs: dict[str, str] = field(default_factory=dict)
    action: str = ""


class LiveGraph:
    """Stable-graph view ∪ streaming sources, served from an inverted index
    and a KV store of entity documents (entity id → document)."""

    def __init__(self):
        self.kv: dict[str, dict] = {}
        self.index = InvertedIndex()

    def _put(self, eid: str, names, types, facts: dict, neighbors: dict) -> dict:
        """Store a new entity document and index its names."""
        doc = {
            "id": eid,
            "names": list(names),
            "types": list(types),
            "facts": {k: list(v) for k, v in facts.items()},
            "neighbors": {k: list(v) for k, v in neighbors.items()},
            "live": {},
            "blocked": set(),
        }
        self.kv[eid] = doc
        for nm in doc["names"]:
            self.index.add(nm, eid)
        return doc

    # -- stable side -------------------------------------------------------
    def load_stable(self, records: list[dict]) -> None:
        """Ingest a stable-KG view: one record per entity with ``id``,
        ``names``, ``types``, ``facts`` (pred → list of values) and
        ``neighbors`` (pred → list of entity ids)."""
        for r in records:
            self._put(r["id"], r.get("names", []), r.get("types", []),
                      r.get("facts", {}), r.get("neighbors", {}))

    # -- streaming side ------------------------------------------------------
    def apply(self, ev: LiveEvent) -> None:
        """Apply one streaming event; all effects are immediately visible."""
        if ev.kind == "curation":
            self._apply_curation(ev)
            return
        if ev.kind != "live_fact":
            raise ValueError(f"unknown event kind {ev.kind!r}")
        doc = self.kv.get(ev.entity_id)
        if doc is None:
            doc = self._put(ev.entity_id, [ev.name] if ev.name else [],
                            [ev.etype] if ev.etype else [], {}, {})
        if ev.predicate:
            doc["live"][ev.predicate] = ev.value
        # resolve text references to stable entities (§4.1)
        for pred, mention in ev.refs.items():
            target = self.resolve_reference(mention)
            if target is not None:
                doc["neighbors"].setdefault(pred, [])
                if target not in doc["neighbors"][pred]:
                    doc["neighbors"][pred].append(target)

    def resolve_reference(self, mention: str) -> str | None:
        """Mention text → stable entity id: the first id whose names hold
        every token of the mention."""
        ids = sorted(self.index.lookup(mention))
        return ids[0] if ids else None

    def _apply_curation(self, ev: LiveEvent) -> None:
        """Hot fix the served document in place."""
        if ev.action not in ("block", "edit"):
            raise ValueError(f"unknown curation action {ev.action!r}")
        doc = self.kv.get(ev.entity_id)
        if doc is None:
            return
        if ev.action == "block":
            doc["blocked"].add(ev.predicate)
        else:
            doc["facts"][ev.predicate] = [ev.value]
            doc["blocked"].discard(ev.predicate)

    # -- read surface used by the query engine -----------------------------
    def get(self, entity_id: str) -> dict | None:
        return self.kv.get(entity_id)

    def facts_of(self, entity_id: str, predicate: str) -> list:
        """Serving-time fact lookup: live values shadow stable ones and
        blocked facts are suppressed."""
        doc = self.kv.get(entity_id)
        if doc is None or predicate in doc["blocked"]:
            return []
        if predicate in doc["live"]:
            return [doc["live"][predicate]]
        return list(doc["facts"].get(predicate, []))

    def neighbors_of(self, entity_id: str, predicate: str) -> list[str]:
        doc = self.kv.get(entity_id)
        if doc is None or predicate in doc["blocked"]:
            return []
        return list(doc["neighbors"].get(predicate, []))

    def find(self, text: str) -> list[str]:
        """All-token index lookup, falling back to any-token."""
        ids = self.index.lookup(text) or self.index.lookup_any(text)
        return sorted(ids)


def stable_records_from_universe(uni) -> list[dict]:
    """Build the stable-graph view records from the ground-truth universe
    (experiment harness path; production uses an engine view)."""
    recs = []
    for eid, etype in zip(uni.entities.eid, uni.entities.type):
        eid = int(eid)
        attrs = uni.attrs[uni.attrs.eid == eid]
        facts: dict[str, list] = {}
        neighbors: dict[str, list[str]] = {}
        for pred, obj, obj_eid in zip(attrs.predicate, attrs.obj, attrs.obj_eid):
            facts.setdefault(pred, []).append(obj)
            if obj_eid == obj_eid and obj_eid is not None:  # not NaN
                neighbors.setdefault(pred, []).append(str(int(obj_eid)))
        recs.append(
            {
                "id": str(eid),
                "names": uni.aliases_of(eid),
                "types": [etype],
                "facts": facts,
                "neighbors": neighbors,
            }
        )
    return recs
