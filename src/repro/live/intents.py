"""Query-intent handling and multi-turn context (§4.2).

The intent handler routes annotated natural-language queries to KGQ
executions.  Routing is *semantic*: the same high-level intent maps to
different graph queries depending on the argument entity's type — the
paper's ``HeadOfState(Canada) → prime_minister`` vs ``HeadOfState(Chicago)
→ mayor`` example becomes ``WhereIs(team) → home_city`` vs
``WhereIs(person) → birthplace`` in our ontology.  A context graph of
previous intents and answers supports follow-ups ("How about Tom Hanks?",
"Where is she from?") by re-binding the previous intent or pulling the
argument from a previous answer.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from repro.live.construction import LiveGraph
from repro.live.kgq import LiveQueryEngine, QueryResult


@dataclass
class Intent:
    """A target intent with its (entity) argument."""

    name: str
    arg: str  # entity id


@dataclass
class Turn:
    utterance: str
    intent: Intent | None
    answers: list[QueryResult]


#: intent → (entity type → predicate to traverse); ``*`` is the fallback.
#: This table IS the semantic routing: one intent, type-dependent queries.
INTENT_ROUTES: dict[str, dict[str, str]] = {
    "SpouseOf": {"*": "spouse"},
    "Birthplace": {"*": "birthplace"},
    "WhereIs": {"team": "home_city", "org": "in_city", "*": "birthplace"},
    "ArtistOf": {"*": "by_artist"},
}

#: intents answered by a fact predicate instead of a traversal
FACT_INTENTS: dict[str, str] = {"AgeOf": "birthdate", "GenreOf": "genre"}

_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"who is (?P<arg>.+?) married to\??$", re.I), "SpouseOf"),
    (re.compile(r"where is (?P<arg>.+?) from\??$", re.I), "Birthplace"),
    (re.compile(r"where (?:is|are) (?:the )?(?P<arg>.+?)\??$", re.I), "WhereIs"),
    (re.compile(r"who (?:sings|performs) (?P<arg>.+?)\??$", re.I), "ArtistOf"),
    (re.compile(r"how old is (?P<arg>.+?)\??$", re.I), "AgeOf"),
]
_FOLLOWUP = re.compile(r"how about (?P<arg>.+?)\??$", re.I)
_PRONOUNS = {"she", "he", "they", "her", "him", "them", "it"}


class IntentHandler:
    """Processes annotated NL queries by routing intents to KGQ."""

    def __init__(self, graph: LiveGraph, engine: LiveQueryEngine):
        self.graph = graph
        self.engine = engine
        self.context: list[Turn] = []

    # -- entity binding -------------------------------------------------------
    def _bind_entity(self, text: str) -> str | None:
        text = text.strip()
        if text.lower() in _PRONOUNS:
            # pull the argument from the context graph: the most recent
            # *answer* entity (line 7→8 of the paper's example)
            for turn in reversed(self.context):
                for ans in turn.answers:
                    return ans.entity_id
            return None
        ids = self.graph.find(text)
        return ids[0] if ids else None

    # -- intent routing -------------------------------------------------------
    def _route(self, intent: Intent) -> list[QueryResult]:
        doc = self.graph.get(intent.arg) or {}
        etypes = doc.get("types", [])
        if intent.name in FACT_INTENTS:
            pred = FACT_INTENTS[intent.name]
            return [QueryResult(intent.arg, {pred: self.graph.facts_of(intent.arg, pred)})]
        routes = INTENT_ROUTES[intent.name]
        pred = next((routes[t] for t in etypes if t in routes), routes.get("*"))
        if pred is None:
            return []
        name = (doc.get("names") or [""])[0]
        kgq = f'FIND "{name}" FOLLOW {pred} RETURN name'
        return self.engine.execute(kgq)

    # -- public API ------------------------------------------------------------
    def process(self, utterance: str) -> Turn:
        """Understand one utterance, execute it, record it in the context."""
        intent: Intent | None = None

        m = _FOLLOWUP.match(utterance.strip())
        if m:
            # intent ellipsis: reuse the previous turn's intent name with a
            # freshly bound argument (lines 4–5 of the paper's example)
            prev = next((t.intent for t in reversed(self.context) if t.intent), None)
            arg = self._bind_entity(m.group("arg"))
            if prev and arg:
                intent = Intent(prev.name, arg)
        else:
            for pat, name in _PATTERNS:
                m = pat.match(utterance.strip())
                if m:
                    arg = self._bind_entity(m.group("arg"))
                    if arg:
                        intent = Intent(name, arg)
                    break

        answers = self._route(intent) if intent else []
        turn = Turn(utterance, intent, answers)
        self.context.append(turn)
        return turn
