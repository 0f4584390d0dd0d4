"""NERD: Named Entity Recognition and Disambiguation (§5.2, Figs 10–11).

Pipeline: **NERD Entity View** (per-entity summary: names/aliases, types,
description, important one-hop neighbours, neighbour types, importance) →
**candidate retrieval** (token inverted index + string similarity, the
"blocking" of entity linking) → **contextual disambiguation** (one-vs-all
classification over candidates with a rejection option).

The paper's transformer scorer is substituted by a calibrated feature-based
scorer (name similarity ⊕ context/neighbour overlap ⊕ type match ⊕
importance prior) — see DESIGN.md §3; the measured contrast (relational
context rescues tail entities that a popularity-prior baseline misses) is
the same.  The *baseline* model here reproduces the paper's "alternative
deployed solution": it learns entity priors but uses no relational KG
context, so it is strong on head entities and weak on tails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ml.simfns import jaccard_qgram, levenshtein_sim, normalize

_STOP = {"the", "a", "an", "of", "at", "in", "and"}


@dataclass
class EntityRecord:
    """One row of the NERD Entity View."""

    entity_id: str
    names: list[str]
    types: list[str]
    description: str = ""
    neighbor_names: list[str] = field(default_factory=list)
    neighbor_types: list[str] = field(default_factory=list)
    importance: float = 0.0

    def evidence_tokens(self) -> set[str]:
        toks: set[str] = set()
        for s in self.neighbor_names + self.neighbor_types + [self.description]:
            toks.update(t for t in normalize(s).split() if t not in _STOP)
        return toks


@dataclass
class Prediction:
    """Disambiguation outcome: ``entity_id=None`` means rejected (NIL)."""

    entity_id: str | None
    confidence: float


@dataclass(frozen=True)
class ScorerConfig:
    """Weights of the disambiguation scorer; a zero weight skips its term.
    ``w_context=0`` + ``w_importance`` high reproduces the deployed
    baseline."""

    w_name: float = 3.0
    w_context: float = 4.0
    w_importance: float = 0.8
    w_type: float = 2.5
    nil_score: float = 1.0
    temperature: float = 0.8


#: the paper's alternative deployed method: entity priors, no KG context.
#: Its sharper temperature models a system trained to be confident on the
#: popularity prior (strong on head entities, §6.3) — without it the
#: baseline would reject nearly everything at high thresholds.
BASELINE_CONFIG = ScorerConfig(
    w_name=3.0, w_context=0.0, w_importance=1.6, w_type=0.0,
    nil_score=1.0, temperature=0.4,
)
NERD_CONFIG = ScorerConfig()


class NERDIndex:
    """Candidate retrieval + disambiguation over a NERD Entity View."""

    def __init__(self, records: list[EntityRecord]):
        self.records = {r.entity_id: r for r in records}
        self._tok_index: dict[str, set[str]] = {}
        self._gram_index: dict[str, set[str]] = {}
        for r in records:
            for nm in r.names:
                for t in normalize(nm).split():
                    if t not in _STOP:
                        self._tok_index.setdefault(t, set()).add(r.entity_id)
                gs = normalize(nm)
                for i in range(max(1, len(gs) - 3)):
                    self._gram_index.setdefault(gs[i : i + 4], set()).add(r.entity_id)

    # -- candidate retrieval (blocking analogue, §5.2) -------------------
    def candidates(self, mention: str, *, k: int = 12, type_hint: str | None = None) -> list[str]:
        """Top-k likely matches by surface similarity (+importance tiebreak).

        Recall-oriented: token hits ∪ 4-gram hits survive to scoring; a
        type hint restricts the pool — the paper's Object-Resolution
        precision lever (Fig 14b).
        """
        pool: set[str] = set()
        norm = normalize(mention)
        for t in norm.split():
            pool |= self._tok_index.get(t, set())
        for i in range(max(1, len(norm) - 3)):
            pool |= self._gram_index.get(norm[i : i + 4], set())
        if type_hint is not None:
            pool = {e for e in pool if type_hint in self.records[e].types}
        scored = [
            (self._name_sim(mention, self.records[e]), self.records[e].importance, e)
            for e in pool
        ]
        scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
        return [e for s, _, e in scored[:k] if s > 0.5]

    def _name_sim(self, mention: str, rec: EntityRecord) -> float:
        best = 0.0
        for nm in rec.names[:8]:
            best = max(best, levenshtein_sim(mention, nm), jaccard_qgram(mention, nm))
        return best

    # -- contextual disambiguation (Fig 11 analogue) ----------------------
    def disambiguate(
        self,
        mention: str,
        context: str = "",
        *,
        type_hint: str | None = None,
        config: ScorerConfig = NERD_CONFIG,
        k: int = 12,
    ) -> Prediction:
        """One-vs-all classification over candidates with rejection.

        Confidence is a calibrated softmax over candidate scores plus a
        NIL option; callers threshold it (the Fig 14 sweeps).
        """
        cands = self.candidates(mention, k=k, type_hint=type_hint)
        if not cands:
            return Prediction(None, 1.0)
        ctx_toks = {t for t in normalize(context).split() if t not in _STOP}
        zs: list[tuple[float, str]] = []
        for e in cands:
            rec = self.records[e]
            z = config.w_name * self._name_sim(mention, rec)
            if config.w_context:
                inter = len(ctx_toks & rec.evidence_tokens())
                z += config.w_context * min(1.0, inter / 3.0)
            z += config.w_importance * min(1.0, rec.importance)
            if type_hint is not None and config.w_type:
                z += config.w_type * (1.0 if type_hint in rec.types else -1.0)
            zs.append((z / config.temperature, e))
        m = max(max(z for z, _ in zs), config.nil_score)
        exp_nil = math.exp(config.nil_score - m)
        exps = [(math.exp(z - m), e) for z, e in zs]
        total = exp_nil + sum(x for x, _ in exps)
        best_p, best_e = max(exps, key=lambda t: (t[0], t[1]))
        if exp_nil >= best_p:
            return Prediction(None, exp_nil / total)
        return Prediction(best_e, best_p / total)


# --------------------------------------------------------------------------
# NERD Entity View constructor
# --------------------------------------------------------------------------

def view_from_universe(uni) -> list[EntityRecord]:
    """Ground-truth NERD Entity View (standalone Fig 14 experiments)."""
    recs: list[EntityRecord] = []
    max_pop = float(uni.entities.popularity.max()) or 1.0
    for eid, etype in zip(uni.entities.eid, uni.entities.type):
        eid = int(eid)
        nbrs = uni.neighbors_of(eid)
        rel_objs = uni.rels[uni.rels.eid == eid].obj.astype(str).tolist()
        recs.append(
            EntityRecord(
                entity_id=str(eid),
                names=uni.aliases_of(eid),
                types=[etype],
                description=" ".join(rel_objs[:4]),
                neighbor_names=[uni.name_of(n) for n in nbrs],
                neighbor_types=[uni.type_of(n) for n in nbrs],
                importance=float(uni.popularity_of(eid)) / max_pop,
            )
        )
    return recs

