"""``serving`` workload: one closed-loop client against a loaded LiveGraph.

The stable view is built here from the generator's universe (one record per
entity: names, type, literal facts, entity-valued neighbours).  Requests are
drawn by the universe's Zipf popularity; each round is a fixed mix of KGQ
point lookups, 1-hop and 2-hop FOLLOW queries, a virtual operator and
IntentHandler utterances, with streaming ``live_fact`` upserts and curation
``block``/``edit`` events between them.  Every answer is compared with
``ReferenceGraph``, a KGQ evaluator over the benchmark's own model of the
graph (stable records plus the events applied).

Seeded writes go to streaming entities that no seeded read touches: a read
made stale by a seeded write would fail on some seeds and not on others.
The stale-cache fault (``LiveQueryEngine`` never invalidates its cache on
``LiveGraph.apply``) is exercised instead by a fixed probe at the end of
every round, on entities that do not depend on the seed; each of its reads
is counted as a failed operation while the fault stands.
"""
from __future__ import annotations

import itertools
import random
import statistics
import time
from dataclasses import dataclass

from repro.kgdata.universe import make_universe
from repro.live.construction import LiveEvent, LiveGraph
from repro.live.intents import IntentHandler
from repro.live.kgq import LiveQueryEngine
from proc import peak_rss_mb, rss_mb
from spans import Tracer

N_ENTITIES = 4000
N_LIVE = 200
#: reads per round by request class: the KGQ classes in the shares of
#: ``experiments.e7_live.make_workload`` (40/30/20/10% lookup, 1-hop, 2-hop,
#: operator), plus one intent per five KGQ requests
READ_MIX = {"lookup": 160, "hop1": 120, "hop2": 80, "op": 40, "intent": 80}
#: writes per round by event kind (2% of a round; see the README)
WRITE_MIX = {"live_fact": 6, "edit": 2, "block": 2}
#: rounds after which the memory high-water mark is read: the query cache
#: is full by then, and the benchmark's own per-round records still small
MEM_ROUNDS = 4

#: 2-hop chains and 1-hop targets by entity type
HOP2 = {
    "person": ("spouse", "birthplace"),
    "song": ("by_artist", "birthplace"),
    "album": ("by_artist", "birthplace"),
    "movie": ("directed_by", "birthplace"),
}
#: literal predicate returned for the target of each entity-valued predicate
TARGET_RETURN = {
    "birthplace": "country", "spouse": "birthdate", "by_artist": "genre",
    "directed_by": "birthdate", "home_city": "timezone", "in_city": "country",
}
LOOKUP_RETURN = {
    "person": ("birthdate", "occupation"), "artist": ("genre", "record_label"),
    "song": ("genre", "release_year"), "album": ("release_year", "record_label"),
    "movie": ("genre", "full_title"), "city": ("country", "timezone"),
    "team": ("sport",), "org": ("org_type",),
}
#: utterance template and intent per entity type, and the routes those
#: intents take in this ontology (§4.2: one intent, type-dependent queries)
INTENTS = {
    "person": ("where is {} from?", "Birthplace"),
    "artist": ("where is {} from?", "Birthplace"),
    "song": ("who sings {}?", "ArtistOf"),
    "album": ("who sings {}?", "ArtistOf"),
    "team": ("where is the {}?", "WhereIs"),
    "org": ("where is the {}?", "WhereIs"),
}
ROUTES = {
    "Birthplace": {"*": "birthplace"},
    "ArtistOf": {"*": "by_artist"},
    "WhereIs": {"team": "home_city", "org": "in_city", "*": "birthplace"},
}
HOP1 = {"person": "birthplace", "artist": "birthplace", "song": "by_artist",
        "album": "by_artist", "team": "home_city", "org": "in_city",
        "movie": "directed_by"}
OP_NAME = "born_in"
OP_TEMPLATE = 'FIND "{}" FOLLOW birthplace RETURN name,country,timezone'

PROBE_RECORDS = [
    {"id": "probe:0", "names": ["Probe Alpha"], "types": ["org"],
     "facts": {"status": ["open"]}, "neighbors": {}},
    {"id": "probe:1", "names": ["Probe Beta"], "types": ["team"],
     "facts": {"score": ["0"]}, "neighbors": {}},
]
PROBE_Q0 = 'FIND "Probe Alpha" RETURN name,status'
PROBE_Q1 = 'FIND "Probe Beta" RETURN name,score'


def stable_records(uni) -> list[dict]:
    """Stable-view records (LiveGraph.load_stable format) from the universe."""
    facts: dict[int, dict[str, list]] = {}
    nbrs: dict[int, dict[str, list]] = {}
    for eid, pred, obj, obj_eid in zip(
        uni.attrs.eid, uni.attrs.predicate, uni.attrs.obj, uni.attrs.obj_eid
    ):
        facts.setdefault(int(eid), {}).setdefault(pred, []).append(obj)
        if obj_eid == obj_eid:  # not NaN
            nbrs.setdefault(int(eid), {}).setdefault(pred, []).append(f"kg:{int(obj_eid)}")
    return [
        {
            "id": f"kg:{int(eid)}",
            "names": list(uni.aliases_of(int(eid))),
            "types": [etype],
            "facts": facts.get(int(eid), {}),
            "neighbors": nbrs.get(int(eid), {}),
        }
        for eid, etype in zip(uni.entities.eid, uni.entities.type)
    ]


# --------------------------------------------------------------------------
# reference evaluator
# --------------------------------------------------------------------------

def _tokens(text: str) -> list[str]:
    return text.casefold().split()


class ReferenceGraph:
    """The benchmark's own model of the live graph and of KGQ semantics:
    all-token name search (any-token when nothing matches), sorted ids,
    type filter before LIMIT, FOLLOW hops de-duplicated in order, blocked
    predicates hidden, live values shadowing stable facts."""

    def __init__(self, records: list[dict]):
        self.docs: dict[str, dict] = {}
        self.postings: dict[str, set[str]] = {}
        for r in records:
            self._put(r["id"], r["names"], r["types"], r["facts"], r["neighbors"])

    def _put(self, eid, names, types, facts, neighbors) -> dict:
        doc = {
            "names": list(names), "types": list(types),
            "facts": {k: list(v) for k, v in facts.items()},
            "neighbors": {k: list(v) for k, v in neighbors.items()},
            "live": {}, "blocked": set(),
        }
        self.docs[eid] = doc
        for nm in names:
            for tok in _tokens(nm):
                self.postings.setdefault(tok, set()).add(eid)
        return doc

    def find(self, text: str) -> list[str]:
        toks = _tokens(text)
        hit = set.intersection(*(self.postings.get(t, set()) for t in toks)) if toks else set()
        if not hit:
            hit = set().union(*(self.postings.get(t, set()) for t in toks)) if toks else set()
        return sorted(hit)

    def facts(self, eid: str, pred: str) -> list:
        doc = self.docs.get(eid)
        if doc is None or pred in doc["blocked"]:
            return []
        if pred in doc["live"]:
            return [doc["live"][pred]]
        return list(doc["facts"].get(pred, []))

    def neighbors(self, eid: str, pred: str) -> list[str]:
        doc = self.docs.get(eid)
        if doc is None or pred in doc["blocked"]:
            return []
        return list(doc["neighbors"].get(pred, []))

    def query(self, find, etype=None, follow=(), returns=("name",), limit=10) -> list:
        seeds = self.find(find)
        if etype:
            seeds = [e for e in seeds if etype in self.docs[e]["types"]]
        frontier = seeds[:limit]
        for pred in follow:
            nxt = [n for e in frontier for n in self.neighbors(e, pred)]
            frontier = list(dict.fromkeys(nxt))[:limit]
        out = []
        for e in frontier:
            if e not in self.docs:
                continue
            vals = {
                p: self.docs[e]["names"][:1] if p == "name" else self.facts(e, p)
                for p in returns
            }
            out.append((e, vals))
        return out

    def intent(self, arg: str, intent: str) -> list:
        ids = self.find(arg)
        if not ids:
            return []
        doc = self.docs[ids[0]]
        routes = ROUTES[intent]
        pred = next((routes[t] for t in doc["types"] if t in routes), routes["*"])
        return self.query(doc["names"][0], follow=(pred,))

    def apply(self, ev) -> None:
        if ev.kind == "curation":
            doc = self.docs.get(ev.entity_id)
            if doc is None:
                return
            if ev.action == "block":
                doc["blocked"].add(ev.predicate)
            else:
                doc["facts"][ev.predicate] = [ev.value]
                doc["blocked"].discard(ev.predicate)
            return
        doc = self.docs.get(ev.entity_id)
        if doc is None:
            doc = self._put(ev.entity_id, [ev.name] if ev.name else [],
                            [ev.etype] if ev.etype else [], {}, {})
        if ev.predicate:
            doc["live"][ev.predicate] = ev.value
        for pred, mention in ev.refs.items():
            ids = self.find_all(mention)
            if ids and ids[0] not in doc["neighbors"].setdefault(pred, []):
                doc["neighbors"][pred].append(ids[0])

    def find_all(self, text: str) -> list[str]:
        toks = _tokens(text)
        return sorted(set.intersection(*(self.postings.get(t, set()) for t in toks))) if toks else []


def verdict(got: list, want: list, prev: tuple | None, writes: int) -> str:
    """"ok", "stale" or "incorrect" for one answer.

    ``prev`` is (answer, writes applied, result object) from the last time
    the same request was sent.  A wrong answer is stale when a write came
    after that request and the answer is the one served before the write.
    """
    if got == want:
        return "ok"
    if prev is not None and prev[1] < writes and got == prev[0]:
        return "stale"
    return "incorrect"


def canon(results) -> list:
    """QueryResult list → comparable [(entity_id, values)]."""
    return [(r.entity_id, r.values) for r in results]


# --------------------------------------------------------------------------
# request generation
# --------------------------------------------------------------------------

@dataclass
class Op:
    kind: str  # read class ("lookup", ..., "intent") or "write"
    text: str = ""
    ref: tuple = ()  # reference evaluation: ("q", kwargs) or ("intent", arg, intent)
    ev: object = None


def _popular_pool(uni, types) -> tuple[list[int], list[float]]:
    """Entities of ``types`` and cumulative weights from the generator's
    Zipf popularity."""
    ents = uni.entities[uni.entities.type.isin(types)]
    return [int(e) for e in ents.eid], list(itertools.accumulate(ents.popularity))


class RequestMaker:
    def __init__(self, uni, seed: int):
        self.rng = random.Random(seed)
        self.names = dict(zip(uni.entities.eid.astype(int), uni.entities.name))
        self.types = dict(zip(uni.entities.eid.astype(int), uni.entities.type))
        self.pools = {
            "lookup": _popular_pool(uni, list(LOOKUP_RETURN)),
            "hop1": _popular_pool(uni, list(HOP1)),
            "hop2": _popular_pool(uni, list(HOP2)),
            "op": _popular_pool(uni, ["person", "artist"]),
            "intent": _popular_pool(uni, list(INTENTS)),
        }
        self.teams = [self.names[int(e)] for e in uni.entities.eid[uni.entities.type == "team"]]
        self.live_ids = [f"live:{k}" for k in range(N_LIVE)]

    def _pick(self, cls: str) -> int:
        eids, cum = self.pools[cls]
        return self.rng.choices(eids, cum_weights=cum)[0]

    def read(self, cls: str) -> Op:
        eid = self._pick(cls)
        name, etype = self.names[eid], self.types[eid]
        if cls == "lookup":
            rets = ("name",) + LOOKUP_RETURN[etype]
            text = f'FIND "{name}" TYPE {etype} RETURN {",".join(rets)}'
            return Op(cls, text, ("q", dict(find=name, etype=etype, returns=rets)))
        if cls == "hop1":
            pred = HOP1[etype]
            rets = ("name", TARGET_RETURN[pred])
            text = f'FIND "{name}" FOLLOW {pred} RETURN {",".join(rets)}'
            return Op(cls, text, ("q", dict(find=name, follow=(pred,), returns=rets)))
        if cls == "hop2":
            chain = HOP2[etype]
            text = f'FIND "{name}" FOLLOW {".".join(chain)} RETURN name'
            return Op(cls, text, ("q", dict(find=name, follow=chain)))
        if cls == "op":
            return Op(cls, f'OP {OP_NAME}("{name}")',
                      ("q", dict(find=name, follow=("birthplace",),
                                 returns=("name", "country", "timezone"))))
        template, intent = INTENTS[etype]
        return Op(cls, template.format(name), ("intent", name, intent))

    def write(self, kind: str) -> Op:
        lid = self.rng.choice(self.live_ids)
        if kind == "live_fact":
            ev = LiveEvent("live_fact", lid, predicate="score",
                           value=str(self.rng.randrange(200)),
                           refs={"home_team": self.rng.choice(self.teams)})
        elif kind == "edit":
            ev = LiveEvent("curation", lid, predicate="venue",
                           value=f"arena {self.rng.randrange(50)}", action="edit")
        else:
            ev = LiveEvent("curation", lid, predicate="score", action="block")
        return Op("write", ev=ev)

    def live_entities(self) -> list:
        return [
            LiveEvent("live_fact", lid, predicate="score", value="0",
                      name=f"livegame {k}", etype="game",
                      refs={"home_team": self.rng.choice(self.teams)})
            for k, lid in enumerate(self.live_ids)
        ]

    def round(self) -> list[Op]:
        ops = [self.read(c) for c, n in READ_MIX.items() for _ in range(n)]
        ops += [self.write(k) for k, n in WRITE_MIX.items() for _ in range(n)]
        self.rng.shuffle(ops)
        return ops


def probe_round(k: int) -> list[Op]:
    """Fixed, seed-independent writes each followed by a read of a query
    cached in set-up; each read is stale while the cache is never
    invalidated."""
    q0 = ("q", dict(find="Probe Alpha", returns=("name", "status")))
    q1 = ("q", dict(find="Probe Beta", returns=("name", "score")))
    return [
        Op("write", ev=LiveEvent("curation", "probe:0", predicate="status",
                                 value=f"closed {k}", action="edit")),
        Op("probe", PROBE_Q0, q0),
        Op("write", ev=LiveEvent("curation", "probe:0", predicate="status", action="block")),
        Op("probe", PROBE_Q0, q0),
        Op("write", ev=LiveEvent("live_fact", "probe:1", predicate="score", value=str(k + 1))),
        Op("probe", PROBE_Q1, q1),
    ]


# --------------------------------------------------------------------------
# the workload
# --------------------------------------------------------------------------

SPAN = {"write": "live.apply", "intent": "intents", "lookup": "kgq.lookup",
        "hop1": "kgq.hop1", "hop2": "kgq.hop2", "op": "kgq.op", "probe": "kgq.probe"}


def _p99(xs: list[float]) -> float:
    """99th percentile; callers report it only with >= 10 samples beyond."""
    return statistics.quantiles(xs, n=100)[98]


def run(seed: int, seconds: float, traced: bool, clock):
    """Returns (result, tracer)."""
    uni = make_universe(n_entities=N_ENTITIES, seed=seed)
    maker = RequestMaker(uni, seed)
    records = stable_records(uni) + PROBE_RECORDS
    ref = ReferenceGraph(records)

    tracer = Tracer(enabled=traced)
    graph = LiveGraph()
    # inputs and the reference model are resident by now; the high-water
    # mark is printed too, to show that nothing above the base came before
    base_mb, base_peak_mb = rss_mb(), peak_rss_mb()
    t0 = time.perf_counter()
    graph.load_stable(records)
    load_s = time.perf_counter() - t0
    engine = LiveQueryEngine(graph)
    engine.register_operator(OP_NAME, OP_TEMPLATE.format)
    for ev in maker.live_entities():
        graph.apply(ev)
        ref.apply(ev)
    errors: list[str] = []
    # the probe queries are cached before any other request fills the cache
    last: dict[str, tuple] = {}
    for text, op in ((PROBE_Q0, probe_round(0)[1]), (PROBE_Q1, probe_round(0)[5])):
        out = engine.execute(text)
        if canon(out) != ref.query(**op.ref[1]):
            errors.append(f"probe query {text!r} differs from the reference")
        last[text] = (canon(out), 0, out)
    setup_s = clock()

    handler = None

    def do(op):
        if op.kind == "write":
            return graph.apply(op.ev)
        if op.kind == "intent":
            return handler.process(op.text).answers
        return engine.execute(op.text)

    hits = kgq = stale = incorrect = writes = attempted = rounds = 0
    lat: dict[str, list[float]] = {k: [] for k in SPAN}
    busy = 0.0
    write_cpu: list[float] = []
    read_cpu: list[float] = []
    t_start = time.perf_counter()
    while rounds < MEM_ROUNDS or time.perf_counter() - t_start < seconds:
        ops = maker.round() + probe_round(rounds)
        handler = IntentHandler(graph, engine)  # one conversation per round
        answers = []
        t_round = time.perf_counter()
        for op in ops:
            c0 = time.process_time()
            t0 = time.perf_counter()
            out = do(op)
            dt = time.perf_counter() - t0
            (write_cpu if op.kind == "write" else read_cpu).append(time.process_time() - c0)
            lat[op.kind].append(dt)
            if traced:
                tracer.leaf(SPAN[op.kind], dt)
            answers.append(out)
        busy += time.perf_counter() - t_round
        # check the round against the reference, replaying it in order
        for op, out in zip(ops, answers):
            attempted += 1
            if op.kind == "write":
                ref.apply(op.ev)
                writes += 1
                continue
            want = (ref.query(**op.ref[1]) if op.ref[0] == "q"
                    else ref.intent(op.ref[1], op.ref[2]))
            got = canon(out)
            prev = last.get(op.text)
            if op.kind != "intent":
                kgq += 1
                hits += prev is not None and prev[2] is out
            v = verdict(got, want, prev, writes)
            stale += v == "stale"
            incorrect += v == "incorrect"
            last[op.text] = (got, writes, out)
        rounds += 1
        if rounds == MEM_ROUNDS:
            mem_mb = peak_rss_mb() - base_mb

    if incorrect:
        errors.append(f"{incorrect} answers differ from the reference KGQ evaluator")
    reads = [x for k in SPAN if k != "write" for x in lat[k]]
    p50 = statistics.median(reads)
    w50 = statistics.median(lat["write"])
    return {
        "attempted": attempted,
        "failed": stale,
        "timed_s": busy,
        "errors": errors,
        "e2e": {
            "setup_s": setup_s,
            # means, not medians: this host's CPU speed alternates between
            # two levels every few seconds, and a median jumps with the
            # share of a run spent at each, where a mean moves in proportion
            "op_cpu_ms": statistics.fmean(read_cpu) * 1e3,
            "fresh_cpu_ms": statistics.fmean(write_cpu) * 1e3,
            "peak_mem_mb": mem_mb,
        },
        "named": {
            "kgq_qps": len(reads) / (busy - sum(lat["write"])),
            "kgq_p50_us": p50 * 1e6,
            "kgq_p99_us": _p99(reads) * 1e6,
            "kgq_samples": len(reads),
            "load_s": load_s,
            "write_p50_us": w50 * 1e6,
            "rounds": rounds,
            "distinct_requests": len(last),
            "rss_base_mb": base_mb,
            "rss_peak_before_load_mb": base_peak_mb,
            "cache_hit_share": hits / kgq,
        },
        "layers": {
            "live.load.s": load_s,
            "live.apply.us": w50 * 1e6,
            "live.kv_docs": len(graph.kv),
            # the index has no size accessor; read its shards, 0 if they move
            "live.postings": sum(len(ids) for shard in getattr(graph.index, "_shards", [])
                                 for ids in shard.values()),
            **{f"{SPAN[k]}.us": statistics.median(lat[k]) * 1e6
               for k in ("lookup", "hop1", "hop2", "op", "intent")},
            "kgq.p50_us": p50 * 1e6,
            "kgq.qps": len(reads) / (busy - sum(lat["write"])),
            "kgq.p99_us": _p99(reads) * 1e6,
            "kgq.requests": kgq,
            "kgq.cache_hit_share": hits / kgq,
            "kgq.stale": stale,
        },
    }, tracer
