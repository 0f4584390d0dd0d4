"""KGQ (§4.2): the Live KG's structured graph query language.

KGQ is deliberately *less* expressive than general graph query languages so
latency stays bounded: queries are entity searches with multi-hop traversal
constraints and projections.  Grammar (one line, case-insensitive
keywords)::

    FIND "<text>" [TYPE <etype>] [FOLLOW p1[.p2...]] [RETURN q1[,q2...]]
        [LIMIT n]

``FIND`` retrieves seed entities from the inverted index; each ``FOLLOW``
hop traverses a reference predicate; ``RETURN`` projects fact predicates of
the final entities (``name`` always included).  *Virtual operators*
(``OP <name>(...)``) let users encapsulate complex expressions as new
reusable operators.  Compilation produces a physical plan of index/KV
operations with operator push-down (type filters applied at retrieval).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.live.construction import LiveGraph


class KGQSyntaxError(ValueError):
    """Raised when a KGQ string does not parse."""


@dataclass
class KGQQuery:
    """Parsed logical query."""

    find: str
    etype: str | None = None
    follow: tuple[str, ...] = ()
    returns: tuple[str, ...] = ("name",)
    limit: int = 10


@dataclass
class QueryResult:
    entity_id: str
    values: dict[str, list]


_GRAMMAR = re.compile(
    r"""^\s*FIND\s+"(?P<find>[^"]+)"
        (?:\s+TYPE\s+(?P<etype>\w+))?
        (?:\s+FOLLOW\s+(?P<follow>[\w.]+))?
        (?:\s+RETURN\s+(?P<returns>[\w,\s]+?))?
        (?:\s+LIMIT\s+(?P<limit>\d+))?\s*$""",
    re.IGNORECASE | re.VERBOSE,
)
_OP_GRAMMAR = re.compile(r"^\s*OP\s+(?P<name>\w+)\((?P<args>[^)]*)\)\s*$", re.IGNORECASE)
#: query-result cache capacity (entries); the cache stops filling there
CACHE_SIZE = 1024


def parse(text: str) -> KGQQuery:
    """Parse a KGQ string into a logical query."""
    m = _GRAMMAR.match(text)
    if not m:
        raise KGQSyntaxError(f"cannot parse KGQ: {text!r}")
    g = m.groupdict()
    return KGQQuery(
        find=g["find"],
        etype=g["etype"].lower() if g["etype"] else None,
        follow=tuple(g["follow"].split(".")) if g["follow"] else (),
        returns=tuple(s.strip() for s in g["returns"].split(",")) if g["returns"] else ("name",),
        limit=int(g["limit"]) if g["limit"] else 10,
    )


class LiveQueryEngine:
    """Compiles and executes KGQ with strict-latency physical plans.

    Physical plan per query: (1) inverted-index seed retrieval with the
    type filter pushed down, (2) one KV hop per FOLLOW predicate,
    (3) KV projection of RETURN predicates.  A small query-result cache
    accelerates repeated queries (the paper cites caching among its
    execution optimizations).
    """

    def __init__(self, graph: LiveGraph):
        self.graph = graph
        self.virtual_ops: dict[str, Callable[..., str]] = {}
        self._cache: dict[str, list[QueryResult]] = {}

    # -- virtual operators -------------------------------------------------
    def register_operator(self, name: str, expand: Callable[..., str]) -> None:
        """Register a virtual operator: ``expand(*args) -> KGQ string``."""
        self.virtual_ops[name.lower()] = expand

    # -- execution -----------------------------------------------------------
    def execute(self, text: str) -> list[QueryResult]:
        """Execute a KGQ string (or virtual-operator invocation)."""
        if text in self._cache:
            return self._cache[text]
        op = _OP_GRAMMAR.match(text)
        if op:
            name = op.group("name").lower()
            if name not in self.virtual_ops:
                raise KGQSyntaxError(f"unknown virtual operator {name!r}")
            args = [a.strip().strip('"') for a in op.group("args").split(",") if a.strip()]
            expanded = self.virtual_ops[name](*args)
            result = self.execute(expanded)
        else:
            result = self._run(parse(text))
        if len(self._cache) < CACHE_SIZE:
            self._cache[text] = result
        return result

    def _run(self, q: KGQQuery) -> list[QueryResult]:
        seeds = self.graph.find(q.find)
        if q.etype:  # push-down: filter at retrieval before any hop
            seeds = [e for e in seeds if q.etype in (self.graph.get(e) or {}).get("types", [])]
        seeds = seeds[: q.limit]
        frontier = list(seeds)
        for pred in q.follow:
            nxt: list[str] = []
            for e in frontier:
                nxt.extend(self.graph.neighbors_of(e, pred))
            # de-dup, preserve order
            frontier = list(dict.fromkeys(nxt))[: q.limit]
        out = []
        for e in frontier:
            doc = self.graph.get(e)
            if doc is None:
                continue
            vals: dict[str, list] = {}
            for p in q.returns:
                if p == "name":
                    vals[p] = doc["names"][:1]
                else:
                    vals[p] = self.graph.facts_of(e, p)
            out.append(QueryResult(e, vals))
        return out
