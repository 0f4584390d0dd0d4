"""Serving substrate of the Live KG (§4.1): an inverted index over entity
surface forms, optimized for low-latency point reads.

Saga's scale-out online stores are modelled in one process (DESIGN.md §3):
one posting dict here, and a plain ``dict`` of entity documents as the KV
store (``LiveGraph.kv``); sharding, replication and geo-distribution are
out of scope.  All mutations are in-place and immediately visible — the
property the curation *hot fix* path (§4.3) relies on.
"""
from __future__ import annotations

from repro.ml.simfns import normalize


class InvertedIndex:
    """Token → posting-list index over entity surface forms."""

    def __init__(self):
        self._postings: dict[str, set[str]] = {}

    def add(self, text: str, entity_id: str) -> None:
        for tok in normalize(text).split():
            self._postings.setdefault(tok, set()).add(entity_id)

    def lookup(self, text: str) -> set[str]:
        """Entity ids whose indexed surface forms contain *all* tokens."""
        toks = normalize(text).split()
        if not toks:
            return set()
        acc: set[str] | None = None
        for tok in toks:
            postings = self._postings.get(tok, set())
            acc = set(postings) if acc is None else acc & postings
            if not acc:
                return set()
        return acc or set()

    def lookup_any(self, text: str) -> set[str]:
        """Union semantics — recall-oriented retrieval."""
        out: set[str] = set()
        for tok in normalize(text).split():
            out |= self._postings.get(tok, set())
        return out
