"""Unit tests for the live serving substrates (§4.1): the inverted index
and the KV store of entity documents (``LiveGraph.kv``)."""
import pytest

from repro.live.construction import LiveEvent, LiveGraph
from repro.live.index import InvertedIndex


class TestKVStore:
    """``LiveGraph.kv`` is one plain dict; the test keeps the name it had
    when the store hash-routed keys over shards."""

    @pytest.mark.parametrize("n_writes", [1, 2, 4, 8])
    def test_put_get_across_shards(self, n_writes):
        graph = LiveGraph()
        for w in range(n_writes):
            for i in range(50):
                graph.apply(LiveEvent("live_fact", f"e{i}", "v", (i, w),
                                      name=f"name{i}"))
        assert len(graph.kv) == 50
        for i in range(50):
            assert graph.facts_of(f"e{i}", "v") == [(i, n_writes - 1)]
            assert graph.find(f"name{i}") == [f"e{i}"]


class TestInvertedIndex:
    def test_all_token_semantics(self):
        ix = InvertedIndex()
        ix.add("Tom Hanks", "e1")
        ix.add("Tom Petty", "e2")
        assert ix.lookup("tom hanks") == {"e1"}
        assert ix.lookup("tom") == {"e1", "e2"}
        assert ix.lookup("hanks petty") == set()

    def test_any_token_semantics(self):
        ix = InvertedIndex()
        ix.add("Tom Hanks", "e1")
        ix.add("Tom Petty", "e2")
        assert ix.lookup_any("hanks petty") == {"e1", "e2"}

    def test_case_insensitive(self):
        ix = InvertedIndex()
        ix.add("HANOVER", "e1")
        assert ix.lookup("hanover") == {"e1"}

    def test_empty_query(self):
        assert InvertedIndex().lookup("") == set()

    @pytest.mark.parametrize("n_shared", [1, 3, 7])
    def test_sharding_transparent(self, n_shared):
        # One posting dict serves every token: entities sharing n_shared
        # tokens are all found by all- and any-token lookups, and a unique
        # token still finds its one entity.
        shared = " ".join(f"common{k}" for k in range(n_shared))
        ix = InvertedIndex()
        for i in range(40):
            ix.add(f"name{i} {shared}", f"e{i}")
        assert len(ix.lookup(shared)) == 40
        assert len(ix.lookup_any(shared)) == 40
        assert ix.lookup("name7") == {"e7"}
        assert ix.lookup(f"name7 {shared}") == {"e7"}
