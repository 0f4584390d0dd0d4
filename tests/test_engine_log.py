"""Unit tests for the Graph Engine's op log, metadata store, and
orchestration-agent framework (§3.1)."""
import os

import pytest

from repro.engine.log import (
    GraphEngine,
    MetadataStore,
    OperationLog,
    OrchestrationAgent,
)


class Recorder(OrchestrationAgent):
    """Test agent: records applied ops."""

    def __init__(self, name="recorder"):
        self.name = name
        self.applied: list[dict] = []

    def apply(self, op):
        self.applied.append(op)


class TestOperationLog:
    def test_lsns_monotonic(self, tmp_path):
        log = OperationLog(tmp_path / "log.jsonl")
        assert [log.append({"kind": "a"}), log.append({"kind": "b"})] == [1, 2]

    def test_read_from_filters(self, tmp_path):
        log = OperationLog(tmp_path / "log.jsonl")
        for k in "abc":
            log.append({"kind": k})
        assert [o["kind"] for o in log.read_from(1)] == ["b", "c"]

    def test_durable_across_reopen(self, tmp_path):
        p = tmp_path / "log.jsonl"
        OperationLog(p).append({"kind": "a"})
        log2 = OperationLog(p)
        assert log2.append({"kind": "b"}) == 2  # LSN continues
        assert [o["lsn"] for o in log2.read_from(0)] == [1, 2]

    def test_empty_log(self, tmp_path):
        assert OperationLog(tmp_path / "log.jsonl").read_from(0) == []

    def test_torn_tail_dropped_on_reopen(self, tmp_path):
        p = tmp_path / "log.jsonl"
        log = OperationLog(p)
        log.append({"kind": "a"})
        log.append({"kind": "b"})
        with open(p, "a") as f:  # a crash mid-append: no trailing newline
            f.write('{"lsn": 3, "ki')
        log2 = OperationLog(p)
        assert [o["kind"] for o in log2.read_from(0)] == ["a", "b"]
        assert log2.append({"kind": "c"}) == 3
        assert [(o["lsn"], o["kind"]) for o in OperationLog(p).read_from(0)] == [
            (1, "a"), (2, "b"), (3, "c"),
        ]


class TestMetadataStore:
    def test_default_zero(self, tmp_path):
        assert MetadataStore(tmp_path / "m.json").get_lsn("x") == 0

    def test_set_get_roundtrip(self, tmp_path):
        m = MetadataStore(tmp_path / "m.json")
        m.set_lsn("analytics", 7)
        assert m.get_lsn("analytics") == 7
        assert m.get_lsn("other") == 0

    def test_durable(self, tmp_path):
        p = tmp_path / "m.json"
        MetadataStore(p).set_lsn("a", 3)
        assert MetadataStore(p).get_lsn("a") == 3

    def test_failed_write_keeps_previous_progress(self, tmp_path, monkeypatch):
        # the agent applied op 2, then crashed while recording it
        eng = GraphEngine(tmp_path)
        eng.register(Recorder())
        eng.publish({"kind": "a"})
        eng.run_agents()
        eng.publish({"kind": "b"})

        def crash(*args, **kwargs):
            raise OSError("crash while recording progress")

        with monkeypatch.context() as m:
            m.setattr(os, "replace", crash)
            with pytest.raises(OSError):
                eng.run_agents()
        # restart: LSN 1 reads back, op 2 is replayed once, then never again
        eng2 = GraphEngine(tmp_path)
        assert eng2.freshness("recorder") == 1
        a2 = Recorder()
        eng2.register(a2)
        assert eng2.run_agents() == eng2.run_agents() == {"recorder": 2}
        assert [o["kind"] for o in a2.applied] == ["b"]


class TestAgentReplay:
    def test_agent_sees_ops_in_order(self, tmp_path):
        eng = GraphEngine(tmp_path)
        a = Recorder()
        eng.register(a)
        for k in "abc":
            eng.publish({"kind": k})
        eng.run_agents()
        assert [o["kind"] for o in a.applied] == ["a", "b", "c"]
        assert [o["lsn"] for o in a.applied] == [1, 2, 3]

    def test_replay_is_incremental(self, tmp_path):
        eng = GraphEngine(tmp_path)
        a = Recorder()
        eng.register(a)
        eng.publish({"kind": "a"})
        eng.run_agents()
        eng.publish({"kind": "b"})
        eng.run_agents()
        assert [o["kind"] for o in a.applied] == ["a", "b"]  # no re-apply

    def test_freshness_tracks_progress(self, tmp_path):
        eng = GraphEngine(tmp_path)
        a = Recorder()
        eng.register(a)
        eng.publish({"kind": "a"})
        assert eng.freshness("recorder") == 0  # not yet replayed
        eng.run_agents()
        assert eng.freshness("recorder") == 1

    def test_lagging_store_catches_up_after_restart(self, tmp_path):
        eng = GraphEngine(tmp_path)
        eng.register(Recorder())
        eng.publish({"kind": "a"})
        eng.run_agents()
        eng.publish({"kind": "b"})
        # simulate restart: new engine + fresh agent instance, same workdir
        eng2 = GraphEngine(tmp_path)
        a2 = Recorder()
        eng2.register(a2)
        eng2.run_agents()
        assert [o["kind"] for o in a2.applied] == ["b"]  # only the lag

    def test_multiple_stores_independent_progress(self, tmp_path):
        eng = GraphEngine(tmp_path)
        fast, slow = Recorder("fast"), Recorder("slow")
        eng.register(fast)
        eng.publish({"kind": "a"})
        eng.run_agents()
        eng.register(slow)
        eng.publish({"kind": "b"})
        eng.run_agents()
        assert [o["kind"] for o in fast.applied] == ["a", "b"]
        assert [o["kind"] for o in slow.applied] == ["a", "b"]
        assert eng.freshness("fast") == eng.freshness("slow") == 2
