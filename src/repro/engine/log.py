"""Graph Engine storage coordination (§3.1).

A durable operation log assigns Log Sequence Numbers (LSNs) to ingest
operations; *orchestration agents* replay operations in order into their
store and record replay progress in a metadata store, so a consumer can
reason about each store's freshness ("serving at least KG version X").
The log is a JSONL file (fsync'd per append), the metadata store a JSON
file replaced atomically per write — the durability/ordering semantics of
the paper's distributed shared log at single-node scale (DESIGN.md §3).

Agents encapsulate all store-specific logic; the framework is generic, so
onboarding a new engine means implementing :class:`OrchestrationAgent.apply`
and nothing else.
"""
from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from pathlib import Path


class OperationLog:
    """Append-only JSONL log with monotonically increasing LSNs."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._next_lsn = 1 + max(
            (op["lsn"] for op in self.read_from(0)), default=0
        )

    def append(self, op: dict) -> int:
        """Durably append ``op``; returns its LSN."""
        lsn = self._next_lsn
        record = {"lsn": lsn, **op}
        with open(self.path, "a") as f:
            f.write(json.dumps(record) + "\n")
            f.flush()
            os.fsync(f.fileno())
        self._next_lsn += 1
        return lsn

    def read_from(self, after_lsn: int) -> list[dict]:
        """All operations with LSN > ``after_lsn``, in order."""
        if not self.path.exists():
            return []
        out = []
        with open(self.path) as f:
            for line in f:
                if line.strip():
                    op = json.loads(line)
                    if op["lsn"] > after_lsn:
                        out.append(op)
        return sorted(out, key=lambda o: o["lsn"])


class MetadataStore:
    """Per-store replay progress (store name → last replayed LSN)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def _load(self) -> dict:
        if self.path.exists():
            return json.loads(self.path.read_text())
        return {}

    def get_lsn(self, store: str) -> int:
        return int(self._load().get(store, 0))

    def set_lsn(self, store: str, lsn: int) -> None:
        """Record progress atomically: the new file is fsync'd beside the
        old one and renamed over it, so a crash mid-write leaves the
        previous progress readable."""
        d = self._load()
        d[store] = lsn
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w") as f:
            f.write(json.dumps(d, indent=2))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)


class OrchestrationAgent(ABC):
    """Replays log operations into one store, in order."""

    name: str = "agent"

    @abstractmethod
    def apply(self, op: dict) -> None:
        """Apply one operation to the underlying store."""

    def replay(self, log: OperationLog, meta: MetadataStore) -> int:
        """Catch up on unreplayed operations; returns new progress LSN."""
        last = meta.get_lsn(self.name)
        for op in log.read_from(last):
            self.apply(op)
            last = op["lsn"]
            meta.set_lsn(self.name, last)
        return last


class GraphEngine:
    """Coordinates the log, metadata store and registered agents (Fig 6)."""

    def __init__(self, workdir: str | Path):
        self.workdir = Path(workdir)
        self.log = OperationLog(self.workdir / "oplog.jsonl")
        self.meta = MetadataStore(self.workdir / "metadata.json")
        self.agents: dict[str, OrchestrationAgent] = {}

    def register(self, agent: OrchestrationAgent) -> None:
        self.agents[agent.name] = agent

    def publish(self, op: dict) -> int:
        """KG construction (the sole producer) publishes an ingest op."""
        return self.log.append(op)

    def run_agents(self) -> dict[str, int]:
        """Let every agent catch up; returns per-store freshness LSNs."""
        return {
            name: agent.replay(self.log, self.meta)
            for name, agent in self.agents.items()
        }

    def freshness(self, store: str) -> int:
        """Minimum KG version the named store is serving."""
        return self.meta.get_lsn(store)
