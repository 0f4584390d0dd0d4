"""The benchmark's ``serving`` workload (``sagabench/serving.py``) builds the
live layer through its public constructors and checks every answer against
its own reference KGQ evaluator.  Its minimum rounds run here, so a change
to ``repro.live`` that breaks the workload fails in tier-1."""
from pathlib import Path

SAGABENCH = Path(__file__).resolve().parents[1] / "sagabench"


def test_serving_answers_match_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(SAGABENCH))
    import serving

    result, _ = serving.run(1, 0, False, lambda: 0.0)
    assert result["errors"] == []
