"""The benchmark's traced mode (``sagabench/layers.py``) wraps program
functions at the names their callers import them under.  A rename in the
program must fail here, in tier-1, not only in a traced benchmark run."""
from pathlib import Path

SAGABENCH = Path(__file__).resolve().parents[1] / "sagabench"


def test_layers_install_and_restore(tuned_spark, monkeypatch):
    monkeypatch.syspath_prepend(str(SAGABENCH))
    import layers
    import spans

    tracer = spans.Tracer(tuned_spark)
    layers.install(tracer)
    assert tracer._undo
    tracer.restore()
    assert not tracer._undo
