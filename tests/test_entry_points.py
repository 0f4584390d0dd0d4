"""Entry points without a Spark session: the experiment runner
(``jobs/experiment.py``) and the test session's driver-memory setting."""
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def runner():
    return _load("experiment_runner", ROOT / "jobs" / "experiment.py")


def test_runner_accepts_every_experiment(runner):
    assert runner.NAMES == [f"e{i}_{n}" for i, n in enumerate(
        ["incremental", "views", "view_reuse", "growth", "nerd", "obr", "sim", "live", "kge"]
    )]
    for name in runner.NAMES:
        mod = importlib.import_module(f"repro.experiments.{name}")
        assert callable(mod.run) and callable(mod.format_rows), name


def test_runner_rejects_unknown_name():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    )}
    out = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "experiment.py"), "e9_nope"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert out.returncode != 0
    assert "e1_views" in out.stderr and "e8_kge" in out.stderr, out.stderr


def test_driver_mem_fallback_fits_in_memtotal(monkeypatch):
    root_conftest = _load("root_conftest", ROOT / "conftest.py")
    monkeypatch.setattr(root_conftest, "CGROUP_LIMITS", ("/nonexistent/memory.max",))
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.setenv("_SPARK_DRIVER_MEM_SRC", "")  # restored after the test
    mem = root_conftest._driver_mem()
    with open("/proc/meminfo") as f:
        total_kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    assert mem.endswith("g")
    assert int(mem[:-1]) << 20 <= total_kib
