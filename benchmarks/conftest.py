"""Benchmark fixtures: result-table sink + capture-bypassing printer."""
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture()
def report(capsys, request):
    """Print an experiment table to the live terminal (bypassing pytest
    capture, so it lands in bench_output.txt) and persist it under
    ``benchmarks/results/`` for EXPERIMENTS.md diffing."""

    def _report(text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{request.node.name}.txt").write_text(text)
        with capsys.disabled():
            print(f"\n{text}")

    return _report
