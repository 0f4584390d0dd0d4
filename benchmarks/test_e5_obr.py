"""E5 benchmark — Fig 14(b): object resolution with type hints."""
from repro.experiments import e5_obr as exp


def test_e5_object_resolution(benchmark, report):
    result = benchmark.pedantic(
        lambda: exp.run(n_entities=800, n_tasks=1200),
        rounds=1, iterations=1,
    )
    report(exp.format_rows(result))
    assert result["recall_improvement_pct"] > 20.0
    assert result["precision_improvement_pct"] >= 0.0
